"""Tests for the concentration bound and its inversion.

Groups:
  1. deviation_bound values frozen from closed forms, plus monotonicity
  2. critical_rate / invert_critical_rate round trips and limits
  3. ambiguity_radius consistency with deviation_bound on all three branches
  4. scaling laws of the radius (in rho, n, beta)
  5. calibrated_radius schedule
"""

import math

import numpy as np
import pytest

from ambiflow.concentration import (
    RadiusConfig,
    ambiguity_radius,
    calibrated_radius,
    critical_rate,
    deviation_bound,
    invert_critical_rate,
)

# Closed-form anchor values, computed by hand from the branch formulas.
EXP_MINUS_1 = 0.36787944117144233          # exp(-1)
CRITICAL_ANCHOR = 0.43668837030999114      # exp(-1 / (ln 3)^2)
RATE_AT_1 = 0.828535449690223              # 1 / (ln 3)^2
RATE_AT_01 = 0.0016194958648292803         # 0.01 / (ln 12)^2


# --- group 1: deviation_bound ------------------------------------------------


def test_supercritical_anchor():
    cfg = RadiusConfig(p=1.0, d=1, beta=0.5)
    assert cfg.regime == "supercritical"
    assert deviation_bound(1.0, 1.0, 1, cfg) == pytest.approx(EXP_MINUS_1, rel=1e-14)


def test_critical_anchor():
    cfg = RadiusConfig(p=1.0, d=2, beta=0.5)
    assert cfg.regime == "critical"
    assert deviation_bound(1.0, 1.0, 1, cfg) == pytest.approx(
        CRITICAL_ANCHOR, rel=1e-14
    )


def test_subcritical_formula():
    cfg = RadiusConfig(p=1.0, d=3, beta=0.5)
    assert cfg.regime == "subcritical"
    # rate = eps^(d/p) / rho^d = 0.5^3 / 2^3
    want = math.exp(-4 * 0.5**3 / 2**3)
    assert deviation_bound(0.5, 2.0, 4, cfg) == pytest.approx(want, rel=1e-14)


def test_constants_scale_the_bound():
    cfg = RadiusConfig(p=2.0, d=2, beta=0.5, big_c=3.0, small_c=2.0)
    assert deviation_bound(1.0, 1.0, 1, cfg) == pytest.approx(
        3.0 * math.exp(-2.0), rel=1e-14
    )


def test_bound_monotone_in_n_eps_rho():
    for cfg in (
        RadiusConfig(p=2.0, d=1, beta=0.1),
        RadiusConfig(p=1.0, d=2, beta=0.1),
        RadiusConfig(p=1.0, d=5, beta=0.1),
    ):
        base = deviation_bound(0.5, 1.0, 10, cfg)
        assert deviation_bound(0.5, 1.0, 20, cfg) < base
        assert deviation_bound(0.8, 1.0, 10, cfg) < base
        assert deviation_bound(0.5, 2.0, 10, cfg) > base


def test_bound_input_validation():
    cfg = RadiusConfig(p=1.0, d=1, beta=0.5)
    with pytest.raises(ValueError):
        deviation_bound(0.0, 1.0, 1, cfg)
    with pytest.raises(ValueError):
        deviation_bound(1.0, -1.0, 1, cfg)
    with pytest.raises(ValueError):
        deviation_bound(1.0, 1.0, 0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        RadiusConfig(p=0.5, d=1, beta=0.5)
    with pytest.raises(ValueError):
        RadiusConfig(p=1.0, d=0, beta=0.5)
    with pytest.raises(ValueError):
        RadiusConfig(p=1.0, d=1, beta=1.5)
    with pytest.raises(ValueError):
        RadiusConfig(p=1.0, d=1, beta=0.5, big_c=0.0)


@pytest.mark.parametrize(
    "name, value",
    [("p", math.inf), ("p", math.nan), ("beta", math.nan), ("big_c", math.inf),
     ("big_c", math.nan), ("small_c", math.inf)],
)
def test_config_rejects_non_finite_numbers(name, value):
    kwargs = dict(p=1.0, d=1, beta=0.5)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RadiusConfig(**kwargs)


# --- group 2: critical rate inversion ----------------------------------------


def test_rate_anchor_values():
    assert critical_rate(1.0) == pytest.approx(RATE_AT_1, rel=1e-14)
    assert critical_rate(0.1) == pytest.approx(RATE_AT_01, rel=1e-14)


def test_rate_strictly_increasing():
    xs = np.logspace(-8, 4, 60)
    vals = [critical_rate(float(x)) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_inverse_round_trips():
    for y in (1e-6, 1e-3, 1.0, 1e3):
        x = invert_critical_rate(y)
        assert critical_rate(x) == pytest.approx(y, rel=1e-10), f"y={y}"
        # and the other direction
        assert invert_critical_rate(critical_rate(x)) == pytest.approx(x, rel=1e-10)


def test_inverse_monotone():
    ys = np.logspace(-7, 3, 40)
    xs = [invert_critical_rate(float(y)) for y in ys]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_inverse_rejects_nonpositive():
    with pytest.raises(ValueError):
        invert_critical_rate(0.0)
    with pytest.raises(ValueError):
        critical_rate(-1.0)


def test_scaled_inverse_vanishes_for_fast_growth():
    # x(kappa) = g^{-1}(a/kappa) decays faster than kappa^(-1/q) for any
    # q > 2, so the product x(kappa) * kappa^(1/3) must fall toward zero.
    vals = [
        invert_critical_rate(1.0 / k) * k ** (1.0 / 3.0)
        for k in (1e2, 1e4, 1e6, 1e8, 1e12, 1e16)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # The decay carries a log factor, so it is slow but relentless.
    assert vals[-1] < 0.1 * vals[0]


# --- group 3: radius consistency ---------------------------------------------


@pytest.mark.parametrize(
    "cfg",
    [
        RadiusConfig(p=2.0, d=3, beta=0.05),              # supercritical
        RadiusConfig(p=1.0, d=2, beta=0.05),              # critical
        RadiusConfig(p=1.0, d=4, beta=0.05),              # subcritical
        RadiusConfig(p=3.0, d=6, beta=0.2, big_c=2.0, small_c=0.7),  # critical
        RadiusConfig(p=1.5, d=5, beta=0.01, big_c=4.0, small_c=3.0), # subcritical
    ],
)
def test_radius_inverts_the_bound(cfg):
    for n in (1, 7, 400):
        for rho in (0.5, 1.0, 10.0):
            eps = ambiguity_radius(n, cfg, rho)
            assert eps > 0.0
            back = deviation_bound(eps**cfg.p, rho, n, cfg)
            assert back == pytest.approx(cfg.beta, rel=1e-8), (
                f"n={n} rho={rho}: bound({eps}^p) = {back} != {cfg.beta}"
            )


def test_radius_zero_cases():
    cfg = RadiusConfig(p=1.0, d=1, beta=0.5)
    assert ambiguity_radius(5, cfg, 0.0) == 0.0
    # beta at or above the bound ceiling C: infimum radius is zero
    loose = RadiusConfig(p=1.0, d=1, beta=0.9, big_c=0.5)
    assert ambiguity_radius(5, loose, 1.0) == 0.0


# --- group 4: scaling laws ----------------------------------------------------


def test_radius_linear_in_rho():
    for cfg in (
        RadiusConfig(p=2.0, d=1, beta=0.1),
        RadiusConfig(p=1.0, d=2, beta=0.1),
        RadiusConfig(p=1.0, d=5, beta=0.1),
    ):
        base = ambiguity_radius(12, cfg, 1.0)
        assert ambiguity_radius(12, cfg, 7.5) == pytest.approx(7.5 * base, rel=1e-12)


def test_radius_decreasing_in_n_and_beta():
    for cfg_lo, cfg_hi in [
        (RadiusConfig(p=2.0, d=1, beta=0.05), RadiusConfig(p=2.0, d=1, beta=0.2)),
        (RadiusConfig(p=1.0, d=2, beta=0.05), RadiusConfig(p=1.0, d=2, beta=0.2)),
        (RadiusConfig(p=1.0, d=4, beta=0.05), RadiusConfig(p=1.0, d=4, beta=0.2)),
    ]:
        radii = [ambiguity_radius(n, cfg_lo, 1.0) for n in (1, 2, 5, 50, 1000)]
        assert all(a > b for a, b in zip(radii, radii[1:]))
        assert ambiguity_radius(10, cfg_hi, 1.0) < ambiguity_radius(10, cfg_lo, 1.0)


def test_subcritical_quarter_power_ratio():
    # p < d/2 with d = 4: radius falls like N^(-1/4), so quadrupling the
    # sample count divides it by sqrt(2).
    cfg = RadiusConfig(p=1.0, d=4, beta=0.1)
    assert cfg.decay_exponent == 4.0
    for n in (3, 11, 40):
        ratio = ambiguity_radius(n, cfg, 1.0) / ambiguity_radius(4 * n, cfg, 1.0)
        assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_supercritical_power_ratio():
    cfg = RadiusConfig(p=2.0, d=1, beta=0.1)  # decays like N^(-1/4) as well
    ratio = ambiguity_radius(5, cfg, 1.0) / ambiguity_radius(20, cfg, 1.0)
    assert ratio == pytest.approx(4.0 ** (1.0 / 4.0), rel=1e-12)


# --- group 5: calibrated schedule ----------------------------------------------


def test_calibrated_schedule_values():
    # Anchor 0.17 at 10 samples, quarter-power decay.
    assert calibrated_radius(0.17, 10, 10) == pytest.approx(0.17, rel=1e-15)
    assert calibrated_radius(0.17, 10, 1) == pytest.approx(
        0.3023074997066169, rel=1e-12
    )
    assert calibrated_radius(0.17, 10, 40) == pytest.approx(
        0.1202081528017131, rel=1e-12
    )
    assert calibrated_radius(0.17, 10, 160) == pytest.approx(0.085, rel=1e-12)


def test_calibrated_validation():
    with pytest.raises(ValueError):
        calibrated_radius(-0.1, 10, 5)
    with pytest.raises(ValueError):
        calibrated_radius(0.1, 10, 5, exponent=0.0)
