"""Tests for ambiguity-ball radii over sampled dynamic populations.

Groups:
  1. SamplingSchedule validation and derived gaps/spans
  2. cumulative_empirical pushforward behaviour
  3. pushforward_error / pushforward_error_noisy values and monotonicity
     (closed form cross-checked against an independent Simpson oracle)
  4. total_radius composition and the end-to-end coupling chain
  5. effective_horizon statuses and the strict-decrease guarantee
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

from ambiflow.ambiguity import (
    HorizonResult,
    SamplingSchedule,
    cumulative_empirical,
    effective_horizon,
    horizon_margin,
    pushforward_error,
    pushforward_error_noisy,
    total_radius,
)
from ambiflow.concentration import RadiusConfig, ambiguity_radius
from ambiflow.distribution import (
    DiscreteDistribution,
    coupling_upper_bound,
    wasserstein_exact,
)
from ambiflow.dynamics import (
    FlowErrorModel,
    VectorField,
    builtin_field,
    calibrate_flow_error,
    integrate_flow,
)
from ambiflow.uav_scenario import red_uav_flow


def simpson_envelope_integral(n: float, a: float, p: float) -> float:
    """Oracle for integral_1^n (exp(a s) - 1)^p ds on a dense fixed grid."""
    s = np.linspace(1.0, n, 100001)
    return float(simpson(np.expm1(a * s) ** p, x=s))


# --- group 1: schedules ---------------------------------------------------------


def test_schedule_derived_quantities():
    sched = SamplingSchedule(
        times=((0.0, 0.4, 1.0), (0.5, 1.0, 1.8), (2.0, 2.5, 2.9)),
    )
    assert sched.n_trajectories == 3
    assert sched.obs_length == 3
    assert sched.horizon == 2.9
    assert sched.delta == pytest.approx(1.1)          # 2.9 - 1.8
    assert sched.delta_prime == pytest.approx(0.8)    # 1.0 -> 1.8
    assert sched.tau_low == pytest.approx(0.9)
    assert sched.tau_up == pytest.approx(1.3)
    assert sched.n_effective == 3


def test_schedule_effective_window():
    sched = SamplingSchedule(
        times=((0.0, 1.0), (1.0, 2.0), (2.8, 3.0), (3.0, 4.0)),
        effective_start=3,
    )
    assert sched.n_effective == 2
    assert sched.delta == pytest.approx(1.0)          # 4.0 - 3.0
    assert sched.tau_low == pytest.approx(0.2)


def test_schedule_validation():
    with pytest.raises(ValueError):
        SamplingSchedule(times=())
    with pytest.raises(ValueError):
        SamplingSchedule(times=((0.0, 0.0),))               # not increasing
    with pytest.raises(ValueError):
        SamplingSchedule(times=((0.0, 1.0), (0.0,)))        # ragged
    with pytest.raises(ValueError):
        SamplingSchedule(times=((0.0, 2.0), (0.0, 1.0)))    # last times decrease
    with pytest.raises(ValueError):
        SamplingSchedule(times=((0.0, 1.0),), effective_start=5)


def test_single_sample_member_spans():
    sched = SamplingSchedule(times=((1.0,), (2.0,)))
    assert sched.tau_low == 0.0 and sched.tau_up == 0.0
    assert sched.delta_prime == 0.0
    assert sched.delta == pytest.approx(1.0)


# --- group 2: cumulative empirical ----------------------------------------------


def test_cumulative_empirical_double_integrator():
    field = builtin_field("double_integrator")
    # Closed form: x(T) = x + v (T - t) + (T - t)^2 / 2, v(T) = v + (T - t).
    samples = [
        (0.0, np.array([0.0, 0.0])),
        (0.5, np.array([1.0, -1.0])),
        (1.0, np.array([2.0, 2.0])),
    ]
    T = 1.0
    dist = cumulative_empirical(samples, T, field, step=0.05)
    expect = []
    for t, (x, v) in ((t, s) for t, s in samples):
        dt = T - t
        expect.append([x + v * dt + dt * dt / 2.0, v + dt])
    assert dist.points == pytest.approx(np.array(expect), abs=1e-12)
    assert np.allclose(dist.weights, 1.0 / 3.0)


def test_cumulative_empirical_rejects_future_samples():
    field = builtin_field("double_integrator")
    with pytest.raises(ValueError):
        cumulative_empirical([(2.0, np.zeros(2))], 1.0, field)


def test_cumulative_empirical_errors_name_the_sample():
    rotation = VectorField(lambda t, x: np.array([x[1], -x[0]]), dim=2)
    with pytest.raises(ValueError, match="state shape \\(3,\\) does not match field dim 2"):
        cumulative_empirical([(0.0, np.zeros(2)), (0.5, np.zeros(3))], 1.0, rotation)
    with pytest.raises(ValueError, match="sample 1 taken at t=1.5, after the horizon 1.0"):
        cumulative_empirical([(0.0, np.zeros(2)), (1.5, np.zeros(2))], 1.0, rotation)
    # x' = x^2 from x0 blows up at t0 + 1/x0: samples 1 and 2 do before the
    # horizon, and the error names the first of them.
    riccati = VectorField(lambda t, x: x * x, dim=1, name="riccati")
    samples = [(0.0, np.array([0.1])), (0.25, np.array([1.0])), (0.5, np.array([1.0]))]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError, match="from t=0.25 to t=2 blew up"):
            cumulative_empirical(samples, 2.0, riccati)


def test_orbit_tracker_pushes_converge_to_closed_form_at_fourth_order():
    # The tracker's closed form is its exact flow.  Members observed at
    # staggered times are pushed in one batch, each on its own step grid
    # with a shortened last step; halving the step cuts the error ~16x.
    rng = np.random.default_rng(21)
    horizon = 2.0
    times = np.sort(rng.uniform(0.0, 1.8, 9))
    states = np.column_stack(
        [rng.normal(size=(9, 4)), rng.uniform(0.0, 2.0 * math.pi, 9)]
    )
    exact = np.array(
        [red_uav_flow(s[4] + t0, s[:4], horizon - t0) for t0, s in zip(times, states)]
    )
    samples = list(zip(times, states))
    errors = []
    for step in (0.04, 0.02, 0.01):
        pushed = cumulative_empirical(samples, horizon, builtin_field("orbit_tracker"), step)
        assert np.array_equal(pushed.points[:, 4], states[:, 4])
        errors.append(float(np.abs(pushed.points[:, :4] - exact).max()))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(12.0 <= r <= 20.0 for r in ratios), f"errors {errors}, ratios {ratios}"


# --- group 3: pushforward error terms -------------------------------------------


def test_pushforward_error_anchor():
    # p=1, rate 0.1, delta 1, magnitude 1, 10 samples: closed form
    # (1/10) * ((e - e^0.1)/0.1 - 9) = 0.7131109103833971.
    model = FlowErrorModel(magnitude=1.0, rate=0.1)
    assert pushforward_error(10, 1.0, 1.0, model) == pytest.approx(
        0.7131109103833971, rel=1e-12
    )


def test_pushforward_error_degenerate_cases():
    model = FlowErrorModel(magnitude=1.0, rate=0.1)
    assert pushforward_error(1, 1.0, 1.0, model) == 0.0
    assert pushforward_error(10, 0.0, 1.0, model) == 0.0
    exact = FlowErrorModel(magnitude=0.0, rate=0.1)
    assert pushforward_error(10, 1.0, 1.0, exact) == 0.0


def test_pushforward_error_matches_simpson_oracle():
    for p in (1.0, 2.0, 3.0, 1.5, 2.5):
        for a_n in ((0.1, 8), (0.002, 40), (0.05, 3)):
            a, n = a_n
            model = FlowErrorModel(magnitude=0.7, rate=a)
            got = pushforward_error(n, 1.0, p, model)
            want = 0.7 * (simpson_envelope_integral(n, a, p) / n) ** (1.0 / p)
            assert got == pytest.approx(want, rel=1e-7), f"p={p} a={a} n={n}"


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    a_n=st.floats(min_value=1e-3, max_value=5.0),
    n=st.integers(min_value=2, max_value=10_000),
)
def test_pushforward_error_matches_quad_for_integer_orders(p, a_n, n):
    # The binomial closed form cancels catastrophically at small a*n for
    # high orders; wherever it is used it must agree with quadrature.
    a = a_n / n
    model = FlowErrorModel(magnitude=1.0, rate=a)
    integral, _ = quad(
        lambda s: math.expm1(a * s) ** p, 1.0, n, epsabs=0.0, epsrel=1e-12, limit=500
    )
    want = (integral / n) ** (1.0 / p)
    assert pushforward_error(n, 1.0, float(p), model) == pytest.approx(want, rel=1e-8)


def test_pushforward_error_strictly_increasing_in_n_and_delta():
    model = FlowErrorModel(magnitude=1.0, rate=0.2)
    vals = [pushforward_error(n, 0.5, 2.0, model) for n in range(1, 30)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    by_delta = [pushforward_error(10, d, 2.0, model) for d in (0.1, 0.2, 0.4, 0.8)]
    assert all(a < b for a, b in zip(by_delta, by_delta[1:]))


def test_noisy_anchor_single_sample():
    # p=1, one sample, magnitude 0: the flow term vanishes and the recon
    # term alone gives (e^0.1 - 1)/0.1.
    model = FlowErrorModel(magnitude=0.0, rate=0.1)
    got = pushforward_error_noisy(1, 1.0, 1.0, model, recon_error=1.0)
    assert got == pytest.approx(1.0517091807564771, rel=1e-12)


def test_noisy_additive_at_p_one():
    model = FlowErrorModel(magnitude=0.8, rate=0.15)
    n, delta = 12, 0.4
    plain = pushforward_error(n, delta, 1.0, model)
    noisy = pushforward_error_noisy(n, delta, 1.0, model, recon_error=0.0)
    assert noisy == pytest.approx(plain, rel=1e-12)
    with_recon = pushforward_error_noisy(n, delta, 1.0, model, recon_error=0.02)
    a = model.rate * delta
    recon_part = 0.02 * math.expm1(a * n) / (a * n)
    assert with_recon == pytest.approx(plain + recon_part, rel=1e-12)


def test_noisy_dominates_plain():
    rng = np.random.default_rng(77)
    for _ in range(20):
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        n = int(rng.integers(1, 40))
        delta = float(rng.uniform(0.0, 0.6))
        model = FlowErrorModel(
            magnitude=float(rng.uniform(0.0, 2.0)), rate=float(rng.uniform(0.0, 1.0))
        )
        recon = float(rng.uniform(0.0, 0.3))
        lo = pushforward_error(n, delta, p, model)
        hi = pushforward_error_noisy(n, delta, p, model, recon)
        assert hi >= lo - 1e-12


def test_noisy_zero_delta_keeps_recon_term():
    # With delta = 0 the flow amplification disappears but per-sample noise
    # survives: value is 2^((p-1)/p) * recon.
    model = FlowErrorModel(magnitude=1.0, rate=0.5)
    for p in (1.0, 2.0):
        got = pushforward_error_noisy(9, 0.0, p, model, recon_error=0.1)
        assert got == pytest.approx(2.0 ** ((p - 1.0) / p) * 0.1, rel=1e-12)


# --- group 4: total radius and the coupling chain ----------------------------------


def test_total_radius_is_sum_of_parts():
    cfg = RadiusConfig(p=1.0, d=1, beta=0.05)
    model = FlowErrorModel(magnitude=1.0, rate=0.1)
    n, rho, delta = 20, 2.0, 0.3
    want = ambiguity_radius(n, cfg, rho) + pushforward_error(n, delta, 1.0, model)
    assert total_radius(n, cfg, rho, delta, model) == pytest.approx(want, rel=1e-14)
    noisy_want = ambiguity_radius(n, cfg, rho) + pushforward_error_noisy(
        n, delta, 1.0, model, 0.05
    )
    assert total_radius(n, cfg, rho, delta, model, recon_error=0.05) == pytest.approx(
        noisy_want, rel=1e-14
    )


def test_coupling_chain_on_rotating_field():
    # End to end: distance between coarse-push and exact-push empirical
    # measures <= identity-pairing coupling bound <= pushforward_error with
    # a calibrated envelope.
    field = VectorField(lambda t, x: np.array([x[1], -x[0]]), dim=2, name="rot")
    rng = np.random.default_rng(5)
    n, delta, T = 6, 0.5, 3.0
    coarse_step = 0.25
    samples = [(i * delta, rng.normal(size=2)) for i in range(1, n + 1)]
    model = calibrate_flow_error(
        field, samples, T, coarse_step, rate=1.0, safety=1.25
    )
    pushed = cumulative_empirical(samples, T, field, step=coarse_step)
    exact_pts = np.vstack(
        [integrate_flow(field, t, T, x, coarse_step / 100.0) for t, x in samples]
    )
    exact = DiscreteDistribution.empirical(exact_pts)
    for p in (1.0, 2.0):
        w = wasserstein_exact(pushed, exact, p)
        ub = coupling_upper_bound(pushed.points, exact.points, p)
        envelope = pushforward_error(n, delta, p, model)
        assert w <= ub + 1e-12
        assert ub <= envelope + 1e-12, f"p={p}: coupling {ub} vs envelope {envelope}"


# --- group 5: effective horizon ------------------------------------------------------


CFG = RadiusConfig(p=1.0, d=1, beta=0.05)
MODEL = FlowErrorModel(magnitude=1.0, rate=0.1)


def test_margin_gain_matches_radius_difference():
    for cfg in (CFG, RadiusConfig(p=1.0, d=4, beta=0.1)):
        for kappa in (1, 5, 33):
            gain, _ = horizon_margin(kappa, 0.05, cfg, 2.0, MODEL)
            want = ambiguity_radius(kappa, cfg, 2.0) - ambiguity_radius(
                kappa + 1, cfg, 2.0
            )
            assert gain == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "p, d", [(1.0, 1), (1.0, 2), (1.0, 4)], ids=["supercritical", "critical", "subcritical"]
)
def test_horizon_found_and_strict_decrease(p, d):
    cfg = RadiusConfig(p=p, d=d, beta=0.05)
    res = effective_horizon(0.05, cfg, 1.0, MODEL)
    assert res.status == "found"
    n_star = res.n_star
    assert n_star is not None and n_star >= 2
    psi = [
        total_radius(n, cfg, 1.0, 0.05, MODEL) for n in range(1, n_star + 2)
    ]
    drops = [a - b for a, b in zip(psi, psi[1:])]
    assert all(drop > 0 for drop in drops[: n_star - 1]), "radius must shrink up to n_star"
    assert drops[n_star - 1] <= 0, "first non-improving step is at n_star"


def test_horizon_no_improvement_for_sparse_sampling():
    res = effective_horizon(5.0, CFG, 1.0, FlowErrorModel(magnitude=1.0, rate=1.0))
    assert res.status == "no-improvement"
    assert res.n_star == 1


def test_horizon_capped_for_exact_flow():
    res = effective_horizon(0.05, CFG, 1.0, FlowErrorModel(magnitude=0.0, rate=0.1))
    assert res.status == "capped"
    assert res.n_star is None
    small_cap = effective_horizon(0.01, CFG, 1.0, MODEL, cap=10)
    assert small_cap.status in ("capped", "found")


def test_horizon_nondecreasing_in_rho():
    stars = []
    for rho in (1.0, 2.0, 3.0):
        res = effective_horizon(0.05, CFG, rho, MODEL)
        assert res.status == "found"
        stars.append(res.n_star)
    assert stars[0] <= stars[1] <= stars[2]


def test_horizon_decreasing_in_delta():
    coarse = effective_horizon(0.2, CFG, 1.0, MODEL)
    fine = effective_horizon(0.02, CFG, 1.0, MODEL)
    assert coarse.status == "found" and fine.status == "found"
    assert fine.n_star >= coarse.n_star
