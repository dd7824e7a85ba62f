"""Tests for integration, error envelopes, and growth certificates.

Groups:
  1. integrate_flow accuracy (exact on nilpotent systems, 4th order otherwise)
  2. flow_error_bound / calibrate_flow_error envelopes
  3. growth_bound formulas and domination of true trajectories
  4. support_radius geometry
  5. built-in field registry behaviour
"""

import math

import numpy as np
import pytest

from ambiflow.dynamics import (
    FlowErrorModel,
    GrowthCertificate,
    VectorField,
    builtin_field,
    calibrate_flow_error,
    flow_error_bound,
    growth_bound,
    integrate_flow,
    support_radius,
)

ROTATION = VectorField(
    lambda t, x: np.array([x[1], -x[0]]), dim=2, name="rotation"
)


# --- group 1: integration ------------------------------------------------------


def test_double_integrator_exact():
    # Quadratic-in-time solution: RK4 reproduces it to machine precision.
    field = builtin_field("double_integrator")
    out = integrate_flow(field, 0.0, 1.0, np.array([0.0, 0.0]), step=0.25)
    assert out == pytest.approx([0.5, 1.0], abs=1e-14)


def test_scalar_exponential_fourth_order():
    field = VectorField(lambda t, x: x, dim=1, name="exp")
    out = integrate_flow(field, 0.0, 1.0, np.array([1.0]), step=1e-3)
    assert out[0] == pytest.approx(math.e, rel=1e-12)
    # Error falls roughly 16x when the step halves.
    coarse = integrate_flow(field, 0.0, 1.0, np.array([1.0]), step=0.2)
    finer = integrate_flow(field, 0.0, 1.0, np.array([1.0]), step=0.1)
    ratio = abs(coarse[0] - math.e) / abs(finer[0] - math.e)
    assert 10.0 < ratio < 25.0


def test_final_partial_step_lands_exactly():
    field = VectorField(lambda t, x: x, dim=1)
    # 1.0 is not a multiple of 0.3; the remainder must still be integrated.
    out = integrate_flow(field, 0.0, 1.0, np.array([1.0]), step=0.3)
    # Three full steps would stop at t=0.9 and give e^0.9 = 2.46; landing on
    # t=1 exactly keeps the result near e up to 4th-order error.
    assert out[0] == pytest.approx(math.e, rel=1e-4)


def test_backward_integration_inverts_forward():
    x0 = np.array([0.3, -0.7])
    fwd = integrate_flow(ROTATION, 0.0, 2.0, x0, step=1e-3)
    back = integrate_flow(ROTATION, 2.0, 0.0, fwd, step=1e-3)
    assert back == pytest.approx(x0, abs=1e-10)


def test_zero_span_is_identity():
    x0 = np.array([1.0, 2.0])
    out = integrate_flow(ROTATION, 1.5, 1.5, x0)
    assert np.array_equal(out, x0)


def test_blow_up_detected():
    field = VectorField(lambda t, x: x * x, dim=1, name="riccati")
    # Solution 1/(1-t) blows up at t=1; the overflow on the way is expected.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ArithmeticError):
            integrate_flow(field, 0.0, 2.0, np.array([1.0]), step=1e-3)


def test_bad_inputs():
    with pytest.raises(ValueError):
        integrate_flow(ROTATION, 0.0, 1.0, np.array([1.0, 2.0]), step=0.0)
    with pytest.raises(ValueError):
        integrate_flow(ROTATION, 0.0, 1.0, np.array([1.0, 2.0, 3.0]))


# --- group 2: error envelopes ---------------------------------------------------


def test_flow_error_bound_value():
    model = FlowErrorModel(magnitude=1.0, rate=0.1)
    assert flow_error_bound(model, 0.0, 1.0) == pytest.approx(
        0.10517091807564771, rel=1e-14
    )
    assert flow_error_bound(model, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        flow_error_bound(model, 1.0, 0.0)


def test_error_model_validation():
    with pytest.raises(ValueError):
        FlowErrorModel(magnitude=-1.0, rate=0.1)
    with pytest.raises(ValueError):
        FlowErrorModel(magnitude=1.0, rate=-0.1)


@pytest.mark.parametrize(
    "name, value",
    [("magnitude", math.nan), ("magnitude", math.inf), ("rate", math.inf), ("rate", math.nan)],
)
def test_error_model_rejects_non_finite_numbers(name, value):
    kwargs = dict(magnitude=1.0, rate=0.1)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FlowErrorModel(**kwargs)


def test_calibrated_envelope_covers_observed_errors():
    rng = np.random.default_rng(42)
    horizon = 3.0
    samples = [(float(t), rng.normal(size=2)) for t in np.linspace(0.0, 2.5, 8)]
    step = 0.25
    model = calibrate_flow_error(ROTATION, samples, horizon, step, rate=1.0)
    assert model.magnitude > 0.0
    for t, x in samples:
        coarse = integrate_flow(ROTATION, t, horizon, x, step)
        exact = integrate_flow(ROTATION, t, horizon, x, step / 100.0)
        gap = np.linalg.norm(coarse - exact)
        envelope = flow_error_bound(model, t, horizon)
        assert gap <= envelope + 1e-12, f"gap {gap} above envelope {envelope} at t={t}"


# --- group 3: growth certificates -----------------------------------------------


def test_unforced_bound_formula():
    cert = GrowthCertificate(
        scale_low=1.0,
        scale_high=4.0,
        power=2.0,
        forcing_exponent=0.0,
        forcing_gain=0.0,
        drift_integral=lambda s, t: 0.6 * (t - s),
    )
    # (4/1)^(1/2) * 1.5 * exp(0.6 * 2 / 2)
    want = 2.0 * 1.5 * math.exp(0.6)
    assert growth_bound(cert, 1.5, 2.0) == pytest.approx(want, rel=1e-12)


def test_forced_bound_anchor():
    cert = GrowthCertificate(
        scale_low=1.0,
        scale_high=1.0,
        power=2.0,
        forcing_exponent=0.0,
        forcing_gain=1.0,
        drift_cap=0.0,
    )
    # base = 1, slope = 1, exponent 1/2: bound(3) = (1 + 3)^(1/2) = 2
    assert growth_bound(cert, 0.0, 3.0) == pytest.approx(2.0, rel=1e-14)


def test_forced_field_matches_closed_form_and_is_dominated():
    # Along the forced-growth field with gain g and exponent 1/2 the norm
    # grows exactly linearly: ||x(t)|| = ||x0|| + g t / 2.
    gain = 1.0
    field = builtin_field("forced_norm_growth", gain=gain, exponent=0.5, dim=2)
    cert = GrowthCertificate(
        scale_low=1.0,
        scale_high=1.0,
        power=2.0,
        forcing_exponent=0.5,
        forcing_gain=gain,
        drift_cap=0.0,
    )
    rng = np.random.default_rng(9)
    for _ in range(5):
        x0 = rng.normal(size=2)
        x0 *= (0.5 + 2.0 * rng.random()) / np.linalg.norm(x0)
        n0 = float(np.linalg.norm(x0))
        for t in (1.0, 5.0):
            xt = integrate_flow(field, 0.0, t, x0, step=0.01)
            n_true = float(np.linalg.norm(xt))
            assert n_true == pytest.approx(n0 + gain * t / 2.0, rel=1e-6)
            assert n_true <= growth_bound(cert, n0, t) + 1e-9


def test_bound_monotone_in_time_and_initial_norm():
    cert = GrowthCertificate(
        scale_low=0.5,
        scale_high=2.0,
        power=3.0,
        forcing_exponent=0.25,
        forcing_gain=0.7,
        drift_cap=0.1,
    )
    times = np.linspace(0.0, 20.0, 15)
    vals = [growth_bound(cert, 1.0, float(t)) for t in times]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert growth_bound(cert, 2.0, 5.0) > growth_bound(cert, 1.0, 5.0)


def test_certificate_validation():
    with pytest.raises(ValueError):
        GrowthCertificate(0.0, 1.0, 2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 0.5, 2.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 1.0, 1.0, 0.5, 1.0)   # power must exceed 1
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 1.0, 2.0, 1.0, 1.0)   # forcing exponent < 1
    with pytest.raises(ValueError):
        GrowthCertificate(1.0, 1.0, 2.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        growth_bound(
            GrowthCertificate(1.0, 1.0, 2.0, 0.5, 1.0), initial_norm=-1.0, t=1.0
        )


# --- group 4: support radius -----------------------------------------------------


def test_support_radius_double_integrator():
    field = builtin_field("double_integrator")
    cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # Images at T=1: (0.5, 1), (1.5, 1), (1.5, 2); box widths (1, 1).
    assert support_radius(cloud, field, 1.0, step=0.1) == pytest.approx(
        0.5, abs=1e-12
    )


def test_support_radius_singleton_is_zero():
    field = builtin_field("double_integrator")
    assert support_radius(np.array([[2.0, 3.0]]), field, 5.0, step=0.1) == 0.0


def test_orbit_tracker_period():
    # With an integer tracking gain every state returns after one full lap
    # of the circling target, so the pushed cloud matches the initial cloud.
    field = builtin_field("orbit_tracker", orbit_radius=1.0, gain=4.0)
    thetas = [2.8 * math.pi / 4, 3.5 * math.pi / 4, 4.6 * math.pi / 4]
    cloud = np.array(
        [[math.cos(th), math.sin(th), 0.0, 0.0, th] for th in thetas]
    )
    for x0 in cloud:
        lap = integrate_flow(field, 0.0, 2.0 * math.pi, x0, step=1e-3)
        assert lap == pytest.approx(x0, abs=1e-8)
    r_start = (cloud.max(axis=0) - cloud.min(axis=0)).max() / 2.0
    r_lap = support_radius(cloud, field, 2.0 * math.pi, step=1e-3)
    assert r_lap == pytest.approx(r_start, abs=1e-8)


# --- group 5: registry and misc ---------------------------------------------------


def test_unknown_field_name():
    with pytest.raises(KeyError):
        builtin_field("does_not_exist")


def test_forced_field_singular_at_origin():
    field = builtin_field("forced_norm_growth", gain=1.0, exponent=0.5, dim=2)
    with pytest.raises(ArithmeticError):
        field(0.0, np.zeros(2))
