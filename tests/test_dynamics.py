"""Tests for integration, error envelopes, and growth certificates.

Groups:
  1. integrate_flow accuracy (exact on nilpotent systems, 4th order otherwise)
  2. flow_error_bound / calibrate_flow_error envelopes
  3. growth_bound formulas and domination of true trajectories
  4. the orbit tracker's closed lap
  5. built-in field registry behaviour
  6. state-major batches: one RK4 sweep for a whole sample set
"""

import math

import numpy as np
import pytest

from ambiflow.ambiguity import cumulative_empirical
from ambiflow.dynamics import (
    FlowErrorModel,
    GrowthCertificate,
    VectorField,
    _rk4,
    builtin_field,
    calibrate_flow_error,
    flow_error_bound,
    growth_bound,
    integrate_flow,
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
    # A NaN step must not pass the check and leave the states where they are.
    with pytest.raises(ValueError, match="step must be finite, got nan"):
        integrate_flow(ROTATION, 0.0, 1.0, np.array([1.0, 2.0]), step=math.nan)
    with pytest.raises(ValueError):
        integrate_flow(ROTATION, 0.0, 1.0, np.array([1.0, 2.0, 3.0]))
    # A batch: one wrong state, or as many start times as states.
    with pytest.raises(ValueError, match=r"state shape \(3,\) does not match field dim 2"):
        integrate_flow(ROTATION, [0.0, 0.5], 1.0, [np.zeros(2), np.zeros(3)])
    with pytest.raises(ValueError, match="3 start times for 2 states"):
        integrate_flow(ROTATION, [0.0, 0.5, 0.7], 1.0, [np.zeros(2), np.zeros(2)])


TWO_SAMPLES = [(0.0, np.array([1.0, 0.0])), (0.5, np.array([0.0, 1.0]))]
STEP_USERS = {
    "integrate_flow": lambda step: integrate_flow(
        ROTATION, 0.0, 1.0, np.array([0.0, 0.0]), step=step
    ),
    "cumulative_empirical": lambda step: cumulative_empirical(
        TWO_SAMPLES, 1.0, ROTATION, step=step
    ),
    "calibrate_flow_error": lambda step: calibrate_flow_error(
        ROTATION, TWO_SAMPLES, 2.0, step, rate=1.0
    ),
}


@pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
@pytest.mark.parametrize("user", sorted(STEP_USERS))
def test_every_rk4_user_rejects_a_bad_step(user, step):
    # An infinite step would take no step at all and return the state
    # unpushed (a zero calibrated magnitude), and a negative one would cross
    # each gap in one step: the number rule rejects them.
    rule = "positive" if math.isfinite(step) else "finite"
    with pytest.raises(ValueError, match=f"step must be {rule}, got {step}"):
        STEP_USERS[user](step)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rk4_rejects_non_finite_times(bad):
    # A NaN or infinite time must neither leave a state unmoved nor fail on
    # an integer cast: ``integrate_flow`` names the argument before the RK4
    # core, which reads times only from it, sees the time.
    calls = {
        "t_start": [
            lambda: integrate_flow(ROTATION, [0.0, bad], 1.0, [np.zeros(2)] * 2),
            lambda: integrate_flow(ROTATION, bad, 1.0, np.zeros(2)),
        ],
        "t_end": [
            lambda: integrate_flow(ROTATION, [0.0, 0.5], bad, [np.zeros(2)] * 2),
            lambda: integrate_flow(ROTATION, 0.0, bad, np.zeros(2)),
        ],
    }
    for name, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
                call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_integrate_flow_names_a_state_that_is_not_finite(bad):
    # It stepped the state and reported a numerical failure ("blew up").
    state = np.array([0.0, bad])
    with pytest.raises(ValueError, match=f"state must be finite, got {bad}"):
        integrate_flow(ROTATION, 0.0, 1.0, state)
    with pytest.raises(ValueError, match=f"state must be finite, got {bad}"):
        integrate_flow(ROTATION, [0.0, 0.5], 1.0, [np.zeros(2), state])


def test_integrate_flow_rejects_an_empty_batch():
    # Once numpy's "need at least one array to concatenate".
    with pytest.raises(ValueError, match="state must hold at least one state, got none"):
        integrate_flow(ROTATION, [], 1.0, [])


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


def test_calibration_needs_samples():
    # No sample would certify an exact integrator (magnitude 0) from no evidence.
    with pytest.raises(ValueError, match="at least one sample"):
        calibrate_flow_error(ROTATION, [], 1.0, 0.1, 1.0)


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


# --- group 4: orbit tracker -----------------------------------------------------


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
    pushed = cumulative_empirical([(0.0, x0) for x0 in cloud], 2.0 * math.pi, field, 1e-3)
    assert pushed.points == pytest.approx(cloud, abs=1e-8)


# --- group 5: registry and misc ---------------------------------------------------


def test_unknown_field_name():
    with pytest.raises(KeyError):
        builtin_field("does_not_exist")


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("forced_norm_growth", {"dim": 2.7}, "params.dim must be an integer >= 1, got 2.7"),
        ("forced_norm_growth", {"dim": 0}, "params.dim must be an integer >= 1, got 0"),
        ("forced_norm_growth", {"dim": True}, "params.dim must be an integer >= 1, got True"),
        ("forced_norm_growth", {"gain": "2"}, "params.gain must be finite, got '2'"),
        ("forced_norm_growth", {"exponent": math.nan}, "params.exponent must be finite, got nan"),
        ("double_integrator", {"gain": 5}, r"double_integrator takes no params \['gain'\]"),
        ("orbit_tracker", {"gain": True}, "params.gain must be finite, got True"),
        ("orbit_tracker", {"orbit_radius": math.inf}, "params.orbit_radius must be finite, got inf"),
        ("orbit_tracker", {"gain": 4.0, "phase": 1.0}, r"takes no params \['phase'\]"),
    ],
)
def test_builtin_field_rejects_bad_params(name, params, message):
    with pytest.raises(ValueError, match=message):
        builtin_field(name, **params)


def test_builtin_field_reads_integer_params_as_numbers():
    # An int where a real belongs reads as that float; a numpy int is a count.
    x = np.array([[0.3, -0.2, 0.1, 0.4, 1.1]]).T
    ints = builtin_field("orbit_tracker", orbit_radius=1, gain=4)
    assert np.array_equal(ints(0.7, x), builtin_field("orbit_tracker")(0.7, x))
    assert builtin_field("forced_norm_growth", dim=np.int64(3)).dim == 3


def test_forced_field_singular_at_origin():
    field = builtin_field("forced_norm_growth", gain=1.0, exponent=0.5, dim=2)
    with pytest.raises(ArithmeticError):
        field(0.0, np.zeros(2))


# --- group 6: state-major batches ------------------------------------------------


@pytest.mark.parametrize(
    "field", [ROTATION, builtin_field("orbit_tracker"), builtin_field("double_integrator")]
)
def test_batched_rk4_matches_per_column_loop(field):
    # Mixed start times: staggered forward spans, a zero-length span, spans
    # shorter than one step and a backward one.  Each column keeps its own
    # grid and shortened last step, so it equals the single-state loop.
    rng = np.random.default_rng(3)
    t_end = 2.0
    starts = np.array([0.0, 0.37, 1.2, t_end, 1.999, 0.5, 2.31])
    x = rng.normal(size=(field.dim, len(starts)))
    before = x.copy()
    got = _rk4(field, starts, t_end, x, 0.05)
    assert np.array_equal(x, before)
    assert np.array_equal(got[:, 3], x[:, 3])
    for i, t0 in enumerate(starts):
        assert np.array_equal(got[:, i], _rk4(field, float(t0), t_end, x[:, i], 0.05))
    # Per-column ends and steps: spans that are whole steps, a step and a
    # sliver, under one step, zero, and backward, each at its own step.
    ends = np.array([1.0, 0.37 + 0.1 + 1e-13, 1.25, t_end, 1.0, 0.75, 2.31])
    steps = np.array([0.05, 0.1, 0.3, 0.01, 0.2, 0.0625, 0.07])
    got = _rk4(field, starts, ends, x, steps)
    assert np.array_equal(x, before)
    for i, (t0, t1, step) in enumerate(zip(starts, ends, steps)):
        assert np.array_equal(got[:, i], _rk4(field, float(t0), float(t1), x[:, i], float(step)))


def test_batched_rk4_steps_matrix_stacks():
    # A (d, d, N) stack of matrices steps like each matrix alone.
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])

    def field(t, m):
        if m.ndim == 2:
            return math.cos(t) * (a @ m)
        return np.cos(t) * (a @ m.transpose(2, 0, 1)).transpose(1, 2, 0)

    rng = np.random.default_rng(5)
    starts = np.array([0.0, 0.4, 1.1])
    ends = np.array([0.3, -0.2, 1.35])
    steps = np.array([0.07, 0.05, 0.1])
    m = rng.normal(size=(2, 2, 3))
    got = _rk4(field, starts, ends, m, steps)
    for i in range(3):
        want = _rk4(field, float(starts[i]), float(ends[i]), m[..., i], float(steps[i]))
        assert np.array_equal(got[..., i], want)


def test_batched_push_matches_per_point_flows():
    field = builtin_field("forced_norm_growth", gain=1.0, exponent=0.5, dim=3)
    cloud = np.random.default_rng(8).normal(size=(6, 3))
    images = np.array([integrate_flow(field, 0.0, 1.5, p, 0.01) for p in cloud])
    pushed = cumulative_empirical([(0.0, p) for p in cloud], 1.5, field, step=0.01)
    assert np.array_equal(pushed.points, images)
    # Staggered start times, one per state, through the public batch form.
    times = [0.0, 0.37, 0.5, 1.2, 1.5, 1.499]
    staggered = np.array([integrate_flow(field, t, 1.5, p, 0.01) for t, p in zip(times, cloud)])
    assert np.array_equal(integrate_flow(field, times, 1.5, cloud, 0.01), staggered)


def test_field_must_return_the_state_shape():
    # A constant (dim,) vector would broadcast along the wrong axis of a
    # (dim, N) batch, silently so when N equals dim.
    field = VectorField(lambda t, x: np.array([1.0, 0.0]), dim=2, name="const")
    assert np.array_equal(field(0.0, np.zeros(2)), [1.0, 0.0])
    with pytest.raises(ValueError, match=r"returned shape \(2,\) for states of shape \(2, 2\)"):
        field(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="returned shape"):
        cumulative_empirical([(0.0, np.zeros(2)), (0.5, np.zeros(2))], 1.0, field, step=0.1)
