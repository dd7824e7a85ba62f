"""Every scalar number the public API reads fails by name when it is not finite.

``ROWS`` holds one row per public function or config class of the six library
modules and per scalar float parameter: a call that passes the parameter a
value and keeps every other argument valid.  NaN, inf, -inf and an integer
too large for a float must each raise a ValueError that names the parameter
and shows the value, never return NaN, inf, a verdict or a wrong number, or
fail in a float conversion with OverflowError.  ``test_rows_cover_every_float_parameter``
keeps the table whole, so a public function added with a float parameter and
no row fails tier-1.

``ARRAY_ROWS`` holds one row per public array parameter read by
``_checks.finite_array``: a call that puts a value in one entry of an
otherwise valid array.  NaN, inf, -inf, a numeric string and a bool, which
``np.asarray(..., dtype=float)`` would read as numbers, must each raise a
ValueError that names the parameter.

``TIME_ROWS`` holds one row per reader of a row of sample times, each read by
``_checks.times``: NaN, a bool, a string, a repeated time, a decreasing pair
and too few times must each raise a ValueError that names the row.
``test_tables_cover_every_array_name`` keeps both tables whole: every name
that ``src/`` gives ``finite_array`` or ``times`` must be one a row shows.

The params of the built-in fields and systems and the experiment's
checkpoints are read by the same rule, named ``params.<key>`` and
``checkpoints[i]``.
"""

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

from ambiflow import ambiguity, cli, concentration, distribution, dynamics, observability
from ambiflow import uav_scenario
from ambiflow.ambiguity import (
    SamplingSchedule,
    cumulative_empirical,
    effective_horizon,
    pushforward_error,
    pushforward_error_noisy,
    total_radius,
)
from ambiflow.concentration import (
    RadiusConfig,
    ambiguity_radius,
    calibrated_radius,
    critical_rate,
    deviation_bound,
    invert_critical_rate,
)
from ambiflow.distribution import (
    DiscreteDistribution,
    TransportPlan,
    coupling_upper_bound,
    optimal_plan,
    wasserstein_exact,
)
from ambiflow.dynamics import (
    FlowErrorModel,
    GrowthCertificate,
    builtin_field,
    calibrate_flow_error,
    flow_error_bound,
    growth_bound,
    integrate_flow,
)
from ambiflow.observability import (
    LinearTimeVaryingSystem,
    builtin_system,
    check_schedule_observability,
    eigenvalue_margin,
    estimation_error_bound,
    gramian_floor,
    max_kernel_derivative,
    observability_gramian,
    reconstruct_state,
    robust_sampling_bound,
    sample_observability_matrix,
    weight_matrix,
)
from ambiflow.uav_scenario import (
    TWO_PI,
    AmbiguityBall,
    ScenarioConfig,
    constrained_min_expectation,
    dro_objective,
    initial_red_state,
    reconstruct_red_state,
    solve_dro,
)

MODULES = (dynamics, concentration, ambiguity, distribution, observability, uav_scenario)
# Records the library returns rather than reads.
RESULTS = {"HorizonResult", "ExperimentRow"}
BIG_INT = 10**400  # too large for a float
NON_FINITE = (math.nan, math.inf, -math.inf, BIG_INT)

FIELD = builtin_field("double_integrator")
STATE = np.array([1.0, 0.0])
MODEL = FlowErrorModel(1.0, 0.1)
CFG = RadiusConfig(p=1.0, d=1, beta=0.05)
LTI = builtin_system("harmonic_oscillator")
LTV = builtin_system("rotating_sensor")
P = DiscreteDistribution.empirical(np.zeros((2, 1)))
Q = DiscreteDistribution.empirical(np.ones((2, 1)))
SCENARIO = ScenarioConfig()
PROFILE = np.full(SCENARIO.n_segments, SCENARIO.square_side / TWO_PI)
XI = initial_red_state(2.5)


def growth(**kw):
    base = dict(scale_low=1.0, scale_high=1.0, power=2.0, forcing_exponent=0.5, forcing_gain=1.0)
    return GrowthCertificate(**{**base, **kw})


def ball(**kw):
    center = DiscreteDistribution.empirical(XI[None, :])
    return AmbiguityBall(**{"center": center, "radius": 0.1, **kw})


# (owner, parameter, call, name the message shows, bad values).  A parameter
# that is forwarded unchanged is named by the function that reads it: total
# and horizon radii read rho_horizon as ambiguity_radius's rho.
ROWS = [
    ("FlowErrorModel", "magnitude", lambda v: FlowErrorModel(v, 0.1)),
    ("FlowErrorModel", "rate", lambda v: FlowErrorModel(1.0, v)),
    ("GrowthCertificate", "scale_low", lambda v: growth(scale_low=v)),
    ("GrowthCertificate", "scale_high", lambda v: growth(scale_high=v)),
    ("GrowthCertificate", "power", lambda v: growth(power=v)),
    ("GrowthCertificate", "forcing_exponent", lambda v: growth(forcing_exponent=v)),
    ("GrowthCertificate", "forcing_gain", lambda v: growth(forcing_gain=v)),
    ("GrowthCertificate", "drift_cap", lambda v: growth(drift_cap=v)),
    ("integrate_flow", "t_start", lambda v: integrate_flow(FIELD, v, 1.0, STATE)),
    ("integrate_flow", "t_end", lambda v: integrate_flow(FIELD, 0.0, v, STATE)),
    ("integrate_flow", "step", lambda v: integrate_flow(FIELD, 0.0, 1.0, STATE, v)),
    ("flow_error_bound", "t_start", lambda v: flow_error_bound(MODEL, v, 1.0)),
    ("flow_error_bound", "t_end", lambda v: flow_error_bound(MODEL, 0.0, v)),
    ("calibrate_flow_error", "horizon",
     lambda v: calibrate_flow_error(FIELD, [(0.0, STATE)], v, 0.1, 1.0)),
    ("calibrate_flow_error", "step",
     lambda v: calibrate_flow_error(FIELD, [(0.0, STATE)], 1.0, v, 1.0)),
    ("calibrate_flow_error", "rate",
     lambda v: calibrate_flow_error(FIELD, [(0.0, STATE)], 1.0, 0.1, v)),
    ("calibrate_flow_error", "safety",
     lambda v: calibrate_flow_error(FIELD, [(0.0, STATE)], 1.0, 0.1, 1.0, v)),
    ("growth_bound", "initial_norm", lambda v: growth_bound(growth(), v, 1.0)),
    ("growth_bound", "t", lambda v: growth_bound(growth(), 1.0, v)),
    ("RadiusConfig", "p", lambda v: RadiusConfig(p=v, d=1, beta=0.05)),
    ("RadiusConfig", "beta", lambda v: RadiusConfig(p=1.0, d=1, beta=v)),
    ("RadiusConfig", "big_c", lambda v: RadiusConfig(p=1.0, d=1, beta=0.05, big_c=v)),
    ("RadiusConfig", "small_c", lambda v: RadiusConfig(p=1.0, d=1, beta=0.05, small_c=v)),
    ("deviation_bound", "eps", lambda v: deviation_bound(v, 1.0, 5, CFG)),
    ("deviation_bound", "rho", lambda v: deviation_bound(0.1, v, 5, CFG)),
    ("ambiguity_radius", "rho", lambda v: ambiguity_radius(5, CFG, v)),
    ("critical_rate", "x", critical_rate),
    ("invert_critical_rate", "y", invert_critical_rate),
    ("calibrated_radius", "eps_ref", lambda v: calibrated_radius(v, 10, 5)),
    ("cumulative_empirical", "horizon", lambda v: cumulative_empirical([(0.0, STATE)], v, FIELD)),
    ("cumulative_empirical", "step",
     lambda v: cumulative_empirical([(0.0, STATE)], 1.0, FIELD, v)),
    ("pushforward_error", "delta", lambda v: pushforward_error(5, v, 1.0, MODEL)),
    ("pushforward_error", "p", lambda v: pushforward_error(5, 0.1, v, MODEL)),
    ("pushforward_error_noisy", "delta", lambda v: pushforward_error_noisy(5, v, 1.0, MODEL, 0.1)),
    ("pushforward_error_noisy", "p", lambda v: pushforward_error_noisy(5, 0.1, v, MODEL, 0.1)),
    ("pushforward_error_noisy", "recon_error",
     lambda v: pushforward_error_noisy(5, 0.1, 1.0, MODEL, v)),
    ("total_radius", "rho_horizon", lambda v: total_radius(5, CFG, v, 0.1, MODEL), "rho"),
    ("total_radius", "delta", lambda v: total_radius(5, CFG, 2.0, v, MODEL)),
    ("total_radius", "recon_error", lambda v: total_radius(5, CFG, 2.0, 0.1, MODEL, v)),
    ("effective_horizon", "delta", lambda v: effective_horizon(v, CFG, 2.0, MODEL)),
    ("effective_horizon", "rho_horizon", lambda v: effective_horizon(0.1, CFG, v, MODEL), "rho"),
    ("TransportPlan", "order", lambda v: TransportPlan(P, Q, np.eye(2) / 2.0, order=v)),
    ("wasserstein_exact", "p", lambda v: wasserstein_exact(P, Q, v)),
    ("optimal_plan", "p", lambda v: optimal_plan(P, Q, v)),
    ("coupling_upper_bound", "p", lambda v: coupling_upper_bound(np.zeros(2), np.ones(2), v)),
    ("observability_gramian", "t", lambda v: observability_gramian(LTI, v, 1.0)),
    ("observability_gramian", "varsigma", lambda v: observability_gramian(LTI, 0.0, v)),
    ("observability_gramian", "quad_step", lambda v: observability_gramian(LTI, 0.0, 1.0, v)),
    ("gramian_floor", "window", lambda v: gramian_floor(LTV, v, 1.5)),
    ("gramian_floor", "horizon", lambda v: gramian_floor(LTV, 0.5, v)),
    ("gramian_floor", "grid_step", lambda v: gramian_floor(LTV, 0.5, 1.5, v)),
    ("max_kernel_derivative", "t", lambda v: max_kernel_derivative(LTV, v, 0.25, 0.05)),
    ("max_kernel_derivative", "s_low", lambda v: max_kernel_derivative(LTV, 1.0, v, 0.05)),
    ("max_kernel_derivative", "grid_step", lambda v: max_kernel_derivative(LTV, 1.0, 0.25, v)),
    ("robust_sampling_bound", "window_low",
     lambda v: robust_sampling_bound(LTI, v, 0.75, 1.5, 0.5)),
    ("robust_sampling_bound", "window_up",
     lambda v: robust_sampling_bound(LTI, 0.5, v, 1.5, 0.5)),
    ("robust_sampling_bound", "horizon",
     lambda v: robust_sampling_bound(LTI, 0.5, 0.75, v, 0.5)),
    ("robust_sampling_bound", "retention",
     lambda v: robust_sampling_bound(LTI, 0.5, 0.75, 1.5, v)),
    ("robust_sampling_bound", "grid_step",
     lambda v: robust_sampling_bound(LTI, 0.5, 0.75, 1.5, 0.5, v)),
    ("estimation_error_bound", "window_up", lambda v: estimation_error_bound(v, 0.1, 0.5, 0.01)),
    ("estimation_error_bound", "gramian_min", lambda v: estimation_error_bound(1.0, v, 0.5, 0.01)),
    ("estimation_error_bound", "retention", lambda v: estimation_error_bound(1.0, 0.1, v, 0.01)),
    ("estimation_error_bound", "output_noise",
     lambda v: estimation_error_bound(1.0, 0.1, 0.5, v)),
    *[
        ("ScenarioConfig", name, lambda v, name=name: ScenarioConfig(**{name: v}))
        for name in ("orbit_radius", "square_side", "tracking_gain", "v_min", "v_max", "eps_ref")
    ],
    ("AmbiguityBall", "radius", lambda v: ball(radius=v)),
    ("AmbiguityBall", "order", lambda v: ball(order=v)),
    ("initial_red_state", "theta", lambda v: initial_red_state(v)),
    ("initial_red_state", "orbit_radius", lambda v: initial_red_state(2.5, v)),
    ("dro_objective", "t_start", lambda v: dro_objective(PROFILE, XI, XI, SCENARIO, t_start=v)),
    # An infinite budget is unconstrained transport.
    ("constrained_min_expectation", "budget",
     lambda v: constrained_min_expectation([1.0], [[0.0]], [1.0], v), "budget",
     (math.nan, -math.inf)),
]


def _cases():
    for owner, param, call, *rest in ROWS:
        shown = rest[0] if rest else param
        for bad in rest[1] if len(rest) > 1 else NON_FINITE:
            label = "10**400" if bad is BIG_INT else bad
            yield pytest.param(call, shown, bad, id=f"{owner}.{param}-{label}")


@pytest.mark.parametrize("call, shown, bad", _cases())
def test_a_non_finite_number_fails_by_name(call, shown, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    message = str(exc.value)
    assert re.search(rf"\b{re.escape(shown)}\b", message) and str(bad) in message, message


# (owner, parameter, call with the value in one entry, name the message shows).
ARRAY_ROWS = [
    ("DiscreteDistribution", "points", lambda v: DiscreteDistribution([[0.0], [v]], [0.5, 0.5])),
    ("DiscreteDistribution", "weights", lambda v: DiscreteDistribution([[0.0], [1.0]], [0.5, v])),
    ("TransportPlan", "matrix", lambda v: TransportPlan(P, Q, [[0.5, v], [0.0, 0.5]])),
    ("coupling_upper_bound", "x", lambda v: coupling_upper_bound([[0.0], [v]], [[1.0], [1.0]])),
    ("coupling_upper_bound", "y", lambda v: coupling_upper_bound([[0.0], [0.0]], [[1.0], [v]])),
    ("integrate_flow", "state", lambda v: integrate_flow(FIELD, 0.0, 1.0, [1.0, v])),
    ("LinearTimeVaryingSystem.lti", "a",
     lambda v: LinearTimeVaryingSystem.lti([[0.0, 1.0], [v, 0.0]], [[1.0, 0.0]]), "A"),
    ("LinearTimeVaryingSystem.lti", "c",
     lambda v: LinearTimeVaryingSystem.lti([[0.0, 1.0], [-1.0, 0.0]], [[1.0, v]]), "C"),
    ("observability_gramian", "t", lambda v: observability_gramian(LTI, [0.0, v], 1.0)),
    ("max_kernel_derivative", "t", lambda v: max_kernel_derivative(LTV, [1.0, v], 0.25, 0.05)),
    ("max_kernel_derivative", "s_low",
     lambda v: max_kernel_derivative(LTV, 1.0, [0.25, v], 0.05)),
    ("eigenvalue_margin", "obs_matrix",
     lambda v: eigenvalue_margin([[1.0, 0.0], [0.0, v]], np.eye(2))),
    ("eigenvalue_margin", "weight", lambda v: eigenvalue_margin(np.eye(2), [[1.0, 0.0], [0.0, v]])),
    ("reconstruct_state", "obs_matrix",
     lambda v: reconstruct_state([[1.0, 0.0], [0.0, v]], np.eye(2), [1.0, 1.0]), "O"),
    ("reconstruct_state", "weight",
     lambda v: reconstruct_state(np.eye(2), [[1.0, 0.0], [0.0, v]], [1.0, 1.0]), "W"),
    ("reconstruct_state", "outputs", lambda v: reconstruct_state(np.eye(2), np.eye(2), [1.0, v]),
     "y"),
    ("reconstruct_red_state", "times",
     lambda v: reconstruct_red_state([0.0, v, 1.0], np.zeros((3, 2)), SCENARIO), "sample times"),
    ("reconstruct_red_state", "positions",
     lambda v: reconstruct_red_state([0.0, 0.5, 1.0], [[0.0, 0.0], [v, 0.0], [0.0, 0.0]], SCENARIO)),
    ("constrained_min_expectation", "weights",
     lambda v: constrained_min_expectation([1.0, v], [[0.0], [0.0]], [1.0], 1.0)),
    ("constrained_min_expectation", "costs",
     lambda v: constrained_min_expectation([1.0], [[0.0, v]], [1.0, 0.0], 1.0)),
    ("constrained_min_expectation", "values",
     lambda v: constrained_min_expectation([1.0], [[0.0, 1.0]], [1.0, v], 1.0)),
    ("dro_objective", "xi", lambda v: dro_objective(PROFILE, [*XI[:4], v], XI, SCENARIO)),
    ("dro_objective", "known_state", lambda v: dro_objective(PROFILE, XI, [*XI[:4], v], SCENARIO)),
    ("solve_dro", "known_state",
     lambda v: solve_dro([*XI[:4], v], ball(), SCENARIO, n_t=20, n_starts=1)),
]


def _array_cases():
    for owner, param, call, *shown in ARRAY_ROWS:
        for bad in (math.nan, math.inf, -math.inf, "0.5", True):
            yield pytest.param(call, shown[0] if shown else param, bad, id=f"{owner}.{param}-{bad}")


@pytest.mark.parametrize("call, shown, bad", _array_cases())
def test_an_array_entry_that_is_not_finite_fails_by_name(call, shown, bad):
    with pytest.raises(ValueError) as exc:
        call(bad)
    message = str(exc.value)
    assert re.search(rf"\b{re.escape(shown)}\b", message), message
    assert isinstance(bad, str) or str(bad) in message, message


# (reader, call with a row of times, name the message shows, fewest times).
TIME_ROWS = [
    ("sample_observability_matrix", lambda ts: sample_observability_matrix(LTI, ts),
     "sample times", 1),
    ("weight_matrix", weight_matrix, "sample times", 2),
    ("check_schedule_observability",
     lambda ts: check_schedule_observability(LTI, [[0.0, 0.5], ts], "count"),
     "member 2: sample times", 1),
    ("SamplingSchedule", lambda ts: SamplingSchedule(((0.0,), tuple(ts))),
     "times of trajectory 1", 1),
    ("reconstruct_red_state",
     lambda ts: reconstruct_red_state(ts, np.zeros((len(ts), 2)), SCENARIO), "sample times", 3),
    # A config's row; an entry that is not a number is named by its index.
    ("cli._schedule_rows", lambda ts: cli._schedule_rows([[0.0, 0.5], ts], "schedules"), "'schedules[1]", 2),
]


def _time_cases():
    bad_rows = {
        "nan": ([0.0, math.nan, 2.0, 3.0], "got nan"),
        "bool": ([0.0, True, 2.0, 3.0], "got True"),
        "string": ([0.0, "0.5", 2.0, 3.0], "got '0.5'"),
        "repeat": ([0.0, 1.0, 1.0, 3.0], "got 1.0 then 1.0"),
        "decreasing": ([0.0, 2.0, 1.0, 3.0], "got 2.0 then 1.0"),
    }
    for owner, call, shown, at_least in TIME_ROWS:
        few = ([0.0, 1.0, 2.0][: at_least - 1], f"must be a row of {at_least} or more times")
        for case, (row, rule) in {**bad_rows, "too-few": few}.items():
            yield pytest.param(call, row, shown, rule, id=f"{owner}-{case}")


@pytest.mark.parametrize("call, row, shown, rule", _time_cases())
def test_a_row_of_times_that_fails_the_rule_is_named(call, row, shown, rule):
    with pytest.raises(ValueError) as exc:
        call(row)
    message = str(exc.value)
    assert shown in message and rule in message, message


@pytest.mark.parametrize(
    "push",
    [
        pytest.param(lambda t: cumulative_empirical([(0.0, STATE), (t, STATE)], 1.0, FIELD),
                     id="cumulative_empirical"),
        pytest.param(
            lambda t: calibrate_flow_error(FIELD, [(0.0, STATE), (t, STATE)], 1.0, 0.1, 1.0),
            id="calibrate_flow_error",
        ),
    ],
)
def test_a_push_takes_no_sample_after_its_horizon(push):
    # cumulative_empirical pushed a sample up to 1e-12 past the horizon
    # backward, and both raised TypeError for a time that is not a number.
    late = 1.0 + 1e-13
    message = f"sample 1 taken at t={late}, after the horizon 1.0"
    with pytest.raises(ValueError, match=re.escape(message)):
        push(late)
    for bad, shown in (("0.5", "'0.5'"), (None, "None"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=f"time of sample 1 must be finite, got {shown}"):
            push(bad)
    push(1.0)


def _shown_name(call, bad) -> str:
    with pytest.raises(ValueError) as exc:
        call(bad)
    return str(exc.value).split(" must ")[0]


def _read_names():
    """(file, line, pattern) for each name literal or f-string that ``src/``
    passes ``finite_array`` or ``times``; an f-string's fields match anything."""
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "ambiflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            callee = getattr(func, "id", getattr(func, "attr", None))
            if callee not in ("finite_array", "times") or not node.args:
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant):
                yield path.name, node.lineno, re.escape(name.value)
            elif isinstance(name, ast.JoinedStr):
                yield path.name, node.lineno, "".join(
                    re.escape(v.value) if isinstance(v, ast.Constant) else ".+" for v in name.values
                )


def test_tables_cover_every_array_name():
    shown = {_shown_name(call, math.nan) for _, _, call, *_ in ARRAY_ROWS}
    shown |= {_shown_name(call, [0.0, 1.0, 1.0]) for _, call, *_ in TIME_ROWS}
    reads = list(_read_names())
    uncovered = [read for read in reads if not any(re.fullmatch(read[2], name) for name in shown)]
    assert len(reads) > 20 and not uncovered, uncovered


def _float_parameters():
    for module in MODULES:
        for owner in set(module.__all__) - RESULTS:
            for param in inspect.signature(getattr(module, owner)).parameters.values():
                if "float" in str(param.annotation).split(" | "):
                    yield owner, param.name


def test_rows_cover_every_float_parameter():
    assert sorted({(owner, param) for owner, param, *_ in ROWS}) == sorted(_float_parameters())


@pytest.mark.parametrize(
    "call, name, shown",
    [
        pytest.param(lambda: RadiusConfig(p=True, d=1, beta=0.05), "p", "True", id="RadiusConfig.p"),
        pytest.param(lambda: RadiusConfig(p=1.0, d=True, beta=0.05), "d", "True", id="RadiusConfig.d"),
        pytest.param(
            lambda: ambiguity_radius(True, CFG, 2.0), "n_samples", "True", id="ambiguity_radius"
        ),
        pytest.param(
            lambda: pushforward_error(5, 0.1, True, MODEL), "p", "True", id="pushforward_error"
        ),
        pytest.param(lambda: ScenarioConfig(n_ref=True), "n_ref", "True", id="ScenarioConfig"),
        pytest.param(lambda: ball(radius=True), "radius", "True", id="AmbiguityBall"),
        # Times and RK4 arguments: a string or a bool was read through float().
        pytest.param(
            lambda: sample_observability_matrix(LTI, ["0", True, 2.0]), "sample times", "'0'",
            id="sample_observability_matrix",
        ),
        pytest.param(
            lambda: check_schedule_observability(LTI, [[0.0, True, 2.0]], "count"),
            "member 1: sample times", "True", id="check_schedule_observability",
        ),
        pytest.param(
            lambda: weight_matrix([0.0, True, 2.0]), "sample times", "True", id="weight_matrix"
        ),
        pytest.param(
            lambda: SamplingSchedule(((True, 2.0), ("2.5", "3.0"))), "times of trajectory 0",
            "True", id="SamplingSchedule",
        ),
        pytest.param(
            lambda: integrate_flow(FIELD, 0.0, 1.0, STATE, step=True), "step", "True",
            id="integrate_flow.step",
        ),
        pytest.param(
            lambda: integrate_flow(FIELD, ["0.5", True], 1.0, [STATE, STATE]), "t_start", "'0.5'",
            id="integrate_flow.t_start",
        ),
    ],
)
def test_a_bool_is_not_a_number(call, name, shown):
    # A bool is an int to Python, so p=True read as 1 and d=True as 1, and
    # float() read a time of True as 1.0 and of '0.5' as 0.5.
    with pytest.raises(ValueError, match=f"{name} must be .*, got {shown}"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(
            lambda: sample_observability_matrix(LTI, [0.0, BIG_INT]), "sample times",
            id="sample_observability_matrix",
        ),
        pytest.param(
            lambda: SamplingSchedule(((0.0, BIG_INT),)), "times of trajectory 0",
            id="SamplingSchedule",
        ),
    ],
)
def test_a_time_too_large_for_a_float_fails_by_name(call, name):
    # float() raised OverflowError, which the command line reports as a
    # numerical failure instead of naming the time.
    with pytest.raises(ValueError, match=f"{name} must be finite, got {BIG_INT}"):
        call()


def _gain(v):
    return builtin_field("forced_norm_growth", gain=v)


def _omega(v):
    return builtin_system("rotating_sensor", omega=v)


def _checkpoint(v):
    return uav_scenario.run_experiment(ScenarioConfig(), 1, [v])


@pytest.mark.parametrize(
    "call, bad, message",
    [
        *[
            pytest.param(call, bad, f"{name} must be finite, got {shown}", id=f"{name}-{label}")
            for call, name in ((_gain, "params.gain"), (_omega, "params.omega"))
            for bad, shown, label in (
                (BIG_INT, BIG_INT, "10**400"), (True, True, "bool"), ("2", "'2'", "string"),
                (math.nan, "nan", "nan"),
            )
        ],
        # 10**400 raised numpy's OverflowError, and the bound + 1 drew 10**6 + 2
        # phases per realization, before anything named the checkpoint.
        *[
            pytest.param(
                _checkpoint, bad, f"checkpoints[0] must be an integer in [1, 1000000], got {bad}",
                id=f"checkpoints[0]-{label}",
            )
            for bad, label in ((True, "bool"), (BIG_INT, "10**400"), (10**6 + 1, "bound+1"))
        ],
    ],
)
def test_a_builtin_param_or_checkpoint_is_read_by_the_rule(call, bad, message):
    # The built-in params were read through math.isfinite, which raised
    # OverflowError on an int too large for a float instead of naming it.
    # A checkpoint is a count of at most 10**6, checked before anything is
    # allocated: a bool is not the int 1.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)
