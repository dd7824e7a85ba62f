"""Tests for the pursuit-evasion benchmark.

Grouped as:
 1. scenario config validation and serialization
 2. closed-form tracker flow (identity, periodicity, RK4 cross-check)
 3. state recovery from position fixes
 4. intruder path and pointwise objective
 5. the constrained-expectation linear program
 6. candidate supports and the inner infimum
 7. the outer solver
 8. the seeded experiment
"""

import math
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, minimize_scalar

import ambiflow.uav_scenario as uav
from ambiflow.distribution import DiscreteDistribution
from ambiflow.dynamics import VectorField, builtin_field, integrate_flow
from ambiflow.uav_scenario import (
    TWO_PI,
    AmbiguityBall,
    ScenarioConfig,
    _clearance_kernel,
    _inner_evaluator,
    _intruder_x,
    _lift,
    _bounded_brent,
    _merged_center,
    _profile_lattice,
    _segment_coverage,
    _sorted_sources,
    _tracker_basis,
    candidate_support,
    constrained_min_expectation,
    default_config,
    dro_objective,
    initial_red_state,
    reconstruct_red_state,
    red_position_path,
    run_experiment,
    run_single_realization,
    solve_dro,
)

THETAS = (2.8 * math.pi / 4.0, 3.5 * math.pi / 4.0, 4.6 * math.pi / 4.0)


def tracker_state(theta, xi0, t, t_start=0.0, gain=4.0, orbit_radius=1.0):
    """Closed-form tracker (pos, vel) at time t, given (pos, vel) at t_start."""
    pos, vel = _tracker_basis(np.array([t - t_start]), gain, orbit_radius)
    coef = _lift(np.array([*xi0[:4], t_start + theta], dtype=float))
    z, v = pos[0] @ coef, vel[0] @ coef
    return np.array([z.real, z.imag, v.real, v.imag])


def intruder_x(profile, cfg, tau):
    """The intruder's x along the time grid tau, as the clearance kernel sums it."""
    coverage = _segment_coverage(np.asarray(tau, dtype=float), cfg.n_segments)
    return _intruder_x(np.asarray(profile, dtype=float)[None, :], coverage)[0]


def inner_inf(ball, profile, candidates, known_state, cfg, n_t=200):
    """Worst-case expected clearance over the ball of one profile, on a finite support."""
    evaluate_many = _inner_evaluator(ball, candidates, known_state, cfg, n_t)
    return evaluate_many(np.asarray(profile, dtype=float)[None, :])[0]


def observe(theta, cfg, t_last=0.0):
    """Three noiseless position fixes just before t_last."""
    xi0 = initial_red_state(theta, cfg.orbit_radius)
    times = [t_last - 0.2, t_last - 0.1, t_last]
    pos = np.array(
        [
            tracker_state(theta, xi0[:4], t, 0.0, cfg.tracking_gain, cfg.orbit_radius)[:2]
            for t in times
        ]
    )
    return times, pos


# --- group 1: config ---------------------------------------------------------


def test_default_config_feasible():
    cfg = default_config()
    assert cfg.v_min <= cfg.square_side / TWO_PI <= cfg.v_max
    assert cfg.profile_sum == pytest.approx(cfg.square_side * cfg.n_segments / TWO_PI)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(v_min=0.5, v_max=0.4)
    with pytest.raises(ValueError):
        ScenarioConfig(tracking_gain=3.5)
    with pytest.raises(ValueError):
        ScenarioConfig(v_min=1.0, v_max=2.0)  # mean crossing speed below v_min
    with pytest.raises(ValueError):
        ScenarioConfig(theta_probabilities=(0.5, 0.5))
    with pytest.raises(ValueError):
        ScenarioConfig(theta_probabilities=(0.5, 0.4, 0.2))


@pytest.mark.parametrize(
    "name, value",
    [
        ("eps_ref", math.nan),
        ("orbit_radius", math.inf),
        ("tracking_gain", math.inf),
        ("square_side", -math.inf),
        ("v_max", math.nan),
        ("theta_support", (math.nan, 2.0, 3.0)),
        ("theta_probabilities", (math.inf, 0.5, 0.5)),
    ],
)
def test_config_rejects_non_finite_numbers(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("n_segments", 2.5),
        ("n_ref", True),
        ("seed", 1.5),
        ("eps_ref", "0.17"),
        ("orbit_radius", True),
        ("theta_support", (2.0, "3.0", 4.0)),
        ("theta_probabilities", (0.5, 0.25, None)),
    ],
)
def test_config_rejects_wrong_types(name, value):
    # A float count or a string number fails by name instead of crashing deep
    # in the lattice or the seed sequence, or being parsed as a number.
    with pytest.raises(ValueError, match=name):
        ScenarioConfig(**{name: value})


def test_config_rejects_an_empty_phase_support():
    # numpy's "zero-size array to reduction operation minimum" named no field.
    with pytest.raises(ValueError, match="theta_support must hold at least one phase"):
        ScenarioConfig(theta_support=(), theta_probabilities=())


def test_config_accepts_any_integer_seed():
    assert ScenarioConfig(seed=np.int64(5)).seed == 5
    assert ScenarioConfig(seed=10**400).seed == 10**400  # beyond float range


@pytest.mark.parametrize(
    "name, value", [("radius", math.nan), ("radius", math.inf), ("order", math.inf)]
)
def test_ball_rejects_non_finite_numbers(name, value):
    center = DiscreteDistribution.empirical(np.zeros((1, 5)))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        AmbiguityBall(center=center, **{"radius": 0.1, name: value})


# --- group 2: tracker flow -----------------------------------------------------


def test_flow_identity_at_start():
    xi0 = np.array([0.3, -0.4, 1.0, 0.2])
    out = tracker_state(THETAS[0], xi0, 5.0, t_start=5.0)
    assert np.allclose(out, xi0, atol=1e-14)


def test_flow_periodicity_on_launch_states():
    for theta in THETAS:
        xi0 = initial_red_state(theta)
        out = tracker_state(theta, xi0[:4], TWO_PI)
        assert np.allclose(out, xi0[:4], atol=1e-6)


def test_flow_matches_rk4_integration():
    theta = THETAS[1]
    xi0 = initial_red_state(theta)
    gain = 4.0

    def tracker(t, s):
        cx, cy = math.cos(theta + t), math.sin(theta + t)
        return np.array([s[2], s[3], gain**2 * (cx - s[0]), gain**2 * (cy - s[1])])

    rk = integrate_flow(VectorField(tracker, dim=4), 0.0, 1.0, xi0[:4], step=1e-4)
    closed = tracker_state(theta, xi0[:4], 1.0)
    assert np.allclose(rk, closed, atol=1e-8)


def test_flow_matches_orbit_tracker_field():
    # The 5-d built-in field carries the phase as frozen fifth coordinate.
    theta = THETAS[0]
    state5 = initial_red_state(theta)
    field = builtin_field("orbit_tracker", orbit_radius=1.0, gain=4.0)
    rk = integrate_flow(field, 0.0, 2.0, state5, step=1e-4)
    closed = tracker_state(theta, state5[:4], 2.0)
    assert np.allclose(rk[:4], closed, atol=1e-8)
    assert rk[4] == pytest.approx(theta, abs=1e-15)


def test_position_path_consistent_with_scalar_flow():
    cfg = default_config()
    theta = THETAS[2]
    state = np.array([0.2, -0.1, 0.4, 0.9, theta])
    taus = np.array([0.0, 0.7, 2.1, 5.5])
    paths = red_position_path(state, taus, cfg)[0]
    for k, tau in enumerate(taus):
        want = tracker_state(theta, state[:4], float(tau))[:2]
        assert np.allclose(paths[k], want, atol=1e-12)


def test_checkpoint_states_invariant_over_index():
    # The reachable set at every checkpoint is the launch set itself.
    for theta in THETAS:
        xi0 = initial_red_state(theta)
        states = [tracker_state(theta, xi0[:4], i * TWO_PI) for i in (1, 2, 3)]
        spread = np.ptp(np.array(states), axis=0).max()
        assert spread < 1e-6


def test_flow_rejects_resonant_gain():
    with pytest.raises(ValueError):
        tracker_state(0.0, [1.0, 0.0, 0.0, 0.0], 1.0, gain=1.0)


# --- group 3: state recovery ---------------------------------------------------


def test_reconstruct_recovers_launch_state():
    cfg = default_config()
    theta = THETAS[1]
    times, pos = observe(theta, cfg)
    got = reconstruct_red_state(times, pos, cfg)
    want = initial_red_state(theta)
    assert np.allclose(got, want, atol=1e-6)
    assert abs(got[4] - theta) < 1e-6


def test_reconstruct_at_checkpoint_times():
    # Absolute sample times near a late checkpoint recover the same state.
    cfg = default_config()
    theta = THETAS[0]
    t_last = 3 * TWO_PI
    times, pos = observe(theta, cfg, t_last=t_last)
    got = reconstruct_red_state(times, pos, cfg)
    assert np.allclose(got, initial_red_state(theta), atol=1e-6)


def test_reconstruct_recovers_generic_state():
    cfg = default_config()
    theta = 1.234
    xi0 = np.array([0.5, -0.2, 0.3, 0.1])
    times = [0.35, 0.6, 0.95]
    pos = np.array([tracker_state(theta, xi0, t)[:2] for t in times])
    got = reconstruct_red_state(times, pos, cfg)
    want_state = tracker_state(theta, xi0, times[-1])
    assert np.allclose(got[:4], want_state, atol=1e-6)
    assert abs(got[4] - theta) < 1e-6


@settings(max_examples=300, deadline=None)
@given(
    theta=st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    xi0=st.lists(
        st.floats(min_value=-4.0, max_value=4.0), min_size=4, max_size=4
    ),
    times=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=6, unique=True
    )
    .map(sorted)
    .filter(lambda ts: min(np.diff(ts)) >= 0.05),
)
def test_reconstruct_is_exact_to_roundoff(theta, xi0, times):
    # Fixes are linear in (position, velocity, reference phasor), so the
    # recovery is one well-conditioned linear solve, not a search whose
    # accuracy stops at the square root of the residual's precision.
    cfg = default_config()
    pos = np.array([tracker_state(theta, xi0, t)[:2] for t in times])
    got = reconstruct_red_state(times, pos, cfg)
    want = tracker_state(theta, xi0, times[-1])
    assert np.abs(got[:4] - want).max() <= 1e-10
    gap = (got[4] - theta) % TWO_PI
    assert min(gap, TWO_PI - gap) <= 1e-10


def test_reconstruct_rejects_unidentifiable_phase():
    # Gaps of 2*pi/3 with gain 4 make the reference phasor at every sample
    # equal to the homogeneous oscillation e^{i*g*t}: every phase fits.
    cfg = default_config()
    theta = THETAS[0]
    xi0 = initial_red_state(theta)
    times = [0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0]
    pos = np.array([tracker_state(theta, xi0[:4], t)[:2] for t in times])
    with pytest.raises(ArithmeticError, match="ambiguous fit"):
        reconstruct_red_state(times, pos, cfg)


def test_reconstruct_needs_three_samples():
    cfg = default_config()
    with pytest.raises(ValueError):
        reconstruct_red_state([0.0, 0.1], np.zeros((2, 2)), cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruct_names_a_time_that_is_not_finite(bad):
    # A NaN time passed the ordering check and failed inside the SVD.
    with pytest.raises(ValueError, match=f"sample times must be finite, got {bad}"):
        reconstruct_red_state([0.0, bad, 1.0], np.zeros((3, 2)), default_config())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_reconstruct_names_a_position_that_is_not_finite(bad):
    # A NaN position was reported as a failed fit ("best residual nan").
    cfg = default_config()
    times, pos = observe(THETAS[1], cfg)
    pos[1, 0] = bad
    with pytest.raises(ValueError, match=f"positions must be finite, got {bad}"):
        reconstruct_red_state(times, pos, cfg)


def test_reconstruct_rejects_aliased_spacing():
    # Gaps of pi/2 put every sample at the same tracker phase: velocity
    # cannot be told apart from position.
    cfg = default_config()
    theta = THETAS[1]
    xi0 = initial_red_state(theta)
    times = [-math.pi, -math.pi / 2.0, 0.0]
    pos = np.array([tracker_state(theta, xi0[:4], t)[:2] for t in times])
    with pytest.raises(ArithmeticError, match="alias"):
        reconstruct_red_state(times, pos, cfg)


def test_reconstruct_rejects_non_model_data():
    cfg = default_config()
    with pytest.raises(ArithmeticError, match="no phase fits"):
        reconstruct_red_state(
            [-0.2, -0.1, 0.0], np.array([[5.0, 5.0], [-5.0, 5.0], [5.0, -5.0]]), cfg
        )


def test_reconstruct_validates_times():
    cfg = default_config()
    with pytest.raises(ValueError):
        reconstruct_red_state([0.0, 0.0, 0.1], np.zeros((3, 2)), cfg)


# --- group 4: intruder path and objective ------------------------------------------


def test_blue_path_crosses_one_square():
    cfg = default_config()
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    tau = np.linspace(0.0, TWO_PI, 9)
    path = intruder_x(x, cfg, tau)
    assert path[0] == pytest.approx(0.0)
    assert path[-1] == pytest.approx(cfg.square_side, rel=1e-12)
    assert np.all(np.diff(path) > 0.0)


def test_blue_path_is_the_solver_path():
    # The intruder path sums the segment columns left to right, so one
    # profile's path is the same to the bit alone as in the solver's batch.
    cfg = default_config()
    n = cfg.n_segments
    tau = np.linspace(0.0, TWO_PI, 200)
    h = TWO_PI / n
    cov = np.clip(tau[:, None] - np.arange(n)[None, :] * h, 0.0, h)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 200:
        x = cfg.v_min + (cfg.profile_sum - n * cfg.v_min) * rng.dirichlet(np.ones(n))
        if x.max() > cfg.v_max:
            continue
        expected = x[0] * cov[:, 0]
        for k in range(1, n):
            expected = expected + x[k] * cov[:, k]
        assert np.array_equal(intruder_x(x, cfg, tau), expected)
        checked += 1


def test_blue_path_rejects_infeasible_profiles():
    cfg = default_config()
    xi = initial_red_state(THETAS[0])
    with pytest.raises(ValueError):
        dro_objective(np.full(cfg.n_segments, cfg.v_max), xi, xi, cfg)  # wrong sum
    with pytest.raises(ValueError):
        dro_objective(np.full(3, 1.0), xi, xi, cfg)  # wrong length


@pytest.mark.parametrize("entry", [0, 3])
@pytest.mark.parametrize("call", ["dro_objective"])  # the public reader of one profile
def test_nan_profile_is_rejected(call, entry):
    # A NaN speed fails the bound and sum checks instead of slipping past them.
    cfg = default_config()
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    x[entry] = math.nan
    xi, known = initial_red_state(THETAS[1]), initial_red_state(THETAS[0])
    with pytest.raises(ValueError, match="profile infeasible"):
        dro_objective(x, xi, known, cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["xi", "known_state"])
def test_dro_objective_names_a_watcher_state_that_is_not_finite(name, bad):
    # A NaN candidate phase scored as no threat: the known watcher's clearance
    # 0.706 came back, where this candidate's finite phase gives 0.609.  A
    # NaN known state returned nan.
    cfg = default_config()
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    states = {"xi": initial_red_state(THETAS[2]), "known_state": initial_red_state(0.3)}
    states[name][4] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
        dro_objective(x, states["xi"], states["known_state"], cfg)


@pytest.mark.parametrize(
    "known, message",
    [
        (np.array([1.0, 0.0, 0.0, 0.0, math.nan]), "known_state must be finite, got nan"),
        (np.zeros(4), re.escape("known_state must hold (x, y, vx, vy, phase), got shape (4,)")),
    ],
    ids=["nan", "four-entries"],
)
def test_solve_dro_reads_the_known_state_by_the_rule(known, message):
    # Both failed inside the clearance kernel with an IndexError.
    cfg = default_config()
    ball = AmbiguityBall(DiscreteDistribution.empirical(initial_red_state(THETAS[1])), 0.1)
    with pytest.raises(ValueError, match=message):
        solve_dro(known, ball, cfg, n_t=20, n_starts=1)


def test_dro_objective_zero_when_paths_touch():
    cfg = default_config()
    # A watcher sitting exactly at the intruder's start at the grid's t = 0.
    known = np.array([0.0, 0.0, 0.3, -0.2, THETAS[0]])
    far = initial_red_state(THETAS[1]) + np.array([50.0, 0.0, 0.0, 0.0, 0.0])
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    assert dro_objective(x, far, known, cfg) == pytest.approx(0.0, abs=1e-12)


def test_dro_objective_matches_direct_scan():
    cfg = default_config()
    known = initial_red_state(THETAS[0])
    xi = initial_red_state(THETAS[2])
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    n_t = 200
    tau = np.linspace(0.0, TWO_PI, n_t)
    blue = np.column_stack([intruder_x(x, cfg, tau), np.zeros(n_t)])
    best = math.inf
    for k, t in enumerate(tau):
        kp = tracker_state(THETAS[0], known[:4], float(t))[:2]
        cp = tracker_state(THETAS[2], xi[:4], float(t))[:2] + np.array(
            [cfg.square_side, 0.0]
        )
        best = min(
            best,
            float(((kp - blue[k]) ** 2).sum()),
            float(((cp - blue[k]) ** 2).sum()),
        )
    assert dro_objective(x, xi, known, cfg, n_t=n_t) == pytest.approx(best, rel=1e-12)


def test_dro_objective_anchor_time():
    # A state handed over at absolute time s, scanned over [s, s + 2*pi],
    # must match the scan of the original launch trajectory.
    cfg = default_config()
    s = 0.6
    theta_k, theta_c = THETAS[0], THETAS[1]
    known_s = tracker_state(theta_k, initial_red_state(theta_k)[:4], s)
    cand_s = tracker_state(theta_c, initial_red_state(theta_c)[:4], s)
    known5 = np.append(known_s, theta_k)
    cand5 = np.append(cand_s, theta_c)
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    n_t = 150
    tau = np.linspace(0.0, TWO_PI, n_t)
    blue = np.column_stack([intruder_x(x, cfg, tau), np.zeros(n_t)])
    best = math.inf
    for k, t in enumerate(tau):
        kp = tracker_state(theta_k, initial_red_state(theta_k)[:4], s + float(t))[:2]
        cp = tracker_state(theta_c, initial_red_state(theta_c)[:4], s + float(t))[:2]
        cp = cp + np.array([cfg.square_side, 0.0])
        best = min(
            best,
            float(((kp - blue[k]) ** 2).sum()),
            float(((cp - blue[k]) ** 2).sum()),
        )
    got = dro_objective(x, cand5, known5, cfg, t_start=s, n_t=n_t)
    assert got == pytest.approx(best, rel=1e-10)


def test_dro_objective_grid_refinement_stable():
    cfg = default_config()
    rng = np.random.default_rng(17)
    for _ in range(5):
        theta_k, theta_c = rng.choice(THETAS, size=2)
        known = initial_red_state(float(theta_k)) + np.append(rng.normal(0, 0.1, 4), 0)
        xi = initial_red_state(float(theta_c)) + np.append(rng.normal(0, 0.1, 4), 0)
        x = rng.uniform(cfg.v_min, cfg.v_max, cfg.n_segments)
        x += (cfg.profile_sum - x.sum()) / cfg.n_segments
        x = np.clip(x, cfg.v_min, cfg.v_max)
        x[0] += cfg.profile_sum - x.sum()
        coarse = dro_objective(x, xi, known, cfg, n_t=200)
        fine = dro_objective(x, xi, known, cfg, n_t=400)
        assert abs(coarse - fine) < 1e-3, f"grid drift {abs(coarse - fine):.2e}"


# --- group 5: constrained expectation LP --------------------------------------------


def test_constrained_expectation_hand_example():
    # Two half-weight atoms at 0 and 3 on the line, extra candidate at 1;
    # values 4, 3, 1. Budget buys value reduction at the hull slopes.
    w = np.array([0.5, 0.5])
    costs = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0]])
    f = np.array([4.0, 3.0, 1.0])
    expected = {0.0: 3.5, 0.3: 2.6, 0.5: 2.0, 1.0: 1.5, 1.5: 1.0, 2.0: 1.0}
    for budget, want in expected.items():
        got = constrained_min_expectation(w, costs, f, budget)
        assert got == pytest.approx(want, abs=1e-12), f"budget {budget}"


def test_constrained_expectation_matches_linprog():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n_src = int(rng.integers(1, 4))
        n_extra = int(rng.integers(1, 6))
        pts = rng.normal(size=(n_src, 3))
        cand = np.vstack([pts, rng.normal(size=(n_extra, 3))])
        w = rng.dirichlet(np.ones(n_src))
        costs = np.linalg.norm(pts[:, None, :] - cand[None, :, :], axis=2)
        f = rng.uniform(0.0, 5.0, size=len(cand))
        budget = float(rng.uniform(0.0, 3.0))
        mine = constrained_min_expectation(w, costs, f, budget)
        n_all = len(cand)
        a_eq = np.zeros((n_src, n_src * n_all))
        for i in range(n_src):
            a_eq[i, i * n_all : (i + 1) * n_all] = 1.0
        ref = linprog(
            np.tile(f, n_src),
            A_ub=costs.reshape(1, -1),
            b_ub=[budget],
            A_eq=a_eq,
            b_eq=w,
            bounds=(0, None),
            method="highs",
        )
        assert ref.status == 0
        assert mine == pytest.approx(ref.fun, rel=1e-8, abs=1e-10), f"trial {trial}"


def test_constrained_expectation_charges_tiny_costs():
    # A candidate 1e-16 away is not the atom itself: moving there spends budget.
    # With none, the optimum is the atom's own value; 1e-17 moves a tenth of the mass.
    w, costs, f = np.array([1.0]), np.array([[0.0, 1e-16]]), np.array([1.0, 0.0])
    assert constrained_min_expectation(w, costs, f, 0.0) == 1.0
    assert constrained_min_expectation(w, costs, f, 1e-17) == pytest.approx(0.9, rel=1e-12)
    assert constrained_min_expectation(w, costs, f, 1e-16) == pytest.approx(0.0, abs=1e-12)
    # Exactly equal costs do merge: the atom moves for free to its best twin.
    assert constrained_min_expectation(w, np.array([[0.0, 0.0]]), f, 0.0) == 0.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", ["weights", "costs"])
def test_constrained_expectation_rejects_bad_weights_and_costs(name, bad):
    # A negative or non-finite entry fails loudly instead of returning 0.0 or nan.
    w = np.array([0.5, 0.5])
    costs = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0]])
    if name == "weights":
        w[1] = bad
    else:
        costs[1, 2] = bad
    rule = "finite and nonnegative" if math.isfinite(bad) else f"finite, got {bad}"
    with pytest.raises(ValueError, match=f"{name} must be {rule}"):
        constrained_min_expectation(w, costs, np.array([4.0, 3.0, 1.0]), 1.0)


def test_constrained_expectation_budget_extremes():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(3, 2))
    cand = np.vstack([pts, rng.normal(size=(4, 2))])
    w = np.full(3, 1.0 / 3.0)
    costs = np.linalg.norm(pts[:, None, :] - cand[None, :, :], axis=2)
    f = rng.uniform(1.0, 4.0, size=7)
    assert constrained_min_expectation(w, costs, f, 0.0) == pytest.approx(
        float(w @ f[:3]), abs=1e-12
    )
    huge = costs.max() * 2.0
    assert constrained_min_expectation(w, costs, f, huge) == pytest.approx(
        float(f.min()), abs=1e-12
    )
    vals = [constrained_min_expectation(w, costs, f, b) for b in np.linspace(0, huge, 9)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_constrained_expectation_needs_zero_cost_candidate():
    with pytest.raises(ValueError, match="zero-cost"):
        constrained_min_expectation(
            np.array([1.0]), np.array([[0.5, 1.0]]), np.array([1.0, 2.0]), 1.0
        )


def test_constrained_expectation_rejects_nan_inputs():
    w = np.array([0.5, 0.5])
    costs = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0]])
    f = np.array([4.0, 3.0, 1.0])
    with pytest.raises(ValueError, match="budget"):
        constrained_min_expectation(w, costs, f, math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="values must be finite"):
            constrained_min_expectation(w, costs, np.array([3.0, bad, 0.0]), 1.0)
    # An infinite budget is unconstrained transport: every atom moves to the minimum.
    assert constrained_min_expectation(w, costs, f, math.inf) == 1.0


def lp_dual(w, costs, f, budget):
    """max over lam >= 0 of sum_i w_i min_j (f_j + lam c_ij) - lam * budget.

    The dual is concave and piecewise linear in lam, with kinks only where
    two candidates of one source tie in f_j + lam c_ij, so evaluating it at
    0 and at every such pairwise crossing finds its maximum exactly.
    """
    lams = {0.0}
    for row in costs:
        for j in range(len(f)):
            for k in range(j + 1, len(f)):
                if row[j] != row[k]:
                    lam = (f[k] - f[j]) / (row[j] - row[k])
                    if lam > 0.0:
                        lams.add(lam)
    return max(float(w @ (f[None, :] + lam * costs).min(axis=1)) - lam * budget for lam in lams)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_constrained_expectation_matches_lp_dual(data):
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    n_src = data.draw(st.integers(1, 4))
    pts = data.draw(st.lists(grid, min_size=n_src, max_size=n_src + 4))
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))  # tied costs
    cand = np.array(pts, dtype=float)
    order = data.draw(st.sampled_from([1.0, 2.0]))
    costs = np.linalg.norm(cand[:n_src, None, :] - cand[None, :, :], axis=2) ** order
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    w = np.array(data.draw(st.lists(weight, min_size=n_src, max_size=n_src)))
    value = st.floats(0.0, 5.0, allow_nan=False)
    f = np.array(data.draw(st.lists(value, min_size=len(pts), max_size=len(pts))))
    budget = data.draw(st.floats(0.0, 1.5 * float(costs.max()) + 1.0))
    got = constrained_min_expectation(w, costs, f, budget)
    assert got == pytest.approx(lp_dual(w, costs, f, budget), rel=1e-9, abs=1e-12)


def per_profile_lp(weights, costs, values, budget):
    """The LP one profile at a time: every live atom's hull and the greedy in Python.

    Each atom walks all its candidates in cost order; a point no better than the
    hull's last is dominated, and only exactly equal costs merge.
    """
    total, segments = 0.0, []
    for wi, row in zip(weights.tolist(), costs):
        if wi == 0.0:
            continue
        order = np.argsort(row, kind="stable")
        hull = []
        for pt in zip(row[order].tolist(), values[order].tolist()):
            if hull and pt[1] >= hull[-1][1]:
                continue
            while len(hull) >= 2:
                (c1, f1), (c2, f2) = hull[-2], hull[-1]
                if (f2 - f1) * (pt[0] - c1) >= (pt[1] - f1) * (c2 - c1):
                    hull.pop()
                else:
                    break
            if hull and pt[0] == hull[-1][0]:
                hull.pop()
            hull.append(pt)
        total += wi * hull[0][1]
        for (c1, f1), (c2, f2) in zip(hull, hull[1:]):
            segments.append(((f2 - f1) / (c2 - c1), wi * (c2 - c1)))
    remaining = budget
    for slope, length in sorted(segments, key=lambda s: s[0]):
        if remaining <= 0.0 or slope >= 0.0:
            break
        used = min(length, remaining)
        total += slope * used
        remaining -= used
    return total


@st.composite
def lp_problems(draw):
    """Weights, costs, (B, J) values and a budget for the batched LP.  Values drawn from a
    small set tie often; duplicated points tie costs; zero weights drop atoms."""
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    n_src = draw(st.integers(1, 4))
    pts = draw(st.lists(grid, min_size=n_src, max_size=n_src + 6))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    cand = np.array(pts, dtype=float)
    order = draw(st.sampled_from([1.0, 2.0]))
    costs = np.linalg.norm(cand[:n_src, None, :] - cand[None, :, :], axis=2) ** order
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    w = np.array(draw(st.lists(weight, min_size=n_src, max_size=n_src)))
    value = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 5.0))
    n_rows = draw(st.integers(1, 6))
    rows = st.lists(value, min_size=len(pts), max_size=len(pts))
    values = np.array(draw(st.lists(rows, min_size=n_rows, max_size=n_rows)))
    budget = draw(st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 20.0)))
    return w, costs, values, budget


@settings(max_examples=300, deadline=None)
@given(problem=lp_problems())
# Atom 0's candidate 2 is a zero-cost twin, cheaper than the atom itself, and the
# staircases of both rows step below their bases: the merged-base build.
@example(
    problem=(
        np.array([0.5, 0.25]),
        np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 2.0]]),
        np.array([[3.0, 2.0, 1.0, 0.0], [1.0, 2.0, 3.0, 0.5]]),
        0.5,
    )
)
# No atom has a zero-cost twin, and both rows step below their bases: the plain build.
@example(
    problem=(
        np.array([0.5, 0.25]),
        np.array([[0.0, 1.0, 2.0, 0.5], [1.0, 0.0, 0.5, 2.0]]),
        np.array([[3.0, 2.0, 1.0, 0.0], [0.0, 2.0, 1.0, 3.0]]),
        0.75,
    )
)
def test_batched_lp_equals_the_per_profile_loop(problem):
    # The batched solve (staircase and base per atom for all rows, hulls only where the
    # staircase steps) gives every row the per-profile loop's bits.
    w, costs, values, budget = problem
    got = _sorted_sources(w, costs)(values, budget)
    assert got == [per_profile_lp(w, costs, f, budget) for f in values]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batched_lp_on_collinear_staircases_equals_the_per_profile_loop(data):
    # Values exactly affine in one atom's costs (integer squared distances, dyadic
    # slopes), so every product in the hull test is exact and many staircase points lie
    # exactly on a chord: the hull pops those (its test is >=), and the prefilter must
    # leave that to it.  Lifted values step off the line by whole units.
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    n_src = data.draw(st.integers(1, 3))
    pts = data.draw(st.lists(grid, min_size=n_src, max_size=n_src + 12))
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=3))
    cand = np.array(pts, dtype=float)
    costs = ((cand[:n_src, None, :] - cand[None, :, :]) ** 2).sum(axis=2)  # order 2
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    w = np.array(data.draw(st.lists(weight, min_size=n_src, max_size=n_src)))
    line = st.tuples(
        st.integers(0, n_src - 1), st.integers(20, 80), st.sampled_from([0.25, 0.5, 1.0, 2.0])
    )
    up = st.sampled_from([0.0, 0.0, 0.0, 1.0, 3.0])
    lift = st.lists(up, min_size=len(pts), max_size=len(pts))
    rows = data.draw(st.lists(st.tuples(line, lift), min_size=1, max_size=6))
    values = np.array([a - s * costs[i] + np.array(lifted) for (i, a, s), lifted in rows])
    budget = data.draw(st.one_of(st.just(0.0), st.just(math.inf), st.integers(0, 80)))
    got = _sorted_sources(w, costs)(values, float(budget))
    assert got == [per_profile_lp(w, costs, f, float(budget)) for f in values]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_batched_lp_settles_near_ties_like_the_per_profile_loop(data):
    # Values within one unit in the last place of a line in cost, so the chord and hull
    # tests of most staircase points are decided by rounding: every near-tie must reach
    # the Python hull, which then settles it exactly as the per-profile loop does.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_src, n_cand = data.draw(st.integers(1, 3)), data.draw(st.integers(4, 40))
    costs = rng.uniform(0.0, 1.0, (n_src, n_cand)) ** data.draw(st.sampled_from([1.0, 2.0]))
    costs[np.arange(n_src), np.arange(n_src)] = 0.0
    w = rng.uniform(0.05, 1.0, n_src)
    n_rows = data.draw(st.integers(1, 6))
    line = rng.uniform(1.0, 3.0, (n_rows, 1)) - rng.uniform(0.1, 2.0, (n_rows, 1)) * costs[
        rng.integers(0, n_src, n_rows)
    ]
    values = np.nextafter(line, line + rng.choice([-1.0, 0.0, 1.0], line.shape))
    budget = data.draw(st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 2.0)))
    got = _sorted_sources(w, costs)(values, budget)
    assert got == [per_profile_lp(w, costs, f, budget) for f in values]


def staircase_lengths(weights, costs, values):
    """(B,) longest dominance staircase below the base over the live atoms of each row."""
    longest = np.zeros(len(values), dtype=int)
    for wi, row in zip(weights, costs):
        if wi == 0.0:
            continue
        order = np.argsort(row, kind="stable")
        m = int((row[order] == row[order[0]]).sum())
        fs = values[:, order]
        run = np.minimum.accumulate(fs, axis=1)
        longest = np.maximum(longest, (fs[:, m:] < run[:, m - 1 : -1]).sum(axis=1))
    return longest


def test_batched_lp_on_the_wide_ball_equals_the_per_profile_loop():
    # The 808-candidate, 8-atom ball, on clearance rows of lattice profiles and of the
    # first probe line of an ascent from the best of them, whose staircases are long.
    known, ball, cfg = wide_problem()
    cand = candidate_support(ball)
    points, weights = _merged_center(ball.center)
    costs = np.linalg.norm(points[:, None, :] - cand[None, :, :], axis=2)
    lattice, _ = _profile_lattice(cfg)
    values = _inner_evaluator(ball, cand, known, cfg, 200)(lattice)
    best = int(np.argmax(values))
    probes = np.asarray(next(uav._ascent(lattice[best].copy(), values[best], cfg)))
    clearance = _clearance_kernel(known, cand, cfg, 200)
    assert (staircase_lengths(weights, costs, clearance(probes)) >= 20).sum() >= 3
    rows = clearance(np.vstack([lattice[::80], probes]))
    for budget in (0.0, ball.radius, 10.0 * ball.radius):
        got = _sorted_sources(weights, costs)(rows, budget)
        assert got == [per_profile_lp(weights, costs, f, budget) for f in rows]


def test_lp_calls_of_a_wide_solve_equal_the_per_profile_loop(monkeypatch):
    # Every LP call of one solve on the wide ball is recorded; a spread sample of them,
    # and the five with the longest staircases, give the per-profile loop's bits.
    known, ball, cfg = wide_problem()
    calls = []
    make_solver = uav._sorted_sources

    def recording_sources(weights, costs):
        solve = make_solver(weights, costs)

        def recorded(values, budget):
            out = solve(values, budget)
            calls.append((weights, costs, values.copy(), budget, out))
            return out

        return recorded

    monkeypatch.setattr(uav, "_sorted_sources", recording_sources)
    solve_dro(known, ball, cfg, n_starts=3)
    longest = [staircase_lengths(w, c, v).max() for w, c, v, *_ in calls]
    assert len(calls) >= 100 and max(longest) >= 20
    picked = set(np.argsort(longest, kind="stable")[-5:].tolist())
    picked |= set(range(0, len(calls), -(-len(calls) // 25)))
    assert len(picked) >= 25
    for i in sorted(picked):
        weights, costs, values, budget, out = calls[i]
        assert out == [per_profile_lp(weights, costs, f, budget) for f in values]


# --- group 6: candidate supports and inner infimum -----------------------------------


def test_candidate_support_star_geometry():
    atoms = np.array([[0.0, 0.0, 0.0, 0.0, 1.0]])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.2)
    cand = candidate_support(ball)
    assert any(np.allclose(c, atoms[0]) for c in cand)
    assert len(cand) == 1 + 10 * 5 * 2
    dists = np.linalg.norm(cand - atoms[0], axis=1)
    assert dists.max() == pytest.approx(0.2, rel=1e-12)
    positive = np.unique(np.round(dists[dists > 0], 12))
    assert len(positive) == 10  # resolution radius / 10


def test_candidate_support_zero_radius():
    atoms = np.array([[0.0, 1.0, 0.0, 0.0, 2.0], [0.0, 1.0, 0.0, 0.0, 2.0]])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.0)
    cand = candidate_support(ball)
    assert cand.shape == (1, 5)  # duplicates collapse


def test_inner_inf_zero_radius_is_center_expectation():
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in THETAS])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.0)
    known = initial_red_state(THETAS[0])
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    got = inner_inf(ball, x, candidate_support(ball), known, cfg)
    want = np.mean([dro_objective(x, a, known, cfg) for a in atoms])
    assert got == pytest.approx(want, rel=1e-12)


def test_inner_inf_requires_center_in_candidates():
    cfg = default_config()
    atoms = np.array([initial_red_state(THETAS[0])])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.1)
    known = initial_red_state(THETAS[1])
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    with pytest.raises(ValueError, match="candidate support"):
        inner_inf(ball, x, atoms + 1.0, known, cfg)


def test_inner_evaluator_batch_is_bit_identical():
    # An 8-atom ball as in the wide benchmark: 808 candidates.  The batched
    # evaluator, the single-profile paths and the public LP on the kernel's
    # rows agree exactly: the intruder path is a fixed-order sum, so one
    # profile rounds the same alone as in a batch.
    thetas = np.linspace(2.6 * math.pi / 4.0, 4.8 * math.pi / 4.0, 8)
    cfg = default_config(seed=7)
    states = np.array([reconstruct_red_state(*observe(float(t), cfg), cfg) for t in thetas])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(states), radius=0.05)
    cand = candidate_support(ball)
    assert len(cand) == 808
    known = states[3]
    evaluate_many = _inner_evaluator(ball, cand, known, cfg, 200)
    mid = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    span = min(mid[0] - cfg.v_min, cfg.v_max - mid[1])
    xs = np.stack([mid + t * np.array([1.0, -1.0, 0.0, 0.0]) for t in np.linspace(-span, span, 9)])
    batch = evaluate_many(xs)
    points, weights = _merged_center(ball.center)
    costs = np.linalg.norm(points[:, None, :] - cand[None, :, :], axis=2) ** ball.order
    budget = ball.radius**ball.order
    clearance = _clearance_kernel(known, cand, cfg, 200)
    rows = clearance(xs)
    for b, x in enumerate(xs):
        single = evaluate_many(x[None, :])[0]
        assert single == inner_inf(ball, x, cand, known, cfg)
        assert single == constrained_min_expectation(
            weights, costs, clearance(x[None, :])[0], budget
        )
        assert batch[b] == constrained_min_expectation(weights, costs, rows[b], budget)
        assert batch[b] == single


def dense_clearance_kernel(known_state, candidates, cfg, n_t):
    """The clearance kernel computing every (profile, time, candidate) cell."""
    tau = np.linspace(0.0, TWO_PI, n_t)
    coverage = _segment_coverage(tau, cfg.n_segments)
    known_xy = red_position_path(np.asarray(known_state, dtype=float), tau, cfg)[0]
    cand_xy = red_position_path(candidates, tau, cfg) + np.array([cfg.square_side, 0.0])
    # Time-major (n_t, J) copies and one scratch buffer: no (B, J, n_t) temporary.
    cand_x = np.ascontiguousarray(cand_xy[:, :, 0].T)
    cand_y2 = np.ascontiguousarray(cand_xy[:, :, 1].T ** 2)
    buf = np.empty_like(cand_x)
    known_y2 = known_xy[:, 1] ** 2

    def clearance(xs: np.ndarray) -> np.ndarray:
        bx = _intruder_x(xs, coverage)  # (B, n_t), along y = 0
        best_known = ((known_xy[:, 0][None, :] - bx) ** 2 + known_y2[None, :]).min(axis=1)
        dc = np.empty((len(bx), cand_x.shape[1]))
        for b in range(len(bx)):
            np.subtract(cand_x, bx[b][:, None], out=buf)
            np.square(buf, out=buf)
            np.add(buf, cand_y2, out=buf)
            buf.min(axis=0, out=dc[b])
        return np.minimum(best_known[:, None], dc, out=dc)

    return clearance


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_clearance_kernel_equals_dense_reference(data):
    # Pruned cells can never undercut the known-watcher clearance, so the kernel
    # equals the full grid bit for bit.  Edge cases: a known watcher on the
    # intruder's start point (best_known = 0: every cell pruned) and candidates
    # circling 100 units out (every column pruned).  Each term of a tile's bound
    # decides alone on ellipses X cos(g t + a) + i Y sin(g t + a) about the next
    # square's centre (plus the reference circle): "straddle" sweeps x across the
    # intruder's path at |y| up to 4 (no x gap: the y^2 floor decides), "along x"
    # sweeps far along x near y = 0 (the x gap decides).
    cfg = ScenarioConfig(n_segments=data.draw(st.sampled_from([2, 3, 4])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n_atoms = data.draw(st.integers(1, 8))
    atoms = np.array([initial_red_state(t) for t in rng.uniform(0.0, TWO_PI, n_atoms)])
    atoms[:, :4] += rng.uniform(-0.2, 0.2, (n_atoms, 4))
    radius = data.draw(st.floats(0.0, 0.3))
    cand = candidate_support(AmbiguityBall(DiscreteDistribution.empirical(atoms), radius))
    known = initial_red_state(rng.uniform(0.0, TWO_PI))
    known[:4] += rng.uniform(-0.2, 0.2, 4)
    case = data.draw(st.sampled_from(["random", "touching", "far", "straddle", "along x"]))
    if case == "touching":
        known[:2] = 0.0
    if case == "far":
        z0 = 100.0 * np.exp(1j * rng.uniform(0.0, TWO_PI, len(cand)))
        v0 = 1j * cfg.tracking_gain * z0  # z0 cos(g t) + v0 sin(g t) / g = z0 e^{i g t}
        cand = np.column_stack([z0.real, z0.imag, v0.real, v0.imag, cand[:, 4]])
    if case in ("straddle", "along x"):
        straddle = case == "straddle"
        x_range, y_range = [(0.0, 3.0), (2.0, 4.0)] if straddle else [(5.0, 30.0), (0.0, 0.1)]
        a = cand[:, 4] + rng.uniform(0.0, TWO_PI)  # neighbours in a tile move together
        x_ax, y_ax = rng.uniform(*x_range), rng.uniform(*y_range)
        z0 = x_ax * np.cos(a) + 1j * y_ax * np.sin(a)
        v0 = cfg.tracking_gain * (1j * y_ax * np.cos(a) - x_ax * np.sin(a))
        cand = np.column_stack([z0.real, z0.imag, v0.real, v0.imag, cand[:, 4]])
    n_t = data.draw(st.integers(2, 200))
    chunk = data.draw(st.sampled_from([uav._TILE_CHUNK, 5]))  # runs split across chunks
    # Tile heights that do and do not divide n_t: the strided tile extremes with and
    # without a padded last tile.
    tile_t = data.draw(st.sampled_from([3, 4, 5]))
    with patch.object(uav, "_TILE_T", tile_t):
        pruned = _clearance_kernel(known, cand, cfg, n_t)
    dense = dense_clearance_kernel(known, cand, cfg, n_t)
    lattice, _ = _profile_lattice(cfg)
    for batch in (1, 9, 64):
        corners = lattice[rng.integers(0, len(lattice), (batch, 3))]
        xs = np.einsum("bk,bkn->bn", rng.dirichlet(np.ones(3), batch), corners)
        with patch.object(uav, "_TILE_CHUNK", chunk), patch.object(uav, "_TILE_T", tile_t):
            got = pruned(xs)
        assert got.shape == (batch, len(cand))
        assert np.array_equal(got, dense(xs))
        if case == "touching":
            assert not got.any()
        if case == "far":
            assert np.all(got == got[:, :1])


def test_clearance_kernel_on_the_wide_ball_across_chunks():
    # The 808-candidate ball with one live tile per chunk: a (profile, j-tile) run of two
    # or more live tiles then spans chunks, and each chunk after the first must fold its
    # first run into what the earlier chunks left.  A cell below the known-watcher
    # clearance keeps its tile live, so the dense grid shows such a run exists.
    known, ball, cfg = wide_problem()
    cand = candidate_support(ball)
    assert len(cand) == 808
    n_t = 200
    lattice, _ = _profile_lattice(cfg)
    xs = lattice[::80]
    dense = dense_clearance_kernel(known, cand, cfg, n_t)
    tau = np.linspace(0.0, TWO_PI, n_t)
    bx = _intruder_x(xs, _segment_coverage(tau, cfg.n_segments))
    known_xy = red_position_path(known, tau, cfg)[0]
    best_known = ((known_xy[:, 0] - bx) ** 2 + known_xy[:, 1] ** 2).min(axis=1)
    cand_xy = red_position_path(cand, tau, cfg) + np.array([cfg.square_side, 0.0])
    cells = (cand_xy[None, :, :, 0] - bx[:, None, :]) ** 2 + cand_xy[None, :, :, 1] ** 2
    below = cells < best_known[:, None, None]  # (profile, candidate, time)
    tiles = below.reshape(len(xs), len(cand), n_t // uav._TILE_T, uav._TILE_T).any(axis=3)
    assert tiles.sum(axis=2).max() >= 2
    pruned = _clearance_kernel(known, cand, cfg, n_t)
    for chunk in (1, 7, uav._TILE_CHUNK):
        with patch.object(uav, "_TILE_CHUNK", chunk):
            assert np.array_equal(pruned(xs), dense(xs))
            assert np.array_equal(pruned(xs[:1]), dense(xs[:1]))


def test_pruned_kernel_leaves_solutions_unchanged(monkeypatch):
    # The 8-atom, 808-candidate ball of the wide benchmark, and a small
    # experiment serially and in a pool, whose forked workers inherit the patch.
    thetas = np.linspace(2.6 * math.pi / 4.0, 4.8 * math.pi / 4.0, 8)
    cfg = default_config(seed=7)
    states = np.array([reconstruct_red_state(*observe(float(t), cfg), cfg) for t in thetas])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(states), radius=0.05)
    assert len(candidate_support(ball)) == 808
    known, small = states[3], default_config(seed=12)
    pruned = [solve_dro(known, ball, cfg, n_starts=3)]
    pruned += [run_experiment(small, 2, [1, 3], n_t=100, n_starts=2, jobs=j).rows for j in (1, 2)]
    monkeypatch.setattr(uav, "_clearance_kernel", dense_clearance_kernel)
    dense = [solve_dro(known, ball, cfg, n_starts=3)]
    dense += [run_experiment(small, 2, [1, 3], n_t=100, n_starts=2, jobs=j).rows for j in (1, 2)]
    (x, value), (x_dense, value_dense) = pruned[0], dense[0]
    assert np.array_equal(x, x_dense) and value == value_dense
    assert pruned[1] == dense[1] == pruned[2] == dense[2]


def test_inner_inf_nonincreasing_in_radius():
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in THETAS])
    known = initial_red_state(THETAS[0])
    x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
    vals = []
    for radius in (0.0, 0.05, 0.17, 0.3023, 0.6):
        ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=radius)
        vals.append(inner_inf(ball, x, candidate_support(ball), known, cfg))
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# --- group 7: outer solver -----------------------------------------------------------


def test_solve_dro_singleton_profile_set():
    speed = 2.5 / TWO_PI
    cfg = ScenarioConfig(v_min=speed, v_max=speed)
    atoms = np.array([initial_red_state(THETAS[1])])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.1)
    known = initial_red_state(THETAS[0])
    x, value = solve_dro(known, ball, cfg, n_starts=3)
    assert np.allclose(x, np.full(cfg.n_segments, speed))
    want = inner_inf(ball, x, candidate_support(ball), known, cfg)
    assert value == pytest.approx(want, rel=1e-12)


def test_solve_dro_deterministic():
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in THETAS])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.17)
    known = initial_red_state(THETAS[0])
    runs = [
        solve_dro(known, ball, cfg, n_t=100, n_starts=2)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_solve_dro_value_shrinks_with_radius():
    # More ambiguity can only help the adversary, never the planner.
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in THETAS])
    known = initial_red_state(THETAS[0])
    values = []
    for radius in (0.02, 0.5):
        ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=radius)
        _, value = solve_dro(known, ball, cfg, n_t=100, n_starts=2)
        values.append(value)
    assert values[1] < values[0]


def test_solve_dro_result_is_feasible_and_reproducible_inner_value():
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in THETAS])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.17)
    known = initial_red_state(THETAS[2])
    x, value = solve_dro(known, ball, cfg, n_t=200, n_starts=3)
    assert x.min() >= cfg.v_min - 1e-9 and x.max() <= cfg.v_max + 1e-9
    assert x.sum() == pytest.approx(cfg.profile_sum, rel=1e-9)
    again = inner_inf(ball, x, candidate_support(ball), known, cfg)
    assert value == again


def test_profile_lattice_design():
    # 13 levels on the first three speeds at the defaults; every point is a
    # feasible profile, and each neighbour is one level moved between two speeds.
    cfg = default_config()
    lattice, neighbors = _profile_lattice(cfg)
    assert lattice.shape == (1291, 4) and neighbors.shape == (1291, 12)
    assert lattice.min() >= cfg.v_min - 1e-12 and lattice.max() <= cfg.v_max + 1e-12
    assert np.allclose(lattice.sum(axis=1), cfg.profile_sum, rtol=0.0, atol=1e-12)
    step = (cfg.v_max - cfg.v_min) / 12
    i, k = np.nonzero(neighbors >= 0)
    moved = lattice[neighbors[i, k]] - lattice[i]
    assert np.all(np.sum(np.abs(moved) > 1e-9, axis=1) == 2)
    assert np.allclose(np.abs(moved).sum(axis=1), 2 * step, rtol=0.0, atol=1e-12)
    # Each point has a distinct neighbour per ordered pair of speeds.
    assert all(len(set(row[row >= 0])) == np.count_nonzero(row >= 0) for row in neighbors)


def test_segment_count_bounded_by_lattice_size():
    # L = 2 levels give 2^(n-1) lattice points; beyond 12 segments that
    # passes 13^3, so the config is rejected before any lattice is built.
    with pytest.raises(ValueError, match="n_segments"):
        ScenarioConfig(n_segments=13)
    lattice, neighbors = _profile_lattice(ScenarioConfig(n_segments=12))
    assert 0 < len(lattice) <= 13**3
    assert neighbors.shape == (len(lattice), 12 * 11)


def test_solve_dro_depends_only_on_the_merged_center():
    # Permuting or duplicating center atoms leaves the merged center, and so
    # the problem, unchanged: the answer is bit-identical.
    # Four atoms keep every weight a binary fraction, so the merged weights
    # agree to the bit.
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in (*THETAS, 3.0)])
    known = initial_red_state(THETAS[0])
    centers = [
        DiscreteDistribution.empirical(atoms),
        DiscreteDistribution.empirical(atoms[[2, 0, 3, 1]]),
        DiscreteDistribution.empirical(atoms[[1, 3, 0, 2, 2, 0, 3, 1]]),
    ]
    merged = [_merged_center(c) for c in centers]
    for points, weights in merged[1:]:
        assert points.tobytes() == merged[0][0].tobytes()
        assert weights.tobytes() == merged[0][1].tobytes()
    runs = [solve_dro(known, AmbiguityBall(c, 0.17), cfg, n_t=100, n_starts=2) for c in centers]
    for x, value in runs[1:]:
        assert x.tobytes() == runs[0][0].tobytes()
        assert value == runs[0][1]


def test_solve_dro_beats_the_lattice_and_reports_its_inner_value():
    cfg = default_config()
    atoms = np.array([initial_red_state(t) for t in THETAS[1:]])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.1)
    known = initial_red_state(THETAS[0])
    cand = candidate_support(ball)
    lattice, _ = _profile_lattice(cfg)
    best_lattice = max(_inner_evaluator(ball, cand, known, cfg, 100)(lattice))
    x, value = solve_dro(known, ball, cfg, n_t=100, n_starts=1)
    assert value >= best_lattice
    assert value == inner_inf(ball, x, cand, known, cfg, n_t=100)


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_segments": 1},
        {"n_segments": 2},
        {"n_segments": 3},
        {"v_max": 2.5 / TWO_PI},  # mean speed exactly v_max: one feasible profile
        {"v_min": 2.5 / TWO_PI},
    ],
)
def test_solve_dro_edge_designs_return_feasible_profiles(overrides):
    cfg = ScenarioConfig(**overrides)
    atoms = np.array([initial_red_state(THETAS[1])])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.1)
    known = initial_red_state(THETAS[0])
    x, value = solve_dro(known, ball, cfg, n_t=100, n_starts=2)
    assert x.shape == (cfg.n_segments,)
    assert x.min() >= cfg.v_min - 1e-9 and x.max() <= cfg.v_max + 1e-9
    assert x.sum() == pytest.approx(cfg.profile_sum, rel=1e-9)
    assert value == inner_inf(ball, x, candidate_support(ball), known, cfg, n_t=100)


@pytest.mark.parametrize("n_t, n_starts", [(200, 0), (200, -3), (1, 20), (0, 20)])
def test_solver_settings_rejected(n_t, n_starts):
    # No start, or a one-instant clearance grid, fails loudly.
    cfg = default_config()
    atoms = np.array([initial_red_state(THETAS[1])])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(atoms), radius=0.1)
    known = initial_red_state(THETAS[0])
    name = "n_t" if n_t < 2 else "n_starts"
    with pytest.raises(ValueError, match=name):
        solve_dro(known, ball, cfg, n_t=n_t, n_starts=n_starts)
    with pytest.raises(ValueError, match=name):
        run_experiment(cfg, 1, [1], n_t=n_t, n_starts=n_starts)
    if n_t < 2:
        x = np.full(cfg.n_segments, cfg.square_side / TWO_PI)
        with pytest.raises(ValueError, match=name):
            dro_objective(x, atoms[0], known, cfg, n_t=n_t)


def drive(search, f):
    """Run a Brent generator on f; return its result and the points it asked for."""
    points = [next(search)]
    while True:
        try:
            points.append(search.send(f(points[-1])))
        except StopIteration as stop:
            return stop.value, points


SCALAR_FUNCTIONS = {
    "smooth": lambda a, c, t: a * (t - c) ** 2 + math.sin(3.0 * t),
    "kinked": lambda a, c, t: a * abs(t - c) - 0.3 * t,
    "flat": lambda a, c, t: a,
    "ties": lambda a, c, t: float(math.floor(4.0 * a * (t - c) ** 2)),
}


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(SCALAR_FUNCTIONS)),
    a=st.floats(-3.0, 3.0),
    c=st.floats(-5.0, 5.0),
    lo=st.floats(-5.0, 5.0),
    width=st.one_of(st.floats(0.0, 1e-5), st.floats(1e-5, 10.0)),
    maxfun=st.sampled_from([500, 1, 2, 7]),
)
def test_bounded_brent_matches_scipy(kind, a, c, lo, width, maxfun):
    # The port visits scipy's points and returns its x, fun and nfev to the bit.
    def f(t):
        return SCALAR_FUNCTIONS[kind](a, c, t)

    seen = []
    ref = minimize_scalar(
        lambda t: seen.append(t) or f(t),
        bounds=(lo, lo + width),
        method="bounded",
        options={"xatol": 1e-6, "maxiter": maxfun},
    )
    with patch.object(uav, "_BRENT_MAXFUN", maxfun):
        (x, fun, nfev), points = drive(_bounded_brent(lo, lo + width), f)

    def bits(v):
        return np.float64(v).tobytes()

    assert [bits(t) for t in points] == [bits(t) for t in seen]
    assert (bits(x), bits(fun), nfev) == (bits(ref.x), bits(ref.fun), ref.nfev)


def wide_problem():
    """The 8-atom, 808-candidate ball of the wide benchmark, with its known watcher."""
    thetas = np.linspace(2.6 * math.pi / 4.0, 4.8 * math.pi / 4.0, 8)
    cfg = default_config(seed=7)
    states = np.array([reconstruct_red_state(*observe(float(t), cfg), cfg) for t in thetas])
    ball = AmbiguityBall(center=DiscreteDistribution.empirical(states), radius=0.05)
    return states[3], ball, cfg


def lattice_starts(evaluate_many, cfg, n_starts):
    """``solve_dro``'s starts: the lattice, its values and its best local maxima."""
    lattice, neighbors = _profile_lattice(cfg)
    values = np.array(evaluate_many(lattice))
    local_max = np.all(np.append(values, -np.inf)[neighbors] <= values[:, None], axis=1)
    maxima = np.flatnonzero(local_max)
    return lattice, values, maxima[np.argsort(-values[maxima], kind="stable")][:n_starts]


def sequential_ascent(x, val, cfg, evaluate_many, sent=None):
    """One start's pairwise ascent as a plain loop with scipy's bounded line search.

    Every probe grid and every Brent value is its own evaluator call, whose
    rows are appended to the list ``sent`` when one is given.  Returns the
    final profile, its value, and the evaluator calls and profiles taken.
    """
    load = [0, 0]

    def evaluate(xs):
        load[0] += 1
        load[1] += len(xs)
        if sent is not None:
            sent.append(xs)
        return evaluate_many(xs)

    n = cfg.n_segments
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for _sweep in range(30):
        improved = 0.0
        for k, l in pairs:
            lo = max(cfg.v_min - x[k], x[l] - cfg.v_max)
            hi = min(cfg.v_max - x[k], x[l] - cfg.v_min)
            if hi - lo <= 1e-12:
                continue

            def shifted(t):
                y = x.copy()
                y[k] += t
                y[l] -= t
                return y

            probes = np.linspace(lo, hi, 9)
            probe_vals = evaluate(np.stack([shifted(t) for t in probes]))
            j = int(np.argmax(probe_vals))
            span = probes[1] - probes[0]
            opt = minimize_scalar(
                lambda t: -evaluate(shifted(t)[None, :])[0],
                bounds=(max(lo, probes[j] - span), min(hi, probes[j] + span)),
                method="bounded",
                options={"xatol": 1e-6},
            )
            cand_t, cand_val = float(opt.x), -float(opt.fun)
            if probe_vals[j] > cand_val:
                cand_t, cand_val = float(probes[j]), float(probe_vals[j])
            if cand_val > val + 1e-15:
                improved += cand_val - val
                x = shifted(cand_t)
                val = cand_val
        if improved < uav._SWEEP_TOL:
            break
    return x, val, *load


def bumpy(xs):
    """A smooth objective on profiles with many local maxima, row by row.

    A Chebyshev polynomial T_5 per speed plus one cross term: only + and * on
    columns, so a row rounds the same in any batch.
    """
    cfg = default_config()
    u = 2.0 * (xs - cfg.v_min) / (cfg.v_max - cfg.v_min) - 1.0
    out = 0.1 * u[:, 0] * u[:, 2]
    for k in range(xs.shape[1]):
        y = u[:, k]
        y2 = y * y
        out = out + (16.0 * y2 * y2 * y - 20.0 * y2 * y + 5.0 * y) * (1.0 + 0.1 * k)
    return out.tolist()


@pytest.fixture(scope="module")
def wide_sequential():
    known, ball, cfg = wide_problem()
    evaluate_many = _inner_evaluator(ball, candidate_support(ball), known, cfg, 200)
    lattice, values, starts = lattice_starts(evaluate_many, cfg, 20)
    runs = [sequential_ascent(lattice[s].copy(), values[s], cfg, evaluate_many) for s in starts]
    return lattice, starts, runs


@pytest.mark.parametrize("n_starts", [1, 3, 20])
def test_lockstep_solve_equals_the_sequential_reference(wide_sequential, n_starts):
    # solve_dro returns the best of the first n_starts sequential ascents bit for bit.
    known, ball, cfg = wide_problem()
    lattice, starts, runs = wide_sequential
    assert len(starts) == 6  # the ball's local maxima: n_starts = 3 takes a strict prefix
    best_x, best_val = lattice[starts[0]], -math.inf
    for x, val, *_ in runs[:n_starts]:
        if val > best_val:
            best_x, best_val = x, val
    x, value = solve_dro(known, ball, cfg, n_starts=n_starts)
    assert x.tobytes() == best_x.tobytes() and value == best_val


def test_lockstep_ascents_each_equal_their_sequential_run():
    # On a smooth objective every ascent moves off the lattice, and the ascents stop
    # after different numbers of rounds; in lockstep each still ends where it ends alone,
    # and has every evaluator call take, in order, the rows its plain loop sends.
    cfg = default_config()
    lattice, values, starts = lattice_starts(bumpy, cfg, 20)
    sent = [[] for _ in starts]
    runs = [
        sequential_ascent(lattice[s].copy(), values[s], cfg, bumpy, rows)
        for s, rows in zip(starts, sent)
    ]
    assert len(starts) == 20
    assert all(np.any(x != lattice[s]) for s, (x, *_) in zip(starts, runs))
    assert len({calls for *_, calls, _ in runs}) > 1
    calls, yielded, taken = [], [], [[] for _ in starts]

    def counted(xs):
        # A round stacks its batches in the order they were yielded.
        calls.append(len(xs))
        hi = 0
        for i, m in yielded:
            lo, hi = hi, hi + m
            taken[i].append(xs[lo:hi])
        assert hi == len(xs)
        yielded.clear()
        return bumpy(xs)

    def logged(i, ascent):
        reply = None
        while True:
            try:
                batch = ascent.send(reply)
            except StopIteration as stop:
                return stop.value
            yielded.append((i, len(batch)))
            reply = yield batch

    ascents = [
        logged(i, uav._ascent(lattice[s].copy(), float(values[s]), cfg))
        for i, s in enumerate(starts)
    ]
    for (x, val), (ref_x, ref_val, *_) in zip(uav._lockstep(ascents, counted), runs):
        assert x.tobytes() == ref_x.tobytes() and val == ref_val
    for got, want in zip(taken, sent):
        assert [(xs.shape, xs.tobytes()) for xs in got] == [(xs.shape, xs.tobytes()) for xs in want]
    assert len(calls) == max(r[2] for r in runs)
    assert sum(calls) == sum(r[3] for r in runs)


def test_solve_dro_values_each_lockstep_round_in_one_call(wide_sequential, monkeypatch):
    # A count, not a timing: the lattice is one evaluator call and every lockstep
    # round one more, so the calls follow the longest ascent, not the sum over starts.
    known, ball, cfg = wide_problem()
    lattice, _, runs = wide_sequential
    calls = []
    make_evaluator = uav._inner_evaluator

    def counting_evaluator(*args):
        evaluate_many = make_evaluator(*args)

        def counted(xs):
            calls.append(len(xs))
            return evaluate_many(xs)

        return counted

    monkeypatch.setattr(uav, "_inner_evaluator", counting_evaluator)
    solve_dro(known, ball, cfg, n_starts=20)
    rounds = [r[2] for r in runs]
    assert len(calls) == 1 + max(rounds) < 1 + sum(rounds)
    assert calls[0] == len(lattice)
    assert sum(calls) == len(lattice) + sum(r[3] for r in runs)


# --- group 8: the experiment ---------------------------------------------------------


def test_single_checkpoint_modes_coincide():
    # With one sample the cumulative and static balls are the same object,
    # so both modes must report identical values.
    cfg = default_config(seed=4)
    rows = run_single_realization(cfg, 1, [1], n_t=100, n_starts=2)
    assert len(rows) == 2
    dyn, stat = rows
    assert dyn.mode == "dynamic" and stat.mode == "static"
    assert dyn.radius == stat.radius
    assert dyn.dro_value == stat.dro_value
    assert dyn.min_true_distance == stat.min_true_distance


def test_experiment_radii_echo_calibration():
    cfg = default_config(seed=4)
    rows = run_single_realization(cfg, 1, [1, 10], n_t=100, n_starts=2)
    by_key = {(r.checkpoint, r.mode): r for r in rows}
    assert by_key[(10, "dynamic")].radius == pytest.approx(0.17, abs=1e-12)
    assert by_key[(10, "static")].radius == pytest.approx(0.3023, abs=5e-4)
    assert by_key[(1, "dynamic")].radius == pytest.approx(0.3023, abs=5e-4)


def test_experiment_deterministic_rows():
    cfg = default_config(seed=12)
    a = run_experiment(cfg, 2, [1, 3], n_t=100, n_starts=2)
    b = run_experiment(cfg, 2, [1, 3], n_t=100, n_starts=2)
    assert a.rows == b.rows
    assert a.summary() == b.summary()


def test_experiment_summary_structure():
    cfg = default_config(seed=1)
    report = run_experiment(cfg, 2, [2], n_t=100, n_starts=2)
    assert len(report.rows) == 2 * 2
    summary = report.summary()
    entry = summary["checkpoints"]["2"]
    assert set(entry) == {"dynamic_mean", "static_mean", "dynamic_minus_static"}
    dyn = [r.dro_value for r in report.rows if r.mode == "dynamic"]
    assert entry["dynamic_mean"] == pytest.approx(sum(dyn) / len(dyn))


def test_experiment_validates_arguments():
    cfg = default_config()
    with pytest.raises(ValueError):
        run_experiment(cfg, 0, [1])
    with pytest.raises(ValueError):
        run_single_realization(cfg, 1, [0])
    with pytest.raises(ValueError, match="got none"):
        run_experiment(cfg, 1, [])


@pytest.mark.parametrize(
    "checkpoints, shown",
    [([1.7], "1.7"), ([True], "True"), ([2, 1.0], "1.0"), (["3"], "'3'"), ([0], "0")],
)
def test_experiment_rejects_checkpoints_that_are_not_counts(checkpoints, shown):
    # A float or a bool is not read as the int it rounds to.  The bad entry
    # is the last one, named by its index.
    cfg = default_config(1)
    name = f"checkpoints[{len(checkpoints) - 1}]"
    message = f"{name} must be an integer in [1, 1000000], got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(cfg, 1, checkpoints)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_single_realization(cfg, 1, checkpoints)


def test_experiment_report_lists_the_checkpoints_in_order():
    report = run_experiment(default_config(4), 1, [np.int64(3), 1], n_t=100, n_starts=2)
    assert report.checkpoints == (1, 3)
    assert all(type(c) is int for c in report.checkpoints)
    assert [r.checkpoint for r in report.rows] == [1, 1, 3, 3]


def test_experiment_pool_holds_at_most_one_worker_per_distinct_problem(monkeypatch):
    # A pool of `jobs` workers may start them all at its first task, so it is sized at
    # the distinct problem count, and one distinct problem is solved in process.  The
    # stand-in pool records its size and maps in this process.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *columns):
            return map(fn, *columns)

    monkeypatch.setattr(uav, "ProcessPoolExecutor", SerialPool)
    solves = []
    solve = uav.solve_dro

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(uav, "solve_dro", counted)
    cfg = default_config(seed=12)
    serial = run_experiment(cfg, 2, [1, 3], n_t=100, n_starts=2)
    assert sizes == [] and len(solves) > 2
    for jobs, size in ((64, len(solves)), (2, 2)):
        assert run_experiment(cfg, 2, [1, 3], n_t=100, n_starts=2, jobs=jobs).rows == serial.rows
        assert sizes.pop() == size
    # At checkpoint 1 both modes hold the one recovered state: one distinct problem.
    alone = run_experiment(cfg, 1, [1], n_t=100, n_starts=2)
    assert run_experiment(cfg, 1, [1], n_t=100, n_starts=2, jobs=64).rows == alone.rows
    assert sizes == []


def test_experiment_rows_independent_of_jobs_and_path():
    # Distinct problems are solved once, serially or in a pool; the rows equal
    # those of each realization run on its own.
    cfg = default_config(seed=12)
    serial = run_experiment(cfg, 2, [1, 3], n_t=100, n_starts=2)
    pooled = run_experiment(cfg, 2, [1, 3], n_t=100, n_starts=2, jobs=2)
    assert serial.rows == pooled.rows
    for k in (1, 2):
        alone = run_single_realization(cfg, k, [1, 3], n_t=100, n_starts=2)
        assert alone == [r for r in serial.rows if r.realization == k]
