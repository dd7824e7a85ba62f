"""Tests for sampled-output observability and state reconstruction.

Grouped as:
 1. fundamental matrices (exponential path, RK4 path, cocycle identity)
 2. sample observability matrix and trapezoid weights
 3. anchored Gramians against closed forms
 4. kernel derivative and the robust sampling bound
 5. margin invariant on concrete schedules
 6. eigen-structure extraction and the three schedule criteria
 7. reconstruction and its error bound
"""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from ambiflow.dynamics import _rk4, _steps

from ambiflow.observability import (
    EigenStructure,
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
from ambiflow.observability import _PHI_FLOOR_STEP, _PHI_RTOL, _backward_sweep, _max_norm

# Closed-form anchors for the double integrator observed in position.
# Gramian over a unit window, anchored at the right end, is
# [[1, -1/2], [-1/2, 1/3]] with smallest eigenvalue (4 - sqrt(13)) / 6.
GRAMIAN_EXACT = np.array([[1.0, -0.5], [-0.5, 1.0 / 3.0]])
LAM_MIN_EXACT = (4.0 - math.sqrt(13.0)) / 6.0  # 0.0657414540893351
MARGIN_THREE_SAMPLES = 0.09787617924646225  # normal matrix of times (0, .5, 1)
BOUND_ANCHOR = LAM_MIN_EXACT / math.sqrt(2.0)  # 0.04648622799163296
ERR_BOUND_ANCHOR = 0.05515632792514014  # sqrt(1 / (0.5 lam)) * 0.01


def double_integrator():
    return LinearTimeVaryingSystem.lti(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]])
    )


def harmonic_oscillator():
    return LinearTimeVaryingSystem.lti(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]])
    )


def wobbly_system():
    """Genuinely time-varying dynamics with an analytic output derivative."""
    return LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: np.array(
            [[0.0, 1.0], [-1.0 - 0.3 * math.sin(t), -0.2 * math.cos(t)]]
        ),
        c_fn=lambda t: np.array([[1.0, 0.1 * math.sin(2.0 * t)]]),
        c_dot_fn=lambda t: np.array([[0.0, 0.2 * math.cos(2.0 * t)]]),
    )


# --- group 1: fundamental matrices -------------------------------------------
# Phi is read off the sample observability matrix of a C = I system: its row
# block k is Phi(t_k, t_last).


def phi_rows(sys, times):
    """Phi(t_k, t_last) for every sample time, as (l, d, d), with C = I."""
    eye = np.eye(sys.dim)
    if sys.is_lti:
        seen = LinearTimeVaryingSystem.lti(sys.a_const, eye)
    else:
        seen = LinearTimeVaryingSystem.time_varying(sys.a_at, lambda t: eye)
    return sample_observability_matrix(seen, times).reshape(len(times), sys.dim, sys.dim)


def rk4_phi(sys, t, s, step):
    """Phi(t, s) by one scalar RK4 call, forward or backward: the oracle."""
    return _rk4(lambda tau, m: sys.a_at(tau) @ m, s, t, np.eye(sys.dim), step)


def test_fundamental_matrix_double_integrator():
    phi = phi_rows(double_integrator(), [0.0, 1.0])[0]
    assert np.allclose(phi, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


def test_fundamental_matrix_identity_at_equal_times():
    assert np.array_equal(phi_rows(wobbly_system(), [0.7])[0], np.eye(2))


def test_fundamental_matrix_cocycle():
    sys = wobbly_system()
    a = phi_rows(sys, [0.0, 2.0])[0]
    b = phi_rows(sys, [0.0, 1.3])[0] @ phi_rows(sys, [1.3, 2.0])[0]
    assert np.allclose(a, b, atol=1e-8), f"cocycle violated by {np.abs(a - b).max():.2e}"


def test_fundamental_matrix_inverse_pair():
    sys = wobbly_system()
    fwd = rk4_phi(sys, 1.7, 0.2, 1e-3)
    bwd = phi_rows(sys, [0.2, 1.7])[0]
    assert np.allclose(fwd @ bwd, np.eye(2), atol=1e-9)


def test_fundamental_matrix_rk4_matches_exponential():
    # Constant dynamics through the time-varying code path.
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: a, c_fn=lambda t: np.array([[1.0, 0.0]])
    )
    phi = phi_rows(sys, [0.0, 2.5])[0]
    assert np.allclose(phi, expm(-2.5 * a), atol=1e-10)


def test_rk4_builds_a_at_most_three_times_per_step():
    # RK4's two midpoint stages share one A(t + h/2), and halving a gap's
    # steps reuses every A of the coarser steps: a gap that ends at n steps
    # builds A once at each of its 2n + 1 stage times, n a power of two that
    # goes no further than the first one whose step is at most the floor.
    calls = []

    def a_fn(t):
        calls.append(t)
        return np.array([[0.0, 1.0], [-1.0 - 0.3 * math.sin(t), 0.0]])

    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=a_fn, c_fn=lambda t: np.array([[1.0, 0.0]])
    )
    calls.clear()
    sample_observability_matrix(sys, [0.0, 1.0])
    n_steps = (len(calls) - 1) // 2
    assert len(calls) == 2 * n_steps + 1 and len(set(calls)) == len(calls)
    assert n_steps > 1 and n_steps & (n_steps - 1) == 0
    assert 1.0 / n_steps > _PHI_FLOOR_STEP / 2.0


# --- group 2: observability matrix and weights ---------------------------------


def test_sample_observability_rows_anchor_at_last_time():
    o = sample_observability_matrix(double_integrator(), [0.0, 1.0])
    assert np.allclose(o, [[1.0, -1.0], [1.0, 0.0]], atol=1e-14)


def test_sample_observability_matrix_ltv_path_matches_exponential():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: a, c_fn=lambda t: np.array([[1.0, 0.0]])
    )
    times = [0.0, 0.4, 1.1, 2.0]
    o = sample_observability_matrix(sys, times)
    want = np.vstack([np.array([[1.0, 0.0]]) @ expm(a * (t - 2.0)) for t in times])
    assert np.allclose(o, want, atol=1e-9)


def test_weight_matrix_two_samples():
    w = weight_matrix([0.0, 1.0])
    assert np.allclose(w, math.sqrt(0.5) * np.eye(2), atol=1e-15)


def test_weight_matrix_squares_sum_to_span():
    times = [0.0, 0.2, 0.7, 0.9, 1.6]
    w = weight_matrix(times, n_outputs=3)
    assert w.shape == (15, 15)
    assert np.trace(w @ w) == pytest.approx(3 * (times[-1] - times[0]), rel=1e-12)


def test_weight_matrix_rejects_bad_times():
    with pytest.raises(ValueError):
        weight_matrix([0.0])
    with pytest.raises(ValueError):
        weight_matrix([0.0, 0.5, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_sample_times_must_be_finite(where, bad):
    # A NaN or infinite time is a ValueError that names it, not NaN or inf
    # weights or an overflow, and it is raised before any flow.
    times = [0.0, 0.5, 1.0]
    times[where] = bad
    message = f"sample times must be finite, got {bad}"
    with pytest.raises(ValueError, match=message):
        weight_matrix(times)
    for sys in (harmonic_oscillator(), wobbly_system()):
        with pytest.raises(ValueError, match=message):
            sample_observability_matrix(sys, times)


def test_normal_matrix_is_weighted_kernel_sum():
    # O^T W^2 O must equal sum_l w_l^2 K(t_l, t_last) exactly, where
    # K(s, t) = Phi(s, t)^T C^T C Phi(s, t).
    sys = harmonic_oscillator()
    times = [0.0, 0.3, 0.9, 1.2]
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    normal = o.T @ w @ w @ o
    gaps = np.diff(times)
    sq = [gaps[0] / 2, (gaps[0] + gaps[1]) / 2, (gaps[1] + gaps[2]) / 2, gaps[2] / 2]
    total = np.zeros((2, 2))
    for wl2, t in zip(sq, times):
        phi = expm(sys.a_const * (t - times[-1]))
        row = sys.c_const @ phi
        total += wl2 * (row.T @ row)
    assert np.allclose(normal, total, atol=1e-13)


def test_eigenvalue_margin_anchor():
    o = sample_observability_matrix(double_integrator(), [0.0, 0.5, 1.0])
    w = weight_matrix([0.0, 0.5, 1.0])
    assert eigenvalue_margin(o, w) == pytest.approx(MARGIN_THREE_SAMPLES, rel=1e-12)


@pytest.mark.parametrize(
    "a",
    [
        np.array([[0.0, 1.0], [0.0, 0.0]]),   # triangular
        np.diag([-0.5, 0.3, 1.2]),            # diagonal
        np.array([[0.7]]),                    # scalar
        np.random.default_rng(3).normal(size=(3, 3)),
        np.random.default_rng(4).normal(size=(4, 4)),
    ],
)
def test_stationary_rows_equal_one_exponential_per_time(a):
    # The stacked expm gives each time exactly what its own call gives.
    c = np.random.default_rng(5).normal(size=(2, len(a)))
    times = [0.0, 0.13, 0.5, 0.5004, 1.4, 3.0]
    got = sample_observability_matrix(LinearTimeVaryingSystem.lti(a, c), times)
    want = np.vstack([c @ expm(a * (t - times[-1])) for t in times])
    assert np.array_equal(got, want)


def sequential_observability_matrix(sys, times, step):
    """The time-varying rows from one matrix stepped down from the anchor
    through every gap in turn, one scalar RK4 call per gap at a fixed step:
    the reference for the step-doubled gaps."""
    ts = [float(t) for t in times]
    anchor = ts[-1]
    a_at = functools.cache(sys.a_at)

    def field(tau, m):
        return a_at(tau) @ m

    m = np.eye(sys.dim)
    blocks = [sys.c_at(anchor) @ m]
    for tau, t in zip(ts[:0:-1], ts[-2::-1]):
        m = _rk4(field, tau, t, m, step)
        blocks.append(sys.c_at(t) @ m)
    blocks.reverse()
    return np.vstack(blocks)


def random_ltv(seed, d, record=None):
    """x' = (A0 + sin(w t) A1) x seen through a pulsing C of 1..d-1 rows."""
    rng = np.random.default_rng(seed)
    a0, a1 = rng.normal(size=(2, d, d))
    c0 = rng.normal(size=(int(rng.integers(1, d)), d))
    w = rng.uniform(0.5, 3.0)

    def a_fn(t):
        if record is not None:
            record.append(t)
        return a0 + math.sin(w * t) * a1

    return LinearTimeVaryingSystem.time_varying(
        a_fn=a_fn, c_fn=lambda t: c0 * (1.0 + 0.3 * math.cos(t))
    )


# Each gap's local RK4 error is held to _PHI_RTOL times max(1, max|Phi|), so
# O's error relative to its largest entry stays below (gaps x _PHI_RTOL x
# PHI_FACTOR).  The measured worst ratio to gaps x _PHI_RTOL was 0.80 over
# 200 random draws of ``random_ltv`` and 0.74 over 300 of the commuting
# oracle below, so PHI_FACTOR leaves more than 10x room for the estimate.
PHI_FACTOR = 10.0


def within_phi_tolerance(got, want, n_gaps):
    assert got.shape == want.shape
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= n_gaps * _PHI_RTOL * PHI_FACTOR, f"relative error {err:.3g} over {n_gaps} gaps"


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    start=st.floats(0.0, 2.0),
    gaps=st.lists(st.floats(1e-4, 0.1), min_size=1, max_size=30),
)
def test_batched_gaps_match_sequential_sweep(seed, d, start, gaps):
    # Stepping each gap from the identity only as finely as its error
    # estimate needs, and chaining, against one matrix stepped through every
    # gap at a step of 2.5e-4, four times finer than the floor.
    sys = random_ltv(seed, d)
    times = (start + np.cumsum([0.0, *gaps])).tolist()
    got = sample_observability_matrix(sys, times)
    within_phi_tolerance(got, sequential_observability_matrix(sys, times, 2.5e-4), len(gaps))


def test_forty_gap_schedule_builds_a_at_most_200_times():
    # 41 equidistant samples 5e-3 apart build A at 81 nodes and midpoints,
    # up to 20 pair midpoints, and two more times per step a refined gap
    # adds.  On the fixed 1e-3 grid the same schedule built A 401 times.
    built = []
    sys = random_ltv(11, 3, record=built)
    built.clear()
    sample_observability_matrix(sys, (0.3 + 5e-3 * np.arange(41)).tolist())
    assert 81 <= len(built) <= 200


def test_refining_stops_at_the_floor_step(monkeypatch):
    # With no error allowed every gap halves its steps until the first step
    # at most 1e-3 and no further: 1,024 steps over [0, 1] at 2,049 stage
    # times, one step over a gap already under the floor, so no result is
    # coarser than the fixed 1e-3 grid and the loop ends.
    monkeypatch.setattr("ambiflow.observability._PHI_RTOL", 0.0)
    built = []
    sys = random_ltv(3, 2, record=built)
    built.clear()
    sample_observability_matrix(sys, [0.0, 1.0])
    assert len(built) == 2 * 1024 + 1
    built.clear()
    sample_observability_matrix(sys, [0.0, 8e-4])
    assert len(built) == 3


def commuting_ltv(a0, c):
    """x' = a(t) A0 x with a(t) = 1 + 0.5 sin t, seen through a constant C.
    A(t) commutes with A(s), so Phi(t, s) = expm(A0 (integral_s^t a))."""
    return LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: (1.0 + 0.5 * math.sin(t)) * a0, c_fn=lambda t: c
    )


def commuting_observability_matrix(a0, c, times):
    """The exact O of ``commuting_ltv``: rows C Phi(t_k, t_last)."""
    last = times[-1]
    return np.vstack(
        [c @ expm(a0 * (t - last - 0.5 * (math.cos(t) - math.cos(last)))) for t in times]
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 3),
    start=st.floats(0.0, 3.0),
    gaps=st.lists(st.floats(1e-3, 0.2), min_size=1, max_size=40),
)
@example(seed=1, d=2, start=0.0, gaps=[0.05, 5e-5, 0.05, 5e-5])
def test_gap_steps_meet_the_tolerance_on_a_commuting_oracle(seed, d, start, gaps):
    # One RK4 step per gap, taken without the error estimate, misses this
    # by orders of magnitude.  In the example each pair joins a 0.05 gap to
    # one 1000x shorter, so its coarse and fine steps nearly agree: taking
    # 1/15 of their difference, right only for equal gaps, let the long
    # gaps pass at one step, 77x over the tolerance.
    rng = np.random.default_rng(seed)
    a0, c = rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, (1, d))
    times = (start + np.cumsum([0.0, *gaps])).tolist()
    got = sample_observability_matrix(commuting_ltv(a0, c), times)
    within_phi_tolerance(got, commuting_observability_matrix(a0, c, times), len(gaps))


# --- group 3: Gramians ------------------------------------------------------------


def test_gramian_double_integrator_closed_form():
    g = observability_gramian(double_integrator(), 0.0, 1.0, quad_step=1e-3)
    assert np.allclose(g, GRAMIAN_EXACT, atol=1e-7)
    assert np.linalg.eigvalsh(g)[0] == pytest.approx(LAM_MIN_EXACT, rel=1e-5)


def test_gramian_ltv_path_matches_dense_quadrature():
    sys = builtin_system("rotating_sensor", omega=2.0)
    g = observability_gramian(sys, 0.3, 1.1, quad_step=2e-3)
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    anchor = 0.3 + 1.1
    ss = np.linspace(0.3, anchor, 4001)
    vals = []
    for s in ss:
        c = np.array([[math.cos(2.0 * s), math.sin(2.0 * s)]])
        row = c @ expm(a * (s - anchor))
        vals.append(row.T @ row)
    dense = np.trapezoid(np.array(vals), ss, axis=0)
    assert np.allclose(g, dense, atol=1e-6)


def test_gramian_floor_lti_single_window():
    floor = gramian_floor(double_integrator(), 1.0, 5.0, grid_step=1e-3)
    assert floor == pytest.approx(LAM_MIN_EXACT, rel=1e-5)


def test_gramian_floor_ltv_takes_worst_window():
    # The second channel only sees well near t = 1.5, so the floor must come
    # from a window near the edges, far below the well-lit window's value.
    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: np.zeros((2, 2)),
        c_fn=lambda t: np.array([[1.0, 0.0], [0.0, math.exp(-8.0 * (t - 1.5) ** 2)]]),
    )
    floor = gramian_floor(sys, 0.5, 3.0, grid_step=0.02)
    worst = np.linalg.eigvalsh(observability_gramian(sys, 0.0, 0.5, quad_step=0.02))[0]
    best = np.linalg.eigvalsh(observability_gramian(sys, 1.25, 0.5, quad_step=0.02))[0]
    assert floor <= worst + 1e-9
    assert floor < 0.5 * best


def test_gramian_rejects_bad_window():
    with pytest.raises(ValueError):
        observability_gramian(double_integrator(), 0.0, -1.0)
    with pytest.raises(ValueError):
        gramian_floor(double_integrator(), 2.0, 1.0)


@pytest.mark.parametrize("quad_step", [0.0, -0.05, math.inf, math.nan])
def test_gramian_quad_step_must_be_positive_and_finite(quad_step):
    # An infinite step would give a 2-cell Gramian; NaN failed converting to a cell count.
    rule = "positive" if math.isfinite(quad_step) else "finite"
    with pytest.raises(ValueError, match=f"quad_step must be {rule}, got {quad_step}"):
        observability_gramian(double_integrator(), 0.0, 1.0, quad_step=quad_step)


@pytest.mark.parametrize("varsigma", [0.0, -1.0, math.inf, math.nan])
def test_gramian_window_must_be_positive_and_finite(varsigma):
    rule = "positive" if math.isfinite(varsigma) else "finite"
    with pytest.raises(ValueError, match=f"varsigma must be {rule}, got {varsigma}"):
        observability_gramian(double_integrator(), 0.0, varsigma)


def test_unknown_schedule_criterion_named():
    with pytest.raises(ValueError, match=r"unknown criterion 'bogus'; pick one of \['count'"):
        check_schedule_observability(harmonic_oscillator(), [[0.0, 0.5, 1.0]], "bogus")


# --- group 4: kernel derivative and sampling bound ----------------------------------


def test_kernel_derivative_matches_finite_difference():
    sys = wobbly_system()
    t = 1.4
    h = 1e-5

    def kernel(s):
        phi = rk4_phi(sys, s, t, 1e-4)
        row = sys.c_at(s) @ phi
        return row.T @ row

    worst_fd = 0.0
    for s in np.linspace(0.5, t, 7):
        fd = (kernel(s + h) - kernel(s - h)) / (2.0 * h)
        worst_fd = max(worst_fd, np.linalg.norm(fd, 2))
    got = max_kernel_derivative(sys, t, 0.5, grid_step=(t - 0.5) / 6.0)
    assert got == pytest.approx(worst_fd, rel=1e-4)


def test_robust_sampling_bound_lti_anchor():
    bound = robust_sampling_bound(
        double_integrator(), 1.0, 1.0, 1.0, retention=0.5, grid_step=1e-3
    )
    assert bound == pytest.approx(BOUND_ANCHOR, rel=1e-5)


def test_robust_sampling_bound_tightens_with_retention():
    sys = double_integrator()
    loose = robust_sampling_bound(sys, 1.0, 1.0, 1.0, retention=0.25, grid_step=5e-3)
    tight = robust_sampling_bound(sys, 1.0, 1.0, 1.0, retention=0.75, grid_step=5e-3)
    assert tight < loose
    assert tight == pytest.approx(loose / 3.0, rel=1e-9)


def test_robust_sampling_bound_unobservable_pair_raises():
    sys = LinearTimeVaryingSystem.lti(
        np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 0.0]])
    )
    with pytest.raises(ArithmeticError):
        robust_sampling_bound(sys, 0.5, 0.5, 1.0, retention=0.5, grid_step=0.01)


def test_robust_sampling_bound_validates_windows():
    with pytest.raises(ValueError):
        robust_sampling_bound(double_integrator(), 1.0, 0.5, 2.0, retention=0.5)
    with pytest.raises(ValueError):
        robust_sampling_bound(double_integrator(), 0.5, 1.0, 2.0, retention=1.5)


def per_node_expm_bound(sys, window_low, window_up, horizon, retention, grid_step):
    """Reference LTI bound: one matrix exponential at every grid node."""
    floor = gramian_floor(sys, window_low, horizon, grid_step)
    n_pts = max(2, math.ceil(window_up / grid_step) + 1)
    ctc = sys.c_const.T @ sys.c_const
    worst = 0.0
    for u in np.linspace(-window_up, 0.0, n_pts):
        e = expm(sys.a_const * u)
        worst = max(worst, float(np.linalg.norm(e.T @ ctc @ e @ sys.a_const, 2)))
    return 2.0 * (1.0 - retention) * floor / (window_up * worst)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("grid_step", [0.01, 3e-3])
def test_robust_sampling_bound_lti_stepping_matches_per_node_expm(d, grid_step):
    rng = np.random.default_rng(17 + d)
    for _ in range(4):
        sys = LinearTimeVaryingSystem.lti(
            rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, (1, d))
        )
        args = (sys, 0.5, 0.75, 1.5, 0.5, grid_step)
        assert robust_sampling_bound(*args) == pytest.approx(
            per_node_expm_bound(*args), rel=1e-12
        )


@pytest.mark.parametrize("grid_step", [1e-2, 1e-3])
def test_robust_sampling_bound_lti_takes_two_exponentials(monkeypatch, grid_step):
    # One for the Gramian floor, one for the kernel scan, whatever the grid.
    calls = []

    def counted(m):
        calls.append(m)
        return expm(m)

    monkeypatch.setattr("ambiflow.observability.expm", counted)
    bound = robust_sampling_bound(
        double_integrator(), 1.0, 1.0, 1.0, retention=0.5, grid_step=grid_step
    )
    assert bound == pytest.approx(BOUND_ANCHOR, rel=1e-3)
    assert len(calls) == 2


@pytest.mark.parametrize("make", [harmonic_oscillator, wobbly_system], ids=["lti", "ltv"])
def test_floor_after_bound_is_a_cache_lookup(monkeypatch, make):
    # The caller's pattern: the gap bound, then the floor it keeps a fraction of.
    sys, fresh = make(), make()
    text, twin = repr(sys), replace(sys)
    calls = []
    gramian = observability_gramian

    def counted(*args, **kwargs):
        calls.append(args)
        return gramian(*args, **kwargs)

    monkeypatch.setattr("ambiflow.observability.observability_gramian", counted)
    robust_sampling_bound(sys, 0.5, 0.75, 1.5, 0.5, grid_step=0.05)
    assert len(calls) == 1
    floor = gramian_floor(sys, 0.5, 1.5, grid_step=0.05)
    assert len(calls) == 1
    assert floor == gramian_floor(fresh, 0.5, 1.5, grid_step=0.05)
    # A new step misses the cache; a replaced system starts with none.
    gramian_floor(sys, 0.5, 1.5, grid_step=0.04)
    assert len(calls) == 3
    assert replace(sys)._floors == {}
    gramian_floor(replace(sys), 0.5, 1.5, grid_step=0.05)
    assert len(calls) == 4
    # The cache is no part of the system's value or text.
    assert sys == twin and repr(sys) == text and "_floors" not in text
    if sys.is_lti:  # nor can its constants change under it
        with pytest.raises(ValueError, match="read-only"):
            sys.a_const[0, 0] = 1.0


@pytest.mark.parametrize("make", [harmonic_oscillator, wobbly_system], ids=["lti", "ltv"])
def test_system_keeps_only_the_floors_asked_for(make):
    # Sweeps at many distinct steps leave nothing on the system, however
    # often they run: it keeps one float per floor, by its arguments.
    sys = make()
    anchors = np.linspace(0.3, 1.2, 40)  # 40 spans, so 40 distinct sweep steps
    for _ in range(2):
        max_kernel_derivative(sys, anchors, np.zeros_like(anchors), 0.01)
        observability_gramian(sys, anchors, 0.5, quad_step=0.01)
        sample_observability_matrix(sys, anchors)
    assert sys._floors == {}
    for window in (0.3, 0.4):
        robust_sampling_bound(sys, window, 0.5, 1.2, 0.5, grid_step=0.05)
        gramian_floor(sys, window, 1.2, grid_step=0.05)
    assert list(sys._floors) == [(0.3, 1.2, 0.05), (0.4, 1.2, 0.05)]
    assert all(type(floor) is float for floor in sys._floors.values())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    d=st.integers(1, 4),
    kind=st.sampled_from(["random", "rank-one", "near-ties"]),
)
def test_screened_max_norm_equals_full_svd(seed, n, d, kind):
    # Only the terms that can hold the maximum take an SVD, and the result
    # is the full stacked SVD's to the bit.  Rank-one terms, as stationary
    # kernels are, tie in spectral and Frobenius norm up to rounding.
    rng = np.random.default_rng(seed)
    if kind == "random":
        terms = rng.normal(size=(n, d, d))
    else:
        u, v = rng.normal(size=(n, d, 1)), rng.normal(size=(n, 1, d))
        terms = u @ v
        if kind == "near-ties":
            terms = terms[:1] * (1.0 + 1e-15 * rng.integers(-4, 5, n))[:, None, None]
    assert _max_norm(terms) == float(np.linalg.norm(terms, 2, axis=(-2, -1)).max())


# The per-window and per-anchor loops that the batched sweep replaced, kept as
# its reference: each window or anchor sweeps alone, each node is one product
# with expm(-A h) or one scalar ``_rk4`` call from the last node's Phi, and each
# Gramian or kernel term is one product of 2-D matrices.  Stationary results
# must equal them bit for bit.  The time-varying sweep steps every cell from
# the identity in one RK4 call and chains the cells; RK4 is linear in its
# starting matrix, so that changes only rounding, and time-varying results
# must agree within LTV_RTOL of the reference's largest entry.

LTV_RTOL = 1e-12


def matches(got, want, exact):
    """``got`` against the reference ``want``: bit for bit when ``exact``,
    else within LTV_RTOL of want's largest entry.  Errors, as ``outcome``
    gives them, and infinite values must be the same either way."""
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    if exact or not np.isfinite(want).all():
        return got.tobytes() == want.tobytes()
    return bool(np.abs(got - want).max() <= LTV_RTOL * np.abs(want).max())


def scalar_sweep(sys, t, h, n, a_at=None):
    """(tau, Phi(tau, t)) at tau = t - k h for k = 0..n, one anchor alone,
    with A from ``a_at`` (default ``sys.a_at``)."""
    a_at = sys.a_at if a_at is None else a_at
    m = np.eye(sys.dim)
    yield t, m
    if sys.is_lti:
        back = expm(-sys.a_const * h)
    for k in range(1, n + 1):
        tau = t - k * h
        if sys.is_lti:
            m = m @ back
        else:
            m = _rk4(lambda s, x: a_at(s) @ x, t - (k - 1) * h, tau, m, h)
        yield tau, m


def scalar_gramian(sys, t, varsigma, quad_step):
    n_cells = max(2, math.ceil(varsigma / quad_step))
    h = varsigma / n_cells
    gram = np.zeros((sys.dim, sys.dim))
    for k, (tau, m) in enumerate(scalar_sweep(sys, t + varsigma, h, n_cells)):
        cm = sys.c_at(tau) @ m
        gram += (0.5 if k in (0, n_cells) else 1.0) * (cm.T @ cm)
    gram *= h
    if not np.isfinite(gram).all():
        raise OverflowError(f"Gramian over [{t:.6g}, {t + varsigma:.6g}] is not finite")
    return 0.5 * (gram + gram.T)


def scalar_floor(sys, window, horizon, grid_step):
    """Window by window in start order, so the first overflow raises."""
    if sys.is_lti:
        starts = [0.0]
    else:
        span = horizon - window
        starts = np.linspace(0.0, span, max(1, math.ceil(span / grid_step) + 1))
    return min(
        float(np.linalg.eigvalsh(scalar_gramian(sys, float(t0), window, grid_step))[0])
        for t0 in starts
    )


def scalar_max_norm(terms):
    """Running max of per-node spectral norms."""
    worst = 0.0
    for term in terms:
        if not np.isfinite(term).all():
            raise OverflowError("kernel derivative is not finite: the flow diverges on the window")
        worst = max(worst, float(np.linalg.norm(term, 2)))
    return worst


def scalar_kernel_scan(sys, t, s_low, grid_step):
    span = t - s_low
    n_cells = max(1, math.ceil(span / grid_step)) if span > 0.0 else 0
    h = span / n_cells if n_cells else 0.0
    terms = []
    for tau, m in scalar_sweep(sys, t, h, n_cells):
        a, c, cd = sys.a_at(tau), sys.c_at(tau), sys.c_dot_at(tau)
        ctc = c.T @ c
        terms.append(m.T @ (a.T @ ctc + cd.T @ c + c.T @ cd + ctc @ a) @ m)
    return scalar_max_norm(terms)


def scalar_sampling_bound(sys, window_low, window_up, horizon, retention, grid_step):
    floor = scalar_floor(sys, window_low, horizon, grid_step)
    if floor <= 0.0:
        raise ArithmeticError(
            f"Gramian floor is not positive ({floor:.3e}); the pair is not "
            "observable on some window"
        )
    if sys.is_lti:
        factor = 2.0
        n_cells = max(1, math.ceil(window_up / grid_step))
        terms = []
        for _, m in scalar_sweep(sys, 0.0, window_up / n_cells, n_cells):
            cm = sys.c_const @ m
            terms.append(cm.T @ cm @ sys.a_const)
        worst = scalar_max_norm(terms)
    else:
        factor = 4.0
        n_anchor = max(2, math.ceil((horizon - window_low) / grid_step) + 1)
        worst = max(
            scalar_kernel_scan(sys, float(t), max(0.0, float(t) - window_up), grid_step)
            for t in np.linspace(window_low, horizon, n_anchor)
        )
    if worst == 0.0:
        return math.inf
    return factor * (1.0 - retention) * floor / (window_up * worst)


def outcome(fn, *args):
    """fn's value, or the type and message of the ArithmeticError it raises."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("kind", ["lti2", "lti3", "ltv"])
def test_stacked_kernel_norms_match_per_node_loop(kind):
    # One stacked SVD per sweep gives each node's norm bit for bit
    # (within LTV_RTOL for the time-varying sweep).
    rng = np.random.default_rng(29)
    if kind == "ltv":
        systems = [wobbly_system()]
    else:
        d = int(kind[-1])
        systems = [
            LinearTimeVaryingSystem.lti(
                rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, (1, d))
            )
            for _ in range(3)
        ]
    for sys in systems:
        for t, s_low, grid in ((1.3, 0.4, 0.05), (0.75, 0.0, 0.01), (0.5, 0.5, 0.1)):
            got = max_kernel_derivative(sys, t, s_low, grid)
            assert matches(got, scalar_kernel_scan(sys, t, s_low, grid), sys.is_lti)
        args = (sys, 0.5, 0.75, 1.5, 0.5, 0.05 if kind == "ltv" else 0.01)
        assert matches(robust_sampling_bound(*args), scalar_sampling_bound(*args), sys.is_lti)


def oracle_systems(kind):
    rng = np.random.default_rng(31)
    if kind in ("lti2", "lti3"):
        d = int(kind[-1])
        return [
            LinearTimeVaryingSystem.lti(
                rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, (1, d))
            )
            for _ in range(3)
        ]
    if kind == "ltv":
        rotating = builtin_system("rotating_sensor", omega=2.0)
        return [wobbly_system(), rotating]
    # Two outputs, C' by central differences, and a third state.
    return [
        LinearTimeVaryingSystem.time_varying(
            a_fn=lambda t: np.array(
                [
                    [0.0, 1.0, 0.0],
                    [-1.0, -0.1 * math.sin(t), 0.3],
                    [0.0, 0.0, -0.2 * math.cos(2 * t)],
                ]
            ),
            c_fn=lambda t: np.array([[1.0, 0.0, 0.2 * math.sin(t)], [0.0, math.cos(t), 1.0]]),
        )
    ]


@pytest.mark.parametrize("kind", ["lti2", "lti3", "ltv", "ltv3-fd"])
def test_batched_sweep_matches_scalar_reference(kind):
    # All windows and anchors of a sweep step together, and every value
    # equals the one-window, one-anchor loop (bit for bit when stationary),
    # with grids that do not divide the spans and anchors below window_up.
    for sys in oracle_systems(kind):
        for window, horizon, grid in ((0.5, 1.5, 0.05), (0.3, 1.2, 0.07), (0.45, 0.45, 0.02)):
            got = gramian_floor(sys, window, horizon, grid)
            assert matches(got, scalar_floor(sys, window, horizon, grid), sys.is_lti)
        for t, varsigma, quad in ((0.2, 0.6, 0.03), (0.0, 1.0, None), (1.1, 0.35, 0.1)):
            got = observability_gramian(sys, t, varsigma, quad_step=quad)
            want = scalar_gramian(sys, t, varsigma, varsigma / 200.0 if quad is None else quad)
            assert matches(got, want, sys.is_lti)
        # An array of window starts gives the stack of the one-window Gramians.
        starts = np.array([0.2, 0.0, 1.1, 0.2])
        stack = observability_gramian(sys, starts, 0.6, quad_step=0.03)
        assert stack.shape == (4, sys.dim, sys.dim)
        assert np.array_equal(
            stack, [observability_gramian(sys, t, 0.6, quad_step=0.03) for t in starts]
        )
        for t, s_low, grid in ((1.3, 0.4, 0.05), (1.0, 0.13, 0.07), (0.5, 0.5, 0.1)):
            got = max_kernel_derivative(sys, t, s_low, grid)
            assert matches(got, scalar_kernel_scan(sys, t, s_low, grid), sys.is_lti)
        # Arrays of anchors give the largest of the per-anchor maxima.
        anchors, lows = np.array([1.3, 1.0, 0.5, 0.9]), np.array([0.4, 0.13, 0.5, 0.0])
        assert max_kernel_derivative(sys, anchors, lows, 0.07) == max(
            max_kernel_derivative(sys, t, s_low, 0.07) for t, s_low in zip(anchors, lows)
        )
        assert max_kernel_derivative(sys, anchors, 0.0, 0.07) == max(
            max_kernel_derivative(sys, t, 0.0, 0.07) for t in anchors
        )
        for args in ((0.5, 0.75, 1.5, 0.5, 0.05), (0.4, 0.9, 1.3, 0.3, 0.06)):
            got = outcome(robust_sampling_bound, sys, *args)
            assert matches(got, outcome(scalar_sampling_bound, sys, *args), sys.is_lti)


@settings(max_examples=60, deadline=None)
@given(
    window_low=st.floats(0.1, 0.8),
    extra=st.floats(0.0, 0.5),
    tail=st.floats(0.0, 0.6),
    grid_step=st.floats(0.05, 0.3),
)
def test_batched_sweep_matches_scalar_reference_on_any_grid(window_low, extra, tail, grid_step):
    sys = wobbly_system()
    window_up = window_low + extra
    horizon = window_up + tail
    got = gramian_floor(sys, window_low, horizon, grid_step)
    assert matches(got, scalar_floor(sys, window_low, horizon, grid_step), exact=False)
    args = (sys, window_low, window_up, horizon, 0.5, grid_step)
    got = outcome(robust_sampling_bound, *args)
    assert matches(got, outcome(scalar_sampling_bound, *args), exact=False)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 4),
    anchors=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5),
    spans=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    grid_step=st.floats(0.02, 0.3),
)
# A cell a rounding wide, 4.4e-16 after rounding, which the loop's RK4 call
# does not step either.
@example(
    seed=0, d=2, anchors=[0.0, 0.0, 0.0, 1.0], spans=[0.0, 0.0, 0.0, 4.703787549346207e-16, 0.0],
    grid_step=0.25,
)
def test_sweep_stacks_match_per_node_reference(seed, d, anchors, spans, grid_step):
    # Anchors and lower ends as ``max_kernel_derivative`` sweeps them: the
    # stacks give every column the per-node loop's taus and, within
    # LTV_RTOL, its Phi.  A is built once per distinct time, at both ends of
    # every cell RK4 steps (``_steps``: a cell a rounding wide is the
    # identity), and no more often than the loop builds it: a cell's one RK4
    # step ends on the next node itself, where the loop's step may land a
    # rounding off it.
    built = []
    sys = random_ltv(seed, d, record=built)
    t = np.array(anchors)
    span = np.array(spans[: len(t)])
    n = np.where(span > 0.0, np.maximum(1.0, np.ceil(span / grid_step)), 0.0).astype(int)
    h = span / np.maximum(n, 1)
    built.clear()
    taus, phis, live = _backward_sweep(sys, t, h, n, functools.cache(sys.a_at))
    swept = sorted(built)
    assert taus.shape == live.shape == (n.max() + 1, len(t))
    assert phis.shape == (*taus.shape, d, d)
    built.clear()
    a_at = functools.cache(sys.a_at)
    for i in range(len(t)):
        want_taus, want_phis = zip(*scalar_sweep(sys, t[i], h[i], n[i], a_at))
        assert np.array_equal(live[:, i], np.arange(len(taus)) <= n[i])
        assert np.array_equal(taus[live[:, i], i], want_taus)
        assert matches(phis[live[:, i], i], np.array(want_phis), exact=False)
    assert len(swept) == len(set(swept)) <= len(built)
    cells = live[1:] & _steps(taus[1:] - taus[:-1], taus[1:])
    assert set(taus[:-1][cells].tolist()) | set(taus[1:][cells].tolist()) <= set(swept)


@pytest.mark.parametrize("with_c_dot", [True, False])
def test_sweep_builds_each_matrix_once_per_tau(with_c_dot):
    calls = {"A": [], "C": [], "C'": []}

    def recorded(name, fn):
        def inner(t):
            calls[name].append(t)
            return fn(t)

        return inner

    base = wobbly_system()
    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=recorded("A", base.a_fn),
        c_fn=recorded("C", base.c_fn),
        c_dot_fn=recorded("C'", base.c_dot_fn) if with_c_dot else None,
    )
    runs = {
        "floor": lambda: gramian_floor(sys, 0.5, 1.5, 0.05),
        "gramian": lambda: observability_gramian(sys, 0.3, 0.5, 0.05),
        "scan": lambda: max_kernel_derivative(sys, 1.3, 0.4, 0.05),
    }
    for name, run in runs.items():
        for record in calls.values():
            record.clear()
        run()
        built = ("A", "C", "C'") if name == "scan" and with_c_dot else ("A", "C")
        for key in built:
            assert calls[key], (name, key)
            assert len(calls[key]) == len(set(calls[key])), (name, key)
        if name != "scan":
            assert not calls["C'"]


@pytest.mark.parametrize("grid_step", [0.0, -0.05, math.inf, math.nan])
@pytest.mark.parametrize("lti", [True, False])
def test_grid_step_must_be_positive_and_finite(lti, grid_step):
    # A negative or infinite step would scan a single cell and return an
    # uncertified bound; zero and NaN would fail with unrelated errors.
    sys = harmonic_oscillator() if lti else wobbly_system()
    rule = "positive" if math.isfinite(grid_step) else "finite"
    message = f"grid_step must be {rule}, got {grid_step}"
    with pytest.raises(ValueError, match=message):
        gramian_floor(sys, 0.5, 1.5, grid_step=grid_step)
    with pytest.raises(ValueError, match=message):
        max_kernel_derivative(sys, 1.0, 0.25, grid_step)
    with pytest.raises(ValueError, match=message):
        robust_sampling_bound(sys, 0.5, 0.75, 1.5, 0.5, grid_step=grid_step)


@pytest.mark.parametrize(
    "call, larger, nodes",
    [
        # A stationary sweep over window_up at the default window_low / 100:
        # 10 / 1e-8 cells, whose stacks would take about 41 GB.
        (lambda: robust_sampling_bound(harmonic_oscillator(), 1e-6, 10.0, 10.0, 0.5),
         "window_low or grid_step", "1e+09 nodes x 1 columns"),
        # Every anchor of the kernel scan, each over window_up.
        (lambda: robust_sampling_bound(wobbly_system(), 0.01, 0.02, 100.0, 0.5),
         "window_low or grid_step", "201 nodes x 9.999e+05 columns"),
        (lambda: gramian_floor(wobbly_system(), 1.0, 200.0, 0.01), "grid_step",
         "101 nodes x 1.99e+04 columns"),
        (lambda: observability_gramian(harmonic_oscillator(), 0.0, 1.0, 1e-7), "quad_step",
         "1e+07 nodes x 1 columns"),
        (lambda: max_kernel_derivative(wobbly_system(), 1e5, 0.0, 0.01), "grid_step",
         "1e+07 nodes x 1 columns"),
    ],
    ids=["lti-bound", "ltv-bound", "floor", "gramian", "kernel"],
)
def test_sweep_over_the_limit_fails_before_allocating(call, larger, nodes):
    # Each sweep and window grid checks its size first; past the limit it
    # names what to make larger instead of allocating gigabytes.
    message = f"a sweep of {nodes} is over the limit of 1,000,000: take a larger {larger}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "t, s_low, message",
    [
        pytest.param(0.5, 0.75, r"need s_low <= t, both finite, got \(0.75, 0.5\)",
                     id="0.5-0.75-0.75, 0.5"),
        # A NaN end scanned the anchor alone; an infinite one failed on an index.
        pytest.param(1.0, math.nan, "s_low must be finite, got nan", id="1.0-nan-nan, 1.0"),
        pytest.param(1.0, -math.inf, "s_low must be finite, got -inf", id="1.0--inf--inf, 1.0"),
        pytest.param(math.inf, 0.5, "t must be finite, got inf", id="inf-0.5-0.5, inf"),
        # In a batch the message names the first anchor at fault.
        pytest.param([1.0, 0.5, 0.2], [0.2, 0.75, 0.3],
                     r"need s_low <= t, both finite, got \(0.75, 0.5\)", id="t4-s_low4-0.75, 0.5"),
    ],
)
def test_kernel_derivative_needs_finite_s_low_at_most_t(t, s_low, message):
    with pytest.raises(ValueError, match=message):
        max_kernel_derivative(wobbly_system(), t, s_low, 0.05)


def test_kernel_derivative_rejects_no_anchors():
    # Once numpy's "zero-size array to reduction operation maximum".
    with pytest.raises(ValueError, match="t and s_low must hold at least one anchor, got none"):
        max_kernel_derivative(harmonic_oscillator(), [], [], 0.1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lti", [True, False])
def test_overflowing_flow_raises_instead_of_nan(lti):
    # The backward flow of the fast mode overflows (LTI) or its Gramian does
    # (LTV at grid 0.01, where RK4's Phi peaks near 1e229): both fail loudly,
    # rather than a floor of NaN or inf and an SVD error downstream.
    a, c = np.diag([-3000.0, -1.0]), np.array([[1.0, 1.0]])
    if lti:
        sys = LinearTimeVaryingSystem.lti(a, c)
    else:
        sys = LinearTimeVaryingSystem.time_varying(lambda t: a, lambda t: c)
    with pytest.raises(OverflowError):
        gramian_floor(sys, 0.5, 1.5, grid_step=0.01)
    with pytest.raises(OverflowError):
        robust_sampling_bound(sys, 0.5, 0.75, 1.5, 0.5, grid_step=0.01)
    with pytest.raises(OverflowError):
        sample_observability_matrix(sys, [0.0, 0.25, 0.5])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "gain, knee, floor_error",
    [
        (1e6, 0.6, "Gramian over [0.75, 1.25] is not finite"),
        (1e7, 0.6, "Gramian over [0.55, 1.05] is not finite"),
        (1e6, 0.9, None),  # the floor is finite, the kernel scan is not
    ],
)
def test_batched_overflow_matches_scalar_reference(gain, knee, floor_error):
    # The first mode stiffens only after the knee, so its backward RK4 flow
    # overflows on later windows alone: the batched floor names the first of
    # them in start order, as the window-by-window loop does.
    sys = LinearTimeVaryingSystem.time_varying(
        lambda t: np.diag([-gain * max(0.0, t - knee), -1.0]), lambda t: np.array([[1.0, 1.0]])
    )
    floor = outcome(gramian_floor, sys, 0.5, 1.5, 0.05)
    assert matches(floor, outcome(scalar_floor, sys, 0.5, 1.5, 0.05), exact=False)
    if floor_error is None:
        assert math.isfinite(floor)
    else:
        assert floor == (OverflowError, floor_error)
    scan_error = (
        OverflowError,
        "kernel derivative is not finite: the flow diverges on the window",
    )
    assert outcome(max_kernel_derivative, sys, 1.5, 0.75, 0.05) == scan_error
    assert outcome(scalar_kernel_scan, sys, 1.5, 0.75, 0.05) == scan_error
    args = (sys, 0.5, 0.75, 1.5, 0.5, 0.05)
    bound = outcome(robust_sampling_bound, *args)
    assert matches(bound, outcome(scalar_sampling_bound, *args), exact=False)
    assert bound == (scan_error if floor_error is None else floor)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_overflow_with_finite_flow_raises():
    # Phi stays finite (about 1e195) while the kernel term squares past the
    # largest double: the scan must not skip the NaN or fail inside the SVD.
    sys = LinearTimeVaryingSystem.lti(np.diag([-900.0, -1.0]), np.array([[1.0, 1.0]]))
    with pytest.raises(OverflowError):
        observability_gramian(sys, 0.0, 0.5)
    with pytest.raises(OverflowError):
        max_kernel_derivative(sys, 0.5, 0.0, 0.01)
    # The floor over 0.3 is finite; the kernel scan over 0.5 is not.
    with pytest.raises(OverflowError):
        robust_sampling_bound(sys, 0.3, 0.5, 1.5, 0.5)


# --- group 5: margin invariant --------------------------------------------------


def build_admissible_times(start, span, gap_cap):
    """Equidistant samples spanning [start, start + span] with gap <= gap_cap."""
    n = max(2, math.ceil(span / gap_cap) + 1)
    return list(np.linspace(start, start + span, n))


def test_margin_invariant_concrete_lti():
    sys = double_integrator()
    bound = robust_sampling_bound(sys, 1.0, 1.0, 1.0, retention=0.5, grid_step=2e-3)
    times = build_admissible_times(0.0, 1.0, 0.95 * bound)
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    floor = gramian_floor(sys, 1.0, 1.0, grid_step=2e-3)
    margin = eigenvalue_margin(o, w)
    assert margin >= 0.5 * floor, f"margin {margin:.6g} below half floor {floor:.6g}"


def test_margin_invariant_random_lti_instances():
    rng = np.random.default_rng(4021)
    checked = 0
    while checked < 12:
        d = int(rng.integers(2, 4))
        a = rng.uniform(-1.0, 1.0, size=(d, d))
        c = rng.uniform(-1.0, 1.0, size=(1, d))
        sys = LinearTimeVaryingSystem.lti(a, c)
        try:
            bound = robust_sampling_bound(
                sys, 0.5, 0.75, 1.5, retention=0.5, grid_step=0.01
            )
        except ArithmeticError:
            continue
        if not math.isfinite(bound) or bound < 5e-3:
            continue
        span = float(rng.uniform(0.5, 0.75))
        start = float(rng.uniform(0.0, 1.5 - span))
        times = build_admissible_times(start, span, 0.95 * bound)
        o = sample_observability_matrix(sys, times)
        w = weight_matrix(times)
        floor = gramian_floor(sys, 0.5, 1.5, grid_step=0.01)
        margin = eigenvalue_margin(o, w)
        assert margin >= 0.5 * floor, (
            f"instance {checked}: margin {margin:.6g} < {0.5 * floor:.6g}"
        )
        checked += 1


def test_margin_invariant_ltv_instance():
    sys = wobbly_system()
    bound = robust_sampling_bound(sys, 0.5, 0.75, 1.5, retention=0.5, grid_step=0.025)
    assert math.isfinite(bound) and bound > 0.0
    times = build_admissible_times(0.6, 0.7, 0.95 * bound)
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    floor = gramian_floor(sys, 0.5, 1.5, grid_step=0.025)
    margin = eigenvalue_margin(o, w)
    assert margin >= 0.5 * floor


def test_normal_matrix_close_to_gramian_for_fine_schedules():
    # Trapezoid discretization error: the lemma behind the sampling bound.
    sys = harmonic_oscillator()
    times = build_admissible_times(0.0, 1.0, 0.01)
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    normal = o.T @ w @ w @ o
    gram = observability_gramian(sys, 0.0, 1.0, quad_step=1e-3)
    gap = np.linalg.norm(normal - gram, 2)
    # Error budget: span * gap / 4 * max ||dK/ds||.
    worst = max_kernel_derivative(sys, 1.0, 0.0, grid_step=0.01)
    assert gap <= 1.0 * 0.01 / 4.0 * worst + 1e-6


# --- group 6: eigen-structure and schedule criteria -----------------------------------


def test_eigenstructure_diagonalizable():
    es = EigenStructure.from_matrix(np.diag([1.0, 2.0, 3.0]))
    assert sorted(ev.real for ev in es.eigenvalues) == [1.0, 2.0, 3.0]
    assert es.indices == (1, 1, 1)
    assert es.imag_spread == 0.0


def test_eigenstructure_jordan_blocks():
    es = EigenStructure.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert len(es.eigenvalues) == 1
    assert es.indices == (2,)
    j3 = 2.0 * np.eye(3) + np.diag([1.0, 1.0], k=1)
    es3 = EigenStructure.from_matrix(j3)
    assert len(es3.eigenvalues) == 1
    assert abs(es3.eigenvalues[0] - 2.0) < 1e-4
    assert es3.indices == (3,)


def test_eigenstructure_complex_pair():
    es = EigenStructure.from_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert len(es.eigenvalues) == 2
    assert es.imag_spread == pytest.approx(2.0, abs=1e-12)
    assert es.total_index == 2


def schedule_of(times_row):
    return (tuple(times_row),)


def test_equidistant_criterion_aliasing_gap_fails():
    sys = harmonic_oscillator()
    diag = check_schedule_observability(sys, schedule_of([0.0, math.pi]), "equidistant")
    assert not diag.passed
    assert any("alias" in m for m in diag.messages)
    # The verdict is corroborated numerically: rank collapses.
    o = sample_observability_matrix(sys, [0.0, math.pi])
    assert np.linalg.matrix_rank(o, tol=1e-9) == 1


def test_equidistant_criterion_safe_gap_passes():
    sys = harmonic_oscillator()
    times = [0.0, math.pi / 2.0]
    diag = check_schedule_observability(sys, schedule_of(times), "equidistant")
    assert diag.passed
    o = sample_observability_matrix(sys, times)
    assert np.linalg.matrix_rank(o, tol=1e-9) == 2


def test_equidistant_criterion_needs_enough_samples():
    sys = harmonic_oscillator()
    diag = check_schedule_observability(sys, schedule_of([0.0]), "equidistant")
    assert not diag.passed


def test_equidistant_criterion_rejects_uneven_gaps():
    sys = harmonic_oscillator()
    diag = check_schedule_observability(sys, schedule_of([0.0, 0.4, 1.0]), "equidistant")
    assert not diag.passed
    assert any("not equidistant" in m for m in diag.messages)


def test_periodic_criterion_pattern_pass_and_fail():
    sys = harmonic_oscillator()
    good = [0.0, 0.3, 0.6, 1.05, 1.35, 1.65]  # blocks of two 0.3 gaps then 0.45
    diag = check_schedule_observability(sys, schedule_of(good), "periodic")
    assert diag.passed
    assert any("user-asserted" in m for m in diag.messages)
    o = sample_observability_matrix(sys, good)
    assert np.linalg.matrix_rank(o, tol=1e-9) == 2

    short = good[:4]  # needs (dbar + 1) * d = 6 samples
    diag = check_schedule_observability(sys, schedule_of(short), "periodic")
    assert not diag.passed

    broken = [0.0, 0.3, 0.6, 1.05, 1.35, 1.8]
    diag = check_schedule_observability(sys, schedule_of(broken), "periodic")
    assert not diag.passed


@pytest.mark.parametrize(
    "row, message",
    [
        ([0.0, 0.3], "need at least three samples to exhibit a pattern"),
        ([0.0, 0.3, 0.6, 0.9], "all gaps equal: use the equidistant criterion"),
        ([0.0, 0.3, 0.75, 1.05, 1.5], "pattern block 1 shorter than the dimension 2"),
    ],
)
def test_periodic_criterion_failure_messages(row, message):
    diag = check_schedule_observability(harmonic_oscillator(), schedule_of(row), "periodic")
    assert not diag.passed
    assert diag.messages == (f"member 1: {message}",)


@pytest.mark.parametrize("sys", [harmonic_oscillator(), wobbly_system()], ids=["lti", "ltv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gramian_rejects_non_finite_window_starts(sys, bad):
    # A stationary Gramian does not depend on its start, so a NaN start once
    # gave a finite Gramian.
    with pytest.raises(ValueError, match=f"t must be finite, got {bad}"):
        observability_gramian(sys, np.array([0.0, bad]), 1.0)


def test_gramian_rejects_no_window_starts():
    # Once numpy's "zero-size array to reduction operation maximum".
    with pytest.raises(ValueError, match="t must hold at least one window start, got none"):
        observability_gramian(harmonic_oscillator(), np.array([]), 1.0)


def test_count_criterion_thresholds():
    # Nilpotent dynamics: threshold is total index - 1 = 1, two samples pass.
    diag = check_schedule_observability(
        double_integrator(), schedule_of([0.0, 0.123]), "count"
    )
    assert diag.passed
    # Oscillator over a long span: threshold 1 + span / pi exceeds the count.
    sys = harmonic_oscillator()
    diag = check_schedule_observability(
        sys, schedule_of([0.0, 1.5 * math.pi, 3.0 * math.pi]), "count"
    )
    assert not diag.passed


def test_schedule_criteria_preconditions():
    sys = LinearTimeVaryingSystem.lti(
        np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([[0.0, 0.0]])
    )
    with pytest.raises(ValueError):
        check_schedule_observability(sys, schedule_of([0.0, 1.0]), "equidistant")
    with pytest.raises(ValueError):
        check_schedule_observability(
            wobbly_system(), schedule_of([0.0, 1.0]), "equidistant"
        )
    with pytest.raises(ValueError):
        check_schedule_observability(
            double_integrator(), schedule_of([0.0, 1.0]), "nonsense"
        )


def test_schedule_criteria_judge_each_member_on_its_own():
    # Rows may differ in length and come in any order; each member must hold
    # non-empty, strictly increasing times, and a bad one is named.
    sys = harmonic_oscillator()
    for rows in ([[0.0, 0.5, 1.0], [1.5, 2.0, 2.5, 3.0]], [[1.5, 2.0, 2.5], [0.0, 0.5, 1.0]]):
        diag = check_schedule_observability(sys, rows, "equidistant")
        assert diag.passed and diag.messages == ()
    for row, rule in (
        ([1.0, 1.0], "be strictly increasing, got 1.0 then 1.0"),
        ([], "be a row of 1 or more times, got []"),
        ([2.0, 1.0], "be strictly increasing, got 2.0 then 1.0"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"member 2: sample times must {rule}")):
            check_schedule_observability(sys, [[0.0, 0.5], row], "equidistant")
    with pytest.raises(ValueError, match="at least one member"):
        check_schedule_observability(sys, [], "equidistant")


@pytest.mark.parametrize("criterion", ["equidistant", "periodic", "count"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_schedule_criteria_name_a_time_that_is_not_finite(criterion, bad):
    # A NaN time compares false with its neighbours, so it passed the
    # ordering check and the count criterion passed the schedule.
    rows = [[0.0, 0.5, 1.0], [0.0, bad, 1.0]]
    with pytest.raises(ValueError, match=f"member 2: sample times must be finite, got {bad}"):
        check_schedule_observability(harmonic_oscillator(), rows, criterion)


# --- group 7: reconstruction --------------------------------------------------------


def test_reconstruct_exact_outputs_recovers_state():
    sys = double_integrator()
    times = [0.0, 0.5, 1.0]
    target = np.array([0.7, -1.3])
    outputs = []
    for t in times:
        phi = expm(sys.a_const * (t - times[-1]))
        outputs.append((sys.c_const @ phi @ target).item())
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    got = reconstruct_state(o, w, np.array(outputs))
    assert np.allclose(got, target, atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("which", ["O", "W", "y"])
def test_reconstruct_names_data_that_is_not_finite(which, bad):
    # A NaN output gave the estimate [nan, nan]; a NaN in O or W failed in the SVD.
    times = [0.0, 0.5, 1.0]
    data = {
        "O": sample_observability_matrix(harmonic_oscillator(), times),
        "W": weight_matrix(times),
        "y": np.array([1.0, 0.5, -0.2]),
    }
    data[which].flat[1] = bad
    with pytest.raises(ValueError, match=f"{which} must be finite, got {bad}"):
        reconstruct_state(data["O"], data["W"], data["y"])


def test_reconstruct_rejects_rank_deficiency():
    sys = harmonic_oscillator()
    o = sample_observability_matrix(sys, [0.0, math.pi])
    w = weight_matrix([0.0, math.pi])
    with pytest.raises(ArithmeticError):
        reconstruct_state(o, w, np.zeros(2))


def test_reconstruct_noise_respects_error_bound():
    # The quantitative promise: weighted reconstruction error is at most
    # sqrt(window / (retention * gramian floor)) * per-sample noise, once the
    # schedule margin holds.
    sys = double_integrator()
    times = build_admissible_times(0.0, 1.0, 0.04)
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    floor = gramian_floor(sys, 1.0, 1.0, grid_step=1e-3)
    assert eigenvalue_margin(o, w) >= 0.5 * floor
    bound = estimation_error_bound(1.0, floor, 0.5, 0.01)
    rng = np.random.default_rng(7)
    target = np.array([0.4, -0.9])
    clean = o @ target
    for _ in range(40):
        noise = rng.uniform(-1.0, 1.0, size=clean.shape)
        noise *= 0.01 / max(1e-12, np.abs(noise).max())
        got = reconstruct_state(o, w, clean + noise)
        err = np.linalg.norm(got - target)
        assert err <= bound, f"error {err:.6g} exceeds bound {bound:.6g}"


def test_commuting_oracle_error_stays_in_the_bound_under_adversarial_noise():
    # Outputs come from the exact Phi of ``commuting_ltv`` and are
    # reconstructed through the computed O.  For each left singular vector
    # u_j of W O, the noise sits at the +-noise box vertex +-noise sign(u_j),
    # the vertex that pushes the estimate furthest along the matching right
    # singular vector.  The Phi term, the error with noise-free outputs, is
    # 1.1e-10 of the bound here (O is 1.3e-11 relative off the exact one);
    # the worst vertex reaches 0.30 of the bound.
    a0, c = np.array([[0.0, 1.0], [-1.0, -0.2]]), np.array([[1.0, 0.0]])
    sys = commuting_ltv(a0, c)
    gap = robust_sampling_bound(sys, 0.5, 0.75, 1.5, retention=0.5, grid_step=0.05)
    times = build_admissible_times(0.4, 0.7, 0.95 * gap)
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    floor = gramian_floor(sys, 0.5, 1.5, grid_step=0.05)
    assert eigenvalue_margin(o, w) >= 0.5 * floor
    bound = estimation_error_bound(0.75, floor, 0.5, 0.01)
    target = np.array([0.4, -0.9])
    clean = commuting_observability_matrix(a0, c, times) @ target
    assert np.linalg.norm(reconstruct_state(o, w, clean) - target) <= 1e-8 * bound
    u = np.linalg.svd(w @ o, full_matrices=False)[0]
    for vertex in 0.01 * np.where(u.T >= 0.0, 1.0, -1.0):
        for noise in (vertex, -vertex):
            err = np.linalg.norm(reconstruct_state(o, w, clean + noise) - target)
            assert err <= bound, f"error {err:.6g} exceeds bound {bound:.6g}"


def test_estimation_error_bound_anchor():
    got = estimation_error_bound(1.0, LAM_MIN_EXACT, 0.5, 0.01)
    assert got == pytest.approx(ERR_BOUND_ANCHOR, rel=1e-12)
    with pytest.raises(ValueError):
        estimation_error_bound(1.0, -1.0, 0.5, 0.01)
    with pytest.raises(ValueError):
        estimation_error_bound(1.0, 1.0, 0.0, 0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name, message",
    [
        ("window_up", "window_up must be finite"),
        ("gramian_min", "gramian_min must be finite"),
        ("retention", "retention must be finite"),
        ("output_noise", "output_noise must be finite"),
    ],
)
def test_estimation_error_bound_needs_finite_numbers(name, message, bad):
    # A NaN or infinite input must not give a NaN, inf or zero bound.
    args = dict(window_up=1.0, gramian_min=LAM_MIN_EXACT, retention=0.5, output_noise=0.01)
    args[name] = bad
    with pytest.raises(ValueError, match=f"{message}, got {bad}"):
        estimation_error_bound(**args)


def test_builtin_systems():
    assert builtin_system("double_integrator").is_lti
    assert builtin_system("harmonic_oscillator").dim == 2
    rot = builtin_system("rotating_sensor", omega=3.0)
    assert not rot.is_lti
    assert np.allclose(rot.c_at(0.0), [[1.0, 0.0]])
    for name in ("no_such_system", 0, []):
        with pytest.raises(KeyError, match="unknown built-in system name"):
            builtin_system(name)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LinearTimeVaryingSystem.lti([["0", 1.0], [0.0, 1.0]], [[1.0, 0.0]]),
         "A must be finite, got '0'"),
        (lambda: LinearTimeVaryingSystem.lti([[0.0, 1.0], [0.0, 0.0]], [[None, 0.0]]),
         "C must be finite, got None"),
        (lambda: builtin_system("rotating_sensor", omega="2"), "params.omega"),
        (lambda: builtin_system("rotating_sensor", omega=True), "params.omega"),
        (lambda: builtin_system("double_integrator", omega=2), r"no params \['omega'\]"),
        (lambda: builtin_system("rotating_sensor", omega=2, phase=1), "phase"),
        (lambda: builtin_system("rotating_sensor", omega=math.nan), "params.omega"),
    ],
    ids=["A-string", "C-null", "omega-string", "omega-bool", "unused-param", "unknown-param",
         "omega-nan"],
)
def test_systems_reject_strings_and_unused_params(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_constant_matrices_must_be_finite(bad):
    # A NaN A was taken, and the sample matrix failed later as an
    # OverflowError, a numerical failure, instead of naming A.
    a, c = np.array([[0.0, 1.0], [bad, 0.0]]), np.array([[1.0, 0.0]])
    with pytest.raises(ValueError, match=f"A must be finite, got {bad}"):
        LinearTimeVaryingSystem.lti(a, c)
    with pytest.raises(ValueError, match=f"A must be finite, got {bad}"):
        LinearTimeVaryingSystem.lti(a.tolist(), c.tolist())
    with pytest.raises(ValueError, match=f"C must be finite, got {bad}"):
        LinearTimeVaryingSystem.lti(np.eye(2), np.array([[bad, 0.0]]))


def test_constant_a_must_be_a_square_matrix():
    # A 3-D A built a one-state system.
    with pytest.raises(ValueError, match=re.escape("A(t) must be square, got (1, 1, 1)")):
        LinearTimeVaryingSystem.lti([[[0.0]]], [[1.0]])


def test_c_must_be_a_matrix():
    # A 3-D C built a one-output system whose sample matrix was 3-D.
    message = re.escape("C(t) must be a matrix with 2 columns, got (1, 2, 2)")
    with pytest.raises(ValueError, match=message):
        LinearTimeVaryingSystem.lti([[0, 1], [-1, 0]], np.ones((1, 2, 2)))
    with pytest.raises(ValueError, match=message):
        LinearTimeVaryingSystem.time_varying(lambda t: np.eye(2), lambda t: np.ones((1, 2, 2)))


def test_lti_copies_leave_the_caller_arrays_writable():
    a, c = np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]])
    sys = LinearTimeVaryingSystem.lti(a, c)
    a[1, 0] = c[0, 0] = 2.0
    assert sys.a_const[1, 0] == -1.0 and sys.c_const[0, 0] == 1.0
    assert not sys.a_const.flags.writeable and not sys.c_const.flags.writeable


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["obs_matrix", "weight"])
def test_eigenvalue_margin_names_an_entry_that_is_not_finite(name, bad):
    # A NaN failed inside numpy as "SVD did not converge".
    args = {"obs_matrix": np.eye(2), "weight": np.eye(2)}
    args[name][1, 1] = bad
    with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
        eigenvalue_margin(**args)


def test_is_lti_means_constant_matrices():
    # Not a setting of its own, so it cannot disagree with ``a_const``.
    assert double_integrator().is_lti
    assert not wobbly_system().is_lti
    a, c = np.eye(2), np.ones((1, 2))
    with pytest.raises(TypeError):
        LinearTimeVaryingSystem(lambda t: a, lambda t: c, 2, 1, is_lti=True)


def test_systems_take_integer_entries():
    sys = LinearTimeVaryingSystem.lti([[0, 1], [0, 0]], [[1, 0]])
    assert sys.a_const.dtype == float
    assert np.array_equal(sys.a_const, [[0.0, 1.0], [0.0, 0.0]])
    rot = builtin_system("rotating_sensor", omega=2)
    assert np.array_equal(rot.c_at(0.3), [[math.cos(0.6), math.sin(0.6)]])
