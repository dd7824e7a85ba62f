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

import math

import numpy as np
import pytest
from scipy.linalg import expm

from ambiflow.ambiguity import SamplingSchedule
from ambiflow.observability import (
    EigenStructure,
    LinearTimeVaryingSystem,
    check_schedule_observability,
    eigenvalue_margin,
    estimation_error_bound,
    fundamental_matrix,
    gramian_floor,
    max_kernel_derivative,
    observability_gramian,
    reconstruct_state,
    robust_sampling_bound,
    sample_observability_matrix,
    system_from_json,
    weight_matrix,
)

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


def test_fundamental_matrix_double_integrator():
    phi = fundamental_matrix(double_integrator(), 0.0, 1.0)
    assert np.allclose(phi, [[1.0, -1.0], [0.0, 1.0]], atol=1e-14)


def test_fundamental_matrix_identity_at_equal_times():
    sys = wobbly_system()
    assert np.allclose(fundamental_matrix(sys, 0.7, 0.7), np.eye(2), atol=1e-15)


def test_fundamental_matrix_cocycle():
    sys = wobbly_system()
    a = fundamental_matrix(sys, 2.0, 0.0, step=1e-3)
    b = fundamental_matrix(sys, 2.0, 1.3, step=1e-3) @ fundamental_matrix(
        sys, 1.3, 0.0, step=1e-3
    )
    assert np.allclose(a, b, atol=1e-8), f"cocycle violated by {np.abs(a - b).max():.2e}"


def test_fundamental_matrix_inverse_pair():
    sys = wobbly_system()
    fwd = fundamental_matrix(sys, 1.7, 0.2, step=1e-3)
    bwd = fundamental_matrix(sys, 0.2, 1.7, step=1e-3)
    assert np.allclose(fwd @ bwd, np.eye(2), atol=1e-9)


def test_fundamental_matrix_rk4_matches_exponential():
    # Constant dynamics through the time-varying code path.
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: a, c_fn=lambda t: np.array([[1.0, 0.0]])
    )
    phi = fundamental_matrix(sys, 2.5, 0.0, step=1e-3)
    assert np.allclose(phi, expm(2.5 * a), atol=1e-10)


def test_rk4_builds_a_at_most_three_times_per_step():
    # RK4's two midpoint stages share one A(t + h/2).
    calls = []

    def a_fn(t):
        calls.append(t)
        return np.array([[0.0, 1.0], [-1.0 - 0.3 * math.sin(t), 0.0]])

    sys = LinearTimeVaryingSystem.time_varying(
        a_fn=a_fn, c_fn=lambda t: np.array([[1.0, 0.0]])
    )
    calls.clear()
    n_steps = 128
    fundamental_matrix(sys, 1.0, 0.0, step=1.0 / n_steps)
    assert 0 < len(calls) <= 3 * n_steps


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
    o = sample_observability_matrix(sys, times, step=1e-3)
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
        phi = fundamental_matrix(sys, t, times[-1])
        row = sys.c_const @ phi
        total += wl2 * (row.T @ row)
    assert np.allclose(normal, total, atol=1e-13)


def test_eigenvalue_margin_anchor():
    o = sample_observability_matrix(double_integrator(), [0.0, 0.5, 1.0])
    w = weight_matrix([0.0, 0.5, 1.0])
    assert eigenvalue_margin(o, w) == pytest.approx(MARGIN_THREE_SAMPLES, rel=1e-12)


# --- group 3: Gramians ------------------------------------------------------------


def test_gramian_double_integrator_closed_form():
    g = observability_gramian(double_integrator(), 0.0, 1.0, quad_step=1e-3)
    assert np.allclose(g, GRAMIAN_EXACT, atol=1e-7)
    assert np.linalg.eigvalsh(g)[0] == pytest.approx(LAM_MIN_EXACT, rel=1e-5)


def test_gramian_ltv_path_matches_dense_quadrature():
    sys = system_from_json({"name": "rotating_sensor", "params": {"omega": 2.0}})
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


# --- group 4: kernel derivative and sampling bound ----------------------------------


def test_kernel_derivative_matches_finite_difference():
    sys = wobbly_system()
    t = 1.4
    h = 1e-5

    def kernel(s):
        phi = fundamental_matrix(sys, s, t, step=1e-4)
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
    o = sample_observability_matrix(sys, times, step=1e-3)
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
    return SamplingSchedule(times=(tuple(times_row),), effective_start=1)


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


# --- group 7: reconstruction --------------------------------------------------------


def test_reconstruct_exact_outputs_recovers_state():
    sys = double_integrator()
    times = [0.0, 0.5, 1.0]
    target = np.array([0.7, -1.3])
    outputs = []
    for t in times:
        phi = fundamental_matrix(sys, t, times[-1])
        outputs.append((sys.c_const @ phi @ target).item())
    o = sample_observability_matrix(sys, times)
    w = weight_matrix(times)
    got = reconstruct_state(o, w, np.array(outputs))
    assert np.allclose(got, target, atol=1e-12)


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


def test_estimation_error_bound_anchor():
    got = estimation_error_bound(1.0, LAM_MIN_EXACT, 0.5, 0.01)
    assert got == pytest.approx(ERR_BOUND_ANCHOR, rel=1e-12)
    with pytest.raises(ValueError):
        estimation_error_bound(1.0, -1.0, 0.5, 0.01)
    with pytest.raises(ValueError):
        estimation_error_bound(1.0, 1.0, 0.0, 0.01)


def test_system_from_json_matrices_and_builtins():
    sys = system_from_json({"A": [[0.0, 1.0], [0.0, 0.0]], "C": [[1.0, 0.0]]})
    assert sys.is_lti and sys.dim == 2 and sys.n_outputs == 1
    rot = system_from_json({"name": "rotating_sensor", "params": {"omega": 3.0}})
    assert not rot.is_lti
    assert np.allclose(rot.c_at(0.0), [[1.0, 0.0]])
    with pytest.raises(KeyError):
        system_from_json({"name": "no_such_system"})
    with pytest.raises(ValueError):
        system_from_json({"A": [[1.0]]})
