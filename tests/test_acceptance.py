"""Acceptance suite: ten go/no-go checks over the whole package.

Each test prints one `criterion NN PASS/FAIL` line (run pytest with `-s`
to see them as they happen) and enforces its own wall-clock budget.
The checks, in order:

  1. sample-count calibration of the ambiguity radius
  2. U-shaped total radius and horizon ordering
  3. pushed-forward empirical equals the direct time-T empirical
  4. index-pairing bound dominates the exact transport distance
  5. growth envelope dominates integrated trajectories; long-horizon decay
  6. eigenvalue-margin retention on random observable instances
  7. reconstruction error certificate under bounded noise
  8. aliased versus admissible sampling of the harmonic oscillator
  9. dynamic-versus-static benchmark ordering over seeded realizations
 10. critical-rate inversion round trip and decay probe
"""

import itertools
import math
import time

import numpy as np
import pytest

from ambiflow.ambiguity import (
    cumulative_empirical,
    effective_horizon,
    total_radius,
)
from ambiflow.concentration import (
    RadiusConfig,
    ambiguity_radius,
    calibrated_radius,
    critical_rate,
    invert_critical_rate,
)
from ambiflow.distribution import (
    DiscreteDistribution,
    coupling_upper_bound,
    wasserstein_exact,
)
from ambiflow.dynamics import (
    FlowErrorModel,
    GrowthCertificate,
    builtin_field,
    growth_bound,
    integrate_flow,
)
from ambiflow.observability import (
    LinearTimeVaryingSystem,
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
from ambiflow.uav_scenario import default_config, run_experiment, run_single_realization


def run_criterion(num, label, budget_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {num} overran its budget: {elapsed:.1f}s >= {budget_s}s"
        )
    except BaseException:
        print(f"\ncriterion {num:2d} FAIL  {label}")
        raise
    print(f"\ncriterion {num:2d} PASS  {label}  ({elapsed:.2f}s)")


# --- 1: radius calibration --------------------------------------------------------


def test_criterion_01_radius_calibration():
    def body():
        targets = {40: 0.1201, 160: 0.085, 1: 0.3023}
        for n, want in targets.items():
            got = calibrated_radius(0.17, 10, n)
            assert abs(got - want) <= 5e-4, f"radius at {n}: {got:.6f} vs {want}"
        assert calibrated_radius(0.17, 10, 10) == 0.17

    run_criterion(1, "radius calibration at 1/40/160 samples", 1.0, body)


# --- 2: U-shaped total radius and horizon ordering ----------------------------------


def test_criterion_02_total_radius_shape():
    def body():
        cfg = RadiusConfig(p=1.0, d=1, beta=0.05)
        model = FlowErrorModel(magnitude=1.0, rate=0.1)
        delta = 0.01
        stars = []
        for rho in (1.0, 2.0, 3.0):
            res = effective_horizon(delta, cfg, rho, model)
            assert res.status == "found", f"rho {rho}: unexpected {res.status}"
            n_star = res.n_star
            stars.append(n_star)
            psi = [
                total_radius(n, cfg, rho, delta, model)
                for n in range(1, n_star + 201)
            ]
            for i in range(n_star - 1):
                assert psi[i + 1] < psi[i], (
                    f"rho {rho}: not decreasing at N={i + 1} within horizon {n_star}"
                )
            low = int(np.argmin(psi))
            assert low + 50 < len(psi), f"rho {rho}: minimum too close to scan end"
            for i in range(low, len(psi) - 1):
                assert psi[i + 1] > psi[i], (
                    f"rho {rho}: not increasing at N={i + 1} past the minimum"
                )
        assert stars == sorted(stars), f"horizons not nondecreasing: {stars}"

    run_criterion(2, "U-shaped total radius, horizon grows with support", 10.0, body)


# --- 3: staggered pushforward equals direct empirical --------------------------------


def test_criterion_03_cumulative_empirical_equality():
    def body():
        field = builtin_field("double_integrator")
        rng = np.random.default_rng(77)
        for trial in range(50):
            n = int(rng.integers(2, 9))
            horizon = float(rng.uniform(0.5, 2.0))
            times = np.sort(rng.uniform(0.0, horizon, size=n))
            states = rng.normal(size=(n, 2))
            samples = [(float(t), s) for t, s in zip(times, states)]
            pushed = cumulative_empirical(samples, horizon, field, step=0.01)
            direct = []
            for t, (x, v) in zip(times, states):
                dt = horizon - t
                direct.append([x + v * dt + dt * dt / 2.0, v + dt])
            truth = DiscreteDistribution.empirical(np.array(direct))
            for p in (1.0, 2.0):
                dist = wasserstein_exact(pushed, truth, p)
                assert dist < 1e-9, f"trial {trial}, p={p}: W_p = {dist:.3e}"

    run_criterion(3, "pushed empirical matches direct time-T empirical", 10.0, body)


# --- 4: pairing bound dominates exact distance ---------------------------------------


def brute_force_wasserstein(x, y, p):
    n = x.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean([np.linalg.norm(x[i] - y[perm[i]]) ** p for i in range(n)])
        best = min(best, cost)
    return best ** (1.0 / p)


def test_criterion_04_coupling_dominance():
    def body():
        rng = np.random.default_rng(1404)
        for trial in range(500):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            p = float(rng.choice([1.0, 2.0, 3.0]))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d))
            exact = wasserstein_exact(
                DiscreteDistribution.empirical(x),
                DiscreteDistribution.empirical(y),
                p,
            )
            bound = coupling_upper_bound(x, y, p)
            assert exact <= bound * (1.0 + 1e-12), (
                f"trial {trial}: exact {exact:.12g} above pairing bound {bound:.12g}"
            )
            if n <= 6:
                oracle = brute_force_wasserstein(x, y, p)
                assert exact == pytest.approx(oracle, rel=1e-12), (
                    f"trial {trial}: exact {exact!r} vs oracle {oracle!r}"
                )

    run_criterion(4, "pairing bound dominates exact transport distance", 60.0, body)


# --- 5: growth envelope domination and long-horizon decay ----------------------------


def test_criterion_05_growth_domination_and_decay():
    def body():
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
        rng = np.random.default_rng(505)
        for trial in range(20):
            x0 = rng.normal(size=2)
            x0 *= (0.2 + 2.0 * rng.random()) / np.linalg.norm(x0)
            n0 = float(np.linalg.norm(x0))
            for t in (1.0, 5.0, 10.0, 50.0):
                xt = integrate_flow(field, 0.0, t, x0, step=0.01)
                n_true = float(np.linalg.norm(xt))
                envelope = growth_bound(cert, n0, t)
                assert n_true <= envelope + 1e-9, (
                    f"trial {trial}, t={t}: |x| = {n_true:.6f} over {envelope:.6f}"
                )

        # Long-horizon probe: sampling once per unit time, the concentration
        # radius at the horizon shrinks to zero because the sample count
        # outruns the support growth (power 6, forcing exponent 0.5).
        slow = GrowthCertificate(
            scale_low=1.0,
            scale_high=1.0,
            power=6.0,
            forcing_exponent=0.5,
            forcing_gain=1.0,
            drift_cap=0.0,
        )
        cfg = RadiusConfig(p=1.0, d=1, beta=0.05)
        assert slow.power * (1.0 - slow.forcing_exponent) > cfg.decay_exponent
        radii = []
        for horizon in (10.0, 100.0, 1000.0, 10000.0):
            rho = growth_bound(slow, 1.0, horizon)
            radii.append(ambiguity_radius(int(horizon), cfg, rho))
        assert all(b < a for a, b in zip(radii, radii[1:])), f"not decreasing: {radii}"
        assert radii[-1] < 0.6 * radii[0]

    run_criterion(5, "growth envelope dominates; long-horizon radius decays", 60.0, body)


# --- 6: margin retention on random observable instances ------------------------------


def _random_lti(rng):
    d = int(rng.integers(2, 4))
    a = rng.uniform(-1.0, 1.0, size=(d, d))
    c = rng.uniform(-1.0, 1.0, size=(1, d))
    return LinearTimeVaryingSystem.lti(a, c)


def _random_ltv(rng):
    # Oscillator family with random smooth wobbles in both dynamics and sensor.
    w1 = float(rng.uniform(0.5, 1.5))
    w2 = float(rng.uniform(0.1, 0.4))
    b = float(rng.uniform(0.05, 0.3))
    return LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: np.array(
            [[0.0, 1.0], [-w1 - b * math.sin(t), -w2 * math.cos(t)]]
        ),
        c_fn=lambda t: np.array([[1.0, b * math.sin(2.0 * t)]]),
        c_dot_fn=lambda t: np.array([[0.0, 2.0 * b * math.cos(2.0 * t)]]),
    )


def test_criterion_06_margin_retention():
    def body():
        rng = np.random.default_rng(4021)
        retention = 0.5
        window_low, window_up, horizon = 0.5, 0.75, 1.5
        checked = 0
        ltv_target = 10
        while checked < 200:
            want_ltv = checked < ltv_target
            sys_model = _random_ltv(rng) if want_ltv else _random_lti(rng)
            grid = 0.05 if want_ltv else 0.01
            try:
                bound = robust_sampling_bound(
                    sys_model, window_low, window_up, horizon, retention, grid_step=grid
                )
            except ArithmeticError:
                continue  # not observable on the window: outside the ensemble
            if not math.isfinite(bound) or bound < 4e-3:
                continue  # admissible schedules too fine for a fast suite
            span = float(rng.uniform(window_low, window_up))
            start = float(rng.uniform(0.0, horizon - span))
            gap = 0.95 * bound
            n_times = max(2, math.ceil(span / gap) + 1)
            times = list(np.linspace(start, start + span, n_times))
            obs = sample_observability_matrix(sys_model, times)
            weight = weight_matrix(times)
            floor = gramian_floor(sys_model, window_low, horizon, grid_step=grid)
            margin = eigenvalue_margin(obs, weight)
            assert margin >= retention * floor, (
                f"instance {checked}: margin {margin:.6g} < "
                f"{retention} * floor {floor:.6g}"
            )

            # Companion check: the sampled normal matrix approximates the
            # window's continuous counterpart within the trapezoid budget.
            normal = obs.T @ weight @ weight @ obs
            gram = observability_gramian(sys_model, start, span)
            true_gap = max(float(np.diff(times).max()), 0.0)
            worst = max_kernel_derivative(
                sys_model, start + span, start, grid_step=grid
            )
            budget = span * true_gap / 4.0 * worst + 1e-6
            distance = float(np.linalg.norm(normal - gram, 2))
            assert distance <= budget, (
                f"instance {checked}: normal-to-window distance {distance:.3e} "
                f"over budget {budget:.3e}"
            )
            checked += 1

    run_criterion(6, "margin retention on 200 random observable instances", 20.0, body)


# --- 7: noise error certificate -------------------------------------------------------


def test_criterion_07_noise_certificate():
    def body():
        sys_model = LinearTimeVaryingSystem.lti(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]])
        )
        times = [0.0, 0.5, 1.0]
        obs = sample_observability_matrix(sys_model, times)
        weight = weight_matrix(times)
        retention = 0.5
        floor = gramian_floor(sys_model, 1.0, 1.0, grid_step=2e-3)
        margin = eigenvalue_margin(obs, weight)
        assert margin >= retention * floor  # certificate hypothesis
        noise = 0.01
        eps_star = estimation_error_bound(1.0, floor, retention, noise)

        target = np.array([0.4, -1.2])
        clean = obs @ target
        exact = reconstruct_state(obs, weight, clean)
        assert float(np.linalg.norm(exact - target)) < 1e-9

        rng = np.random.default_rng(2309)
        draws = rng.uniform(-noise, noise, size=(1000, len(times)))
        # Vectorized reconstruction: same solve as reconstruct_state.
        solve = np.linalg.pinv(weight @ obs) @ weight
        errors = np.linalg.norm(draws @ solve.T, axis=1)
        worst = float(errors.max())
        assert worst <= eps_star, f"worst error {worst:.6f} over bound {eps_star:.6f}"
        # Spot-check the vectorization against the public routine.
        for k in (0, 499, 999):
            direct = reconstruct_state(obs, weight, clean + draws[k])
            assert float(np.linalg.norm(direct - target)) == pytest.approx(
                float(errors[k]), rel=1e-9, abs=1e-12
            )

    run_criterion(7, "1000-draw noise certificate and noiseless exactness", 60.0, body)


# --- 8: aliased versus admissible oscillator sampling ---------------------------------


def test_criterion_08_oscillator_aliasing():
    def body():
        osc = LinearTimeVaryingSystem.lti(
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]])
        )
        pi = math.pi
        aliased = ((0.0, pi, 2.0 * pi),)
        verdict = check_schedule_observability(osc, aliased, "equidistant")
        assert not verdict.passed
        obs = sample_observability_matrix(osc, [0.0, pi, 2.0 * pi])
        weight = weight_matrix([0.0, pi, 2.0 * pi])
        assert np.linalg.matrix_rank(weight @ obs) == 1
        assert eigenvalue_margin(obs, weight) < 1e-12

        fine = ((0.0, pi / 2.0, pi),)
        verdict = check_schedule_observability(osc, fine, "equidistant")
        assert verdict.passed, f"messages: {verdict.messages}"
        obs = sample_observability_matrix(osc, [0.0, pi / 2.0, pi])
        weight = weight_matrix([0.0, pi / 2.0, pi])
        assert np.linalg.matrix_rank(weight @ obs) == 2
        assert eigenvalue_margin(obs, weight) > 1e-3

    run_criterion(8, "gap pi aliases the oscillator, pi/2 does not", 10.0, body)


# --- 9: benchmark ordering over seeded realizations -----------------------------------


def test_criterion_09_benchmark_ordering():
    def body():
        cfg = default_config(seed=2026)
        checkpoints = [10, 40, 160]
        report = run_experiment(cfg, 10, checkpoints, jobs=4)
        summary = report.summary()["checkpoints"]
        for cp in checkpoints:
            entry = summary[str(cp)]
            assert entry["dynamic_mean"] > entry["static_mean"], (
                f"checkpoint {cp}: dynamic {entry['dynamic_mean']:.4f} "
                f"not above static {entry['static_mean']:.4f}"
            )
        # Determinism per seed: recomputing one realization reproduces its
        # rows bit for bit.
        again = run_single_realization(cfg, 4, checkpoints)
        original = [r for r in report.rows if r.realization == 4]
        assert again == original

    run_criterion(
        9, "dynamic beats static at every checkpoint, reproducibly", 60.0, body
    )


# --- 10: critical-rate inversion -------------------------------------------------------


def test_criterion_10_critical_rate_round_trip():
    def body():
        for y in (1e-6, 1e-3, 1.0, 1e3):
            x = invert_critical_rate(y)
            back = critical_rate(x)
            assert back == pytest.approx(y, rel=1e-10), f"y={y}: round trip {back}"
        probe = [critical_rate(10.0**-k) for k in range(0, 9)]
        assert all(b < a for a, b in zip(probe, probe[1:]))
        assert probe[-1] < 1e-15

    run_criterion(10, "critical-rate inversion round trip and decay", 10.0, body)
