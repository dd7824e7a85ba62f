"""The benchmark workloads: inputs, one pass, trace wrappers and output checks.

For the uav workloads and for ball-pipeline alike:

* ``make_*_inputs`` builds everything a pass needs from the seed; it is the
  input generation that ``setup_s`` times.
* ``run_*_pass`` is one pass through the program.
* ``install_*_wrappers`` routes the layer functions through a ``Tracer``.
* ``check_*`` returns (label, passed) pairs for the outputs of all passes of
  a run; each failed check is one failed operation.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import ambiflow.ambiguity as amb
import ambiflow.cli as cli
import ambiflow.concentration as conc
import ambiflow.distribution as dist
import ambiflow.observability as obs
import ambiflow.uav_scenario as uav
from ambiflow.concentration import RadiusConfig
from ambiflow.distribution import DiscreteDistribution
from ambiflow.dynamics import FlowErrorModel, VectorField, builtin_field

from tracer import Tracer


class Counted:
    """A callable that counts its calls into a tracer counter."""

    def __init__(self, fn, tracer: Tracer, counter: str) -> None:
        self.fn = fn
        self.tracer = tracer
        self.counter = counter

    def __call__(self, *args):
        self.tracer.counters[self.counter] += 1
        return self.fn(*args)


# --- uav workloads ---------------------------------------------------------------

# Both uav workloads run fixed scenarios: the criterion-9 experiment at
# scenario seed 2026 and an 8-phase variant at seed 7.  One realization costs
# 11-22 s depending on the scenario seed, and a run holds only one or two
# passes, so deriving the scenario seed from the workload seed would make the
# spread between runs reflect the draw, not the code.
UAV_CONFIGS = {
    "uav-pursuit": {
        "scenario": {"seed": 2026},
        "realizations": 2,
        "checkpoints": [10, 40, 160],
        "time_grid": 200,
        "solver_starts": 20,
    },
    "uav-wide": {
        "scenario": {
            "seed": 7,
            "theta_support": [
                float(t) for t in np.linspace(2.6 * math.pi / 4.0, 4.8 * math.pi / 4.0, 8)
            ],
            "theta_probabilities": [1.0 / 8.0] * 8,
        },
        "realizations": 1,
        "checkpoints": [10, 40],
        "time_grid": 200,
        "solver_starts": 20,
    },
}
UAV_JOBS = {"uav-pursuit": 2, "uav-wide": 1}


@dataclass
class UavInputs:
    workload: str
    config_path: Path
    work_dir: Path
    jobs: int


def make_uav_inputs(workload: str, seed: int, work_dir: Path) -> UavInputs:
    work_dir.mkdir(parents=True, exist_ok=True)
    path = work_dir / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(UAV_CONFIGS[workload], sort_keys=True), encoding="utf-8")
    return UavInputs(workload, path, work_dir, UAV_JOBS[workload])


def _merged_key(known_state, ball, *args, **kwargs) -> tuple:
    points, inverse = np.unique(ball.center.points, axis=0, return_inverse=True)
    weights = np.zeros(len(points))
    np.add.at(weights, inverse.ravel(), ball.center.weights)
    return (
        np.asarray(known_state, dtype=float).tobytes(),
        points.tobytes(),
        weights.tobytes(),
        float(ball.radius),
        float(ball.order),
    )


def install_uav_wrappers(tracer: Tracer, dro_keys: list) -> None:
    tracer.wrap(cli, "cmd_uav", "cli.cmd_uav")
    tracer.wrap(cli, "run_experiment", "uav.run_experiment")
    tracer.wrap(uav, "run_single_realization", "uav.realization")
    tracer.wrap(
        uav,
        "solve_dro",
        "uav.solve_dro",
        before=lambda *a, **k: dro_keys.append(_merged_key(*a, **k)),
    )
    tracer.wrap(uav, "constrained_min_expectation", "uav.inner_lp")
    tracer.wrap(uav, "candidate_support", "uav.candidate_support")
    tracer.wrap(uav, "reconstruct_red_state", "uav.reconstruct")
    tracer.wrap(uav, "dro_objective", "uav.dro_objective")


def run_uav_pass(inputs: UavInputs, jobs: int, tag: str) -> dict:
    """One ``ambiflow uav`` invocation through ``cli.main``; returns its rows."""
    out_dir = inputs.work_dir / f"{inputs.workload}-{tag}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    argv = ["uav", "--config", str(inputs.config_path), "--out", str(out_dir)]
    argv += ["--jobs", str(jobs)]
    code = cli.main(argv)
    csv_text = (out_dir / "uav.csv").read_text(encoding="utf-8") if code == 0 else ""
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"exit_code": code, "csv": csv_text}


def uav_rows(csv_text: str) -> list[dict]:
    return list(csv.DictReader(csv_text.splitlines()))


def dro_value_mean(csv_text: str) -> float:
    """Mean robust objective over all rows; 0 when a failed pass left none."""
    values = [float(r["dro_value"]) for r in uav_rows(csv_text)]
    return statistics.fmean(values) if values else 0.0


def check_uav(workload: str, outputs: list[dict]) -> list[tuple[str, bool]]:
    checks = [(f"pass {i} exit code 0", o["exit_code"] == 0) for i, o in enumerate(outputs)]
    first = outputs[0]["csv"]
    rows = uav_rows(first)
    checks.append(("rows present", bool(rows)))
    numeric = ("radius", "dro_value", "min_true_distance")
    checks.append(
        ("all values finite", all(math.isfinite(float(r[k])) for r in rows for k in numeric))
    )
    checks.append(
        ("passes agree bit for bit", all(o["csv"] == first for o in outputs[1:]))
    )
    if workload == "uav-pursuit":
        for cp in sorted({int(r["checkpoint"]) for r in rows}):
            means = {
                mode: statistics.fmean(
                    float(r["dro_value"])
                    for r in rows
                    if int(r["checkpoint"]) == cp and r["mode"] == mode
                )
                for mode in ("dynamic", "static")
            }
            checks.append(
                (f"checkpoint {cp}: dynamic mean > static mean", means["dynamic"] > means["static"])
            )
    return checks


# --- ball-pipeline -----------------------------------------------------------------

WINDOW_LOW, WINDOW_UP, HORIZON, RETENTION = 0.5, 0.75, 1.5, 0.5
OUTPUT_NOISE = 0.01
N_LTI, N_LTV = 260, 40
GRID_LTI, GRID_LTV = 0.01, 0.05
MIN_GAP_BOUND = 4e-3        # finer schedules fall outside the ensemble
N_ATOMS, N_MEMBERS, TRACK_HORIZON, TRACK_GAIN = 300, 30, 2.0, 4.0
TRANSPORT_ORDER = 2.0
FLOW_RATE = 1.0              # envelope rate for the pushforward term
SWEEP_N = 400
# (p, d) for the supercritical, critical and subcritical concentration regimes.
REGIMES = ((1.0, 1), (1.0, 2), (2.0, 5))


@dataclass
class SystemSpec:
    kind: str               # "lti" or "ltv"
    params: tuple
    span: float
    start: float
    state: np.ndarray
    noise_unit: np.ndarray  # uniform(-1, 1) draws, scaled by the output noise


@dataclass
class BallInputs:
    systems: list[SystemSpec]
    atoms: np.ndarray           # (K, 5) initial states of the true law
    atom_weights: np.ndarray    # (K,)
    member_atoms: np.ndarray    # (N,) atom index of each member
    member_times: np.ndarray    # (N,) sorted last-sample times
    sweep_models: list[tuple[float, float, float]]  # (magnitude, rate, delta) per regime


def make_ball_inputs(seed: int) -> BallInputs:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBA11)))
    systems = []
    for kind, count in (("ltv", N_LTV), ("lti", N_LTI)):
        for i in range(count):
            if kind == "lti":
                d = 2 + i % 2
                params = (rng.uniform(-1.0, 1.0, (d, d)), rng.uniform(-1.0, 1.0, (1, d)))
            else:
                d = 2
                params = tuple(
                    float(v)
                    for v in (rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
                )
            span = float(rng.uniform(WINDOW_LOW, WINDOW_UP))
            start = float(rng.uniform(0.0, HORIZON - span))
            # Enough noise draws for the finest admissible schedule.
            n_max = math.ceil(WINDOW_UP / (0.95 * MIN_GAP_BOUND)) + 1
            systems.append(
                SystemSpec(kind, params, span, start, rng.standard_normal(d), rng.uniform(-1, 1, n_max))
            )
    phases = rng.uniform(0.0, 2.0 * math.pi, N_ATOMS)
    radii = 1.0 + 0.2 * rng.uniform(-1.0, 1.0, N_ATOMS)
    atoms = np.column_stack(
        [radii * np.cos(phases), radii * np.sin(phases), rng.uniform(-0.5, 0.5, (N_ATOMS, 2)), phases]
    )
    weights = rng.dirichlet(np.ones(N_ATOMS))
    members = rng.choice(N_ATOMS, size=N_MEMBERS, p=weights)
    # Staggered last-sample times, one per equal slot of [0, horizon], so the
    # total integration length barely depends on the seed.
    times = (np.arange(N_MEMBERS) + rng.uniform(0.0, 1.0, N_MEMBERS)) * TRACK_HORIZON / N_MEMBERS
    sweeps = [
        (float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.15)), float(rng.uniform(0.005, 0.015)))
        for _ in REGIMES
    ]
    return BallInputs(systems, atoms, weights, members, times, sweeps)


def _ltv_system(w1: float, w2: float, b: float, tracer: Tracer | None):
    def a_fn(t):
        return np.array([[0.0, 1.0], [-w1 - b * math.sin(t), -w2 * math.cos(t)]])

    return obs.LinearTimeVaryingSystem.time_varying(
        a_fn=a_fn if tracer is None else Counted(a_fn, tracer, "obs.a_at.calls"),
        c_fn=lambda t: np.array([[1.0, b * math.sin(2.0 * t)]]),
        c_dot_fn=lambda t: np.array([[0.0, 2.0 * b * math.cos(2.0 * t)]]),
    )


def _system(spec: SystemSpec, tracer: Tracer | None):
    if spec.kind == "lti":
        return obs.LinearTimeVaryingSystem.lti(*spec.params)
    return _ltv_system(*spec.params, tracer)


def tracker_flow(states: np.ndarray, t0: float | np.ndarray, t: float) -> np.ndarray:
    """Closed-form flow of the orbit-tracker field from time t0 to time t."""
    g = TRACK_GAIN
    amp = g * g / (g * g - 1.0)
    x0, y0, vx0, vy0, ph = (states[:, k] for k in range(5))
    dt = t - np.asarray(t0, dtype=float)
    ck, sk = np.cos(g * dt), np.sin(g * dt)
    cs, ss = np.cos(t0 + ph), np.sin(t0 + ph)
    ct, st = np.cos(t + ph), np.sin(t + ph)
    ax, bx = x0 - amp * cs, (vx0 + amp * ss) / g
    ay, by = y0 - amp * ss, (vy0 - amp * cs) / g
    return np.column_stack(
        [
            amp * ct + ax * ck + bx * sk,
            amp * st + ay * ck + by * sk,
            -amp * st - ax * g * sk + bx * g * ck,
            amp * ct - ay * g * sk + by * g * ck,
            ph,
        ]
    )


def install_ball_wrappers(tracer: Tracer) -> None:
    def lp_size(source, target, *args, **kwargs):
        if _transport_path(source, target) == "dist.lp":
            n, m = source.n_points, target.n_points
            mb = (n + m) * n * m * 8 / 2**20
            tracer.counters["dist.lp_eq_matrix_mb"] = max(tracer.counters["dist.lp_eq_matrix_mb"], mb)

    tracer.wrap(
        obs,
        "robust_sampling_bound",
        lambda s, *a, **k: "obs.robust_sampling_bound." + ("lti" if s.is_lti else "ltv"),
    )
    for name in (
        "gramian_floor",
        "max_kernel_derivative",
        "observability_gramian",
        "expm",
        "reconstruct_state",
        "sample_observability_matrix",
        "eigenvalue_margin",
    ):
        tracer.wrap(obs, name, "obs." + name)
    tracer.wrap(amb, "integrate_flow", "dyn.integrate_flow")
    tracer.wrap(amb, "cumulative_empirical", "amb.cumulative_empirical")
    tracer.wrap(amb, "effective_horizon", "amb.effective_horizon")
    tracer.wrap(amb, "total_radius", "amb.total_radius")
    tracer.wrap(amb, "quad", "amb.quad")
    tracer.wrap(amb, "ambiguity_radius", "conc.ambiguity_radius")
    tracer.wrap(conc, "invert_critical_rate", "conc.invert_critical_rate")
    tracer.wrap(dist, "optimal_plan", lambda s, t, *a, **k: _transport_path(s, t), before=lp_size)


def _transport_path(source: DiscreteDistribution, target: DiscreteDistribution) -> str:
    # The input test ``optimal_plan`` uses to pick the assignment solver.
    n, m = source.n_points, target.n_points
    uniform = (
        n == m
        and np.allclose(source.weights, 1.0 / n, atol=1e-12)
        and np.allclose(target.weights, 1.0 / n, atol=1e-12)
    )
    return "dist.assignment" if uniform else "dist.lp"


def _certificate(spec: SystemSpec, tracer: Tracer | None) -> dict:
    sys_model = _system(spec, tracer)
    grid = GRID_LTI if spec.kind == "lti" else GRID_LTV
    try:
        bound = obs.robust_sampling_bound(
            sys_model, WINDOW_LOW, WINDOW_UP, HORIZON, RETENTION, grid_step=grid
        )
    except ArithmeticError:
        return {"kind": spec.kind, "screened": "unobservable on a window"}
    if not math.isfinite(bound) or bound < MIN_GAP_BOUND:
        return {"kind": spec.kind, "screened": f"gap bound {bound:.3g}"}
    n_times = max(2, math.ceil(spec.span / (0.95 * bound)) + 1)
    times = list(np.linspace(spec.start, spec.start + spec.span, n_times))
    o = obs.sample_observability_matrix(sys_model, times)
    w = obs.weight_matrix(times)
    floor = obs.gramian_floor(sys_model, WINDOW_LOW, HORIZON, grid_step=grid)
    margin = obs.eigenvalue_margin(o, w)
    outputs = o @ spec.state + OUTPUT_NOISE * spec.noise_unit[:n_times]
    recovered = obs.reconstruct_state(o, w, outputs)
    return {
        "kind": spec.kind,
        "bound": bound,
        "floor": floor,
        "margin": margin,
        "error": float(np.linalg.norm(recovered - spec.state)),
        "error_bound": obs.estimation_error_bound(WINDOW_UP, floor, RETENTION, OUTPUT_NOISE),
    }


def run_ball_pass(inputs: BallInputs, tracer: Tracer | None) -> dict:
    out: dict = {}
    out["certificates"] = [_certificate(spec, tracer) for spec in inputs.systems]

    base = builtin_field("orbit_tracker", orbit_radius=1.0, gain=TRACK_GAIN)
    fld = base if tracer is None else VectorField(Counted(base.f, tracer, "dyn.field_evals"), 5, base.name)
    starts = tracker_flow(inputs.atoms[inputs.member_atoms], 0.0, inputs.member_times)
    samples = [(float(t), s) for t, s in zip(inputs.member_times, starts)]
    pushed = amb.cumulative_empirical(samples, TRACK_HORIZON, fld)
    exact = tracker_flow(inputs.atoms[inputs.member_atoms], 0.0, TRACK_HORIZON)
    truth = DiscreteDistribution(tracker_flow(inputs.atoms, 0.0, TRACK_HORIZON), inputs.atom_weights)
    exact_emp = DiscreteDistribution.empirical(exact)
    # The same measure as ``exact_emp`` with one atom split in two halves:
    # non-uniform weights send the pair down the transport-LP path.
    split = DiscreteDistribution(
        np.vstack([exact[:1], exact]),
        np.concatenate([[0.5 / N_MEMBERS], [0.5 / N_MEMBERS], np.full(N_MEMBERS - 1, 1.0 / N_MEMBERS)]),
    )
    p = TRANSPORT_ORDER
    out["errors"] = {}
    for name, target in (("w_truth", truth), ("w_exact_assignment", exact_emp), ("w_exact_lp", split)):
        out[name] = _wasserstein(out["errors"], name, pushed, target)
    out["coupling_bound"] = dist.coupling_upper_bound(pushed.points, exact, p)
    out["pushed"] = pushed.points
    out["truth"] = truth
    delta = float(np.diff(inputs.member_times).max())
    push = amb.pushforward_error(N_MEMBERS, delta, p, FlowErrorModel(magnitude=1.0, rate=FLOW_RATE))
    out["pushforward"] = [(p, FLOW_RATE * delta, N_MEMBERS, push)]

    sweeps = []
    for (p_r, d_r), (magnitude, rate, delta) in zip(REGIMES, inputs.sweep_models):
        cfg = RadiusConfig(p=p_r, d=d_r, beta=0.05)
        model = FlowErrorModel(magnitude=magnitude, rate=rate)
        radii = [amb.total_radius(n, cfg, 2.0, delta, model) for n in range(1, SWEEP_N + 1)]
        horizon = None
        if cfg.regime != "critical":
            horizon = amb.effective_horizon(delta, cfg, 2.0, model)
            if tracer is not None:
                tracer.counters["amb.horizon.kappa_checked"] += horizon.checked
        a = rate * delta
        for n in (2, SWEEP_N):
            out["pushforward"].append(
                (p_r, a, n, amb.pushforward_error(n, delta, p_r, FlowErrorModel(1.0, rate)))
            )
        sweeps.append({"regime": cfg.regime, "radii": radii, "horizon": horizon})
    out["sweeps"] = sweeps
    return out


def _wasserstein(errors: dict, name: str, source, target) -> float:
    """``wasserstein_exact`` as one operation of a pass.

    An error it raises is recorded under ``name``, the distance is NaN and
    the pass goes on; ``check_ball`` counts the error as a failed operation.
    """
    try:
        return dist.wasserstein_exact(source, target, TRANSPORT_ORDER)
    except (ValueError, RuntimeError) as exc:
        errors[name] = f"{type(exc).__name__}: {exc}"
        return math.nan


def _quad_pushforward(p: float, a: float, n: int) -> float:
    """Independent oracle: magnitude-1 pushforward term by adaptive quadrature."""
    if n <= 1 or a == 0.0:
        return 0.0
    val, _ = quad(lambda s: math.expm1(a * s) ** p, 1.0, n, epsabs=0.0, epsrel=1e-12, limit=500)
    return (val / n) ** (1.0 / p)


def gap_bound_median(out: dict) -> float:
    bounds = [c["bound"] for c in out["certificates"] if "bound" in c]
    return statistics.median(bounds) if bounds else 0.0


def check_ball(outputs: list[dict]) -> list[tuple[str, bool]]:
    out = outputs[0]
    checks = []
    certified = [c for c in out["certificates"] if "bound" in c]
    checks.append(("some systems certified", bool(certified)))
    for i, c in enumerate(certified):
        checks.append((f"certificate {i} ({c['kind']}): margin >= retention * floor",
                       c["margin"] >= RETENTION * c["floor"]))
        checks.append((f"certificate {i} ({c['kind']}): error <= estimation_error_bound",
                       c["error"] <= c["error_bound"]))
    errors = out["errors"]
    for name, message in errors.items():
        checks.append((f"{name}: wasserstein_exact raised {message}", False))
    if "w_exact_assignment" not in errors:
        checks.append(("W_p(pushed, exact) <= coupling_upper_bound",
                       out["w_exact_assignment"] <= out["coupling_bound"] * (1.0 + 1e-12) + 1e-15))
        if "w_exact_lp" not in errors:
            scale = max(out["w_exact_assignment"], 1e-12)
            checks.append(("assignment and LP paths agree on a uniform pair",
                           abs(out["w_exact_assignment"] - out["w_exact_lp"]) <= 1e-6 * scale + 1e-12))
    if "w_truth" not in errors:
        # The independent coupling is feasible, so its cost bounds the optimum.
        truth = out["truth"]
        gaps = np.linalg.norm(out["pushed"][:, None, :] - truth.points[None, :, :], axis=2)
        independent = float((truth.weights[None, :] * gaps**TRANSPORT_ORDER).mean(axis=0).sum())
        checks.append(("0 < W_p(pushed, truth) <= independent coupling",
                       0.0 < out["w_truth"] <= independent ** (1.0 / TRANSPORT_ORDER) * (1.0 + 1e-9)))
    for p, a, n, got in out["pushforward"]:
        want = _quad_pushforward(p, a, n)
        checks.append((f"pushforward_error(p={p:g}, a={a:.3g}, n={n}) matches quad",
                       abs(got - want) <= 1e-7 * max(want, 1e-300)))
    for s in out["sweeps"]:
        checks.append((f"{s['regime']} sweep finite", all(math.isfinite(r) for r in s["radii"])))
    checks.append(("passes agree bit for bit", all(_same_ball(out, o) for o in outputs[1:])))
    return checks


def _same_ball(a: dict, b: dict) -> bool:
    keys = ("w_truth", "w_exact_assignment", "w_exact_lp", "coupling_bound")
    return (
        np.array_equal([a[k] for k in keys], [b[k] for k in keys], equal_nan=True)
        and a["errors"] == b["errors"]
        and np.array_equal(a["pushed"], b["pushed"])
        and [c.get("bound") for c in a["certificates"]] == [c.get("bound") for c in b["certificates"]]
        and [s["radii"] for s in a["sweeps"]] == [s["radii"] for s in b["sweeps"]]
    )
