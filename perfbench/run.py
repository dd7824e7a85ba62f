"""ambiflow benchmark: one seeded workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload uav-pursuit --seed 1 --seconds 32 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Progress and a readable report go to stdout; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: uav-pursuit's two workers would otherwise run
# two OpenBLAS threads each on a two-core machine.  Children inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, span_cost_us

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("uav-pursuit", "uav-wide", "ball-pipeline")
SETUP_REPEATS = 7
BALL_TRACE_PAIRS = 3

E2E = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# ``wall_ref_s`` is the median pass time rescaled to a host on which one
# sample of ``probe.py`` takes REF_PROBE_S seconds of CPU time.
REF_PROBE_S = 0.006

# Per-layer metric -> (unit, better, end-to-end metric it should move, workloads).
LAYER_METRICS = {
    "uav.solve_dro.calls": ("count", "lower", "wall_ref_s", "uav-pursuit uav-wide"),
    "uav.solve_dro.busy_s": ("s", "lower", "wall_ref_s", "uav-pursuit uav-wide"),
    "uav.solve_dro.self_s": ("s", "lower", "wall_ref_s", "uav-pursuit uav-wide"),
    "uav.solve_dro.distinct_frac": ("ratio", "higher", "wall_ref_s", "uav-pursuit"),
    "uav.inner_lp.calls": ("count", "lower", "wall_ref_s", "uav-wide uav-pursuit"),
    "uav.inner_lp.busy_s": ("s", "lower", "wall_ref_s", "uav-wide uav-pursuit"),
    "uav.inner_lp.us_per_call": ("us", "lower", "wall_ref_s", "uav-wide uav-pursuit"),
    "uav.evals_per_solve": ("count", "lower", "wall_ref_s (dro_value_mean held)", "uav-pursuit uav-wide"),
    "uav.reconstruct.busy_s": ("s", "lower", "wall_ref_s", "uav-pursuit uav-wide"),
    "uav.candidate_support.busy_s": ("s", "lower", "wall_ref_s", "uav-pursuit uav-wide"),
    "uav.dro_objective.busy_s": ("s", "lower", "wall_ref_s", "uav-pursuit uav-wide"),
    "uav.realization.imbalance": ("ratio", "lower", "wall_ref_s", "uav-pursuit"),
    "uav.parallel_efficiency": ("ratio", "higher", "wall_ref_s", "uav-pursuit"),
    "uav.dro_value_mean": ("value", "higher", "plan quality", "uav-pursuit uav-wide"),
    "cli.cmd_uav.self_s": ("s", "lower", "wall_ref_s", "uav-pursuit"),
    "obs.robust_sampling_bound.lti.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.robust_sampling_bound.ltv.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.gramian_floor.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.max_kernel_derivative.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.observability_gramian.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.expm.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.a_at.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "obs.reconstruct_state.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "dyn.integrate_flow.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "dyn.integrate_flow.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "dyn.field_evals": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "dyn.us_per_field_eval": ("us", "lower", "wall_ref_s", "ball-pipeline"),
    "amb.cumulative_empirical.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "amb.effective_horizon.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "amb.horizon.kappa_checked": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "amb.quad.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "conc.ambiguity_radius.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "conc.invert_critical_rate.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "conc.invert_critical_rate.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "dist.assignment.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "dist.assignment.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "dist.lp.calls": ("count", "lower", "wall_ref_s", "ball-pipeline"),
    "dist.lp.busy_s": ("s", "lower", "wall_ref_s", "ball-pipeline"),
    "dist.lp_eq_matrix_mb": ("MB", "lower", "peak_rss_mb", "ball-pipeline"),
    "ball.gap_bound_median": ("s", "higher", "certificate quality", "ball-pipeline"),
    "trace.untraced_wall_s": ("s", "lower", "wall_ref_s", "all"),
    "trace.traced_wall_s": ("s", "lower", "wall_ref_s", "all"),
    "trace.overhead_s": ("s", "lower", "none (cost of tracing)", "all"),
    "trace.overhead_frac": ("ratio", "lower", "none (cost of tracing)", "all"),
    "trace.spans": ("count", "lower", "none (cost of tracing)", "all"),
    "trace.span_cost_us": ("us", "lower", "none (cost of tracing)", "all"),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import the program from ``src/`` of this checkout, or exit 2."""
    if not (SRC / "ambiflow" / "__init__.py").is_file():
        print(f"error: no ambiflow sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def make_inputs(wl, workload: str, seed: int):
    if workload == "ball-pipeline":
        return wl.make_ball_inputs(seed)
    return wl.make_uav_inputs(workload, seed, OUT / "work")


# --- measurement helpers ------------------------------------------------------------


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def repeat_for(seconds: float, fn) -> tuple[list[float], list[float], list]:
    """Closed loop: run passes back to back while the next one fits in ``seconds``.

    ``probe.py`` runs beside the passes.  Returns the pass times, the mean
    probe sample of each pass, and the pass outputs.
    """
    samples_path = OUT / "probe.txt"
    probe = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(samples_path)], stdout=subprocess.PIPE, text=True
    )
    try:
        probe.stdout.readline()  # the probe is warm before the first pass
        spans, outputs = [], []
        start = time.monotonic()
        while True:
            begin = time.monotonic()
            outputs.append(fn())
            spans.append((begin, time.monotonic()))
            if spans[-1][1] - start + statistics.median(b - a for a, b in spans) > seconds:
                break
    finally:
        probe.terminate()
        probe.communicate()
    text = samples_path.read_text(encoding="utf-8")
    samples = [tuple(map(float, line.split())) for line in text.split("\n")[:-1]]
    times, probes = [], []
    for begin, end in spans:
        inside = [cpu for at, cpu in samples if begin <= at <= end]
        if not inside:
            raise RuntimeError("the host-speed probe took no sample during a pass")
        times.append(end - begin)
        probes.append(statistics.fmean(inside))
    return times, probes, outputs


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh processes timed from spawn to the end of input generation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process exited with {done.returncode}")
    return times


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus ``workers`` pool workers.

    Each worker is charged the largest worker peak seen; RSS counts pages a
    forked worker shares with its parent in both.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * kids) / 1024.0


def high_percentile(times: list[float]) -> str:
    """The highest percentile with at least ten passes beyond it."""
    n = len(times)
    if n < 11:
        return f"none (needs >= 11 passes, have {n})"
    return f"p{100.0 * (1.0 - 10.0 / n):.1f} = {sorted(times)[n - 11]:.4f} s"


def machine() -> dict:
    import numpy
    import scipy

    def blas(cfg) -> str:
        try:
            return cfg(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# --- traced runs -----------------------------------------------------------------------


def layer_metrics(tracer, dro_keys: list) -> dict[str, float]:
    s = tracer.summary()
    c = tracer.counters

    def get(name: str, key: str) -> float:
        return float(s.get(name, {}).get(key, 0.0))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {name: 0.0 for name in LAYER_METRICS}
    for span in (
        "uav.solve_dro",
        "uav.inner_lp",
        "dyn.integrate_flow",
        "dist.assignment",
        "dist.lp",
        "conc.invert_critical_rate",
    ):
        m[span + ".calls"] = get(span, "calls")
        m[span + ".busy_s"] = get(span, "busy_s")
    m["uav.solve_dro.self_s"] = get("uav.solve_dro", "self_s")
    m["uav.solve_dro.distinct_frac"] = ratio(len(set(dro_keys)), len(dro_keys))
    m["uav.inner_lp.us_per_call"] = 1e6 * ratio(m["uav.inner_lp.busy_s"], m["uav.inner_lp.calls"])
    m["uav.evals_per_solve"] = ratio(m["uav.inner_lp.calls"], m["uav.solve_dro.calls"])
    for name in ("reconstruct", "candidate_support", "dro_objective"):
        m[f"uav.{name}.busy_s"] = get(f"uav.{name}", "busy_s")
    realizations = tracer.durations("uav.realization")
    if realizations:
        m["uav.realization.imbalance"] = max(realizations) / statistics.fmean(realizations)
    m["cli.cmd_uav.self_s"] = get("cli.cmd_uav", "self_s")
    for kind in ("lti", "ltv"):
        m[f"obs.robust_sampling_bound.{kind}.busy_s"] = get(f"obs.robust_sampling_bound.{kind}", "busy_s")
    for name in ("gramian_floor", "max_kernel_derivative", "reconstruct_state"):
        m[f"obs.{name}.busy_s"] = get(f"obs.{name}", "busy_s")
    m["obs.observability_gramian.calls"] = get("obs.observability_gramian", "calls")
    m["obs.expm.calls"] = get("obs.expm", "calls")
    m["obs.a_at.calls"] = c.get("obs.a_at.calls", 0.0)
    m["dyn.field_evals"] = c.get("dyn.field_evals", 0.0)
    m["dyn.us_per_field_eval"] = 1e6 * ratio(m["dyn.integrate_flow.busy_s"], m["dyn.field_evals"])
    m["amb.cumulative_empirical.busy_s"] = get("amb.cumulative_empirical", "busy_s")
    m["amb.effective_horizon.busy_s"] = get("amb.effective_horizon", "busy_s")
    m["amb.horizon.kappa_checked"] = c.get("amb.horizon.kappa_checked", 0.0)
    m["amb.quad.calls"] = get("amb.quad", "calls")
    m["conc.ambiguity_radius.calls"] = get("conc.ambiguity_radius", "calls")
    m["dist.lp_eq_matrix_mb"] = c.get("dist.lp_eq_matrix_mb", 0.0)
    m["trace.spans"] = float(len(tracer.spans))
    return m


def uav_traced(wl, inputs, run_id: str) -> tuple[dict, list, Tracer]:
    """Untraced pass at the workload's jobs, untraced and traced passes at jobs=1.

    Spans are recorded in-process only, so the traced pass runs at jobs=1 on
    the same inputs; it is also the single-process baseline for the
    parallel efficiency of uav-pursuit.
    """
    outputs = []
    wall_jobs, out = timed(lambda: wl.run_uav_pass(inputs, inputs.jobs, "jobs"))
    outputs.append(out)
    if inputs.jobs > 1:
        wall_one, out = timed(lambda: wl.run_uav_pass(inputs, 1, "one"))
        outputs.append(out)
    else:
        wall_one = wall_jobs
    tracer = Tracer(run_id)
    dro_keys: list = []
    wl.install_uav_wrappers(tracer, dro_keys)
    try:
        wall_traced, out = timed(lambda: wl.run_uav_pass(inputs, 1, "traced"))
    finally:
        tracer.restore()
    outputs.append(out)
    m = layer_metrics(tracer, dro_keys)
    if inputs.jobs > 1:
        m["uav.parallel_efficiency"] = sum(tracer.durations("uav.realization")) / (inputs.jobs * wall_jobs)
    m["uav.dro_value_mean"] = wl.dro_value_mean(outputs[0]["csv"])
    m["trace.untraced_wall_s"] = wall_one
    m["trace.traced_wall_s"] = wall_traced
    return m, outputs, tracer


def ball_traced(wl, inputs, run_id: str) -> tuple[dict, list, Tracer]:
    """A warm-up pass, then alternating untraced and traced passes."""
    outputs = [wl.run_ball_pass(inputs, None)]
    plain, traced = [], []
    for i in range(BALL_TRACE_PAIRS):
        dt, out = timed(lambda: wl.run_ball_pass(inputs, None))
        plain.append(dt)
        outputs.append(out)
        tracer = Tracer(f"{run_id}-pass{i}")
        wl.install_ball_wrappers(tracer)
        try:
            dt, out = timed(lambda: wl.run_ball_pass(inputs, tracer))
        finally:
            tracer.restore()
        traced.append(dt)
        outputs.append(out)
    m = layer_metrics(tracer, [])
    m["ball.gap_bound_median"] = wl.gap_bound_median(outputs[0])
    m["trace.untraced_wall_s"] = statistics.median(plain)
    m["trace.traced_wall_s"] = statistics.median(traced)
    return m, outputs, tracer


# --- main ------------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    wl = load_workloads()
    inputs = make_inputs(wl, args.workload, args.seed)
    if args.setup_only:
        return 0
    uav_workload = args.workload != "ball-pipeline"
    OUT.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = machine()
    print(f"# {run_id}: closed loop, one pass at a time; machine {json.dumps(host)}", flush=True)

    passes = 0
    pass_failures = 0
    try:
        if args.trace:
            traced_run = uav_traced if uav_workload else ball_traced
            metrics, outputs, tracer = traced_run(wl, inputs, run_id)
            metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
            metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / metrics["trace.untraced_wall_s"]
            metrics["trace.span_cost_us"] = span_cost_us()
            tracer.write(OUT / f"{run_id}.spans.csv")
        else:
            if uav_workload:
                one_pass = functools.partial(wl.run_uav_pass, inputs, inputs.jobs, "run")
            else:
                one_pass = functools.partial(wl.run_ball_pass, inputs, None)
            workers = inputs.jobs if uav_workload and inputs.jobs > 1 else 0
            times, probes, outputs = repeat_for(args.seconds, one_pass)
            scaled = [t * REF_PROBE_S / p for t, p in zip(times, probes)]
            metrics = {
                "wall_ref_s": statistics.median(scaled),
                "wall_s": statistics.median(times),
                "peak_rss_mb": peak_rss_mb(workers),
            }
            setup = measure_setup(args.workload, args.seed)
            metrics["setup_s"] = statistics.median(setup)
            if uav_workload:
                quality = f"dro_value_mean     {wl.dro_value_mean(outputs[0]['csv']):.6f}"
            else:
                quality = f"gap_bound_median   {wl.gap_bound_median(outputs[0]):.6g} s"
        passes = len(outputs)
        checks = wl.check_uav(args.workload, outputs) if uav_workload else wl.check_ball(outputs)
    except Exception as exc:  # the program under test failed: report, do not crash
        import traceback

        traceback.print_exc()
        pass_failures += 1
        checks = [(f"workload raised {type(exc).__name__}: {exc}", False)]
        metrics = {}
    finally:
        shutil.rmtree(OUT / "work", ignore_errors=True)

    failed = pass_failures + sum(1 for _, ok in checks if not ok)
    attempted = passes + pass_failures + len(checks)
    for label, ok in checks:
        if not ok:
            print(f"CHECK FAILED: {label}", flush=True)

    if args.trace:
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        for name, (unit, _, e2e, where) in LAYER_METRICS.items():
            if name in metrics:
                print(f"{name:40s} {metrics[name]:>14.6g} {unit:6s} -> {e2e} on {where}")
    else:
        units = E2E
        if "wall_s" in metrics:
            print(f"wall_s       {metrics['wall_s']:.4f} s   median of {len(times)} passes "
                  f"{[round(t, 4) for t in times]}; highest percentile: {high_percentile(times)}")
            print(f"wall_ref_s   {metrics['wall_ref_s']:.4f} s   median of the passes at the reference host speed "
                  f"{[round(t, 4) for t in scaled]}; mean probe sample per pass "
                  f"{[round(1e3 * p, 3) for p in probes]} ms, reference {1e3 * REF_PROBE_S:g} ms")
            print(f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setup)} set-ups")
            print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB")
            print(f"{quality} (higher is better)")
    print(f"ops_failed_frac  {failed}/{attempted} = {failed / attempted:.4g}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units if k in metrics},
    }
    record = dict(result, run=run_id, machine=host, checks=checks,
                  layer_map={k: {"moves": v[2], "on": v[3]} for k, v in LAYER_METRICS.items()})
    if not args.trace and "wall_s" in metrics:
        record.update(wall_s=metrics["wall_s"], pass_times=times,
                      probe_s=probes, setup_times=setup)
    (OUT / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
