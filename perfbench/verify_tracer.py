"""Check the tracer's call counts against cProfile on the same inputs.

    python3 perfbench/verify_tracer.py

Runs realization 4 of the criterion-9 scenario (seed 2026, checkpoints
10/40/160) once under cProfile and once with the benchmark's uav wrappers,
then compares call counts per function and the rows the two runs produced.
Exits 1 on any difference.  Takes about a minute on one core.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ambiflow.uav_scenario as uav  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import install_uav_wrappers  # noqa: E402

REALIZATION = 4
CHECKPOINTS = (10, 40, 160)
# uav_scenario function -> span name the wrappers give it.
SPANS = {
    "run_single_realization": "uav.realization",
    "solve_dro": "uav.solve_dro",
    "constrained_min_expectation": "uav.inner_lp",
    "candidate_support": "uav.candidate_support",
    "reconstruct_red_state": "uav.reconstruct",
    "dro_objective": "uav.dro_objective",
}


def main() -> int:
    cfg = uav.default_config(seed=2026)
    profile = cProfile.Profile()
    profile.enable()
    profiled_rows = uav.run_single_realization(cfg, REALIZATION, CHECKPOINTS)
    profile.disable()
    profiled = {
        func: ncalls
        for (path, _, func), (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items()
        if path.endswith("uav_scenario.py") and func in SPANS
    }

    tracer = Tracer("verify")
    keys: list = []
    install_uav_wrappers(tracer, keys)
    try:
        traced_rows = uav.run_single_realization(cfg, REALIZATION, CHECKPOINTS)
    finally:
        tracer.restore()
    summary = tracer.summary()

    ok = traced_rows == profiled_rows
    print(f"{'function':30s} {'cProfile':>10s} {'tracer':>10s}")
    for func, span in SPANS.items():
        want = profiled.get(func, 0)
        got = int(summary.get(span, {}).get("calls", 0))
        ok = ok and want == got
        print(f"{func:30s} {want:>10d} {got:>10d}{'' if want == got else '  MISMATCH'}")
    print(f"distinct solve_dro keys: {len(set(keys))} of {len(keys)}")
    print(f"rows identical: {traced_rows == profiled_rows}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
