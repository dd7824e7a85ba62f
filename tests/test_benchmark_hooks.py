"""The names the benchmark in ``perfbench/`` looks up in the package.

The benchmark's trace mode routes package functions through timing wrappers
by name.  The tests below never run a traced pass, so without this check a
renamed or deleted function would break only ``perfbench/run.py --trace 1``.
"""

import os
from pathlib import Path

import pytest

import ambiflow.ambiguity as amb
import ambiflow.cli as cli
import ambiflow.concentration as conc
import ambiflow.distribution as dist
import ambiflow.observability as obs
import ambiflow.uav_scenario as uav

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``tracer``, ``workloads`` and ``verify_tracer`` modules."""
    # ``verify_tracer`` pins the BLAS thread counts in os.environ on import.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            monkeypatch.setenv(var, os.environ[var])
        else:
            monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import verify_tracer
    import workloads

    return tracer, workloads, verify_tracer


def test_trace_wrappers_install_and_restore(perfbench):
    tracer, workloads, _ = perfbench
    modules = (amb, cli, conc, dist, obs, uav)
    before = [dict(vars(m)) for m in modules]
    trace = tracer.Tracer("names")
    try:
        workloads.install_uav_wrappers(trace, [])
        workloads.install_ball_wrappers(trace)
        assert [dict(vars(m)) for m in modules] != before
    finally:
        trace.restore()
    assert [dict(vars(m)) for m in modules] == before


def test_verify_tracer_names_exist(perfbench):
    _, _, verify_tracer = perfbench
    for name in (*verify_tracer.SPANS, "default_config"):
        assert callable(getattr(uav, name, None)), name


@pytest.mark.parametrize("kind", ["lti", "ltv"])
def test_ball_certificate_holds(perfbench, kind):
    # The benchmark's per-system certificate path, checked as ``check_ball``
    # checks it, on the first system of each kind that the workload does not
    # screen out (at seed 1 the first LTI system's gap bound is below the
    # workload's cut-off).
    _, workloads, _ = perfbench
    specs = [s for s in workloads.make_ball_inputs(1).systems if s.kind == kind]
    cert = next(c for c in (workloads._certificate(s, None) for s in specs) if "bound" in c)
    assert cert["kind"] == kind
    assert cert["margin"] >= workloads.RETENTION * cert["floor"]
    assert cert["error"] <= cert["error_bound"]
