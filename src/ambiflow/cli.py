"""Command-line front end.

One binary, four subcommands, all batch-style: JSON config in, CSV/JSON
artifacts out.

  radius    sweep the total ambiguity radius over sample counts
  horizon   effective sampling horizon with per-step margins
  observe   observability diagnostics for sampled linear systems
  uav       the pursuit-evasion benchmark experiment

The config format lives here alone: each handler reads its config through
``_Section``, which names each field by its dotted path, puts every number
through the library's rule (``_checks.finite``, ``_checks.count``) and rejects
a key that no read asked for.  It computes every result, then one
``_write_run`` call makes the output directory and writes the manifest
(command, the config as read with its defaults, seed, tool version, output
names) and the artifacts, so a run that exits 2 or 3 writes nothing.  The
manifest re-runs to the same bytes: floats carry 17 significant digits and
JSON keys are sorted.

Exit codes: 0 success, 2 bad config (any ValueError; the message to stderr
names the offending field), 3 numerical failure (any ArithmeticError).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Any, Sequence

import numpy as np

import ambiflow
from ambiflow import _checks
from ambiflow._checks import count, finite
from ambiflow.ambiguity import effective_horizon, total_radius
from ambiflow.concentration import RadiusConfig, ambiguity_radius
from ambiflow.dynamics import FlowErrorModel
from ambiflow.observability import (
    _MIN_SINGULAR,
    _SCHEDULE_CRITERIA,
    LinearTimeVaryingSystem,
    builtin_system,
    check_schedule_observability,
    eigenvalue_margin,
    estimation_error_bound,
    gramian_floor,
    reconstruct_state,
    robust_sampling_bound,
    sample_observability_matrix,
    weight_matrix,
)
from ambiflow.uav_scenario import ExperimentRow, ScenarioConfig, run_experiment


# --- config plumbing -----------------------------------------------------------


def _load_config(path: str) -> _Section:
    """The config object at ``path``, ready for its command's reads."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_int=_parse_int)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"config {path} must be a JSON object")
    _reject_non_finite(payload, "")
    return _Section(payload)


def _parse_int(literal: str) -> int | float:
    """A JSON integer literal.  One longer than Python converts (4,300 digits)
    reads as inf, so that ``_reject_non_finite`` names its field."""
    try:
        return int(literal)
    except ValueError:
        return math.inf


def _reject_non_finite(value: Any, where: str) -> None:
    """Name the first boolean or non-finite number in a parsed config.

    ``json`` accepts NaN, Infinity, overflowing literals such as 1e999 and integers
    too large for a float; none is a meaningful setting, and no field takes a boolean.
    """
    if isinstance(value, (int, float)):  # a bool is an int
        finite(f"field '{where}'", value)
    elif isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


class _Section:
    """One JSON object of a config; a key is named ``prefix + key``.  ``read``
    returns ``read(value, where, *args)``, or the value as given for a library
    constructor to check, and records it; an absent key, or a null one whose
    default is None, takes the default, and with no default is missing.
    ``close`` rejects every key no read asked for, in each section opened
    too, and returns the config as read.  Every config number goes through
    ``_number`` or ``_integer``, the library's rule with the field named.
    """

    _REQUIRED = object()

    def __init__(self, data: dict, prefix: str = "") -> None:
        self._data, self._prefix, self._record = data, prefix, {}

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def read(self, key: str, read=None, *args, default=_REQUIRED):
        value = self._data.get(key, default)
        if key in self._data and not (value is None and default is None):
            value = value if read is None else read(value, self._prefix + key, *args)
        elif value is self._REQUIRED:
            raise ValueError(f"missing field '{self._prefix}{key}'")
        self._record[key] = value
        return value

    def section(self, key: str) -> _Section:
        self._record[key] = opened = _Section(self.read(key, _object), f"{self._prefix}{key}.")
        return opened

    def close(self) -> dict:
        for key in self._data:
            if key not in self._record:
                raise ValueError(f"unknown field '{self._prefix}{key}'")
        return {k: v.close() if isinstance(v, _Section) else v for k, v in self._record.items()}


def _number(value: Any, where: str) -> float:
    return float(finite(f"field '{where}'", value))


def _integer(value: Any, where: str, low: int = 1) -> int:
    """Every integer a command reads is a count, so it must be >= 1 (or ``low``)."""
    return count(f"field '{where}'", value, low=low)


def _nonnegative(value: Any, where: str) -> float:
    return float(finite(f"field '{where}'", value, ge=0))


def _each(values: Any, where: str, read) -> list:
    if not isinstance(values, list):
        raise ValueError(f"field '{where}' must be a list, got {values!r}")
    return [read(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"field '{where}' must be a JSON object")
    return value


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its errors prefixed with the config section that fed it."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{section} config: {exc}") from exc


def _radius_and_flow(cfg: _Section) -> tuple[RadiusConfig, FlowErrorModel]:
    radius, flow = cfg.section("radius"), cfg.section("flow_error")
    radius_cfg = _build(
        "radius",
        RadiusConfig,
        p=radius.read("p", _number),
        d=radius.read("dimension", _integer),
        beta=radius.read("beta", _number),
        big_c=radius.read("big_c", _number, default=1.0),
        small_c=radius.read("small_c", _number, default=1.0),
    )
    model = _build(
        "flow_error", FlowErrorModel, flow.read("magnitude", _number), flow.read("rate", _number)
    )
    return radius_cfg, model


def _n_range(value: Any, where: str) -> list[int]:
    bounds = _each(value, where, _integer)
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise ValueError(f"field '{where}' must be a pair [lo, hi] with lo <= hi, got {bounds}")
    return bounds


# --- manifest and writers --------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _write_run(
    args: argparse.Namespace, command: str, config: dict, seed: int | None, artifacts: dict
) -> int:
    """Make the output directory, write the manifest, then each artifact: a
    ``.csv`` one is (header, rows), a ``.json`` one a dict.  Returns exit code 0."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ValueError(f"--out {out} cannot be made a directory: {exc.strerror}") from None
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": ambiflow.__version__,
        "outputs": list(artifacts),
    }
    _write_json(out / "manifest.json", manifest)
    for name, content in artifacts.items():
        if name.endswith(".csv"):
            _write_csv(out / name, *content)
        else:
            _write_json(out / name, content)
    return 0


# --- radius ---------------------------------------------------------------------


def _radius_table(
    cfg: RadiusConfig,
    model: FlowErrorModel,
    rho_horizon: float,
    delta: float,
    lo: int,
    hi: int,
    recon_error: float | None,
) -> tuple[list[str], list[tuple]]:
    """The radius decomposition over N = lo..hi as a CSV header and rows."""
    rows = []
    for n in range(lo, hi + 1):
        stat = ambiguity_radius(n, cfg, rho_horizon)
        psi = total_radius(n, cfg, rho_horizon, delta, model, recon_error)
        rows.append((n, stat, psi - stat, psi))
    return ["N", "eps_N", "bar_eps_N", "psi_N"], rows


def cmd_radius(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    radius, model = _radius_and_flow(cfg)
    rho_horizon = cfg.read("rho_horizon", _nonnegative)
    delta = cfg.read("delta", _number)
    lo, hi = cfg.read("n_range", _n_range)
    recon_error = cfg.read("recon_error", _number, default=None)
    config = cfg.close()

    table = _radius_table(radius, model, rho_horizon, delta, lo, hi, recon_error)
    return _write_run(args, "radius", config, args.seed, {"radius.csv": table})


# --- horizon --------------------------------------------------------------------


def _horizon_entry(
    cfg: RadiusConfig,
    model: FlowErrorModel,
    rho_horizon: float,
    delta: float,
    cap: int,
) -> dict:
    result = effective_horizon(delta, cfg, rho_horizon, model, cap=cap)
    entry: dict[str, Any] = {"rho_horizon": rho_horizon, "checked": result.checked}
    if result.status == "found":
        entry["N_star"] = result.n_star
    elif result.status == "no-improvement":
        entry["N_star"] = None
        entry["reason"] = "no guaranteed improvement"
    else:
        entry["N_star"] = "cap"
    # The scan's margins up to N*; a capped scan has none.
    entry["table"] = [
        {
            "kappa": kappa,
            "statistical_gain": gain,
            "pushforward_growth": growth,
            "margin": gain - growth,
            "improves": gain > growth,
        }
        for kappa, (gain, growth) in enumerate(result.margins, start=1)
    ]
    return entry


def _one_or_each(value: Any, where: str) -> float | list[float]:
    """A nonnegative number, or a non-empty list of them to sweep."""
    if not isinstance(value, list):
        return _nonnegative(value, where)
    if not value:
        raise ValueError(f"field '{where}' must not be an empty list")
    return _each(value, where, _nonnegative)


def cmd_horizon(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    radius, model = _radius_and_flow(cfg)
    delta = cfg.read("delta", _number)
    cap = cfg.read("cap", _integer, default=10**6)
    rho = cfg.read("rho_horizon", _one_or_each)
    lo, hi = cfg.read("n_range", _n_range, default=[1, 20])
    config = cfg.close()

    rho_values = rho if isinstance(rho, list) else [rho]
    entries = [_horizon_entry(radius, model, r, delta, cap) for r in rho_values]
    sweep = {"sweep": entries} if isinstance(rho, list) else entries[0]
    payload: dict[str, Any] = {"Delta": delta, **sweep}
    # Companion table of the radius decomposition at the first rho value,
    # with the horizon as a trailing summary row.
    header, rows = _radius_table(radius, model, rho_values[0], delta, lo, hi, None)
    n_star = entries[0]["N_star"]
    rows.append(("N_star", "" if n_star is None else str(n_star), "", ""))

    artifacts = {"horizon.json": payload, "horizon.csv": (header, rows)}
    return _write_run(args, "horizon", config, args.seed, artifacts)


# --- observe --------------------------------------------------------------------


def _schedule_rows(value: Any, where: str) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"field '{where}' must be a non-empty list of time lists")
    rows = []
    for i, row in enumerate(value):
        at = f"{where}[{i}]"
        times = _checks.times(f"field '{at}'", _each(row, at, _number), at_least=2)
        # The certificate's windows lie in [0, horizon].
        finite(f"field '{at}[0]'", times[0], ge=0)
        rows.append(times.tolist())
    return rows


def _observe_trajectory(
    sys_model,
    times: list[float],
    true_state: np.ndarray,
    noise: float,
    rng: np.random.Generator,
    err_bound: float | None,
) -> dict:
    obs = sample_observability_matrix(sys_model, times)
    weight = weight_matrix(times, sys_model.n_outputs)
    margin = eigenvalue_margin(obs, weight)
    rank = int(np.linalg.matrix_rank(weight @ obs, rtol=_MIN_SINGULAR))  # reconstruct_state's rule
    entry: dict[str, Any] = {
        "times": list(times),
        "rank": rank,
        "full_rank": rank == sys_model.dim,
        "eigenvalue_margin": margin,
    }
    outputs = obs @ true_state
    if noise > 0.0:
        outputs = outputs + rng.uniform(-noise, noise, size=outputs.shape)
    try:
        recovered = reconstruct_state(obs, weight, outputs)
        entry["reconstruction_error"] = float(np.linalg.norm(recovered - true_state))
        entry["within_bound"] = (
            None if err_bound is None else bool(entry["reconstruction_error"] <= err_bound)
        )
    except ArithmeticError as exc:
        entry["reconstruction_error"] = None
        entry["within_bound"] = None
        entry["failure"] = str(exc)
    return entry


def cmd_observe(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    system = cfg.section("system")  # a built-in name with optional params, or matrices
    if "name" in system:
        params = system.read("params", _object) if "params" in system else {}
        sys_model = _build("system", builtin_system, system.read("name"), **params)
    elif "A" in system or "C" in system:
        a, c = system.read("A"), system.read("C")
        sys_model = _build("system", LinearTimeVaryingSystem.lti, a, c)
    else:
        raise ValueError("field 'system' needs 'name', or both 'A' and 'C'")
    schedules = cfg.read("schedules", _schedule_rows)
    noise = cfg.read("noise", _nonnegative, default=0.0)
    retention = cfg.read("retention", _number, default=0.5)
    criterion = cfg.read("criterion", default="equidistant")
    if not isinstance(criterion, str) or criterion not in _SCHEDULE_CRITERIA:
        raise ValueError(
            f"field 'criterion' must be one of {sorted(_SCHEDULE_CRITERIA)}, got {criterion!r}"
        )
    state = cfg.read("true_state", _each, _number, default=None)
    if state is not None and len(state) != sys_model.dim:
        raise ValueError(f"field 'true_state' must have length {sys_model.dim}, got {state}")
    config = cfg.close()
    seed = args.seed if args.seed is not None else 0

    rng = np.random.default_rng(seed)
    true_state = rng.standard_normal(sys_model.dim) if state is None else np.array(state)

    spans = [row[-1] - row[0] for row in schedules]
    horizon = max(row[-1] for row in schedules)
    gaps = [g for row in schedules for g in np.diff(row)]
    payload: dict[str, Any] = {
        "system": {"name": sys_model.name, "dim": sys_model.dim, "lti": sys_model.is_lti},
        "noise": noise,
    }

    err_bound = None
    try:
        # The certificate keeps a fraction of the floor over the shortest
        # window; the system keeps that floor, so asking for it is a lookup.
        bound = robust_sampling_bound(sys_model, min(spans), max(spans), horizon, retention)
        floor = gramian_floor(sys_model, min(spans), horizon)
        err_bound = estimation_error_bound(max(spans), floor, retention, noise)
        payload["gap_bound"] = None if math.isinf(bound) else bound
        payload["max_gap"] = float(max(gaps))
        payload["gap_bound_satisfied"] = bool(max(gaps) <= bound)
        payload["error_bound"] = err_bound
    except OverflowError:
        raise  # a diverging flow is a numerical failure, not an unobservable pair
    except ArithmeticError as exc:
        payload["gap_bound"] = None
        payload["error_bound"] = None
        payload["unobservable"] = str(exc)

    # Noiseless runs have a zero error bound; grade the (tiny) floating-point
    # residual against a fixed exactness threshold instead.
    threshold = err_bound if (err_bound is not None and noise > 0.0) else 1e-9
    payload["trajectories"] = [
        _observe_trajectory(sys_model, row, true_state, noise, rng, threshold)
        for row in schedules
    ]

    if sys_model.is_lti:
        try:
            check = check_schedule_observability(sys_model, schedules, criterion)
            passed, messages = check.passed, list(check.messages)
        except ValueError as exc:
            # An unobservable (A, C) pair: flag, don't crash.  The
            # per-trajectory numbers above still stand on their own.
            passed, messages = False, [str(exc)]
        payload["schedule_check"] = {"criterion": criterion, "passed": passed, "messages": messages}

    return _write_run(args, "observe", config, seed, {"observe.json": payload})


# --- uav ------------------------------------------------------------------------


def cmd_uav(args: argparse.Namespace) -> int:
    cfg = _load_config(args.config)
    section = cfg.section("scenario")
    given = {f.name: section.read(f.name) for f in fields(ScenarioConfig) if f.name in section}
    if args.seed is not None:
        given["seed"] = args.seed
    scenario = _build("scenario", ScenarioConfig, **given)
    n_realizations = cfg.read("realizations", _integer)
    checkpoints = cfg.read("checkpoints", _each, _integer)
    n_t = cfg.read("time_grid", _integer, 2, default=200)
    n_starts = cfg.read("solver_starts", _integer, default=20)
    # The manifest holds the whole scenario the run used, --seed included.
    config = dict(cfg.close(), scenario=asdict(scenario))

    report = run_experiment(
        scenario, n_realizations, checkpoints, n_t=n_t, n_starts=n_starts, jobs=args.jobs
    )
    artifacts = {
        "uav.csv": ([f.name for f in fields(ExperimentRow)], [astuple(r) for r in report.rows]),
        "uav_summary.json": {"summary": report.summary(), "realizations": n_realizations},
    }
    return _write_run(args, "uav", config, scenario.seed, artifacts)


# --- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambiflow",
        description="Ambiguity radii, sampling horizons, observability "
        "diagnostics, and the pursuit benchmark, from JSON configs.",
    )
    parser.add_argument("--version", action="version", version=ambiflow.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "radius": ("sweep total ambiguity radius over sample counts", cmd_radius),
        "horizon": ("effective sampling horizon with per-step margins", cmd_horizon),
        "observe": ("observability diagnostics for sampled linear systems", cmd_observe),
        "uav": ("run the pursuit-evasion benchmark", cmd_uav),
    }
    for name, (help_text, handler) in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to JSON config")
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument(
            "--jobs", type=int, default=1, help="worker count for parallel commands"
        )
        cmd.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("config error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("config error: --seed must fit in an unsigned 64-bit integer", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
