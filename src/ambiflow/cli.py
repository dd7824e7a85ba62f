"""Command-line front end.

One binary, four subcommands, all batch-style: JSON config in, CSV/JSON
artifacts out.

  radius    sweep the total ambiguity radius over sample counts
  horizon   effective sampling horizon with per-step margins
  observe   observability diagnostics for sampled linear systems
  uav       the pursuit-evasion benchmark experiment

Each handler reads its config, computes every result, and only then makes
the output directory and writes the manifest (command name, fully resolved
config, seed, tool version, output names) followed by the artifacts, all in
one ``_write_run`` call.  So every config and library check runs first, and a
run that exits 2 or 3 writes nothing.  Every config number goes through the
library's rule (``_checks.finite``, ``_checks.count``) named by its dotted
field, and a config key the command does not read is an error.  Reruns with
the same manifest are byte-identical: floats are written with 17 significant
digits and JSON keys are sorted.

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
    check_schedule_observability,
    eigenvalue_margin,
    estimation_error_bound,
    gramian_floor,
    reconstruct_state,
    robust_sampling_bound,
    sample_observability_matrix,
    system_from_json,
    weight_matrix,
)
from ambiflow.uav_scenario import ExperimentRow, ScenarioConfig, run_experiment


# --- config plumbing -----------------------------------------------------------


def _load_config(path: str, keys: str) -> dict:
    """The config object at ``path``; ``keys`` are the top-level fields the command reads."""
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
    _known(payload, keys)
    return payload


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


# Readers take a raw value and its dotted path.  Every config number goes
# through ``_number`` or ``_integer``, the library's rule with the field named.


def _number(value: Any, where: str) -> float:
    return float(finite(f"field '{where}'", value))


def _integer(value: Any, where: str) -> int:
    """Every integer a command reads is a count, so it must be >= 1."""
    return count(f"field '{where}'", value)


def _nonnegative(value: Any, where: str) -> float:
    return float(finite(f"field '{where}'", value, ge=0))


def _each(values: Any, where: str, read) -> list:
    if not isinstance(values, list):
        raise ValueError(f"field '{where}' must be a list, got {values!r}")
    return [read(v, f"{where}[{i}]") for i, v in enumerate(values)]


_REQUIRED = object()


def _field(section: dict, key: str, where: str, read=None, default=_REQUIRED):
    if key not in section:
        if default is not _REQUIRED:
            return default
        raise ValueError(f"missing field '{where}{key}'")
    return section[key] if read is None else read(section[key], where + key)


def _subsection(cfg: dict, key: str) -> dict:
    section = _field(cfg, key, "")
    if not isinstance(section, dict):
        raise ValueError(f"field '{key}' must be a JSON object")
    return section


def _known(section: dict, keys: str, where: str = "") -> None:
    """Reject a key the command does not read, as a misspelled optional field."""
    for key in section:
        if key not in keys.split():
            raise ValueError(f"unknown field '{where}{key}'")


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its errors prefixed with the config section that fed it."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{section} config: {exc}") from exc


def _radius_and_flow(raw: dict) -> tuple[RadiusConfig, FlowErrorModel]:
    radius, flow = _subsection(raw, "radius"), _subsection(raw, "flow_error")
    _known(radius, "p dimension beta big_c small_c", "radius.")
    _known(flow, "magnitude rate", "flow_error.")
    cfg = _build(
        "radius",
        RadiusConfig,
        p=_field(radius, "p", "radius.", _number),
        d=_field(radius, "dimension", "radius.", _integer),
        beta=_field(radius, "beta", "radius.", _number),
        big_c=_field(radius, "big_c", "radius.", _number, default=1.0),
        small_c=_field(radius, "small_c", "radius.", _number, default=1.0),
    )
    model = _build(
        "flow_error",
        FlowErrorModel,
        magnitude=_field(flow, "magnitude", "flow_error.", _number),
        rate=_field(flow, "rate", "flow_error.", _number),
    )
    return cfg, model


def _n_range(cfg: dict) -> tuple[int, int]:
    bounds = _each(_field(cfg, "n_range", ""), "n_range", _integer)
    if len(bounds) != 2 or bounds[0] > bounds[1]:
        raise ValueError(f"field 'n_range' must be a pair [lo, hi] with lo <= hi, got {bounds}")
    return bounds[0], bounds[1]


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
    raw = _load_config(args.config, "radius flow_error rho_horizon delta n_range recon_error")
    cfg, model = _radius_and_flow(raw)
    rho_horizon = _field(raw, "rho_horizon", "", _nonnegative)
    delta = _field(raw, "delta", "", _number)
    lo, hi = _n_range(raw)
    recon = _field(raw, "recon_error", "", default=None)
    recon_error = None if recon is None else _number(recon, "recon_error")

    table = _radius_table(cfg, model, rho_horizon, delta, lo, hi, recon_error)
    resolved = {
        "radius": asdict(cfg),
        "flow_error": asdict(model),
        "rho_horizon": rho_horizon,
        "delta": delta,
        "n_range": [lo, hi],
        "recon_error": recon_error,
    }
    return _write_run(args, "radius", resolved, args.seed, {"radius.csv": table})


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


def cmd_horizon(args: argparse.Namespace) -> int:
    raw = _load_config(args.config, "radius flow_error rho_horizon delta cap n_range")
    cfg, model = _radius_and_flow(raw)
    delta = _field(raw, "delta", "", _number)
    cap = _field(raw, "cap", "", _integer, default=10**6)
    rho_raw = _field(raw, "rho_horizon", "")
    if isinstance(rho_raw, list):
        rho_values = _each(rho_raw, "rho_horizon", _nonnegative)
    else:
        rho_values = [_nonnegative(rho_raw, "rho_horizon")]
    if not rho_values:
        raise ValueError("field 'rho_horizon' must not be an empty list")
    lo, hi = _n_range(raw) if "n_range" in raw else (1, 20)

    entries = [_horizon_entry(cfg, model, rho, delta, cap) for rho in rho_values]
    payload: dict[str, Any] = {"Delta": delta}
    if isinstance(rho_raw, list):
        payload["sweep"] = entries
    else:
        payload.update(entries[0])
    # Companion table of the radius decomposition at the first rho value,
    # with the horizon as a trailing summary row.
    header, rows = _radius_table(cfg, model, rho_values[0], delta, lo, hi, None)
    n_star = entries[0]["N_star"]
    rows.append(("N_star", "" if n_star is None else str(n_star), "", ""))

    resolved = {
        "radius": asdict(cfg),
        "flow_error": asdict(model),
        "rho_horizon": rho_values if isinstance(rho_raw, list) else rho_values[0],
        "delta": delta,
        "cap": cap,
        "n_range": [lo, hi],
    }
    artifacts = {"horizon.json": payload, "horizon.csv": (header, rows)}
    return _write_run(args, "horizon", resolved, args.seed, artifacts)


# --- observe --------------------------------------------------------------------


def _schedule_rows(raw: Any) -> list[list[float]]:
    if not isinstance(raw, list) or not raw:
        raise ValueError("field 'schedules' must be a non-empty list of time lists")
    rows = []
    for i, row in enumerate(raw):
        where = f"schedules[{i}]"
        times = _checks.times(f"field '{where}'", _each(row, where, _number), at_least=2)
        # The certificate's windows lie in [0, horizon].
        finite(f"field '{where}[0]'", times[0], ge=0)
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
    raw = _load_config(args.config, "system schedules noise retention criterion true_state")
    sys_section = _subsection(raw, "system")
    _known(sys_section, "name params" if "name" in sys_section else "A C", "system.")
    sys_model = _build("system", system_from_json, sys_section)
    schedules = _schedule_rows(_field(raw, "schedules", ""))
    noise = _field(raw, "noise", "", _nonnegative, default=0.0)
    retention = _field(raw, "retention", "", _number, default=0.5)
    criterion = _field(raw, "criterion", "", default="equidistant")
    if not isinstance(criterion, str) or criterion not in _SCHEDULE_CRITERIA:
        raise ValueError(
            f"field 'criterion' must be one of {sorted(_SCHEDULE_CRITERIA)}, got {criterion!r}"
        )
    state_raw = _field(raw, "true_state", "", default=None)
    if state_raw is not None:
        state = _each(state_raw, "true_state", _number)
        if len(state) != sys_model.dim:
            raise ValueError(f"field 'true_state' must have length {sys_model.dim}, got {state}")
    seed = args.seed if args.seed is not None else 0

    rng = np.random.default_rng(seed)
    true_state = rng.standard_normal(sys_model.dim) if state_raw is None else np.array(state)

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

    resolved = {
        "system": sys_section,
        "schedules": schedules,
        "noise": noise,
        "retention": retention,
        "criterion": criterion,
        "true_state": state_raw,
    }
    return _write_run(args, "observe", resolved, seed, {"observe.json": payload})


# --- uav ------------------------------------------------------------------------


def cmd_uav(args: argparse.Namespace) -> int:
    raw = _load_config(args.config, "scenario realizations checkpoints time_grid solver_starts")
    scenario_raw = _subsection(raw, "scenario")
    if args.seed is not None:
        scenario_raw = dict(scenario_raw, seed=args.seed)
    scenario = _build("scenario", ScenarioConfig.from_json, scenario_raw)
    n_realizations = _field(raw, "realizations", "", _integer)
    checkpoints = _each(_field(raw, "checkpoints", ""), "checkpoints", _integer)
    n_t = count("field 'time_grid'", _field(raw, "time_grid", "", default=200), low=2)
    n_starts = _field(raw, "solver_starts", "", _integer, default=20)

    report = run_experiment(
        scenario, n_realizations, checkpoints, n_t=n_t, n_starts=n_starts, jobs=args.jobs
    )
    resolved = {
        "scenario": scenario.to_json(),
        "realizations": n_realizations,
        "checkpoints": checkpoints,
        "time_grid": n_t,
        "solver_starts": n_starts,
    }
    artifacts = {
        "uav.csv": ([f.name for f in fields(ExperimentRow)], [astuple(r) for r in report.rows]),
        "uav_summary.json": {"summary": report.summary(), "realizations": n_realizations},
    }
    return _write_run(args, "uav", resolved, scenario.seed, artifacts)


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
