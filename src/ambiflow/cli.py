"""Command-line front end.

One binary, four subcommands, all batch-style: JSON config in, CSV/JSON
artifacts out.

  radius    sweep the total ambiguity radius over sample counts
  horizon   effective sampling horizon with per-step margins
  observe   observability diagnostics for sampled linear systems
  uav       the pursuit-evasion benchmark experiment

Every run first writes ``manifest.json`` into the output directory (command
name, fully resolved config, seed, tool version, output names), then the
artifacts, so a crashed run is recognizable by its missing outputs.  Reruns
with the same manifest are byte-identical: floats are written with 17
significant digits and JSON keys are sorted.

Exit codes: 0 success, 2 bad config (message to stderr names the offending
field), 3 numerical failure.
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
from ambiflow.ambiguity import effective_horizon, total_radius
from ambiflow.concentration import RadiusConfig, ambiguity_radius
from ambiflow.dynamics import FlowErrorModel
from ambiflow.observability import (
    _sampling_bound_and_floor,
    check_schedule_observability,
    eigenvalue_margin,
    estimation_error_bound,
    reconstruct_state,
    sample_observability_matrix,
    system_from_json,
    weight_matrix,
)
from ambiflow.uav_scenario import ExperimentRow, ScenarioConfig, run_experiment


class ConfigError(Exception):
    """Raised for malformed or incomplete run configs."""


# --- config plumbing -----------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _reject_non_finite(payload, "")
    return payload


def _reject_non_finite(value: Any, where: str) -> None:
    """Name the first non-finite number in a parsed config.

    ``json`` accepts NaN, Infinity and overflowing literals such as 1e999;
    none of them is a meaningful setting anywhere in a config.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field '{where}' must be a finite number, got {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]")


_REQUIRED = object()


def _field(section: dict, key: str, where: str, cast=None, default=_REQUIRED):
    if key not in section:
        if default is not _REQUIRED:
            return default
        raise ConfigError(f"missing field '{where}{key}'")
    value = section[key]
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{where}{key}': {exc}") from exc


def _subsection(cfg: dict, key: str) -> dict:
    section = _field(cfg, key, "")
    if not isinstance(section, dict):
        raise ConfigError(f"field '{key}' must be a JSON object")
    return section


def _radius_config(section: dict) -> RadiusConfig:
    try:
        return RadiusConfig(
            p=_field(section, "p", "radius.", cast=float),
            d=_field(section, "dimension", "radius.", cast=int),
            beta=_field(section, "beta", "radius.", cast=float),
            big_c=_field(section, "big_c", "radius.", cast=float, default=1.0),
            small_c=_field(section, "small_c", "radius.", cast=float, default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"radius config: {exc}") from exc


def _flow_error_model(section: dict) -> FlowErrorModel:
    try:
        return FlowErrorModel(
            magnitude=_field(section, "magnitude", "flow_error.", cast=float),
            rate=_field(section, "rate", "flow_error.", cast=float),
        )
    except ValueError as exc:
        raise ConfigError(f"flow_error config: {exc}") from exc


def _n_range(cfg: dict) -> tuple[int, int]:
    raw = _field(cfg, "n_range", "")
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(isinstance(v, int) for v in raw)
    ):
        raise ConfigError("field 'n_range' must be a pair of integers [lo, hi]")
    lo, hi = raw
    if not 1 <= lo <= hi:
        raise ConfigError(f"field 'n_range' needs 1 <= lo <= hi, got {raw}")
    return lo, hi


# --- manifest and writers --------------------------------------------------------


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _start_run(
    args: argparse.Namespace, command: str, config: dict, seed: int | None, outputs: tuple[str, ...]
) -> Path:
    """Make the output directory and write ``manifest.json`` into it before any output."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": ambiflow.__version__,
        "outputs": list(outputs),
    }
    _write_json(out / "manifest.json", manifest)
    return out


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


# --- radius ---------------------------------------------------------------------


def _radius_table(
    cfg: RadiusConfig,
    model: FlowErrorModel,
    rho_horizon: float,
    delta: float,
    lo: int,
    hi: int,
    recon_error: float | None,
) -> list[tuple[int, float, float, float]]:
    rows = []
    for n in range(lo, hi + 1):
        stat = ambiguity_radius(n, cfg, rho_horizon)
        psi = total_radius(n, cfg, rho_horizon, delta, model, recon_error)
        rows.append((n, stat, psi - stat, psi))
    return rows


def cmd_radius(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    cfg = _radius_config(_subsection(raw, "radius"))
    model = _flow_error_model(_subsection(raw, "flow_error"))
    rho_horizon = _field(raw, "rho_horizon", "", cast=float)
    delta = _field(raw, "delta", "", cast=float)
    lo, hi = _n_range(raw)
    recon = _field(raw, "recon_error", "", default=None)
    recon_error = None if recon is None else _field(raw, "recon_error", "", cast=float)

    resolved = {
        "radius": asdict(cfg),
        "flow_error": asdict(model),
        "rho_horizon": rho_horizon,
        "delta": delta,
        "n_range": [lo, hi],
        "recon_error": recon_error,
    }
    out = _start_run(args, "radius", resolved, args.seed, ("radius.csv",))

    rows = _radius_table(cfg, model, rho_horizon, delta, lo, hi, recon_error)
    _write_csv(out / "radius.csv", ["N", "eps_N", "bar_eps_N", "psi_N"], rows)
    return 0


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
    raw = _load_config(args.config)
    cfg = _radius_config(_subsection(raw, "radius"))
    model = _flow_error_model(_subsection(raw, "flow_error"))
    delta = _field(raw, "delta", "", cast=float)
    cap = _field(raw, "cap", "", cast=int, default=10**6)
    rho_raw = _field(raw, "rho_horizon", "")
    try:
        if isinstance(rho_raw, list):
            rho_values = [float(r) for r in rho_raw]
        else:
            rho_values = [float(rho_raw)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'rho_horizon': {exc}") from exc
    if not rho_values:
        raise ConfigError("field 'rho_horizon' must not be an empty list")
    lo, hi = _n_range(raw) if "n_range" in raw else (1, 20)

    resolved = {
        "radius": asdict(cfg),
        "flow_error": asdict(model),
        "rho_horizon": rho_values if isinstance(rho_raw, list) else rho_values[0],
        "delta": delta,
        "cap": cap,
        "n_range": [lo, hi],
    }
    out = _start_run(args, "horizon", resolved, args.seed, ("horizon.json", "horizon.csv"))

    entries = [_horizon_entry(cfg, model, rho, delta, cap) for rho in rho_values]
    payload: dict[str, Any] = {"Delta": delta}
    if isinstance(rho_raw, list):
        payload["sweep"] = entries
    else:
        payload.update(entries[0])
    _write_json(out / "horizon.json", payload)

    # Companion table of the radius decomposition at the first rho value,
    # with the horizon as a trailing summary row.
    rows: list[tuple] = list(
        _radius_table(cfg, model, rho_values[0], delta, lo, hi, None)
    )
    n_star = entries[0]["N_star"]
    rows.append(("N_star", "" if n_star is None else str(n_star), "", ""))
    _write_csv(out / "horizon.csv", ["N", "eps_N", "bar_eps_N", "psi_N"], rows)
    return 0


# --- observe --------------------------------------------------------------------


def _schedule_rows(raw: Any) -> list[list[float]]:
    if not isinstance(raw, list) or not raw or not all(isinstance(row, list) for row in raw):
        raise ConfigError("field 'schedules' must be a non-empty list of time lists")
    rows = []
    for i, row in enumerate(raw):
        for j, t in enumerate(row):
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise ConfigError(f"field 'schedules[{i}][{j}]' must be a number, got {t!r}")
        times = [float(t) for t in row]
        if len(times) < 2 or times[0] < 0.0 or any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(
                f"field 'schedules[{i}]' must hold at least two strictly increasing "
                f"times >= 0, got {times}"
            )
        rows.append(times)
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
    rank = int(np.linalg.matrix_rank(weight @ obs))
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
    raw = _load_config(args.config)
    sys_section = _subsection(raw, "system")
    try:
        sys_model = system_from_json(sys_section)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"system config: {exc}") from exc
    schedules = _schedule_rows(_field(raw, "schedules", ""))
    noise = _field(raw, "noise", "", cast=float, default=0.0)
    retention = _field(raw, "retention", "", cast=float, default=0.5)
    criterion = _field(raw, "criterion", "", default="equidistant")
    state_raw = _field(raw, "true_state", "", default=None)
    seed = args.seed if args.seed is not None else 0

    resolved = {
        "system": sys_section,
        "schedules": schedules,
        "noise": noise,
        "retention": retention,
        "criterion": criterion,
        "true_state": state_raw,
    }
    out = _start_run(args, "observe", resolved, seed, ("observe.json",))

    rng = np.random.default_rng(seed)
    if state_raw is None:
        true_state = rng.standard_normal(sys_model.dim)
    else:
        true_state = np.asarray(state_raw, dtype=float)
        if true_state.shape != (sys_model.dim,):
            raise ConfigError(
                f"field 'true_state' must have length {sys_model.dim}, got {true_state.shape}"
            )

    spans = [row[-1] - row[0] for row in schedules]
    horizon = max(row[-1] for row in schedules)
    gaps = [g for row in schedules for g in np.diff(row)]
    payload: dict[str, Any] = {
        "system": {"name": sys_model.name, "dim": sys_model.dim, "lti": sys_model.is_lti},
        "noise": noise,
    }

    err_bound = None
    try:
        # The certificate keeps a fraction of the floor over the shortest window.
        bound, floor = _sampling_bound_and_floor(
            sys_model, min(spans), max(spans), horizon, retention
        )
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
            payload["schedule_check"] = {
                "criterion": criterion,
                "passed": check.passed,
                "messages": list(check.messages),
            }
        except ValueError as exc:
            # An unobservable pair or an unknown criterion: flag, don't crash.
            # The per-trajectory numbers above still stand on their own.
            payload["schedule_check"] = {
                "criterion": criterion,
                "passed": False,
                "messages": [str(exc)],
            }

    _write_json(out / "observe.json", payload)
    return 0


# --- uav ------------------------------------------------------------------------


def cmd_uav(args: argparse.Namespace) -> int:
    raw = _load_config(args.config)
    scenario_raw = _subsection(raw, "scenario")
    if args.seed is not None:
        scenario_raw = dict(scenario_raw, seed=args.seed)
    try:
        scenario = ScenarioConfig.from_json(scenario_raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"scenario config: {exc}") from exc
    n_realizations = _field(raw, "realizations", "", cast=int)
    checkpoints_raw = _field(raw, "checkpoints", "")
    if not isinstance(checkpoints_raw, list) or not checkpoints_raw:
        raise ConfigError("field 'checkpoints' must be a non-empty list of integers")
    try:
        checkpoints = [int(c) for c in checkpoints_raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field 'checkpoints': {exc}") from exc
    n_t = _field(raw, "time_grid", "", cast=int, default=200)
    n_starts = _field(raw, "solver_starts", "", cast=int, default=20)
    if n_t < 2:
        raise ConfigError(f"field 'time_grid' must be >= 2 time nodes, got {n_t}")
    if n_starts < 1:
        raise ConfigError(f"field 'solver_starts' must be >= 1, got {n_starts}")

    resolved = {
        "scenario": scenario.to_json(),
        "realizations": n_realizations,
        "checkpoints": checkpoints,
        "time_grid": n_t,
        "solver_starts": n_starts,
    }
    out = _start_run(args, "uav", resolved, scenario.seed, ("uav.csv", "uav_summary.json"))

    report = run_experiment(
        scenario, n_realizations, checkpoints, n_t=n_t, n_starts=n_starts, jobs=args.jobs
    )
    header = [f.name for f in fields(ExperimentRow)]
    _write_csv(out / "uav.csv", header, [astuple(r) for r in report.rows])
    _write_json(
        out / "uav_summary.json",
        {"summary": report.summary(), "realizations": n_realizations},
    )
    return 0


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
    except (ConfigError, ValueError) as exc:
        # ValueError is domain validation downstream of config values.
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
