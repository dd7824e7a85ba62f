"""End-to-end tests of the command-line front end.

Each test drives ``main`` in process with a config written to tmp_path and
checks exit codes, emitted artifacts, and determinism.
"""

import contextlib
import csv
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambiflow
import ambiflow.observability as obs
from ambiflow.ambiguity import total_radius
from ambiflow.cli import main
from ambiflow.concentration import RadiusConfig, ambiguity_radius
from ambiflow.dynamics import FlowErrorModel
from ambiflow.observability import (
    LinearTimeVaryingSystem,
    estimation_error_bound,
    gramian_floor,
    sample_observability_matrix,
    weight_matrix,
)

BASE_RADIUS_CONFIG = {
    "radius": {"p": 1, "dimension": 1, "beta": 0.05},
    "flow_error": {"magnitude": 1.0, "rate": 0.1},
    "rho_horizon": 2.0,
    "delta": 0.01,
    "n_range": [1, 10],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run(tmp_path, command, payload, *extra):
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


# --- radius ---------------------------------------------------------------------


def test_radius_happy_path(tmp_path):
    code, out = run(tmp_path, "radius", BASE_RADIUS_CONFIG)
    assert code == 0
    rows = read_csv(out / "radius.csv")
    assert rows[0] == ["N", "eps_N", "bar_eps_N", "psi_N"]
    assert len(rows) == 11
    cfg = RadiusConfig(p=1.0, d=1, beta=0.05)
    model = FlowErrorModel(magnitude=1.0, rate=0.1)
    for row in rows[1:]:
        n = int(row[0])
        eps, bar, psi = (float(v) for v in row[1:])
        # 17 significant digits must round-trip the library values exactly.
        assert eps == ambiguity_radius(n, cfg, 2.0)
        assert psi == total_radius(n, cfg, 2.0, 0.01, model)
        assert bar + eps == pytest.approx(psi, rel=1e-15)
    assert float(rows[1][2]) == 0.0  # single sample: no pushforward part


def test_radius_exact_flow_zeroes_error_column(tmp_path):
    payload = dict(BASE_RADIUS_CONFIG, flow_error={"magnitude": 0.0, "rate": 0.1})
    code, out = run(tmp_path, "radius", payload)
    assert code == 0
    rows = read_csv(out / "radius.csv")
    assert all(float(row[2]) == 0.0 for row in rows[1:])


def test_radius_missing_field_exit_2(tmp_path, capsys):
    payload = {k: v for k, v in BASE_RADIUS_CONFIG.items() if k != "delta"}
    code, _ = run(tmp_path, "radius", payload)
    assert code == 2
    assert "delta" in capsys.readouterr().err


def test_radius_missing_nested_field_named(tmp_path, capsys):
    payload = dict(BASE_RADIUS_CONFIG, radius={"p": 1, "beta": 0.05})
    code, _ = run(tmp_path, "radius", payload)
    assert code == 2
    assert "radius.dimension" in capsys.readouterr().err


def test_radius_invalid_values_exit_2(tmp_path, capsys):
    payload = dict(BASE_RADIUS_CONFIG, radius={"p": 1, "dimension": 1, "beta": 1.5})
    code, _ = run(tmp_path, "radius", payload)
    assert code == 2
    assert "beta" in capsys.readouterr().err


def test_radius_bad_n_range(tmp_path, capsys):
    payload = dict(BASE_RADIUS_CONFIG, n_range=[5, 2])
    code, _ = run(tmp_path, "radius", payload)
    assert code == 2
    assert "n_range" in capsys.readouterr().err


def test_radius_rejects_list_where_scalar_expected(tmp_path, capsys):
    # A horizon-style sweep config fed to the radius command must fail
    # cleanly, naming the field.
    payload = dict(BASE_RADIUS_CONFIG, rho_horizon=[1.0, 2.0])
    code, _ = run(tmp_path, "radius", payload)
    assert code == 2
    assert "rho_horizon" in capsys.readouterr().err


def test_unreadable_config_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["radius", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["radius", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def _with_literal(payload, dotted, literal):
    """Config text with the field at a dotted path set to a raw JSON literal."""
    payload = json.loads(json.dumps(payload))
    *parents, leaf = dotted.split(".")
    section = payload
    for key in parents:
        section = section[key]
    section[leaf] = "@LITERAL@"
    return json.dumps(payload).replace('"@LITERAL@"', literal)


def run_with_literal(tmp_path, command, field, literal):
    """Run a command's base config with one field set to a raw JSON literal.

    ``observe-ltv`` runs ``observe`` on a time-varying system.
    """
    base = {
        "radius": BASE_RADIUS_CONFIG,
        "horizon": BASE_RADIUS_CONFIG,
        "observe": observe_payload(),
        "observe-ltv": observe_payload(system={"name": "rotating_sensor"}),
        "uav": uav_payload(),
    }[command]
    path = tmp_path / "config.json"
    path.write_text(_with_literal(base, field, literal))
    out = tmp_path / "out"
    return main([command.split("-")[0], "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize(
    "command, field, literal",
    [
        ("radius", "delta", "NaN"),
        ("radius", "rho_horizon", "NaN"),
        ("radius", "flow_error.magnitude", "NaN"),
        ("radius", "radius.big_c", "Infinity"),
        ("radius", "delta", "1e999"),
        ("horizon", "delta", "-Infinity"),
        ("horizon", "flow_error.magnitude", "NaN"),
        ("uav", "scenario.eps_ref", "NaN"),
        ("uav", "scenario.tracking_gain", "Infinity"),
        ("observe", "noise", "NaN"),
        # Past Python's 4,300-digit limit on converting an integer literal.
        ("radius", "delta", "1" + "0" * 5000),
    ],
    ids=lambda v: v[:40] if isinstance(v, str) else None,
)
def test_non_finite_config_value_exit_2(tmp_path, capsys, command, field, literal):
    # Python's json reads NaN, Infinity and overflowing literals as floats;
    # each must fail as a config error naming its field, not run on.
    code, out = run_with_literal(tmp_path, command, field, literal)
    assert code == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


BIG_INT = "1" + "0" * 400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "command, field, literal, named",
    [
        ("radius", "radius.dimension", "2.7", None),
        ("radius", "flow_error.magnitude", "true", None),
        ("radius", "flow_error.rate", '"0.1"', None),
        ("radius", "n_range", "[true, 3]", "'n_range[0]'"),
        ("horizon", "cap", "3.9", None),
        ("horizon", "cap", "0", None),
        ("horizon", "rho_horizon", '[1.0, "2"]', "'rho_horizon[1]'"),
        ("observe", "noise", "true", None),
        ("observe", "noise", BIG_INT, None),
        ("observe", "schedules", f"[[0, {BIG_INT}]]", "'schedules[0][1]'"),
        ("observe", "true_state", '[0.5, "a"]', "'true_state[1]'"),
        ("observe", "criterion", '"bogus"', None),
        ("observe-ltv", "criterion", '"bogus"', None),
        (
            "observe",
            "system",
            '{"A": [["0", 1.0], [0.0, 1.0]], "C": [[1.0, 0.0]]}',
            "system config: A must be finite, got '0'",
        ),
        (
            "observe",
            "system",
            '{"name": "rotating_sensor", "params": {"omega": "2"}}',
            "system config: params.omega",
        ),
        (
            "observe",
            "system",
            '{"name": "double_integrator", "params": {"omega": 2}}',
            "system config: double_integrator takes no params ['omega']",
        ),
        (
            "observe",
            "system",
            '{"name": "rotating_sensor", "params": {"omega": 2, "phase": 1}}',
            "system config: rotating_sensor takes no params ['phase']",
        ),
        ("uav", "realizations", "1.9", None),
        ("uav", "realizations", "0", None),
        ("uav", "checkpoints", "[1.7]", "'checkpoints[0]'"),
        ("uav", "checkpoints", "[0]", "'checkpoints[0]'"),
        # Past the library's bound, refused before a phase is drawn.
        ("uav", "checkpoints", "[1000001]", "checkpoints[0] must be an integer in [1, 1000000]"),
        ("uav", "time_grid", '"40"', None),
        ("uav", "solver_starts", "true", None),
        ("uav", "scenario.eps_ref", BIG_INT, None),
        ("uav", "scenario.n_segments", "2.5", "scenario config: n_segments"),
        ("uav", "scenario.seed", "1.5", "scenario config: seed"),
        ("uav", "scenario.theta_support", '[2.0, "3.0", 4.0]', "scenario config: theta_support"),
        ("uav", "scenario.theta_support", "[]", "scenario config: theta_support"),
        ("uav", "scenario.n_ref", "true", None),
        ("uav", "scenario.eps_ref", '"0.17"', "scenario config: eps_ref"),
        ("uav", "scenario.orbit_radius", "true", None),
        ("uav", "scenario.theta_probabilities", "[0.5, 0.25, null]",
         "scenario config: theta_probabilities"),
    ],
    ids=lambda v: v[:40] if isinstance(v, str) else None,
)
def test_bad_config_number_exit_2(tmp_path, capsys, command, field, literal, named):
    # Every config number is a JSON int or float of the right kind, read
    # before the manifest: a bad one exits 2 naming its field and writes
    # nothing, never runs on truncated, cast or ignored.
    code, out = run_with_literal(tmp_path, command, field, literal)
    assert code == 2
    assert (named or f"'{field}'") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("radius", {"delta": -1}, "delta must be nonnegative, got -1.0"),
        ("radius", {"rho_horizon": -0.5}, "field 'rho_horizon' must be nonnegative, got -0.5"),
        ("horizon", {"rho_horizon": [-0.5, 2.0]},
         "field 'rho_horizon[0]' must be nonnegative, got -0.5"),
        ("observe", {"retention": 1}, "retention must be in (0, 1), got 1.0"),
        ("observe", {"retention": 0}, "retention must be in (0, 1), got 0.0"),
        ("observe", {"noise": -0.01}, "field 'noise' must be nonnegative, got -0.01"),
        # A misspelled optional key ran on without the reconstruction term.
        ("radius", {"recon_eror": 0.5}, "unknown field 'recon_eror'"),
    ],
    ids=[
        "radius-delta",
        "radius-rho_horizon",
        "horizon-rho_horizon",
        "observe-retention-1",
        "observe-retention-0",
        "observe-noise",
        "radius-recon_eror",
    ],
)
def test_failed_run_writes_nothing(tmp_path, capsys, command, overrides, message):
    # Every library check runs before the output directory is made, so a
    # run that exits 2 leaves no manifest behind.
    base = {"radius": BASE_RADIUS_CONFIG, "horizon": BASE_RADIUS_CONFIG}.get(command)
    payload = dict(base, **overrides) if base else observe_payload(**overrides)
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert f"config error: {message}\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, field",
    [
        ("radius", "radius.bigc"),
        ("radius", "flow_error.magnitud"),
        ("horizon", "recon_error"),  # read by radius only
        ("observe", "system.A"),  # a named system reads only name and params
        ("observe-ltv", "system.omega"),  # belongs in system.params
        ("uav", "realisations"),
        # Read "unknown scenario config fields: ['bogus']", a second rule.
        ("uav", "scenario.bogus"),
    ],
)
def test_unknown_config_key_exit_2(tmp_path, capsys, command, field):
    code, out = run_with_literal(tmp_path, command, field, "0.5")
    assert code == 2
    assert f"unknown field '{field}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, named",
    [
        # Each read as a message that named no field: a KeyError's
        # "unknown built-in system 0", "unhashable type: 'list'", "argument
        # after ** must be a mapping", and numpy's "expected non-negative integer".
        ("observe", {"system": {"name": 0}}, "name"),
        ("observe", {"system": {"name": []}}, "name"),
        ("observe", {"system": {"name": "rotating_sensor", "params": []}}, "params"),
        ("uav", {"scenario": {"seed": -2}}, "seed"),
    ],
    ids=["system-name-number", "system-name-list", "system-params-list", "scenario-seed"],
)
def test_config_error_names_the_field(tmp_path, capsys, command, overrides, named):
    payload = {"observe": observe_payload, "uav": uav_payload}[command](**overrides)
    code, out = run(tmp_path, command, payload)
    assert code == 2
    assert re.search(rf"\b{named}\b", capsys.readouterr().err)
    assert not out.exists()


NEITHER_SHAPE = "field 'system' needs 'name', or both 'A' and 'C'"


@pytest.mark.parametrize(
    "system, message",
    [
        # A system of neither shape names both; one whose name was deleted
        # read as a missing 'system.A'.
        ({"params": {"omega": 2.0}}, NEITHER_SHAPE),
        ({}, NEITHER_SHAPE),
        ({"A": [[0.0]]}, "missing field 'system.C'"),
        # The params go whole to builtin_system, which names one it does not take.
        (
            {"name": "rotating_sensor", "params": {"omga": 2.0}},
            "system config: rotating_sensor takes no params ['omga']",
        ),
    ],
    ids=["params-only", "empty", "A-without-C", "unknown-param"],
)
def test_system_reads_one_of_two_shapes(tmp_path, capsys, system, message):
    code, out = run(tmp_path, "observe", observe_payload(system=system))
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, below):
    # mkdir raised FileExistsError or NotADirectoryError as a traceback, exit 1.
    blocker = tmp_path / "afile"
    blocker.write_text("kept")
    out = blocker / "sub" if below else blocker
    cfg = write_config(tmp_path, BASE_RADIUS_CONFIG)
    assert main(["radius", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out ") and str(out) in err
    assert blocker.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]


def test_non_finite_list_entry_named_by_index(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(observe_payload(schedules=[[0.0, 0.5, float("nan")]])))
    code = main(["observe", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'schedules[0][2]'" in capsys.readouterr().err


# --- manifest -------------------------------------------------------------------


@pytest.mark.parametrize(
    "command, extra, seed",
    [
        ("radius", ["--seed", "5"], 5),
        ("horizon", [], None),
        ("observe", [], 0),  # observe draws its noise from seed 0 by default
        ("uav", [], 3),  # the scenario's seed
    ],
)
def test_manifest_lists_every_output(tmp_path, command, extra, seed):
    payload = {
        "radius": BASE_RADIUS_CONFIG,
        "horizon": BASE_RADIUS_CONFIG,
        "observe": observe_payload(),
        "uav": uav_payload(checkpoints=[1]),
    }[command]
    code, out = run(tmp_path, command, payload, *extra)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["seed"] == seed
    assert manifest["version"] == ambiflow.__version__
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(manifest["outputs"]) == sorted(written)


def test_manifest_contents(tmp_path):
    code, out = run(tmp_path, "radius", BASE_RADIUS_CONFIG)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "radius"
    assert manifest["version"] == ambiflow.__version__
    assert manifest["outputs"] == ["radius.csv"]
    # The config as read, under its config keys, with the defaults filled in.
    assert manifest["config"]["radius"] == {
        "p": 1.0, "dimension": 1, "beta": 0.05, "big_c": 1.0, "small_c": 1.0
    }
    assert manifest["config"]["n_range"] == [1, 10]
    assert manifest["config"]["recon_error"] is None


@pytest.mark.parametrize(
    "command, extra",
    [
        ("radius", []),
        ("horizon", []),
        ("observe", []),
        ("observe", ["--seed", "7"]),
        ("uav", []),
        ("uav", ["--seed", "5"]),
    ],
    ids=["radius", "horizon", "observe", "observe-seed", "uav", "uav-seed"],
)
def test_manifest_reruns(tmp_path, command, extra):
    # The manifest's config is the config as read, under the keys a config
    # uses, with the defaults filled in: fed back through the same command
    # with the manifest's seed, it writes the same artifacts.  The radius and
    # horizon manifests wrote RadiusConfig's 'd', an unknown field (exit 2).
    payload = uav_payload() if command == "uav" else EXAMPLES[command]
    code, first = run(tmp_path, command, payload, *extra)
    assert code == 0
    manifest = json.loads((first / "manifest.json").read_text())
    path = write_config(tmp_path, manifest["config"], name="manifest-config.json")
    second = tmp_path / "again"
    seed = [] if manifest["seed"] is None else ["--seed", str(manifest["seed"])]
    assert main([command, "--config", path, "--out", str(second), *seed]) == 0
    assert (second / "manifest.json").read_bytes() == (first / "manifest.json").read_bytes()
    for name in manifest["outputs"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_rerun_byte_identical(tmp_path):
    cfg = write_config(tmp_path, BASE_RADIUS_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["radius", "--config", cfg, "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("radius.csv", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


# --- horizon --------------------------------------------------------------------


def check_horizon_table(payload, tmp_path):
    code, out = run(tmp_path, "horizon", payload)
    assert code == 0
    data = json.loads((out / "horizon.json").read_text())
    assert data["Delta"] == 0.01
    n_star = data["N_star"]
    assert isinstance(n_star, int) and n_star > 1
    table = data["table"]
    assert len(table) == n_star
    assert all(row["improves"] for row in table[:-1])
    assert not table[-1]["improves"]
    for row in table:
        assert row["margin"] == pytest.approx(
            row["statistical_gain"] - row["pushforward_growth"], rel=1e-12
        )
    rows = read_csv(out / "horizon.csv")
    assert rows[0] == ["N", "eps_N", "bar_eps_N", "psi_N"]
    assert rows[-1][0] == "N_star" and rows[-1][1] == str(n_star)


def test_horizon_single_rho(tmp_path):
    check_horizon_table(BASE_RADIUS_CONFIG, tmp_path)


def test_horizon_critical_regime(tmp_path):
    # p = d/2: the horizon differences the same radius as the radius command.
    payload = dict(BASE_RADIUS_CONFIG, radius={"p": 1, "dimension": 2, "beta": 0.05})
    check_horizon_table(payload, tmp_path)


def test_horizon_negative_rho_is_a_config_error(tmp_path, capsys):
    payload = dict(BASE_RADIUS_CONFIG, rho_horizon=[2.0, -1.0])
    code, _ = run(tmp_path, "horizon", payload)
    assert code == 2
    assert "field 'rho_horizon[1]' must be nonnegative, got -1.0" in capsys.readouterr().err


def test_horizon_sweep_nondecreasing(tmp_path):
    payload = dict(BASE_RADIUS_CONFIG, rho_horizon=[1.0, 2.0, 3.0])
    code, out = run(tmp_path, "horizon", payload)
    assert code == 0
    data = json.loads((out / "horizon.json").read_text())
    stars = [entry["N_star"] for entry in data["sweep"]]
    assert all(isinstance(s, int) for s in stars)
    assert stars == sorted(stars)


def test_horizon_no_improvement(tmp_path):
    payload = dict(BASE_RADIUS_CONFIG, delta=50.0)
    code, out = run(tmp_path, "horizon", payload)
    assert code == 0
    data = json.loads((out / "horizon.json").read_text())
    assert data["N_star"] is None
    assert data["reason"] == "no guaranteed improvement"


def test_horizon_exact_flow_caps(tmp_path):
    payload = dict(
        BASE_RADIUS_CONFIG, flow_error={"magnitude": 0.0, "rate": 0.1}, cap=500
    )
    code, out = run(tmp_path, "horizon", payload)
    assert code == 0
    data = json.loads((out / "horizon.json").read_text())
    assert data["N_star"] == "cap"
    assert data["table"] == []


# --- observe --------------------------------------------------------------------


def observe_payload(**overrides):
    payload = {
        "system": {"name": "double_integrator"},
        "schedules": [[0.0, 0.5, 1.0], [1.5, 2.0, 2.5]],
        "noise": 0.01,
        "retention": 0.5,
        "criterion": "equidistant",
    }
    payload.update(overrides)
    return payload


def test_observe_happy_path(tmp_path):
    code, out = run(tmp_path, "observe", observe_payload(), "--seed", "7")
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert data["system"] == {"name": "double_integrator", "dim": 2, "lti": True}
    assert data["schedule_check"]["passed"] is True
    assert data["error_bound"] > 0.0
    assert data["gap_bound"] > 0.0
    for traj in data["trajectories"]:
        assert traj["full_rank"] is True
        assert traj["rank"] == 2
        assert traj["eigenvalue_margin"] > 0.0
        assert traj["reconstruction_error"] <= data["error_bound"]
        assert traj["within_bound"] is True


def test_observe_noiseless_exact(tmp_path):
    code, out = run(
        tmp_path, "observe", observe_payload(noise=0.0, true_state=[0.4, -1.2])
    )
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    for traj in data["trajectories"]:
        assert traj["reconstruction_error"] < 1e-9
        assert traj["within_bound"] is True


def test_observe_aliased_oscillator_flagged(tmp_path):
    pi = float(np.pi)
    payload = observe_payload(
        system={"A": [[0.0, 1.0], [-1.0, 0.0]], "C": [[1.0, 0.0]]},
        schedules=[[0.0, pi, 2 * pi]],
        noise=0.0,
    )
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    traj = data["trajectories"][0]
    assert traj["rank"] == 1 and traj["full_rank"] is False
    assert traj["reconstruction_error"] is None
    assert "failure" in traj
    assert data["schedule_check"]["passed"] is False


def test_observe_unobservable_pair_reports_no_bounds(tmp_path):
    # C sees the velocity only: the Gramian floor is zero on every window.
    payload = observe_payload(system={"A": [[0, 1], [0, 0]], "C": [[0, 1]]})
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert "not observable" in data["unobservable"]
    assert data["gap_bound"] is None and data["error_bound"] is None
    assert data["schedule_check"]["passed"] is False


def test_observe_static_kernel_has_no_gap_bound(tmp_path):
    # A = 0 with C = I: the kernel never changes, so every gap is certified.
    payload = observe_payload(system={"A": [[0, 0], [0, 0]], "C": [[1, 0], [0, 1]]})
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert data["gap_bound"] is None
    assert data["gap_bound_satisfied"] is True
    assert data["error_bound"] > 0.0


def test_observe_half_pi_spacing_passes(tmp_path):
    pi = float(np.pi)
    payload = observe_payload(
        system={"A": [[0.0, 1.0], [-1.0, 0.0]], "C": [[1.0, 0.0]]},
        schedules=[[0.0, pi / 2, pi]],
        noise=0.0,
    )
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert data["schedule_check"]["passed"] is True
    assert data["trajectories"][0]["full_rank"] is True


@pytest.mark.parametrize(
    "schedules",
    [[[0.0, 0.5, 1.0], [1.5, 2.0, 2.5, 3.0]], [[1.5, 2.0, 2.5], [0.0, 0.5, 1.0]]],
    ids=["ragged", "unsorted"],
)
def test_observe_schedule_check_is_per_member(tmp_path, schedules):
    # Members of different lengths or in any order: every member is full
    # rank, and the verdict judges each on its own.
    payload = observe_payload(
        system={"name": "harmonic_oscillator"}, schedules=schedules, noise=0.0
    )
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert all(traj["full_rank"] for traj in data["trajectories"])
    assert data["schedule_check"] == {
        "criterion": "equidistant",
        "passed": True,
        "messages": [],
    }


@pytest.mark.parametrize(
    "row, rule",
    [
        ([1.5], "be a row of 2 or more times, got [1.5]"),
        ([], "be a row of 2 or more times, got []"),
        ([0.0, 1.0, 1.0], "be strictly increasing, got 1.0 then 1.0"),
        ([0.0, 2.0, 1.0], "be strictly increasing, got 2.0 then 1.0"),
    ],
    ids=["single", "empty", "repeat", "unsorted"],
)
def test_observe_schedule_row_needs_two_increasing_times(tmp_path, capsys, row, rule):
    payload = observe_payload(schedules=[[0.0, 0.5, 1.0], row])
    code, out = run(tmp_path, "observe", payload)
    assert code == 2
    err = capsys.readouterr().err
    assert f"'schedules[1]' must {rule}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "schedules",
    [[[0.0, 0.5], [-1.0, 0.5]], [[0.0, 0.5], [-2.0, -1.0]]],
    ids=["starts-before-zero", "ends-before-zero"],
)
def test_observe_rejects_negative_sample_times(tmp_path, capsys, schedules):
    # The certificate's windows lie in [0, horizon]: a negative time is a
    # config error naming its row, before any output is written.
    code, out = run(tmp_path, "observe", observe_payload(schedules=schedules))
    assert code == 2
    err = capsys.readouterr().err
    assert "'schedules[1][0]' must be nonnegative, got " in err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, shown",
    [([0.0, "a"], "'a'"), ([0.0, True, 2.0], "True"), ([0.0, None], "None")],
    ids=["string", "bool", "null"],
)
def test_observe_rejects_non_numeric_sample_times(tmp_path, capsys, row, shown):
    code, out = run(tmp_path, "observe", observe_payload(schedules=[[0.0, 0.5, 1.0], row]))
    assert code == 2
    err = capsys.readouterr().err
    assert f"'schedules[1][1]' must be finite, got {shown}" in err
    assert not out.exists()


def test_observe_ltv_skips_schedule_check(tmp_path):
    payload = observe_payload(
        system={"name": "rotating_sensor", "params": {"omega": 1.0}},
        schedules=[[0.0, 0.4, 0.8, 1.2]],
        noise=0.0,
    )
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert data["system"]["lti"] is False
    assert "schedule_check" not in data
    assert data["trajectories"][0]["full_rank"] is True


def test_observe_counts_rank_by_the_reconstruction_floor(tmp_path):
    # Samples 1e-11 s apart leave W O a singular-value ratio below the 1e-10
    # floor that reconstruct_state rejects; numpy's default tolerance counted
    # full rank beside that failure.
    payload = observe_payload(schedules=[[0.0, 1e-11, 2e-11]], noise=0.0)
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    entry = json.loads((out / "observe.json").read_text())["trajectories"][0]
    assert "numerically rank deficient" in entry["failure"]
    assert entry["rank"] == 1 and entry["full_rank"] is False


def test_observe_seed_changes_noise_draws(tmp_path):
    errors = []
    for seed in ("3", "4"):
        out = tmp_path / seed
        cfg = write_config(tmp_path, observe_payload(), name=f"cfg{seed}.json")
        assert main(["observe", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        data = json.loads((out / "observe.json").read_text())
        errors.append(data["trajectories"][0]["reconstruction_error"])
    assert errors[0] != errors[1]


def worst_box_noise_error(obs, weight, noise):
    """Largest state error of the weighted fit under outputs off by at most noise.

    The fit's error map R (2 x l) is linear, so the worst noise is a vertex
    s of the box and the error is noise * max_theta sum_j |u_theta . r_j|.
    Its sign pattern only changes where u_theta is orthogonal to a column
    r_j, so the patterns at the midpoints between those angles are all of
    the candidates.
    """
    wo = weight @ obs
    r = np.linalg.pinv(wo) @ weight
    cuts = np.sort(np.mod(np.arctan2(r[1], r[0]) + np.pi / 2, np.pi))
    mids = (cuts + np.append(cuts[1:], cuts[0] + np.pi)) / 2
    u = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    signs = np.sign(u @ r)
    return noise * float(np.linalg.norm(signs @ r.T, axis=1).max())


def test_observe_error_bound_uses_the_shortest_window(tmp_path):
    # The sampling certificate keeps a fraction of the Gramian floor over the
    # shortest span; the floor over the longest is larger and the bound it
    # gives fails for the short trajectory.
    schedules = [list(np.linspace(0.0, 0.5, 77)), list(np.linspace(1.0, 2.0, 153))]
    payload = observe_payload(schedules=schedules, retention=0.5, noise=0.01)
    code, out = run(tmp_path, "observe", payload)
    assert code == 0
    data = json.loads((out / "observe.json").read_text())
    assert data["gap_bound_satisfied"] is True
    sys = LinearTimeVaryingSystem.lti([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])
    floor = gramian_floor(sys, 0.5, 2.0)
    assert data["error_bound"] == estimation_error_bound(1.0, floor, 0.5, 0.01)
    for times in schedules:
        worst = worst_box_noise_error(
            sample_observability_matrix(sys, times), weight_matrix(times), 0.01
        )
        assert worst <= data["error_bound"]


def test_observe_computes_the_gramian_floor_once(tmp_path, monkeypatch):
    # The certificate's floor over the shortest window serves the gap bound and
    # the error bound alike: the error bound's ``gramian_floor`` is a lookup
    # of the floor the gap bound kept, so the Gramians are computed once.
    calls = []
    gramian = obs.observability_gramian

    def counted(*args, **kwargs):
        calls.append(args)
        return gramian(*args, **kwargs)

    monkeypatch.setattr(obs, "observability_gramian", counted)
    code, out = run(tmp_path, "observe", observe_payload())
    assert code == 0
    assert len(calls) == 1
    data = json.loads((out / "observe.json").read_text())
    sys = LinearTimeVaryingSystem.lti([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]])
    floor = gramian_floor(sys, 1.0, 2.5)
    assert data["error_bound"] == estimation_error_bound(1.0, floor, 0.5, 0.01)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "fast, schedules",
    [
        (-3000.0, [[0.0, 0.25, 0.5], [0.5, 0.75, 1.0]]),  # the backward flow overflows
        (-900.0, [[0.0, 0.5]]),  # the flow is finite, its Gramian overflows
    ],
)
def test_observe_overflow_exit_3(tmp_path, capsys, fast, schedules):
    system = {"A": [[fast, 0.0], [0.0, -1.0]], "C": [[1.0, 1.0]]}
    code, out = run(tmp_path, "observe", observe_payload(system=system, schedules=schedules))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


def test_observe_sweep_over_the_limit_exit_2(tmp_path, capsys):
    # Spans of 1e-6 and 10 s: the stationary gap bound would sweep 10 s at
    # the default grid of 1e-6 / 100, 1e9 nodes.
    code, out = run(tmp_path, "observe", observe_payload(schedules=[[0, 1e-6], [0, 10]]))
    assert code == 2
    assert "is over the limit of 1,000,000: take a larger window_low or grid_step" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_observe_bad_true_state_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "observe", observe_payload(true_state=[1.0, 2.0, 3.0]))
    assert code == 2
    assert "true_state" in capsys.readouterr().err


# --- uav ------------------------------------------------------------------------


def uav_payload(**overrides):
    payload = {
        "scenario": {"seed": 3},
        "realizations": 1,
        "checkpoints": [1, 2],
        "time_grid": 100,
        "solver_starts": 2,
    }
    payload.update(overrides)
    return payload


def test_uav_run_and_summary(tmp_path):
    code, out = run(tmp_path, "uav", uav_payload())
    assert code == 0
    rows = read_csv(out / "uav.csv")
    assert rows[0] == [
        "realization",
        "checkpoint",
        "mode",
        "radius",
        "dro_value",
        "min_true_distance",
    ]
    assert len(rows) == 1 + 4  # one realization, two checkpoints, two modes
    # A single shared sample makes the two modes coincide exactly.
    assert rows[1][2] == "dynamic" and rows[2][2] == "static"
    assert rows[1][3:] == rows[2][3:]
    summary = json.loads((out / "uav_summary.json").read_text())
    assert summary["realizations"] == 1
    assert summary["summary"]["checkpoints"]["1"]["dynamic_minus_static"] == 0.0


def test_uav_jobs_do_not_change_output(tmp_path):
    cfg = write_config(tmp_path, uav_payload(realizations=2, checkpoints=[1]))
    outs = []
    for jobs, name in (("1", "serial"), ("2", "parallel")):
        out = tmp_path / name
        assert main(["uav", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out)
    for fname in ("uav.csv", "uav_summary.json", "manifest.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def test_uav_seed_flag_overrides_scenario(tmp_path):
    code, out = run(tmp_path, "uav", uav_payload(checkpoints=[1]), "--seed", "99")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["scenario"]["seed"] == 99


def test_uav_bad_scenario_exit_2(tmp_path, capsys):
    payload = uav_payload(scenario={"seed": 3, "tracking_gain": 3.5})
    code, _ = run(tmp_path, "uav", payload)
    assert code == 2
    assert "gain" in capsys.readouterr().err


def test_uav_too_many_segments_exit_2(tmp_path, capsys):
    payload = uav_payload(scenario={"seed": 3, "n_segments": 13})
    code, _ = run(tmp_path, "uav", payload)
    assert code == 2
    assert "n_segments" in capsys.readouterr().err


def test_uav_bad_checkpoints_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "uav", uav_payload(checkpoints=[]))
    assert code == 2
    assert "checkpoints" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("solver_starts", 0), ("solver_starts", -3), ("time_grid", 1), ("time_grid", 0)],
)
def test_uav_bad_solver_settings_exit_2(tmp_path, capsys, field, value):
    # No start, or a one-instant clearance grid, is a config error, not a
    # silently adjusted run.
    code, _ = run(tmp_path, "uav", uav_payload(**{field: value}))
    assert code == 2
    assert field in capsys.readouterr().err


# --- flags and parser ------------------------------------------------------------


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x.json"])
    assert exc.value.code == 2


def test_bad_jobs_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_RADIUS_CONFIG)
    code = main(["radius", "--config", cfg, "--out", str(tmp_path), "--jobs", "0"])
    assert code == 2
    assert "jobs" in capsys.readouterr().err


def test_bad_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_RADIUS_CONFIG)
    code = main(["radius", "--config", cfg, "--out", str(tmp_path), "--seed", "-1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


# --- config fuzzer ------------------------------------------------------------------


def readme_examples():
    """The README's JSON example blocks, keyed by the command section each sits in.

    The uav example is shrunk to one small realization, so that no mutation
    of it asks for a long run.
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = {}
    for section in text.split("\n### ")[1:]:
        blocks = re.findall(r"```json\n(.*?)```", section, flags=re.S)
        if blocks:
            examples[section.split("\n", 1)[0].strip()] = json.loads(blocks[0])
    examples["uav"].update(realizations=1, checkpoints=[1], time_grid=20, solver_starts=2)
    return examples


EXAMPLES = readme_examples()
# New values come from a small pool, so no mutation can ask for a large run.
VALUES = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5, 7.0]),
    st.text(max_size=3),
    st.sampled_from([True, None]),
    st.builds(list),  # a fresh [] or {} each time: a later mutation may fill it
    st.builds(dict),
)


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)


# Keys of every example, keys a command reads that no example sets, and one
# that no command reads.
KEYS = sorted(
    {key for config in EXAMPLES.values() for key in _keys(config)}
    | {"cap", "recon_error", "big_c", "small_c", "true_state", "params", "x"}
)


def _nodes(value, path=()):
    """(path, value) for every node under value, the root included."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _nodes(item, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


@st.composite
def mutated(draw, config):
    """(config, names) after one to three mutations: replace a leaf, delete a
    key, or add a key.  ``names`` holds the deepest key of each mutated path."""
    config = json.loads(json.dumps(config))
    paths = []
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(config))
        leaves = [p for p, v in nodes if p and not (isinstance(v, (dict, list)) and v)]
        keyed = [p for p, _ in nodes if p and isinstance(_at(config, p[:-1]), dict)]
        sections = [p for p, v in nodes if isinstance(v, dict)]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace" and leaves:
            path = draw(st.sampled_from(leaves))
            _at(config, path[:-1])[path[-1]] = draw(VALUES)
        elif op == "delete" and keyed:
            path = draw(st.sampled_from(keyed))
            del _at(config, path[:-1])[path[-1]]
        elif op == "add":
            path = (*draw(st.sampled_from(sections)), draw(st.sampled_from(KEYS)))
            _at(config, path[:-1])[path[-1]] = draw(VALUES)
        else:
            continue
        paths.append(path)
    return config, {next(k for k in reversed(p) if isinstance(k, str)) for p in paths}


@pytest.mark.parametrize("command", ["radius", "horizon", "observe", "uav"])
def test_readme_example_runs(tmp_path, command):
    # The fuzzer's seeds: an example that drifts from the command line fails here.
    code, _ = run(tmp_path, command, EXAMPLES[command])
    assert code == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the command line does not raise them
@pytest.mark.parametrize("command", ["radius", "horizon", "observe", "uav"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_readme_config_exits_cleanly(command, data):
    # Exit 0, 2 or 3 and nothing else; a config error names a mutated key,
    # a failed run writes nothing, and a run that succeeds writes the same
    # bytes again.
    config, names = data.draw(mutated(EXAMPLES[command]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        first, second = Path(tmp) / "a", Path(tmp) / "b"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", str(path), "--out", str(first)])
        assert code in (0, 2, 3)
        if code == 2:
            message = err.getvalue()
            assert any(re.search(rf"\b{re.escape(name)}\b", message) for name in names), (
                f"{message!r} names none of {sorted(names)}"
            )
        if code != 0:
            assert not first.exists()
            return
        assert main([command, "--config", str(path), "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
