"""End-to-end tests of the command-line front end.

Each test drives ``main`` in process with a config written to tmp_path and
checks exit codes, emitted artifacts, and determinism.
"""

import csv
import json

import numpy as np
import pytest

import ambiflow
from ambiflow.ambiguity import total_radius
from ambiflow.cli import main
from ambiflow.concentration import RadiusConfig, ambiguity_radius
from ambiflow.dynamics import FlowErrorModel

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
    ],
)
def test_non_finite_config_value_exit_2(tmp_path, capsys, command, field, literal):
    # Python's json reads NaN, Infinity and overflowing literals as floats;
    # each must fail as a config error naming its field, not run on.
    base = {
        "radius": BASE_RADIUS_CONFIG,
        "horizon": BASE_RADIUS_CONFIG,
        "observe": observe_payload(),
        "uav": uav_payload(),
    }[command]
    path = tmp_path / "config.json"
    path.write_text(_with_literal(base, field, literal))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_list_entry_named_by_index(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(observe_payload(schedules=[[0.0, 0.5, float("nan")]])))
    code = main(["observe", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'schedules[0][2]'" in capsys.readouterr().err


# --- manifest -------------------------------------------------------------------


def test_manifest_contents(tmp_path):
    code, out = run(tmp_path, "radius", BASE_RADIUS_CONFIG)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "radius"
    assert manifest["version"] == ambiflow.__version__
    assert manifest["outputs"] == ["radius.csv"]
    assert manifest["config"]["radius"]["d"] == 1
    assert manifest["config"]["n_range"] == [1, 10]


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


def test_horizon_single_rho(tmp_path):
    code, out = run(tmp_path, "horizon", BASE_RADIUS_CONFIG)
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


def test_observe_seed_changes_noise_draws(tmp_path):
    errors = []
    for seed in ("3", "4"):
        out = tmp_path / seed
        cfg = write_config(tmp_path, observe_payload(), name=f"cfg{seed}.json")
        assert main(["observe", "--config", cfg, "--out", str(out), "--seed", seed]) == 0
        data = json.loads((out / "observe.json").read_text())
        errors.append(data["trajectories"][0]["reconstruction_error"])
    assert errors[0] != errors[1]


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


def test_uav_bad_checkpoints_exit_2(tmp_path, capsys):
    code, _ = run(tmp_path, "uav", uav_payload(checkpoints=[]))
    assert code == 2
    assert "checkpoints" in capsys.readouterr().err


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
