"""Command-line front end: configs, manifests, exit codes, artifacts."""

import hashlib
import json
import math

import pytest
from click.testing import CliRunner

from kgnls import birkhoff
from kgnls.cli import COMMANDS, _dump_json, _resolve, main


@pytest.fixture
def runner():
    return CliRunner()


def test_help_lists_commands(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    for cmd in ("divisor-scan", "measure", "birkhoff", "schedule",
                "simulate", "scaling", "report"):
        assert cmd in res.output


def test_version(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0


def test_schedule_run_and_manifest(runner, tmp_path):
    out = tmp_path / "run"
    res = runner.invoke(main, ["schedule", "--out", str(out)])
    assert res.exit_code == 0, res.output
    man = json.loads((out / "manifest.json").read_text())
    assert man["experiment"] == "schedule"
    assert len(man["config_sha256"]) == 64
    assert (man["status"], man["exit_code"]) == ("ok", 0)
    doc = json.loads((out / "schedule.json").read_text())
    assert doc["eps_decreasing"]
    assert abs(doc["growth_factor_mean_4_12"] - 4.0 / 3.0) < 0.02
    lines = (out / "schedule.csv").read_text().strip().splitlines()
    assert len(lines) == 16


def test_unknown_config_key_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu_mx": 5}))
    res = runner.invoke(main, ["schedule", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2
    assert "unknown config key" in res.output


def test_wrong_config_type_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu_max": "ten"}))
    res = runner.invoke(main, ["schedule", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2


def test_schedule_divergence_exits_3(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_eps0": -20.0}))
    res = runner.invoke(main, ["schedule", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    assert "numeric anomaly" in res.output
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (man["status"], man["exit_code"]) == ("numeric_anomaly", 3)


def test_measure_reproducible(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 500, "M": 12,
                               "alphas": [1e-7, 1e-6]}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = runner.invoke(main, ["measure", "--config", str(cfg),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append((out / "measure.csv").read_bytes())
    assert outs[0] == outs[1]
    fit = json.loads((tmp_path / "a" / "measure_fit.json").read_text())
    assert fit["slope"] is None or fit["slope"] > 0


def test_measure_seed_override_changes_output(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 500, "M": 12, "alphas": [1e-6]}))
    hashes = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        res = runner.invoke(main, ["measure", "--config", str(cfg),
                                   "--seed", seed, "--out", str(out)])
        assert res.exit_code == 0, res.output
        hashes.append((out / "measure.csv").read_bytes())
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["seed"] == int(seed)
    assert hashes[0] != hashes[1]


def test_simulate_writes_frames(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 8, "T": 2.0, "record_every": 50}))
    out = tmp_path / "run"
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["mass_drift"] < 1e-12
    assert doc["momentum_drift"] < 1e-12
    assert (out / "frames.bin").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert (man["status"], man["warnings"]) == ("ok", [])


@pytest.mark.parametrize("config,digests", [
    ({}, {"frames.bin": "e554dce672a01513dac343a66ba1fdf0"
                        "7a1a9287bab792fb803d1581530327a2",
          "simulate.json": "447cf2f63a75f5c0c8096845e905bb34"
                           "1e3fd2664a2c7315fa2d9cf038f01bd6"}),
    ({"system": "kg", "T": 1.0},
     {"frames.bin": "cb9eee67cf7ea06d5f702819fe8a1fa0"
                    "cf2ebe91cc5b600f945de64b0a4c5c4d",
      "simulate.json": "59c9c594673bf5cfc5ff557e0e5ab7e1"
                       "fbe5022be9eb100861164bce4be91be5"})],
    ids=["nls-default", "kg-T1"])
def test_simulate_artifacts_are_golden(runner, tmp_path, config, digests):
    # changes to the truncated field or the Strang step must keep the
    # trajectory byte-identical
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_simulate_bad_system_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "wave"}))
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2


def test_scaling_rows_record_the_kg_solve(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_list": [110.0, 240.0], "M": 8,
                               "n_samples": 64}))
    out = tmp_path / "run"
    res = runner.invoke(main, ["scaling", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = json.loads((out / "scaling.json").read_text())["rows"]
    assert [r["converged"] for r in rows] == [True, True]
    for r in rows:
        hist = r["defect_history"]
        assert r["newton_iters"] == len(hist) - 1 >= 1
        assert all(math.isfinite(v) and v >= 0 for v in hist)
        assert math.isfinite(r["sigma_min"]) and r["sigma_min"] > 0
        assert r["coeff_error_bound"] == hist[-1] / r["sigma_min"]
    header = (out / "scaling.csv").read_text().splitlines()[0]
    assert header == "c,admissible,converged,distance"


def test_scaling_defaults_take_one_newton_step(runner, tmp_path):
    # the KG seed from the amplitude-frequency map is one step from the torus
    out = tmp_path / "run"
    res = runner.invoke(main, ["scaling", "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = json.loads((out / "scaling.json").read_text())["rows"]
    assert [r["newton_iters"] for r in rows] == [1] * 4


def test_birkhoff_command(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": [1, 2], "M": 5, "c": 10.0}))
    out = tmp_path / "run"
    res = runner.invoke(main, ["birkhoff", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    doc = json.loads((out / "birkhoff.json").read_text())
    assert doc["residual"] < 1e-12
    assert (out / "normal_form.txt").read_text()


def test_birkhoff_default_artifacts_are_golden(runner, tmp_path):
    # refactors of the normal-form step must keep its artifacts
    # byte-identical at the default config
    out = tmp_path / "run"
    res = runner.invoke(main, ["birkhoff", "--out", str(out)])
    assert res.exit_code == 0, res.output
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("normal_form.txt", "birkhoff.json")}
    assert digest == {
        "normal_form.txt": "2da990042a63785c8b4d7748f58465a8"
                           "e625ae23bc22e8761472e829bb66b57b",
        "birkhoff.json": "ee87f52d46eb05de9d0c55c03dca77c4"
                         "cd73b54f7f8e10d6769c33fb11a5f95a"}


@pytest.mark.parametrize("config", [{"M": True}, {"c": False}])
def test_bool_for_number_exits_2(runner, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["birkhoff", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2
    assert "got bool" in res.output


def test_birkhoff_mode_outside_window_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": [1, 2, 99], "M": 8}))
    out = tmp_path / "run"
    res = runner.invoke(main, ["birkhoff", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 2
    assert "[99]" in res.output
    assert not (out / "birkhoff.json").exists()


def test_report_aggregates_and_skips(runner, tmp_path):
    out = tmp_path / "sched"
    assert runner.invoke(main, ["schedule", "--out",
                                str(out)]).exit_code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_eps0": -20.0}))
    failed = tmp_path / "failed"
    assert runner.invoke(main, ["schedule", "--config", str(cfg), "--out",
                                str(failed)]).exit_code == 3
    crashed = tmp_path / "crashed"   # a run killed before it finished
    crashed.mkdir()
    man = json.loads((out / "manifest.json").read_text())
    man.update(status="running", exit_code=None)
    (crashed / "manifest.json").write_text(json.dumps(man))
    res = runner.invoke(main, ["report", str(out),
                               str(tmp_path / "nonexistent"), str(failed),
                               str(crashed)])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert "skipped (no manifest)" in lines[0]
    assert lines[1] == "experiment,seed,run,fitted,predicted,status"
    assert lines[2].startswith("schedule,") and lines[2].endswith(",ok")
    assert float(lines[2].split(",")[4]) == 4.0 / 3.0
    assert lines[3] == f"schedule,,{failed},,,numeric_anomaly"
    assert lines[4] == f"schedule,,{crashed},,,running"


def test_report_leaves_missing_prediction_blank(runner, tmp_path):
    out = tmp_path / "sched"
    assert runner.invoke(main, ["schedule", "--out",
                                str(out)]).exit_code == 0
    doc = json.loads((out / "schedule.json").read_text())
    del doc["predicted_growth_factor"]   # an artifact that records none
    (out / "schedule.json").write_text(json.dumps(doc))
    res = runner.invoke(main, ["report", str(out)])
    assert res.exit_code == 0
    row = res.output.strip().splitlines()[1].split(",")
    assert float(row[3]) == doc["growth_factor_mean_4_12"]
    assert row[4] == ""


# Each must exit 2 with a one-line message and write nothing.
INVALID = [
    ("measure", {"k": [0, 0, 0]}),
    ("measure", {"c": -1}),
    ("measure", {"samples": 0}),
    ("measure", {"alphas": ["x"]}),
    ("measure", {"ell": {"a": 1}}),
    ("measure", {"ell": {"1": 1, "-5": -1}}),   # support inside J
    ("measure", {"k": [1, -1]}),
    ("measure", {"ell": {"3": 1, "4": 1, "5": 1}}),
    ("birkhoff", {"M": 0}),
    ("birkhoff", {"c": -1}),
    ("birkhoff", {"J": [1, 1, 2]}),
    ("divisor-scan", {"Mmax": 0}),
    ("divisor-scan", {"c_list": [-5.0]}),
    ("divisor-scan", {"J": [1, 2]}),
    ("simulate", {"M": 0}),
    ("simulate", {"M": 4, "modes": {"9": [0.01, 0.0]}}),
    ("simulate", {"M": 4, "modes": {"-9": [0.01, 0.0]}}),
    ("simulate", {"modes": {"1": [0.01]}}),
    ("simulate", {"record_every": 0}),
    ("simulate", {"T": -1}),
    ("simulate", {"dt": 0}),
    ("simulate", {"T": None}),
    ("simulate", {"c": float("nan")}),
    ("scaling", {"Q": 0}),
    ("scaling", {"J": [17]}),
    ("scaling", {"R": 1.5}),
    ("scaling", {"sigma": -0.5}),
    ("schedule", {"r0": 2}),
    ("schedule", {"nu_max": 0}),
    ("schedule", {"varsigma": 0.1}),
]


@pytest.mark.parametrize("command,config", INVALID,
                         ids=[f"{c}-{json.dumps(v)}" for c, v in INVALID])
def test_invalid_config_exits_2_with_one_line(runner, tmp_path, command,
                                              config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    res = runner.invoke(main, [command, "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not out.exists()   # checked before anything is written


@pytest.mark.parametrize("cmd", COMMANDS, ids=[c.name for c in COMMANDS])
def test_defaults_pass_their_own_checks(cmd):
    cfg = _resolve(cmd.schema, None, {})
    assert cfg == {key: spec.default for key, spec in cmd.schema.items()}


def test_non_finite_result_exits_3(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "T": 1.0,
                               "modes": {"1": [1000.0, 0.0]}}))
    out = tmp_path / "run"
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(out)])
    assert res.exit_code == 3
    assert "not finite" in res.stderr
    man = json.loads((out / "manifest.json").read_text())
    assert (man["status"], man["exit_code"]) == ("numeric_anomaly", 3)
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_artifact_never_holds_non_finite(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(FloatingPointError):
        _dump_json(path, {"rows": [{"distance": value}]})
    assert not path.exists()


def test_flags_exist_where_their_keys_do(runner, tmp_path):
    for cmd in COMMANDS:
        args = [cmd.name, "--out", str(tmp_path / cmd.name)]
        assert runner.invoke(main, args + ["--workers", "2"]).exit_code == 2
        for flag, extra in (("seed", ["1"]), ("strict", [])):
            res = runner.invoke(main, args + [f"--{flag}"] + extra
                                + ["--help"])
            assert (res.exit_code == 0) == (flag in cmd.schema), cmd.name


def test_strict_flag_turns_coarse_dt_into_anomaly(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "T": 1.0, "dt": 1.0}))
    res = runner.invoke(main, ["simulate", "--config", str(cfg), "--strict",
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert man["config"]["strict"] is True


def test_coarse_dt_warning_is_recorded_in_the_manifest(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "T": 1.0, "dt": 1.0}))
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert len(man["warnings"]) == 1
    assert "does not resolve the fastest frequency" in man["warnings"][0]
    assert "does not resolve" in res.stderr


def test_exit_code_survives_standalone_mode_off(tmp_path):
    # perfbench calls main(args, standalone_mode=False) and reads the code
    # from SystemExit; a code returned instead would count as success
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r0": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["schedule", "--config", str(cfg), "--out",
              str(tmp_path / "run")], standalone_mode=False)
    assert exc.value.code == 2


def test_library_functions_looked_up_at_run_time(runner, tmp_path,
                                                 monkeypatch):
    # a tracer patches module attributes after the CLI is imported
    calls = []
    solve = birkhoff.solve_cohomological_quartic
    monkeypatch.setattr(birkhoff, "solve_cohomological_quartic",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": [1], "M": 3}))
    res = runner.invoke(main, ["birkhoff", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.output
    assert calls == [1]
