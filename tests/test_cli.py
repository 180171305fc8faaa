"""Command-line front end: configs, manifests, exit codes, artifacts."""

import json

import pytest
from click.testing import CliRunner

from kgnls.cli import main


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


def test_simulate_bad_system_exits_2(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "wave"}))
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2


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
    res = runner.invoke(main, ["report", str(out),
                               str(tmp_path / "nonexistent")])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert "skipped (no manifest)" in lines[0]
    assert lines[1].startswith("experiment,")
    assert lines[2].startswith("schedule,")
