"""Command-line front end: configs, manifests, exit codes, artifacts."""

import hashlib
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from kgnls import __version__, birkhoff
from kgnls.cli import COMMANDS, _dump_json, _resolve, main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture
def cli(capsys):
    """Run `main(argv)` in-process: the exit code and the captured output."""
    def invoke(argv):
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        return Result(code, *capsys.readouterr())
    return invoke


def test_help_lists_commands(cli):
    res = cli(["--help"])
    assert res.exit_code == 0
    for cmd in ("divisor-scan", "measure", "birkhoff", "schedule",
                "simulate", "scaling", "report"):
        assert cmd in res.stdout


def test_version(cli):
    res = cli(["--version"])
    assert res.exit_code == 0
    assert __version__ in res.stdout


def test_cli_imports_no_package_but_numpy():
    # numpy is the one runtime dependency: the CLI parses with argparse
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    probe = ("import sys; before = set(sys.modules); import kgnls.cli; "
             "print(' '.join(sorted({m.partition('.')[0] for m in "
             "set(sys.modules) - before} - sys.stdlib_module_names)))")
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["kgnls", "numpy"]


def set_blas_threads(monkeypatch):
    """One thread setting set and two unset, as the manifest records
    them."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": None}


def test_schedule_run_and_manifest(cli, tmp_path, monkeypatch):
    blas = set_blas_threads(monkeypatch)
    out = tmp_path / "run"
    res = cli(["schedule", "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    man = json.loads((out / "manifest.json").read_text())
    assert man["experiment"] == "schedule"
    assert len(man["config_sha256"]) == 64
    assert (man["status"], man["exit_code"]) == ("ok", 0)
    assert (man["python"], man["numpy"], man["blas_threads"]) == (
        platform.python_version(), np.__version__, blas)
    doc = json.loads((out / "schedule.json").read_text())
    assert doc["eps_decreasing"]
    assert abs(doc["growth_factor_mean_4_12"] - 4.0 / 3.0) < 0.02
    lines = (out / "schedule.csv").read_text().strip().splitlines()
    assert len(lines) == 16


def test_schedule_default_artifacts_are_golden(cli, tmp_path):
    # changes to the cascade bookkeeping must keep its artifacts
    # byte-identical at the default config
    out = tmp_path / "run"
    res = cli(["schedule", "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("schedule.csv", "schedule.json")}
    assert digest == {
        "schedule.csv": "79a9e703e45f3a06d119aa3a296dcc3a"
                        "7256c52faafce6be876070b7479f184e",
        "schedule.json": "fb92582d24aa0bb950896468730f0be5"
                         "f096ea5b3b9ddeb5467bf687e7c3f3c3"}


def test_unknown_config_key_exits_2(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu_mx": 5}))
    res = cli(["schedule", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2
    assert "unknown config key" in res.stderr


def test_wrong_config_type_exits_2(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu_max": "ten"}))
    res = cli(["schedule", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2


def test_schedule_divergence_exits_3(cli, tmp_path, monkeypatch):
    blas = set_blas_threads(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_eps0": -20.0}))
    res = cli(["schedule", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    assert "numeric anomaly" in res.stderr
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert (man["status"], man["exit_code"]) == ("numeric_anomaly", 3)
    assert (man["python"], man["numpy"], man["blas_threads"]) == (
        platform.python_version(), np.__version__, blas)


@pytest.mark.parametrize("log_eps0,nu", [(-4790.0, 5), (-6000.0, 0)])
def test_schedule_K_overflow_exits_3(cli, tmp_path, log_eps0, nu):
    # K_nu = 2^(nu-1) K_1 outgrows the float range: at -4790 from nu = 5,
    # at -6000 already K_1 (an exact big integer) has no float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_eps0": log_eps0}))
    out = tmp_path / "run"
    res = cli(["schedule", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 3
    assert f"not a finite float at nu = {nu}" in res.stderr
    man = json.loads((out / "manifest.json").read_text())
    assert (man["status"], man["exit_code"]) == ("numeric_anomaly", 3)
    assert man["warnings"] == []
    for path in out.iterdir():
        text = path.read_text().lower()
        assert "inf" not in text and "nan" not in text, path.name


def test_measure_reproducible(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 500, "M": 12,
                               "alphas": [1e-7, 1e-6]}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        res = cli(["measure", "--config", str(cfg),
                   "--out", str(out)])
        assert res.exit_code == 0, res.stderr
        outs.append((out / "measure.csv").read_bytes())
    assert outs[0] == outs[1]
    fit = json.loads((tmp_path / "a" / "measure_fit.json").read_text())
    assert fit["slope"] is None or fit["slope"] > 0


def test_measure_seed_override_changes_output(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 500, "M": 12, "alphas": [1e-6]}))
    hashes = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        res = cli(["measure", "--config", str(cfg),
                   "--seed", seed, "--out", str(out)])
        assert res.exit_code == 0, res.stderr
        hashes.append((out / "measure.csv").read_bytes())
        man = json.loads((out / "manifest.json").read_text())
        assert man["config"]["seed"] == int(seed)
    assert hashes[0] != hashes[1]


def test_simulate_writes_frames(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 8, "T": 2.0, "frame_dt": 0.078125}))
    out = tmp_path / "run"
    res = cli(["simulate", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    doc = json.loads((out / "simulate.json").read_text())
    assert doc["mass_drift"] < 1e-12
    assert doc["momentum_drift"] < 1e-12
    assert (out / "frames.bin").exists()
    man = json.loads((out / "manifest.json").read_text())
    assert (man["status"], man["warnings"]) == ("ok", [])


@pytest.mark.parametrize("config,digests", [
    ({}, {"frames.bin": "cc1d15afd66a489166014cb1d747f119"
                        "58a8e3c59ba9197a1a2c38195aad18a4",
          "simulate.json": "3fe896565b128e3fc3ef51b67c565bc2"
                           "725c7ee4486c7685d95f4d809e5e65a4"}),
    ({"system": "kg", "T": 1.0},
     {"frames.bin": "132a04a87142686c15fa9510faede780"
                    "410084c0218824ca55148d241d990799",
      "simulate.json": "6bccd75fe9889e58e5e9c249e4fdaa57"
                       "031d9e488f649bc518b9c95215839188"})],
    ids=["nls-default", "kg-T1"])
def test_simulate_artifacts_are_golden(cli, tmp_path, config, digests):
    # the trajectory's bytes: a change to the truncated field or the Lawson
    # step that moves them logs the largest |dz| per frame in CHANGES.md
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    res = cli(["simulate", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


@pytest.mark.parametrize("command,config,digests", [
    ("divisor-scan", {"c_list": [25.0, 100.0], "Mmax": 8},
     {"divisor_scan.json": "97b7d667be8d2c3a0bb008697852a9cb"
                           "83ed1611dbdfd45af678943df2654482"}),
    ("divisor-scan", {"c_list": [25.0, 100.0, 400.0], "Mmax": 12},
     {"divisor_scan.json": "9ca2b70b4e3353b7772661ecaad5e356"
                           "29d4bef95f46fa0cf15b1a955cf55de9"}),
    ("divisor-scan", {},
     {"divisor_scan.json": "3d165cdfa828a9a1b1644303f03ffe1b"
                           "0abff58dd5e3868fb8085122742849ae"}),
    ("measure", {},
     {"measure.csv": "2245429f3dba1d1f411e07d33c2aa66a"
                     "a925932c4b55b13c5ee536ebcf07303a",
      "measure_fit.json": "90d096f8efe4494dc151369d9b028bf5"
                          "983d70efbcfc7ff6807f39880ac4600f"})],
    ids=["scan-M8", "scan-M12", "scan-default", "measure-default"])
def test_divisor_artifacts_are_golden(cli, tmp_path, command, config,
                                      digests):
    # changes to the pair enumeration or the divisor kernel must keep the
    # scan minima, their pairs and the measure rows byte-identical
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    res = cli([command, "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in digests} == digests


def test_simulate_bad_system_exits_2(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "wave"}))
    res = cli(["simulate", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2


def test_scaling_rows_record_the_kg_solve(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_list": [110.0, 240.0], "M": 8,
                               "n_samples": 64}))
    out = tmp_path / "run"
    res = cli(["scaling", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 0, res.stderr
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


def test_scaling_without_a_slope_warns(cli, tmp_path):
    # both c lie below c_adm ~ 106: no torus, no slope, and a warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c_list": [50.0, 60.0]}))
    out = tmp_path / "run"
    res = cli(["scaling", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    assert json.loads((out / "scaling.json").read_text())["slope_vs_c"] \
        is None
    man = json.loads((out / "manifest.json").read_text())
    assert man["status"] == "ok"
    assert [w for w in man["warnings"] if "no slope_vs_c" in w] == [
        "scaling study has no slope_vs_c: 0 of 2 rows converged, it needs 2"]


def test_scaling_defaults_take_one_newton_step(cli, tmp_path):
    # the KG seed from the amplitude-frequency map is one step from the torus
    out = tmp_path / "run"
    res = cli(["scaling", "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    rows = json.loads((out / "scaling.json").read_text())["rows"]
    assert [r["newton_iters"] for r in rows] == [1] * 4


def test_birkhoff_command(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": [1, 2], "M": 5, "c": 10.0}))
    out = tmp_path / "run"
    res = cli(["birkhoff", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    doc = json.loads((out / "birkhoff.json").read_text())
    assert doc["residual"] < 1e-12
    assert (out / "normal_form.txt").read_text()


def test_birkhoff_default_artifacts_are_golden(cli, tmp_path):
    # refactors of the normal-form step must keep its artifacts
    # byte-identical at the default config
    out = tmp_path / "run"
    res = cli(["birkhoff", "--out", str(out)])
    assert res.exit_code == 0, res.stderr
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in ("normal_form.txt", "birkhoff.json")}
    assert digest == {
        "normal_form.txt": "2da990042a63785c8b4d7748f58465a8"
                           "e625ae23bc22e8761472e829bb66b57b",
        "birkhoff.json": "ee87f52d46eb05de9d0c55c03dca77c4"
                         "cd73b54f7f8e10d6769c33fb11a5f95a"}


@pytest.mark.parametrize("config", [{"M": True}, {"c": False}])
def test_bool_for_number_exits_2(cli, tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    res = cli(["birkhoff", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 2
    assert "got bool" in res.stderr


def test_birkhoff_mode_outside_window_exits_2(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": [1, 2, 99], "M": 8}))
    out = tmp_path / "run"
    res = cli(["birkhoff", "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 2
    assert "[99]" in res.stderr
    assert not (out / "birkhoff.json").exists()


def test_report_aggregates_and_skips(cli, tmp_path):
    out = tmp_path / "sched"
    assert cli(["schedule", "--out", str(out)]).exit_code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"log_eps0": -20.0}))
    failed = tmp_path / "failed"
    assert cli(["schedule", "--config", str(cfg), "--out",
                str(failed)]).exit_code == 3
    crashed = tmp_path / "crashed"   # a run killed before it finished
    crashed.mkdir()
    man = json.loads((out / "manifest.json").read_text())
    man.update(status="running", exit_code=None)
    (crashed / "manifest.json").write_text(json.dumps(man))
    res = cli(["report", str(out), str(tmp_path / "nonexistent"),
               str(failed), str(crashed)])
    assert res.exit_code == 0
    assert "skipped (no manifest)" in res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "experiment,run,fitted,predicted,status"
    assert lines[1].startswith("schedule,") and lines[1].endswith(",ok")
    assert float(lines[1].split(",")[3]) == 4.0 / 3.0
    assert lines[2] == f"schedule,{failed},,,numeric_anomaly"
    assert lines[3] == f"schedule,{crashed},,,running"


def test_report_leaves_missing_prediction_blank(cli, tmp_path):
    out = tmp_path / "sched"
    assert cli(["schedule", "--out", str(out)]).exit_code == 0
    doc = json.loads((out / "schedule.json").read_text())
    del doc["predicted_growth_factor"]   # an artifact that records none
    (out / "schedule.json").write_text(json.dumps(doc))
    res = cli(["report", str(out)])
    assert res.exit_code == 0
    row = res.stdout.strip().splitlines()[1].split(",")
    assert float(row[2]) == doc["growth_factor_mean_4_12"]
    assert row[3] == ""


# Each must exit 2 with a one-line message and write nothing.
INVALID = [
    ("measure", {"k": [0, 0, 0]}),
    ("measure", {"c": -1}),
    ("measure", {"samples": 0}),
    ("measure", {"alphas": ["x"]}),
    ("measure", {"ell": {"a": 1}}),
    ("measure", {"ell": {"1": 1, "-5": -1}}),   # support inside J
    ("measure", {"k": [1, -1]}),
    ("measure", {"J": [1, 2], "k": [1, -1]}),
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
    ("simulate", {"frame_dt": 0}),
    ("simulate", {"T": -1}),
    ("simulate", {"dt": 0}),
    ("simulate", {"T": None}),
    ("simulate", {"c": float("nan")}),
    ("scaling", {"Q": 0}),
    ("scaling", {"Q": 2}),
    ("scaling", {"J": [17]}),
    ("scaling", {"R": 1.5}),
    ("scaling", {"sigma": -0.5}),
    ("schedule", {"r0": 2}),
    ("schedule", {"nu_max": 0}),
    ("schedule", {"varsigma": 0.1}),
    ("simulate", {"record_every": 100}),   # replaced by frame_dt
]


@pytest.mark.parametrize("command,config", INVALID,
                         ids=[f"{c}-{json.dumps(v)}" for c, v in INVALID])
def test_invalid_config_exits_2_with_one_line(cli, tmp_path, command,
                                              config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    res = cli([command, "--config", str(cfg),
               "--out", str(out)])
    assert res.exit_code == 2, res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not out.exists()   # checked before anything is written


def test_missing_config_exits_2_with_one_line(cli, tmp_path):
    out = tmp_path / "run"
    res = cli(["birkhoff", "--config", str(tmp_path / "missing.json"),
               "--out", str(out)])
    assert res.exit_code == 2
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ")
    assert not out.exists()


@pytest.mark.parametrize("cmd", COMMANDS, ids=[c.name for c in COMMANDS])
def test_defaults_pass_their_own_checks(cmd):
    cfg = _resolve(cmd.schema, None, {})
    assert cfg == {key: spec.default for key, spec in cmd.schema.items()}


def test_non_finite_result_exits_3(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "T": 1.0,
                               "modes": {"1": [1000.0, 0.0]}}))
    out = tmp_path / "run"
    res = cli(["simulate", "--config", str(cfg),
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


def test_flags_exist_where_their_keys_do(cli, tmp_path):
    for cmd in COMMANDS:
        args = [cmd.name, "--out", str(tmp_path / cmd.name)]
        assert cli(args + ["--workers", "2"]).exit_code == 2
        for flag, extra in (("seed", ["1"]), ("strict", [])):
            res = cli(args + [f"--{flag}"] + extra + ["--help"])
            assert (res.exit_code == 0) == (flag in cmd.schema), cmd.name


def test_strict_flag_turns_coarse_dt_into_anomaly(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "T": 1.0, "dt": 1.0}))
    res = cli(["simulate", "--config", str(cfg), "--strict",
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 3
    man = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert man["config"]["strict"] is True


def test_coarse_dt_warning_is_recorded_in_the_manifest(cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "T": 1.0, "dt": 1.0}))
    res = cli(["simulate", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.stderr
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


def test_library_functions_looked_up_at_run_time(cli, tmp_path,
                                                 monkeypatch):
    # a tracer patches module attributes after the CLI is imported
    calls = []
    solve = birkhoff.solve_cohomological_quartic
    monkeypatch.setattr(birkhoff, "solve_cohomological_quartic",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"J": [1], "M": 3}))
    res = cli(["birkhoff", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    assert res.exit_code == 0, res.stderr
    assert calls == [1]
