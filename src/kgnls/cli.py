"""Batch front end: reproducible experiments over the library modules.

Every run resolves a JSON config (file + command-line overrides), validates
it against a per-command schema (unknown keys rejected), writes a manifest
echoing the exact resolved config with its hash, and emits CSV/JSON
artifacts into the output directory.  Exit codes: 0 success, 2 config
error, 3 numeric anomaly (divisor floor violation or cascade divergence).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import pathlib
import sys

import click
import numpy as np

from . import __version__

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _load_config(path, defaults: dict, schema: dict) -> dict:
    """Merge file config over defaults; reject unknown keys and wrong
    types (a JSON bool is not an int).  Schema maps key -> type or tuple of
    types."""
    cfg = dict(defaults)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key, val in user.items():
            if key not in schema:
                raise ConfigError(f"unknown config key: {key!r} "
                                  f"(allowed: {sorted(schema)})")
            cfg[key] = val
    for key, typ in schema.items():
        val = cfg.get(key)
        if val is None:
            continue
        allowed = typ if isinstance(typ, tuple) else (typ,)
        # bool subclasses int: true/false must not pass as a number
        if not isinstance(val, typ) \
                or (isinstance(val, bool) and bool not in allowed):
            raise ConfigError(
                f"config key {key!r}: expected {typ}, got "
                f"{type(val).__name__} = {val!r}")
    return cfg


def _write_manifest(out: pathlib.Path, experiment: str, cfg: dict) -> None:
    blob = json.dumps(cfg, sort_keys=True).encode()
    doc = {"experiment": experiment, "version": __version__,
           "config": cfg,
           "config_sha256": hashlib.sha256(blob).hexdigest()}
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dump_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


_COMMON_OPTS = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="JSON config file"),
    click.option("--seed", type=int, default=None, help="RNG seed override"),
    click.option("--out", "out_dir", type=click.Path(), default="runs/out",
                 help="output directory"),
    click.option("--workers", type=int, default=1,
                 help="worker count (recorded; scans are vectorized)"),
    click.option("--strict", is_flag=True, default=False,
                 help="turn warnings into errors"),
]


def common_opts(fn):
    for opt in reversed(_COMMON_OPTS):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Finite-truncation experiments for the relativistic/Schrodinger
    torus comparison."""


@main.command("divisor-scan")
@common_opts
def divisor_scan(config_path, seed, out_dir, workers, strict):
    """Exhaustive small-divisor minima over a c grid."""
    schema = {"J": list, "Mmax": int, "c_list": list, "kappa": (int, float),
              "seed": int, "workers": int, "strict": bool}
    defaults = {"J": [1, 2, 3], "Mmax": 24, "c_list": [25.0, 100.0, 400.0],
                "kappa": 0.5, "seed": 0, "workers": workers,
                "strict": strict}
    try:
        cfg = _load_config(config_path, defaults, schema)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if seed is not None:
        cfg["seed"] = seed
    out = pathlib.Path(out_dir)
    _write_manifest(out, "divisor-scan", cfg)

    from .birkhoff import DivisorAnomaly, verify_divisor_bounds
    from .divisors import nongauge_scan
    from .frequencies import build_model
    try:
        quartic = verify_divisor_bounds(tuple(cfg["J"]),
                                        [float(c) for c in cfg["c_list"]],
                                        cfg["Mmax"])
        ng = []
        for c in cfg["c_list"]:
            model = build_model(float(c), cfg["J"], cfg["Mmax"], R=1e-2)
            ng.append(nongauge_scan(model, kappa=float(cfg["kappa"])))
    except (DivisorAnomaly, ArithmeticError) as exc:
        click.echo(f"numeric anomaly: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    mins = [r["min_over_c2"] for r in ng if r["min_over_c2"] is not None]
    doc = {"quartic": quartic, "nongauge": ng,
           "nongauge_spread": (max(mins) - min(mins)) / max(mins)
           if mins else None}
    _dump_json(out / "divisor_scan.json", doc)
    click.echo(f"divisor-scan: minima positive, wrote {out}/divisor_scan.json")


@main.command("measure")
@common_opts
def measure(config_path, seed, out_dir, workers, strict):
    """Monte-Carlo resonant-set measure sweep over alpha."""
    schema = {"J": list, "M": int, "c": (int, float), "R": (int, float),
              "k": list, "ell": dict, "alphas": list, "tau": (int, float),
              "theta": (int, float), "samples": int, "seed": int,
              "center": bool, "workers": int, "strict": bool}
    defaults = {"J": [1, 2, 3], "M": 20, "c": 10.0, "R": 1e-2,
                "k": [1, -1, 0], "ell": {"5": 1, "-5": -1},
                "alphas": [1e-7, 3.162e-7, 1e-6], "tau": 2.0, "theta": 0.0,
                "samples": 10_000, "seed": 42, "center": True,
                "workers": workers, "strict": strict}
    try:
        cfg = _load_config(config_path, defaults, schema)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    if seed is not None:
        cfg["seed"] = seed
    out = pathlib.Path(out_dir)
    _write_manifest(out, "measure", cfg)

    from .divisors import (MEASURE_CSV_FIELDS, ResonantQuery,
                           center_pair_correction, make_pair,
                           measure_estimate_mc)
    from .frequencies import build_model
    model = build_model(float(cfg["c"]), cfg["J"], cfg["M"], float(cfg["R"]))
    ell = {int(a): int(v) for a, v in cfg["ell"].items()}
    pair = make_pair(cfg["k"], ell, cfg["J"])
    if cfg["center"]:
        model = center_pair_correction(model, pair)
    rows = []
    for alpha in cfg["alphas"]:
        q = ResonantQuery(alpha=float(alpha), tau=float(cfg["tau"]),
                          theta=float(cfg["theta"]),
                          samples=int(cfg["samples"]), seed=int(cfg["seed"]))
        res = measure_estimate_mc(model, cfg["k"], q, ells=[ell])
        rows.append({"k_id": "k" + "_".join(str(v) for v in cfg["k"]),
                     "alpha": alpha, "theta": cfg["theta"],
                     "tau": cfg["tau"], "fraction": res.fraction,
                     "ci_lo": res.ci_lo, "ci_hi": res.ci_hi,
                     "samples": res.samples, "seed": res.seed})
    with open(out / "measure.csv", "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=MEASURE_CSV_FIELDS)
        wr.writeheader()
        wr.writerows(rows)
    positive = [(r["alpha"], r["fraction"]) for r in rows
                if r["fraction"] > 0]
    slope = None
    if len(positive) >= 2:
        xs, ys = zip(*positive)
        slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    _dump_json(out / "measure_fit.json",
               {"slope": slope, "predicted_slope": 1.0, "rows": rows})
    click.echo(f"measure: slope {slope}, wrote {out}/measure.csv")


@main.command("birkhoff")
@common_opts
def birkhoff_cmd(config_path, seed, out_dir, workers, strict):
    """Quartic normal-form step at one (c, J, M)."""
    schema = {"J": list, "M": int, "c": (int, float), "seed": int,
              "workers": int, "strict": bool}
    defaults = {"J": [1, 2, 3], "M": 8, "c": 10.0, "seed": 0,
                "workers": workers, "strict": strict}
    try:
        cfg = _load_config(config_path, defaults, schema)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = pathlib.Path(out_dir)
    _write_manifest(out, "birkhoff", cfg)

    from .birkhoff import DivisorAnomaly, solve_cohomological_quartic
    from .hamiltonian import build_P
    from .spectral_core import FrequencyTable
    ft = FrequencyTable(c=float(cfg["c"]), M=cfg["M"])
    P = build_P(ft, cfg["M"])
    try:
        nf = solve_cohomological_quartic(P, ft, tuple(cfg["J"]))
    except ValueError as exc:  # a mode of J outside the window
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except DivisorAnomaly as exc:
        click.echo(f"numeric anomaly: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    with open(out / "normal_form.txt", "w") as fh:
        fh.write(nf.to_text())
    _dump_json(out / "birkhoff.json",
               {"residual": nf.residual,
                "gauge_divisor_min": nf.gauge_divisor_min,
                "terms_G": len(nf.G), "terms_P_hat": len(nf.P_hat)})
    click.echo(f"birkhoff: residual {nf.residual:.3e}, wrote {out}")


@main.command("schedule")
@common_opts
def schedule_cmd(config_path, seed, out_dir, workers, strict):
    """Cascade sequence generation and smallness report."""
    schema = {"N": int, "tau": (int, float), "r0": (int, float),
              "varsigma": (int, float), "C1": (int, float),
              "log_eps0": (int, float), "nu_max": int, "seed": int,
              "workers": int, "strict": bool}
    defaults = {"N": 3, "tau": 8.0, "r0": 1e-3, "varsigma": 1.0 / 36.0,
                "C1": 1.0, "log_eps0": -2000.0, "nu_max": 14, "seed": 0,
                "workers": workers, "strict": strict}
    try:
        cfg = _load_config(config_path, defaults, schema)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = pathlib.Path(out_dir)
    _write_manifest(out, "schedule", cfg)

    from .kam_schedule import (ScheduleDivergence, ScheduleParams, generate,
                               smallness_check, write_schedule_csv)
    try:
        params = ScheduleParams(N=cfg["N"], tau=float(cfg["tau"]),
                                r0=float(cfg["r0"]),
                                varsigma=float(cfg["varsigma"]),
                                C1=float(cfg["C1"]))
        sched = generate(params, log_eps0=float(cfg["log_eps0"]),
                         nu_max=cfg["nu_max"])
    except (ScheduleDivergence, ValueError) as exc:
        click.echo(f"numeric anomaly: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    write_schedule_csv(out / "schedule.csv", sched)
    check = smallness_check(params, log_eps0=float(cfg["log_eps0"]))
    gf = sched.growth_factors()
    _dump_json(out / "schedule.json",
               {"smallness": check,
                "growth_factor_mean_4_12":
                float(np.mean(gf[4:13])) if len(gf) > 12 else None,
                "eps_decreasing": bool(np.all(np.diff(sched.log_eps) < 0))})
    click.echo(f"schedule: {cfg['nu_max']} steps, wrote {out}/schedule.csv")


@main.command("simulate")
@common_opts
def simulate(config_path, seed, out_dir, workers, strict):
    """Integrate one truncated system and record conservation traces."""
    schema = {"system": str, "M": int, "c": (int, float), "T": (int, float),
              "dt": (int, float), "record_every": int, "modes": dict,
              "seed": int, "workers": int, "strict": bool}
    defaults = {"system": "nls", "M": 16, "c": 10.0, "T": 10.0, "dt": None,
                "record_every": 100,
                "modes": {"1": [0.01, 0.0], "2": [0.005, 0.003]},
                "seed": 0, "workers": workers, "strict": strict}
    try:
        cfg = _load_config(config_path, defaults, schema)
        if cfg["system"] not in ("kg", "nls"):
            raise ConfigError("system must be 'kg' or 'nls'")
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = pathlib.Path(out_dir)
    _write_manifest(out, "simulate", cfg)

    from .spectral_core import FourierState
    from .torus_lab import TruncatedSystem, integrate, save_record
    system = TruncatedSystem(kind=cfg["system"], M=cfg["M"],
                             c=float(cfg["c"]) if cfg["system"] == "kg"
                             else None)
    modes = {int(j): complex(v[0], v[1]) for j, v in cfg["modes"].items()}
    z0 = FourierState.from_modes(cfg["M"], modes)
    try:
        rec = integrate(system, z0, T=float(cfg["T"]),
                        dt=None if cfg["dt"] is None else float(cfg["dt"]),
                        record_every=cfg["record_every"],
                        strict=cfg["strict"])
    except ValueError as exc:
        click.echo(f"numeric anomaly: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    save_record(out / "frames.bin", rec)
    _dump_json(out / "simulate.json", {
        "mass_drift": float(np.max(np.abs(rec.mass - rec.mass[0]))),
        "momentum_drift":
        float(np.max(np.abs(rec.momentum - rec.momentum[0]))),
        "hamiltonian_drift_rel":
        float(np.max(np.abs(rec.hamiltonian - rec.hamiltonian[0]))
              / max(abs(rec.hamiltonian[0]), 1e-300)),
        "frames": len(rec.times)})
    click.echo(f"simulate: {len(rec.times)} frames, wrote {out}/frames.bin")


@main.command("scaling")
@common_opts
def scaling(config_path, seed, out_dir, workers, strict):
    """Gauge-distance scaling of frequency-matched tori over a c sweep."""
    schema = {"R": (int, float), "c_list": list, "sigma": (int, float),
              "T": (int, float), "J": list, "M": int, "Q": int,
              "n_samples": int, "seed": int, "workers": int, "strict": bool}
    defaults = {"R": 1e-2, "c_list": [110.0, 160.0, 240.0, 360.0],
                "sigma": 1.0, "T": 1e3, "J": [1], "M": 16, "Q": 3,
                "n_samples": 256, "seed": 0, "workers": workers,
                "strict": strict}
    try:
        cfg = _load_config(config_path, defaults, schema)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    out = pathlib.Path(out_dir)
    _write_manifest(out, "scaling", cfg)

    from .torus_lab import scaling_study
    rep = scaling_study(float(cfg["R"]), [float(c) for c in cfg["c_list"]],
                        float(cfg["sigma"]), T=float(cfg["T"]),
                        J=tuple(cfg["J"]), M=cfg["M"], Q=cfg["Q"],
                        n_samples=cfg["n_samples"])
    _dump_json(out / "scaling.json", rep)
    with open(out / "scaling.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["c", "admissible", "converged", "distance"])
        for r in rep["rows"]:
            wr.writerow([r["c"], r["admissible"], r["converged"],
                         "" if r["distance"] is None else repr(r["distance"])])
    click.echo(f"scaling: slope {rep['slope_vs_c']}, wrote {out}")


@main.command("report")
@click.argument("run_dirs", nargs=-1, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default="-",
              help="summary CSV path ('-' for stdout)")
def report(run_dirs, out_path):
    """Aggregate fitted exponents from run directories against the
    predicted ones."""
    predicted = {"measure": 1.0, "scaling": None, "schedule": 4.0 / 3.0}
    rows = []
    missing = []
    for d in run_dirs:
        d = pathlib.Path(d)
        man_path = d / "manifest.json"
        if not man_path.exists():
            missing.append(str(d))
            continue
        with open(man_path) as fh:
            man = json.load(fh)
        exp = man["experiment"]
        seed_v = man["config"].get("seed", "")
        fitted, pred = "", ""
        if exp == "measure" and (d / "measure_fit.json").exists():
            with open(d / "measure_fit.json") as fh:
                doc = json.load(fh)
            fitted, pred = doc["slope"], doc["predicted_slope"]
        elif exp == "scaling" and (d / "scaling.json").exists():
            with open(d / "scaling.json") as fh:
                doc = json.load(fh)
            fitted, pred = doc["slope_vs_c"], doc["predicted_slope"]
        elif exp == "schedule" and (d / "schedule.json").exists():
            with open(d / "schedule.json") as fh:
                doc = json.load(fh)
            fitted, pred = doc["growth_factor_mean_4_12"], predicted["schedule"]
        rows.append({"experiment": exp, "seed": seed_v, "run": str(d),
                     "fitted": fitted, "predicted": pred})
    for m in missing:
        click.echo(f"skipped (no manifest): {m}", err=True)
    fieldnames = ["experiment", "seed", "run", "fitted", "predicted"]
    if out_path == "-":
        wr = csv.DictWriter(click.get_text_stream("stdout"),
                            fieldnames=fieldnames)
        wr.writeheader()
        wr.writerows(rows)
    else:
        with open(out_path, "w", newline="") as fh:
            wr = csv.DictWriter(fh, fieldnames=fieldnames)
            wr.writeheader()
            wr.writerows(rows)


if __name__ == "__main__":
    main()
