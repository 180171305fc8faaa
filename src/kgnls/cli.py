"""Batch front end: reproducible experiments over the library modules.

Each experiment command is an entry of `COMMANDS`: a schema giving every
config key its type, default and range check, a body `run(cfg, out)` and
the errors that mean a numeric anomaly.  One runner checks the config,
runs the body between two writes of `manifest.json` (the Python and numpy
versions, the BLAS thread settings and status `running`, then `ok` or
`numeric_anomaly` with the exit code and the Python warnings the body
raised) and exits 0, 2 (config error, nothing written) or 3 (numeric
anomaly; no artifact holds NaN or Infinity).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import pathlib
import sys
import warnings
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import (__version__, birkhoff, divisors, frequencies, hamiltonian,
               kam_schedule, spectral_core, torus_lab)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(Exception):
    pass


def _dump_json(path: pathlib.Path, doc) -> None:
    try:   # streamed: a scan's artifact runs to megabytes
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ValueError as exc:  # a NaN or infinity somewhere in doc
        path.unlink()
        raise FloatingPointError(f"{path.name}: {exc}") from None


# --- config schemas --------------------------------------------------------

def _is(v, typ) -> bool:
    """JSON type test: float is any finite number; true/false are bools."""
    if isinstance(v, bool):
        return typ is bool
    if typ is float:
        return isinstance(v, int) or isinstance(v, float) and math.isfinite(v)
    return isinstance(v, typ)


class Key(NamedTuple):
    """A config key; null only where the default is None.  `check(value,
    cfg)` says what is wrong with a value of the right type, or None."""
    type: type
    default: object
    check: Callable[[object, dict], str | None] = lambda v, cfg: None


def _rule(text: str, ok: Callable[[object], bool]) -> Callable:
    return lambda v, cfg: None if ok(v) else f"must be {text}"


_POSITIVE = _rule("> 0", lambda v: v > 0)
_POSITIVE_LIST = _rule("a non-empty list of numbers > 0", lambda v: bool(v)
                       and all(_is(x, float) and x > 0 for x in v))


def _modes(m_key: str = "M", least: int = 1, avoid_J: bool = False):
    """Distinct integer modes with |j| <= cfg[m_key], not in J if `avoid_J`."""
    def check(v, cfg):
        if len(v) < least or not all(_is(j, int) for j in v) \
                or len(set(v)) < len(v):
            return f"must be a list of >= {least} distinct integers"
        bad = [j for j in v if abs(j) > cfg[m_key]
               or avoid_J and j in cfg["J"]]
        if bad:
            return (f"has modes {bad} outside |j| <= {m_key} = {cfg[m_key]}"
                    + (" or in J" if avoid_J else ""))
    return check


def _mode_map(what: str, ok: Callable, avoid_J: bool = False):
    """A JSON object from modes (checked by `_modes`) to values passing ok."""
    def check(v, cfg):
        if not all(a.removeprefix("-").isdecimal() for a in v) \
                or not ok(list(v.values())):
            return f"must map integer modes to {what}"
        return _modes(least=0, avoid_J=avoid_J)([int(a) for a in v], cfg)
    return check


def _resolve(schema: dict[str, Key], path, flags: dict) -> dict:
    """Defaults < config file < flags given, each key checked in order."""
    cfg = {key: spec.default for key, spec in schema.items()}
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        for key in user:
            if key not in schema:
                raise ConfigError(f"unknown config key: {key!r} "
                                  f"(allowed: {sorted(schema)})")
        cfg.update(user)
    cfg.update((key, v) for key, v in flags.items() if v is not None)
    for key, spec in schema.items():
        val = cfg[key]
        if val is None and spec.default is None:
            continue
        if not _is(val, spec.type):
            want = "number" if spec.type is float else spec.type.__name__
            raise ConfigError(f"config key {key!r}: expected {want}, got "
                              f"{type(val).__name__} {val!r}")
        problem = spec.check(val, cfg)
        if problem:
            raise ConfigError(f"config key {key!r} {problem}, got {val!r}")
    return cfg


# --- command bodies: library functions are looked up on their modules at
# run time, so a wrapper patched onto a module (a tracer) is called --------

def _divisor_scan(cfg: dict, out: pathlib.Path) -> None:
    """Exhaustive small-divisor minima over a c grid."""
    quartic = birkhoff.verify_divisor_bounds(
        tuple(cfg["J"]), [float(c) for c in cfg["c_list"]], cfg["Mmax"])
    ng = [divisors.nongauge_scan(
        frequencies.build_model(float(c), cfg["J"], cfg["Mmax"], R=1e-2),
        kappa=float(cfg["kappa"])) for c in cfg["c_list"]]
    mins = [r["min_over_c2"] for r in ng if r["min_over_c2"] is not None]
    doc = {"quartic": quartic, "nongauge": ng,
           "nongauge_spread": (max(mins) - min(mins)) / max(mins)
           if mins else None}
    _dump_json(out / "divisor_scan.json", doc)
    print(f"divisor-scan: minima positive, wrote {out}/divisor_scan.json")


def _measure(cfg: dict, out: pathlib.Path) -> None:
    """Monte-Carlo resonant-set measure sweep over alpha."""
    model = frequencies.build_model(float(cfg["c"]), cfg["J"], cfg["M"],
                                    float(cfg["R"]))
    ell = {int(a): int(v) for a, v in cfg["ell"].items()}
    pair = divisors.make_pair(cfg["k"], ell, cfg["J"])
    if cfg["center"]:
        model = divisors.center_pair_correction(model, pair)
    rows = []
    for alpha in cfg["alphas"]:
        q = divisors.ResonantQuery(
            alpha=float(alpha), tau=float(cfg["tau"]),
            theta=float(cfg["theta"]), samples=int(cfg["samples"]),
            seed=int(cfg["seed"]))
        res = divisors.measure_estimate_mc(model, cfg["k"], q, ells=[ell])
        rows.append({"k_id": "k" + "_".join(str(v) for v in cfg["k"]),
                     "alpha": alpha, "theta": cfg["theta"],
                     "tau": cfg["tau"], "fraction": res.fraction,
                     "ci_lo": res.ci_lo, "ci_hi": res.ci_hi,
                     "samples": res.samples, "seed": res.seed})
    with open(out / "measure.csv", "w", newline="") as fh:
        wr = csv.DictWriter(fh, fieldnames=list(rows[0]))
        wr.writeheader()
        wr.writerows(rows)
    positive = [(r["alpha"], r["fraction"]) for r in rows
                if r["fraction"] > 0]
    slope = torus_lab.fit_loglog(*zip(*positive)) \
        if len(positive) >= 2 else None
    _dump_json(out / "measure_fit.json",
               {"slope": slope, "predicted_slope": 1.0, "rows": rows})
    print(f"measure: slope {slope}, wrote {out}/measure.csv")


def _birkhoff(cfg: dict, out: pathlib.Path) -> None:
    """Quartic normal-form step at one (c, J, M)."""
    ft = spectral_core.FrequencyTable(c=float(cfg["c"]), M=cfg["M"])
    nf = birkhoff.solve_cohomological_quartic(
        hamiltonian.build_P(ft), ft, tuple(cfg["J"]))
    (out / "normal_form.txt").write_text(nf.to_text())
    _dump_json(out / "birkhoff.json",
               {"residual": nf.residual,
                "gauge_divisor_min": nf.gauge_divisor_min,
                "terms_G": len(nf.G), "terms_P_hat": len(nf.P_hat)})
    print(f"birkhoff: residual {nf.residual:.3e}, wrote {out}")


def _schedule(cfg: dict, out: pathlib.Path) -> None:
    """Cascade sequence generation and smallness report."""
    params = kam_schedule.ScheduleParams(
        N=cfg["N"], tau=float(cfg["tau"]), r0=float(cfg["r0"]),
        varsigma=float(cfg["varsigma"]), C1=float(cfg["C1"]))
    sched = kam_schedule.generate(params, log_eps0=float(cfg["log_eps0"]),
                                  nu_max=cfg["nu_max"])
    kam_schedule.write_schedule_csv(out / "schedule.csv", sched)
    check = kam_schedule.smallness_check(params,
                                         log_eps0=float(cfg["log_eps0"]))
    gf = sched.growth_factors()
    _dump_json(out / "schedule.json",
               {"smallness": check,
                "growth_factor_mean_4_12":
                float(np.mean(gf[4:13])) if len(gf) > 12 else None,
                "predicted_growth_factor": 4.0 / 3.0,
                "eps_decreasing": bool(np.all(np.diff(sched.log_eps) < 0))})
    print(f"schedule: {cfg['nu_max']} steps, wrote {out}/schedule.csv")


def _simulate(cfg: dict, out: pathlib.Path) -> None:
    """Integrate one truncated system and record conservation traces."""
    system = torus_lab.TruncatedSystem(
        kind=cfg["system"], M=cfg["M"],
        c=float(cfg["c"]) if cfg["system"] == "kg" else None)
    modes = {int(j): complex(v[0], v[1]) for j, v in cfg["modes"].items()}
    rec = torus_lab.integrate(
        system, spectral_core.FourierState.from_modes(cfg["M"], modes),
        T=float(cfg["T"]), dt=None if cfg["dt"] is None else float(cfg["dt"]),
        frame_dt=None if cfg["frame_dt"] is None
        else float(cfg["frame_dt"]), strict=cfg["strict"])
    bad = ~np.isfinite(rec.z).all(axis=1)
    if bad.any():
        raise FloatingPointError(
            f"state not finite at t = {rec.times[bad.argmax()]:.6g}")
    torus_lab.save_record(out / "frames.bin", rec)
    _dump_json(out / "simulate.json", {
        "mass_drift": float(np.max(np.abs(rec.mass - rec.mass[0]))),
        "momentum_drift":
        float(np.max(np.abs(rec.momentum - rec.momentum[0]))),
        "hamiltonian_drift_rel":
        float(np.max(np.abs(rec.hamiltonian - rec.hamiltonian[0]))
              / max(abs(rec.hamiltonian[0]), 1e-300)),
        "frames": len(rec.times)})
    print(f"simulate: {len(rec.times)} frames, wrote {out}/frames.bin")


def _scaling(cfg: dict, out: pathlib.Path) -> None:
    """Gauge-distance scaling of frequency-matched tori over a c sweep."""
    rep = torus_lab.scaling_study(
        float(cfg["R"]), [float(c) for c in cfg["c_list"]],
        float(cfg["sigma"]), T=float(cfg["T"]), J=tuple(cfg["J"]),
        M=cfg["M"], Q=cfg["Q"], n_samples=cfg["n_samples"])
    _dump_json(out / "scaling.json", rep)
    with open(out / "scaling.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["c", "admissible", "converged", "distance"])
        for r in rep["rows"]:
            wr.writerow([r["c"], r["admissible"], r["converged"],
                         "" if r["distance"] is None else repr(r["distance"])])
    print(f"scaling: slope {rep['slope_vs_c']}, wrote {out}")


# --- the command table -----------------------------------------------------

class Command(NamedTuple):
    name: str
    schema: dict[str, Key]
    run: Callable[[dict, pathlib.Path], None]   # its docstring is the help
    # exit 3 besides ArithmeticError (FloatingPointError: a NaN or Infinity)
    anomalies: tuple[type[Exception], ...] = ()


COMMANDS = (
    Command("divisor-scan", {
        "Mmax": Key(int, 24, _POSITIVE),
        "J": Key(list, [1, 2, 3], _modes("Mmax", least=3)),
        "c_list": Key(list, [25.0, 100.0, 400.0], _POSITIVE_LIST),
        "kappa": Key(float, 0.5, _POSITIVE),
    }, _divisor_scan, (birkhoff.DivisorAnomaly,)),
    Command("measure", {
        "M": Key(int, 20, _POSITIVE),
        "J": Key(list, [1, 2, 3], _modes("M", least=3)),
        "c": Key(float, 10.0, _POSITIVE),
        "R": Key(float, 1e-2, _POSITIVE),
        "k": Key(list, [1, -1, 0], lambda v, cfg: None if len(v) == len(
            cfg["J"]) and all(_is(j, int) for j in v)
            else "must be one integer per mode of J"),
        "ell": Key(dict, {"5": 1, "-5": -1}, _mode_map(
            "integers of |ell|_1 <= 2", lambda vals: all(
                _is(x, int) for x in vals) and sum(map(abs, vals)) <= 2,
            avoid_J=True)),
        "alphas": Key(list, [1e-7, 3.162e-7, 1e-6], _POSITIVE_LIST),
        "tau": Key(float, 2.0, _rule(">= 1", lambda v: v >= 1)),
        "theta": Key(float, 0.0, _rule("in [0, 1)", lambda v: 0 <= v < 1)),
        "samples": Key(int, 10_000, _POSITIVE),
        "seed": Key(int, 42, _rule(">= 0", lambda v: v >= 0)),
        "center": Key(bool, True, lambda v, cfg: None if any(cfg["k"])
                      or (not v and any(cfg["ell"].values())) else
                      "must be false, with ell nonzero, when k is zero"),
    }, _measure),
    Command("birkhoff", {
        "M": Key(int, 8, _POSITIVE),
        "J": Key(list, [1, 2, 3], _modes()),
        "c": Key(float, 10.0, _POSITIVE),
    }, _birkhoff, (birkhoff.DivisorAnomaly,)),
    Command("schedule", {
        "N": Key(int, 3, _POSITIVE),
        "tau": Key(float, 8.0, _rule(">= 1", lambda v: v >= 1)),
        "r0": Key(float, 1e-3, _rule("in (0, 1)", lambda v: 0 < v < 1)),
        "varsigma": Key(float, 1.0 / 36.0,
                        _rule("in (0, 1/18)", lambda v: 0 < v < 1 / 18)),
        "C1": Key(float, 1.0, _POSITIVE),
        "log_eps0": Key(float, -2000.0, _rule("< 0", lambda v: v < 0)),
        "nu_max": Key(int, 14, _POSITIVE),
    }, _schedule, (kam_schedule.ScheduleDivergence,)),
    Command("simulate", {
        "system": Key(str, "nls", _rule("'kg' or 'nls'",
                                        lambda v: v in ("kg", "nls"))),
        "M": Key(int, 16, _POSITIVE),
        "c": Key(float, 10.0, _POSITIVE),
        "T": Key(float, 10.0, _POSITIVE),
        "dt": Key(float, None, _POSITIVE),
        "frame_dt": Key(float, None, _POSITIVE),
        "modes": Key(dict, {"1": [0.01, 0.0], "2": [0.005, 0.003]},
                     _mode_map("[re, im] pairs", lambda vals: all(
                         isinstance(a, list) and len(a) == 2
                         and all(_is(x, float) for x in a) for a in vals))),
        "strict": Key(bool, False),
    }, _simulate, (ValueError,)),  # integrate(strict=True): dt too coarse
    Command("scaling", {
        "R": Key(float, 1e-2, _rule("in (0, 1)", lambda v: 0 < v < 1)),
        "c_list": Key(list, [110.0, 160.0, 240.0, 360.0], _POSITIVE_LIST),
        "sigma": Key(float, 1.0, _rule("in [0, 1]", lambda v: 0 <= v <= 1)),
        "T": Key(float, 1e3, _POSITIVE),
        "M": Key(int, 16, _POSITIVE),
        "J": Key(list, [1], _modes()),
        # the KG cubic puts harmonic 3 e_n on mode 3 j_n
        "Q": Key(int, 3, _rule(">= 3", lambda v: v >= 3)),
        "n_samples": Key(int, 256, _POSITIVE),
    }, _scaling),
)

# A flag exists exactly where its config key does, and overrides it.
_FLAGS = {
    "seed": dict(type=int, help="RNG seed (overrides the config)"),
    "strict": dict(action="store_true", default=None,
                   help="exit 3 if dt does not resolve the fastest frequency"),
}


def _run(cmd: Command, config_path, out_dir, **flags) -> None:
    """Check the config, run the body between two manifest writes, and exit
    2 or 3 on failure: the only code here that exits non-zero."""
    try:
        cfg = _resolve(cmd.schema, config_path, flags)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(cfg, sort_keys=True).encode()
    man = {"experiment": cmd.name, "version": __version__, "config": cfg,
           "config_sha256": hashlib.sha256(blob).hexdigest(),
           # the version string platform.python_version() parses
           "python": sys.version.split()[0], "numpy": np.__version__,
           "blas_threads": {k: os.environ.get(k) for k in (  # None: unset
               "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
           "status": "running", "exit_code": None}
    _dump_json(out / "manifest.json", man)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        try:
            cmd.run(cfg, out)
            man.update(status="ok", exit_code=0)
        except (ArithmeticError, *cmd.anomalies) as exc:
            print(f"numeric anomaly: {exc}", file=sys.stderr)
            man.update(status="numeric_anomaly", exit_code=EXIT_NUMERIC)
    man["warnings"] = [str(w.message) for w in caught]
    for msg in man["warnings"]:
        print(f"warning: {msg}", file=sys.stderr)
    _dump_json(out / "manifest.json", man)
    if man["exit_code"]:
        sys.exit(man["exit_code"])


# The artifact of each fit, its fitted key and its predicted key.
_FITS = {"measure": ("measure_fit.json", "slope", "predicted_slope"),
         "scaling": ("scaling.json", "slope_vs_c", "predicted_slope"),
         "schedule": ("schedule.json", "growth_factor_mean_4_12",
                      "predicted_growth_factor")}


def _report(run_dirs, out_path) -> None:
    """Aggregate fitted exponents from run directories against the
    predicted ones their artifacts record, with each run's status."""
    rows = [["experiment", "run", "fitted", "predicted", "status"]]
    for d in map(pathlib.Path, run_dirs):
        if not (d / "manifest.json").exists():
            print(f"skipped (no manifest): {d}", file=sys.stderr)
            continue
        man = json.loads((d / "manifest.json").read_text())
        exp = man["experiment"]
        fitted, pred = "", ""
        if exp in _FITS and (d / _FITS[exp][0]).exists():
            name, fit_key, pred_key = _FITS[exp]
            doc = json.loads((d / name).read_text())
            fitted = doc[fit_key]
            pred = doc.get(pred_key, "")
        rows.append([exp, str(d), fitted, pred, man.get("status", "")])
    with contextlib.nullcontext(sys.stdout) if out_path == "-" \
            else open(out_path, "w") as fh:
        csv.writer(fh).writerows(rows)


def main(argv=None, standalone_mode=True) -> None:
    """Finite-truncation experiments for the relativistic/Schrodinger
    torus comparison."""
    # standalone_mode has no effect: perfbench's workloads still pass it
    args = vars(_PARSER.parse_args(argv))
    args.pop("run")(**args)


# Built once, at import: building costs some 25 parses.
_PARSER = argparse.ArgumentParser(prog="kgnls", description=main.__doc__)
_PARSER.add_argument("--version", action="version", version=__version__)
_SUBPARSERS = _PARSER.add_subparsers(metavar="COMMAND", required=True)


def _subcommand(name: str, doc: str, run: Callable):
    # --help swaps `run` for a help printer, so that an option the command
    # lacks still exits 2 once the whole line has parsed
    sub = _SUBPARSERS.add_parser(name, help=doc, description=doc,
                                 add_help=False, allow_abbrev=False)
    sub.add_argument("-h", "--help", dest="run", action="store_const",
                     const=lambda **_: sub.print_help(),
                     help="show this help message and exit")
    sub.set_defaults(run=run)
    return sub


for _cmd in COMMANDS:
    _sub = _subcommand(_cmd.name, _cmd.run.__doc__, partial(_run, _cmd))
    _sub.add_argument("--config", dest="config_path", help="JSON config file")
    _sub.add_argument("--out", dest="out_dir", default="runs/out",
                      help="output directory")
    for _key, _opt in _FLAGS.items():
        if _key in _cmd.schema:
            _sub.add_argument(f"--{_key}", **_opt)
_sub = _subcommand("report", _report.__doc__, _report)
_sub.add_argument("run_dirs", nargs="*", metavar="RUN_DIR")
_sub.add_argument("--out", dest="out_path", default="-",
                  help="summary CSV path ('-' for stdout)")

if __name__ == "__main__":
    main()
