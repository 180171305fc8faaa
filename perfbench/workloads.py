"""The three benchmark workloads as ordered task lists, with their checks.

A task produces its artifacts through the `kgnls` CLI or a public library
call and then checks the invariant its acceptance criterion pins.  A task
fails when it raises, when a CLI command exits non-zero, when an artifact
is unreadable, non-finite or invalid JSON, or when its check fails.

The workload seed only draws generated inputs (Monte-Carlo seeds, initial
phases and amplitudes); it never changes the amount of work.  `tiny=True`
shrinks every task for the smoke test while keeping its shape and check.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("divisor-sweep", "normal-form", "torus-flow")
J3 = (1, 2, 3)


class CheckFailed(Exception):
    """A task ran but its output broke the invariant it must satisfy."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _reject_constant(name):
    raise CheckFailed(f"non-finite JSON constant {name}")


def load_json(path) -> dict:
    """Parse a JSON artifact, rejecting NaN and +-Infinity, which Python's
    json module accepts by default."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"invalid JSON in {path}: {exc}") from exc


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def binom_sf(k: int, n: int, q: float) -> float:
    """P(X >= k) for X ~ Binomial(n, q)."""
    return math.fsum(math.comb(n, j) * q ** j * (1.0 - q) ** (n - j)
                     for j in range(k, n + 1))


def _dir_bytes(out: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


@dataclass
class Task:
    name: str
    run: Callable[["Context"], None]


class Context:
    """Per-pass state: where artifacts go, the optional tracer and the
    CLI run directories earlier tasks produced."""

    def __init__(self, out_root: pathlib.Path, tracer=None):
        self.out_root = out_root
        self.tracer = tracer
        self.runs: dict[str, pathlib.Path] = {}
        self.artifact_bytes = 0

    def cli(self, run_name: str, command: str, config: dict | None = None,
            extra: list[str] | None = None) -> pathlib.Path:
        """Run one `kgnls` command in-process; raise CheckFailed on a
        non-zero exit.  Returns the command's output directory."""
        from kgnls.cli import main

        out = self.out_root / run_name
        out.mkdir(parents=True)
        args = [command]
        if config is not None:
            cfg_path = self.out_root / f"{run_name}.config.json"
            cfg_path.write_text(json.dumps(config))
            args += ["--config", str(cfg_path)]
        args += extra if extra is not None else ["--out", str(out)]
        span = self.tracer.span(f"cli.{command}") if self.tracer \
            else contextlib.nullcontext()
        with span:
            try:
                main(args, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        require(code in (0, None), f"kgnls {command} exited with {code}")
        self.artifact_bytes += _dir_bytes(out)
        self.runs[run_name] = out
        return out


# --- divisor-sweep ---------------------------------------------------------

def _divisor_scan(tiny: bool) -> Callable[[Context], None]:
    config = {"c_list": [25.0, 100.0], "Mmax": 8} if tiny \
        else {"c_list": [25.0, 100.0, 400.0], "Mmax": 12}
    n_c = len(config["c_list"])

    def run(ctx: Context) -> None:
        out = ctx.cli("divisor-scan", "divisor-scan", config=config)
        doc = load_json(out / "divisor_scan.json")
        rows = doc["quartic"]["rows"]
        require(len(rows) == n_c and len(doc["nongauge"]) == n_c,
                "one row per c expected")
        require(all(r["gauge_min"] > 0 and r["nongauge_min_over_c2"] > 0
                    for r in rows), "quartic divisor minima not positive")
        require(all(r["pairs"] > 0 and r["min_over_c2"] > 0
                    for r in doc["nongauge"]),
                "non-gauge divisor minima not positive")
    return run


def _measure(mc_seed: int) -> Callable[[Context], None]:
    # kept at full size when tiny: with fewer samples the slope is too noisy
    def run(ctx: Context) -> None:
        out = ctx.cli("measure", "measure", config={"seed": mc_seed})
        doc = load_json(out / "measure_fit.json")
        with open(out / "measure.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == 3, "one measure row per alpha expected")
        fracs = [float(r["fraction"]) for r in rows]
        require(all(0.0 < f < 1.0 for f in fracs), "fraction out of (0, 1)")
        require(fracs == sorted(fracs), "fraction not monotone in alpha")
        # single resonant set: fraction ~ alpha^1 (criterion 06).  Over 40
        # MC seeds the fitted slope had mean 1.00, standard deviation 0.067
        # and range 0.85-1.16; the tolerance is five standard deviations.
        require(finite(doc["slope"]) and abs(doc["slope"] - 1.0) < 0.35,
                f"measure slope {doc['slope']} not ~1")
    return run


def union_within_bound(uf, alphas, p: float, samples: int) -> bool:
    """Whether the union fractions uf at increasing alphas, all from the
    same `samples` points, are consistent with uf ~ C alpha^p or faster.

    The resonant sets grow with alpha, so the hits at a smaller alpha are a
    subset of the n hits at the largest.  Given n, each lies in the smaller
    union independently with probability f(alpha)/f(alpha_max), which the
    bound caps at (alpha/alpha_max)^p.  A count far above that cap (binomial
    tail below 1e-4) fails; Monte-Carlo noise does not.  Comparing the raw
    fractions failed on 2 of 120 seeded unions whose fitted slope was ~1.
    """
    hits = [round(f * samples) for f in uf]
    return all(binom_sf(h, hits[-1], float(a / alphas[-1]) ** p) > 1e-4
               for h, a in zip(hits[:-1], alphas[:-1]))


def _cantor_union(tiny: bool, seeds: tuple[int, int]
                  ) -> Callable[[Context], None]:
    samples = 2_000 if tiny else 10_000

    def run(ctx: Context) -> None:
        from kgnls.divisors import (ResonantQuery, cantor_excision,
                                    center_pair_correction, make_pair)
        from kgnls.frequencies import build_model

        model = build_model(10.0, J3, 20, 1e-2)
        pair = make_pair((1, -1, 0), {-1: -1}, J3)
        centered = center_pair_correction(model, pair)
        alphas = np.logspace(-7, -6, 4)
        for theta, seed in zip((0.0, 5.0 / 12.0), seeds):
            p = 2.0 / (3.0 - theta)
            uf, sets = [], set()
            for alpha in alphas:
                q = ResonantQuery(alpha=float(alpha), tau=2.0, theta=theta,
                                  samples=samples, seed=seed)
                res = cantor_excision(centered, q, K_cut=0, kmax=2)
                uf.append(res["excised_fraction"])
                sets.add(res["sets"])
            require(len(sets) == 1 and sets.pop() > 0,
                    "set count must be positive and fixed")
            require(uf == sorted(uf) and uf[-1] > 0,
                    f"union fraction not monotone and positive: {uf}")
            require(union_within_bound(uf, alphas, p, samples),
                    f"union fraction above the alpha^{p:.3f} bound: {uf}")
    return run


def _schedule(ctx: Context) -> None:
    out = ctx.cli("schedule", "schedule")
    doc = load_json(out / "schedule.json")
    require(doc["eps_decreasing"] is True, "cascade log_eps not decreasing")
    require(doc["smallness"]["passed"] is True, "smallness check failed")
    gf = doc["growth_factor_mean_4_12"]
    require(finite(gf) and abs(gf - 4.0 / 3.0) < 0.02,
            f"growth factor {gf} not ~4/3")
    with open(out / "schedule.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == 15, "schedule.csv must hold nu = 0..14")
    require(all(math.isfinite(float(v)) for r in rows for v in r.values()),
            "non-finite schedule.csv entry")


def _report(ctx: Context) -> None:
    summary = ctx.out_root / "report" / "report.csv"
    ctx.cli("report", "report", extra=[str(ctx.runs["measure"]),
                                       str(ctx.runs["schedule"]),
                                       "--out", str(summary)])
    with open(summary, newline="") as fh:
        rows = {r["experiment"]: r for r in csv.DictReader(fh)}
    require(set(rows) == {"measure", "schedule"}, "report rows missing")
    slope = load_json(ctx.runs["measure"] / "measure_fit.json")["slope"]
    gf = load_json(ctx.runs["schedule"]
                   / "schedule.json")["growth_factor_mean_4_12"]
    require(float(rows["measure"]["fitted"]) == slope
            and float(rows["schedule"]["fitted"]) == gf,
            "report does not echo the fitted exponents")


# --- normal-form -----------------------------------------------------------

def _birkhoff(M: int) -> Callable[[Context], None]:
    def run(ctx: Context) -> None:
        out = ctx.cli(f"birkhoff-M{M}", "birkhoff", config={"M": M})
        doc = load_json(out / "birkhoff.json")
        require(doc["residual"] < 1e-12,
                f"cohomological residual {doc['residual']}")
        require(doc["gauge_divisor_min"] > 0, "gauge divisor not positive")
        lines = (out / "normal_form.txt").read_text().splitlines()
        head = json.loads(lines[0][2:], parse_constant=_reject_constant)
        require(head["M"] == M and head["residual"] == doc["residual"],
                "normal_form.txt header disagrees with birkhoff.json")
        g_lines = lines[lines.index("# G") + 1:lines.index("# Lambda_plus")]
        g_terms = sum(1 for line in g_lines if line)
        require(g_terms == doc["terms_G"] > 0,
                "normal_form.txt G section disagrees with terms_G")
    return run


def _lie_transform(M: int) -> Callable[[Context], None]:
    def run(ctx: Context) -> None:
        from kgnls.birkhoff import lie_transform, solve_cohomological_quartic
        from kgnls.hamiltonian import build_Lambda, build_P
        from kgnls.spectral_core import FrequencyTable

        ft = FrequencyTable(c=10.0, M=M)
        P = build_P(ft)
        nf = solve_cohomological_quartic(P, ft, J3)
        H = lie_transform(build_Lambda(ft) + P, nf.G, max_order=2)
        require(all(math.isfinite(abs(v)) for v in H.terms.values()),
                "non-finite transformed coefficient")
        # degree-4 part of H o flow_G = P + {Lambda, G} = Lambda_plus + P_hat
        quartic = H.restrict(lambda m: len(m) == 4)
        defect = (quartic - (nf.Lambda_plus + nf.P_hat)).max_abs_coeff()
        require(defect < 1e-10 * P.max_abs_coeff(),
                f"transformed quartic part off the normal form by {defect}")
        require(H.degrees[1] == 6, "second-order terms missing")
    return run


def _map_scalings(M: int, steps: int, theta: np.ndarray
                  ) -> Callable[[Context], None]:
    def run(ctx: Context) -> None:
        from kgnls.birkhoff import (solve_cohomological_nls,
                                    solve_cohomological_quartic)
        from kgnls.hamiltonian import build_P, build_P_nls
        from kgnls.spectral_core import FrequencyTable, SpaceParams, seq_norm
        from kgnls.torus_lab import fit_loglog, normal_form_torus

        # displacement of the normal-form map ~ R^3 (criterion 08)
        ft = FrequencyTable(c=10.0, M=M)
        nf = solve_cohomological_quartic(build_P(ft), ft, J3)
        params = SpaceParams(a=0.0, p=5.0, beta=0.0, M=M)
        Rs = np.logspace(-3, -2, 4)
        disp = []
        for R in Rs:
            xi = np.full(3, R * R)
            st = normal_form_torus(xi, J3, M, nf.G, theta=theta, steps=steps)
            st0 = normal_form_torus(xi, J3, M, None, theta=theta)
            disp.append(seq_norm(st.z - st0.z, params, ft))
        slope_R = fit_loglog(Rs, disp)
        # KG-vs-parabolic map difference ~ c^-2 at exponent p - 4
        pm4 = SpaceParams(a=0.0, p=1.0, beta=0.0, M=M)
        nf_nls = solve_cohomological_nls(build_P_nls(M), J3, M)
        xi = np.full(3, 1e-4)
        st_nls = normal_form_torus(xi, J3, M, nf_nls.G, theta=theta,
                                   steps=steps)
        cs = [50.0, 100.0, 200.0, 400.0]
        diffs = []
        for c in cs:
            ftc = FrequencyTable(c=c, M=M)
            nfc = solve_cohomological_quartic(build_P(ftc), ftc, J3)
            st_kg = normal_form_torus(xi, J3, M, nfc.G, theta=theta,
                                      steps=steps)
            diffs.append(seq_norm(st_kg.z - st_nls.z, pm4, ftc))
        slope_c = fit_loglog(cs, diffs)
        require(abs(slope_R - 3.0) < 0.1, f"R-slope {slope_R} not ~3")
        require(abs(slope_c + 2.0) < 0.3, f"c-slope {slope_c} not ~-2")
    return run


# --- torus-flow ------------------------------------------------------------

def _seeded_modes(rng: np.random.Generator) -> dict:
    """Two excited modes near the `simulate` defaults: amplitudes within
    20% of 0.01 and |0.005 + 0.003i|, uniform phases."""
    modes = {}
    for j, amp in ((1, 0.01), (2, abs(0.005 + 0.003j))):
        r = amp * rng.uniform(0.8, 1.2)
        ph = rng.uniform(0.0, 2.0 * math.pi)
        modes[str(j)] = [r * math.cos(ph), r * math.sin(ph)]
    return modes


def _simulate(run_name: str, config: dict, frames: int, check_mass: bool
              ) -> Callable[[Context], None]:
    def run(ctx: Context) -> None:
        from kgnls.torus_lab import load_record

        out = ctx.cli(run_name, "simulate", config=config)
        doc = load_json(out / "simulate.json")
        require(doc["frames"] == frames,
                f"{doc['frames']} frames, expected {frames}")
        require(doc["momentum_drift"] < 1e-10,
                f"momentum drift {doc['momentum_drift']}")
        if check_mass:
            require(doc["mass_drift"] < 1e-10,
                    f"mass drift {doc['mass_drift']}")
        require(finite(doc["hamiltonian_drift_rel"])
                and doc["hamiltonian_drift_rel"] < 1e-6,
                f"energy drift {doc['hamiltonian_drift_rel']}")
        times, states = load_record(out / "frames.bin")
        require(len(states) == frames and np.all(np.isfinite(times))
                and all(np.all(np.isfinite(s.z)) for s in states),
                "frames.bin unreadable or non-finite")
    return run


def _scaling(tiny: bool) -> Callable[[Context], None]:
    config = {"c_list": [110.0, 240.0], "M": 8, "n_samples": 64} \
        if tiny else {"c_list": [110.0, 160.0, 240.0]}

    def run(ctx: Context) -> None:
        out = ctx.cli("scaling", "scaling", config=config)
        doc = load_json(out / "scaling.json")
        rows = doc["rows"]
        require(rows and all(r["admissible"] and r["converged"]
                             for r in rows), "a torus pair did not converge")
        dist = [r["distance"] for r in rows]
        require(all(finite(d) and d > 0 for d in dist),
                "gauge distance not positive")
        # gauge distance ~ c^(-2 sigma), sigma = 1 (criterion 10)
        require(abs(doc["slope_vs_c"] + 2.0) < 0.5,
                f"gauge-distance slope {doc['slope_vs_c']} not ~-2")
    return run


def build(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """The ordered task list of one workload pass."""
    rng = np.random.default_rng(seed)
    if workload == "divisor-sweep":
        mc_seed, s0, s1 = (int(v) for v in rng.integers(0, 2**31, size=3))
        return [Task("divisor-scan", _divisor_scan(tiny)),
                Task("measure", _measure(mc_seed)),
                Task("cantor-union", _cantor_union(tiny, (s0, s1))),
                Task("schedule", _schedule),
                Task("report", _report)]
    if workload == "normal-form":
        theta = rng.uniform(0.0, 2.0 * math.pi, size=3)
        return [Task("birkhoff-small", _birkhoff(4 if tiny else 8)),
                Task("birkhoff-large", _birkhoff(6 if tiny else 16)),
                Task("lie-transform", _lie_transform(3 if tiny else 4)),
                Task("map-scalings", _map_scalings(4 if tiny else 8,
                                                   4 if tiny else 8, theta))]
    if workload == "torus-flow":
        nls_T, kg_T = (1.0, 0.1) if tiny else (4.0, 1.0)
        nls = {"system": "nls", "T": nls_T, "modes": _seeded_modes(rng)}
        kg = {"system": "kg", "c": 10.0, "M": 16, "T": kg_T,
              "modes": _seeded_modes(rng)}
        return [Task("simulate-nls",
                     _simulate("simulate-nls", nls,
                               27 if tiny else 104, check_mass=True)),
                Task("simulate-kg",
                     _simulate("simulate-kg", kg,
                               5 if tiny else 39, check_mass=False)),
                Task("scaling", _scaling(tiny))]
    raise ValueError(f"unknown workload {workload!r}")
