"""Span tracer for the traced pass: wraps the public functions of every
`kgnls` library module from outside and derives the per-layer metrics.

A span is (id, parent id, name, start ns, end ns).  Spans stay in memory
and are reduced once the pass ends.  The self time of a span is its
duration minus the durations of its direct children; a layer's self time
is the sum over the spans of its functions, and the `cli` layer is the
self time of the spans the workload opens around each `kgnls` command.

Work counts are derived from the arguments and results of the wrapped
calls (steps = round(T/dt), pairs and sets from the returned dicts,
iterations from RefineReport), never by wrapping the per-element helpers
listed in INNER.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

LAYERS = ("spectral_core", "hamiltonian", "birkhoff", "frequencies",
          "divisors", "kam_schedule", "torus_lab")

# Per-element helpers called up to millions of times per pass (per monomial,
# per index pair or per sample).  A span each would cost more than their
# work; their time stays in the caller and their counts are derived there.
INNER = {
    "hamiltonian": {"canonical", "momentum", "gauge_sum", "sigma_string"},
    "divisors": {"make_pair", "classify_pair", "s8_localization",
                 "threshold", "weight_w", "divisor", "divisor_parts",
                 "is_resonant"},
}

# Every per-layer metric with its unit, in report order.
METRICS = {
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "spectral_core.self_s": "s",
    "spectral_core.calls": "count",
    "hamiltonian.build_P_s": "s",
    "hamiltonian.terms_built": "count",
    "hamiltonian.vector_field_s": "s",
    "hamiltonian.vector_field_calls": "count",
    "hamiltonian.vector_field_ns_per_term": "ns",
    "hamiltonian.poisson_bracket_s": "s",
    "hamiltonian.bracket_term_pairs": "count",
    "birkhoff.solve_s": "s",
    "birkhoff.lie_transform_s": "s",
    "birkhoff.divisor_bounds_s": "s",
    "birkhoff.tuples_scanned": "count",
    "frequencies.self_s": "s",
    "divisors.nongauge_scan_s": "s",
    "divisors.pairs_scanned": "count",
    "divisors.enumerate_ell_s": "s",
    "divisors.ells_enumerated": "count",
    "divisors.pair_yield": "ratio",
    "divisors.measure_mc_s": "s",
    "divisors.scalar_divisor_calls": "count",
    "divisors.cantor_excision_s": "s",
    "divisors.set_evals": "count",
    "kam_schedule.self_s": "s",
    "torus_lab.integrate_s": "s",
    "torus_lab.steps": "count",
    "torus_lab.step_us": "us",
    "torus_lab.refine_s": "s",
    "torus_lab.newton_iters": "count",
    "torus_lab.residual_calls": "count",
    "torus_lab.residual_calls_per_iter": "ratio",
    "torus_lab.residual_s": "s",
    "torus_lab.record_s": "s",
    "torus_lab.flow_s": "s",
    "trace.overhead_s": "s",
}


# --- work counts derived from arguments and results ------------------------

def _count_build(tr, a, res):
    tr.counts["hamiltonian.terms_built"] += len(res)


def _count_vector_field(tr, a, res):
    tr.counts["hamiltonian.vector_field_terms"] += len(a["H"])


def _count_bracket(tr, a, res):
    tr.counts["hamiltonian.bracket_term_pairs"] += len(a["F"]) * len(a["G"])


def _count_divisor_bounds(tr, a, res):
    # 16 sigma patterns over every (j1, j2, j3) in [-Mmax, Mmax]^3, per c
    tr.counts["birkhoff.tuples_scanned"] += \
        len(a["c_grid"]) * 16 * (2 * a["Mmax"] + 1) ** 3


def _count_nongauge(tr, a, res):
    tr.counts["divisors.pairs_scanned"] += res["pairs"]


def _count_enumerate_ell(tr, a, res):
    tr.counts["divisors.ells_enumerated"] += len(res)
    if tr.caller() == "divisors.nongauge_scan":
        tr.counts["divisors.scan_ells"] += len(res)


def _count_measure(tr, a, res):
    model, k, ells = a["model"], a["k"], a["ells"]
    if a["nls"] or (model.delta is None and model.Delta is None):
        return  # vectorized affine path, no scalar divisor() calls
    if ells is None:
        ells = tr.originals["divisors.enumerate_ell"](k, model.J, model.M)
    k1 = sum(abs(int(v)) for v in k)
    used = sum(1 for ell in ells if k1 + sum(abs(v) for v in ell.values()))
    tr.counts["divisors.scalar_divisor_calls"] += res.samples * used


def _count_cantor(tr, a, res):
    # both divisor families per set and sample
    tr.counts["divisors.set_evals"] += res["sets"] * res["samples"] * 2


def _count_integrate(tr, a, res):
    dt = a["dt"] if a["dt"] is not None \
        else tr.originals["torus_lab.default_dt"](a["system"])
    tr.counts["torus_lab.steps"] += max(1, int(round(a["T"] / dt)))


def _count_refine(tr, a, res):
    tr.counts["torus_lab.newton_iters"] += res[1].iterations


def _count_residual(tr, a, res):
    if tr.caller() == "torus_lab.refine_torus":
        tr.counts["torus_lab.residual_calls"] += 1


COUNTERS: dict[str, Callable] = {
    "hamiltonian.build_P": _count_build,
    "hamiltonian.build_P_nls": _count_build,
    "hamiltonian.vector_field": _count_vector_field,
    "hamiltonian.poisson_bracket": _count_bracket,
    "birkhoff.verify_divisor_bounds": _count_divisor_bounds,
    "divisors.nongauge_scan": _count_nongauge,
    "divisors.enumerate_ell": _count_enumerate_ell,
    "divisors.measure_estimate_mc": _count_measure,
    "divisors.cantor_excision": _count_cantor,
    "torus_lab.integrate": _count_integrate,
    "torus_lab.refine_torus": _count_refine,
    "torus_lab.invariance_residual": _count_residual,
}


class Tracer:
    """Collects spans with parent links and derived work counts."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._names: list[str] = []   # span id -> name, for caller()
        self._stack: list[int] = []
        self.originals: dict[str, Callable] = {}

    def caller(self) -> str | None:
        """Name of the span enclosing the call being counted."""
        return self._names[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str):
        sid = len(self._names)
        self._names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name: str, fn):
        # span() inlined: the per-sample frequency maps run ~60k times a pass
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        names, stack, spans = self._names, self._stack, self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every public library function in its defining module and
        in every `kgnls` module that imported it by name (the CLI imports
        inside its commands, `torus_lab` binds `seq_norm` at import)."""
        modules = {m: importlib.import_module(f"kgnls.{m}")
                   for m in LAYERS + ("cli", "psi_transform")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, fn in vars(mod).items():
                # a generator's span would close before any of its work ran
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)
                        or attr in INNER.get(layer, ())):
                    continue
                self.originals[f"{layer}.{attr}"] = fn
                wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

    def metrics(self, artifact_bytes: int) -> dict[str, float]:
        """Reduce the spans of one pass to the per-layer metrics (all but
        trace.overhead_s, which needs the untraced passes)."""
        child = defaultdict(int)
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        for sid, _, name, t0, t1 in self.spans:
            self_ns[name] += t1 - t0 - child[sid]
            calls[name] += 1

        def s(*names):
            return sum(self_ns[n] for n in names) / 1e9

        def layer(prefix):
            return sum(v for n, v in self_ns.items()
                       if n.startswith(prefix + ".")) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out = {f"{lay}.self_s": layer(lay)
               for lay in ("cli", "spectral_core", "frequencies",
                           "kam_schedule")}
        out.update({
            "cli.artifact_bytes": artifact_bytes,
            "spectral_core.calls": sum(v for n, v in calls.items()
                                       if n.startswith("spectral_core.")),
            "hamiltonian.build_P_s": s("hamiltonian.build_P",
                                       "hamiltonian.build_P_nls"),
            "hamiltonian.terms_built": c["hamiltonian.terms_built"],
            "hamiltonian.vector_field_s": s("hamiltonian.vector_field"),
            "hamiltonian.vector_field_calls": calls["hamiltonian.vector_field"],
            "hamiltonian.vector_field_ns_per_term": ratio(
                1e9 * s("hamiltonian.vector_field"),
                c["hamiltonian.vector_field_terms"]),
            "hamiltonian.poisson_bracket_s": s("hamiltonian.poisson_bracket"),
            "hamiltonian.bracket_term_pairs":
                c["hamiltonian.bracket_term_pairs"],
            "birkhoff.solve_s": s("birkhoff.solve_cohomological_quartic",
                                  "birkhoff.solve_cohomological_nls"),
            "birkhoff.lie_transform_s": s("birkhoff.lie_transform"),
            "birkhoff.divisor_bounds_s": s("birkhoff.verify_divisor_bounds"),
            "birkhoff.tuples_scanned": c["birkhoff.tuples_scanned"],
            "divisors.nongauge_scan_s": s("divisors.nongauge_scan"),
            "divisors.pairs_scanned": c["divisors.pairs_scanned"],
            "divisors.enumerate_ell_s": s("divisors.enumerate_ell"),
            "divisors.ells_enumerated": c["divisors.ells_enumerated"],
            "divisors.pair_yield": ratio(c["divisors.pairs_scanned"],
                                         c["divisors.scan_ells"]),
            "divisors.measure_mc_s": s("divisors.measure_estimate_mc"),
            "divisors.scalar_divisor_calls":
                c["divisors.scalar_divisor_calls"],
            "divisors.cantor_excision_s": s("divisors.cantor_excision"),
            "divisors.set_evals": c["divisors.set_evals"],
            "torus_lab.integrate_s": s("torus_lab.integrate"),
            "torus_lab.steps": c["torus_lab.steps"],
            "torus_lab.step_us": ratio(1e6 * s("torus_lab.integrate"),
                                       c["torus_lab.steps"]),
            "torus_lab.refine_s": s("torus_lab.refine_torus"),
            "torus_lab.newton_iters": c["torus_lab.newton_iters"],
            "torus_lab.residual_calls": c["torus_lab.residual_calls"],
            "torus_lab.residual_calls_per_iter": ratio(
                c["torus_lab.residual_calls"], c["torus_lab.newton_iters"]),
            "torus_lab.residual_s": s("torus_lab.invariance_residual"),
            "torus_lab.record_s": s("torus_lab.synthesize_record",
                                    "torus_lab.gauge_distance"),
            "torus_lab.flow_s": s("torus_lab.normal_form_torus",
                                  "torus_lab.flow_time1"),
        })
        return {name: out[name] for name in METRICS if name in out}
