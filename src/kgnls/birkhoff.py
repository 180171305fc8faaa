"""Quartic normal-form step: resonance classification, the cohomological
equation, remainder decomposition, Lie transform, and divisor-bound scans.

Conventions (matching `hamiltonian`):
    {Lambda, m} = i (sigma . lambda) m
so the generator removing a non-resonant monomial m of P is
    G_m = i P_m / (sigma . lambda),
which gives {Lambda, G} + P = Lambda_plus + P_hat exactly, where
Lambda_plus collects the resonant action products touching the tangential
set J and P_hat is the restriction of P to monomials supported in the
complement of J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .spectral_core import TWO_PI, FrequencyTable
from .hamiltonian import (PolyHamiltonian, Slots, build_Lambda,
                          build_Lambda_nls, canonical, gauge_sum,
                          poisson_bracket, split_P)


class DivisorAnomaly(RuntimeError):
    """A small divisor fell below its guaranteed floor; never divide
    silently in that situation."""


@dataclass(frozen=True)
class ResonanceClass:
    in_IR: bool
    in_LJ: bool
    gauge_sum: int
    divisor: float


def _has_pairing(jv: tuple[int, ...], sv: tuple[int, ...]) -> bool:
    """True iff some permutation splits the four slots into two pairs with
    equal index and opposite sign."""
    for perm in permutations(range(4)):
        a, b, c, d = perm
        if (jv[a] == jv[b] and sv[a] == -sv[b]
                and jv[c] == jv[d] and sv[c] == -sv[d]):
            return True
    return False


def classify(jvec, sigvec, J, freq: FrequencyTable) -> ResonanceClass:
    jv = tuple(jvec)
    sv = tuple(1 if s in (1, "+") else -1 for s in sigvec)
    if len(jv) != 4:
        raise ValueError("classification is defined for degree-4 monomials")
    Jset = set(J)
    mom = sum(j * s for j, s in zip(jv, sv))
    in_lj = mom == 0 and any(j in Jset for j in jv)
    in_ir = _has_pairing(jv, sv)
    div = float(sum(s * freq.lam_at(j) for j, s in zip(jv, sv)))
    return ResonanceClass(in_IR=in_ir, in_LJ=in_lj,
                          gauge_sum=sum(sv), divisor=div)


def _classify_slots(m: Slots, Jset: set[int]) -> tuple[bool, bool]:
    jv = tuple(j for j, _ in m)
    sv = tuple(s for _, s in m)
    return _has_pairing(jv, sv), any(j in Jset for j in jv)


@dataclass
class NormalFormResult:
    G: PolyHamiltonian
    Lambda_plus: PolyHamiltonian
    P_hat: PolyHamiltonian
    P: PolyHamiltonian
    J: tuple[int, ...]
    freq: FrequencyTable | None          # None for the NLS solve
    residual: float = 0.0
    gauge_divisor_min: float = 0.0
    G_nls: PolyHamiltonian | None = None
    G_remainder: PolyHamiltonian | None = None
    P0_terms: PolyHamiltonian | None = None

    def header(self) -> dict:
        return {
            "J": list(self.J),
            "c": None if self.freq is None else self.freq.c,
            "M": None if self.freq is None else self.freq.M,
            "residual": self.residual,
        }

    def to_text(self) -> str:
        import json
        head = "# " + json.dumps(self.header(), sort_keys=True)
        return "\n".join([head, "# G", self.G.to_text(),
                          "# Lambda_plus", self.Lambda_plus.to_text(),
                          "# P_hat", self.P_hat.to_text()])


def _divisor_of(m: Slots, lam_at) -> float:
    return float(sum(s * lam_at(j) for j, s in m))


def _divisor_split(m: Slots, freq: FrequencyTable) -> float:
    """sigma . lambda via the split lambda_j = c^2 + nu_j: the c^2 blocks
    cancel exactly for gauge-invariant monomials, which keeps divisors
    accurate at large c where the direct lambda sum loses ~c^2*eps."""
    return gauge_sum(m) * freq.c ** 2 \
        + math.fsum(s * freq.nu_at(j) for j, s in m)


def _solve(P: PolyHamiltonian, div_of, J, nongauge_floor: float | None
           ) -> tuple[PolyHamiltonian, PolyHamiltonian, PolyHamiltonian, float]:
    """Common cohomological solve.  `div_of` maps a monomial to its
    divisor sigma . lambda.  Returns (G, Lambda_plus, P_hat, kmin) where
    kmin is the smallest gauge-invariant divisor met."""
    Jset = set(J)
    g_terms: dict[Slots, complex] = {}
    lp_terms: dict[Slots, complex] = {}
    ph_terms: dict[Slots, complex] = {}

    # first pass: divisors of the terms we must divide by
    gauge_divs = []
    work = []
    for m, c in P.terms.items():
        in_ir, in_lj = _classify_slots(m, Jset)
        if not in_lj:
            ph_terms[m] = c
        elif in_ir:
            lp_terms[m] = c
        else:
            d = div_of(m)
            work.append((m, c, d))
            if gauge_sum(m) == 0:
                gauge_divs.append(abs(d))

    kmin = min(gauge_divs) if gauge_divs else float("inf")
    if gauge_divs and kmin == 0.0:
        raise DivisorAnomaly(
            "exact zero gauge-invariant divisor outside the resonant set")
    gauge_floor = 1e-8 * kmin if gauge_divs else 0.0

    for m, c, d in work:
        if gauge_sum(m) == 0:
            if abs(d) < gauge_floor:
                raise DivisorAnomaly(
                    f"gauge divisor {d:.3e} below floor {gauge_floor:.3e} "
                    f"at {m}")
        elif nongauge_floor is not None and abs(d) < nongauge_floor:
            raise DivisorAnomaly(
                f"non-gauge divisor {d:.3e} below floor "
                f"{nongauge_floor:.3e} at {m}")
        g_terms[m] = 1j * c / d

    return (PolyHamiltonian(g_terms, check=False),
            PolyHamiltonian(lp_terms, check=False),
            PolyHamiltonian(ph_terms, check=False),
            kmin)


def _check_window(J, M: int) -> None:
    """A tangential mode outside the window has no monomials to touch;
    solving without it would silently drop it from J."""
    outside = [j for j in J if abs(j) > M]
    if outside:
        raise ValueError(
            f"tangential modes {outside} outside the window |j| <= {M}")


def _residual(div_of, G: PolyHamiltonian, P: PolyHamiltonian,
              Lp: PolyHamiltonian, Ph: PolyHamiltonian) -> float:
    """Max coefficient of {Lambda, G} + P - Lambda_plus - P_hat relative
    to |P|_inf.  The diagonal bracket is evaluated monomial-wise as
    i (sigma . lambda) G_m; the generic bracket implementation agrees but
    loses ~c^2 * eps to float cancellation at large c."""
    resid: dict[Slots, complex] = {}
    for H, sgn in ((P, 1.0), (Lp, -1.0), (Ph, -1.0)):
        for m, c in H.terms.items():
            resid[m] = resid.get(m, 0.0) + sgn * c
    for m, c in G.terms.items():
        resid[m] = resid.get(m, 0.0) + 1j * div_of(m) * c
    scale = P.max_abs_coeff() or 1.0
    return max((abs(v) for v in resid.values()), default=0.0) / scale


def solve_cohomological_quartic(P: PolyHamiltonian, freq: FrequencyTable,
                                J) -> NormalFormResult:
    """Solve {Lambda, G} + P = Lambda_plus + P_hat for the KG frequencies.

    Lambda_plus agrees with the closed form
        1/2 sum_{i or j in J} N_ij / ((1+h nu_i)(1+h nu_j)) |z_i|^2 |z_j|^2,
    N_ij = 3/(8 pi) (2 - delta_ij).

    Raises ValueError when a mode of J lies outside |j| <= freq.M.
    """
    _check_window(J, freq.M)
    div_of = lambda m: _divisor_split(m, freq)  # noqa: E731
    G, Lp, Ph, kmin = _solve(P, div_of, J,
                             nongauge_floor=1e-8 * freq.c ** 2)
    res = _residual(div_of, G, P, Lp, Ph)
    return NormalFormResult(G=G, Lambda_plus=Lp, P_hat=Ph, P=P,
                            J=tuple(sorted(J)), freq=freq, residual=res,
                            gauge_divisor_min=kmin)


def solve_cohomological_nls(P_nls: PolyHamiltonian, J, M: int
                            ) -> NormalFormResult:
    """Same solve with the parabolic frequencies lambda_j = j^2/2.

    The momentum selection rule excludes exact zero divisors outside the
    resonant pairing set; an exact zero raises DivisorAnomaly.  A mode of
    J outside |j| <= M raises ValueError.
    """
    _check_window(J, M)
    div_of = lambda m: math.fsum(0.5 * s * j * j for j, s in m)  # noqa: E731
    G, Lp, Ph, kmin = _solve(P_nls, div_of, J, nongauge_floor=None)
    res = _residual(div_of, G, P_nls, Lp, Ph)
    return NormalFormResult(G=G, Lambda_plus=Lp, P_hat=Ph, P=P_nls,
                            J=tuple(sorted(J)), freq=None, residual=res,
                            gauge_divisor_min=kmin)


def lambda_plus_closed_form(freq: FrequencyTable | None, J,
                            M: int | None = None) -> PolyHamiltonian:
    """Closed-form normal-form correction.  freq=None gives the NLS one
    (h = 0, every factor 1 + h nu_j is 1) and then needs M."""
    M = freq.M if M is None else M
    terms: dict[Slots, complex] = {}
    njj = 3.0 / (4.0 * TWO_PI)  # 3/(8 pi)
    Jset = set(J)
    fac = {j: 1.0 if freq is None else 1.0 + freq.h * freq.nu_at(j)
           for j in range(-M, M + 1)}
    for i in range(-M, M + 1):
        for j in range(i, M + 1):
            if i not in Jset and j not in Jset:
                continue
            nij = njj * (2 - (1 if i == j else 0))
            coeff = nij / (fac[i] * fac[j])
            if i == j:
                coeff *= 0.5
            m = canonical([(i, 1), (i, -1), (j, 1), (j, -1)])
            terms[m] = terms.get(m, 0.0) + coeff
    return PolyHamiltonian(terms, check=False)


@dataclass
class RemainderSplit:
    """G - G_nls split into: non-gauge block, the block sourced by the
    weight-deviation part of P, and the divisor-difference block."""
    G_remainder: PolyHamiltonian
    G_ng: PolyHamiltonian
    G_r1: PolyHamiltonian
    G_div: PolyHamiltonian
    recombination_error: float = 0.0


def remainder_split(result: NormalFormResult,
                    result_nls: NormalFormResult) -> RemainderSplit:
    if result.freq is None or result_nls.freq is not None:
        raise ValueError("expected a KG result and an NLS result")
    freq = result.freq
    G_rem = result.G - result_nls.G
    G_ng = result.G.restrict(lambda m: gauge_sum(m) != 0)

    P_nls = result_nls.P
    P_gauge = result.P.restrict(lambda m: gauge_sum(m) == 0)
    P_r = P_gauge - P_nls

    r1_terms: dict[Slots, complex] = {}
    div_terms: dict[Slots, complex] = {}
    nls_lam = lambda j: 0.5 * j * j  # noqa: E731
    for m in result_nls.G.terms:
        d_kg = _divisor_split(m, freq)
        d_nls = _divisor_of(m, nls_lam)
        c_r = P_r.terms.get(m, 0.0)
        if c_r:
            r1_terms[m] = 1j * c_r / d_kg
        c_n = P_nls.terms.get(m, 0.0)
        if c_n:
            div_terms[m] = 1j * c_n * (1.0 / d_kg - 1.0 / d_nls)

    G_r1 = PolyHamiltonian(r1_terms, check=False)
    G_div = PolyHamiltonian(div_terms, check=False)
    err = (G_rem - (G_ng + G_r1 + G_div)).max_abs_coeff()
    return RemainderSplit(G_remainder=G_rem, G_ng=G_ng, G_r1=G_r1,
                          G_div=G_div, recombination_error=err)


def lie_transform(H: PolyHamiltonian, G: PolyHamiltonian,
                  max_deg: int = 6, max_order: int = 8,
                  term_limit: int = 2_000_000) -> PolyHamiltonian:
    """Lie-series transform H o flow_G(1) = sum_k ad_G^k H / k!, truncated
    at polynomial degree `max_deg`.  Terms beyond the degree cap are
    discarded (the discard is logged on the returned object as
    `.lie_discard_orders`)."""
    out = H
    term = H
    discarded = []
    g_deg = G.degrees[1]
    for k in range(1, max_order + 1):
        if term.degrees[1] + g_deg - 2 > max_deg:
            # this bracket would only produce degrees above the cap in part
            discarded.append(k)
        term = poisson_bracket(term, G, max_deg=max_deg).scale(1.0 / k)
        if len(term) == 0:
            break
        if len(out) + len(term) > term_limit:
            raise MemoryError(
                f"lie_transform term blow-up: {len(out) + len(term)} terms")
        out = out + term
    out = out.prune()
    out.lie_discard_orders = discarded  # type: ignore[attr-defined]
    return out


_SIGMA_COMBOS = [(s1, s2, s3, s4)
                 for s1 in (1, -1) for s2 in (1, -1)
                 for s3 in (1, -1) for s4 in (1, -1)]


def _scan_min_divisors(J, c: float, Mmax: int) -> tuple[float, float]:
    """Vectorized scan over quartic momentum-zero tuples touching J,
    excluding paired (resonant) tuples, in the split form of
    `_divisor_split`.  Returns (min gauge |divisor|, min non-gauge
    |divisor| / c^2)."""
    js = np.arange(-Mmax, Mmax + 1)
    nu = FrequencyTable(c=c, M=Mmax).nu
    j1, j2, j3 = np.meshgrid(js, js, js, indexing="ij")
    j1 = j1.ravel()
    j2 = j2.ravel()
    j3 = j3.ravel()
    Jarr = np.array(sorted(J))
    gauge_min = np.inf
    nongauge_min = np.inf
    for s1, s2, s3, s4 in _SIGMA_COMBOS:
        j4 = -s4 * (s1 * j1 + s2 * j2 + s3 * j3)
        ok = np.abs(j4) <= Mmax
        a, b, cc, d = j1[ok], j2[ok], j3[ok], j4[ok]
        touches = (np.isin(a, Jarr) | np.isin(b, Jarr)
                   | np.isin(cc, Jarr) | np.isin(d, Jarr))
        a, b, cc, d = a[touches], b[touches], cc[touches], d[touches]
        if a.size == 0:
            continue
        # paired (resonant) tuples: one of the three pairings matches
        ir = np.zeros(a.shape, dtype=bool)
        slots = [(a, s1), (b, s2), (cc, s3), (d, s4)]
        for (x, y), (u, v) in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                               ((0, 3), (1, 2))):
            jx, sx = slots[x]
            jy, sy = slots[y]
            ju, su = slots[u]
            jv, sv = slots[v]
            if sx == -sy and su == -sv:
                ir |= (jx == jy) & (ju == jv)
        keep = ~ir
        if not np.any(keep):
            continue
        div = np.abs((s1 + s2 + s3 + s4) * c * c
                     + (s1 * nu[a[keep] + Mmax] + s2 * nu[b[keep] + Mmax]
                        + s3 * nu[cc[keep] + Mmax] + s4 * nu[d[keep] + Mmax]))
        if s1 + s2 + s3 + s4 == 0:
            gauge_min = min(gauge_min, float(div.min()))
        else:
            nongauge_min = min(nongauge_min, float(div.min()))
    return gauge_min, nongauge_min / (c * c)


def verify_divisor_bounds(J, c_grid, Mmax: int) -> dict:
    """Exhaustive small-divisor scan report.

    For each c: the minimum gauge-invariant |divisor| (strictly positive)
    and the minimum non-gauge |divisor|/c^2 (bounded below uniformly in c).
    """
    rows = []
    for c in c_grid:
        gmin, ngmin = _scan_min_divisors(J, float(c), Mmax)
        if not (gmin > 0.0):
            raise DivisorAnomaly(f"gauge divisor minimum not positive at c={c}")
        if not (ngmin > 0.0):
            raise DivisorAnomaly(
                f"non-gauge divisor minimum not positive at c={c}")
        rows.append({"c": float(c), "gauge_min": gmin,
                     "nongauge_min_over_c2": ngmin})
    ng = [r["nongauge_min_over_c2"] for r in rows]
    spread = (max(ng) - min(ng)) / max(ng) if ng else 0.0
    return {"J": sorted(J), "Mmax": Mmax, "rows": rows,
            "nongauge_relative_spread": spread}
