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
from dataclasses import dataclass

import numpy as np

from .spectral_core import TWO_PI, FrequencyTable
from .hamiltonian import (Monomial, PolyHamiltonian, Slots, _decode,
                          _from_rows, _paired, _quartic_rows, canonical,
                          gauge_sum, poisson_bracket)


class DivisorAnomaly(RuntimeError):
    """A small divisor fell below its guaranteed floor; never divide
    silently in that situation."""


@dataclass(frozen=True)
class ResonanceClass:
    in_IR: bool
    in_LJ: bool
    gauge_sum: int
    divisor: float


def _quartic_table(H: PolyHamiltonian
                   ) -> tuple[np.ndarray, np.ndarray, int]:
    """(code rows, coefficients, window) of a quartic polynomial, in term
    order."""
    tab = H._table()
    if set(tab) - {4}:
        raise ValueError("the normal-form step is defined for quartic "
                         f"polynomials, got degrees {sorted(tab)}")
    rows, coefs = tab.get(4, (np.zeros((0, 4), dtype=np.int32),
                              np.zeros(0, dtype=complex)))
    return rows, coefs, H._window()


def _touches(rows: np.ndarray, W: int, J) -> np.ndarray:
    """Per code row: some slot's mode lies in J."""
    return np.isin(_decode(rows, W)[0], list(J)).any(axis=1)


_FSUM_ROWS = 1024


def _divisor(rows: np.ndarray, W: int, freq: FrequencyTable | None
             ) -> np.ndarray:
    """sigma . lambda per code row in the split form
    (sum sigma) c^2 + fsum(sigma nu_j): the c^2 blocks cancel exactly for
    gauge-invariant monomials, which keeps divisors accurate at large c
    where the direct lambda sum loses ~c^2 eps.  freq=None gives the
    parabolic frequencies, fsum(sigma j^2 / 2)."""
    j, s = _decode(rows, W)
    if freq is None:
        parts = 0.5 * s * j * j
    else:
        if j.size and np.abs(j).max() > freq.M:
            raise IndexError(f"mode outside truncation |j| <= {freq.M}")
        parts = s * freq.nu[j + freq.M]
    # exact row sums; rows pass through Python lists in blocks, so the
    # lists of a large scan stay small
    d = np.fromiter((math.fsum(r) for i in range(0, len(parts), _FSUM_ROWS)
                     for r in parts[i:i + _FSUM_ROWS].tolist()),
                    dtype=float, count=len(parts))
    return d if freq is None else s.sum(axis=1) * freq.c ** 2 + d


def classify(jvec, sigvec, J, freq: FrequencyTable) -> ResonanceClass:
    m = Monomial(jvec, sigvec)
    if len(m.slots) != 4:
        raise ValueError("classification is defined for degree-4 monomials")
    rows, _, W = _quartic_table(PolyHamiltonian({m.slots: 1.0}, check=False))
    return ResonanceClass(
        in_IR=bool(_paired(rows)[0]),
        in_LJ=m.momentum == 0 and bool(_touches(rows, W, J)[0]),
        gauge_sum=m.gauge_sum, divisor=float(_divisor(rows, W, freq)[0]))


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


def _solve(P: PolyHamiltonian, freq: FrequencyTable | None, J,
           nongauge_floor: float | None
           ) -> tuple[PolyHamiltonian, PolyHamiltonian, PolyHamiltonian, float]:
    """Common cohomological solve with the divisors of `_divisor`.  Returns
    (G, Lambda_plus, P_hat, kmin) where kmin is the smallest
    gauge-invariant divisor met."""
    rows, coefs, W = _quartic_table(P)
    touches = _touches(rows, W, J)
    resonant = touches & _paired(rows)
    work = np.flatnonzero(touches & ~resonant)
    rows_g = rows[work]
    d = _divisor(rows_g, W, freq)
    gauge = _decode(rows_g, W)[1].sum(axis=1) == 0
    absd = np.abs(d)

    kmin = float(absd[gauge].min(initial=np.inf))
    if kmin == 0.0:
        raise DivisorAnomaly(
            "exact zero gauge-invariant divisor outside the resonant set")
    floor = np.where(gauge, 1e-8 * kmin,
                     -1.0 if nongauge_floor is None else nongauge_floor)
    low = np.flatnonzero(absd < floor)
    if low.size:
        i = low[0]
        m = list(P.terms)[work[i]]
        kind = "gauge" if gauge[i] else "non-gauge"
        raise DivisorAnomaly(f"{kind} divisor {d[i]:.3e} below floor "
                             f"{floor[i]:.3e} at {m}")

    # the divide stays scalar: numpy's complex division multiplies by the
    # reciprocal and moves the last bit; + 0 turns -0.0 real parts into 0.0
    g = [1j * c / x + 0 for c, x in zip(coefs[work].tolist(), d.tolist())]
    return (_from_rows([(rows_g, np.array(g, dtype=complex))], W),
            _from_rows([(rows[resonant], coefs[resonant] + 0)], W),
            _from_rows([(rows[~touches], coefs[~touches] + 0)], W),
            kmin)


def _check_window(J, M: int) -> None:
    """A tangential mode outside the window has no monomials to touch;
    solving without it would silently drop it from J."""
    outside = [j for j in J if abs(j) > M]
    if outside:
        raise ValueError(
            f"tangential modes {outside} outside the window |j| <= {M}")


def _residual(freq: FrequencyTable | None, G: PolyHamiltonian,
              P: PolyHamiltonian, Lp: PolyHamiltonian,
              Ph: PolyHamiltonian) -> float:
    """Max coefficient of {Lambda, G} + P - Lambda_plus - P_hat relative
    to |P|_inf.  The diagonal bracket is evaluated monomial-wise as
    i (sigma . lambda) G_m; the generic bracket implementation agrees but
    loses ~c^2 * eps to float cancellation at large c."""
    rows, _, W = _quartic_table(G)
    d = _divisor(rows, W, freq)
    resid: dict[Slots, complex] = {}
    for H, sgn in ((P, 1.0), (Lp, -1.0), (Ph, -1.0)):
        for m, c in H.terms.items():
            resid[m] = resid.get(m, 0.0) + sgn * c
    for (m, c), dm in zip(G.terms.items(), d.tolist()):
        resid[m] = resid.get(m, 0.0) + 1j * dm * c
    scale = P.max_abs_coeff() or 1.0
    return max((abs(v) for v in resid.values()), default=0.0) / scale


def _normal_form(P: PolyHamiltonian, freq: FrequencyTable | None, J, M: int,
                 nongauge_floor: float | None) -> NormalFormResult:
    _check_window(J, M)
    G, Lp, Ph, kmin = _solve(P, freq, J, nongauge_floor)
    return NormalFormResult(G=G, Lambda_plus=Lp, P_hat=Ph, P=P,
                            J=tuple(sorted(J)), freq=freq,
                            residual=_residual(freq, G, P, Lp, Ph),
                            gauge_divisor_min=kmin)


def solve_cohomological_quartic(P: PolyHamiltonian, freq: FrequencyTable,
                                J) -> NormalFormResult:
    """Solve {Lambda, G} + P = Lambda_plus + P_hat for the KG frequencies.

    Lambda_plus agrees with the closed form
        1/2 sum_{i or j in J} N_ij / ((1+h nu_i)(1+h nu_j)) |z_i|^2 |z_j|^2,
    N_ij = 3/(8 pi) (2 - delta_ij).

    Raises ValueError when a mode of J lies outside |j| <= freq.M or P is
    not quartic.
    """
    return _normal_form(P, freq, J, freq.M, 1e-8 * freq.c ** 2)


def solve_cohomological_nls(P_nls: PolyHamiltonian, J, M: int
                            ) -> NormalFormResult:
    """Same solve with the parabolic frequencies lambda_j = j^2/2.

    The momentum selection rule excludes exact zero divisors outside the
    resonant pairing set; an exact zero raises DivisorAnomaly.  A mode of
    J outside |j| <= M or a P_nls that is not quartic raises ValueError.
    """
    return _normal_form(P_nls, None, J, M, None)


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
    rows, _, W = _quartic_table(result_nls.G)
    for m, d_kg, d_nls in zip(result_nls.G.terms,
                              _divisor(rows, W, freq).tolist(),
                              _divisor(rows, W, None).tolist()):
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


def _scan_min_divisors(J, c_grid, Mmax: int) -> list[tuple[float, float]]:
    """Scan over the quartic momentum-zero rows on |j| <= Mmax that touch
    J and are not paired (resonant), in the split form of `_divisor`.
    Returns per c (min gauge |divisor|, min non-gauge |divisor| / c^2)."""
    rows = _quartic_rows(Mmax)
    rows = rows[_touches(rows, Mmax, J) & ~_paired(rows)]
    gauge = _decode(rows, Mmax)[1].sum(axis=1) == 0
    out = []
    for c in c_grid:
        d = np.abs(_divisor(rows, Mmax, FrequencyTable(c=c, M=Mmax)))
        out.append((float(d[gauge].min(initial=np.inf)),
                    float(d[~gauge].min(initial=np.inf)) / (c * c)))
    return out


def verify_divisor_bounds(J, c_grid, Mmax: int) -> dict:
    """Exhaustive small-divisor scan report.

    For each c: the minimum gauge-invariant |divisor| (strictly positive)
    and the minimum non-gauge |divisor|/c^2 (bounded below uniformly in c).
    """
    rows = []
    c_grid = [float(c) for c in c_grid]
    for c, (gmin, ngmin) in zip(c_grid, _scan_min_divisors(J, c_grid, Mmax)):
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
