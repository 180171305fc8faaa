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

from .spectral_core import TWO_PI, FrequencyTable, _fsum_rows
from .hamiltonian import (PolyHamiltonian, _decode, _from_rows, _gauge,
                          _pack, _paired, _quartic_rows, _reduce,
                          poisson_bracket)

# lie_transform raises MemoryError when its running sum would exceed this
# many terms.
TERM_LIMIT = 2_000_000


class DivisorAnomaly(RuntimeError):
    """A small divisor fell below its guaranteed floor; never divide
    silently in that situation."""


def _quartic_table(H: PolyHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """(code rows, coefficients) of a quartic polynomial's store."""
    if set(H._tab) - {4}:
        raise ValueError("the normal-form step is defined for quartic "
                         f"polynomials, got degrees {sorted(H._tab)}")
    return H._tab.get(4, (np.zeros((0, 4), dtype=np.int32),
                          np.zeros(0, dtype=complex)))


def _touches(rows: np.ndarray, J) -> np.ndarray:
    """Per quartic code row: some slot's mode lies in J.  A lookup table
    over the codes of the modes min(J, 0) - 1 .. max(J, 0) + 1, whose end
    entries (no J mode) take every code outside it by clipping; the four
    flags of a row read as one uint32."""
    j = np.asarray(list(J), dtype=int)
    lo = 2 * int(j.min(initial=0)) - 1
    lut = np.zeros(2 * int(j.max(initial=0)) + 3 - lo, dtype=bool)
    lut[np.concatenate([2 * j, 2 * j + 1]) - lo] = True
    return lut.take(rows - lo, mode="clip").view(np.uint32)[:, 0] != 0


def _i_div(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """1j * c / d + 0 per entry, rounded as Python's scalar complex
    division rounds it: numpy's complex division multiplies by the
    reciprocal and moves the last bit.  + 0 turns -0.0 parts into 0.0."""
    out = np.empty(len(c), dtype=complex)
    out.real = -c.imag / d + 0.0
    out.imag = c.real / d + 0.0
    return out


def _divisor(rows: np.ndarray, freq: FrequencyTable) -> np.ndarray:
    """sigma . lambda per code row in the split form
    (sum sigma) rest + fsum(sigma nu_j), rest = c^2 (0 for the c = inf
    table, whose nu_j = j^2/2 are the parabolic frequencies): the c^2
    blocks cancel exactly for gauge-invariant monomials, which keeps
    divisors accurate at large c where the direct lambda sum loses
    ~c^2 eps."""
    j, s = _decode(rows)
    if j.size and np.abs(j).max() > freq.M:
        raise IndexError(f"mode outside truncation |j| <= {freq.M}")
    d = _fsum_rows(s * freq.nu[j + freq.M])
    return s.sum(axis=1) * freq.rest + d


@dataclass
class NormalFormResult:
    G: PolyHamiltonian
    Lambda_plus: PolyHamiltonian
    P_hat: PolyHamiltonian
    P: PolyHamiltonian
    J: tuple[int, ...]
    freq: FrequencyTable                 # the c = inf table for NLS
    residual: float = 0.0
    gauge_divisor_min: float = 0.0

    def header(self) -> dict:
        # the NLS solve records neither c nor M
        kg = self.freq.h > 0
        return {
            "J": list(self.J),
            "c": self.freq.c if kg else None,
            "M": self.freq.M if kg else None,
            "residual": self.residual,
        }

    def to_text(self) -> str:
        import json
        head = "# " + json.dumps(self.header(), sort_keys=True)
        return "\n".join([head, "# G", self.G.to_text(),
                          "# Lambda_plus", self.Lambda_plus.to_text(),
                          "# P_hat", self.P_hat.to_text()])


def _solve(P: PolyHamiltonian, freq: FrequencyTable, J, nongauge_floor: float
           ) -> tuple[PolyHamiltonian, PolyHamiltonian, PolyHamiltonian, float,
                      np.ndarray]:
    """Common cohomological solve with the divisors of `_divisor`.  Returns
    (G, Lambda_plus, P_hat, kmin, d) where kmin is the smallest
    gauge-invariant divisor met and d holds the divisors of G's rows.  A
    gauge divisor below 1e-8 kmin or a non-gauge one below `nongauge_floor`
    raises DivisorAnomaly."""
    rows, coefs = _quartic_table(P)
    touches = _touches(rows, J)
    resonant = touches & _paired(rows)
    work = np.flatnonzero(touches & ~resonant)
    rows_g = rows[work]
    d = _divisor(rows_g, freq)
    gauge = _gauge(rows_g)
    absd = np.abs(d)

    kmin = float(absd[gauge].min(initial=np.inf))
    if kmin == 0.0:
        raise DivisorAnomaly(
            "exact zero gauge-invariant divisor outside the resonant set")
    floor = np.where(gauge, 1e-8 * kmin, nongauge_floor)
    low = np.flatnonzero(absd < floor)
    if low.size:
        i = low[0]
        j, s = _decode(rows_g[i])
        m = tuple(zip(j.tolist(), s.tolist()))
        kind = "gauge" if gauge[i] else "non-gauge"
        raise DivisorAnomaly(f"{kind} divisor {d[i]:.3e} below floor "
                             f"{floor[i]:.3e} at {m}")

    g = _i_div(coefs[work], d)
    # G's store drops zero coefficients: keep d on the rows it keeps
    return (_from_rows({4: (rows_g, g)}),
            _from_rows({4: (rows[resonant], coefs[resonant] + 0)}),
            _from_rows({4: (rows[~touches], coefs[~touches] + 0)}),
            kmin, d[g != 0])


def _residual(G: PolyHamiltonian, d: np.ndarray, P: PolyHamiltonian,
              Lp: PolyHamiltonian, Ph: PolyHamiltonian) -> float:
    """Max coefficient of {Lambda, G} + P - Lambda_plus - P_hat relative
    to |P|_inf, d being the divisors sigma . lambda of G's rows, summed
    per monomial over the rows of all four tables in one `_reduce`.  The
    diagonal bracket is evaluated monomial-wise as i (sigma . lambda) G_m;
    the generic bracket implementation agrees but loses ~c^2 * eps to
    float cancellation at large c."""
    rows, (p, lp, ph, g) = zip(*map(_quartic_table, (P, Lp, Ph, G)))
    # one factor of i * d has a zero real part, so numpy rounds this product
    # as Python's scalar complex product does
    W = max(P._W, Lp._W, Ph._W, G._W)
    _, r = _reduce(_pack(np.concatenate(rows).T, W),
                   np.concatenate([p, -lp, -ph, 1j * d * g]))
    # np.hypot, as in max_abs_coeff
    return (float(np.hypot(r.real, r.imag).max(initial=0.0))
            / (P.max_abs_coeff() or 1.0))


def _normal_form(P: PolyHamiltonian, freq: FrequencyTable, J
                 ) -> NormalFormResult:
    # a tangential mode outside the window has no monomials to touch;
    # solving without it would silently drop it from J
    outside = [j for j in J if abs(j) > freq.M]
    if outside:
        raise ValueError(
            f"tangential modes {outside} outside the window |j| <= {freq.M}")
    # non-gauge floor 1e-8 c^2: 0 at c = inf, where no row can trip it
    G, Lp, Ph, kmin, d = _solve(P, freq, J, 1e-8 * freq.rest)
    return NormalFormResult(G=G, Lambda_plus=Lp, P_hat=Ph, P=P,
                            J=tuple(sorted(J)), freq=freq,
                            residual=_residual(G, d, P, Lp, Ph),
                            gauge_divisor_min=kmin)


def solve_cohomological_quartic(P: PolyHamiltonian, freq: FrequencyTable,
                                J) -> NormalFormResult:
    """Solve {Lambda, G} + P = Lambda_plus + P_hat for the KG frequencies.

    Lambda_plus agrees with the closed form
        1/2 sum_{i or j in J} N_ij / ((1+h nu_i)(1+h nu_j)) |z_i|^2 |z_j|^2,
    N_ij = 3/(8 pi) (2 - delta_ij).

    Raises ValueError when a mode of J lies outside |j| <= freq.M, P is
    not quartic or freq is the c = inf table (`solve_cohomological_nls`).
    """
    if freq.h == 0:
        raise ValueError("the c = inf table is the NLS solve")
    return _normal_form(P, freq, J)


def solve_cohomological_nls(P_nls: PolyHamiltonian, J, M: int
                            ) -> NormalFormResult:
    """Same solve with the parabolic frequencies lambda_j = j^2/2 of the
    c = inf table.

    The momentum selection rule excludes exact zero divisors outside the
    resonant pairing set; an exact zero raises DivisorAnomaly.  A mode of
    J outside |j| <= M or a P_nls that is not quartic raises ValueError.
    """
    return _normal_form(P_nls, FrequencyTable(c=math.inf, M=M), J)


def lambda_plus_closed_form(freq: FrequencyTable, J) -> PolyHamiltonian:
    """Closed-form normal-form correction on the window of `freq`; the
    c = inf table gives the NLS one (h = 0, every factor 1 + h nu_j is 1)."""
    M = freq.M
    fac = 1.0 + freq.h * freq.nu
    # mode pairs i <= j of the window, in code-row order
    i, j = (k - M for k in np.triu_indices(2 * M + 1))
    touch = np.isin(i, list(J)) | np.isin(j, list(J))
    i, j = i[touch], j[touch]
    diag = i == j
    coefs = 3.0 / (4.0 * TWO_PI) * (2 - diag) / (fac[i + M] * fac[j + M])
    coefs[diag] *= 0.5
    rows = np.sort(np.column_stack([2 * i, 2 * i + 1, 2 * j, 2 * j + 1]),
                   axis=1)
    return _from_rows({4: (rows, coefs)})


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
    if result.freq.h == 0 or result_nls.freq.h != 0:
        raise ValueError("expected a KG result and an NLS result")
    G_rem = result.G - result_nls.G
    G_ng = result.G._select(lambda rows, _: ~_gauge(rows))

    # both blocks sit on the rows of G_nls: P_r over the KG divisor, and
    # P_nls times the difference of the inverse divisors
    P_nls = result_nls.P
    P_r = result.P._select(lambda rows, _: _gauge(rows)) - P_nls
    rows, _ = _quartic_table(result_nls.G)
    d_kg = _divisor(rows, result.freq)
    d_nls = _divisor(rows, result_nls.freq)
    G_r1 = _from_rows({4: (rows, _i_div(P_r._at(rows), d_kg))})
    G_div = _from_rows({4: (rows, 1j * P_nls._at(rows)
                            * (1.0 / d_kg - 1.0 / d_nls) + 0)})
    err = (G_rem - (G_ng + G_r1 + G_div)).max_abs_coeff()
    return RemainderSplit(G_remainder=G_rem, G_ng=G_ng, G_r1=G_r1,
                          G_div=G_div, recombination_error=err)


def lie_transform(H: PolyHamiltonian, G: PolyHamiltonian,
                  max_order: int = 8) -> PolyHamiltonian:
    """Lie-series transform H o flow_G(1) = sum_k ad_G^k H / k!, truncated
    at polynomial degree 6 (`poisson_bracket`'s cap): terms beyond it are
    discarded."""
    out = term = H
    for k in range(1, max_order + 1):
        term = poisson_bracket(term, G).scale(1.0 / k)
        if len(term) == 0:
            break
        if len(out) + len(term) > TERM_LIMIT:
            raise MemoryError(
                f"lie_transform term blow-up: {len(out) + len(term)} terms")
        out = out + term
    return out.prune()


def _scan_min_divisors(J, c_grid, Mmax: int) -> list[tuple[float, float]]:
    """Scan over the quartic momentum-zero rows on |j| <= Mmax that touch
    J and are not paired (resonant), in the split form of `_divisor`.
    Returns per c (min gauge |divisor|, min non-gauge |divisor| / c^2)."""
    rows = _quartic_rows(Mmax)
    rows = rows[_touches(rows, J) & ~_paired(rows)]
    gauge = _gauge(rows)
    out = []
    for c in c_grid:
        d = np.abs(_divisor(rows, FrequencyTable(c=c, M=Mmax)))
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
