"""Small-divisor machinery: enumeration of the momentum-zero index pairs
(k, ell), the S-class taxonomy, divisor evaluation, Monte-Carlo resonant
measure estimates, and the non-gauge lower-bound scans.

Index classes (k an integer vector over J, ell sparse over J^c, |ell|_1 <= 2):
    Z2  : |ell|_1 <= 2
    Z_M : zero total momentum sum_J j k_j + sum_{J^c} n ell_n = 0
    Z_G : additionally zero gauge charge L = sum k + sum ell.
Resonant set: |<omega(xi),k> + <Omega(xi),ell>| < alpha / (<k>^tau w(ell)^theta)
with w(ell) = min over supp(ell) of the mode weight, w(0) = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .frequencies import FrequencyModel, Omega0, omega0

S_CLASSES = ("S0", "S1", "S2", "S4", "S5", "S6", "S7", "S8")


def iter_k(N: int, kmax: int):
    """All integer N-vectors with |k|_1 <= kmax (the zero vector included)."""
    for tup in itertools.product(range(-kmax, kmax + 1), repeat=N):
        if sum(abs(t) for t in tup) <= kmax:
            yield np.array(tup, dtype=int)


def enumerate_ell(k, J, M: int) -> list[dict[int, int]]:
    """All sparse ell with |ell|_1 <= 2, support in J^c intersect {-M..M},
    and (k, ell) of zero total momentum.  Integer arithmetic throughout.

    For |ell|_1 = 1 the support index is forced by the linear momentum
    equation; with the +-2 single-support case there are at most four
    candidates.
    """
    J = tuple(sorted(J))
    Jset = set(J)
    k = np.asarray(k, dtype=int)
    m = int(np.dot(k, np.array(J, dtype=int)))
    out: list[dict[int, int]] = []

    def admissible(n: int) -> bool:
        return abs(n) <= M and n not in Jset

    # ell = 0
    if m == 0 and np.any(k != 0):
        out.append({})
    # single support: ell_a in {+-1, +-2}, a*ell_a = -m
    for v in (1, -1, 2, -2):
        if m % abs(v) == 0:
            a = -m // v
            if admissible(a):
                out.append({a: v})
    # double support: ell_a, ell_b in {+-1}, a != b
    for a in range(-M, M + 1):
        if not admissible(a):
            continue
        for (sa, sb) in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            rem = -m - sa * a
            if rem % sb != 0:
                continue
            b = rem // sb
            if b <= a or not admissible(b):
                continue
            out.append({a: sa, b: sb})
    return out


@dataclass(frozen=True)
class IndexPair:
    """One (k, ell) with its derived integer invariants."""
    k: tuple[int, ...]
    ell: tuple[tuple[int, int], ...]   # sorted (index, value) entries
    J: tuple[int, ...]

    def __post_init__(self):
        if len(self.k) != len(self.J):
            raise ValueError("k length must match #J")
        if self.ell_l1 > 2:
            raise ValueError("|ell|_1 must be <= 2")
        if self.k_l1 + self.ell_l1 == 0:
            raise ValueError("(k, ell) must be nonzero")

    @property
    def ell_dict(self) -> dict[int, int]:
        return dict(self.ell)

    @property
    def k_l1(self) -> int:
        return sum(abs(v) for v in self.k)

    @property
    def ell_l1(self) -> int:
        return sum(abs(v) for _, v in self.ell)

    @property
    def momentum(self) -> int:
        return (sum(j * v for j, v in zip(self.J, self.k))
                + sum(n * v for n, v in self.ell))

    @property
    def gauge_sum(self) -> int:
        return sum(self.k) + sum(v for _, v in self.ell)

    @property
    def in_ZM(self) -> bool:
        return self.momentum == 0

    @property
    def in_ZG(self) -> bool:
        return self.momentum == 0 and self.gauge_sum == 0


def make_pair(k, ell: dict[int, int], J) -> IndexPair:
    return IndexPair(k=tuple(int(v) for v in k),
                     ell=tuple(sorted((int(a), int(v))
                               for a, v in ell.items() if v != 0)),
                     J=tuple(sorted(J)))


def classify_pair(pair: IndexPair, c: float) -> str:
    """Deterministic S-class tag, partitioning all ell != 0.

    S0: supp(ell) = {i} or {i, 0}.
    Difference class (ell_i ell_j = -1, |i| <= |j|, both nonzero):
        S1: sgn(i) != sgn(j)
        S2: same signs, |i| <= |j|/2
        S4: same signs, |j|/2 < |i| <= |j|, |j| <= 2c or c <= |i| <= 2c^3
        S5: same signs, |j|/2 < |i|, c^3 <= |i|.
    Sum class (ell_i ell_j = +1):
        S6: L = 0 or sgn(L) = sgn(ell_i)
        S7: sgn(L) = -sgn(ell_i), sgn(i) = sgn(j)
        S8: sgn(L) = -sgn(ell_i), sgn(i) != sgn(j).
    """
    if not pair.in_ZM:
        raise ValueError("classification requires zero momentum")
    supp = [a for a, _ in pair.ell]
    if len(supp) == 0:
        raise ValueError("ell = 0 carries no S-class")
    if len(supp) == 1 or 0 in supp:
        return "S0"
    (i, vi), (j, vj) = sorted(pair.ell, key=lambda t: abs(t[0]))
    if vi * vj == -1:
        if (i > 0) != (j > 0):
            return "S1"
        if abs(i) <= abs(j) / 2:
            return "S2"
        if abs(i) >= c ** 3:
            return "S5"
        return "S4"
    L = pair.gauge_sum
    if L == 0 or (L > 0) == (vi > 0):
        return "S6"
    if (i > 0) == (j > 0):
        return "S7"
    return "S8"


def s8_localization(pair: IndexPair, c: float) -> dict:
    """For the sum class with opposite gauge sign (S8): both support
    magnitudes must sit near c*x_L with x_L = sqrt(L/2 (L/2 + 2))."""
    L = abs(pair.gauge_sum)
    xL = math.sqrt(0.5 * L * (0.5 * L + 2.0))
    offsets = {a: abs(c * xL - abs(a)) for a, _ in pair.ell}
    return {"x_L": xL, "center": c * xL, "offsets": offsets}


@dataclass(frozen=True)
class ResonantQuery:
    """Threshold and sampling parameters for resonant-set estimates."""
    alpha: float
    tau: float = 8.0
    theta: float = 0.0
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not (0.0 <= self.theta < 1.0):
            raise ValueError("theta must lie in [0, 1)")


def weight_w(model: FrequencyModel, ell: dict[int, int]) -> float:
    """min over supp(ell) of the mode weight w_i; w(0) = 1 for empty ell."""
    if not ell:
        return 1.0
    idx = {int(j): i for i, j in enumerate(model.normal_modes)}
    return min(float(model.w_Jc[idx[a]]) for a in ell)


def threshold(model: FrequencyModel, query: ResonantQuery,
              pair: IndexPair) -> float:
    k1 = pair.k_l1
    kb = math.sqrt(1.0 + k1 * k1)
    return query.alpha / (kb ** query.tau
                          * weight_w(model, pair.ell_dict) ** query.theta)


def _affine(model: FrequencyModel, pair: IndexPair, nls: bool = False
            ) -> tuple[float, np.ndarray]:
    """Constant and xi-gradient of the (correction-free) divisor."""
    k = np.array(pair.k, dtype=float)
    idx = {int(j): i for i, j in enumerate(model.normal_modes)}
    if nls:
        const = 0.5 * math.fsum(kj * j * j for kj, j in zip(k, model.J))
        grad = model.A_nls @ k
        for a, v in pair.ell:
            const += v * 0.5 * a * a
            grad += v * model.B_nls[idx[a], :]
    else:
        const = math.fsum(kj * lj for kj, lj in zip(k, model.lam_J))
        grad = model.A @ k
        for a, v in pair.ell:
            const += v * model.lam_Jc[idx[a]]
            grad += v * model.B[idx[a], :]
    return const, grad


def divisor(model: FrequencyModel, xi, pair: IndexPair,
            nls: bool = False) -> float:
    """<omega(xi), k> + <Omega(xi), ell>, corrections included."""
    xi = model.check_xi(xi)
    if nls or (model.delta is None and model.Delta is None):
        const, grad = _affine(model, pair, nls=nls)
        return const + float(grad @ xi)
    om = omega0(model, xi)
    Om = Omega0(model, xi)
    idx = {int(j): i for i, j in enumerate(model.normal_modes)}
    out = math.fsum(kj * oj for kj, oj in zip(pair.k, om))
    out += math.fsum(v * Om[idx[a]] for a, v in pair.ell)
    return out


def divisor_parts(model: FrequencyModel, xi, pair: IndexPair) -> dict:
    """Decomposition L c^2 + <nu, k> + sum ell_n nu_n + xi-linear part."""
    xi = model.check_xi(xi)
    idx = {int(j): i for i, j in enumerate(model.normal_modes)}
    c2 = model.c ** 2
    nu_part = math.fsum(kj * nj for kj, nj in zip(pair.k, model.nu_J))
    nu_part += math.fsum(v * model.nu_Jc[idx[a]] for a, v in pair.ell)
    _, grad = _affine(model, pair)
    parts = {"gauge": pair.gauge_sum * c2, "nu": nu_part,
             "xi_linear": float(grad @ xi), "corrections": 0.0}
    if model.delta is not None or model.Delta is not None:
        parts["corrections"] = divisor(model, xi, pair) - sum(parts.values())
    parts["total"] = sum(v for s, v in parts.items() if s != "total")
    return parts


def is_resonant(model: FrequencyModel, xi, pair: IndexPair,
                query: ResonantQuery, nls: bool = False) -> bool:
    return abs(divisor(model, xi, pair, nls=nls)) < threshold(
        model, query, pair)


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    if n <= 0:
        raise ValueError("need at least one sample")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class MeasureResult:
    fraction: float
    ci_lo: float
    ci_hi: float
    samples: int
    seed: int
    hits: int
    n_ell: int


def sample_xi(model: FrequencyModel, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(model.xi_lo, model.xi_hi, size=(n, model.N))


def measure_estimate_mc(model: FrequencyModel, k, query: ResonantQuery,
                        ells: list[dict[int, int]] | None = None,
                        nls: bool = False) -> MeasureResult:
    """Fraction of uniform xi in the amplitude box falling in the union of
    the resonant sets of (k, ell) over the momentum-compatible ell."""
    if query.samples < 1:
        raise ValueError("need at least one sample")
    k = np.asarray(k, dtype=int)
    if ells is None:
        ells = enumerate_ell(k, model.J, model.M)
    xi = sample_xi(model, query.samples, query.seed)
    hit = np.zeros(query.samples, dtype=bool)
    for ell in ells:
        if int(np.sum(np.abs(k))) + sum(abs(v) for v in ell.values()) == 0:
            continue
        pair = make_pair(k, ell, model.J)
        thr = threshold(model, query, pair)
        if model.delta is None and model.Delta is None:
            const, grad = _affine(model, pair, nls=nls)
            vals = const + xi @ grad
        else:
            vals = np.array([divisor(model, x, pair, nls=nls) for x in xi])
        hit |= np.abs(vals) < thr
    hits = int(np.count_nonzero(hit))
    lo, hi = wilson_interval(hits, query.samples)
    return MeasureResult(fraction=hits / query.samples, ci_lo=lo, ci_hi=hi,
                         samples=query.samples, seed=query.seed,
                         hits=hits, n_ell=len(ells))


def measure_estimate_grid(model: FrequencyModel, k, query: ResonantQuery,
                          pts_per_dim: int = 32,
                          ells: list[dict[int, int]] | None = None) -> float:
    """Tensor-grid quadrature cross-check of the MC fraction (N = 3 scale)."""
    k = np.asarray(k, dtype=int)
    if ells is None:
        ells = enumerate_ell(k, model.J, model.M)
    axes = [np.linspace(model.xi_lo[i], model.xi_hi[i], pts_per_dim)
            for i in range(model.N)]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                    axis=1)
    hit = np.zeros(len(mesh), dtype=bool)
    for ell in ells:
        if int(np.sum(np.abs(k))) + sum(abs(v) for v in ell.values()) == 0:
            continue
        pair = make_pair(k, ell, model.J)
        if model.delta is None and model.Delta is None:
            const, grad = _affine(model, pair)
            vals = const + mesh @ grad
        else:
            vals = np.array([divisor(model, x, pair) for x in mesh])
        hit |= np.abs(vals) < threshold(model, query, pair)
    return float(np.count_nonzero(hit)) / len(mesh)


def nongauge_scan(model: FrequencyModel, kappa: float = 0.5,
                  kmax: int | None = None) -> dict:
    """Exhaustive scan of the non-gauge pairs (L != 0) under the size
    restrictions |k|_1 <= kappa sqrt(c) and supp(ell) within [-c/2, c/2],
    evaluated at the amplitude-box corners.  Returns min |divisor| / c^2."""
    c = model.c
    if kmax is None:
        kmax = max(1, int(kappa * math.sqrt(c)))
    corners = model.xi_corners()
    c2 = c * c
    best = math.inf
    arg = None
    s8_rows = []
    n_pairs = 0
    for k in iter_k(model.N, kmax):
        for ell in enumerate_ell(k, model.J, model.M):
            if any(abs(a) > c / 2 for a in ell):
                continue
            if int(np.sum(k)) + sum(ell.values()) == 0:
                continue
            pair = make_pair(k, ell, model.J)
            n_pairs += 1
            const, grad = _affine(model, pair)
            vals = np.abs(const + corners @ grad)
            m = float(np.min(vals)) / c2
            if m < best:
                best = m
                arg = {"k": list(pair.k), "ell": dict(pair.ell)}
            if ell and classify_pair(pair, c) == "S8":
                loc = s8_localization(pair, c)
                s8_rows.append({"k": list(pair.k), "ell": dict(pair.ell),
                                "center": loc["center"],
                                "offsets": {str(a): v for a, v
                                            in loc["offsets"].items()},
                                "min_over_c2": m})
    if n_pairs and best <= 0:
        raise ArithmeticError("non-gauge divisor minimum is not positive")
    return {"c": c, "kmax": kmax, "kappa": kappa, "pairs": n_pairs,
            "min_over_c2": (best if n_pairs else None), "argmin": arg,
            "s8_rows": s8_rows}


def k0_floor_scan(model: FrequencyModel, n_xi: int = 64, seed: int = 0
                  ) -> dict:
    """Verify that the k = 0 divisors over every (0, ell) in Z_M stay
    above a positive floor (reported relative to c^2)."""
    ells = enumerate_ell(np.zeros(model.N, dtype=int), model.J, model.M)
    xi = sample_xi(model, n_xi, seed)
    best = math.inf
    arg = None
    for ell in ells:
        if not ell:
            continue
        pair = make_pair(np.zeros(model.N, dtype=int), ell, model.J)
        const, grad = _affine(model, pair)
        m = float(np.min(np.abs(const + xi @ grad)))
        if m < best:
            best = m
            arg = dict(ell)
    return {"floor": best, "floor_over_c2": best / model.c ** 2,
            "argmin_ell": arg, "n_ell": len(ells)}


def cantor_excision(model: FrequencyModel, query: ResonantQuery,
                    K_cut: int, kmax: int) -> dict:
    """MC indicator of the amplitude box minus the union of the resonant
    sets over K_cut < |k|_1 <= kmax, for both divisor families (the full
    dispersion and its Schrodinger limit)."""
    if K_cut < 0:
        raise ValueError("K_cut must be >= 0")
    xi = sample_xi(model, query.samples, query.seed)
    center = 0.5 * (model.xi_lo + model.xi_hi)
    # tangential correction evaluated at the box centre; exact for the
    # constant (single-sample) tables, which keeps every divisor affine
    d_shift = None if model.delta is None \
        else np.asarray(model.delta(center), dtype=float)
    excised = np.zeros(query.samples, dtype=bool)
    n_sets = 0
    for k in iter_k(model.N, kmax):
        k1 = int(np.sum(np.abs(k)))
        if k1 <= K_cut:
            continue
        for ell in enumerate_ell(k, model.J, model.M):
            if k1 + sum(abs(v) for v in ell.values()) == 0:
                continue
            pair = make_pair(k, ell, model.J)
            thr = threshold(model, query, pair)
            for nls in (False, True):
                const, grad = _affine(model, pair, nls=nls)
                if not nls and d_shift is not None:
                    const += float(d_shift @ np.asarray(pair.k, dtype=float))
                excised |= np.abs(const + xi @ grad) < thr
            n_sets += 1
    hits = int(np.count_nonzero(excised))
    lo, hi = wilson_interval(hits, query.samples)
    return {"excised_fraction": hits / query.samples,
            "ci": [lo, hi], "sets": n_sets, "K_cut": K_cut, "kmax": kmax,
            "samples": query.samples, "seed": query.seed}


def center_pair_correction(model: FrequencyModel,
                           pair: IndexPair) -> FrequencyModel:
    """Copy of the model with a constant tangential-frequency correction
    delta chosen so the given pair's divisor vanishes at the centre of the
    amplitude box.  This realizes the generic situation of the measure
    estimates (a resonant surface crossing the box); the uncorrected
    divisors of a truncated model typically sit at O(1) offsets."""
    import copy

    from .frequencies import CorrectionTable

    k = np.array(pair.k, dtype=float)
    k2 = float(k @ k)
    if k2 == 0:
        raise ValueError("centering requires k != 0")
    center = 0.5 * (model.xi_lo + model.xi_hi)
    d = divisor(model, center, pair)
    shift = (-d / k2) * k
    out = copy.copy(model)
    out.delta = CorrectionTable(points=center[None, :],
                                values=shift[None, :])
    return out
