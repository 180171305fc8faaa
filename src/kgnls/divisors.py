"""Small-divisor machinery: enumeration of the momentum-zero index pairs
(k, ell), divisor evaluation, Monte-Carlo resonant measure estimates, and
the non-gauge lower-bound scans.

Index classes (k an integer vector over J, ell sparse over J^c, |ell|_1 <= 2):
    Z2  : |ell|_1 <= 2
    Z_M : zero total momentum sum_J j k_j + sum_{J^c} n ell_n = 0
    Z_G : additionally zero gauge charge L = sum k + sum ell.
Resonant set: |<omega(xi),k> + <Omega(xi),ell>| < alpha / (<k>^tau w(ell)^theta)
with w(ell) = min over supp(ell) of the mode weight, w(0) = 1.

The pairs form one array table (kidx, at, val), the k row and the (P, 2)
support and values of ell, k-major in slot order.  The ell of a k row
depend on it only through its momentum <k, J>, so `_slots` lists them once
per momentum and gives each row its run there; `_tables` gathers the runs
in blocks of _BLOCK // 32 pairs, and `enumerate_ell` is the one-k view.

One kernel, `_Divisors`, evaluates every divisor of such a table, as
L rest + <nu, (k, ell)> + <A k + B^T ell, xi> + <delta, k>, rest = c^2 the
table's rest energy; the products with k, <delta, k> among them, are
stacked matmuls over the k rows, taken once per table and gathered per
pair.  delta is the model's constant tangential-frequency shift, if any.
The Schrodinger family is the same kernel on the c = inf model
(`frequencies.nls_model`: rest = 0, nu = j^2/2, A and B without weights).
The kernel computes pair-major, grad @ xi.T, and returns the (points x
pairs) values as a transposed view; callers reduce them in blocks of
points, so that no temporary of the kernel holds more than `_BLOCK`
values (512 KiB of float64).

Resonant-set hits (`_hits`) take points inside the model's amplitude box
[xi_lo, xi_hi], as `sample_xi` draws them, and per-pair thresholds, and
evaluate only the pairs that can come below their threshold there; both
families take the thresholds, and so the weights w(ell), of the full
model.  On the box a divisor ranges over
<g, mid> + const + <delta, k> +- <|g|, half>.  `_Divisors.floor` turns that
range into a lower bound on |divisor|, less a rounding margin of 1e-12
(|const| + <|g|, max |xi|> + |<delta, k>|); a pair whose floor exceeds its
threshold has no hit anywhere in the box and is dropped.

`nongauge_scan` lists no k row's pairs but those it may evaluate.  It
counts per (k row, charge sum(ell)) class, by cumulative sums over the
row's run of the slot table.  It also reports the S8 pairs, the sum class
with opposite gauge sign: ell = +-(e_i + e_j) with i, j nonzero and of
opposite signs, and L != 0 of the other sign than ell (`_s8`).  An S8 ell
has charge +-2 and needs |sum(k)| >= 3 of the other sign, so one `_s8`
call on the slot table finds them all.  On the box
|divisor| >= |L| rest - u_k - u_ell, where u_k = |<nu_J, k>| +
<|A k|, max |xi|> + |<delta, k>| and u_ell = sum_a |ell_a| (|nu_a| +
<|B_a|, max |xi|>); less the floor's margin this bounds the computed
|divisor|, and a class takes it at its largest u_ell.
The classes of the smallest bound, overall and S8, seed the two minima;
then only the pairs whose own bound does not exceed them are evaluated.
A pair left out can neither undercut nor tie a minimum, so the minima and
their first pairs in enumeration order are exact.

Work that does not depend on alpha is done once per model and kept in the
model's memo (`FrequencyModel._memo`), which lives and dies with the
model: `cantor_excision` keeps each block's tables of both families with
their floors under (K_cut, kmax, pairs per block), and `sample_xi` keeps
the model's latest (n, seed) draw.  Both are read-only.  Per alpha only
the thresholds, the prune and the hits are computed.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .frequencies import FrequencyModel, nls_model


def _k_rows(N: int, kmax: int) -> np.ndarray:
    """All integer N-vectors with |k|_1 <= kmax (the zero vector included),
    as rows in `itertools.product` order."""
    k = np.indices((max(0, 2 * kmax + 1),) * N).reshape(N, -1).T - kmax
    return k[np.abs(k).sum(axis=1) <= kmax]


def _slots(J, M: int, ks: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The momentum-zero pairs of the k rows `ks`, by one slot table per
    momentum m in the range of <k, J>: the valid ell of each m as a (S, 2)
    support `at` with values `val` (0 pads), |ell|_1 <= 2 and supp(ell) in
    J^c intersect {-M..M}; per k row its pair count `n` and first entry
    `start` there.  Integer arithmetic throughout.

    Each m has 5 + 4(2M+1) candidate slots: ell = 0, the single supports
    ell_a = v for v in (1, -1, 2, -2) (a forced by the momentum equation),
    and the double supports ell_a, ell_b = +-1 with a < b, a ascending and
    (ell_a, ell_b) in (1, 1), (1, -1), (-1, 1), (-1, -1) order; the k = 0
    row drops ell = 0, the first slot of m = 0.
    """
    J = np.sort(np.asarray(J, dtype=int))
    mom = ks @ J
    m = np.arange(mom.min(initial=0), mom.max(initial=0) + 1)[:, None]
    # per n in -W..W, W = M + max |m| (|a| <= W for every support below):
    # whether n is a normal mode of -M..M
    W = M + int(np.abs(m).max())
    n = np.arange(-W, W + 1)
    normal = (np.abs(n) <= M) & (n[:, None] != J).all(axis=1)
    v = np.array([1, -1, 2, -2])
    a1 = -m // v
    a2 = np.repeat(np.arange(-M, M + 1), 4)
    s1, s2 = np.tile([(1, 1), (1, -1), (-1, 1), (-1, -1)], (2 * M + 1, 1)).T
    b = (-m - s1 * a2) * s2
    valid = np.hstack([m == 0, (m % np.abs(v) == 0) & normal[a1 + W],
                       normal[a2 + W] & (b > a2) & normal[b + W]])
    pad = np.zeros((len(m), 1), dtype=int)
    first = np.hstack([pad, a1, np.broadcast_to(a2, b.shape)])
    second = np.hstack([pad, 0 * a1, b])
    mi, slot = np.nonzero(valid)
    at = np.stack([first[mi, slot], second[mi, slot]], axis=1)
    val = np.stack([np.concatenate([[0], v, s1]),
                    np.concatenate([[0], 0 * v, s2])], axis=1)[slot]
    count, i, zero = np.bincount(mi, minlength=len(m)), mom - m[0, 0], \
        ~ks.any(1)
    return count[i] - zero, (np.cumsum(count) - count)[i] + zero, at, val


def _ells(at: np.ndarray, val: np.ndarray) -> list[dict[int, int]]:
    """The ell dicts of the (P, 2) supports `at`, `val` (0 pads)."""
    return [{a: v for a, v in zip(ra, rv) if v}
            for ra, rv in zip(at.tolist(), val.tolist())]


def enumerate_ell(k, J, M: int) -> list[dict[int, int]]:
    """All sparse ell with |ell|_1 <= 2, support in J^c intersect {-M..M},
    and (k, ell) of zero total momentum: the one-k view of `_slots`."""
    (n,), (start,), at, val = _slots(J, M, np.asarray(k, dtype=int)[None])
    return _ells(at[start:start + n], val[start:start + n])


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
    def gauge_sum(self) -> int:
        return sum(self.k) + sum(v for _, v in self.ell)


def make_pair(k, ell: dict[int, int], J) -> IndexPair:
    return IndexPair(k=tuple(int(v) for v in k),
                     ell=tuple(sorted((int(a), int(v))
                               for a, v in ell.items() if v != 0)),
                     J=tuple(sorted(J)))


def _supports(ells) -> tuple[np.ndarray, np.ndarray]:
    """The ell support as (P, 2) indices `at` and values `val`, 0-padded,
    entries in the order of each ell."""
    rows = [[x for a, v in ell.items() if v for x in (a, v)] for ell in ells]
    flat = np.array([r + [0] * (4 - len(r)) for r in rows],
                    dtype=int).reshape(-1, 2, 2)
    return flat[..., 0], flat[..., 1]


def _s8(ksum, at: np.ndarray, val: np.ndarray) -> np.ndarray:
    """Per pair (k, ell), sum(k) = ksum and ell given by its (P, 2) support
    `at`, `val` (0 pads): whether it is S8, ell_i ell_j = +1 on nonzero
    indices of opposite signs, with L = ksum + sum(ell) nonzero and of the
    other sign than ell."""
    (v0, v1), (a0, a1) = val.T, at.T
    L = ksum + v0 + v1
    return (v0 * v1 == 1) & (a0 * a1 < 0) & (L != 0) & ((L > 0) != (v0 > 0))


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


_BLOCK = 1 << 16   # values per block of a call's widest temporary


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Divisors:
    """Pairs (k, ell) over the k rows `ks`: per pair the row `kidx`, the
    ell support `at` with values `val` (0 pads), the constant, the gradient
    A k + B^T ell, the shift <delta, k> (0 without delta) and the weight
    w(ell).  Called on points xi (n, N), it gives the (n, P) divisors."""

    ROWS = ("kidx", "at", "val", "w", "const", "grad", "dk")   # per pair

    def __init__(self, model: FrequencyModel, ks: np.ndarray,
                 kidx: np.ndarray, at: np.ndarray, val: np.ndarray):
        self.model = model
        self.ks, self.kidx, self.at, self.val = ks, kidx, at, val
        # per support entry its index in the normal modes, -1 for none (also
        # beyond -M..M: the clip's unfilled last slot); pads take any mode
        lut = np.full(2 * model.M + 2, -1)
        lut[model.normal_modes + model.M] = np.arange(len(model.normal_modes))
        pos = lut[np.clip(at + model.M, -1, 2 * model.M + 1)]
        if np.any((val != 0) & (pos < 0)):
            raise ValueError("ell support must lie in the normal modes")
        # by column: a reduction along a length-2 axis costs ten times more
        (v0, v1), (p0, p1) = val.T, pos.T
        w = np.minimum(*np.where(val != 0, model.w_Jc[pos], np.inf).T)
        self.w = np.where(np.isinf(w), 1.0, w)
        nu = self._by_k(model.nu_J)[kidx] \
            + (v0 * model.nu_Jc[p0] + v1 * model.nu_Jc[p1])
        self.const = (ks.sum(axis=1)[kidx] + v0 + v1) * model.freq.rest + nu
        self.grad = self._by_k(model.A)[kidx] + v0[:, None] * model.B[p0] \
            + v1[:, None] * model.B[p1]
        self.dk = np.zeros(len(kidx)) if model.delta is None \
            else self._by_k(model.delta)[kidx]

    @classmethod
    def of(cls, model: FrequencyModel, k, ells: list[dict[int, int]]
           ) -> "_Divisors":
        """The pairs (k, ell) of one k over the given ell dicts."""
        at, val = _supports(ells)
        return cls(model, np.asarray(k, dtype=int)[None, :],
                   np.zeros(len(val), dtype=int), at, val)

    def _by_k(self, X: np.ndarray) -> np.ndarray:
        """X @ k per k row by one stacked matmul: the per-row products bit
        for bit, where a plain ks @ X.T rounds differently."""
        out = np.matmul(np.atleast_2d(X)[None],
                        self.ks.astype(float)[:, :, None])[..., 0]
        return out if X.ndim == 2 else out[:, 0]

    def rows(self, keep: np.ndarray) -> "_Divisors":
        """Only the pairs `keep` selects, over the same k rows."""
        sub = copy.copy(self)
        for name in self.ROWS:
            setattr(sub, name, getattr(self, name)[keep])
        return sub

    def frozen(self) -> "_Divisors":
        """This table with its arrays made read-only, for a memo."""
        for name in ("ks",) + self.ROWS:
            _read_only(getattr(self, name))
        return self

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        out = self.grad @ xi.T
        out += self.const[:, None]
        out += self.dk[:, None]
        return out.T

    def floor(self) -> np.ndarray:
        """Per pair: a lower bound on |divisor| over the model's amplitude
        box, less the rounding margin of the module docstring."""
        m, dk = self.model, self.dk
        mid, half = 0.5 * (m.xi_hi + m.xi_lo), 0.5 * (m.xi_hi - m.xi_lo)
        centre = self.grad @ mid + self.const
        spread = np.abs(self.grad) @ half
        lo, hi = centre - spread + dk, centre + spread + dk
        xmax = np.maximum(np.abs(m.xi_lo), np.abs(m.xi_hi))
        margin = 1e-12 * (np.abs(self.const) + np.abs(self.grad) @ xmax
                          + np.abs(dk))
        return np.maximum(lo, -hi) - margin

    def threshold(self, query: ResonantQuery) -> np.ndarray:
        """Per pair alpha / (<|k|_1>^tau w(ell)^theta), <.> per |k|_1."""
        k1 = np.abs(self.ks).sum(axis=1)
        kb = np.array([math.sqrt(1.0 + n * n) ** query.tau
                       for n in range(int(k1.max(initial=0)) + 1)])
        return query.alpha / (kb[k1][self.kidx] * self.w ** query.theta)


def _runs(rows: np.ndarray, n: np.ndarray, start: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of the k rows `rows`, k-major in slot order: its row and
    its slot-table entry, from the per-row `n` and `start` of `_slots`."""
    kidx = np.repeat(rows, n[rows])
    return kidx, np.repeat(start[rows] - np.cumsum(n[rows]) + n[rows],
                           n[rows]) + np.arange(len(kidx))


def _tables(model: FrequencyModel, kmax: int, kmin: int = 0):
    """(ks, kidx, at, val) per block of _BLOCK // 32 momentum-zero pairs
    over the k rows with kmin <= |k|_1 <= kmax: the block loop of
    `cantor_excision`.  `ks` holds the rows from the block's first pair to
    its last, so a row's pairs may straddle two blocks."""
    ks = _k_rows(model.N, kmax)
    ks = ks[np.abs(ks).sum(axis=1) >= kmin]
    n, start, at, val = _slots(model.J, model.M, ks)
    kidx, entry = _runs(np.arange(len(ks)), n, start)
    for lo in range(0, len(kidx), _BLOCK // 32):
        rows, e = kidx[lo:lo + _BLOCK // 32], entry[lo:lo + _BLOCK // 32]
        yield ks[rows[0]:rows[-1] + 1], rows - rows[0], at[e], val[e]


def _blocks(n: int, width: int):
    step = max(1, _BLOCK // max(width, 1))
    return (slice(i, i + step) for i in range(0, n, step))


def _hits(div: _Divisors, floor: np.ndarray, xi: np.ndarray,
          thr: np.ndarray) -> np.ndarray:
    """Per point: whether any pair of `div` is below its threshold `thr`.
    The points must lie in the model's amplitude box: only the pairs
    whose `floor` there, `div.floor()`, is at most `thr` are evaluated."""
    keep = floor <= thr
    hit = np.zeros(len(xi), dtype=bool)
    if keep.any():
        div, thr = div.rows(keep), thr[keep]
        for s in _blocks(len(xi), len(div.val)):
            vals = div(xi[s])
            hit[s] = (np.abs(vals, out=vals) < thr).any(axis=1)
    return hit


def divisor(model: FrequencyModel, xi, pair: IndexPair) -> float:
    """<omega(xi), k> + <Omega(xi), ell>, the model's delta included."""
    div = _Divisors.of(model, pair.k, [pair.ell_dict])
    return float(div(model.check_xi(xi)[None, :])[0, 0])


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    z = 1.959963984540054   # the 95% two-sided normal quantile
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


def sample_xi(model: FrequencyModel, n: int, seed: int) -> np.ndarray:
    """n uniform points of the amplitude box, read-only: the bits of
    `default_rng(seed).uniform(xi_lo, xi_hi, (n, N))`, scaled a column at
    a time.  The model keeps its latest (n, seed) draw."""
    # only an integer seed repeats its draw
    key = (n, int(seed)) if isinstance(seed, (int, np.integer)) else None
    last = model._memo.get("xi")
    if key is not None and last is not None and last[0] == key:
        return last[1]
    xi = np.random.default_rng(seed).random((n, model.N))
    for col, lo, hi in zip(xi.T, model.xi_lo, model.xi_hi):
        col *= hi - lo
        col += lo
    if key is not None:
        model._memo["xi"] = (key, xi)
    return _read_only(xi)


def measure_estimate_mc(model: FrequencyModel, k, query: ResonantQuery,
                        ells: list[dict[int, int]] | None = None,
                        nls: bool = False) -> MeasureResult:
    """Fraction of uniform xi in the amplitude box falling in the union of
    the resonant sets of (k, ell) over the momentum-compatible ell; `nls`
    takes the divisors of the Schrodinger limit (`nls_model`), with the
    thresholds of `model`."""
    if query.samples < 1:
        raise ValueError("need at least one sample")
    k = np.asarray(k, dtype=int)
    if ells is None:
        ells = enumerate_ell(k, model.J, model.M)
    xi = sample_xi(model, query.samples, query.seed)
    used = [e for e in ells if k.any() or any(e.values())]
    div = _Divisors.of(model, k, used)
    thr = div.threshold(query)
    # `nls` has no caller outside the tests; it stays only because
    # perfbench/tracing.py::_count_measure binds it by name
    if nls:
        div = _Divisors.of(nls_model(model), k, used)
    hits = int(np.count_nonzero(_hits(div, div.floor(), xi, thr)))
    lo, hi = wilson_interval(hits, query.samples)
    return MeasureResult(fraction=hits / query.samples, ci_lo=lo, ci_hi=hi,
                         samples=query.samples, seed=query.seed, hits=hits)


def nongauge_scan(model: FrequencyModel, kappa: float = 0.5) -> dict:
    """Exhaustive scan of the non-gauge pairs (L != 0) under the size
    restrictions |k|_1 <= kappa sqrt(c) and supp(ell) within [-c/2, c/2],
    at the amplitude-box corners.  Returns min |divisor| / c^2, its pair,
    and the number of S8-class pairs with the S8 row of the smallest
    min |divisor| / c^2 (None when there is none).  The pairs are counted
    per (k row, charge) class and evaluated only where their charge bound
    can reach the minima (module docstring); each arg-min is the first
    pair in enumeration order at its minimum."""
    c, M, rest = model.c, model.M, model.freq.rest
    kmax = max(1, int(kappa * math.sqrt(c)))
    ks = _k_rows(model.N, kmax)
    n, start, at, val = _slots(model.J, M, ks)
    corners = model.xi_corners()
    xmax = np.maximum(np.abs(model.xi_lo), np.abs(model.xi_hi))
    u_ell = np.zeros(2 * M + 1)   # per mode of -M..M, for one |ell_a|
    u_ell[model.normal_modes + M] = np.abs(model.nu_Jc) \
        + np.abs(model.B) @ xmax
    # per slot: its charge sum(ell) + 2, its u_ell and, inside |a| <= c/2,
    # a flag per charge, then S8 (an S8 ell of charge +-2 needs sum(k) of
    # the other sign and |sum(k)| >= 3) for the charges 2 and -2
    q = val.sum(axis=1) + 2
    u_l = (np.abs(val) * u_ell[at + M]).sum(axis=1)
    inside = (np.abs(at) <= c / 2).all(axis=1)
    s8 = _s8(-3 * val[:, 0], at, val)
    flags = np.column_stack([q == i for i in range(5)]
                            + [s8 & (q == 4), s8 & (q == 0)]) \
        & inside[:, None]
    run = np.cumsum(np.vstack([np.zeros(7, dtype=int), flags]), axis=0)
    count = run[start + n] - run[start]   # per k row and flag
    ksum = ks.sum(axis=1)
    L = ksum[:, None] + np.arange(-2, 3)
    count[:, :5][L == 0] = 0
    n8 = count[:, 5] * (ksum <= -3) + count[:, 6] * (ksum >= 3)
    u_k = np.abs(ks @ model.nu_J) + np.abs(ks @ model.A.T) @ xmax \
        + (0 if model.delta is None else np.abs(ks @ model.delta))

    def bound(L, u):   # / c^2, less the floor's margin
        charge = np.abs(L) * rest
        return (charge - u - 1e-12 * (charge + u)) / (c * c)

    # per (k row, charge) class: the bound at the largest u_ell of the
    # slots of its momentum and charge, and the same for its S8 pairs
    mom = ks @ np.asarray(model.J)
    umax = np.zeros((mom.max() - mom.min() + 1, 5))
    np.maximum.at(umax, (-(at * val).sum(axis=1) - mom.min(), q),
                  np.where(inside, u_l, 0.0))
    low = np.where(count[:, :5] > 0,
                   bound(L, u_k[:, None] + umax[mom - mom.min()]), np.inf)
    low8 = np.where(n8 > 0, low[np.arange(len(ks)), 4 * (ksum < 0)],
                    np.inf)

    def pairs(rows):   # the counted pairs of the k rows, k-major
        kidx, entry = _runs(rows, n, start)
        Lp = ksum[kidx] + q[entry] - 2
        kept = inside[entry] & (Lp != 0)
        kidx, entry, Lp = kidx[kept], entry[kept], Lp[kept]
        s8 = flags[entry, 5] & (ksum[kidx] <= -3) \
            | flags[entry, 6] & (ksum[kidx] >= 3)
        return kidx, entry, s8, bound(Lp, u_k[kidx] + u_l[entry])

    def mins(take):   # per pair of `take`: min |divisor| / c^2
        rows = ks[kidx[take]]
        div = _Divisors(model, rows, np.arange(len(rows)), at[entry[take]],
                        val[entry[take]])
        return np.min([np.abs(div(corners[s])).min(axis=0) for s
                       in _blocks(len(corners), len(rows))], axis=0) / (c * c)

    def pair(i):
        return make_pair(ks[kidx[i]], _ells(at[entry[i]][None],
                                            val[entry[i]][None])[0], model.J)

    best = arg = s8_row = None
    if np.isfinite(low).any():
        # seed both minima: the class of the smallest bound, and the S8
        # pairs of the S8 class of the smallest bound
        (r, charge), r8 = divmod(int(np.argmin(low)), 5), np.argmin(low8)
        kidx, entry, s8, _ = pairs(np.array([r, r8]))
        take = ((kidx == r) & (q[entry] == charge)) | s8
        m = mins(take)
        best = m.min()
        s8_best = m[s8[take]].min() if s8.any() else -math.inf
        # then every pair whose bound does not exceed them, k-major
        kidx, entry, s8, low = pairs(np.flatnonzero(
            (low <= best).any(axis=1) | (low8 <= s8_best)))
        need = (low <= best) | (s8 & (low <= s8_best))
        kidx, entry, s8 = kidx[need], entry[need], s8[need]
        m = np.concatenate([mins(slice(i, i + _BLOCK // 32))
                            for i in range(0, len(kidx), _BLOCK // 32)])
        i = int(np.argmin(m))
        best, p = float(m[i]), pair(i)
        arg = {"k": list(p.k), "ell": dict(p.ell)}
        if s8.any():
            i = int(np.flatnonzero(s8)[np.argmin(m[s8])])
            s8_best, p = float(m[i]), pair(i)
            loc = s8_localization(p, c)
            s8_row = {"k": list(p.k), "ell": dict(p.ell),
                      "center": loc["center"], "min_over_c2": s8_best,
                      "offsets": {str(a): v for a, v
                                  in loc["offsets"].items()}}
        if best <= 0:
            raise ArithmeticError("non-gauge divisor minimum is not positive")
    return {"c": c, "kmax": kmax, "kappa": kappa,
            "pairs": int(count[:, :5].sum()), "min_over_c2": best,
            "argmin": arg, "s8_count": int(n8.sum()), "s8_argmin": s8_row}


def _excision_tables(model: FrequencyModel, K_cut: int, kmax: int
                     ) -> list[list[tuple[_Divisors, np.ndarray]]]:
    """Per block of `_tables` over K_cut < |k|_1 <= kmax: the read-only
    `_Divisors` of `model` and of its Schrodinger limit, each with its
    floor, built once per model and kept in its memo."""
    key = ("excision", K_cut, kmax, _BLOCK // 32)
    if key not in model._memo:
        limit = nls_model(model)
        model._memo[key] = [
            [(div.frozen(), _read_only(div.floor()))
             for div in (_Divisors(m, *block) for m in (model, limit))]
            for block in _tables(model, kmax, K_cut + 1)]
    return model._memo[key]


def cantor_excision(model: FrequencyModel, query: ResonantQuery,
                    K_cut: int, kmax: int) -> dict:
    """MC indicator of the amplitude box minus the union of the resonant
    sets over K_cut < |k|_1 <= kmax, for both divisor families (the full
    dispersion and its Schrodinger limit), each at the thresholds of
    `model`."""
    if K_cut < 0:
        raise ValueError("K_cut must be >= 0")
    xi = sample_xi(model, query.samples, query.seed)
    excised = np.zeros(query.samples, dtype=bool)
    n_sets = 0
    for (div, floor), limit in _excision_tables(model, K_cut, kmax):
        thr = div.threshold(query)
        excised |= _hits(div, floor, xi, thr)
        excised |= _hits(*limit, xi, thr)
        n_sets += len(div.kidx)
    hits = int(np.count_nonzero(excised))
    lo, hi = wilson_interval(hits, query.samples)
    return {"excised_fraction": hits / query.samples,
            "ci": [lo, hi], "sets": n_sets, "K_cut": K_cut, "kmax": kmax,
            "samples": query.samples, "seed": query.seed}


def center_pair_correction(model: FrequencyModel,
                           pair: IndexPair) -> FrequencyModel:
    """Copy of the model with a constant tangential-frequency correction
    delta chosen so the given pair's divisor vanishes at the centre of the
    amplitude box, composed with the model's own delta, if any.  This
    realizes the generic situation of the measure estimates (a resonant
    surface crossing the box); the uncorrected divisors of a truncated
    model typically sit at O(1) offsets."""
    k = np.array(pair.k, dtype=float)
    k2 = float(k @ k)
    if k2 == 0:
        raise ValueError("centering requires k != 0")
    center = 0.5 * (model.xi_lo + model.xi_hi)
    d = divisor(model, center, pair)
    shift = (-d / k2) * k
    return replace(model, delta=shift if model.delta is None
                   else model.delta + shift)
