"""Sparse polynomial Hamiltonians on the truncated mode window.

A monomial is a multiset of slots ``(j, s)`` with ``s = +1`` for a ``z_j``
factor and ``s = -1`` for a ``zbar_j`` factor, stored as a sorted tuple so
equal monomials compare equal.  Every stored monomial must satisfy the
translation-invariance selection rule ``sum s_i j_i = 0`` (module-wide
policy; the quartic constructors and the Poisson bracket both preserve it).

Coefficients are kept complex: the real Hamiltonians (P, Lambda, Lambda+)
have real coefficients, while normal-form generators obtained by dividing
by ``i * (divisor)`` are purely imaginary.  Real-valuedness on the real
subspace corresponds to conjugate-symmetric coefficients under sign flip.

Poisson bracket convention:
    {F, G} = i * sum_j (dF/dzbar_j dG/dz_j - dF/dz_j dG/dzbar_j)
so that for the diagonal quadratic Lambda = sum lambda_j z_j zbar_j,
    {Lambda, m} = i (sigma . lambda) m    for a monomial m.

The kernels (`value`, `vector_field`, `poisson_bracket`, the majorant's
coefficient sup, `birkhoff`'s quartic classifier) work on a term table
built from ``terms``: per degree an int array of slot codes
``2 (j + W) + (s > 0)`` on a window ``|j| <= W`` and a complex
coefficient vector.  Code order equals slot-tuple order, so
a sorted code row is a canonical monomial and ``code ^ 1`` is the
conjugate slot.
"""

from __future__ import annotations

import math
from itertools import chain, combinations_with_replacement
from typing import Callable, Iterable

import numpy as np

from .spectral_core import TWO_PI, FourierState, FrequencyTable, \
    SpaceParams, weighted_norm

Slots = tuple[tuple[int, int], ...]

PRUNE_DEFAULT = 1e-16


def canonical(slots: Iterable[tuple[int, int]]) -> Slots:
    return tuple(sorted(slots))


def momentum(slots: Slots) -> int:
    return sum(j * s for j, s in slots)


def gauge_sum(slots: Slots) -> int:
    return sum(s for _, s in slots)


def sigma_string(slots: Slots) -> str:
    return "".join("+" if s > 0 else "-" for _, s in slots)


class Monomial:
    """Thin wrapper used at API boundaries; internally plain slot tuples
    are passed around."""

    __slots__ = ("slots",)

    def __init__(self, jvec: Iterable[int], sigvec: Iterable[int]):
        jv = tuple(jvec)
        sv = tuple(1 if s in (1, "+") else -1 for s in sigvec)
        if len(jv) != len(sv):
            raise ValueError("jvec and sigvec lengths differ")
        self.slots = canonical(zip(jv, sv))

    @property
    def momentum(self) -> int:
        return momentum(self.slots)

    @property
    def gauge_sum(self) -> int:
        return gauge_sum(self.slots)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.slots == other.slots

    def __hash__(self):
        return hash(self.slots)

    def __repr__(self):
        return f"Monomial({self.slots})"


class PolyHamiltonian:
    """Sparse polynomial Hamiltonian: map from canonical slot tuples to
    coefficients.  Zero coefficients are never stored.

    Instances are immutable: every operation returns a new object, and the
    term table the kernels read is built from ``terms`` on first use and
    cached, so ``terms`` must not be changed after construction.
    """

    def __init__(self, terms: dict[Slots, complex] | None = None,
                 check: bool = True):
        self.terms: dict[Slots, complex] = {}
        self._table_cache = None
        if terms:
            for m, c in terms.items():
                if c == 0:
                    continue
                m = canonical(m)
                if check and momentum(m) != 0:
                    raise ValueError(
                        f"monomial {m} violates momentum selection rule")
                self.terms[m] = self.terms.get(m, 0) + c

    def _table(self, W: int | None = None
               ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Term table on the window |j| <= W (default: the smallest window
        holding every mode): degree -> (codes (T, d), coefficients (T,))."""
        if self._table_cache is None:
            groups: dict[int, tuple[list, list]] = {}
            for m, c in self.terms.items():
                keys, coefs = groups.setdefault(len(m), ([], []))
                keys.append(m)
                coefs.append(c)
            slots = {d: np.fromiter(chain.from_iterable(
                chain.from_iterable(keys)), dtype=np.int64,
                count=2 * d * len(keys)).reshape(len(keys), d, 2)
                for d, (keys, _) in groups.items()}
            W0 = max((int(np.abs(js[:, :, 0]).max())
                      for js in slots.values() if js.size), default=0)
            tab = {d: ((2 * (js[:, :, 0] + W0) + (js[:, :, 1] > 0))
                       .astype(np.int32),
                       np.array(groups[d][1], dtype=complex))
                   for d, js in sorted(slots.items())}
            self._table_cache = (W0, tab)
        W0, tab = self._table_cache
        if W is None or W == W0:
            return tab
        if W < W0:
            raise ValueError(
                f"polynomial has modes up to |j| = {W0}, outside the "
                f"window |j| <= {W}")
        shift = 2 * (W - W0)
        return {d: (codes + shift, c) for d, (codes, c) in tab.items()}

    def _window(self) -> int:
        self._table()
        return self._table_cache[0]

    # -- basic algebra ----------------------------------------------------

    def __add__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return PolyHamiltonian(
            {m: c for m, c in out.items() if c != 0}, check=False)

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "PolyHamiltonian":
        return PolyHamiltonian(
            {m: a * c for m, c in self.terms.items()}, check=False)

    def prune(self, tol: float = PRUNE_DEFAULT) -> "PolyHamiltonian":
        return PolyHamiltonian(
            {m: c for m, c in self.terms.items() if abs(c) > tol},
            check=False)

    def coefficient(self, jvec: Iterable[int],
                    sigvec: Iterable[int]) -> complex:
        return self.terms.get(Monomial(jvec, sigvec).slots, 0.0)

    def restrict(self, pred: Callable[[Slots], bool]) -> "PolyHamiltonian":
        return PolyHamiltonian(
            {m: c for m, c in self.terms.items() if pred(m)}, check=False)

    @property
    def degrees(self) -> tuple[int, int]:
        if not self.terms:
            return (0, 0)
        lens = [len(m) for m in self.terms]
        return (min(lens), max(lens))

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __len__(self):
        return len(self.terms)

    def is_gauge_invariant(self) -> bool:
        return all(gauge_sum(m) == 0 for m in self.terms)

    # -- evaluation -------------------------------------------------------

    def value(self, state: FourierState) -> complex:
        zz = _slot_values(state)
        tot = 0.0 + 0.0j
        for codes, coef in self._table(state.M).values():
            v = coef.copy()
            for k in range(codes.shape[1]):
                v *= zz[codes[:, k]]
            tot += v.sum()
        return tot

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for m in sorted(self.terms):
            c = self.terms[m]
            coeff = repr(c.real) if c.imag == 0 else repr(c).strip("()")
            js = " ".join(str(j) for j, _ in m)
            lines.append(f"{sigma_string(m)} {js} {coeff}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "PolyHamiltonian":
        terms: dict[Slots, complex] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            sig, coeff = parts[0], complex(parts[-1])
            js = [int(t) for t in parts[1:-1]]
            if len(js) != len(sig):
                raise ValueError(f"malformed term line: {line!r}")
            terms[Monomial(js, sig).slots] = coeff
        return cls(terms)


def build_Lambda(freq: FrequencyTable) -> PolyHamiltonian:
    """Diagonal quadratic sum lambda_j z_j zbar_j."""
    terms = {}
    for j in range(-freq.M, freq.M + 1):
        terms[canonical([(j, 1), (j, -1)])] = freq.lam_at(j)
    return PolyHamiltonian(terms, check=False)


def build_Lambda_nls(M: int) -> PolyHamiltonian:
    """Diagonal quadratic with the parabolic frequencies j^2/2."""
    terms = {}
    for j in range(-M, M + 1):
        if j != 0:
            terms[canonical([(j, 1), (j, -1)])] = 0.5 * j * j
    return PolyHamiltonian(terms, check=False)


def _slot_values(state: FourierState) -> np.ndarray:
    """[z, zbar] interleaved in slot-code order on the state's window."""
    zz = np.empty(2 * len(state.z), dtype=complex)
    zz[0::2] = state.zbar
    zz[1::2] = state.z
    return zz


def _slot_keys(W: int) -> list[tuple[int, int]]:
    """One interned (j, s) tuple per slot code on the window |j| <= W."""
    return [(j, s) for j in range(-W, W + 1) for s in (-1, 1)]


# Rows turned into dict keys per batch, and bracket contractions formed per
# batch: both bound the transient arrays and Python lists of a kernel.
_ROW_CHUNK = 2048
_PAIR_CHUNK = 4096


def _from_rows(tables: Iterable[tuple[np.ndarray, np.ndarray]], W: int
               ) -> PolyHamiltonian:
    """Polynomial from (sorted code rows, coefficients) tables on the window
    |j| <= W.  Rows must be distinct and momentum zero, coefficients
    nonzero; they are adopted as is, in row order."""
    slot = _slot_keys(W)
    terms: dict[Slots, complex] = {}
    for table in tables:
        for rows, coefs in _batches(*table):
            for r, c in zip(rows.tolist(), coefs.tolist()):
                terms[tuple(map(slot.__getitem__, r))] = c
    H = PolyHamiltonian.__new__(PolyHamiltonian)
    H.terms, H._table_cache = terms, None
    return H


def _batches(rows: np.ndarray, coefs: np.ndarray):
    for i in range(0, len(rows), _ROW_CHUNK):
        yield rows[i:i + _ROW_CHUNK], coefs[i:i + _ROW_CHUNK]


def _decode(rows: np.ndarray, W: int) -> tuple[np.ndarray, np.ndarray]:
    """Code rows on the window |j| <= W -> (modes j, signs s), same shape."""
    return (rows >> 1) - W, 2 * (rows & 1) - 1


def _paired(rows: np.ndarray) -> np.ndarray:
    """Per sorted code row: its slots split into conjugate pairs (j, +),
    (j, -), i.e. the row equals its own conjugate."""
    return np.all(np.sort(rows ^ 1, axis=1) == rows, axis=1)


def _quartic_rows(M: int) -> np.ndarray:
    """Sorted slot-code rows of every momentum-zero degree-4 multiset on
    |j| <= M, in lexicographic order."""
    n = 2 * (2 * M + 1)
    tri = np.fromiter(combinations_with_replacement(range(n), 3),
                      dtype=(np.int32, 3), count=math.comb(n + 2, 3))
    mom = np.zeros(len(tri), dtype=np.int32)
    for k in range(3):
        mom += ((tri[:, k] >> 1) - M) * (2 * (tri[:, k] & 1) - 1)
    picks, fourth = [], []
    for s4 in (-1, 1):
        # s4 * j4 = -mom; the 4th slot closes a sorted row iff code >= 3rd
        j4 = -s4 * mom
        code4 = 2 * (j4 + M) + (s4 > 0)
        ok = (np.abs(j4) <= M) & (code4 >= tri[:, 2])
        picks.append(np.flatnonzero(ok))
        fourth.append(code4[ok])
    idx, code4 = np.concatenate(picks), np.concatenate(fourth)
    order = np.lexsort((code4, idx))
    return np.column_stack([tri[idx[order]], code4[order]])


def _multiplicity(rows: np.ndarray) -> np.ndarray:
    """Ordered arrangements of each sorted row: d! / prod(run length!)."""
    d = rows.shape[1]
    run = np.ones(len(rows), dtype=np.int64)
    denom = run.copy()
    for k in range(1, d):
        run = np.where(rows[:, k] == rows[:, k - 1], run + 1, 1)
        denom *= run
    return math.factorial(d) // denom


def build_P(freq: FrequencyTable, M: int | None = None) -> PolyHamiltonian:
    """Quartic part of the cubic-KG Hamiltonian in dressed variables.

    Canonical (merged) coefficient: (#ordered arrangements) *
    (1/32pi) / sqrt(w_{j1} w_{j2} w_{j3} w_{j4}).
    """
    M = freq.M if M is None else M
    if M > freq.M:
        raise ValueError("requested truncation exceeds frequency table")
    rows = _quartic_rows(M)
    w = [freq.w[(rows[:, k] >> 1) - M + freq.M] for k in range(4)]
    wprod = w[0] * w[1] * w[2] * w[3]
    base = 1.0 / (16.0 * TWO_PI)
    coefs = _multiplicity(rows) * base / np.sqrt(wprod)
    return _from_rows([(rows, coefs)], M)


def build_P_nls(M: int) -> PolyHamiltonian:
    """Quartic NLS Hamiltonian: the gauge-invariant, weight-free limit of
    build_P (per-arrangement coefficient 1/32pi, i.e. 3/(16pi) per
    sigma-pattern)."""
    rows = _quartic_rows(M)
    rows = rows[(rows & 1).sum(axis=1) == 2]
    base = 1.0 / (16.0 * TWO_PI)
    coefs = _multiplicity(rows) * base
    return _from_rows([(rows, coefs)], M)


def ordered_coefficient(freq: FrequencyTable | None, jvec, sigvec) -> float:
    """Per sigma-pattern coefficient of P at an ordered tuple (jvec, sigvec):
    (1/32pi) * binom(4, sigma_hat) / sqrt(prod w), zero off the momentum
    shell.  With freq=None the weights are dropped (NLS normalization)."""
    jv = tuple(jvec)
    sv = tuple(1 if s in (1, "+") else -1 for s in sigvec)
    if len(jv) != 4 or len(sv) != 4:
        raise ValueError("ordered_coefficient expects degree-4 tuples")
    if sum(j * s for j, s in zip(jv, sv)) != 0:
        return 0.0
    sigma_hat = (4 + sum(sv)) // 2
    coeff = math.comb(4, sigma_hat) / (16.0 * TWO_PI)
    if freq is not None:
        for j in jv:
            coeff /= math.sqrt(freq.w_at(j))
    return coeff


def gauge_project(H: PolyHamiltonian) -> PolyHamiltonian:
    """Keep exactly the monomials with zero gauge charge (sum sigma = 0)."""
    return H.restrict(lambda m: gauge_sum(m) == 0)


def split_P(freq: FrequencyTable, M: int | None = None
            ) -> tuple[PolyHamiltonian, PolyHamiltonian, PolyHamiltonian]:
    """Decompose build_P = P_nls + P_ng + P_r.

    P_ng is the non-gauge part, P_r the gauge part minus the NLS limit;
    the reconstruction identity holds coefficient-wise to rounding.
    """
    M = freq.M if M is None else M
    P = build_P(freq, M)
    P_nls = build_P_nls(M)
    Pg = gauge_project(P)
    P_ng = P - Pg
    P_r = Pg - P_nls
    return P_nls, P_ng, P_r


def _reduce(keys: np.ndarray, vals: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the sum of the values of each."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(vals[order], first)


def _merge_last(runs: list) -> None:
    (k1, v1), (k2, v2) = runs[-2], runs[-1]
    runs[-2:] = [_reduce(np.concatenate([k1, k2]), np.concatenate([v1, v2]))]


def _push_run(runs: list, keys: np.ndarray, vals: np.ndarray) -> None:
    """Add a batch to a stack of reduced runs, merging the top two while
    they are of similar size, so each key is re-sorted O(log n) times."""
    runs.append(_reduce(keys, vals))
    while len(runs) > 1 and len(runs[-2][0]) <= 2 * len(runs[-1][0]):
        _merge_last(runs)


def _join(want: np.ndarray, col: np.ndarray):
    """Yield index pairs (fi, gi) with col[gi] == want[fi], in batches of
    about _PAIR_CHUNK pairs."""
    order = np.argsort(col, kind="stable")
    col = col[order]
    lo = np.searchsorted(col, want, "left")
    cnt = np.searchsorted(col, want, "right") - lo
    end = np.cumsum(cnt)
    r0 = 0
    while r0 < len(cnt):
        done = int(end[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(end, done + _PAIR_CHUNK,
                                             "right")))
        n = int(end[r1 - 1]) - done
        if n:
            c = cnt[r0:r1]
            fi = np.repeat(np.arange(r0, r1), c)
            gi = order[np.arange(n)
                       + np.repeat(lo[r0:r1] - (np.cumsum(c) - c), c)]
            yield fi, gi
        r0 = r1


def _unpack(keys: np.ndarray, D: int, B: int) -> np.ndarray:
    rows = np.empty((len(keys), D), dtype=np.int64)
    for k in range(D - 1, -1, -1):
        keys, rows[:, k] = np.divmod(keys, B)
    return rows


def poisson_bracket(F: PolyHamiltonian, G: PolyHamiltonian,
                    max_deg: int = 6,
                    prune: float = PRUNE_DEFAULT) -> PolyHamiltonian:
    """Graded Poisson bracket, truncated at degree max_deg.

    Exact for polynomials below the truncation; antisymmetric; the bracket
    of translation-invariant operands is translation invariant.

    Every F slot a and G slot b holding conjugate slots contribute
    i * s_b * F_m * G_m' to the monomial left after dropping both.  The
    pairs come from joining F's column a with G's column b; each batch of
    them is packed into one int64 key per sorted code row and merged into
    a running sum per output degree.
    """
    W = max(F._window(), G._window())
    B = 2 * (2 * W + 1)
    tf, tg = F._table(W), G._table(W)
    acc: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for df, (f_codes, f_coef) in tf.items():
        for dg, (g_codes, g_coef) in tg.items():
            D = df + dg - 2
            if D > max_deg:
                continue
            if B ** D >= 2 ** 63:
                raise ValueError(f"degree {D} on window |j| <= {W} "
                                 f"overflows the packed monomial key")
            for a in range(df):
                f_rest = np.delete(f_codes, a, axis=1)
                for b in range(dg):
                    g_rest = np.delete(g_codes, b, axis=1)
                    g_w = np.where(g_codes[:, b] & 1, 1j, -1j)  # i * s_b
                    for fi, gi in _join(f_codes[:, a] ^ 1, g_codes[:, b]):
                        rows = np.concatenate([f_rest[fi], g_rest[gi]],
                                              axis=1)
                        rows.sort(axis=1)
                        keys = np.zeros(len(fi), dtype=np.int64)
                        for k in range(D):
                            keys = keys * B + rows[:, k]
                        vals = g_w[gi] * f_coef[fi] * g_coef[gi]
                        _push_run(acc.setdefault(D, []), keys, vals)

    def batches():
        for D, runs in sorted(acc.items()):
            while len(runs) > 1:
                _merge_last(runs)
            keys, vals = runs[0]
            keep = np.abs(vals) > max(prune, 0.0)
            for k, v in _batches(keys[keep], vals[keep]):
                yield _unpack(k, D, B), v

    return _from_rows(batches(), W)


def vector_field(H: PolyHamiltonian, state: FourierState
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Hamiltonian vector field ( -i dH/dzbar, +i dH/dz ) at `state`.

    The derivative of a term by its slot k is the product of its other
    factors; summing over every slot position counts repeated slots with
    their multiplicity.
    """
    zz = _slot_values(state)
    idx, val = [], []
    for codes, coef in H._table(state.M).values():
        d = codes.shape[1]
        if d == 0:
            continue
        v = zz[codes]
        # leave-one-out products from prefix and suffix products: no
        # division, so zero factors are safe
        loo = np.empty_like(v)
        loo[:, 0] = coef
        loo[:, 1:] = v[:, :-1]
        np.cumprod(loo, axis=1, out=loo)
        loo[:, :-1] *= np.cumprod(v[:, :0:-1], axis=1)[:, ::-1]
        idx.append(codes.ravel())
        val.append(loo.ravel())
    n = len(zz)
    if idx:
        idx, val = np.concatenate(idx), np.concatenate(val)
        grad = (np.bincount(idx, weights=val.real, minlength=n)
                + 1j * np.bincount(idx, weights=val.imag, minlength=n))
    else:
        grad = np.zeros(n, dtype=complex)
    return -1j * grad[0::2], 1j * grad[1::2]


def vector_field_norm_bound(H: PolyHamiltonian, state: FourierState,
                            params: SpaceParams, freq: FrequencyTable,
                            b: list[np.ndarray] | None = None) -> float:
    """Majorant for ||X_H(state)|| from the factored-coefficient estimate:

        ||X_F|| <= |F|_inf * sum_t || b^(t) (star_{k != t} w^(k)) ||,
        w^(k)_j = b^(k)_j (|z_j| + |zbar_j|).

    `b` supplies one positive dressing vector per slot (default: all ones).
    |F|_inf is taken over the canonical merged coefficients after dividing
    out the dressings (may exceed the raw-coefficient sup by a factor
    bounded by 4!).
    """
    degs = H.degrees
    if degs[0] != degs[1]:
        raise ValueError("norm bound requires a homogeneous Hamiltonian")
    n = degs[0]
    M = state.M
    if b is None:
        b = [np.ones(2 * M + 1) for _ in range(n)]
    if len(b) != n:
        raise ValueError(f"need {n} dressing vectors, got {len(b)}")
    for bt in b:
        if np.any(np.asarray(bt) <= 0):
            raise ValueError("dressing vectors must be strictly positive")

    f_inf = 0.0
    for codes, coef in H._table(M).values():
        denom = np.ones(len(coef))
        for t in range(n):
            denom = denom * np.asarray(b[t], dtype=float)[codes[:, t] >> 1]
        f_inf = max(f_inf, float(np.max(np.abs(coef) / denom, initial=0.0)))

    absz = np.abs(state.z) + np.abs(state.zbar)
    wvecs = [np.asarray(bt) * absz for bt in b]

    total = np.zeros(2 * M + 1)
    for t in range(n):
        # full (untruncated) convolution: truncating intermediates could
        # drop valid index combinations and void the majorant guarantee
        conv = None
        for k in range(n):
            if k == t:
                continue
            conv = wvecs[k] if conv is None else np.convolve(conv, wvecs[k])
        center = (len(conv) - 1) // 2
        window = conv[center - M:center + M + 1]
        total = total + np.asarray(b[t]) * window
    # majorant state: identical bound for the z and zbar components
    maj = FourierState(f_inf * total.astype(complex),
                       f_inf * total.astype(complex))
    return weighted_norm(maj, params, freq)


def dressing_for_P(freq: FrequencyTable) -> list[np.ndarray]:
    """Slot dressings b^(t)_j = w_j^{-1/2} matching build_P's coefficient
    structure."""
    return [freq.w ** -0.5 for _ in range(4)]
