"""Sparse polynomial Hamiltonians on the truncated mode window.

A monomial is a multiset of slots ``(j, s)`` with ``s = +1`` for a ``z_j``
factor and ``s = -1`` for a ``zbar_j`` factor.  Every monomial must satisfy
the translation-invariance selection rule ``sum s_i j_i = 0`` (module-wide
policy; the quartic constructors and the Poisson bracket both preserve it).

A `PolyHamiltonian` is one table: per degree the distinct rows of slot
codes ``2 j + (s > 0)`` (signed int32) with their nonzero complex
coefficients.  A code does not depend on any window: ``code >> 1`` is j,
``code & 1`` the z bit and ``code ^ 1`` the conjugate slot, and code order
equals slot-tuple order, so a sorted code row is a canonical monomial.
The rows of a degree are in increasing row-lexicographic order.  Only the
packed key of `_pack`/`_unpack` knows a window: it reads a row as a number
in base ``2 (2W + 1)`` with W the largest |j| of its operands.  Every
operation and kernel (`value`, `vector_field`, `poisson_bracket`,
`birkhoff`'s quartic classifier) works on this table.  ``terms``, the
mapping from sorted slot tuples to coefficients, is a read-only view
decoded from the table on first access, for slot-tuple predicates; the
index work of `vector_field` on a window is a plan cached on first use.
Both are derived from the table, so the polynomial stays immutable.

The real Hamiltonians (P, Lambda, Lambda+) have real coefficients, while
normal-form generators obtained by dividing by ``i * (divisor)`` are purely
imaginary.  Real-valuedness on the real subspace corresponds to
conjugate-symmetric coefficients under sign flip.

Poisson bracket convention:
    {F, G} = i * sum_j (dF/dzbar_j dG/dz_j - dF/dz_j dG/dzbar_j)
so that for the diagonal quadratic Lambda = sum lambda_j z_j zbar_j,
    {Lambda, m} = i (sigma . lambda) m    for a monomial m.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .spectral_core import TWO_PI, FourierState, FrequencyTable

Slots = tuple[tuple[int, int], ...]

# Coefficients of modulus at or below this are dropped by `prune` and
# `poisson_bracket`.
PRUNE_TOL = 1e-16


def canonical(slots: Iterable[tuple[int, int]]) -> Slots:
    return tuple(sorted(slots))


def momentum(slots: Slots) -> int:
    return sum(j * s for j, s in slots)


def gauge_sum(slots: Slots) -> int:
    return sum(s for _, s in slots)


class PolyHamiltonian:
    """Sparse polynomial Hamiltonian.  ``PolyHamiltonian({slots: coeff})``
    canonicalizes and merges its keys, checks the momentum rule and drops
    zero coefficients.  Instances are immutable: every operation returns a
    new object."""

    __slots__ = ("_W", "_tab", "_terms", "_plan")

    def __init__(self, terms: Mapping[Slots, complex] | None = None):
        merged: dict[Slots, complex] = {}
        for m, c in (terms or {}).items():
            if c == 0:
                continue
            m = canonical(m)
            if momentum(m) != 0:
                raise ValueError(
                    f"monomial {m} violates momentum selection rule")
            merged[m] = merged.get(m, 0) + c
        groups: dict[int, tuple[list, list]] = {}
        for m in sorted(merged):
            rows, coefs = groups.setdefault(len(m), ([], []))
            rows.append([2 * j + (s > 0) for j, s in m])
            coefs.append(merged[m])
        self._adopt({d: (np.array(r, dtype=np.int32).reshape(len(r), d),
                         np.array(c, dtype=complex))
                     for d, (r, c) in groups.items()})

    def _adopt(self, tables: dict[int, tuple[np.ndarray, np.ndarray]]
               ) -> None:
        """The one constructor of the store: per degree, code rows in
        increasing row-lexicographic order, and coefficients.  Zero
        coefficients are dropped; `_W` caches the largest |j| left and
        `_plan` the index work of `vector_field` on its last window."""
        tab = {}
        for d in sorted(tables):
            rows, coefs = tables[d]
            coefs = np.asarray(coefs, dtype=complex)
            keep = coefs != 0
            if not keep.all():
                rows, coefs = rows[keep], coefs[keep]
            if len(coefs):
                tab[d] = (rows.astype(np.int32, copy=False), coefs)
        self._W = max((_reach(rows) for rows, _ in tab.values()), default=0)
        self._tab, self._terms, self._plan = tab, None, None

    def _select(self, keep: Callable[[np.ndarray, np.ndarray], np.ndarray]
                ) -> "PolyHamiltonian":
        """The terms for which keep(rows, coefs), per degree in increasing
        degree, is true."""
        out = {}
        for d, (rows, coefs) in self._tab.items():
            k = keep(rows, coefs)
            out[d] = (rows[k], coefs[k])
        return _from_rows(out)

    def _at(self, rows: np.ndarray) -> np.ndarray:
        """Coefficients at the code rows `rows`, 0 where the polynomial has
        no such term; looked up by packed key."""
        out = np.zeros(len(rows), dtype=complex)
        own = self._tab.get(rows.shape[1])
        if own is not None:
            W = max(self._W, _reach(rows))
            keys, want = _pack(own[0].T, W), _pack(rows.T, W)
            i = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
            hit = keys[i] == want
            out[hit] = own[1][i[hit]]
        return out

    @property
    def terms(self) -> Mapping[Slots, complex]:
        """Read-only view: sorted slot tuple -> coefficient, decoded from
        the table on first access and cached."""
        if self._terms is None:
            W = self._W
            slot = [(j, s) for j in range(-W, W + 1) for s in (-1, 1)]
            terms = {}
            for rows, coefs in self._tab.values():
                # a slot lookup per column; degree 0 has no column to zip
                cols = [map(slot.__getitem__, col)
                        for col in (rows.T + 2 * W).tolist()]
                terms.update(zip(zip(*cols) if cols else [()] * len(rows),
                                 coefs.tolist()))
            self._terms = MappingProxyType(terms)
        return self._terms

    # -- basic algebra ----------------------------------------------------

    def __add__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        W = max(self._W, other._W)
        a, b = self._tab, other._tab
        out = {}
        for d in a.keys() | b.keys():
            parts = [t[d] for t in (a, b) if d in t]
            if len(parts) == 1:
                out[d] = parts[0]
                continue
            keys, coefs = _reduce(
                np.concatenate([_pack(rows.T, W) for rows, _ in parts]),
                np.concatenate([c for _, c in parts]))
            out[d] = (_unpack(keys, d, W), coefs)
        return _from_rows(out)

    def __sub__(self, other: "PolyHamiltonian") -> "PolyHamiltonian":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "PolyHamiltonian":
        return _from_rows({d: (rows, a * c)
                           for d, (rows, c) in self._tab.items()})

    def prune(self) -> "PolyHamiltonian":
        """Drop the coefficients of modulus <= PRUNE_TOL."""
        # np.hypot rounds as Python's abs(complex); np.abs may not
        return self._select(lambda _, c: np.hypot(c.real, c.imag) > PRUNE_TOL)

    def restrict(self, pred: Callable[[Slots], bool]) -> "PolyHamiltonian":
        """The terms whose slot tuple satisfies pred."""
        # `terms` lists the table's rows in the order _select visits them
        flags = iter([pred(m) for m in self.terms])
        return self._select(
            lambda rows, _: np.fromiter(flags, dtype=bool, count=len(rows)))

    @property
    def degrees(self) -> tuple[int, int]:
        return (min(self._tab), max(self._tab)) if self._tab else (0, 0)

    def max_abs_coeff(self) -> float:
        # np.hypot, as in prune
        return max((float(np.hypot(c.real, c.imag).max())
                    for _, c in self._tab.values()), default=0.0)

    def __len__(self):
        return sum(len(c) for _, c in self._tab.values())

    # -- evaluation -------------------------------------------------------

    def value(self, state: FourierState) -> complex:
        zz, off = _slot_values(self, state)
        tot = 0.0 + 0.0j
        for codes, coef in self._tab.values():
            v = coef.copy()
            for k in range(codes.shape[1]):
                v *= zz[codes[:, k] + off]
            tot += v.sum()
        return tot

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """One line "signs modes coefficient" per row of the table, in
        table order: by degree, then in sorted slot-tuple order.

        Signs and modes come from lookup tables: a sign string per z-bit
        pattern of a group of up to 8 columns, a "j1 j2" token per pair of
        columns and a "j" token for the odd column left; each distinct
        coefficient is formatted once."""
        W = self._W
        n = 2 * W + 1
        mode = [str(j) for j in range(-W, W + 1)]
        pair = [f"{a} {b}" for a in mode for b in mode]
        lines = []
        for rows, coefs in self._tab.values():
            d = rows.shape[1]
            signs = []
            for g in [rows[:, k:k + 8] for k in range(0, d, 8)] or [rows]:
                w = g.shape[1]
                table = ["".join("-+"[p >> k & 1] for k in range(w))
                         for p in range(1 << w)]
                key = ((g & 1) << np.arange(w, dtype=np.int32)).sum(axis=1)
                signs.append(list(map(table.__getitem__, key.tolist())))
            cols = [signs[0] if len(signs) == 1
                    else list(map("".join, zip(*signs)))]
            j = (rows >> 1) + W
            for k in range(0, d - 1, 2):
                cols.append(list(map(pair.__getitem__,
                                     (j[:, k] * n + j[:, k + 1]).tolist())))
            if d % 2:
                cols.append(list(map(mode.__getitem__, j[:, -1].tolist())))
            if d == 0:
                cols.append([""] * len(rows))
            # distinct by their two 8-byte halves, so -0.0 is not 0.0,
            # sorted by two argsorts of int64 like those of `_reduce`
            half = np.ascontiguousarray(coefs).view(np.int64).reshape(-1, 2)
            order = np.argsort(half[:, 1])
            order = order[np.argsort(half[order, 0], kind="stable")]
            h = half[order]
            new = np.ones(len(h), dtype=bool)
            new[1:] = (h[1:, 0] != h[:-1, 0]) | (h[1:, 1] != h[:-1, 1])
            inv = np.empty(len(h), dtype=int)
            inv[order] = np.cumsum(new) - 1
            text = [repr(c.real) if c.imag == 0 else repr(c).strip("()")
                    for c in coefs[order[new]].tolist()]
            cols.append(list(map(text.__getitem__, inv.tolist())))
            lines.extend(map(" ".join, zip(*cols)))
        return "\n".join(lines) + ("\n" if lines else "")


def _from_rows(tables: dict[int, tuple[np.ndarray, np.ndarray]]
               ) -> PolyHamiltonian:
    """Polynomial from per-degree (code rows, coefficients).  Rows must be
    distinct, momentum zero and in increasing row-lexicographic order;
    they are adopted as is."""
    H = PolyHamiltonian.__new__(PolyHamiltonian)
    H._adopt(tables)
    return H


def _reach(rows: np.ndarray) -> int:
    """Largest |j| of the code rows (0 without slots)."""
    if not rows.size:
        return 0
    return max(-(int(rows.min()) >> 1), int(rows.max()) >> 1)


def build_Lambda(freq: FrequencyTable) -> PolyHamiltonian:
    """Diagonal quadratic sum lambda_j z_j zbar_j on |j| <= M; the c = inf
    table gives the parabolic frequencies j^2/2."""
    zbar = 2 * np.arange(-freq.M, freq.M + 1)
    return _from_rows({2: (np.column_stack([zbar, zbar + 1]), freq.lam)})


def _slot_values(H: PolyHamiltonian, state
                 ) -> tuple[np.ndarray, int]:
    """[zbar, z] interleaved in slot-code order on the window of `state`,
    a FourierState or the stacked (2, 2M+1) array [z, zbar], and the
    offset 2M at which code 0 sits.  H's modes must lie in the window."""
    z, zbar = (state.z, state.zbar) if isinstance(state, FourierState) \
        else state
    M = (len(z) - 1) // 2
    if H._W > M:
        raise ValueError(
            f"polynomial has modes up to |j| = {H._W}, outside the "
            f"window |j| <= {M}")
    zz = np.empty(2 * len(z), dtype=complex)
    zz[0::2] = zbar
    zz[1::2] = z
    return zz, 2 * M


# Bracket contractions formed per batch: bounds a kernel's transient arrays.
_PAIR_CHUNK = 4096


def _decode(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Code rows -> (modes j, signs s), same shape."""
    return rows >> 1, 2 * (rows & 1) - 1


def _paired(rows: np.ndarray) -> np.ndarray:
    """Per sorted quartic code row: its slots split into conjugate pairs
    (j, +), (j, -), i.e. the row equals its own conjugate.  The codes x
    and x ^ 1 of a pair are adjacent, so a sorted paired row reads
    (x, x ^ 1, y, y ^ 1) or (x, x, x ^ 1, x ^ 1)."""
    r0, r1, r2, r3 = rows.T
    return (((r0 ^ 1) == r1) & ((r2 ^ 1) == r3)) \
        | ((r0 == r1) & (r2 == r3) & ((r0 ^ 1) == r2))


def _gauge(rows: np.ndarray) -> np.ndarray:
    """Per code row: zero gauge charge (as many z as zbar slots)."""
    return 2 * (rows & 1).sum(axis=1) == rows.shape[1]


def _quartic_rows(M: int) -> np.ndarray:
    """Sorted slot-code rows of every momentum-zero degree-4 multiset on
    |j| <= M, in lexicographic order."""
    n = 4 * M + 2                       # codes -2M .. 2M + 1, by index
    code = np.arange(-2 * M, 2 * M + 2, dtype=np.int32)
    mom_of = (code >> 1) * (2 * (code & 1) - 1)
    # index triples a <= b <= c in lexicographic order: each pair a <= b
    # of triu_indices, repeated over c = b .. n - 1
    a, b = (x.astype(np.int32) for x in np.triu_indices(n))
    reps = n - b
    start = np.cumsum(reps, dtype=np.int32) - reps
    c = np.arange(start[-1] + reps[-1], dtype=np.int32) \
        + np.repeat(b - start, reps)
    a, b = np.repeat(a, reps), np.repeat(b, reps)
    mom = mom_of[a] + mom_of[b] + mom_of[c]
    # the 4th slot s4 * j4 = -mom: code 2 mom (s4 = -1) or 1 - 2 mom
    # (s4 = +1), the smaller first (they add up to 1); it closes a sorted
    # row iff its code is >= the 3rd
    lo = np.minimum(2 * mom, 1 - 2 * mom)
    fourth = np.stack([lo, 1 - lo], axis=1)
    ok = (np.abs(mom) <= M)[:, None] & (fourth >= (c - 2 * M)[:, None])
    t = np.flatnonzero(ok) >> 1
    return np.column_stack([code[a[t]], code[b[t]], code[c[t]], fourth[ok]])


def _multiplicity(rows: np.ndarray) -> np.ndarray:
    """Ordered arrangements of each sorted row: d! / prod(run length!)."""
    d = rows.shape[1]
    run = np.ones(len(rows), dtype=np.int64)
    denom = run.copy()
    for k in range(1, d):
        run = np.where(rows[:, k] == rows[:, k - 1], run + 1, 1)
        denom *= run
    return math.factorial(d) // denom


def build_P(freq: FrequencyTable) -> PolyHamiltonian:
    """Quartic part of the cubic-KG Hamiltonian in dressed variables, on
    the table's window |j| <= freq.M.

    Canonical (merged) coefficient: (#ordered arrangements) *
    (1/32pi) / sqrt(w_{j1} w_{j2} w_{j3} w_{j4}).
    """
    rows = _quartic_rows(freq.M)
    w = [freq.w[(rows[:, k] >> 1) + freq.M] for k in range(4)]
    wprod = w[0] * w[1] * w[2] * w[3]
    base = 1.0 / (16.0 * TWO_PI)
    coefs = _multiplicity(rows) * base / np.sqrt(wprod)
    return _from_rows({4: (rows, coefs)})


def build_P_nls(M: int) -> PolyHamiltonian:
    """Quartic NLS Hamiltonian: the gauge-invariant rows of build_P on the
    c = inf table, whose weights are 1 (per-arrangement coefficient
    1/32pi, i.e. 3/(16pi) per sigma-pattern)."""
    return build_P(FrequencyTable(c=math.inf, M=M))._select(
        lambda rows, _: _gauge(rows))


def _reduce(keys: np.ndarray, vals: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the sum of the values of each."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))
    return keys[first], np.add.reduceat(vals[order], first)


def _merge_last(runs: list) -> None:
    """Merge the top two reduced runs: a key of both adds its values, a
    key of the top one only goes after the keys below it in either run."""
    (k1, v1), (k2, v2) = runs[-2], runs[-1]
    at = np.searchsorted(k1, k2)
    hit = k1[np.minimum(at, len(k1) - 1)] == k2
    v1[at[hit]] += v2[hit]
    new = np.flatnonzero(~hit)
    put = at[new] + np.arange(len(new))
    own = np.ones(len(k1) + len(new), dtype=bool)
    own[put] = False
    keys = np.empty(len(own), dtype=np.int64)
    vals = np.empty(len(own), dtype=complex)
    keys[put], vals[put] = k2[new], v2[new]
    keys[own], vals[own] = k1, v1
    runs[-2:] = [(keys, vals)]


def _push_run(runs: list, keys: np.ndarray, vals: np.ndarray) -> None:
    """Add a batch to a stack of reduced runs, merging the top two while
    they are of similar size, so each key is merged O(log n) times."""
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


def _pack(cols: np.ndarray, W: int) -> np.ndarray:
    """One int64 key per code row with modes |j| <= W, from the (D, rows)
    array of the rows' columns: its codes shifted by 2W and read as
    digits in base B = 2 (2W + 1), so key order is row-lexicographic
    order.  The shifts add up to 2W (B^D - 1) / (B - 1)."""
    D, B = len(cols), 2 * (2 * W + 1)
    if B ** D >= 2 ** 63:
        raise ValueError(f"degree {D} on window |j| <= {W} "
                         f"overflows the packed monomial key")
    keys = np.zeros(cols.shape[1], dtype=np.int64)
    for col in cols:
        keys *= B
        keys += col
    keys += 2 * W * ((B ** D - 1) // (B - 1))
    return keys


def _unpack(keys: np.ndarray, D: int, W: int) -> np.ndarray:
    rows = np.empty((len(keys), D), dtype=np.int64)
    for k in range(D - 1, -1, -1):
        keys, rows[:, k] = np.divmod(keys, 2 * (2 * W + 1))
    return rows - 2 * W


def poisson_bracket(F: PolyHamiltonian, G: PolyHamiltonian,
                    max_deg: int = 6) -> PolyHamiltonian:
    """Graded Poisson bracket, truncated at degree max_deg; coefficients
    of modulus <= PRUNE_TOL are dropped.

    Exact for polynomials below the truncation; antisymmetric; the bracket
    of translation-invariant operands is translation invariant.

    Every F slot a and G slot b holding conjugate slots contribute
    i * s_b * F_m * G_m' to the monomial left after dropping both.  The
    pairs come from joining F's column a with G's column b; per batch of
    them a network of minima and maxima merges the columns of the two
    sorted halves left, packs them into one int64 key per sorted code row
    and merges the batch into a running sum per output degree.
    """
    W = max(F._W, G._W)
    acc: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for df, (f_codes, f_coef) in F._tab.items():
        for dg, (g_codes, g_coef) in G._tab.items():
            D = df + dg - 2
            if D > max_deg:
                continue
            for a in range(df):
                f_rest = np.delete(f_codes.T, a, axis=0)
                for b in range(dg):
                    g_rest = np.delete(g_codes.T, b, axis=0)
                    g_w = np.where(g_codes[:, b] & 1, 1j, -1j)  # i * s_b
                    for fi, gi in _join(f_codes[:, a] ^ 1, g_codes[:, b]):
                        cols = np.empty((D, len(fi)), dtype=np.int32)
                        f_rest.take(fi, axis=1, out=cols[:df - 1])
                        g_rest.take(gi, axis=1, out=cols[df - 1:])
                        # insert G's columns one by one: as the halves are
                        # sorted, the one at k stops at k - df + 1 or later
                        for k in range(df - 1, D):
                            for i in range(k, k - df + 1, -1):
                                cols[i - 1], cols[i] = (
                                    np.minimum(cols[i - 1], cols[i]),
                                    np.maximum(cols[i - 1], cols[i]))
                        vals = g_w[gi] * f_coef[fi] * g_coef[gi]
                        _push_run(acc.setdefault(D, []), _pack(cols, W), vals)
    tables = {}
    for D, runs in acc.items():
        while len(runs) > 1:
            _merge_last(runs)
        keys, vals = runs[0]
        keep = np.abs(vals) > PRUNE_TOL
        tables[D] = (_unpack(keys[keep], D, W), vals[keep])
    return _from_rows(tables)


def _field_plan(H: PolyHamiltonian, off: int) -> tuple:
    """The index work of `vector_field` on the window whose code 0 sits
    at `off` in `_slot_values`' array, cached on H: per degree d >= 1 the
    (d, terms) slot indices into that array with the coefficients; the
    stable order that sorts the flattened slot indices of all degrees,
    the first position of each distinct slot in it and those slots, so
    that the gradient is one `np.add.reduceat` over the values in that
    order."""
    plan = H._plan
    if plan is None or plan[0] != off:
        gather = [(np.array(codes.T, dtype=np.intp) + off, coef)
                  for codes, coef in H._tab.values() if codes.shape[1]]
        slot = np.concatenate([at.ravel() for at, _ in gather]
                              or [np.zeros(0, dtype=np.intp)])
        order = np.argsort(slot, kind="stable")
        first = np.flatnonzero(np.diff(slot[order], prepend=-1))
        H._plan = plan = (off, gather, order, first, slot[order[first]])
    return plan


def vector_field(H: PolyHamiltonian, state) -> np.ndarray:
    """Hamiltonian vector field, the stacked [-i dH/dzbar, +i dH/dz], at
    `state`: a FourierState or the stacked array [z, zbar].

    The derivative of a term by its slot k is the product of its other
    factors; summing over every slot position counts repeated slots with
    their multiplicity.
    """
    zz, off = _slot_values(H, state)
    _, gather, order, first, slots = _field_plan(H, off)
    val = np.empty(len(order), dtype=complex)
    i = 0
    for at, coef in gather:
        d, n = at.shape
        v = zz[at]
        loo = val[i:i + d * n].reshape(d, n)
        i += d * n
        # prefix products coef v_0 ... v_{k-1} times suffix products
        # v_{k+1} ... v_{d-1}; no division, so zero factors are safe
        loo[0] = coef
        for k in range(1, d):
            np.multiply(loo[k - 1], v[k - 1], out=loo[k])
        suffix = v[d - 1].copy()
        for k in range(d - 2, -1, -1):
            loo[k] *= suffix
            if k:
                suffix *= v[k]
    grad = np.zeros(len(zz), dtype=complex)
    grad[slots] = np.add.reduceat(val[order], first)
    out = np.empty((2, len(zz) // 2), dtype=complex)
    np.multiply(-1j, grad[0::2], out=out[0])
    np.multiply(1j, grad[1::2], out=out[1])
    return out
