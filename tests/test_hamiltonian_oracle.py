"""Array kernels of `kgnls.hamiltonian` against dict-loop references.

The references below are the per-monomial loop implementations the array
kernels and the array algebra replaced.  They share no code with them
beyond the dict constructor `PolyHamiltonian({slots: coeff})` and the
read-only `terms` view.  `ref_batched_bracket` is the earlier batched
bracket, with its own copies of the helpers it used: the array bracket
must return its rows and coefficient bytes.
"""

import math
from collections import defaultdict
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls.birkhoff import solve_cohomological_quartic
from kgnls.hamiltonian import (PRUNE_TOL, PolyHamiltonian, _PAIR_CHUNK,
                               _from_rows, _quartic_rows, build_Lambda,
                               build_P,
                               build_P_nls, canonical, momentum,
                               poisson_bracket, vector_field)
from kgnls.spectral_core import FourierState, FrequencyTable

TWO_PI = 2.0 * math.pi


# --- references ------------------------------------------------------------

def ref_value(H, state):
    M = state.M
    tot = 0.0 + 0.0j
    for m, c in H.terms.items():
        v = c
        for j, s in m:
            v *= state.z[j + M] if s > 0 else state.zbar[j + M]
        tot += v
    return tot


def ref_vector_field(H, state):
    M = state.M
    n = 2 * M + 1
    dz = np.zeros(n, dtype=complex)      # dH/dz_j
    dzb = np.zeros(n, dtype=complex)     # dH/dzbar_j
    for m, c in H.terms.items():
        vals = [state.z[j + M] if s > 0 else state.zbar[j + M] for j, s in m]
        seen = set()
        for a, (j, s) in enumerate(m):
            if (j, s) in seen:
                continue
            seen.add((j, s))
            cnt = sum(1 for sl in m if sl == (j, s))
            prod = c * cnt
            for b, v in enumerate(vals):
                if b != a:
                    prod *= v
            if s > 0:
                dz[j + M] += prod
            else:
                dzb[j + M] += prod
    return -1j * dzb, 1j * dz


def ref_poisson_bracket(F, G, max_deg=6, prune=1e-16):
    out = defaultdict(complex)
    gterms = list(G.terms.items())
    for mf, cf in F.terms.items():
        nf = len(mf)
        for mg, cg in gterms:
            if nf + len(mg) - 2 > max_deg:
                continue
            for a in range(nf):
                ja, sa = mf[a]
                for b in range(len(mg)):
                    jb, sb = mg[b]
                    if ja == jb and sa == -sb:
                        mono = canonical(mf[:a] + mf[a + 1:]
                                         + mg[:b] + mg[b + 1:])
                        out[mono] += 1j * sb * cf * cg
    return PolyHamiltonian(
        {m: c for m, c in out.items() if abs(c) > prune})


def _ref_reduce(keys, vals):
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat(vals[order], first)


def _ref_merge_last(runs):
    (k1, v1), (k2, v2) = runs[-2], runs[-1]
    runs[-2:] = [_ref_reduce(np.concatenate([k1, k2]),
                             np.concatenate([v1, v2]))]


def _ref_join(want, col):
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


def ref_batched_bracket(F, G, max_deg=6):
    """The batched bracket before the merge network: per batch the two
    row halves are concatenated, sorted row by row and packed, and two
    runs merge by re-sorting their concatenation.  Returns per degree
    (code rows, coefficients) after the prune."""
    W = max(F._W, G._W)
    B = 2 * (2 * W + 1)

    def pack(rows):
        keys = np.zeros(len(rows), dtype=np.int64)
        for k in range(rows.shape[1]):
            keys = keys * B + (rows[:, k] + 2 * W)
        return keys

    acc = {}
    for df, (f_codes, f_coef) in F._tab.items():
        for dg, (g_codes, g_coef) in G._tab.items():
            D = df + dg - 2
            if D > max_deg:
                continue
            for a in range(df):
                f_rest = np.delete(f_codes, a, axis=1)
                for b in range(dg):
                    g_rest = np.delete(g_codes, b, axis=1)
                    g_w = np.where(g_codes[:, b] & 1, 1j, -1j)
                    for fi, gi in _ref_join(f_codes[:, a] ^ 1, g_codes[:, b]):
                        rows = np.concatenate([f_rest[fi], g_rest[gi]],
                                              axis=1)
                        rows.sort(axis=1)
                        vals = g_w[gi] * f_coef[fi] * g_coef[gi]
                        runs = acc.setdefault(D, [])
                        runs.append(_ref_reduce(pack(rows), vals))
                        while (len(runs) > 1
                               and len(runs[-2][0]) <= 2 * len(runs[-1][0])):
                            _ref_merge_last(runs)
    tables = {}
    for D, runs in acc.items():
        while len(runs) > 1:
            _ref_merge_last(runs)
        keys, vals = runs[0]
        keep = np.abs(vals) > PRUNE_TOL
        keys, vals = keys[keep], vals[keep]
        rows = np.empty((len(keys), D), dtype=np.int64)
        for k in range(D - 1, -1, -1):
            keys, rows[:, k] = np.divmod(keys, B)
        if len(vals):
            tables[D] = (rows - 2 * W, vals)
    return tables


def ref_add(F, G):
    out = dict(F.terms)
    for m, c in G.terms.items():
        out[m] = out.get(m, 0) + c
    return PolyHamiltonian({m: c for m, c in out.items() if c != 0})


def ref_scale(H, a):
    return PolyHamiltonian({m: a * c for m, c in H.terms.items()})


def ref_prune(H, tol=1e-16):
    return PolyHamiltonian({m: c for m, c in H.terms.items() if abs(c) > tol})


def ref_restrict(H, pred):
    return PolyHamiltonian({m: c for m, c in H.terms.items() if pred(m)})


def ref_max_abs_coeff(H):
    return max((abs(c) for c in H.terms.values()), default=0.0)


def ref_to_text(H):
    """One line "signs modes coefficient" per term, by degree and then in
    sorted slot-tuple order."""
    lines = []
    for m in sorted(H.terms, key=lambda m: (len(m), m)):
        c = H.terms[m]
        coeff = repr(c.real) if c.imag == 0 else repr(c).strip("()")
        lines.append("".join("+" if s > 0 else "-" for _, s in m) + " "
                     + " ".join(str(j) for j, _ in m) + " " + coeff + "\n")
    return "".join(lines)


def ref_terms(H):
    """(slot tuple, coefficient) per row of the table, in table order, each
    row decoded on its own."""
    return [(tuple((code >> 1, 1 if code & 1 else -1) for code in row), c)
            for rows, coefs in H._tab.values()
            for row, c in zip(rows.tolist(), coefs.tolist())]


def ref_quartic_rows(M):
    """Sorted code rows of the momentum-zero quartic multisets on |j| <= M
    from itertools triples, each closed by its 4th code."""
    codes = range(-2 * M, 2 * M + 2)
    tri = np.fromiter(combinations_with_replacement(codes, 3),
                      dtype=(np.int32, 3), count=math.comb(len(codes) + 2, 3))
    mom = np.zeros(len(tri), dtype=np.int32)
    for k in range(3):
        mom += (tri[:, k] >> 1) * (2 * (tri[:, k] & 1) - 1)
    picks, fourth = [], []
    for s4 in (-1, 1):
        # s4 * j4 = -mom; the 4th slot closes a sorted row iff code >= 3rd
        j4 = -s4 * mom
        code4 = 2 * j4 + (s4 > 0)
        ok = (np.abs(j4) <= M) & (code4 >= tri[:, 2])
        picks.append(np.flatnonzero(ok))
        fourth.append(code4[ok])
    idx, code4 = np.concatenate(picks), np.concatenate(fourth)
    order = np.lexsort((code4, idx))
    return np.column_stack([tri[idx[order]], code4[order]])


def ref_quartic_multisets(M):
    slot_list = [(j, s) for j in range(-M, M + 1) for s in (-1, 1)]
    for combo in combinations_with_replacement(slot_list, 4):
        if momentum(combo) != 0:
            continue
        counts = {}
        for sl in combo:
            counts[sl] = counts.get(sl, 0) + 1
        mult = 24
        for c in counts.values():
            mult //= math.factorial(c)
        yield combo, mult


def ref_build_P(freq):
    terms = {}
    base = 1.0 / (16.0 * TWO_PI)
    for combo, mult in ref_quartic_multisets(freq.M):
        wprod = 1.0
        for j, _ in combo:
            wprod *= freq.w[j + freq.M]
        terms[combo] = mult * base / math.sqrt(wprod)
    return PolyHamiltonian(terms)


def ref_build_P_nls(M):
    terms = {}
    base = 1.0 / (16.0 * TWO_PI)
    for combo, mult in ref_quartic_multisets(M):
        if sum(s for _, s in combo) == 0:
            terms[combo] = mult * base
    return PolyHamiltonian(terms)


# --- random inputs ---------------------------------------------------------

def random_poly(rng, M, n_terms, degrees=(2, 4, 6)):
    """Momentum-zero monomials of mixed degree; about half of them repeat
    one slot 2-4 times."""
    terms = {}
    while len(terms) < n_terms:
        d = int(rng.choice(degrees))
        slots = []
        if d > 1 and rng.random() < 0.5:
            k = int(rng.integers(2, min(4, d) + 1))
            slot = (int(rng.integers(-M, M + 1)), int(rng.choice((-1, 1))))
            slots = [slot] * k
        while len(slots) < d - 1:
            slots.append((int(rng.integers(-M, M + 1)),
                          int(rng.choice((-1, 1)))))
        if len(slots) == d - 1:
            s = int(rng.choice((-1, 1)))
            j = -s * momentum(slots)
            if abs(j) > M:
                continue
            slots.append((j, s))
        if momentum(slots) != 0:
            continue
        terms[canonical(slots)] = complex(rng.normal(), rng.normal())
    return PolyHamiltonian(terms)


def random_state(rng, M, scale=0.5):
    def vec():
        return scale * (rng.normal(size=2 * M + 1)
                        + 1j * rng.normal(size=2 * M + 1))
    return FourierState(vec(), vec())   # zbar independent of z


def max_rel_diff(a, b):
    """Largest entry-wise difference relative to the largest entry."""
    scale = max(np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


# --- comparisons -----------------------------------------------------------

@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_vector_field_matches_reference(M, seed):
    rng = np.random.default_rng(seed)
    H = random_poly(rng, M, int(rng.integers(1, 40)))
    state = random_state(rng, M)
    got = vector_field(H, state)
    want = ref_vector_field(H, state)
    assert max_rel_diff(np.concatenate(got), np.concatenate(want)) < 1e-13


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_value_matches_reference(M, seed):
    rng = np.random.default_rng(seed)
    H = random_poly(rng, M, int(rng.integers(1, 40)))
    state = random_state(rng, M)
    want = ref_value(H, state)
    # relative to the largest single term, the scale of the rounding
    scale = max(abs(c) for c in H.terms.values()) \
        * max(np.max(np.abs(state.z)), np.max(np.abs(state.zbar)),
              1.0) ** 6
    assert abs(H.value(state) - want) < 1e-13 * scale


def test_vector_field_on_wider_state_window():
    rng = np.random.default_rng(3)
    H = random_poly(rng, 2, 20)
    state = random_state(rng, 5)
    got = vector_field(H, state)
    want = ref_vector_field(H, state)
    assert max_rel_diff(np.concatenate(got), np.concatenate(want)) < 1e-13
    with pytest.raises(ValueError):
        vector_field(H, random_state(rng, 1))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_odd_degrees_and_two_digit_modes_match_reference(seed):
    # odd degrees leave one mode token after the column pairs; |j| <= 12
    # writes two-digit and negative modes; degree 0 writes no mode and
    # degrees 9 and 10 span two groups of sign columns
    rng = np.random.default_rng(seed)
    H = random_poly(rng, 12, int(rng.integers(1, 40)),
                    degrees=(0, 1, 3, 4, 5, 9, 10))
    assert H.to_text() == ref_to_text(H)
    state = random_state(rng, 12)
    assert max_rel_diff(np.concatenate(vector_field(H, state)),
                        np.concatenate(ref_vector_field(H, state))) < 1e-13


def test_vector_field_on_torus_seed_state():
    # z nonzero on J only, as normal_form_torus starts its flow: most
    # factors of most terms are zero
    J, M = (1, 2, 3), 8
    ft = FrequencyTable(c=10.0, M=M)
    G = solve_cohomological_quartic(build_P(ft), ft, J).G
    rng = np.random.default_rng(8)
    H = random_poly(rng, M, 40, degrees=(1, 2, 3, 4, 5, 6))
    state = FourierState.from_modes(M, {
        j: math.sqrt(x) * np.exp(1j * t)
        for j, x, t in zip(J, (0.3, 0.2, 0.1), rng.uniform(0, TWO_PI, 3))})
    for F in (G, H):
        got = np.concatenate(vector_field(F, state))
        want = np.concatenate(ref_vector_field(F, state))
        assert max_rel_diff(got, want) < 1e-13


def test_cached_field_plan_gives_the_bits_of_a_fresh_one():
    # the quartic G of the flows and a table of every degree up to 6; the
    # plan is built by the first call on a window and reused by the next
    # ones, and rebuilt on another window
    ft = FrequencyTable(c=10.0, M=8)
    G = solve_cohomological_quartic(build_P(ft), ft, (1, 2, 3)).G
    rng = np.random.default_rng(21)
    mixed = random_poly(rng, 6, 60, degrees=(1, 2, 3, 4, 5, 6))
    # no term of degree 1 or more: an empty plan and a zero field
    for H in (PolyHamiltonian(), PolyHamiltonian({(): 2.5})):
        for M in (8, 10):
            z_dot, zbar_dot = vector_field(H, random_state(rng, M))
            assert zbar_dot.shape == z_dot.shape == (2 * M + 1,)
            assert not zbar_dot.any() and not z_dot.any()
    for H in (G, mixed):
        for M in (8, 8, 8, 10, 8):
            state = random_state(rng, M)
            got = np.concatenate(vector_field(H, state))
            assert H._plan[0] == 2 * M
            fresh = _from_rows(dict(H._tab))
            assert fresh._plan is None
            want = np.concatenate(vector_field(fresh, state))
            assert got.tobytes() == want.tobytes()
            assert max_rel_diff(
                got, np.concatenate(ref_vector_field(H, state))) < 1e-13


@given(st.integers(1, 4), st.integers(0, 10 ** 6), st.sampled_from([4, 6, 10]))
@settings(max_examples=40, deadline=None)
def test_poisson_bracket_matches_reference(M, seed, max_deg):
    rng = np.random.default_rng(seed)
    F = random_poly(rng, M, int(rng.integers(1, 25)))
    G = random_poly(rng, int(rng.integers(1, M + 1)),
                    int(rng.integers(1, 25)))
    got = poisson_bracket(F, G, max_deg=max_deg)
    want = ref_poisson_bracket(F, G, max_deg=max_deg)
    keys = sorted(set(got.terms) | set(want.terms))
    if not keys:
        return
    a = np.array([got.terms.get(m, 0.0) for m in keys])
    b = np.array([want.terms.get(m, 0.0) for m in keys])
    assert max_rel_diff(a, b) < 1e-13
    assert all(momentum(m) == 0 and len(m) <= max_deg for m in got.terms)


def contractions(F, G):
    """Pairs of an F slot and a G slot holding conjugate slots."""
    return sum(int(np.sum((f[:, a, None] ^ 1) == g[:, b]))
               for f, _ in F._tab.values() for g, _ in G._tab.values()
               for a in range(f.shape[1]) for b in range(g.shape[1]))


def assert_same_tables(H, tables):
    """H's store holds exactly these rows and coefficient bytes."""
    assert sorted(H._tab) == sorted(tables)
    for d, (rows, coefs) in tables.items():
        got_rows, got_coefs = H._tab[d]
        assert np.array_equal(got_rows, rows)
        assert got_coefs.tobytes() == coefs.tobytes()


@given(st.integers(0, 10 ** 6), st.sampled_from([4, 6, 10]))
@settings(max_examples=40, deadline=None)
def test_poisson_bracket_bytes_match_batched_reference(seed, max_deg):
    # degrees 0 to 6 on |j| <= 16: degree-0 outputs, and keys of up to
    # 10 digits in base 66
    rng = np.random.default_rng(seed)
    F = random_poly(rng, 16, int(rng.integers(1, 60)), degrees=range(7))
    G = random_poly(rng, int(rng.integers(1, 17)), int(rng.integers(1, 60)),
                    degrees=range(7))
    assert_same_tables(poisson_bracket(F, G, max_deg=max_deg),
                       ref_batched_bracket(F, G, max_deg=max_deg))


def test_lie_brackets_bytes_match_batched_reference():
    # the two brackets of lie_transform(Lambda + P, G, max_order=2) at
    # M = 4: about 50 batches of _PAIR_CHUNK contractions each, and the
    # run merges between them
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft)
    G = solve_cohomological_quartic(P, ft, (1, 2, 3)).G
    H = build_Lambda(ft) + P
    first = poisson_bracket(H, G)
    assert contractions(H, G) > 10 * _PAIR_CHUNK
    assert_same_tables(first, ref_batched_bracket(H, G))
    assert_same_tables(poisson_bracket(first, G), ref_batched_bracket(first, G))


@pytest.mark.parametrize("M", range(1, 7))
@pytest.mark.parametrize("c", [2.0, 1e3])
def test_build_P_text_identical_to_reference(M, c):
    ft = FrequencyTable(c=c, M=M)
    assert build_P(ft).to_text() == ref_build_P(ft).to_text()
    assert build_P_nls(M).to_text() == ref_build_P_nls(M).to_text()


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_to_text_matches_slot_tuple_reference(M, seed):
    rng = np.random.default_rng(seed)
    # complex coefficients from F, real ones from P, and mixed degrees
    H = random_poly(rng, M, int(rng.integers(1, 40))) \
        + build_P(FrequencyTable(c=2.0, M=M))
    assert H.to_text() == ref_to_text(H)
    assert PolyHamiltonian().to_text() == ""


def test_to_text_coefficient_edge_cases_match_reference():
    # signed zeros in either part (-0.0 and 0.0 have different bytes and
    # text), integral values, the smallest subnormal, large magnitudes and
    # repeats, real and complex in one table; one zbar_j z_j row each
    coefs = [complex(-0.0, 2.0), complex(0.0, 2.0), complex(1.0, -0.0),
             complex(1.0, 0.0), -1.0, 1j, -1j, complex(-0.0, -1.0), 5e-324,
             complex(0.0, 5e-324), -5e-324, 1e16, 1e22, -1e22,
             complex(1e16, 1.0), complex(1e22, -0.0), 0.1, 0.1,
             complex(0.1, -0.0), complex(0.1, 0.1), complex(0.1, 0.1),
             complex(-0.0, 0.1), 2.0, 2.0]
    W = len(coefs) // 2
    zbar = 2 * np.arange(-W, len(coefs) - W)
    H = _from_rows({2: (np.column_stack([zbar, zbar + 1]),
                        np.array(coefs))})
    assert H._tab[2][1].tobytes() == np.array(coefs).tobytes()
    assert H.to_text() == ref_to_text(H)
    lines = H.to_text().splitlines()
    assert [ln.split(" ", 3)[3] for ln in lines[:4]] == [
        "-0+2j", "2j", "1.0", "1.0"]


def test_to_text_many_repeats_match_reference():
    # a few coefficients repeated over many rows in shuffled order, pairs
    # among them differing only in the sign of a zero part, over several
    # degrees; and the M=16 quartic P, 17,101 rows with 1,071 distinct
    # coefficients
    pool = [complex(-0.0, 2.0), complex(0.0, 2.0), complex(3.0, -0.0),
            complex(3.0, 0.0), complex(-0.0, -0.5), complex(0.0, -0.5),
            -3.0, 0.25, complex(0.25, 1e-300), 7j]
    rng = np.random.default_rng(12)
    H = random_poly(rng, 10, 600, degrees=(1, 2, 3, 4, 6))
    tables = {d: (rows, np.array(pool)[rng.integers(0, len(pool), len(c))])
              for d, (rows, c) in H._tab.items()}
    R = _from_rows(tables)
    assert all(len(np.unique(c.view("V16"))) > 1 for _, c in R._tab.values())
    assert R.to_text() == ref_to_text(R)
    P16 = build_P(FrequencyTable(c=10.0, M=16))
    assert P16.to_text() == ref_to_text(P16)


def test_terms_decode_every_degree_in_table_order():
    # a degree-0 term, odd and even degrees, repeated slots and |j| <= 12:
    # `restrict` pairs the flags it reads from `terms` with table rows
    rng = np.random.default_rng(5)
    H = PolyHamiltonian({(): 1.5, ((0, 1),): -2.0}) \
        + random_poly(rng, 12, 60, degrees=(1, 2, 3, 4, 6))
    assert H.degrees[0] == 0
    assert list(H.terms.items()) == ref_terms(H)

    def pred(m):
        return len(m) % 2 == 0 and (not m or m[0][1] > 0)

    assert dict(H.restrict(pred).terms) == dict(ref_restrict(H, pred).terms)
    assert list(PolyHamiltonian().terms.items()) == []


@pytest.mark.parametrize("M", range(13))
def test_quartic_rows_match_reference(M):
    # same rows in the same order, as int32
    got = _quartic_rows(M)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref_quartic_rows(M))


@given(st.integers(1, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_polynomial_algebra_matches_reference(M, seed):
    rng = np.random.default_rng(seed)
    F = random_poly(rng, M, int(rng.integers(1, 40)))
    G = random_poly(rng, int(rng.integers(1, M + 1)),
                    int(rng.integers(1, 40)))
    # every other term of F comes back negated in G and cancels in F + G
    G = PolyHamiltonian({**G.terms, **{m: -c for m, c in
                                       list(F.terms.items())[::2]}})
    a = float(rng.normal())
    tiny = F.scale(1e-16)   # moduli on both sides of the prune tolerance

    def pred(m):
        return len(m) != 4 or m[0][1] > 0

    cases = [(F + G, ref_add(F, G)),
             (F - G, ref_add(F, ref_scale(G, -1.0))),
             (F - F, PolyHamiltonian()),
             (F.scale(a), ref_scale(F, a)),
             (tiny.prune(), ref_prune(tiny)),
             (F.restrict(pred), ref_restrict(F, pred))]
    for got, want in cases:
        assert got._terms is None   # no slot-tuple dict until terms is read
        assert dict(got.terms) == dict(want.terms)
        lens = [len(m) for m in want.terms]
        assert got.degrees == ((min(lens), max(lens)) if lens else (0, 0))
        assert len(got) == len(want.terms)
        assert got.max_abs_coeff() == ref_max_abs_coeff(want)
    k = next(iter(F.terms))
    with pytest.raises(TypeError):
        F.terms[k] = 1.0
