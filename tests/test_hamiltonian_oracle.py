"""Array kernels of `kgnls.hamiltonian` against dict-loop references.

The references below are the per-monomial loop implementations the array
kernels and the array algebra replaced.  They share no code with them
beyond the dict constructor `PolyHamiltonian({slots: coeff})` and the
read-only `terms` view.
"""

import math
from collections import defaultdict
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls.birkhoff import solve_cohomological_quartic
from kgnls.hamiltonian import (PolyHamiltonian, _quartic_rows, build_P,
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


def ref_build_P(freq, M=None):
    M = freq.M if M is None else M
    terms = {}
    base = 1.0 / (16.0 * TWO_PI)
    for combo, mult in ref_quartic_multisets(M):
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


@pytest.mark.parametrize("M", range(13))
def test_quartic_rows_match_reference(M):
    # same rows in the same order, as int32
    got = _quartic_rows(M)
    assert got.dtype == np.int32
    assert np.array_equal(got, ref_quartic_rows(M))


def test_build_P_truncated_below_table():
    ft = FrequencyTable(c=3.0, M=6)
    assert build_P(ft, 3).to_text() == ref_build_P(ft, 3).to_text()


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
