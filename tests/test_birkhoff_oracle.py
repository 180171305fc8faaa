"""The quartic classifier of `kgnls.birkhoff` against per-monomial references.

The references below are the loops the array classifier replaced: a
monomial is resonant when some permutation of its four slots splits them
into two conjugate pairs, its divisor is the split form
(sum sigma) c^2 + fsum(sigma nu_j) (or fsum(sigma j^2 / 2) for the
parabolic frequencies), and the solve, the residual and the remainder
split walk `P.terms` one monomial at a time.  The divisor-bound scan is
the meshgrid over (j1, j2, j3) x 16 sign patterns with its three-pairings
mask.  They share with the classifier only the public `PolyHamiltonian`
dict constructor and `terms` view, and `FrequencyTable`.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from kgnls.birkhoff import (DivisorAnomaly, NormalFormResult, _fsum_rows,
                            _residual, _scan_min_divisors, _solve, _touches,
                            remainder_split,
                            solve_cohomological_nls,
                            solve_cohomological_quartic)
from kgnls.hamiltonian import (PolyHamiltonian, _decode, _paired,
                               _quartic_rows, build_P, build_P_nls,
                               gauge_sum)
from kgnls.spectral_core import FrequencyTable


# --- references ------------------------------------------------------------

def _has_pairing(jv, sv):
    """True iff some permutation splits the four slots into two pairs with
    equal index and opposite sign."""
    for a, b, c, d in permutations(range(4)):
        if (jv[a] == jv[b] and sv[a] == -sv[b]
                and jv[c] == jv[d] and sv[c] == -sv[d]):
            return True
    return False


def _divisor_split(m, freq):
    """sigma . lambda via the split lambda_j = c^2 + nu_j, summed exactly."""
    return gauge_sum(m) * freq.c ** 2 \
        + math.fsum(s * freq.nu[j + freq.M] for j, s in m)


def _divisor_nls(m):
    return math.fsum(0.5 * s * j * j for j, s in m)


def ref_solve(P, div_of, J, nongauge_floor):
    Jset = set(J)
    g_terms, lp_terms, ph_terms = {}, {}, {}
    gauge_divs, work = [], []
    for m, c in P.terms.items():
        jv = tuple(j for j, _ in m)
        sv = tuple(s for _, s in m)
        if not any(j in Jset for j in jv):
            ph_terms[m] = c
        elif _has_pairing(jv, sv):
            lp_terms[m] = c
        else:
            d = div_of(m)
            work.append((m, c, d))
            if gauge_sum(m) == 0:
                gauge_divs.append(abs(d))
    kmin = min(gauge_divs) if gauge_divs else float("inf")
    if gauge_divs and kmin == 0.0:
        raise DivisorAnomaly("exact zero gauge-invariant divisor")
    gauge_floor = 1e-8 * kmin if gauge_divs else 0.0
    for m, c, d in work:
        if gauge_sum(m) == 0:
            if abs(d) < gauge_floor:
                raise DivisorAnomaly(f"gauge divisor {d:.3e} at {m}")
        elif nongauge_floor is not None and abs(d) < nongauge_floor:
            raise DivisorAnomaly(f"non-gauge divisor {d:.3e} at {m}")
        g_terms[m] = 1j * c / d
    return (PolyHamiltonian(g_terms),
            PolyHamiltonian(lp_terms),
            PolyHamiltonian(ph_terms), kmin)


def ref_residual(div_of, G, P, Lp, Ph):
    resid = {}
    for H, sgn in ((P, 1.0), (Lp, -1.0), (Ph, -1.0)):
        for m, c in H.terms.items():
            resid[m] = resid.get(m, 0.0) + sgn * c
    for m, c in G.terms.items():
        resid[m] = resid.get(m, 0.0) + 1j * div_of(m) * c
    scale = P.max_abs_coeff() or 1.0
    return max((abs(v) for v in resid.values()), default=0.0) / scale


def ref_normal_form(P, freq, J, M):
    """freq=None is the NLS solve: its divisors come from `_divisor_nls`,
    and the c = inf table only labels the result."""
    div_of = (_divisor_nls if freq is None
              else lambda m: _divisor_split(m, freq))
    floor = None if freq is None else 1e-8 * freq.c ** 2
    G, Lp, Ph, kmin = ref_solve(P, div_of, J, floor)
    return NormalFormResult(G=G, Lambda_plus=Lp, P_hat=Ph, P=P,
                            J=tuple(sorted(J)),
                            freq=freq or FrequencyTable(c=math.inf, M=M),
                            residual=ref_residual(div_of, G, P, Lp, Ph),
                            gauge_divisor_min=kmin)


def ref_remainder_terms(nf, nf_nls):
    P_gauge = nf.P.restrict(lambda m: gauge_sum(m) == 0)
    P_r = P_gauge - nf_nls.P
    r1, div = {}, {}
    for m in nf_nls.G.terms:
        d_kg = _divisor_split(m, nf.freq)
        d_nls = float(sum(s * 0.5 * j * j for j, s in m))
        c_r = P_r.terms.get(m, 0.0)
        if c_r:
            r1[m] = 1j * c_r / d_kg
        c_n = nf_nls.P.terms.get(m, 0.0)
        if c_n:
            div[m] = 1j * c_n * (1.0 / d_kg - 1.0 / d_nls)
    return (PolyHamiltonian(r1),
            PolyHamiltonian(div))


_SIGMA_COMBOS = [(s1, s2, s3, s4) for s1 in (1, -1) for s2 in (1, -1)
                 for s3 in (1, -1) for s4 in (1, -1)]


def ref_scan_min_divisors(J, c, Mmax):
    js = np.arange(-Mmax, Mmax + 1)
    nu = FrequencyTable(c=c, M=Mmax).nu
    j1, j2, j3 = (x.ravel()
                  for x in np.meshgrid(js, js, js, indexing="ij"))
    Jarr = np.array(sorted(J))
    gauge_min = nongauge_min = np.inf
    for s1, s2, s3, s4 in _SIGMA_COMBOS:
        j4 = -s4 * (s1 * j1 + s2 * j2 + s3 * j3)
        ok = np.abs(j4) <= Mmax
        a, b, cc, d = j1[ok], j2[ok], j3[ok], j4[ok]
        touches = (np.isin(a, Jarr) | np.isin(b, Jarr)
                   | np.isin(cc, Jarr) | np.isin(d, Jarr))
        a, b, cc, d = a[touches], b[touches], cc[touches], d[touches]
        ir = np.zeros(a.shape, dtype=bool)
        slots = [(a, s1), (b, s2), (cc, s3), (d, s4)]
        for (x, y), (u, v) in (((0, 1), (2, 3)), ((0, 2), (1, 3)),
                               ((0, 3), (1, 2))):
            if slots[x][1] == -slots[y][1] and slots[u][1] == -slots[v][1]:
                ir |= ((slots[x][0] == slots[y][0])
                       & (slots[u][0] == slots[v][0]))
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


# --- tests -----------------------------------------------------------------

JS = [(1, 2, 3), (0, 2), (-3, 1, 4), (-2,)]


def assert_same_normal_form(got, ref):
    assert got.G.to_text() == ref.G.to_text()
    assert got.Lambda_plus.to_text() == ref.Lambda_plus.to_text()
    assert got.P_hat.to_text() == ref.P_hat.to_text()
    assert got.residual == ref.residual
    assert got.gauge_divisor_min == ref.gauge_divisor_min
    assert got.to_text() == ref.to_text()


@pytest.mark.parametrize("c", [10.0, 1e3])
def test_residual_sees_a_wrong_split(c):
    # one Lambda_plus coefficient off, or one P_hat row missing: the
    # residual sums over the rows of all four tables, not only G's
    ft = FrequencyTable(c=c, M=6)
    P = build_P(ft)
    G, Lp, Ph, _, d = _solve(P, ft, (1, 2, 3), 1e-8 * ft.rest)

    def div_of(m):
        return _divisor_split(m, ft)

    m = next(iter(Lp.terms))
    wrong_Lp = PolyHamiltonian({**Lp.terms, m: Lp.terms[m] * (1 + 1e-6)})
    m = list(Ph.terms)[len(Ph) // 2]
    wrong_Ph = Ph.restrict(lambda k: k != m)
    assert len(wrong_Ph) == len(Ph) - 1
    for lp, ph in ((wrong_Lp, Ph), (Lp, wrong_Ph)):
        assert _residual(G, d, P, lp, ph) == ref_residual(div_of, G, P, lp,
                                                          ph) > 0
    assert _residual(G, d, P, Lp, Ph) == ref_residual(div_of, G, P, Lp, Ph)
    # nothing to solve: no rows in any table
    empty = solve_cohomological_quartic(PolyHamiltonian(), ft, (1,))
    assert (empty.residual, len(empty.G)) == (0.0, 0)


@pytest.mark.parametrize("M", range(13))
def test_pairing_and_touches_masks_match_their_sort_and_isin_forms(M):
    # the compare patterns and the lookup table against the per-row sort
    # and np.isin they replaced, on every quartic row and random J
    rows = _quartic_rows(M)
    assert np.array_equal(_paired(rows),
                          np.all(np.sort(rows ^ 1, axis=1) == rows, axis=1))
    rng = np.random.default_rng(M)
    for size in (0, 1, 2, 3, 5):
        for _ in range(4):
            J = rng.choice(np.arange(-M - 2, M + 3), size=size,
                           replace=False).tolist()
            assert np.array_equal(_touches(rows, J),
                                  np.isin(rows >> 1, J).any(axis=1))


def test_pairing_mask_matches_permutation_search():
    rows = _quartic_rows(6)
    j, s = _decode(rows)
    ref = [_has_pairing(jv, sv) for jv, sv in zip(j.tolist(), s.tolist())]
    assert _paired(rows).tolist() == ref
    assert 0 < sum(ref) < len(ref)


@pytest.mark.parametrize("J", JS)
@pytest.mark.parametrize("c,M", [(2.0, 4), (10.0, 6), (1e3, 6), (1e4, 8),
                                 (2.0, 8)])
def test_quartic_solve_matches_reference(c, M, J):
    ft = FrequencyTable(c=c, M=M)
    P = build_P(ft)
    assert_same_normal_form(solve_cohomological_quartic(P, ft, J),
                            ref_normal_form(P, ft, J, M))


@pytest.mark.parametrize("J", JS)
@pytest.mark.parametrize("M", [4, 6, 8])
def test_nls_solve_matches_reference(M, J):
    P = build_P_nls(M)
    assert_same_normal_form(solve_cohomological_nls(P, J, M),
                            ref_normal_form(P, None, J, M))


@pytest.mark.parametrize("J", [(1, 2, 3), (-3, 0, 2)])
@pytest.mark.parametrize("c", [10.0, 1e3])
def test_remainder_split_matches_reference(c, J):
    M = 6
    ft = FrequencyTable(c=c, M=M)
    nf = solve_cohomological_quartic(build_P(ft), ft, J)
    nf_nls = solve_cohomological_nls(build_P_nls(M), J, M)
    split = remainder_split(nf, nf_nls)
    r1, div = ref_remainder_terms(nf, nf_nls)
    assert split.G_r1.to_text() == r1.to_text()
    assert split.G_div.to_text() == div.to_text()


@pytest.mark.parametrize("J,Mmax", [((1, 2, 3), 6), ((0, 2), 5),
                                    ((-4, 1), 7)])
@pytest.mark.parametrize("c", [3.0, 25.0, 400.0, 1e4])
def test_scan_matches_meshgrid_reference(J, Mmax, c):
    # the reference sums the split form left to right, the scan with fsum,
    # so the minima may differ in the last bits
    (gauge, nongauge), = _scan_min_divisors(J, [c], Mmax)
    ref_gauge, ref_nongauge = ref_scan_min_divisors(J, c, Mmax)
    assert abs(gauge - ref_gauge) <= 1e-14 * ref_gauge
    assert abs(nongauge - ref_nongauge) <= 1e-14 * ref_nongauge


def _fsum_spy(monkeypatch):
    """Count the rows `_fsum_rows` hands to math.fsum."""
    seen = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda r: seen.append(r) or fsum(r))
    return seen


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64),
                          np.asarray(b).view(np.int64))


@pytest.mark.parametrize("M", [8, 12, 16])
def test_certified_row_sums_are_fsum_on_every_quartic_row(M, monkeypatch):
    # every quartic row, paired ones included: only the zero sums (the
    # signs of zero are fsum's) leave the vectorised path
    j, s = _decode(_quartic_rows(M))
    for c in (2.0, 10.0, 1e3, 1e6, math.inf):
        x = s * FrequencyTable(c=c, M=M).nu[j + M]
        want = np.array([math.fsum(r) for r in x.tolist()])
        with monkeypatch.context() as mp:
            seen = _fsum_spy(mp)
            got = _fsum_rows(x)
        assert same_bits(got, want)
        assert len(seen) == np.count_nonzero(want == 0)


def test_certified_row_sums_are_fsum_on_adversarial_rows(monkeypatch):
    u = 2.0 ** -53
    rows = [
        [1.0, -1.0, 1e-300, -1e-300],          # exact cancellation
        [3.0, -1.0, -2.0, 0.0],
        [1e16, 1.0, -1e16, 0.0],               # the small part survives
        [-0.0, -0.0, -0.0, -0.0],              # signed zeros
        [-0.0, 0.0, -0.0, -0.0],
        [0.0, -0.0, 1.0, -1.0],
        [1.0, u, 0.0, 0.0],                    # half-ulp ties: to even
        [1.0 + 2 * u, u, 0.0, 0.0],
        [1.0, u, u * u, 0.0],                  # just above and below a tie
        [1.0, u, -u * u, 0.0],
        [2.0, -u, 0.0, 0.0],                   # ties across a binade
        [2.0, -u, -u * u, 0.0],
        [2.0, -u, u * u, 0.0],
        [1.5, u, u ** 3, 0.0],                 # a tie the second-order
        [1.5, u, -u ** 3, 0.0],                # error decides
        [1.5, u / 2, u ** 3, 0.0],
        [0.5, 0.25, 0.25, u],
        [1e300, 1e-300, -1e300, 1e-300],       # mixed magnitudes
        [1e300, 1.0, 1e-300, -1e300],
        [1e-300, 1e300, -1e-300, 1.0],
        [-1e300, 1e-300, 1e300, -3e-300],
        [5e-324, 5e-324, -5e-324, 0.0],        # subnormal
        [1.7e308, -1.7e308, 1e308, 0.5],       # near overflow, finite
        [math.inf, 1.0, 0.0, 0.0],             # non-finite
        [math.nan, 1.0, 2.0, 3.0],
        [0.1, 0.2, 0.3, -0.6],
        [0.1, 0.7, -0.3, 1e-17],
    ]
    x = np.array(rows)
    want = np.array([math.fsum(r) for r in rows])
    seen = _fsum_spy(monkeypatch)
    got = _fsum_rows(x)
    assert same_bits(got, want)
    assert 0 < len(seen) < len(rows)
    # the second-order error sends a tie to fsum, and passes the test in
    # the row without one
    assert [1.5, u, u ** 3, 0.0] in seen
    assert [1.5, u / 2, u ** 3, 0.0] not in seen
    # an intermediate overflow raises as fsum raises
    with pytest.raises(OverflowError):
        _fsum_rows(np.array([[1.7e308, 1.7e308, -1.7e308, 0.0]]))


def test_non_quartic_polynomial_is_rejected():
    ft = FrequencyTable(c=10.0, M=4)
    # a degree-6 monomial whose first four slots form a resonant pairing
    P = build_P(ft) + PolyHamiltonian(
        {((1, -1), (1, 1), (2, -1), (2, 1), (3, -1), (3, 1)): 1.0})
    with pytest.raises(ValueError, match="quartic"):
        _solve(P, ft, (1,), nongauge_floor=0.0)
