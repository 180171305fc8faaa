"""Divisor enumeration, S8 localization, and resonant-set measures."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls import divisors
from kgnls.divisors import (ResonantQuery,
                            cantor_excision, center_pair_correction,
                            divisor, enumerate_ell, make_pair,
                            measure_estimate_mc, nongauge_scan,
                            s8_localization, sample_xi, wilson_interval)
from kgnls.frequencies import (Omega0, Omega0_remainder, build_model,
                               nls_model, omega0, omega0_remainder)

J3 = (1, 2, 3)


def small_model(c=10.0, M=20, R=1e-2):
    return build_model(c, J3, M, R)


def one_pair(model, pair):
    """The divisor table of one pair."""
    return divisors._Divisors.of(model, pair.k, [pair.ell_dict])


def brute_force_ells(k, J, M):
    """Independent enumeration: all ell with |ell|_1 <= 2 supported on the
    normal modes, momentum cancelling <k, J>."""
    m = sum(int(kv) * j for kv, j in zip(k, J))
    normal = [j for j in range(-M, M + 1) if j not in set(J)]
    out = []
    if m == 0 and any(k):
        out.append({})
    for a in normal:
        for v in (-2, -1, 1, 2):
            if a * v + m == 0:
                out.append({a: v})
    for a, b in itertools.combinations(normal, 2):
        for va, vb in itertools.product((-1, 1), repeat=2):
            if a * va + b * vb + m == 0:
                out.append({a: va, b: vb})
    return out


@pytest.mark.parametrize("k", [(0, 0, 0), (1, 0, 0), (1, -1, 0), (2, -1, -1)])
def test_enumerate_ell_matches_brute_force(k):
    M = 12
    got = enumerate_ell(np.array(k), J3, M)
    want = brute_force_ells(k, J3, M)
    key = lambda d: tuple(sorted(d.items()))  # noqa: E731
    assert sorted(map(key, got)) == sorted(map(key, want))


def enumeration_order(ell):
    """The documented pair order within one k: ell = 0, the single supports
    by value in (1, -1, 2, -2), then the double supports {a, b}, a < b, by
    a and by sign pair in (1,1), (1,-1), (-1,1), (-1,-1) order."""
    items = sorted(ell.items())
    if len(items) < 2:
        return (len(items), [0, 1, -1, 2, -2].index(sum(ell.values())))
    (a, sa), (_, sb) = items
    return (2, a, [(1, 1), (1, -1), (-1, 1), (-1, -1)].index((sa, sb)))


@pytest.mark.parametrize("J,M,kmax", [((1, 2, 3), 12, 3), ((1, 3, 5), 7, 3),
                                      ((1, 2, 3, 4), 6, 2),
                                      ((2, 5, 7), 8, 4)])
def test_pair_table_is_brute_force_in_enumeration_order(J, M, kmax):
    # argmin ties resolve to the first pair, so the order is part of the API
    ks = [k for k in itertools.product(range(-kmax, kmax + 1), repeat=len(J))
          if sum(map(abs, k)) <= kmax]
    want = [(k, list(ell.items())) for k in ks
            for ell in sorted(brute_force_ells(k, J, M),
                              key=enumeration_order)]
    model = build_model(10.0, J, M, 1e-2)
    with mock.patch.object(divisors, "_BLOCK", 4000):   # 125 pairs a block
        tables = list(divisors._tables(model, kmax))
    assert len(tables) > 1
    got = [(tuple(k.tolist()), list(ell.items()))
           for rows, kidx, at, val in tables
           for k, ell in zip(rows[kidx], divisors._ells(at, val))]
    assert got == want
    assert [tuple(k) for k in divisors._k_rows(len(J), kmax)] == ks
    assert [(k, list(ell.items())) for k in ks
            for ell in enumerate_ell(k, J, M)] == want


def test_enumerated_pairs_have_zero_momentum():
    for k in divisors._k_rows(3, 2):
        for ell in enumerate_ell(k, J3, 10):
            mom = sum(int(kv) * j for kv, j in zip(k, J3)) \
                + sum(a * v for a, v in ell.items())
            assert mom == 0


def test_pair_validation():
    with pytest.raises(ValueError):
        make_pair((0, 0, 0), {}, J3)            # trivial pair rejected
    with pytest.raises(ValueError):
        make_pair((1, 0, 0), {5: 2, 6: 1}, J3)  # |ell|_1 > 2
    p = make_pair((1, -1, 0), {-1: -1}, J3)
    assert p.k_l1 == 2 and p.ell_l1 == 1 and p.gauge_sum == -1


def test_ell_support_must_lie_in_the_normal_modes():
    model = small_model(M=8)
    for a in (1, 3, 9, -9, 40, -40):   # in J, or outside -M..M
        with pytest.raises(ValueError, match="normal modes"):
            one_pair(model, make_pair((1, 0, 0), {a: 1}, J3))
    for a in (8, -8, 0, -1):
        assert one_pair(model, make_pair((1, 0, 0), {a: 1}, J3)).w[0] \
            == model.w_Jc[list(model.normal_modes).index(a)]


def test_s8_localization_centres_on_c_x_L():
    c = 4.0
    p = make_pair((-3, 0, 0), {-5: 1, 7: 1}, J3)   # L = -1
    loc = s8_localization(p, c)
    assert loc["x_L"] == math.sqrt(0.5 * 2.5)
    assert loc["center"] == c * loc["x_L"]
    assert loc["offsets"] == {-5: abs(loc["center"] - 5),
                              7: abs(loc["center"] - 7)}


def test_divisor_affine_in_xi():
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    rng = np.random.default_rng(0)
    x0 = model.xi_lo.copy()
    d0 = divisor(model, x0, pair)
    # finite differences recover the gradient implied by two evaluations
    for i in range(model.N):
        x1 = x0.copy()
        step = (model.xi_hi[i] - model.xi_lo[i])
        x1[i] += step
        g = (divisor(model, x1, pair) - d0) / step
        x2 = x0.copy()
        x2[i] += 0.5 * step
        mid = divisor(model, x2, pair)
        assert abs(mid - (d0 + 0.5 * step * g)) < 1e-9 * max(1.0, abs(d0))


def test_divisor_parts_decomposition():
    # a divisor is its gauge part L c^2, the Schrodinger frequencies and
    # the O(h) remainders, each paired with (k, ell)
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    xi = 0.5 * (model.xi_lo + model.xi_hi)
    idx = {int(j): n for n, j in enumerate(model.normal_modes)}

    def paired(om, Om):
        return (float(np.dot(pair.k, om))
                + sum(v * Om[idx[j]] for j, v in pair.ell_dict.items()))

    parts = [pair.gauge_sum * model.c ** 2,
             paired(omega0(nls_model(model), xi),
                    Omega0(nls_model(model), xi)),
             paired(omega0_remainder(model, xi),
                    Omega0_remainder(model, xi))]
    assert abs(math.fsum(parts) - divisor(model, xi, pair)) < 1e-9


def test_threshold_weight_convention():
    model = small_model()
    q = ResonantQuery(alpha=1e-3, tau=2.0, theta=0.5)
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    kb = math.sqrt(1.0 + pair.k_l1 ** 2)
    w = model.w_Jc[list(model.normal_modes).index(-1)]
    assert one_pair(model, pair).w[0] == w
    expect = 1e-3 / (kb ** 2 * w ** 0.5)
    assert abs(one_pair(model, pair).threshold(q)[0] - expect) < 1e-15
    # w(0) = 1: ell = 0 leaves the threshold alpha / <k>^tau
    div = divisors._Divisors.of(model, pair.k, [{}])
    assert div.w[0] == 1.0
    assert abs(div.threshold(q)[0] - 1e-3 / kb ** 2) < 1e-15


def test_wilson_interval_brackets_fraction():
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi
    assert wilson_interval(0, 100)[0] <= 1e-12
    assert wilson_interval(100, 100)[1] <= 1.0


def test_wilson_interval_is_the_95_percent_interval():
    # 50 of 100: the tabulated 95% Wilson interval (0.40383, 0.59617)
    lo, hi = wilson_interval(50, 100)
    assert abs(lo - 0.40383) < 1e-5 and abs(hi - 0.59617) < 1e-5


def test_center_correction_zeroes_divisor():
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    centered = center_pair_correction(model, pair)
    xi_c = 0.5 * (model.xi_lo + model.xi_hi)
    assert abs(divisor(centered, xi_c, pair)) < 1e-9
    assert model.delta is None                    # original untouched
    # a constant shift of omega only: Omega is the uncorrected map
    assert np.array_equal(omega0(centered, xi_c),
                          omega0(model, xi_c) + centered.delta)
    assert np.array_equal(Omega0(centered, xi_c), Omega0(model, xi_c))


def test_center_correction_composes_with_the_models_delta():
    # a second correction, on the same pair or on another, keeps the
    # first one's delta and zeroes its own pair's divisor
    model = small_model()
    first = make_pair((1, -1, 0), {-1: -1}, J3)
    xi_c = 0.5 * (model.xi_lo + model.xi_hi)
    for pair in (first, make_pair((1, -1, 0), {5: 1, -5: -1}, J3)):
        twice = center_pair_correction(center_pair_correction(model, first),
                                       pair)
        assert abs(divisor(twice, xi_c, pair)) < 1e-9


def test_mc_fraction_monotone_in_alpha():
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    centered = center_pair_correction(model, pair)
    fracs = []
    for alpha in (1e-7, 3e-7, 1e-6):
        q = ResonantQuery(alpha=alpha, tau=2.0, samples=2000, seed=3)
        res = measure_estimate_mc(centered, pair.k, q,
                                  ells=[pair.ell_dict])
        assert res.ci_lo <= res.fraction <= res.ci_hi
        fracs.append(res.fraction)
    assert fracs == sorted(fracs)
    assert fracs[-1] > 0


def test_mc_grid_agreement():
    # the MC fraction agrees with a tensor-grid quadrature of the same set
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    centered = center_pair_correction(model, pair)
    q = ResonantQuery(alpha=1e-6, tau=2.0, samples=4000, seed=5)
    mc = measure_estimate_mc(centered, pair.k, q, ells=[pair.ell_dict])
    axes = [np.linspace(centered.xi_lo[i], centered.xi_hi[i], 16)
            for i in range(3)]
    pts = np.array(list(itertools.product(*axes)))
    div = one_pair(centered, pair)
    grid = np.mean(divisors._hits(div, div.floor(), pts,
                                   div.threshold(q)))
    assert abs(mc.fraction - grid) < 0.02


def test_mc_reproducible():
    model = small_model()
    q = ResonantQuery(alpha=1e-6, tau=2.0, samples=1000, seed=11)
    a = measure_estimate_mc(model, (1, -1, 0), q)
    b = measure_estimate_mc(model, (1, -1, 0), q)
    assert a.fraction == b.fraction and a.hits == b.hits


def test_nongauge_scan_positive_floor():
    for c in (25.0, 100.0):
        rep = nongauge_scan(build_model(c, J3, 20, 1e-2), kappa=0.5)
        assert rep["min_over_c2"] > 0.5


@pytest.mark.parametrize("c,kappa,kmax", [(4.0, 0.3, 1), (25.0, 0.5, 2),
                                          (25.0, 0.8, 4)])
def test_nongauge_scan_kmax_is_kappa_sqrt_c_at_least_one(c, kappa, kmax):
    # |k|_1 <= kappa sqrt(c), rounded down, and never below 1
    rep = nongauge_scan(build_model(c, J3, 8, 1e-2), kappa=kappa)
    assert rep["kmax"] == kmax and rep["pairs"] > 0


def test_k0_floor_positive():
    # the k = 0 divisors, sums of normal frequencies over every ell in
    # Z_M, stay above a positive floor over the box
    model = small_model()
    ells = enumerate_ell(np.zeros(3, dtype=int), J3, model.M)
    floor = min(abs(divisor(model, x, make_pair((0, 0, 0), ell, J3)))
                for ell in ells for x in sample_xi(model, 16, 0))
    assert ells and floor > 0


def test_cantor_excision_monotone_in_alpha():
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    centered = center_pair_correction(model, pair)
    prev = -1.0
    for alpha in (1e-7, 1e-6):
        q = ResonantQuery(alpha=alpha, tau=2.0, samples=2000, seed=9)
        rep = cantor_excision(centered, q, K_cut=0, kmax=2)
        assert 0.0 <= rep["excised_fraction"] <= 1.0
        assert rep["excised_fraction"] >= prev
        prev = rep["excised_fraction"]
    assert prev > 0


@given(st.integers(0, 10 ** 6), st.floats(1e-8, 1e-5))
@settings(max_examples=10, deadline=None)
def test_resonant_set_nesting(seed, alpha):
    # R(alpha) subset of R(2 alpha) pointwise
    model = small_model()
    pair = make_pair((1, -1, 0), {-1: -1}, J3)
    centered = center_pair_correction(model, pair)
    xi = sample_xi(centered, 50, seed)
    div = one_pair(centered, pair)
    h1, h2 = (divisors._hits(div, div.floor(), xi,
                             div.threshold(ResonantQuery(alpha=a, tau=2.0)))
              for a in (alpha, 2 * alpha))
    assert not np.any(h1 & ~h2)
