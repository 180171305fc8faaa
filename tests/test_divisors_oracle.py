"""The batched divisor kernel of `kgnls.divisors` against scalar references.

The references below are the per-pair, per-sample loops the kernel
replaced: a divisor is <omega0(xi), k> + <Omega0(xi), ell> summed with
fsum from the frequency maps of `kgnls.frequencies` (the Schrodinger maps
j^2/2 + N xi are written out here), one point and one pair at a time, and
the scans loop over the k rows x `enumerate_ell`; the S8 test is checked
against a scalar per-pair classifier of every S-class.  They share
with the kernel only the model and the enumeration.  `ref_by_k` and
`ref_table_threshold` are the kernel's former per-k-row loops, which its
products with k and its thresholds must match bit for bit.
`exhaustive_nongauge` is the non-gauge scan without its charge bound: every
counted pair of `_tables`, classified and evaluated block by block, which
the scan's report must equal.
"""

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls import divisors
from kgnls.divisors import (ResonantQuery, _k_rows,
                            cantor_excision, center_pair_correction,
                            divisor, enumerate_ell, make_pair,
                            measure_estimate_mc, nongauge_scan,
                            s8_localization, sample_xi)
from kgnls.frequencies import Omega0, build_model, nls_model, omega0

J3 = (1, 2, 3)


# --- references ------------------------------------------------------------

def ref_freqs(model, x, nls=False):
    """(omega, Omega) at one point, delta included; nls gives the
    Schrodinger maps j^2/2 + N xi, N_ij = 3/(8 pi) (2 - delta_ij), with no
    delta, written out here."""
    if nls:
        n = 3.0 / (8.0 * math.pi)
        J = np.array(model.J, dtype=float)
        modes = model.normal_modes.astype(float)
        A = n * (2.0 - np.eye(model.N))
        B = np.full((len(modes), model.N), 2.0 * n)
        return 0.5 * J * J + A @ x, 0.5 * modes ** 2 + B @ x
    return omega0(model, x), Omega0(model, x)


def family(model, nls):
    """The model whose divisors are the given family's."""
    return nls_model(model) if nls else model


def ref_index(model):
    return {int(j): i for i, j in enumerate(model.normal_modes)}


def ref_value(om, Om, pair, idx):
    return (math.fsum(kj * oj for kj, oj in zip(pair.k, om))
            + math.fsum(v * Om[idx[a]] for a, v in pair.ell))


def ref_divisor(model, x, pair, nls=False):
    return ref_value(*ref_freqs(model, x, nls), pair, ref_index(model))


def ref_threshold(model, query, pair):
    idx = ref_index(model)
    w = min((float(model.w_Jc[idx[a]]) for a, _ in pair.ell), default=1.0)
    kb = math.sqrt(1.0 + pair.k_l1 ** 2)
    return query.alpha / (kb ** query.tau * w ** query.theta)


def ref_by_k(X, ks):
    """X @ k, one product per k row."""
    return np.array([X @ k for k in ks])


def ref_table_threshold(div, query):
    """The thresholds of a kernel table with the weight <|k|_1>^tau taken
    per k row."""
    kb = [math.sqrt(1.0 + k1 * k1) ** query.tau
          for k1 in np.abs(div.ks).sum(axis=1).tolist()]
    return query.alpha / (np.array(kb)[div.kidx] * div.w ** query.theta)


def ref_union(model, xi, pairs, query, families=(False,)):
    """Per point: whether any pair of any family is resonant there."""
    thr = [ref_threshold(model, query, p) for p in pairs]
    idx = ref_index(model)
    hit = np.zeros(len(xi), dtype=bool)
    for n, x in enumerate(xi):
        for nls in families:
            om, Om = ref_freqs(model, x, nls)
            if any(abs(ref_value(om, Om, p, idx)) < t
                   for p, t in zip(pairs, thr)):
                hit[n] = True
                break
    return hit


def ref_classify_pair(pair, c):
    """S-class tag of one momentum-zero pair with ell != 0."""
    supp = [a for a, _ in pair.ell]
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


def ref_pairs(model, k, ells):
    return [make_pair(k, ell, model.J) for ell in ells
            if any(k) or any(ell.values())]


def ref_scan_pairs(model, kmax):
    """The non-gauge pairs of the scan in enumeration order, each with its
    min |divisor| / c^2 over the box corners; kept per (c, J, M, R, kmax),
    so a model without delta is scanned once per test run."""
    assert model.delta is None
    return _ref_scan_pairs(model.c, model.J, model.M, model.R, kmax)


@functools.cache
def _ref_scan_pairs(c, J, M, R, kmax):
    model = build_model(c, J, M, R)
    corners = model.xi_corners()
    out = []
    for k in _k_rows(model.N, kmax):
        for ell in enumerate_ell(k, model.J, model.M):
            if any(abs(a) > c / 2 for a in ell):
                continue
            if int(np.sum(k)) + sum(ell.values()) == 0:
                continue
            pair = make_pair(k, ell, model.J)
            out.append((pair, min(abs(ref_divisor(model, x, pair))
                                  for x in corners) / c**2))
    return tuple(out)


def ref_nongauge(model, kmax):
    c = model.c
    best, arg, n_pairs = math.inf, None, 0
    s8_rows = []
    for pair, m in ref_scan_pairs(model, kmax):
        n_pairs += 1
        if m < best:
            best, arg = m, {"k": list(pair.k), "ell": dict(pair.ell)}
        if pair.ell and ref_classify_pair(pair, c) == "S8":
            loc = s8_localization(pair, c)
            s8_rows.append({"k": list(pair.k), "ell": dict(pair.ell),
                            "center": loc["center"],
                            "offsets": {str(a): v for a, v
                                        in loc["offsets"].items()},
                            "min_over_c2": m})
    return n_pairs, best, arg, s8_rows


def table_pair(div, i):
    """The (k, ell) of pair i of a kernel table."""
    return make_pair(div.ks[div.kidx[i]],
                     divisors._ells(div.at[i:i + 1], div.val[i:i + 1])[0],
                     div.model.J)


def scan_kmax(c, kappa):
    return max(1, int(kappa * math.sqrt(c)))


def exhaustive_tables(model, kappa):
    """Per block of `_tables`: the kernel table of the scan's counted pairs
    (L != 0, supp(ell) within [-c/2, c/2]), their min |divisor| / c^2 at
    the box corners and their S8 flags from `_s8`, with no bound."""
    c = model.c
    for ks, kidx, at, val in divisors._tables(model, scan_kmax(c, kappa)):
        ksum = ks.sum(axis=1)[kidx]
        keep = (ksum + val.sum(axis=1) != 0) \
            & (np.abs(at) <= c / 2).all(axis=1)
        s8 = divisors._s8(ksum, at, val)[keep]
        div = divisors._Divisors(model, ks, kidx[keep], at[keep], val[keep])
        yield div, np.abs(div(model.xi_corners())).min(axis=0) / c**2, s8


def exhaustive_nongauge(model, kappa):
    """`nongauge_scan`'s report from every counted pair: the minima and
    their first pairs in enumeration order over `exhaustive_tables`."""
    c = model.c
    best = s8_best = math.inf
    arg = s8_pair = None
    n_pairs = s8_count = 0
    for div, mins, s8 in exhaustive_tables(model, kappa):
        n_pairs, s8_count = n_pairs + len(mins), s8_count + int(s8.sum())
        if len(mins) and mins.min() < best:
            i = int(np.argmin(mins))
            best, pair = float(mins[i]), table_pair(div, i)
            arg = {"k": list(pair.k), "ell": dict(pair.ell)}
        if s8.any() and mins[s8].min() < s8_best:
            i = int(np.flatnonzero(s8)[np.argmin(mins[s8])])
            s8_best, s8_pair = float(mins[i]), table_pair(div, i)
    if n_pairs and best <= 0:
        raise ArithmeticError("non-gauge divisor minimum is not positive")
    row = None
    if s8_pair is not None:
        loc = s8_localization(s8_pair, c)
        row = {"k": list(s8_pair.k), "ell": dict(s8_pair.ell),
               "center": loc["center"], "min_over_c2": s8_best,
               "offsets": {str(a): v for a, v in loc["offsets"].items()}}
    return {"c": c, "kmax": scan_kmax(c, kappa), "kappa": kappa,
            "pairs": n_pairs, "min_over_c2": best if n_pairs else None,
            "argmin": arg, "s8_count": s8_count, "s8_argmin": row}


def scan_or_error(scan, model, kappa):
    try:
        return scan(model, kappa)
    except ArithmeticError as err:
        return str(err)


# --- strategies ------------------------------------------------------------

def shift(draw, model, scale):
    """A random constant delta of size ~scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return scale * rng.standard_normal(model.N)


@st.composite
def corrected_models(draw):
    """A model whose (1,-1,0), {-1:-1} divisor vanishes near the box centre,
    with a random constant delta of size ~2e-6 on top."""
    c = draw(st.sampled_from([3.0, 10.0, 40.0]))
    M = draw(st.integers(4, 9))
    model = center_pair_correction(build_model(c, J3, M, 1e-2),
                                   make_pair((1, -1, 0), {-1: -1}, J3))
    return replace(model, delta=model.delta + shift(draw, model, 2e-6))


# --- tests -----------------------------------------------------------------

@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_divisor_matches_scalar_reference(data):
    c = data.draw(st.sampled_from([2.0, 10.0, 100.0, 1e3]))
    M = data.draw(st.integers(3, 12))
    model = build_model(c, J3, M, 1e-2)
    model = replace(model, delta=shift(data.draw, model, 1e-3 * c * c))
    ks = [k for k in _k_rows(3, 3) if enumerate_ell(k, J3, M)]
    k = ks[data.draw(st.integers(0, len(ks) - 1))]
    ells = enumerate_ell(k, J3, M)
    ell = ells[data.draw(st.integers(0, len(ells) - 1))]
    pair = make_pair(k, ell, J3)
    nls = data.draw(st.booleans())
    scale = 1e-12 * max(1.0, float(np.max(model.lam_Jc)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    for x in rng.uniform(model.xi_lo, model.xi_hi, size=(4, 3)):
        want = ref_divisor(model, x, pair, nls)
        assert abs(divisor(family(model, nls), x, pair) - want) <= scale


@given(corrected_models(), st.floats(1e-7, 1e-5), st.integers(0, 10 ** 6),
       st.booleans())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_measure_hits_match_per_sample_reference(model, alpha, seed, nls):
    k = (1, -1, 0)
    ells = enumerate_ell(np.array(k), J3, model.M)
    q = ResonantQuery(alpha=alpha, tau=2.0, theta=0.4, samples=300,
                      seed=seed)
    pairs = ref_pairs(model, k, ells)
    with mock.patch.object(divisors, "_BLOCK", 500):   # several blocks
        res = measure_estimate_mc(model, k, q, ells=ells, nls=nls)
    xi = sample_xi(model, q.samples, q.seed)
    assert res.hits == int(np.sum(ref_union(model, xi, pairs, q, (nls,))))


@given(corrected_models(), st.floats(1e-7, 1e-5), st.integers(0, 10 ** 6))
@settings(max_examples=5, deadline=None, derandomize=True)
def test_cantor_excision_matches_per_sample_union(model, alpha, seed):
    q = ResonantQuery(alpha=alpha, tau=2.0, samples=120, seed=seed)
    with mock.patch.object(divisors, "_BLOCK", 2000):  # 62 pairs a block
        rep = cantor_excision(model, q, K_cut=0, kmax=2)
        assert len(divisors._excision_tables(model, 0, 2)) > 1
    pairs = [p for k in _k_rows(3, 2) if any(k)
             for p in ref_pairs(model, k, enumerate_ell(k, J3, model.M))]
    assert rep["sets"] == len(pairs)
    xi = sample_xi(model, q.samples, q.seed)
    want = ref_union(model, xi, pairs, q, (False, True))
    assert rep["excised_fraction"] == np.mean(want)
    # spot-check the union against the public one-pair divisor
    for x, h in list(zip(xi, want))[:3]:
        assert h == any(abs(divisor(family(model, nls), x, p))
                        < ref_threshold(model, q, p)
                        for p in pairs for nls in (False, True))


@given(corrected_models(), st.floats(1e-7, 1e-5), st.floats(0.0, 0.9),
       st.integers(0, 10 ** 6))
@settings(max_examples=10, deadline=None, derandomize=True)
def test_pruned_pairs_stay_above_threshold_in_the_box(model, alpha, theta,
                                                      seed):
    # the floor must hold at every point of the box, for both families
    q = ResonantQuery(alpha=alpha, tau=2.0, theta=theta)
    xi = np.concatenate([model.xi_corners(), sample_xi(model, 200, seed)])
    idx = ref_index(model)
    n_dropped = 0
    for nls in (False, True):
        om, Om = (np.array(f) for f in zip(*(ref_freqs(model, x, nls)
                                             for x in xi)))
        for ks, kidx, at, val in divisors._tables(model, 2, 1):
            div = divisors._Divisors(family(model, nls), ks, kidx, at, val)
            floor = div.floor()
            # both families take the thresholds of the full model
            dropped = floor > divisors._Divisors(
                model, ks, kidx, at, val).threshold(q)
            n_dropped += int(dropped.sum())
            for k, ell, fl, drop in zip(ks[kidx], divisors._ells(at, val),
                                        floor, dropped):
                d = np.abs(om @ k + sum(v * Om[:, idx[a]]
                                        for a, v in ell.items()))
                assert np.all(d >= fl)
                if drop:
                    thr = ref_threshold(model, q, make_pair(k, ell, J3))
                    assert np.all(d >= thr)
    assert n_dropped > 0


@pytest.mark.parametrize("theta", [0.0, 5.0 / 12.0])
def test_cantor_excision_evaluates_only_pairs_that_can_hit(theta):
    # the criterion-06 shape: of the 3,232 (pair, family) divisors only the
    # centred pair and its negative come within their threshold in the box
    model = center_pair_correction(build_model(10.0, J3, 20, 1e-2),
                                   make_pair((1, -1, 0), {-1: -1}, J3))
    q = ResonantQuery(alpha=1e-6, tau=2.0, theta=theta, samples=200, seed=1)
    seen = []
    call = divisors._Divisors.__call__

    def spy(div, xi):
        seen.append(div)
        return call(div, xi)

    with mock.patch.object(divisors._Divisors, "__call__", spy):
        rep = cantor_excision(model, q, K_cut=0, kmax=2)
    assert 2 * rep["sets"] == 3232
    rows = {id(div): len(div.val) for div in seen}   # `seen` keeps ids apart
    assert sum(rows.values()) == 2


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_products_with_k_are_the_per_row_products(N):
    rng = np.random.default_rng(N)
    J = tuple(range(1, N + 1))
    for c in (2.0, 25.0, 100.0, 400.0, 1e4):
        kg = build_model(c, J, 12, 1e-2)
        for model in (kg, nls_model(kg)):
            model = replace(model, delta=c * rng.standard_normal(N))
            ks = rng.integers(-10, 11, size=(int(rng.integers(1, 300)), N))
            kidx = rng.integers(0, len(ks), size=400)
            ell0 = np.zeros((len(kidx), 2), dtype=int)
            div = divisors._Divisors(model, ks, kidx, ell0, ell0)
            for X in (model.nu_J, model.A, model.delta):
                assert np.array_equal(div._by_k(X), ref_by_k(X, ks))
            assert np.array_equal(div.dk, ref_by_k(model.delta, ks)[kidx])
            # a subset table carries its pairs' shifts
            keep = rng.random(len(kidx)) < 0.5
            xi = sample_xi(model, 5, N)
            assert div.rows(keep)(xi).tobytes() == div(xi)[:, keep].tobytes()


@pytest.mark.parametrize("tau", [2.0, 8.0])
@pytest.mark.parametrize("theta", [0.0, 5.0 / 12.0])
def test_thresholds_are_the_per_k_row_thresholds(tau, theta):
    q = ResonantQuery(alpha=1e-3, tau=tau, theta=theta)
    for c in (2.0, 25.0):
        model = build_model(c, J3, 12, 1e-2)
        for ks, kidx, at, val in divisors._tables(model, 10, 3):
            div = divisors._Divisors(model, ks, kidx, at, val)
            assert div.threshold(q).tobytes() \
                == ref_table_threshold(div, q).tobytes()
        div = divisors._Divisors.of(model, (0, 0, 0), [{-4: 1, 4: 1}])
        assert div.threshold(q).tobytes() \
            == ref_table_threshold(div, q).tobytes()


@pytest.mark.parametrize("c", [2.0, 25.0])
def test_s8_matches_scalar_reference(c):
    model = build_model(c, J3, 12, 1e-2)
    tags = []
    for ks, kidx, at, val in divisors._tables(model, 4):
        s8 = divisors._s8(ks.sum(axis=1)[kidx], at, val)
        for k, ell, flag in zip(ks[kidx], divisors._ells(at, val), s8):
            tag = ref_classify_pair(make_pair(k, ell, J3), c) if ell else ""
            assert flag == (tag == "S8")
            tags.append(tag)
    assert {"S0", "S1", "S6", "S7", "S8"} <= set(tags)


# ell = +-(e_i + e_j), i and j nonzero and of opposite signs, with L of the
# other sign than ell, is S8; each other class takes precedence over it
S8_CASES = [
    (-3, {-5: 1, 7: 1}, "S8"),
    (3, {-5: -1, 7: -1}, "S8"),
    (-3, {0: 1, 7: 1}, "S0"),      # an index 0
    (-3, {7: 1}, "S0"),            # one index
    (-2, {-5: 1, 7: 1}, "S6"),     # L = 0
    (-1, {-5: 1, 7: 1}, "S6"),     # L of the sign of ell
    (-3, {5: 1, 7: 1}, "S7"),      # same-sign indices
    (-3, {-5: 1, 7: -1}, "S1"),    # the difference class
    (3, {-5: -1, 7: 1}, "S1"),
]


@pytest.mark.parametrize("ksum,ell,tag", S8_CASES)
def test_s8_is_the_sum_class_of_opposite_gauge_sign(ksum, ell, tag):
    k = (ksum, 0, 0)
    assert ref_classify_pair(make_pair(k, ell, J3), 4.0) == tag
    at, val = divisors._supports([ell])
    assert divisors._s8(ksum, at, val).tolist() == [tag == "S8"]


@pytest.mark.parametrize("c,kappa", [(25.0, 0.5), (25.0, 0.8), (100.0, 0.5)])
def test_nongauge_scan_matches_per_pair_reference(c, kappa):
    model = build_model(c, J3, 12, 1e-2)
    rep = nongauge_scan(model, kappa=kappa)
    n_pairs, best, arg, s8_rows = ref_nongauge(model, rep["kmax"])
    assert rep["pairs"] == n_pairs
    assert rep["argmin"] == arg
    assert abs(rep["min_over_c2"] - best) <= 1e-12 * best
    assert rep["s8_count"] == len(s8_rows)
    if not s8_rows:
        assert rep["s8_argmin"] is None
        return
    want = min(s8_rows, key=lambda r: r["min_over_c2"])
    got = dict(rep["s8_argmin"])
    assert abs(got.pop("min_over_c2") - want.pop("min_over_c2")) \
        <= 1e-12 * best
    assert got == want


SCAN_MODELS = [(J3, c, 12) for c in (2.0, 25.0, 100.0, 400.0, 1600.0)] \
    + [(J3, 400.0, 24), ((1, 2, 3, 5), 100.0, 12)]


@pytest.mark.parametrize("J,c,M", SCAN_MODELS,
                         ids=[f"N{len(J)}-c{c:g}-M{M}"
                              for J, c, M in SCAN_MODELS])
@pytest.mark.parametrize("kappa", [0.5, 0.8])
@pytest.mark.parametrize("centred", [False, True])
def test_nongauge_scan_is_the_exhaustive_scan(J, c, M, kappa, centred):
    model = build_model(c, J, M, 1e-2)
    if centred:   # a divisor of charge -1 vanishes at the box centre
        k = (1, -1) + (0,) * (len(J) - 2)
        model = center_pair_correction(model, make_pair(k, {-1: -1}, J))
    rep = scan_or_error(nongauge_scan, model, kappa)
    assert rep == scan_or_error(exhaustive_nongauge, model, kappa)
    if centred and c == 1600.0:   # it vanishes at a corner
        assert rep == "non-gauge divisor minimum is not positive"
    else:
        assert rep["pairs"] > 0 and rep["min_over_c2"] > 0


@pytest.mark.parametrize("c", [25.0, 100.0])
def test_nongauge_scan_is_the_same_across_chunk_boundaries(c):
    # +-(k, ell) tie exactly, so the first minimum must survive the chunks
    model = build_model(c, J3, 12, 1e-2)
    with mock.patch.object(divisors, "_BLOCK", 32 * 4):   # 4 pairs a chunk
        small, built = scan_with_spy(model, kappa=0.5)
    assert len(built) > 2   # the seed and more than one chunk
    assert small == nongauge_scan(model, kappa=0.5)


def scan_with_spy(model, **kw):
    """`nongauge_scan`'s report and, per `_Divisors` it built, its pairs."""
    built = []
    init = divisors._Divisors.__init__

    def spy(div, *args):
        init(div, *args)
        built.append([table_pair(div, i) for i in range(len(div.val))])

    with mock.patch.object(divisors._Divisors, "__init__", spy):
        return nongauge_scan(model, **kw), built


def assert_is_ref_nongauge(model, rep):
    """The report of a scan equals `ref_nongauge`'s, S8 row included; the
    reference's min |divisor| / c^2 and its S8 minimum are returned."""
    n_pairs, best, arg, s8_rows = ref_nongauge(model, rep["kmax"])
    assert (rep["pairs"], rep["argmin"]) == (n_pairs, arg)
    assert abs(rep["min_over_c2"] - best) <= 1e-12 * best
    assert rep["s8_count"] == len(s8_rows)
    if not s8_rows:
        assert rep["s8_argmin"] is None
        return best, math.inf
    want = dict(min(s8_rows, key=lambda r: r["min_over_c2"]))
    got = dict(rep["s8_argmin"])
    s8_best = want.pop("min_over_c2")
    assert abs(got.pop("min_over_c2") - s8_best) <= 1e-12 * best
    assert got == want
    return best, s8_best


@pytest.mark.parametrize("c", [2.0, 3.0])
def test_nongauge_scan_skips_only_pairs_above_its_minima(c):
    # at c = 2 and 3 only the supports -1 and 0 pass |a| <= c/2, and the
    # charge bound of the smallest divisor comes within 1e-4 of its value,
    # so a bound that overshoots drops it.  Every pair is counted, and only
    # pairs strictly above both minima are left unbuilt
    model = build_model(c, J3, 12, 1e-2)
    with mock.patch.object(divisors, "_BLOCK", 500):   # 15 pairs a chunk
        rep, built = scan_with_spy(model, kappa=4.5 / math.sqrt(c))
    best, s8_best = assert_is_ref_nongauge(model, rep)
    seen = {p for pairs in built for p in pairs}
    assert 0 < sum(map(len, built)) < rep["pairs"]
    for pair, m in ref_scan_pairs(model, rep["kmax"]):
        if pair not in seen:
            assert m > best
            if pair.ell and ref_classify_pair(pair, c) == "S8":
                assert m > s8_best


@pytest.mark.parametrize("c,share", [(100.0, 0.01), (400.0, 0.01),
                                     (6400.0, 0.001)])
def test_nongauge_scan_builds_few_pairs(c, share):
    # a pair of charge |L| sits near |L| c^2, and the seeded minima leave
    # only the few charge-one pairs whose bound reaches them
    model = build_model(c, J3, 12, 1e-2)
    rep, built = scan_with_spy(model, kappa=0.5)
    assert rep == exhaustive_nongauge(model, 0.5)
    if c == 100.0:
        assert_is_ref_nongauge(model, rep)
    assert sum(map(len, built)) < share * rep["pairs"]
    # every pair at or below a minimum was built
    best, s8_best = rep["min_over_c2"], rep["s8_argmin"]["min_over_c2"]
    seen = {p for pairs in built for p in pairs}
    for div, mins, s8 in exhaustive_tables(model, 0.5):
        for i in np.flatnonzero((mins <= best) | (s8 & (mins <= s8_best))):
            assert table_pair(div, i) in seen


def test_cantor_excision_is_the_same_across_block_boundaries():
    model = center_pair_correction(build_model(10.0, J3, 20, 1e-2),
                                   make_pair((1, -1, 0), {-1: -1}, J3))
    q = ResonantQuery(alpha=1e-6, tau=2.0, theta=0.4, samples=500, seed=3)
    with mock.patch.object(divisors, "_BLOCK", 2000):   # 62 pairs a block
        small = cantor_excision(model, q, K_cut=0, kmax=3)
        assert len(divisors._excision_tables(model, 0, 3)) > 1
    rep = cantor_excision(model, q, K_cut=0, kmax=3)
    assert small == rep and rep["excised_fraction"] > 0


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_sample_xi_draws_the_bits_of_generator_uniform(N):
    J = tuple(range(1, N + 1))
    for R in (1e-2, 0.3):
        model = build_model(10.0, J, 6, R)
        for n in (1, 5, 10_000):
            for seed in (0, 1, 7, 2 ** 40 + 3):
                want = np.random.default_rng(seed).uniform(
                    model.xi_lo, model.xi_hi, size=(n, N))
                assert sample_xi(model, n, seed).tobytes() == want.tobytes()


def criterion_06_model():
    return center_pair_correction(build_model(10.0, J3, 20, 1e-2),
                                  make_pair((1, -1, 0), {-1: -1}, J3))


def test_divisors_at_many_points_are_those_at_each_point():
    # the hits evaluate the two pairs left by the prune over many points
    # at once; they must be the values at one point at a time
    model = criterion_06_model()
    xi = sample_xi(model, 2_000, 4)
    (div, floor), _ = divisors._excision_tables(model, 0, 2)[0]
    sub = div.rows(floor <= div.threshold(ResonantQuery(alpha=1e-6,
                                                         tau=2.0)))
    got = sub(xi)
    assert got.shape == (len(xi), 2) and got.flags.f_contiguous
    want = np.concatenate([sub(x[None]) for x in xi])
    assert got.tobytes() == want.tobytes()


def test_cantor_excision_builds_each_familys_tables_once():
    model = criterion_06_model()
    init = divisors._Divisors.__init__
    built = []

    def spy(div, m, *args):
        built.append(m.c)
        init(div, m, *args)

    queries = [ResonantQuery(alpha=float(a), tau=2.0, theta=0.4,
                             samples=2_000, seed=5)
               for a in np.logspace(-7, -6, 4)]
    with mock.patch.object(divisors._Divisors, "__init__", spy):
        reps = [cantor_excision(model, q, K_cut=0, kmax=2) for q in queries]
    assert sorted(built) == [10.0, math.inf]   # one block, two families
    # each alpha as on a model of its own
    for q, rep in zip(queries, reps):
        assert cantor_excision(criterion_06_model(), q, K_cut=0,
                               kmax=2) == rep


def test_replaced_model_does_not_reuse_the_memo():
    model = criterion_06_model()
    q = ResonantQuery(alpha=1e-6, tau=2.0, samples=3_000, seed=2)
    cantor_excision(model, q, K_cut=0, kmax=2)
    delta = model.delta + [2e-7, 0.0, 0.0]   # moves the (1, -1, 0) set
    shifted = replace(model, delta=delta)
    cold = replace(criterion_06_model(), delta=delta)
    assert not shifted._memo
    assert cantor_excision(shifted, q, K_cut=0, kmax=2) \
        == cantor_excision(cold, q, K_cut=0, kmax=2) \
        != cantor_excision(model, q, K_cut=0, kmax=2)
    assert measure_estimate_mc(shifted, (1, -1, 0), q) \
        == measure_estimate_mc(cold, (1, -1, 0), q)


def test_memoized_arrays_are_read_only():
    model = criterion_06_model()
    q = ResonantQuery(alpha=1e-6, tau=2.0, samples=500, seed=2)
    cantor_excision(model, q, K_cut=0, kmax=2)
    xi = sample_xi(model, 500, 2)
    assert sample_xi(model, 500, 2) is xi
    arrays = [xi] + [a for block in divisors._excision_tables(model, 0, 2)
                     for div, floor in block
                     for a in [floor, div.ks] + [getattr(div, name)
                                                  for name in div.ROWS]]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 0
    # a fresh draw is read-only too, and another seed replaces the kept one
    other = sample_xi(model, 500, 3)
    assert not other.flags.writeable and sample_xi(model, 500, 2) is not xi


def test_cantor_excision_tables_are_keyed_on_the_block_size():
    # test_cantor_excision_is_the_same_across_block_boundaries compares
    # two table sets built independently, not one memoized set
    model = criterion_06_model()
    q = ResonantQuery(alpha=1e-6, tau=2.0, theta=0.4, samples=500, seed=3)
    tables = divisors._tables
    builds = []

    def spy(*args):
        builds.append(divisors._BLOCK // 32)   # pairs per block
        return tables(*args)

    with mock.patch.object(divisors, "_tables", spy):
        with mock.patch.object(divisors, "_BLOCK", 2000):
            small = cantor_excision(model, q, K_cut=0, kmax=3)
        rep = cantor_excision(model, q, K_cut=0, kmax=3)
        assert cantor_excision(model, q, K_cut=0, kmax=3) == rep
    assert builds == [62, divisors._BLOCK // 32] and small == rep
