"""Cohomological solve, normal-form correction, remainders, divisor scans."""

import ast
import hashlib
import itertools
import math

import pytest

from kgnls import birkhoff
from kgnls.birkhoff import (DivisorAnomaly, lambda_plus_closed_form,
                            lie_transform, remainder_split,
                            solve_cohomological_nls,
                            solve_cohomological_quartic, verify_divisor_bounds)
from kgnls.hamiltonian import (build_Lambda, build_P, build_P_nls, gauge_sum,
                               poisson_bracket)
from kgnls.spectral_core import FrequencyTable

J = (1, 2, 3)


def residual_norm(nf, Lam, rel=True):
    lhs = poisson_bracket(Lam, nf.G) + nf.P - nf.Lambda_plus - nf.P_hat
    scale = nf.P.max_abs_coeff() if rel else 1.0
    return lhs.max_abs_coeff() / scale


@pytest.mark.parametrize("c,bracket_tol", [(10.0, 1e-12), (1e3, 1e-9)])
def test_cohomological_residual(c, bracket_tol):
    ft = FrequencyTable(c=c, M=8)
    nf = solve_cohomological_quartic(build_P(ft), ft, J)
    assert nf.residual < 1e-12
    # independent cross-check with the generic bracket implementation;
    # its lambda sums lose ~c^2 * eps to cancellation, hence the scaled
    # tolerance at large c
    Lam = build_Lambda(ft)
    assert residual_norm(nf, Lam) < bracket_tol


def test_one_divisor_pass_per_solve(monkeypatch):
    # the residual reuses the divisors the solve computed for G's rows
    calls = []
    divisor = birkhoff._divisor
    monkeypatch.setattr(birkhoff, "_divisor",
                        lambda *a: calls.append(a) or divisor(*a))
    ft = FrequencyTable(c=10.0, M=8)
    nf = solve_cohomological_quartic(build_P(ft), ft, J)
    assert len(calls) == 1
    assert nf.residual < 1e-12


@pytest.mark.parametrize("c", [10.0, 1e3, None])
def test_residual_reuses_the_divisors_of_G(c):
    # the divisors the solve hands to the residual are those of G's rows:
    # recomputing them gives the same residual to the bit
    if c is None:
        nf = solve_cohomological_nls(build_P_nls(8), J, 8)
    else:
        ft = FrequencyTable(c=c, M=8)
        nf = solve_cohomological_quartic(build_P(ft), ft, J)
    rows, _ = birkhoff._quartic_table(nf.G)
    d = birkhoff._divisor(rows, nf.freq)
    assert nf.residual == birkhoff._residual(nf.G, d, nf.P, nf.Lambda_plus,
                                             nf.P_hat)


def _kg_normal_form(c, M):
    ft = FrequencyTable(c=c, M=M)
    return solve_cohomological_quartic(build_P(ft), ft, J)


def _lie_text():
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft)
    nf = solve_cohomological_quartic(P, ft, J)
    return lie_transform(build_Lambda(ft) + P, nf.G, max_order=2).to_text()


def _split_text(block):
    split = remainder_split(_kg_normal_form(10.0, 6),
                            solve_cohomological_nls(build_P_nls(6), J, 6))
    return getattr(split, block).to_text()


@pytest.mark.parametrize("text,digest", [
    (lambda: _kg_normal_form(10.0, 16).to_text(),
     "6231f1b09af13406801daeba793354baec055c41cdbb798fdc5da6f677c1dda3"),
    (lambda: solve_cohomological_nls(build_P_nls(8), J, 8).to_text(),
     "83eb98daf67a70f9331a5d5f5563a378281c1dd50e96c74534cd73add6914966"),
    (_lie_text,
     "d4a78cb45b9b4eda4e92fe67067d119dee3cb61e2ddc5c791770792c1f4f2ce2"),
    (lambda: _split_text("G_remainder"),
     "eca343deebcc4edef5c9add3c837e14600f1406c4dded9d7e2b874e0adc64c3b"),
    (lambda: _split_text("G_ng"),
     "d6c5468d91d83726dad0480023fdfec51439a99eed1de470fbc956befb0ee2ae"),
    (lambda: _split_text("G_r1"),
     "98f64950774244b2f4a708a24ab1f7893b5244f1ebe14b24dc3d29cd765c3cb4"),
    (lambda: _split_text("G_div"),
     "1c187b456b13bb6d055333172d3524c4f98593d48a40bc666c10d8b534ed1478")],
    ids=["kg-M16", "nls-M8", "lie-M4", "split-remainder", "split-ng",
         "split-r1", "split-div"])
def test_normal_form_texts_are_golden(text, digest):
    # changes to the polynomial store, the bracket or the classifier must
    # keep every coefficient and the row order byte-identical
    assert hashlib.sha256(text().encode()).hexdigest() == digest


def test_lambda_plus_closed_form_match():
    ft = FrequencyTable(c=10.0, M=8)
    nf = solve_cohomological_quartic(build_P(ft), ft, J)
    cf = lambda_plus_closed_form(ft, J)
    diff = (nf.Lambda_plus - cf).max_abs_coeff()
    assert diff < 1e-12 * cf.max_abs_coeff()


def test_lambda_plus_nls_closed_form_match():
    M = 6
    nf = solve_cohomological_nls(build_P_nls(M), J, M)
    cf = lambda_plus_closed_form(FrequencyTable(c=math.inf, M=M), J)
    assert (nf.Lambda_plus - cf).max_abs_coeff() < 1e-12


def test_kg_solve_rejects_the_infinite_c_table():
    ft = FrequencyTable(c=math.inf, M=4)
    with pytest.raises(ValueError, match="NLS"):
        solve_cohomological_quartic(build_P(ft), ft, J)


def test_normal_form_properties():
    ft = FrequencyTable(c=10.0, M=6)
    nf = solve_cohomological_quartic(build_P(ft), ft, J)
    assert nf.gauge_divisor_min > 0


def test_remainder_split_recombines():
    ft = FrequencyTable(c=100.0, M=6)
    nf = solve_cohomological_quartic(build_P(ft), ft, J)
    nf_nls = solve_cohomological_nls(build_P_nls(6), J, 6)
    split = remainder_split(nf, nf_nls)
    assert split.recombination_error < 1e-12
    assert all(gauge_sum(m) != 0 for m in split.G_ng.terms)


def test_remainders_scale_like_h():
    sups = {}
    for c in (1e2, 1e3):
        ft = FrequencyTable(c=c, M=6)
        nf = solve_cohomological_quartic(build_P(ft), ft, J)
        nf_nls = solve_cohomological_nls(build_P_nls(6), J, 6)
        split = remainder_split(nf, nf_nls)
        sups[c] = split.G_remainder.max_abs_coeff() / ft.h
    lo, hi = sorted(sups.values())
    assert (hi - lo) / hi < 0.10


def test_lie_transform_reproduces_normal_form():
    # e^{ad_G}(Lambda + P) agrees with Lambda + Lambda_plus + P_hat
    # through degree 4 (the order removed by the generator)
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft)
    nf = solve_cohomological_quartic(P, ft, J)
    Lam = build_Lambda(ft)
    H = lie_transform(Lam + P, nf.G)
    target = Lam + nf.Lambda_plus + nf.P_hat
    deg4 = (H - target).restrict(lambda m: len(m) <= 4)
    assert deg4.max_abs_coeff() < 1e-12


def test_lie_transform_truncates_at_degree_six():
    # with G quartic, the degree-6 part of e^{ad_G}(Lambda + P) is
    # {P, G} + {{Lambda, G}, G} / 2, and every higher term is dropped
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft)
    nf = solve_cohomological_quartic(P, ft, J)
    Lam = build_Lambda(ft)
    H = lie_transform(Lam + P, nf.G)
    assert H.degrees == (2, 6)
    want = poisson_bracket(P, nf.G) \
        + poisson_bracket(poisson_bracket(Lam, nf.G), nf.G).scale(0.5)
    deg6 = (H - want).restrict(lambda m: len(m) == 6)
    assert deg6.max_abs_coeff() < 1e-12 * want.max_abs_coeff()


def test_solve_rejects_modes_outside_window():
    ft = FrequencyTable(c=10.0, M=4)
    with pytest.raises(ValueError, match="outside the window"):
        solve_cohomological_quartic(build_P(ft), ft, (1, 2, 5))
    with pytest.raises(ValueError, match="outside the window"):
        solve_cohomological_nls(build_P_nls(4), (-5, 1), 4)


def test_divisor_scan_positive():
    rep = verify_divisor_bounds(J, [25.0, 100.0], 12)
    assert all(r["gauge_min"] > 0 for r in rep["rows"])
    assert all(r["nongauge_min_over_c2"] > 0 for r in rep["rows"])
    assert rep["nongauge_relative_spread"] < 0.05


@pytest.mark.parametrize("c", [400.0, 1e4])
def test_scan_minima_match_split_brute_force(c):
    # every momentum-zero, unpaired quartic tuple touching J, its divisor
    # summed exactly (fsum) in the split form L c^2 + sum s nu_j
    from kgnls.birkhoff import _scan_min_divisors
    from test_birkhoff_oracle import _divisor_split
    Mmax = 4
    ft = FrequencyTable(c=c, M=Mmax)
    pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    gauge, nongauge = math.inf, math.inf
    for js in itertools.product(range(-Mmax, Mmax + 1), repeat=4):
        if not set(js) & set(J):
            continue
        for ss in itertools.product((1, -1), repeat=4):
            if sum(s * j for s, j in zip(ss, js)) != 0:
                continue
            m = tuple(zip(js, ss))
            if any(m[x][0] == m[y][0] and m[x][1] == -m[y][1]
                   and m[u][0] == m[v][0] and m[u][1] == -m[v][1]
                   for (x, y), (u, v) in pairings):
                continue
            d = abs(_divisor_split(m, ft))
            if sum(ss) == 0:
                gauge = min(gauge, d)
            else:
                nongauge = min(nongauge, d / (c * c))
    assert _scan_min_divisors(J, [c], Mmax) == [(gauge, nongauge)]


def test_nongauge_floor_enforced():
    from kgnls.birkhoff import _solve
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft)
    with pytest.raises(DivisorAnomaly):
        # demanding an absurd floor must trip the anomaly guard
        _solve(P, ft, J, nongauge_floor=1e6)


def test_low_divisor_message_names_a_monomial_of_P():
    from kgnls.birkhoff import _solve
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft)
    with pytest.raises(DivisorAnomaly, match="^non-gauge divisor") as exc:
        _solve(P, ft, J, nongauge_floor=1e6)
    # the message decodes the offending code row back to its slot tuple
    m = ast.literal_eval(str(exc.value).rsplit(" at ", 1)[1])
    assert m in P.terms and gauge_sum(m) != 0
    assert any(j in J for j, _ in m)
