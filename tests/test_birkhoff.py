"""Cohomological solve, normal-form correction, remainders, divisor scans."""

import math

import pytest

from kgnls.birkhoff import (DivisorAnomaly, classify, lambda_plus_closed_form,
                            lambda_plus_nls_closed_form, lie_transform,
                            remainder_split, solve_cohomological_nls,
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
    nf = solve_cohomological_quartic(build_P(ft, 8), ft, J)
    assert nf.residual < 1e-12
    # independent cross-check with the generic bracket implementation;
    # its lambda sums lose ~c^2 * eps to cancellation, hence the scaled
    # tolerance at large c
    Lam = build_Lambda(ft)
    assert residual_norm(nf, Lam) < bracket_tol


def test_lambda_plus_closed_form_match():
    ft = FrequencyTable(c=10.0, M=8)
    nf = solve_cohomological_quartic(build_P(ft, 8), ft, J)
    cf = lambda_plus_closed_form(ft, J, 8)
    diff = (nf.Lambda_plus - cf).max_abs_coeff()
    assert diff < 1e-12 * cf.max_abs_coeff()


def test_lambda_plus_nls_closed_form_match():
    M = 6
    nf = solve_cohomological_nls(build_P_nls(M), J, M)
    cf = lambda_plus_nls_closed_form(J, M)
    assert (nf.Lambda_plus - cf).max_abs_coeff() < 1e-12


def test_normal_form_properties():
    ft = FrequencyTable(c=10.0, M=6)
    nf = solve_cohomological_quartic(build_P(ft, 6), ft, J)
    assert nf.gauge_divisor_min > 0
    for m in nf.G.terms:
        jv = tuple(j for j, _ in m)
        sv = tuple(s for _, s in m)
        rc = classify(jv, sv, J, ft)
        # resonant (paired, tangential-supported) terms never enter G
        assert not (rc.in_IR and rc.in_LJ)
        assert rc.divisor != 0.0
    for m in nf.Lambda_plus.terms:
        jv = tuple(j for j, _ in m)
        sv = tuple(s for _, s in m)
        assert classify(jv, sv, J, ft).in_IR


def test_remainder_split_recombines():
    ft = FrequencyTable(c=100.0, M=6)
    nf = solve_cohomological_quartic(build_P(ft, 6), ft, J)
    nf_nls = solve_cohomological_nls(build_P_nls(6), J, 6)
    split = remainder_split(nf, nf_nls)
    assert split.recombination_error < 1e-12
    assert all(gauge_sum(m) != 0 for m in split.G_ng.terms)


def test_remainders_scale_like_h():
    sups = {}
    for c in (1e2, 1e3):
        ft = FrequencyTable(c=c, M=6)
        nf = solve_cohomological_quartic(build_P(ft, 6), ft, J)
        nf_nls = solve_cohomological_nls(build_P_nls(6), J, 6)
        split = remainder_split(nf, nf_nls)
        sups[c] = split.G_remainder.max_abs_coeff() / ft.h
    lo, hi = sorted(sups.values())
    assert (hi - lo) / hi < 0.10


def test_lie_transform_reproduces_normal_form():
    # e^{ad_G}(Lambda + P) agrees with Lambda + Lambda_plus + P_hat
    # through degree 4 (the order removed by the generator)
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft, 4)
    nf = solve_cohomological_quartic(P, ft, J)
    Lam = build_Lambda(ft)
    H = lie_transform(Lam + P, nf.G, max_deg=4)
    target = Lam + nf.Lambda_plus + nf.P_hat
    deg4 = (H - target).restrict(lambda m: len(m) <= 4)
    assert deg4.max_abs_coeff() < 1e-12


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


def test_nongauge_floor_enforced():
    from kgnls.birkhoff import _divisor_split, _solve
    ft = FrequencyTable(c=10.0, M=4)
    P = build_P(ft, 4)
    with pytest.raises(DivisorAnomaly):
        # demanding an absurd floor must trip the anomaly guard
        _solve(P, lambda m: _divisor_split(m, ft), J, nongauge_floor=1e6)
