"""Quartic coefficient algebra, Poisson bracket, and vector fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls.hamiltonian import (Monomial, PolyHamiltonian, build_Lambda,
                               build_P, build_P_nls, canonical,
                               dressing_for_P, gauge_project, gauge_sum,
                               momentum, ordered_coefficient, poisson_bracket,
                               split_P, vector_field, vector_field_norm_bound)
from kgnls.spectral_core import (FourierState, FrequencyTable, SpaceParams,
                                 weighted_norm)

TWO_PI = 2.0 * math.pi


def random_state(M, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    z = scale * (rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1))
    return FourierState(z, np.conj(z))


def test_monomial_canonicalization():
    a = Monomial([1, -1, 2, -2], [1, -1, -1, 1])
    b = Monomial([-2, 2, -1, 1], [1, -1, -1, 1])
    assert a == b and hash(a) == hash(b)
    assert a.momentum == 1 * 1 + (-1) * (-1) + 2 * (-1) + (-2) * 1
    assert a.gauge_sum == 0


def test_momentum_rule_enforced():
    bad = canonical([(1, 1), (1, 1), (0, -1), (0, -1)])
    with pytest.raises(ValueError):
        PolyHamiltonian({bad: 1.0})
    PolyHamiltonian({bad: 1.0}, check=False)   # escape hatch for internals


def test_build_P_coefficient_oracle():
    # merged coefficient of z_1 z_{-1} zbar_0 zbar_0 at c where all w = 1
    # limit: multiplicity 4!/2! = 12 times 1/(32 pi)
    ft = FrequencyTable(c=1e6, M=2)
    P = build_P(ft)
    got = P.coefficient([1, -1, 0, 0], [1, 1, -1, -1])
    assert abs(got - 12.0 / (16.0 * TWO_PI)) < 1e-9
    # weights lower the coefficient at finite c
    ft2 = FrequencyTable(c=2.0, M=2)
    P2 = build_P(ft2)
    wprod = ft2.w_at(1) * ft2.w_at(-1)
    assert abs(P2.coefficient([1, -1, 0, 0], [1, 1, -1, -1])
               - 12.0 / (16.0 * TWO_PI) / math.sqrt(wprod)) < 1e-12


def test_ordered_coefficient_patterns():
    ft = FrequencyTable(c=3.0, M=3)
    # sigma_hat = 2 (two +): binom(4,2) = 6 arrangements share the pattern
    val = ordered_coefficient(ft, [1, -1, 2, -2], [1, 1, -1, -1])
    wp = math.sqrt(ft.w_at(1) * ft.w_at(-1) * ft.w_at(2) * ft.w_at(-2))
    assert abs(val - 6.0 / (16.0 * TWO_PI) / wp) < 1e-14
    assert ordered_coefficient(ft, [1, 1, 1, -1], [1, 1, 1, 1]) == 0.0
    assert ordered_coefficient(None, [1, -1, 2, -2],
                               [1, 1, -1, -1]) == pytest.approx(
                                   6.0 / (16.0 * TWO_PI))


def test_P_real_on_real_subspace():
    ft = FrequencyTable(c=3.0, M=4)
    P = build_P(ft)
    st_ = random_state(4, seed=3)
    assert abs(P.value(st_).imag) < 1e-14


def test_split_P_reconstruction():
    ft = FrequencyTable(c=5.0, M=4)
    P_nls, P_ng, P_r = split_P(ft)
    P = build_P(ft)
    err = (P - (P_nls + P_ng + P_r)).max_abs_coeff()
    assert err < 1e-14
    assert P_nls.is_gauge_invariant()
    assert all(gauge_sum(m) != 0 for m in P_ng.terms)
    # the gauge remainder is O(h): sup coeff / h bounded
    assert P_r.max_abs_coeff() < 10.0 * ft.h


def test_gauge_project():
    ft = FrequencyTable(c=5.0, M=3)
    P = build_P(ft)
    Pg = gauge_project(P)
    assert Pg.is_gauge_invariant()
    assert len(Pg) < len(P)


def test_bracket_diagonal_eigenvalue():
    # {Lambda, m} = i (sum_i s_i lambda_{j_i}) m for any monomial m
    ft = FrequencyTable(c=2.0, M=4)
    Lam = build_Lambda(ft)
    m = canonical([(1, 1), (3, 1), (4, -1), (0, -1)])
    F = PolyHamiltonian({m: 2.5}, check=False)
    out = poisson_bracket(Lam, F)
    div = ft.lam_at(1) + ft.lam_at(3) - ft.lam_at(4) - ft.lam_at(0)
    assert len(out) == 1
    assert abs(out.terms[m] - 1j * div * 2.5) < 1e-12


def test_bracket_antisymmetry_and_momentum():
    ft = FrequencyTable(c=2.0, M=3)
    P = build_P(ft)
    Lam = build_Lambda(ft)
    a = poisson_bracket(P, Lam)
    b = poisson_bracket(Lam, P)
    assert (a + b).max_abs_coeff() < 1e-12
    assert all(momentum(m) == 0 for m in a.terms)


def test_bracket_jacobi_small():
    # Jacobi identity on small random quadratics (degree cap inactive)
    rng = np.random.default_rng(7)
    monos = [canonical([(j, 1), (j, -1)]) for j in (-1, 0, 1)]
    monos += [canonical([(1, 1), (-1, 1), (0, -1), (0, -1)])]

    def rand_poly():
        return PolyHamiltonian({m: complex(rng.normal(), rng.normal())
                                for m in monos}, check=False)
    F, G, H = rand_poly(), rand_poly(), rand_poly()
    kw = dict(max_deg=10)
    jac = (poisson_bracket(F, poisson_bracket(G, H, **kw), **kw)
           + poisson_bracket(G, poisson_bracket(H, F, **kw), **kw)
           + poisson_bracket(H, poisson_bracket(F, G, **kw), **kw))
    assert jac.max_abs_coeff() < 1e-10


def test_vector_field_matches_finite_difference():
    ft = FrequencyTable(c=3.0, M=3)
    P = build_P(ft)
    st_ = random_state(3, seed=11)
    dz, dzb = vector_field(P, st_)
    eps = 1e-7
    for j in (-2, 0, 1):
        # dz_j/dt = -i dH/dzbar_j and dzbar_j/dt = +i dH/dz_j.  H is a
        # polynomial in independent z, zbar: a bump by eps or by i*eps,
        # divided by the bump, gives the same complex derivative
        for bump in (eps, 1j * eps):
            for comp, rate, want in (("zbar", -1j, dz), ("z", 1j, dzb)):
                pert = st_.copy()
                getattr(pert, comp)[j + 3] += bump
                fd = (P.value(pert) - P.value(st_)) / bump
                assert abs(rate * fd - want[j + 3]) < 1e-6


def test_vector_field_norm_bound_majorizes():
    ft = FrequencyTable(c=3.0, M=4)
    P = build_P(ft)
    params = SpaceParams(M=4)
    st_ = random_state(4, seed=5, scale=0.1)
    dz, dzb = vector_field(P, st_)
    actual = weighted_norm(FourierState(dz, dzb), params, ft)
    for b in (None, dressing_for_P(ft)):
        bound = vector_field_norm_bound(P, st_, params, ft, b=b)
        assert bound >= actual


def test_text_roundtrip():
    ft = FrequencyTable(c=2.0, M=3)
    P = build_P(ft)
    Q = PolyHamiltonian.from_text(P.to_text())
    assert (P - Q).max_abs_coeff() == 0.0


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_bracket_translation_invariance(M, seed):
    rng = np.random.default_rng(seed)
    ft = FrequencyTable(c=2.0, M=M)
    P = build_P(ft)
    keys = sorted(P.terms)
    pick = [keys[rng.integers(len(keys))] for _ in range(3)]
    F = PolyHamiltonian({m: complex(rng.normal()) for m in pick}, check=False)
    out = poisson_bracket(F, P)
    assert all(momentum(m) == 0 for m in out.terms)
