"""Quartic coefficient algebra, Poisson bracket, and vector fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls.hamiltonian import (PolyHamiltonian, build_Lambda, build_P,
                               canonical, momentum, poisson_bracket,
                               vector_field)
from kgnls.spectral_core import FourierState, FrequencyTable

TWO_PI = 2.0 * math.pi


def random_state(M, seed=0, scale=0.3):
    rng = np.random.default_rng(seed)
    z = scale * (rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1))
    return FourierState(z, np.conj(z))


def test_momentum_rule_enforced():
    bad = canonical([(1, 1), (1, 1), (0, -1), (0, -1)])
    with pytest.raises(ValueError):
        PolyHamiltonian({bad: 1.0})


def test_terms_is_a_lazy_read_only_view():
    ft = FrequencyTable(c=3.0, M=3)
    P = build_P(ft)
    Q = (P + P).scale(0.5) - P.scale(0.25)
    assert P._terms is None and Q._terms is None
    assert len(Q) == len(P) and Q.max_abs_coeff() == 0.75 * P.max_abs_coeff()
    m = next(iter(P.terms))
    with pytest.raises(TypeError):
        P.terms[m] = 1.0
    with pytest.raises(TypeError):
        del P.terms[m]
    assert P.terms is P.terms   # derived once and cached


def test_removed_options_are_rejected():
    from kgnls.birkhoff import lie_transform
    P = build_P(FrequencyTable(c=3.0, M=2))
    for call in (lambda: PolyHamiltonian(dict(P.terms), check=False),
                 lambda: P.prune(tol=0.0),
                 lambda: poisson_bracket(P, P, prune=0.0),
                 lambda: lie_transform(P, P, term_limit=10)):
        with pytest.raises(TypeError):
            call()


def test_build_P_coefficient_oracle():
    # merged coefficient of z_1 z_{-1} zbar_0 zbar_0 at c where all w = 1
    # limit: multiplicity 4!/2! = 12 times 1/(32 pi)
    ft = FrequencyTable(c=1e6, M=2)
    m = canonical([(1, 1), (-1, 1), (0, -1), (0, -1)])
    P = build_P(ft)
    assert abs(P.terms[m] - 12.0 / (16.0 * TWO_PI)) < 1e-9
    # weights lower the coefficient at finite c
    ft2 = FrequencyTable(c=2.0, M=2)
    P2 = build_P(ft2)
    wprod = ft2.w[1 + 2] * ft2.w[-1 + 2]
    assert abs(P2.terms[m]
               - 12.0 / (16.0 * TWO_PI) / math.sqrt(wprod)) < 1e-12


def test_P_real_on_real_subspace():
    ft = FrequencyTable(c=3.0, M=4)
    P = build_P(ft)
    st_ = random_state(4, seed=3)
    assert abs(P.value(st_).imag) < 1e-14


def test_bracket_diagonal_eigenvalue():
    # {Lambda, m} = i (sum_i s_i lambda_{j_i}) m for any monomial m
    ft = FrequencyTable(c=2.0, M=4)
    Lam = build_Lambda(ft)
    m = canonical([(1, 1), (3, 1), (4, -1), (0, -1)])
    F = PolyHamiltonian({m: 2.5})
    out = poisson_bracket(Lam, F)
    lam = dict(zip(range(-4, 5), ft.lam))
    div = lam[1] + lam[3] - lam[4] - lam[0]
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
                                for m in monos})
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


def test_text_roundtrip():
    # the text form loses nothing: reading each line back as signs, modes
    # and coefficient rebuilds the polynomial exactly, real and complex
    ft = FrequencyTable(c=2.0, M=3)
    for P in (build_P(ft), build_P(ft).scale(0.3 - 0.7j)):
        terms = {}
        for line in P.to_text().splitlines():
            sig, *js, coeff = line.split()
            terms[tuple((int(j), 1 if ch == "+" else -1)
                        for j, ch in zip(js, sig))] = complex(coeff)
        Q = PolyHamiltonian(terms)
        assert len(Q) == len(P) and (P - Q).max_abs_coeff() == 0.0


@given(st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_bracket_translation_invariance(M, seed):
    rng = np.random.default_rng(seed)
    ft = FrequencyTable(c=2.0, M=M)
    P = build_P(ft)
    keys = sorted(P.terms)
    pick = [keys[rng.integers(len(keys))] for _ in range(3)]
    F = PolyHamiltonian({m: complex(rng.normal()) for m in pick})
    out = poisson_bracket(F, P)
    assert all(momentum(m) == 0 for m in out.terms)
