"""Frequency identities and weighted norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgnls.spectral_core import (FourierState, FrequencyTable, SpaceParams,
                                 lambda_freq, mode_weights, nu, seq_norm)


def test_lambda_hand_values():
    # c = 1, j = 0: lambda = 1; c = 2, j = 2: 2*sqrt(8) frozen
    assert lambda_freq(1.0, 0) == 1.0
    assert abs(lambda_freq(2.0, 2) - 2.0 * math.sqrt(8.0)) < 1e-15


def test_lambda_nu_split_identity():
    j = np.arange(-200, 201)
    for h in np.logspace(-6, 0, 13):
        c = 1.0 / math.sqrt(h)
        lam = lambda_freq(c, j)
        rel = np.abs(lam - (1.0 / h + nu(h, j))) / lam
        assert rel.max() < 1e-12


def test_nu_parabolic_bound():
    j = np.arange(-200, 201, dtype=float)
    for h in np.logspace(-6, 0, 13):
        dev = np.abs(nu(h, j) - 0.5 * j * j)
        assert np.all(dev <= 0.5 * h * j ** 4)


def test_weight_identity():
    # 1 + h*nu_j = sqrt(1 + h j^2) = w_j
    ft = FrequencyTable(c=7.0, M=32)
    j = np.arange(-32, 33, dtype=float)
    assert np.max(np.abs(1.0 + ft.h * ft.nu
                         - np.sqrt(1.0 + ft.h * j * j))) < 1e-14
    assert np.max(np.abs(ft.w - np.sqrt(1.0 + ft.h * j * j))) < 1e-15


def test_lambda_monotone_in_abs_j():
    ft = FrequencyTable(c=3.0, M=50)
    lam_pos = ft.lam[ft.M:]
    assert np.all(np.diff(lam_pos) > 0)
    assert np.allclose(ft.lam, ft.lam[::-1])   # even in j


def test_parameter_validation():
    with pytest.raises(ValueError):
        lambda_freq(0.0, 1)
    with pytest.raises(ValueError):
        nu(-1.0, 1)
    with pytest.raises(ValueError):
        FrequencyTable(c=1.0, M=0)
    with pytest.raises(ValueError):
        FrequencyTable(c=math.nan, M=4)
    with pytest.raises(ValueError):
        SpaceParams(p=0.25)


def test_table_arrays_are_indexed_by_j_plus_M():
    ft = FrequencyTable(c=2.0, M=4)
    assert ft.lam[-3 + ft.M] == ft.lam[3 + ft.M] == 2.0 * math.sqrt(13.0)
    assert ft.nu[0 + ft.M] == 0.0 and ft.w[0 + ft.M] == 1.0
    assert ft.rest == 4.0


def test_infinite_c_table_is_the_schrodinger_limit():
    # c = inf: h = 0, nu = lambda = j^2/2, w = 1 and rest = 0, exactly
    M = 40
    ft = FrequencyTable(c=math.inf, M=M)
    j = np.arange(-M, M + 1)
    half_j2 = np.array([jj * jj / 2 for jj in j.tolist()])
    assert ft.h == 0.0 and ft.rest == 0.0
    assert np.array_equal(ft.nu, half_j2)
    assert np.array_equal(ft.lam, half_j2)
    assert np.array_equal(ft.w, np.ones(2 * M + 1))
    assert nu(0.0, 7) == 24.5


def test_mode_weights_structure():
    ft = FrequencyTable(c=2.0, M=8)
    params = SpaceParams(a=0.1, p=2.0, beta=1.0, M=8)
    wts = mode_weights(params, ft)
    j = 3
    expect = math.exp(0.2 * j) * (1 + j * j) ** 2.0 * ft.w[j + 8] ** 2
    assert abs(wts[j + 8] - expect) < 1e-12 * expect
    assert np.allclose(wts, wts[::-1])


def test_seq_norm_single_mode():
    ft = FrequencyTable(c=2.0, M=8)
    params = SpaceParams(a=0.0, p=1.0, beta=0.0, M=8)
    x = np.zeros(17)
    x[8 + 2] = 3.0
    assert abs(seq_norm(x, params, ft) - 3.0 * math.sqrt(5.0)) < 1e-13


def test_weighted_norm_doubles():
    # over the pair (z, zbar) of a real state the norm is sqrt(2) times
    # the norm of z: zbar carries the same weighted mass
    ft = FrequencyTable(c=2.0, M=8)
    params = SpaceParams(M=8)
    st_ = FourierState.from_modes(8, {1: 0.5 + 0.2j, -3: 0.1j})
    one = seq_norm(st_.z, params, ft)
    both = math.hypot(one, seq_norm(st_.zbar, params, ft))
    assert abs(both - math.sqrt(2.0) * one) < 1e-13


@given(st.floats(0.5, 5.0), st.floats(0.6, 5.0), st.floats(0.6, 5.0))
@settings(max_examples=25, deadline=None)
def test_seq_norm_monotone_in_p(c, p_lo, dp):
    ft = FrequencyTable(c=c, M=6)
    x = np.random.default_rng(1).normal(size=13)
    lo = seq_norm(x, SpaceParams(p=p_lo, M=6), ft)
    hi = seq_norm(x, SpaceParams(p=p_lo + dp, M=6), ft)
    assert hi >= lo - 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        FourierState(np.zeros(4), np.zeros(4))
    st_ = FourierState.from_modes(3, {1: 1.0 + 1j})
    assert st_.real_representation()
    st_.zbar = st_.zbar + 1.0
    assert not st_.real_representation()


@pytest.mark.parametrize("mode", [-9, 5, 9])
def test_from_modes_rejects_mode_outside_window(mode):
    # -9 at M=4 used to write through index -5 and excite mode 0
    with pytest.raises(ValueError, match=rf"\[{mode}\]"):
        FourierState.from_modes(4, {1: 0.1, mode: 0.01})
