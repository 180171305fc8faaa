"""Frequency maps and the rank-one-update inverse."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from kgnls.divisors import _k_rows, enumerate_ell
from kgnls.frequencies import (Omega0, Omega0_remainder, bateman_inverse,
                               bateman_norm_bound, build_model, nls_model,
                               omega0, omega0_remainder)

TWO_PI = 2.0 * math.pi


@pytest.mark.parametrize("N", [3, 5, 8])
@pytest.mark.parametrize("c", [2.0, 10.0, 1e3])
def test_bateman_inverse_identity(N, c):
    model = build_model(c, tuple(range(1, N + 1)), max(N + 4, 12), 1e-2)
    Ainv = bateman_inverse(model)
    err = np.max(np.abs(model.A @ Ainv - np.eye(N)))
    assert err < 1e-12


def test_bateman_norm_bound():
    model = build_model(5.0, (1, 2, 3), 12, 1e-2)
    Ainv = bateman_inverse(model)
    # induced l1 -> l1 norm is the max column sum
    norm = np.max(np.sum(np.abs(Ainv), axis=0))
    assert norm <= bateman_norm_bound(model)


def nls_maps(model, xi):
    """The Schrodinger maps j^2/2 + N xi, N_ij = 3/(8 pi) (2 - delta_ij)."""
    J = np.array(model.J, dtype=float)
    modes = model.normal_modes.astype(float)
    n = 3.0 / (8.0 * math.pi)
    return (0.5 * J * J + n * (2.0 - np.eye(model.N)) @ xi,
            0.5 * modes ** 2 + 2.0 * n * np.sum(xi))


def test_matrix_entries_oracle():
    # A_ij = (3/8pi)(2 - delta_ij) / (w_i w_j)
    model = build_model(3.0, (1, 2), 8, 1e-2)
    off = 3.0 / TWO_PI / 2.0      # 3/(4 pi)
    diag = 3.0 / TWO_PI / 4.0     # 3/(8 pi)
    w = model.w_J
    assert abs(model.A[0, 1] - off / (w[0] * w[1])) < 1e-14
    assert abs(model.A[0, 0] - diag / w[0] ** 2) < 1e-14


def test_infinite_c_model_has_the_weight_free_matrices():
    # c = inf: w = 1, so A = B = 3/(8pi)(2 - delta) exactly, lambda = j^2/2
    J = (-2, 1, 3)
    model = build_model(math.inf, J, 6, 1e-2)
    N = 3.0 / (8.0 * math.pi) * (2 - np.eye(3))
    assert np.array_equal(model.A, N)
    assert np.array_equal(model.B, np.full((10, 3), N[0, 1]))
    assert np.array_equal(model.lam_J, [j * j / 2 for j in J])
    assert np.array_equal(model.lam_Jc,
                          [j * j / 2 for j in model.normal_modes.tolist()])
    assert model.h == 0.0 and model.freq.rest == 0.0
    # nls_model keeps J, M and the box and drops delta
    kg = replace(build_model(5.0, J, 6, 1e-2), delta=np.ones(3))
    lim = nls_model(kg)
    assert lim.J == model.J and lim.delta is None
    assert np.array_equal(lim.A, model.A)
    assert np.array_equal(lim.xi_hi, kg.xi_hi)


def test_frequency_map_decomposition():
    model = build_model(10.0, (1, 2, 3), 10, 1e-2)
    xi = 0.5 * (model.xi_lo + model.xi_hi)
    c2 = model.c ** 2
    om = omega0(model, xi)
    assert np.max(np.abs(om - (model.lam_J + model.A @ xi))) < 1e-12
    # shifted map = full map minus the c^2 block; remainder is O(h)
    om_nls, Om_nls = nls_maps(model, xi)
    rem = omega0_remainder(model, xi)
    assert np.max(np.abs((om - c2) - om_nls - rem)) < 1e-12
    assert np.max(np.abs(rem)) < 10.0 * model.h
    Rem = Omega0_remainder(model, xi)
    assert np.max(np.abs((Omega0(model, xi) - c2) - Om_nls - Rem)) < 1e-10
    # normal remainder grows like nu^2 h but stays O(h) at fixed truncation
    assert np.max(np.abs(Rem)) < 1e4 * model.h


def b_transpose(model, ell):
    """B^T ell, the gradient of sum ell_n Omega0_n."""
    idx = {int(j): n for n, j in enumerate(model.normal_modes)}
    return sum(v * model.B[idx[j]] for j, v in ell.items())


def test_melnikov_solve_and_bound():
    # the first-Melnikov system A x + B^T ell = 0, solved with the Bateman
    # inverse, obeys |x_j| <= 4 w_j / (2N - 1) for |ell|_1 <= 2
    model = build_model(20.0, (1, 2, 3), 12, 1e-2)
    Ainv = bateman_inverse(model)
    for ell in ({5: 1}, {4: 1, -6: -1}, {7: -2}):
        bt_ell = b_transpose(model, ell)
        x = -Ainv @ bt_ell
        assert np.sum(np.abs(model.A @ x + bt_ell)) < 1e-12
        bound = 4.0 * model.w_J / (2 * model.N - 1)
        assert np.all(np.abs(x) <= bound + 1e-12)


def test_first_melnikov_lower_bound_positive():
    # min over the momentum-zero pairs of |A k + B^T ell|_1 / |k|_1 is
    # positive, with h below the hypothesis threshold 49 / (576 Jmax^2)
    model = build_model(30.0, (1, 2, 3), 10, 1e-2)
    ratios = [np.sum(np.abs(model.A @ k + b_transpose(model, ell)))
              / np.sum(np.abs(k))
              for k in _k_rows(model.N, 2) if k.any()
              for ell in enumerate_ell(k, model.J, model.M)]
    assert ratios and min(ratios) > 0
    assert model.h <= 49.0 / (576.0 * 9)


@pytest.mark.parametrize("J", [(1, 1), (1, 2, 2), (3, 1, 3)])
def test_repeated_mode_is_rejected_by_name(J):
    with pytest.raises(ValueError, match=r"J must not repeat a mode, "
                                         rf"got J = \({J[0]}, "):
        build_model(10.0, J, 8, 1e-2)


def test_check_xi_rejects_outside_box():
    model = build_model(5.0, (1, 2), 8, 1e-2)
    with pytest.raises(ValueError):
        model.check_xi(model.xi_hi * 10.0)


def test_asymptotics_gap_constant():
    # c = 2: normal modes beyond c^3 = 8 exist at M = 24.  For
    # c^3 < |i| < |j| the gap ratio (Omega0_j - Omega0_i) / (c (|j| - |i|))
    # deviates from 1 by O(1/w_i^2), here with a constant below 10
    model = build_model(2.0, (1, 2, 3), 24, 1e-2)
    c = model.c
    far = [n for n, j in enumerate(model.normal_modes) if j > c ** 3]
    modes = model.normal_modes
    const = 0.0
    for xi in model.xi_corners():
        Om = Omega0(model, xi)
        for a, b in itertools.combinations(far, 2):
            gap = (Om[b] - Om[a]) / (c * (modes[b] - modes[a]))
            const = max(const, abs(gap - 1.0) * model.w_Jc[a] ** 2)
    assert far and const < 10.0
