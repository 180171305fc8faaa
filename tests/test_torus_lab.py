"""Truncated flows, conservation, torus refinement, and gauge distances."""

import math

import numpy as np
import pytest

from kgnls.frequencies import build_model
from kgnls.hamiltonian import (build_Lambda, build_Lambda_nls, build_P,
                               build_P_nls, vector_field)
from kgnls.kam_schedule import predicted_bounds
from kgnls.spectral_core import FourierState, FrequencyTable, SpaceParams
from kgnls.torus_lab import (TorusEmbedding, TruncatedSystem, _harmonics,
                             default_dt, gauge_distance, integrate,
                             invariance_defect, linear_torus, load_record,
                             matched_torus_pair, normal_form_torus,
                             refine_torus, save_record, scaling_study)


def random_state(M, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    z = scale * (rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1))
    return FourierState(z, np.conj(z))


@pytest.mark.parametrize("kind,c", [("kg", 10.0), ("nls", None)])
def test_rhs_matches_polynomial_vector_field(kind, c):
    # the convolution evaluation must agree with the independent sparse
    # polynomial derivative of Lambda + quartic part
    M = 6
    system = TruncatedSystem(kind=kind, M=M, c=c)
    st = random_state(M, seed=1)
    dz, dzb = system.rhs(st)
    if kind == "kg":
        ft = FrequencyTable(c=c, M=M)
        H = build_Lambda(ft) + build_P(ft)
    else:
        H = build_Lambda_nls(M) + build_P_nls(M)
    pz, pzb = vector_field(H, st)
    scale = np.max(np.abs(pz)) or 1.0
    assert np.max(np.abs(dz - pz)) < 1e-12 * scale
    assert np.max(np.abs(dzb - pzb)) < 1e-12 * scale


def test_hamiltonian_value_matches_polynomial():
    M = 6
    st = random_state(M, seed=2)
    kg = TruncatedSystem(kind="kg", M=M, c=5.0)
    ft = FrequencyTable(c=5.0, M=M)
    H = build_Lambda(ft) + build_P(ft)
    assert abs(kg.hamiltonian_value(st) - H.value(st).real) < 1e-11
    nls = TruncatedSystem(kind="nls", M=M)
    Hn = build_Lambda_nls(M) + build_P_nls(M)
    assert abs(nls.hamiltonian_value(st) - Hn.value(st).real) < 1e-12


def test_conservation_short_run():
    system = TruncatedSystem(kind="nls", M=8)
    z0 = FourierState.from_modes(8, {1: 0.02, -2: 0.01 + 0.005j})
    rec = integrate(system, z0, T=5.0, record_every=50)
    assert np.max(np.abs(rec.mass - rec.mass[0])) < 1e-12
    assert np.max(np.abs(rec.momentum - rec.momentum[0])) < 1e-12
    h0 = rec.hamiltonian[0]
    assert np.max(np.abs(rec.hamiltonian - h0)) < 1e-10 * max(abs(h0), 1.0)


def test_kg_conservation_short_run():
    system = TruncatedSystem(kind="kg", M=8, c=4.0)
    z0 = FourierState.from_modes(8, {1: 0.02})
    rec = integrate(system, z0, T=2.0, record_every=50)
    assert np.max(np.abs(rec.momentum - rec.momentum[0])) < 1e-12
    h0 = rec.hamiltonian[0]
    assert np.max(np.abs(rec.hamiltonian - h0)) < 1e-9 * abs(h0)


@pytest.mark.parametrize("kind,c", [("kg", 10.0), ("nls", None)])
def test_non_real_state_is_rejected(kind, c):
    system = TruncatedSystem(kind=kind, M=4, c=c)
    st = random_state(4, seed=3)
    st.zbar = st.zbar + 1e-6
    with pytest.raises(ValueError, match="not real"):
        system.rhs(st)
    with pytest.raises(ValueError, match="not real"):
        integrate(system, st, T=0.1)


def test_strict_mode_rejects_coarse_dt():
    system = TruncatedSystem(kind="kg", M=8, c=10.0)
    z0 = FourierState.from_modes(8, {1: 0.01})
    with pytest.raises(ValueError):
        integrate(system, z0, T=1.0, dt=1.0, strict=True)
    assert default_dt(system) * system.fastest_frequency <= 0.05 + 1e-12


def test_record_roundtrip(tmp_path):
    system = TruncatedSystem(kind="nls", M=4)
    z0 = FourierState.from_modes(4, {1: 0.05})
    rec = integrate(system, z0, T=1.0, record_every=20)
    path = tmp_path / "frames.bin"
    save_record(path, rec)
    times, states = load_record(path)
    assert np.array_equal(times, rec.times)
    for a, b in zip(states, rec.states):
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.zbar, b.zbar)


def test_single_mode_nls_rotating_wave_exact():
    # z_1 = R e^{i omega t} with omega = -1/2 - (3/8pi) R^2 solves the
    # truncated flow exactly, so the linear embedding has zero defect
    R = 1e-2
    xi = np.array([R * R])
    omega = np.array([-0.5 - 3.0 / (8.0 * math.pi) * R * R])
    emb = linear_torus(xi, (1,), 8, 2, omega)
    system = TruncatedSystem(kind="nls", M=8)
    assert invariance_defect(emb, system) < 1e-14


def test_refine_converges_from_perturbed_seed():
    R = 1e-2
    xi = np.array([R * R])
    omega = np.array([-0.5 - 3.0 / (8.0 * math.pi) * R * R + 1e-5])
    emb = linear_torus(xi, (1,), 8, 2, omega)
    system = TruncatedSystem(kind="nls", M=8)
    out, rep = refine_torus(emb, system, mode="fixed_amplitude", tol=1e-12)
    assert rep.converged
    assert invariance_defect(out, system) < 1e-12
    # pinned amplitude survived the solve
    fund = _harmonics(1, 2).index((1,))
    assert abs(out.coeffs[fund, 1 + 8].real - R) < 1e-12


def test_matched_pair_and_gauge_distance():
    R, c, M = 1e-2, 150.0, 12
    emb_nls, emb_kg, rep_nls, rep_kg = matched_torus_pair(R, c, (1,), M, 2)
    assert rep_nls.converged and rep_kg.converged
    # frequencies differ by exactly the gauge shift c^2
    assert np.max(np.abs(emb_kg.omega - (emb_nls.omega - c * c))) < 1e-9
    params = SpaceParams(a=0.0, p=5.0, beta=0.0, M=M)
    trace, sup = gauge_distance(emb_kg, emb_nls, params, c, 1.0, 50.0, 64)
    assert trace.shape == (64,)
    assert sup < 1e-1
    assert sup >= np.max(trace) - 1e-15


def first_order_kg_xi(emb_kg, c):
    """xi with A xi = -omega_KG - lambda_J: the first-order KG map."""
    model = build_model(c, emb_kg.J, emb_kg.M, 1e-2, require_min_N=1)
    return np.linalg.solve(model.A, -emb_kg.omega - model.lam_J)


def test_kg_torus_keeps_its_first_order_amplitude():
    # the seed with NLS amplitudes used to collapse to 4e-8 at J = (2,)
    M, Q, c = 8, 2, 160.0
    _, emb_kg, _, rep_kg = matched_torus_pair(1e-2, c, (2,), M, Q)
    assert rep_kg.converged
    amp = abs(emb_kg.coeffs[_harmonics(1, Q).index((1,)), 2 + M])
    root = math.sqrt(first_order_kg_xi(emb_kg, c)[0])
    assert abs(amp - root) < 0.1 * root


def test_kg_torus_without_positive_amplitude_raises():
    # at c = 110 the first-order map has no positive solution on mode 2
    with pytest.raises(RuntimeError, match="mode 2"):
        matched_torus_pair(1e-2, 110.0, (1, 2), 8, 2)
    rep = scaling_study(1e-2, [110.0], 1.0, T=10.0, J=(1, 2), M=8, Q=2,
                        n_samples=8)
    row = rep["rows"][0]
    assert row["admissible"] and not row["converged"]
    assert "no positive amplitude" in row["error"]


def test_two_mode_kg_torus_from_the_amplitude_map():
    _, emb_kg, _, rep_kg = matched_torus_pair(1e-2, 240.0, (1, 2), 8, 2)
    assert rep_kg.converged and rep_kg.iterations < 4
    xi = first_order_kg_xi(emb_kg, 240.0)
    assert np.all(xi > 0)


def test_embedding_store_is_a_harmonic_by_mode_array():
    emb = linear_torus([1e-4, 4e-4], (1, 2), 6, 2, [-0.5, -2.0])
    assert emb.coeffs.shape == (len(_harmonics(2, 2)), 13)
    for shape in ((len(_harmonics(2, 2)), 12), (len(_harmonics(2, 1)), 13),
                  (13,)):
        with pytest.raises(ValueError, match="shape"):
            TorusEmbedding(J=(1, 2), M=6, Q=2, omega=[-0.5, -2.0],
                           coeffs=np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("seed", [
    lambda J: linear_torus([1e-4], J, 8, 2, [-0.5]),
    lambda J: normal_form_torus([1e-4], J, 8, None)],
    ids=["linear_torus", "normal_form_torus"])
@pytest.mark.parametrize("j", [9, -9])
def test_seeds_reject_modes_outside_the_window(seed, j):
    # |j| = M + 1 must fail, not wrap around or overrun the mode window
    with pytest.raises(ValueError, match="outside the window"):
        seed((j,))


def test_normal_form_torus_displacement_small():
    # with G = 0 the map is the identity on the action-angle point
    st = normal_form_torus([1e-4], (1,), 8, None)
    assert abs(st.z[1 + 8] - 1e-2) < 1e-15
    assert np.count_nonzero(st.z) == 1


def test_scaling_study_admissibility_filter():
    rep = scaling_study(1e-2, [50.0], 1.0, T=10.0, M=8, Q=2, n_samples=8)
    assert rep["rows"][0]["admissible"] is False
    assert rep["slope_vs_c"] is None


def test_scaling_study_threshold_is_predicted_bounds():
    rep = scaling_study(1e-2, [50.0], 1.0, T=10.0, M=8, Q=2, n_samples=8)
    assert rep["c_admissible"] == predicted_bounds(
        1e-2, 50.0, 1.0)["c_admissible"] == 1e-2 ** (-73.0 / 72.0)
    for R, sigma in ((1.5, 1.0), (1e-2, -0.5)):
        with pytest.raises(ValueError):
            scaling_study(R, [50.0], sigma, T=10.0, M=8, Q=2, n_samples=8)
