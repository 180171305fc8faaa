"""Truncated flows, conservation, torus refinement, and gauge distances."""

import math
import warnings

import numpy as np
import pytest

from kgnls.frequencies import build_model
from kgnls.hamiltonian import build_Lambda, build_P, build_P_nls, vector_field
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
    dz = system.nonlinear_rhs(st.z) - 1j * system.linear_freqs * st.z
    if kind == "kg":
        ft = FrequencyTable(c=c, M=M)
        H = build_Lambda(ft) + build_P(ft)
    else:
        H = build_Lambda(FrequencyTable(c=math.inf, M=M)) + build_P_nls(M)
    pz, pzb = vector_field(H, st)
    scale = np.max(np.abs(pz)) or 1.0
    assert np.max(np.abs(dz - pz)) < 1e-12 * scale
    assert np.max(np.abs(np.conj(dz) - pzb)) < 1e-12 * scale


def test_hamiltonian_value_matches_polynomial():
    M = 6
    st = random_state(M, seed=2)
    kg = TruncatedSystem(kind="kg", M=M, c=5.0)
    ft = FrequencyTable(c=5.0, M=M)
    H = build_Lambda(ft) + build_P(ft)
    assert abs(kg.traces(st.z[None])[0][0] - H.value(st).real) < 1e-11
    nls = TruncatedSystem(kind="nls", M=M)
    Hn = build_Lambda(FrequencyTable(c=math.inf, M=M)) + build_P_nls(M)
    assert abs(nls.traces(st.z[None])[0][0] - Hn.value(st).real) < 1e-12


def test_conservation_short_run():
    system = TruncatedSystem(kind="nls", M=8)
    z0 = FourierState.from_modes(8, {1: 0.02, -2: 0.01 + 0.005j})
    rec = integrate(system, z0, T=5.0, frame_dt=0.078125)
    assert np.max(np.abs(rec.mass - rec.mass[0])) < 1e-12
    assert np.max(np.abs(rec.momentum - rec.momentum[0])) < 1e-12
    h0 = rec.hamiltonian[0]
    assert np.max(np.abs(rec.hamiltonian - h0)) < 1e-10 * max(abs(h0), 1.0)


def test_kg_conservation_short_run():
    system = TruncatedSystem(kind="kg", M=8, c=4.0)
    z0 = FourierState.from_modes(8, {1: 0.02})
    rec = integrate(system, z0, T=2.0, frame_dt=0.07)
    assert np.max(np.abs(rec.momentum - rec.momentum[0])) < 1e-12
    h0 = rec.hamiltonian[0]
    assert np.max(np.abs(rec.hamiltonian - h0)) < 1e-9 * abs(h0)


@pytest.mark.parametrize("kind,c", [("kg", 10.0), ("nls", None)])
def test_non_real_state_is_rejected(kind, c):
    system = TruncatedSystem(kind=kind, M=4, c=c)
    st = random_state(4, seed=3)
    st.zbar = st.zbar + 1e-6
    with pytest.raises(ValueError, match="not real"):
        integrate(system, st, T=0.1)


def test_nls_system_has_the_parabolic_frequencies():
    j = np.arange(-5, 6)
    nls = TruncatedSystem(kind="nls", M=5)
    assert np.array_equal(nls.linear_freqs, 0.5 * j * j)
    assert np.array_equal(nls._sw, np.ones(11))


@pytest.mark.parametrize("c", [None, 0.0, math.inf])
def test_kg_system_needs_a_positive_finite_c(c):
    with pytest.raises(ValueError, match="positive finite c"):
        TruncatedSystem(kind="kg", M=4, c=c)


def test_strict_mode_rejects_coarse_dt():
    system = TruncatedSystem(kind="kg", M=8, c=10.0)
    z0 = FourierState.from_modes(8, {1: 0.01})
    with pytest.raises(ValueError):
        integrate(system, z0, T=1.0, dt=1.0, strict=True)
    assert default_dt(system) * system.fastest_frequency <= 0.4 + 1e-12


@pytest.mark.parametrize("kind,c,T,frames", [("nls", None, 1e-9, 2),
                                              ("kg", 10.0, 1.0, 39),
                                              ("nls", None, 4.0, 104),
                                              ("nls", None, 10.0, 257)])
def test_last_frame_is_at_T(kind, c, T, frames):
    # the default frames fall at k frame_dt, frame_dt = 5 / lambda_max, and
    # the last at T, not at a rounded step count; 10 is a multiple of 5/128
    system = TruncatedSystem(kind=kind, M=16, c=c)
    z0 = FourierState.from_modes(16, {1: 0.01, 2: 0.005 + 0.003j})
    rec = integrate(system, z0, T=T)
    frame_dt = 5.0 / system.fastest_frequency
    assert len(rec.times) == frames
    assert np.array_equal(rec.times[:-1], frame_dt * np.arange(frames - 1))
    assert rec.times[-1] == T
    assert np.all(np.diff(rec.times) > 0)


def test_a_frame_is_the_state_at_its_time():
    # each interval between frames is stepped on its own, so the run to
    # T = 1 passes through the end state of the run to T = 0.5
    system = TruncatedSystem(kind="kg", M=8, c=4.0)
    z0 = FourierState.from_modes(8, {1: 0.02})
    rec = integrate(system, z0, T=1.0, frame_dt=0.25)
    half = integrate(system, z0, T=0.5, frame_dt=0.25)
    assert np.array_equal(rec.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(rec.z[2], half.z[-1])


# Lawson RK4 at dt * lambda_max = r against a reference at r = 0.05, from
# criterion 09's state at M = 16: the largest |z(T) - z_ref(T)|, measured
# at r = 0.1, 0.4 and 1.6.  A reference at r = 0.0125 agrees with the one
# at r = 0.05 to 2.6e-14 / 3.2e-14 / 2.9e-14, the rounding floor.  KG at
# c = 40 runs to T = 1: its lambda_max is 1723, so T = 10 would take 345k
# reference steps.
ORDER_STUDY = [("nls", None, 10.0, (1.4e-14, 9.0e-15, 8.7e-15)),
               ("kg", 10.0, 10.0, (1.5e-14, 6.1e-14, 2.3e-11)),
               ("kg", 40.0, 1.0, (1.0e-14, 3.4e-14, 9.5e-11))]


@pytest.mark.parametrize("kind,c,T,measured", ORDER_STUDY,
                         ids=["nls", "kg-c10", "kg-c40"])
def test_lawson_order_study(kind, c, T, measured):
    system = TruncatedSystem(kind=kind, M=16, c=c)
    z0 = FourierState.from_modes(16, {1: 0.01, 2: 0.005 + 0.003j})

    def end(r):
        return integrate(system, z0, T=T, dt=r / system.fastest_frequency,
                         frame_dt=T).z[-1]

    ref = end(0.05)
    err = {r: np.max(np.abs(end(r) - ref)) for r in (0.1, 0.4)}
    with pytest.warns(UserWarning, match="does not resolve"):
        err[1.6] = np.max(np.abs(end(1.6) - ref))
    # every error within 10 times its measured value; at the default step
    # (r = 0.4) that is below 1e-12, or 1e-10 of |z0|
    for r, value in zip((0.1, 0.4, 1.6), measured):
        assert err[r] <= 10.0 * value, (r, err[r])
    if kind == "kg":
        # past the guard (r = 1.6) the KG error leaves the rounding floor:
        # the step no longer resolves the e^{+-2 i c^2 t} terms
        assert err[1.6] > 100.0 * err[0.4]


@pytest.mark.parametrize("r", [0.1, 0.4, 1.6, 6.4])
def test_lawson_keeps_the_single_mode_nls_rotating_wave(r):
    # z_1 = R e^{i omega t}, omega = -1/2 - 3 R^2 / (8 pi), solves the
    # truncated NLS flow exactly; the linear part is exact in the step, and
    # RK4 errs on the nonlinear phase by O((3 R^2 h / 8 pi)^5) per step
    R, M, T = 1e-2, 16, 10.0
    system = TruncatedSystem(kind="nls", M=M)
    z0 = FourierState.from_modes(M, {1: R})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # r = 1.6 and 6.4 pass the guard
        rec = integrate(system, z0, T=T, dt=r / system.fastest_frequency)
    omega = -0.5 - 3.0 * R * R / (8.0 * math.pi)
    exact = np.zeros_like(rec.z)
    exact[:, M + 1] = R * np.exp(1j * omega * rec.times)
    # 10 times the largest measured error, 5.3e-15 at r = 0.1 (12,800
    # steps); it falls with the step count, to 3.3e-17 at r = 6.4
    assert np.max(np.abs(rec.z - exact)) < 5e-14


@pytest.mark.parametrize("kind,c,j", [("nls", None, 16), ("nls", None, 1),
                                      ("kg", 10.0, 0)])
def test_strict_mode_rejects_a_resonant_step(kind, c, j):
    # dt * lambda_j = 2 pi: the exponentials of mode j are 1, and the step
    # lies above the dt * lambda_max <= 0.8 guard
    system = TruncatedSystem(kind=kind, M=16, c=c)
    z0 = FourierState.from_modes(16, {1: 0.01})
    dt = 2.0 * math.pi / system.linear_freqs[16 + j]
    with pytest.raises(ValueError, match="does not resolve"):
        integrate(system, z0, T=dt, dt=dt, strict=True)
    with pytest.warns(UserWarning, match="does not resolve"):
        integrate(system, z0, T=dt, dt=dt)


def test_record_roundtrip(tmp_path):
    system = TruncatedSystem(kind="nls", M=4)
    z0 = FourierState.from_modes(4, {1: 0.05})
    rec = integrate(system, z0, T=1.0, frame_dt=0.125)
    path = tmp_path / "frames.bin"
    save_record(path, rec)
    times, states = load_record(path)
    assert np.array_equal(times, rec.times)
    assert np.array_equal([st.z for st in states], rec.z)
    assert np.array_equal([st.zbar for st in states], np.conj(rec.z))


@pytest.mark.parametrize("cut", ["frame boundary", "mid-frame", "header",
                                 "trailing bytes"])
def test_damaged_record_is_rejected(tmp_path, cut):
    system = TruncatedSystem(kind="nls", M=4)
    rec = integrate(system, FourierState.from_modes(4, {1: 0.05}), T=1.0,
                    frame_dt=0.125)
    path = tmp_path / "frames.bin"
    save_record(path, rec)
    data = path.read_bytes()
    frame = 8 + 2 * 16 * 9
    assert len(data) == 20 + len(rec.times) * frame
    path.write_bytes({"frame boundary": data[:-frame],
                      "mid-frame": data[:-frame // 2],
                      "header": data[:12],
                      "trailing bytes": data + b"\0"}[cut])
    with pytest.raises(ValueError):
        load_record(path)


@pytest.mark.parametrize("bad", [{"T": 0.0}, {"T": -1.0}, {"T": math.nan},
                                 {"T": math.inf}, {"dt": -1e-3},
                                 {"dt": 0.0}, {"dt": math.nan},
                                 {"frame_dt": 0.0}, {"frame_dt": -3.0},
                                 {"frame_dt": math.nan},
                                 {"frame_dt": math.inf}])
def test_integrate_rejects_invalid_grid(bad, monkeypatch):
    system = TruncatedSystem(kind="nls", M=4)
    z0 = FourierState.from_modes(4, {1: 0.05})
    calls = []
    monkeypatch.setattr(system, "_dressed_cube",
                        lambda z: calls.append(1) or 0 * z)
    with pytest.raises(ValueError):
        integrate(system, z0, **({"T": 1.0} | bad))
    assert not calls   # rejected before any step


@pytest.mark.parametrize("kind,c,M,M0", [("nls", None, 16, 8),
                                         ("kg", 10.0, 4, 6)])
def test_integrate_rejects_a_state_on_another_window(kind, c, M, M0,
                                                     monkeypatch):
    system = TruncatedSystem(kind=kind, M=M, c=c)
    calls = []
    monkeypatch.setattr(system, "_dressed_cube",
                        lambda z: calls.append(1) or 0 * z)
    with pytest.raises(ValueError, match=rf"\|j\| <= {M0} is not the "
                                         rf"system's \|j\| <= {M}$"):
        integrate(system, FourierState.from_modes(M0, {1: 0.05}), T=1.0)
    assert not calls


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
    # the held amplitude survived the solve
    assert abs(out.coeffs[out.fundamentals[0]].real - R) < 1e-12


def test_matched_pair_and_gauge_distance():
    R, c, M = 1e-2, 150.0, 12
    emb_nls, emb_kg, rep_nls, rep_kg = matched_torus_pair(R, c, (1,), M, 3)
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
    model = build_model(c, emb_kg.J, emb_kg.M, 1e-2)
    return np.linalg.solve(model.A, -emb_kg.omega - model.lam_J)


def test_kg_torus_keeps_its_first_order_amplitude():
    # the seed with NLS amplitudes used to collapse to 4e-8 at J = (2,)
    M, Q, c = 8, 3, 160.0
    _, emb_kg, _, rep_kg = matched_torus_pair(1e-2, c, (2,), M, Q)
    assert rep_kg.converged
    amp = abs(emb_kg.coeffs[emb_kg.fundamentals[0]])
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
    _, emb_kg, _, rep_kg = matched_torus_pair(1e-2, 240.0, (1, 2), 8, 3)
    assert rep_kg.converged and rep_kg.iterations < 4
    xi = first_order_kg_xi(emb_kg, 240.0)
    assert np.all(xi > 0)


def test_unsorted_modes_give_the_tori_of_the_sorted_ones():
    # J is sorted once, so (2, 1) builds the (1, 2) tori bit for bit
    want = matched_torus_pair(1e-2, 240.0, (1, 2), 8, 3)
    got = matched_torus_pair(1e-2, 240.0, (2, 1), 8, 3)
    for a, b in zip(got[:2], want[:2]):
        assert a.J == b.J == (1, 2)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.coeffs, b.coeffs)
    reps = [scaling_study(1e-2, [240.0, 360.0], 1.0, T=10.0, J=J, M=8, Q=3,
                          n_samples=8) for J in ((2, 1), (1, 2))]
    assert reps[0]["rows"] == reps[1]["rows"]
    assert reps[0]["J"] == [1, 2]
    assert all(row["converged"] for row in reps[0]["rows"])


def test_repeated_mode_is_named_before_any_solve():
    # the model used to drop the repeat and fail later on the shape of xi
    with pytest.raises(ValueError, match=r"got J = \(1, 1\)"):
        matched_torus_pair(1e-2, 240.0, (1, 1), 8, 3)
    with pytest.raises(ValueError, match="must not repeat a mode"):
        scaling_study(1e-2, [240.0], 1.0, T=10.0, J=(2, 1, 2), M=8, Q=3,
                      n_samples=8)


def test_embedding_store_is_one_coefficient_per_supported_harmonic():
    J, M, Q = (1, 2), 3, 2
    emb = linear_torus([1e-4, 4e-4], J, M, Q, [-0.5, -2.0])
    support = [q for q in _harmonics(2, Q) if abs(q[0] + 2 * q[1]) <= M]
    assert emb.coeffs.shape == (len(support),) == (17,)
    assert [tuple(q) for q in emb.qs] == support
    assert np.array_equal(emb.modes, [q[0] + 2 * q[1] for q in support])
    assert np.array_equal(emb.coeffs[emb.fundamentals], [1e-2, 2e-2])
    assert np.count_nonzero(emb.coeffs) == 2
    for shape in ((16,), (len(_harmonics(2, Q)),), (17, 2 * M + 1)):
        with pytest.raises(ValueError, match="shape"):
            TorusEmbedding(J=J, M=M, Q=Q, omega=[-0.5, -2.0],
                           coeffs=np.zeros(shape, dtype=complex))


def test_refine_rejects_a_kg_torus_below_q3():
    # the KG cubic puts harmonic 3 e_n on mode 3 j_n, which Q = 2 cannot hold
    emb = linear_torus([1e-4], (1,), 8, 2, [-0.5 - 150.0 ** 2])
    with pytest.raises(ValueError, match="Q >= 3"):
        refine_torus(emb, TruncatedSystem(kind="kg", M=8, c=150.0))


def pad(emb, Q):
    """The embedding in a store with more harmonics, entry by harmonic."""
    out = linear_torus(np.zeros(emb.N), emb.J, emb.M, Q, emb.omega)
    index = {tuple(q): s for s, q in enumerate(out.qs)}
    for q, cq in zip(emb.qs, emb.coeffs):
        out.coeffs[index[tuple(q)]] = cq
    return out


def test_converged_torus_is_invariant_off_the_grid():
    # criterion 09's torus: the 7-point grid it was solved on does not
    # alias its harmonics, so it is invariant on a finer angle grid too
    c, M = 150.0, 16
    emb_nls, emb_kg, _, rep_kg = matched_torus_pair(1e-2, c, (1,), M, 3)
    assert rep_kg.converged
    for emb, system in ((emb_kg, TruncatedSystem(kind="kg", M=M, c=c)),
                        (emb_nls, TruncatedSystem(kind="nls", M=M))):
        fine = pad(emb, 8)
        assert len(fine.coeffs) == 17
        assert invariance_defect(fine, system) < 1e-10


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
    with pytest.warns(UserWarning, match="no slope_vs_c: 0 of 1 rows"):
        rep = scaling_study(1e-2, [50.0], 1.0, T=10.0, M=8, Q=2,
                            n_samples=8)
    assert rep["rows"][0]["admissible"] is False
    assert rep["slope_vs_c"] is None


def test_scaling_study_threshold_is_predicted_bounds():
    rep = scaling_study(1e-2, [50.0], 1.0, T=10.0, M=8, Q=2, n_samples=8)
    assert rep["c_admissible"] == predicted_bounds(
        1e-2, 50.0, 1.0)["c_admissible"] == 1e-2 ** (-73.0 / 72.0)
    for R, sigma in ((1.5, 1.0), (1e-2, -0.5)):
        with pytest.raises(ValueError):
            scaling_study(R, [50.0], sigma, T=10.0, M=8, Q=2, n_samples=8)
