"""The torus-lab kernels against the implementations they replaced.

`ref_invariance_residual` is the per-angle, per-harmonic loop over a dict of
harmonic tuples that the array residual replaced.  `ref_refine_torus` is
the forward-difference Gauss-Newton solve on the dense store, one
coefficient per (harmonic, mode), that the support solve with the
closed-form Jacobian of `kgnls.torus_lab._invariance_jacobian` replaced: it
differences the dense residual `E @ C` column by column, pins the phase
with a residual row and reads the smallest singular value from a separate
SVD.  `ref_integrate` is the Lawson RK4 step with zbar carried as an
independent component, rotated by the conjugate exponentials, and its own
two-component nonlinear field `ref_nonlinear_rhs`: full convolutions with
the reflected conjugate, read back on the mode window, in place of the
valid-mode correlation of `TruncatedSystem.nonlinear_rhs`.  It scales each
stage by the field's factor and the step's h/2, h, h/6 and rotations one
at a time, where `integrate` folds them into its stage coefficients.
`ref_flow_time1` is the normal-form flow's two-component RK4 loop that the
stacked [z, zbar] step of the shared `_rk4` replaced.  `ref_gauge_distance`
takes `seq_norm` of each sample on its own, where `gauge_distance` passes
all samples as the rows of one array.  They share with the
code under test only the truncated field (and, for the flow, the
polynomial vector field), the harmonic and angle orders and the truncated
system's tables; `ref_integrate` reads its traces from
`TruncatedSystem.traces`.
"""

import math

import numpy as np
import pytest

from kgnls import torus_lab
from kgnls.birkhoff import (solve_cohomological_nls,
                            solve_cohomological_quartic)
from kgnls.hamiltonian import (PolyHamiltonian, build_P, build_P_nls,
                               vector_field)
from kgnls.spectral_core import (FourierState, FrequencyTable, SpaceParams,
                                 seq_norm)
from kgnls.torus_lab import (RefineReport, SimulationRecord, TorusEmbedding,
                             TruncatedSystem, _collocation_angles, _harmonics,
                             _on_modes, _phases, default_dt, flow_time1,
                             gauge_distance, integrate, invariance_residual,
                             linear_torus, matched_torus_pair)


# --- references ------------------------------------------------------------

def _conv_full(a, b):
    return np.convolve(a, b)


def _window(full, M):
    """Central window |j| <= M of a full convolution array."""
    center = (len(full) - 1) // 2
    return full[center - M:center + M + 1]


def ref_nonlinear_rhs(system, z, zbar):
    M = system.M
    if system.kind == "kg":
        g = (z + zbar[::-1]) / system._sw
        cube = _window(_conv_full(_conv_full(g, g), g), M)
        dz = -1j / (8.0 * math.pi) * cube / system._sw
        dzb = 1j / (8.0 * math.pi) * cube[::-1] / system._sw
        return dz, dzb
    zeta = zbar[::-1]
    cube = _window(_conv_full(_conv_full(z, z), zeta), M)
    dz = -3j / (8.0 * math.pi) * cube
    cube_b = _window(_conv_full(_conv_full(zbar, zbar), z[::-1]), M)
    dzb = 3j / (8.0 * math.pi) * cube_b
    return dz, dzb


def ref_integrate(system, z0, T, frame_dt):
    """The record, with the traces of `TruncatedSystem.traces` at the
    frames, and the independently stepped zbar at each frame: frames at
    k frame_dt < T and at T, ceil(interval / dt) equal steps per interval."""
    dt = default_dt(system)
    n_frames = math.ceil(T / frame_dt - 1e-9)
    times = [k * frame_dt for k in range(n_frames)] + [T]

    z = z0.z.copy()
    zb = z0.zbar.copy()
    zs, zbs = [z.copy()], [zb.copy()]

    def f(a, b):
        return ref_nonlinear_rhs(system, a, b)

    for k in range(n_frames):
        length = frame_dt if k < n_frames - 1 else T - times[-2]
        n_steps = math.ceil(length / dt - 1e-9)
        h = length / n_steps
        half_z = np.exp(-0.5j * h * system.linear_freqs)
        full_z = np.exp(-1j * h * system.linear_freqs)
        half_zb, full_zb = np.conj(half_z), np.conj(full_z)
        for _ in range(n_steps):
            # RK4 on (e^{i Lambda t} z, e^{-i Lambda t} zbar)
            zh, zbh = half_z * z, half_zb * zb
            zf, zbf = full_z * z, full_zb * zb
            k1 = f(z, zb)
            k1 = (half_z * k1[0], half_zb * k1[1])
            k2 = f(zh + 0.5 * h * k1[0], zbh + 0.5 * h * k1[1])
            k3 = f(zh + 0.5 * h * k2[0], zbh + 0.5 * h * k2[1])
            k4 = f(zf + h * half_z * k3[0], zbf + h * half_zb * k3[1])
            z = zf + h / 6.0 * (half_z * (k1[0] + 2 * (k2[0] + k3[0]))
                                + k4[0])
            zb = zbf + h / 6.0 * (half_zb * (k1[1] + 2 * (k2[1] + k3[1]))
                                  + k4[1])
        zs.append(z.copy())
        zbs.append(zb.copy())
    zs = np.array(zs)
    return (SimulationRecord(np.array(times), zs, *system.traces(zs)),
            np.array(zbs))


def ref_flow_time1(G, state, steps=64):
    z = state.z.copy()
    zb = state.zbar.copy()
    h = 1.0 / steps
    start = float(np.max(np.abs(z)))
    limit = 10.0 * max(start, 1e-12)
    for _ in range(steps):
        def f(zz, zzb):
            return vector_field(G, FourierState(zz, zzb))
        k1 = f(z, zb)
        k2 = f(z + 0.5 * h * k1[0], zb + 0.5 * h * k1[1])
        k3 = f(z + 0.5 * h * k2[0], zb + 0.5 * h * k2[1])
        k4 = f(z + h * k3[0], zb + h * k3[1])
        z = z + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        zb = zb + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        if np.max(np.abs(z)) > limit:
            raise RuntimeError("flow escaped the analyticity ball")
    return FourierState(z, zb)


def ref_gauge_distance(emb_kg, emb_nls, params, c, sigma, T, n_samples):
    times = np.linspace(0.0, T, n_samples)

    def orbit(emb):
        return _on_modes(emb, _phases(np.outer(times, emb.omega), emb.qs),
                         emb.coeffs)

    diff = np.exp(1j * c * c * times)[:, None] * orbit(emb_kg) - orbit(emb_nls)
    pp = SpaceParams(a=params.a, p=params.p - 4.0 * sigma, beta=params.beta,
                     M=params.M)
    ft = FrequencyTable(c=c, M=params.M)
    return np.array([seq_norm(d, pp, ft) for d in diff])


def ref_invariance_residual(emb, system):
    coeffs = dict(zip(map(tuple, emb.qs), emb.coeffs))
    rows = []
    for theta in _collocation_angles(emb.N, emb.Q):
        z = np.zeros(2 * emb.M + 1, dtype=complex)
        dz = np.zeros(2 * emb.M + 1, dtype=complex)
        for q, cq in coeffs.items():
            ph = np.exp(1j * float(np.dot(q, theta)))
            k = emb.M + int(np.dot(q, emb.J))
            z[k] += cq * ph
            dz[k] += 1j * float(np.dot(q, emb.omega)) * cq * ph
        fz = system.nonlinear_rhs(z) - 1j * system.linear_freqs * z
        rows.append(dz - fz)
    return np.concatenate(rows)


def dense(emb):
    """The (harmonic, mode) array of the dense store: C_q on mode q . J."""
    order = _harmonics(emb.N, emb.Q)
    C = np.zeros((len(order), 2 * emb.M + 1), dtype=complex)
    for q, k, cq in zip(emb.qs, emb.modes, emb.coeffs):
        C[order.index(tuple(q)), k + emb.M] = cq
    return C


def ref_dense_residual(C, omega, qs, E, system):
    """[Re r; Im r] of the dense store, E[a, h] = exp(i q_h . theta_a)."""
    Z = E @ C
    dZ = E @ (1j * (qs @ omega)[:, None] * C)
    fZ = np.array([system.nonlinear_rhs(z) for z in Z]) \
        - 1j * system.linear_freqs * Z
    res = (dZ - fZ).ravel()
    return np.concatenate([res.real, res.imag])


def ref_refine_torus(emb, system, tol=1e-10, max_iter=25, fd_eps=1e-7):
    """Fixed-frequency solve over every (harmonic, mode) coefficient, with
    one row Im C = 0 per fundamental; returns the dense coefficients, the
    report and the last Jacobian."""
    C0 = dense(emb)
    shape, size = C0.shape, C0.size
    order = _harmonics(emb.N, emb.Q)
    fund = [order.index(tuple(int(i == n) for i in range(emb.N)))
            * shape[1] + j + emb.M for n, j in enumerate(emb.J)]
    qs = np.array(order, dtype=float)
    E = _phases(_collocation_angles(emb.N, emb.Q), qs)

    def residual(x):
        C = (x[:size] + 1j * x[size:]).reshape(shape)
        return np.concatenate([ref_dense_residual(C, emb.omega, qs, E,
                                                  system),
                               x[size + np.array(fund)]])

    x = np.concatenate([C0.real.ravel(), C0.imag.ravel()])
    r = residual(x)
    history = [float(np.max(np.abs(r)))]
    smin = Jac = None
    for it in range(max_iter):
        if history[-1] < tol:
            return (x[:size] + 1j * x[size:]).reshape(shape), RefineReport(
                converged=True, iterations=it, defect_history=history,
                final_defect=history[-1], smallest_singular_value=smin), Jac
        Jac = np.empty((len(r), len(x)))
        for col in range(len(x)):
            xp = x.copy()
            xp[col] += fd_eps
            Jac[:, col] = (residual(xp) - r) / fd_eps
        sv = np.linalg.svd(Jac, compute_uv=False)
        smin = float(sv[-1])
        step, *_ = np.linalg.lstsq(Jac, -r, rcond=None)
        lam = 1.0
        for _ in range(6):
            xn = x + lam * step
            rn = residual(xn)
            if np.max(np.abs(rn)) < history[-1]:
                break
            lam *= 0.5
        else:
            raise AssertionError("reference line search stalled")
        x, r = xn, rn
        history.append(float(np.max(np.abs(r))))
    raise AssertionError("reference solve did not converge")


def pack(emb, with_omega):
    """The unknowns [Re C, Im C(, omega)] of `_invariance_jacobian`."""
    return np.concatenate([emb.coeffs.real, emb.coeffs.imag]
                          + ([emb.omega] if with_omega else []))


def unpack(x, emb, with_omega):
    size = len(emb.coeffs)
    return TorusEmbedding(
        J=emb.J, M=emb.M, Q=emb.Q,
        omega=x[2 * size:].copy() if with_omega else emb.omega.copy(),
        coeffs=x[:size] + 1j * x[size:2 * size])


def central_jacobian(emb, system, with_omega, h=1e-6):
    """Central differences of [Re r; Im r] over the support unknowns."""
    def residual(x):
        res = invariance_residual(unpack(x, emb, with_omega), system)
        return np.concatenate([res.real, res.imag])

    x = pack(emb, with_omega)
    cols = []
    for k in range(len(x)):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((residual(x + step) - residual(x - step)) / (2.0 * h))
    return np.stack(cols, axis=1)


def perturbed_seed(kind, c, J, M, Q, seed):
    """A linear torus with every supported harmonic perturbed at 1% of its
    amplitude."""
    xi = np.full(len(J), 1e-4)
    omega = -np.array([0.5 * j * j for j in J]) - 3.0 / (8.0 * math.pi) * xi
    if kind == "kg":
        omega = omega - c * c
    emb = linear_torus(xi, J, M, Q, omega)
    noise = np.random.default_rng(seed).normal(size=(2, len(emb.coeffs)))
    emb.coeffs += 1e-4 * (noise[0] + 1j * noise[1])
    return emb


# --- the array residual ----------------------------------------------------

@pytest.mark.parametrize("kind,c", [("kg", 10.0), ("kg", 150.0),
                                    ("nls", None)])
@pytest.mark.parametrize("J,M,Q,seed", [((1,), 8, 2, 0), ((1,), 6, 3, 1),
                                        ((1, 2), 4, 1, 2)])
def test_array_residual_matches_per_angle_loop(kind, c, J, M, Q, seed):
    emb = perturbed_seed(kind, c, J, M, Q, seed)
    system = TruncatedSystem(kind=kind, M=M, c=c)
    res = invariance_residual(emb, system)
    ref = ref_invariance_residual(emb, system)
    assert res.shape == ref.shape
    assert np.max(np.abs(res - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- the closed-form Jacobian ----------------------------------------------

@pytest.mark.parametrize("mode", ["fixed_frequency", "fixed_amplitude"])
@pytest.mark.parametrize("kind,c", [("kg", 10.0), ("kg", 150.0),
                                    ("nls", None)])
@pytest.mark.parametrize("J,M,Q,seed", [((1,), 8, 2, 0), ((1,), 6, 3, 1),
                                        ((1, 2), 4, 1, 2)])
def test_analytic_jacobian_matches_central_differences(mode, kind, c, J, M,
                                                       Q, seed):
    emb = perturbed_seed(kind, c, J, M, Q, seed)
    system = TruncatedSystem(kind=kind, M=M, c=c)
    with_omega = mode == "fixed_amplitude"
    E = _phases(_collocation_angles(emb.N, emb.Q), emb.qs)
    jac = torus_lab._invariance_jacobian(emb, system, E, with_omega)
    ref = central_jacobian(emb, system, with_omega)
    assert jac.shape == ref.shape
    assert np.max(np.abs(jac - ref)) < 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("J,M,c", [((1,), 16, 110.0), ((1,), 16, 150.0),
                                   ((1,), 16, 240.0), ((1, 2), 4, 240.0)])
def test_refined_kg_torus_matches_forward_difference_solve(J, M, c):
    emb_nls, emb_kg, rep_nls, rep_kg = matched_torus_pair(1e-2, c, J, M, 3)
    seed = emb_nls.copy()
    seed.omega = emb_nls.omega - c * c
    kg = TruncatedSystem(kind="kg", M=M, c=c)
    # tol below the solve's 1e-10, so that the reference's own stopping
    # error stays well inside the bound below
    ref, ref_rep, ref_jac = ref_refine_torus(seed, kg, tol=1e-11)
    assert rep_kg.converged and rep_kg.iterations <= ref_rep.iterations
    # both solves stop within tol of the same torus; a defect d moves the
    # coefficients by at most about d / sigma_min
    bound = 2.0 * max(rep_kg.final_defect, ref_rep.final_defect) \
        / rep_kg.smallest_singular_value
    assert np.max(np.abs(dense(emb_kg) - ref)) <= bound
    # the support solve's sigma_min is the reference Jacobian's on the
    # support columns it solves for (the fundamentals' Im C are held)
    order = _harmonics(emb_kg.N, emb_kg.Q)
    cols = [order.index(tuple(q)) * (2 * M + 1) + k + M
            for q, k in zip(emb_kg.qs, emb_kg.modes)]
    held = [cols[s] for s in emb_kg.fundamentals]
    cols += [ref.size + col for col in cols if col not in held]
    smin = np.linalg.svd(ref_jac[:, cols], compute_uv=False)[-1]
    assert abs(rep_kg.smallest_singular_value - smin) < 0.1 * smin


def test_refine_makes_few_residual_calls(monkeypatch):
    calls = []
    real = torus_lab.invariance_residual

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(torus_lab, "invariance_residual", counted)
    _, _, _, rep_kg = matched_torus_pair(1e-2, 150.0, (1,), 16, 3)
    assert rep_kg.iterations >= 1
    # the NLS seed and the KG seed once each, then at most six line-search
    # trials per Newton step
    assert len(calls) <= 2 + 6 * rep_kg.iterations


# --- the valid-mode cube and the z-only Lawson step ------------------------

@pytest.mark.parametrize("kind", ["kg", "nls"])
@pytest.mark.parametrize("M", [1, 2, 7, 16, 40])
@pytest.mark.parametrize("c", [1.0, 10.0, 1e3])
def test_nonlinear_rhs_is_bit_identical_to_windowed_convolutions(kind, M, c):
    system = TruncatedSystem(kind=kind, M=M, c=c)
    rng = np.random.default_rng(M)
    for scale in (1e-3, 1e-2, 1e-1, 1.0):
        z = scale * (rng.normal(size=2 * M + 1)
                     + 1j * rng.normal(size=2 * M + 1))
        assert np.array_equal(system.nonlinear_rhs(z),
                              ref_nonlinear_rhs(system, z, np.conj(z))[0])


Z0 = FourierState.from_modes(16, {1: 0.01, 2: 0.005 + 0.003j})
# every mode of the window occupied, z_j = 0.01 e^{i phi_j} / (1 + |j|), so
# the folded stage coefficients of all 33 modes enter at full weight (Z0
# leaves its excited modes bit-identical)
_PHI = np.random.default_rng(16).uniform(0.0, 2.0 * math.pi, 33)
Z_ALL = FourierState.from_modes(16, {
    j: 0.01 * np.exp(1j * phi) / (1 + abs(j))
    for j, phi in zip(range(-16, 17), _PHI)})


def test_nls_integrate_matches_two_component_step():
    nls = TruncatedSystem(kind="nls", M=16)
    # 8 frame intervals of 250 steps, then a shorter one of 100
    T = 2100 * default_dt(nls)
    frame_dt = 250 * default_dt(nls)
    rec = integrate(nls, Z0, T=T, frame_dt=frame_dt)
    ref, ref_zbar = ref_integrate(nls, Z0, T=T, frame_dt=frame_dt)
    assert rec.z.shape == ref.z.shape == (10, 33)
    assert np.array_equal(rec.times, ref.times)
    # the folded stage coefficients round differently on the small,
    # nonlinearly generated modes: measured 6.8e-21 max|z0| in z and zbar;
    # the excited modes and the traces stay bit-identical
    scale = np.max(np.abs(Z0.z))
    assert np.max(np.abs(rec.z - ref.z)) <= 1e-13 * scale
    assert np.max(np.abs(np.conj(rec.z) - ref_zbar)) <= 1e-13 * scale
    assert np.array_equal(rec.z[:, [17, 18]], ref.z[:, [17, 18]])
    for name in ("hamiltonian", "mass", "momentum"):
        assert np.array_equal(getattr(rec, name), getattr(ref, name))


@pytest.mark.parametrize("kind,c,z0", [("kg", 10.0, Z0),
                                        ("nls", None, Z_ALL),
                                        ("kg", 10.0, Z_ALL)],
                         ids=["kg", "nls-all-modes", "kg-all-modes"])
def test_integrate_matches_two_component_step(kind, c, z0):
    # measured 3.6e-20 max|z0| for KG on Z0, and 0 on Z_ALL
    system = TruncatedSystem(kind=kind, M=16, c=c)
    T = 2100 * default_dt(system)
    frame_dt = 250 * default_dt(system)
    rec = integrate(system, z0, T=T, frame_dt=frame_dt)
    ref, ref_zbar = ref_integrate(system, z0, T=T, frame_dt=frame_dt)
    assert np.array_equal(rec.times, ref.times)
    scale = np.max(np.abs(z0.z))
    assert np.max(np.abs(rec.z - ref.z)) <= 1e-13 * scale
    assert np.max(np.abs(np.conj(rec.z) - ref_zbar)) <= 1e-13 * scale


# --- the stacked RK4 step of the normal-form flow --------------------------

J3 = (1, 2, 3)


def _normal_form_G(kind, M):
    if kind == "kg":
        ft = FrequencyTable(c=10.0, M=M)
        return solve_cohomological_quartic(build_P(ft), ft, J3).G
    return solve_cohomological_nls(build_P_nls(M), J3, M).G


@pytest.mark.parametrize("kind", ["kg", "nls"])
def test_flow_time1_is_bit_identical_to_two_component_rk4(kind):
    M = 6
    G = _normal_form_G(kind, M)
    st = FourierState.from_modes(M, {1: 0.01, 2: 0.01j, 3: -0.01})
    a = flow_time1(G, st, steps=8)
    b = ref_flow_time1(G, st, steps=8)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.zbar, b.zbar)
    assert not np.array_equal(a.z, st.z)


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_gauge_distance_is_bit_identical_to_per_sample_norms(sigma):
    # at N=2 a plain row sum differs from fsum in the last bit of some
    # samples
    c, M = 300.0, 8
    emb_nls, emb_kg, _, _ = matched_torus_pair(1e-2, c, (1, 2), M, 3)
    params = SpaceParams(a=0.1, p=5.0, beta=0.5, M=M)
    trace, sup = gauge_distance(emb_kg, emb_nls, params, c, sigma, 40.0, 96)
    want = ref_gauge_distance(emb_kg, emb_nls, params, c, sigma, 40.0, 96)
    assert trace.tobytes() == want.tobytes()
    assert sup == np.max(want)


def test_flow_time1_raises_when_the_flow_leaves_the_ball():
    # G = 50i z_1 zbar_1: z_1' = -i dG/dzbar_1 = 50 z_1 grows like e^{50 t}
    G = PolyHamiltonian({((1, 1), (1, -1)): 50j})
    st = FourierState.from_modes(2, {1: 0.01})
    with pytest.raises(RuntimeError, match="escaped the analyticity ball"):
        flow_time1(G, st)
