"""The torus-lab kernels against the implementations they replaced.

`ref_invariance_residual` is the per-angle, per-harmonic loop over a dict of
harmonic tuples that the array residual `E @ C` replaced.
`ref_refine_torus` is the forward-difference Gauss-Newton solve that the
closed-form Jacobian of `kgnls.torus_lab._invariance_jacobian` replaced: it
differences the public `invariance_residual` column by column and reads the
smallest singular value from a separate SVD.  `ref_integrate` is the Strang
step that carried zbar through the rotation and the RK4 stages as an
independent component, with its own two-component nonlinear field
`ref_nonlinear_rhs`: full convolutions with the reflected conjugate, read
back on the mode window, in place of the valid-mode correlation of
`TruncatedSystem.nonlinear_rhs`.  They share with the code under test only
the residual, the harmonic and angle orders and the truncated system's
tables.
"""

import math

import numpy as np
import pytest

from kgnls import torus_lab
from kgnls.spectral_core import FourierState
from kgnls.torus_lab import (RefineReport, SimulationRecord, TorusEmbedding,
                             TruncatedSystem, _collocation_angles, _harmonics,
                             _phases, default_dt, integrate,
                             invariance_residual, linear_torus,
                             matched_torus_pair)


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


def ref_integrate(system, z0, T, record_every=100):
    dt = default_dt(system)
    n_steps = max(1, int(round(T / dt)))
    rot_half_z = np.exp(-0.5j * dt * system.linear_freqs)
    rot_half_zb = np.conj(rot_half_z)

    z = z0.z.copy()
    zb = z0.zbar.copy()
    times, states, ham, mass, mom = [], [], [], [], []

    def record(t):
        st = FourierState(z.copy(), zb.copy())
        times.append(t)
        states.append(st)
        ham.append(system.hamiltonian_value(st))
        mass.append(system.mass(st))
        mom.append(system.momentum(st))

    def f(a, b):
        return ref_nonlinear_rhs(system, a, b)

    record(0.0)
    for step in range(1, n_steps + 1):
        z *= rot_half_z
        zb *= rot_half_zb
        k1 = f(z, zb)
        k2 = f(z + 0.5 * dt * k1[0], zb + 0.5 * dt * k1[1])
        k3 = f(z + 0.5 * dt * k2[0], zb + 0.5 * dt * k2[1])
        k4 = f(z + dt * k3[0], zb + dt * k3[1])
        z = z + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        zb = zb + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        z *= rot_half_z
        zb *= rot_half_zb
        if step % record_every == 0 or step == n_steps:
            record(step * dt)
    return SimulationRecord(times=np.array(times), states=states,
                            hamiltonian=np.array(ham), mass=np.array(mass),
                            momentum=np.array(mom))


def ref_invariance_residual(emb, system):
    coeffs = dict(zip(_harmonics(emb.N, emb.Q), emb.coeffs))
    rows = []
    for theta in _collocation_angles(emb.N, emb.Q):
        z = np.zeros(2 * emb.M + 1, dtype=complex)
        dz = np.zeros(2 * emb.M + 1, dtype=complex)
        for q, cq in coeffs.items():
            ph = np.exp(1j * float(np.dot(q, theta)))
            z += cq * ph
            dz += 1j * float(np.dot(q, emb.omega)) * cq * ph
        fz, _ = system.rhs(FourierState(z=z, zbar=np.conj(z)))
        rows.append(dz - fz)
    return np.concatenate(rows)


def pack(emb, with_omega):
    """The unknowns [Re C, Im C(, omega)] of `refine_torus`."""
    return np.concatenate([emb.coeffs.real.ravel(), emb.coeffs.imag.ravel()]
                          + ([emb.omega] if with_omega else []))


def unpack(x, emb, with_omega):
    size = emb.coeffs.size
    return TorusEmbedding(
        J=emb.J, M=emb.M, Q=emb.Q,
        omega=x[2 * size:].copy() if with_omega else emb.omega.copy(),
        coeffs=(x[:size] + 1j * x[size:2 * size]).reshape(emb.coeffs.shape))


def ref_refine_torus(emb, system, mode="fixed_frequency", tol=1e-10,
                     max_iter=25, fd_eps=1e-7):
    with_omega = mode == "fixed_amplitude"
    order = _harmonics(emb.N, emb.Q)
    fund = [order.index(tuple(1 if i == n else 0 for i in range(emb.N)))
            for n in range(emb.N)]
    targets = [float(emb.coeffs[h, j + emb.M].real)
               for h, j in zip(fund, emb.J)]

    def residual(x):
        e = unpack(x, emb, with_omega)
        res = invariance_residual(e, system)
        rows = [res.real, res.imag]
        for h, j in zip(fund, emb.J):
            rows.append(np.array([e.coeffs[h, j + emb.M].imag]))
        if with_omega:
            for h, j, t in zip(fund, emb.J, targets):
                rows.append(np.array([e.coeffs[h, j + emb.M].real - t]))
        return np.concatenate(rows)

    x = pack(emb, with_omega)
    r = residual(x)
    history = [float(np.max(np.abs(r)))]
    smin = None
    for it in range(max_iter):
        if history[-1] < tol:
            return unpack(x, emb, with_omega), RefineReport(
                converged=True, iterations=it, defect_history=history,
                final_defect=history[-1], smallest_singular_value=smin)
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


def central_jacobian(emb, system, with_omega, h=1e-6):
    """Central differences of [Re r; Im r] over the packed unknowns."""
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
    """A linear torus with every harmonic perturbed at 1% of its amplitude."""
    xi = np.full(len(J), 1e-4)
    omega = -np.array([0.5 * j * j for j in J]) - 3.0 / (8.0 * math.pi) * xi
    if kind == "kg":
        omega = omega - c * c
    emb = linear_torus(xi, J, M, Q, omega)
    rng = np.random.default_rng(seed)
    for h in range(len(emb.coeffs)):
        noise = rng.normal(size=(2, 2 * M + 1))
        emb.coeffs[h] += 1e-4 * (noise[0] + 1j * noise[1])
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
    jac = torus_lab._invariance_jacobian(emb.coeffs, emb.omega, system, E,
                                         emb.qs, with_omega)
    ref = central_jacobian(emb, system, with_omega)
    assert jac.shape == ref.shape
    assert np.max(np.abs(jac - ref)) < 1e-9 * np.max(np.abs(ref))


@pytest.mark.parametrize("c", [110.0, 150.0, 240.0])
def test_refined_kg_torus_matches_forward_difference_solve(c):
    emb_nls, emb_kg, rep_nls, rep_kg = matched_torus_pair(1e-2, c, (1,),
                                                          16, 3)
    seed = emb_nls.copy()
    seed.omega = emb_nls.omega - c * c
    kg = TruncatedSystem(kind="kg", M=16, c=c)
    ref, ref_rep = ref_refine_torus(seed, kg)
    assert rep_kg.converged and rep_kg.iterations <= ref_rep.iterations
    # both solves stop within tol of the same torus; a defect d moves the
    # coefficients by at most about d / sigma_min
    bound = 2.0 * max(rep_kg.final_defect, ref_rep.final_defect) \
        / rep_kg.smallest_singular_value
    gap = np.max(np.abs(emb_kg.coeffs - ref.coeffs))
    assert gap <= bound
    assert abs(rep_kg.smallest_singular_value
               - ref_rep.smallest_singular_value) \
        < 0.1 * ref_rep.smallest_singular_value


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


# --- the valid-mode cube and the z-only Strang step ------------------------

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


def test_nls_integrate_is_bit_identical_to_two_component_step():
    nls = TruncatedSystem(kind="nls", M=16)
    T = 2000 * default_dt(nls)
    rec = integrate(nls, Z0, T=T, record_every=250)
    ref = ref_integrate(nls, Z0, T=T, record_every=250)
    assert len(rec.states) == len(ref.states) == 9
    assert np.array_equal(rec.times, ref.times)
    for a, b in zip(rec.states, ref.states):
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.zbar, b.zbar)
    for name in ("hamiltonian", "mass", "momentum"):
        assert np.array_equal(getattr(rec, name), getattr(ref, name))


def test_kg_integrate_matches_two_component_step():
    kg = TruncatedSystem(kind="kg", M=16, c=10.0)
    T = 2000 * default_dt(kg)
    rec = integrate(kg, Z0, T=T, record_every=250)
    ref = ref_integrate(kg, Z0, T=T, record_every=250)
    assert np.array_equal(rec.times, ref.times)
    scale = np.max(np.abs(Z0.z))
    for a, b in zip(rec.states, ref.states):
        assert np.max(np.abs(a.z - b.z)) <= 1e-13 * scale
        assert np.max(np.abs(a.zbar - b.zbar)) <= 1e-13 * scale
