"""Galerkin torus laboratory: truncated flows of the two systems, the
normal-form torus construction, Gauss-Newton refinement of invariant-torus
embeddings, gauge-transformed distances, and the scaling studies.

Right sides (modes |j| <= M, dressing g_j = (z_j + zbar_{-j}) / sqrt(w_j)):
    KG : dz_q/dt = -i lambda_q z_q - (i/8 pi) w_q^{-1/2} (g*g*g)_q
    NLS: dz_m/dt = -(i/2) m^2 z_m - (3 i/8 pi) sum_{j1+j2-j3=m} z z zbar
The cube on the mode window is one valid-mode correlation of the full
self-convolution: sum_{j1+j2-j3=m} z z zbar = correlate(z*z, z)_m, and for
KG, where g is Hermitian (g_{-j} = conj(g_j)), (g*g*g)_m = correlate(g*g, g)_m.
Time stepping is Lawson (integrating-factor) RK4 on z only (states are
real, zbar = conj(z)): classical RK4 on e^{i Lambda t} z, so the linear
rotation is exact, at dt = 0.4 / lambda_max by default, a stage being one
dressed cube and one multiply-add with folded coefficients.  Frames are taken
at fixed times k frame_dt and at the end time.  A trajectory is one
(frames, 2M+1) array of z rows, and `frames.bin` one structured array of
(t, z, zbar) records; the normal-form flow steps [z, zbar] with `_rk4`.
A torus stores one coefficient per harmonic q, on its momentum support
q . J (translation equivariance, which the KG dressing keeps), and is
refined by Gauss-Newton over that support with the closed-form Jacobian
of the collocated invariance residual.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .frequencies import bateman_inverse, build_model, omega0
from .kam_schedule import predicted_bounds
from .spectral_core import (TWO_PI, FourierState, FrequencyTable,
                            SpaceParams, seq_norm)


def _cube(z: np.ndarray) -> np.ndarray:
    """sum_{j1+j2-j3=m} z_j1 z_j2 conj(z_j3) on the mode window |m| <= M."""
    return np.correlate(np.convolve(z, z), z, "valid")


@dataclass
class TruncatedSystem:
    """One truncated flow; kind 'kg' (needs a finite c) or 'nls', whose
    frequencies are those of the c = inf table."""
    kind: str
    M: int
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("kg", "nls"):
            raise ValueError("kind must be 'kg' or 'nls'")
        if self.kind == "kg" and not (self.c is not None
                                      and 0 < self.c < math.inf):
            raise ValueError("the KG system needs a positive finite c")
        ft = FrequencyTable(c=self.c if self.kind == "kg" else math.inf,
                            M=self.M)
        self._lam = ft.lam
        self._sw = np.sqrt(ft.w)
        # the field is kappa w^{-1/2} (cube of the dressed state)
        self._kappa = (-1j if self.kind == "kg" else -3j) / (8.0 * math.pi)

    @property
    def linear_freqs(self) -> np.ndarray:
        return self._lam

    @property
    def fastest_frequency(self) -> float:
        return float(np.max(np.abs(self._lam)))

    def _dress(self, z: np.ndarray) -> np.ndarray:
        """The dressed state of each row of z: g for KG, z itself for NLS."""
        return (z + np.conj(z)[..., ::-1]) / self._sw if self.kind == "kg" \
            else z

    def _dressed_cube(self, z: np.ndarray) -> np.ndarray:
        return _cube(self._dress(z))

    def nonlinear_rhs(self, z: np.ndarray) -> np.ndarray:
        """Nonlinear part of dz/dt at the real state (z, conj(z))."""
        return self._kappa * self._dressed_cube(z) / self._sw

    def traces(self, z: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Energy (quadratic plus quartic), mass and momentum at each row of
        z, a (frames, 2M+1) array of real states (zbar = conj(z), so the KG
        dressing g is Hermitian, as `_cube` needs)."""
        zbar = np.conj(z)
        j = np.arange(-self.M, self.M + 1, dtype=float)
        if self.kind == "kg":
            quart = [np.sum(r * _cube(r)[::-1]) / (32.0 * math.pi)
                     for r in self._dress(z)]
        else:
            quart = [3.0 / (16.0 * math.pi)
                     * np.sum(np.convolve(a, a) * np.convolve(b, b))
                     for a, b in zip(z, zbar)]
        quad = np.sum(self._lam * z * zbar, axis=1)
        return ((quad + quart).real, np.sum(z * zbar, axis=1).real,
                np.sum(j * z * zbar, axis=1).real)


@dataclass
class SimulationRecord:
    """Real-state frames z (F, 2M+1) at times (F,), and their traces."""
    times: np.ndarray
    z: np.ndarray
    hamiltonian: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray


def default_dt(system: TruncatedSystem) -> float:
    return 0.4 / system.fastest_frequency


def _rk4(f, y: np.ndarray, h: float) -> np.ndarray:
    """One classical Runge-Kutta step of dy/dt = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


# `integrate` warns (or, when strict, raises) above this dt * lambda_max.
# Below it dt * lambda_j <= 0.8 and the KG phase dt * 2 c^2 <= 1.6 stay
# under 2 pi, where no exponential can resonate
_DT_LAMBDA_GUARD = 0.8


def _lawson_coefficients(system: TruncatedSystem, h: float) -> tuple:
    """half = e^{-i Lambda h/2}, full = e^{-i Lambda h} and the stage
    coefficients A1-A3, B1-B3 of `integrate`'s Lawson step, which fold h,
    the RK4 weights, half and the factor kappa of the dressed cube together."""
    half = np.exp(-0.5j * h * system.linear_freqs)
    hk = h * (system._kappa / system._sw)
    return (half, np.exp(-1j * h * system.linear_freqs), 0.5 * hk * half,
            0.5 * hk, hk * half, hk / 6 * half * half, hk / 3 * half, hk / 6)


def _parts(length: float, step: float) -> int:
    """The number of pieces of at most `step` that `length` splits into; a
    quotient within 1e-9 above an integer counts as that integer."""
    return max(1, math.ceil(length / step - 1e-9))


def integrate(system: TruncatedSystem, z0: FourierState, T: float,
              dt: float | None = None, frame_dt: float | None = None,
              strict: bool = False) -> SimulationRecord:
    """Lawson RK4 from 0 to T (RK4 on e^{i Lambda t} z, one `_dressed_cube`
    per stage, coefficients of `_lawson_coefficients`), with a frame at each
    k frame_dt < T and at T, and the energy, mass and momentum traces there.
    Each interval between frames takes ceil(interval / dt) equal steps, so
    no step is longer than dt and every frame lands on its time.  dt
    defaults to `default_dt`, frame_dt to 5 / lambda_max.
    The state must be real (zbar = conj(z)) and on the system's window;
    only z is stepped.  T, dt and frame_dt must be finite and positive."""
    if not z0.real_representation():
        raise ValueError("the state is not real: zbar must equal conj(z)")
    if z0.M != system.M:
        raise ValueError(f"the state's window |j| <= {z0.M} is not the "
                         f"system's |j| <= {system.M}")
    lam_max = system.fastest_frequency
    if dt is None:
        dt = default_dt(system)
    if frame_dt is None:
        frame_dt = 5.0 / lam_max
    if not all(0 < v < math.inf for v in (T, dt, frame_dt)):
        raise ValueError(f"T = {T}, dt = {dt} and frame_dt = {frame_dt} "
                         f"must be finite and positive")
    if dt * lam_max > _DT_LAMBDA_GUARD:
        msg = (f"dt = {dt:.3e} does not resolve the fastest frequency "
               f"{lam_max:.3e}: dt * lambda_max > {_DT_LAMBDA_GUARD}")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)
    times = np.append(frame_dt * np.arange(_parts(T, frame_dt)), T)
    z = z0.z.copy()
    frames = [z.copy()]
    cube, steppers = system._dressed_cube, {}
    for length in [frame_dt] * (len(times) - 2) + [T - times[-2]]:
        if length not in steppers:
            n = _parts(length, dt)
            steppers[length] = (n, *_lawson_coefficients(system, length / n))
        n, half, full, A1, A2, A3, B1, B2, B3 = steppers[length]
        for _ in range(n):
            zh, zf = half * z, full * z
            c1 = cube(z)
            c2 = cube(zh + A1 * c1)
            c3 = cube(zh + A2 * c2)
            c4 = cube(zf + A3 * c3)
            z = zf + (B1 * c1 + B2 * (c2 + c3) + B3 * c4)
        frames.append(z.copy())
    frames = np.array(frames)
    return SimulationRecord(times, frames, *system.traces(frames))


# --- torus embeddings ------------------------------------------------------

def _harmonics(N: int, Q: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(-Q, Q + 1), repeat=N))


def _support(J, Q: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows q of `_harmonics(len(J), Q)` with |q . J| <= M, and q . J."""
    qs = np.array(_harmonics(len(J), Q))
    modes = qs @ np.array(J)
    keep = np.abs(modes) <= M
    return qs[keep], modes[keep]


def _phases(angles: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """E[a, s] = exp(i q_s . theta_a) for angle rows theta_a (shape (A, N))
    and harmonic rows q_s (shape (S, N))."""
    return np.exp(1j * (angles @ qs.T))


@dataclass
class TorusEmbedding:
    """Angle-Fourier embedding U: T^N -> phase space on its momentum
    support: coeffs[s] = C_q of the z-component sits on the single mode
    k_q = q . J, for the s-th harmonic q of `_harmonics(N, Q)` with
    |k_q| <= M (rows `qs`, modes `modes`).  The conjugate component follows
    from the reality constraint zbar(theta) = conj(z(theta))."""
    J: tuple[int, ...]
    M: int
    Q: int
    omega: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        if self.omega.shape != (len(self.J),):
            raise ValueError("omega must have one entry per tangential mode")
        outside = [j for j in self.J if abs(j) > self.M]
        if outside:
            raise ValueError(f"modes {outside} outside the window "
                             f"|j| <= {self.M}")
        self.qs, self.modes = _support(self.J, self.Q, self.M)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != self.modes.shape:
            raise ValueError(f"coeffs must have shape {self.modes.shape}, "
                             f"one per supported harmonic")

    @property
    def N(self) -> int:
        return len(self.J)

    @property
    def fundamentals(self) -> list[int]:
        """Index in `coeffs` of the unit harmonic e_n, for each n."""
        return [int(np.flatnonzero((self.qs == e).all(axis=1))[0])
                for e in np.eye(self.N, dtype=int)]


def _on_modes(emb: TorusEmbedding, E: np.ndarray,
              C: np.ndarray) -> np.ndarray:
    """sum_s E[a, s] C[s] e_{k_s}: the values at the angle rows of E
    (shape (A, 2M+1)) of an embedding with support coefficients C."""
    out = np.zeros((E.shape[0], 2 * emb.M + 1), dtype=complex)
    np.add.at(out, (slice(None), emb.modes + emb.M), E * C)
    return out


def linear_torus(xi, J, M: int, Q: int, omega) -> TorusEmbedding:
    """Fundamental-harmonic seed: z_{j_n}(theta) = sqrt(xi_n) e^{i theta_n}."""
    emb = TorusEmbedding(J=tuple(J), M=M, Q=Q, omega=omega,
                         coeffs=np.zeros(len(_support(J, Q, M)[0])))
    emb.coeffs[emb.fundamentals] = np.sqrt(xi)
    return emb


# --- normal-form torus -----------------------------------------------------

def flow_time1(G, state: FourierState, steps: int = 64) -> FourierState:
    """Time-1 flow of the polynomial field X_G by fixed-step RK4 on the
    stacked [z, zbar]; raises if |z| leaves the ball of 10 times its
    starting radius."""
    from .hamiltonian import vector_field

    y = np.array([state.z, state.zbar])
    limit = 10.0 * max(float(np.max(np.abs(state.z))), 1e-12)
    for _ in range(steps):
        y = _rk4(lambda u: vector_field(G, u), y, 1.0 / steps)
        if np.max(np.abs(y[0])) > limit:
            raise RuntimeError("flow escaped the analyticity ball")
    return FourierState(*y)


def normal_form_torus(xi, J, M: int, G, theta=None,
                      steps: int = 64) -> FourierState:
    """Image under the time-1 normal-form flow of the action-angle point
    z_{j_n} = sqrt(xi_n) e^{i theta_n} (zero elsewhere)."""
    J = tuple(J)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.any(xi < 0):
        raise ValueError("actions must be nonnegative")
    if theta is None:
        theta = np.zeros(len(J))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    state = FourierState.from_modes(M, {
        j: math.sqrt(xi[n]) * np.exp(1j * theta[n]) for n, j in enumerate(J)})
    if G is None or len(G) == 0:
        return state
    return flow_time1(G, state, steps=steps)


# --- Gauss-Newton refinement ----------------------------------------------

@dataclass
class RefineReport:
    converged: bool
    iterations: int
    defect_history: list[float]
    final_defect: float
    message: str = ""
    smallest_singular_value: float | None = None


def _collocation_angles(N: int, Q: int) -> np.ndarray:
    n_ang = 2 * Q + 1
    base = TWO_PI * np.arange(n_ang) / n_ang
    return np.array(list(itertools.product(base, repeat=N)))


def invariance_residual(emb: TorusEmbedding,
                        system: TruncatedSystem) -> np.ndarray:
    """Stacked z-component residual omega . d_theta U - X(U) at the
    collocation angles (complex array, angle-major)."""
    E = _phases(_collocation_angles(emb.N, emb.Q), emb.qs)
    Z = _on_modes(emb, E, emb.coeffs)
    dZ = _on_modes(emb, E, 1j * (emb.qs @ emb.omega) * emb.coeffs)
    fZ = np.array([system.nonlinear_rhs(z) for z in Z]) \
        - 1j * system.linear_freqs * Z
    return (dZ - fZ).ravel()


def invariance_defect(emb: TorusEmbedding, system: TruncatedSystem) -> float:
    return float(np.max(np.abs(invariance_residual(emb, system))))


def _conv_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row full convolutions of two (rows, 2M+1) arrays."""
    return np.array([np.convolve(x, y) for x, y in zip(a, b)])


def _invariance_jacobian(emb: TorusEmbedding, system: TruncatedSystem,
                         E: np.ndarray, with_omega: bool) -> np.ndarray:
    """Real Jacobian of [Re r; Im r], r = `invariance_residual`, with respect
    to [Re C, Im C] over the support (then omega when `with_omega`).

    z_a = sum_s E[a, s] C_s e_{k_s}, and the cubic field linearises as
    dN = P_a dz + Q_a conj(dz).  With (f)_i read from the full convolutions
    of `_conv_rows`, zeta_a = conj(z_a) reflected, g_a the KG dressing
    `_dress` and kappa the field factor (-3i / 8 pi NLS, -i / 8 pi KG):
        NLS: P_a[m, k] = 2 kappa (z_a * zeta_a)_{m-k},
             Q_a[m, k] = kappa (z_a * z_a)_{m+k}
        KG : P_a[m, k] = 3 kappa (g_a * g_a)_{m-k} / sqrt(w_m w_k),
             Q_a[m, k] = 3 kappa (g_a * g_a)_{m+k} / sqrt(w_m w_k)
    Only the columns k = k_s enter: dr_a[m] = sum_s K dC_s + L conj(dC_s),
        K[a, m, s] = E[a, s] (i (lambda_m + q_s . omega) delta_{m, k_s}
                              - P_a[m, k_s]),
        L[a, m, s] = -conj(E[a, s]) Q_a[m, k_s].
    """
    M, k = emb.M, emb.modes
    m = np.arange(-M, M + 1)[:, None]
    minus, plus = m - k + 2 * M, m + k + 2 * M   # [m, s] -> convolution column
    z = _on_modes(emb, E, emb.coeffs)
    kappa = system._kappa
    if system.kind == "kg":
        g = system._dress(z)
        gg = _conv_rows(g, g)
        scale = 3 * kappa / np.outer(system._sw, system._sw[k + M])
        P, Qk = gg[:, minus] * scale, gg[:, plus] * scale
    else:
        P = 2.0 * kappa * _conv_rows(z, np.conj(z)[:, ::-1])[:, minus]
        Qk = kappa * _conv_rows(z, z)[:, plus]
    K = -E[:, None, :] * P                                 # [a, m, s]
    lin = 1j * (system.linear_freqs[k + M] + emb.qs @ emb.omega)
    K[:, k + M, np.arange(len(k))] += E * lin
    L = -np.conj(E)[:, None, :] * Qk
    rows = K.shape[0] * K.shape[1]
    cols = [(K + L).reshape(rows, -1), (1j * (K - L)).reshape(rows, -1)]
    if with_omega:
        cols += [_on_modes(emb, E, 1j * q * emb.coeffs).reshape(rows, 1)
                 for q in emb.qs.T]
    cols = np.hstack(cols)
    return np.vstack([cols.real, cols.imag])


_MAX_ITER = 25


def refine_torus(emb: TorusEmbedding, system: TruncatedSystem,
                 mode: str = "fixed_frequency", tol: float = 1e-10
                 ) -> tuple[TorusEmbedding, RefineReport]:
    """Gauss-Newton over the support coefficients on every collocated
    (angle, mode) row, with the closed-form Jacobian of
    `_invariance_jacobian`: `invariance_defect` is the objective and the
    verdict.  mode 'fixed_frequency' holds omega; 'fixed_amplitude' frees
    omega and holds the fundamental amplitudes (Re C).  The seed's phase
    (Im C) of each fundamental coefficient is held too, which removes the
    angle-shift null directions; held unknowns stay out of the solve.  A
    KG torus needs Q >= 3: its cubic puts harmonic 3 e_n on mode 3 j_n.
    """
    if mode not in ("fixed_frequency", "fixed_amplitude"):
        raise ValueError("unknown refinement mode")
    if system.kind == "kg" and emb.Q < 3:
        raise ValueError(f"a KG torus needs Q >= 3, not Q = {emb.Q}")
    with_omega = mode == "fixed_amplitude"
    E = _phases(_collocation_angles(emb.N, emb.Q), emb.qs)
    size = len(emb.coeffs)
    x = np.concatenate([emb.coeffs.real, emb.coeffs.imag]
                       + ([emb.omega] if with_omega else []))
    fund = emb.fundamentals
    free = np.delete(np.arange(len(x)), [size + s for s in fund]
                     + (fund if with_omega else []))

    def embedding(x: np.ndarray) -> TorusEmbedding:
        return replace(
            emb, omega=(x[2 * size:] if with_omega else emb.omega).copy(),
            coeffs=x[:size] + 1j * x[size:2 * size])

    def residual(x: np.ndarray) -> np.ndarray:
        res = invariance_residual(embedding(x), system)
        return np.concatenate([res.real, res.imag])

    r = residual(x)
    history = [float(np.max(np.abs(r)))]
    smin, message = None, "max iterations reached"
    for it in range(_MAX_ITER + 1):
        if history[-1] < tol:
            message = ""
            break
        if it == _MAX_ITER:
            break
        jac = _invariance_jacobian(embedding(x), system, E, with_omega)
        step = np.zeros_like(x)
        step[free], _, _, sv = np.linalg.lstsq(jac[:, free], -r, rcond=None)
        smin = float(sv[-1])
        if smin < 1e-14 * sv[0]:
            message = "singular collocation matrix"
            break
        lam = 1.0
        for _ in range(6):
            xn = x + lam * step
            rn = residual(xn)
            if np.max(np.abs(rn)) < history[-1]:
                break
            lam *= 0.5
        else:
            message = "line search stalled"
            break
        x, r = xn, rn
        history.append(float(np.max(np.abs(r))))
    return embedding(x), RefineReport(
        converged=not message, iterations=it, defect_history=history,
        final_defect=history[-1], message=message,
        smallest_singular_value=smin)


# --- distances and scaling studies ----------------------------------------

def gauge_distance(emb_kg: TorusEmbedding, emb_nls: TorusEmbedding,
                   params: SpaceParams, c: float, sigma: float, T: float,
                   n_samples: int = 512) -> tuple[np.ndarray, float]:
    """Trace and sup over t in linspace(0, T, n_samples) of the weighted norm
    of e^{i c^2 t} z^KG(t) - z^NLS(t) at Sobolev exponent p - 4 sigma, each
    torus evaluated along its own angle flow theta = omega t."""
    times = np.linspace(0.0, T, n_samples)

    def orbit(emb: TorusEmbedding) -> np.ndarray:
        return _on_modes(emb, _phases(np.outer(times, emb.omega), emb.qs),
                         emb.coeffs)

    diff = np.exp(1j * c * c * times)[:, None] * orbit(emb_kg) - orbit(emb_nls)
    pp = SpaceParams(a=params.a, p=params.p - 4.0 * sigma, beta=params.beta,
                     M=params.M)
    out = seq_norm(diff, pp, FrequencyTable(c=c, M=params.M))
    return out, float(np.max(out))


def _nls_torus(R: float, J: tuple[int, ...], M: int, Q: int
               ) -> tuple[TorusEmbedding, RefineReport]:
    """Refined NLS torus on the sorted modes J at amplitude sqrt(xi),
    xi = R^2, from the first-order amplitude-frequency map of the c = inf
    model: omega = -`frequencies.omega0`(xi)."""
    xi = np.full(len(J), R * R)
    omega = -omega0(build_model(math.inf, J, M, R), xi)
    return refine_torus(linear_torus(xi, J, M, Q, omega),
                        TruncatedSystem(kind="nls", M=M),
                        mode="fixed_amplitude")


def _kg_torus(emb_nls: TorusEmbedding, rep_nls: RefineReport, R: float,
              c: float) -> tuple[TorusEmbedding, RefineReport]:
    """The KG torus with exactly the gauge-shifted frequency of the NLS
    torus (fixed-frequency solve at omega_NLS - c^2 per angle), from the
    fundamental amplitudes sqrt(xi_KG) with A xi_KG = -omega_KG - lambda_J,
    solved by `frequencies.bateman_inverse`.
    An NLS torus that did not converge, a non-positive xi_KG component (the
    first-order map has no KG torus at that frequency) or a KG solve that
    does not converge raises RuntimeError."""
    if not rep_nls.converged:
        raise RuntimeError(f"NLS torus did not converge: {rep_nls.message}")
    J, M = emb_nls.J, emb_nls.M
    model = build_model(c, J, M, R)
    kg_seed = replace(emb_nls, omega=emb_nls.omega - c * c,
                      coeffs=emb_nls.coeffs.copy())
    # -omega_KG - lambda_J = -omega_NLS - nu_J (lambda_J = c^2 + nu_J),
    # which does not cancel c^2
    xi_kg = bateman_inverse(model) @ (-emb_nls.omega - model.nu_J)
    for s, j, x in zip(kg_seed.fundamentals, J, xi_kg):
        if not x > 0:
            raise RuntimeError(f"KG torus has no positive amplitude on mode "
                               f"{j}: the first-order map gives xi = {x:.3e}")
        kg_seed.coeffs[s] = math.sqrt(x)
    kg = TruncatedSystem(kind="kg", M=M, c=c)
    emb_kg, rep_kg = refine_torus(kg_seed, kg, mode="fixed_frequency")
    if not rep_kg.converged:
        raise RuntimeError(f"KG torus did not converge: {rep_kg.message}")
    return emb_kg, rep_kg


def matched_torus_pair(R: float, c: float, J, M: int, Q: int):
    """Refined NLS torus at amplitude sqrt(xi), xi = R^2, plus the KG torus
    with exactly matching gauge-shifted frequency: `_nls_torus` then
    `_kg_torus`, whose RuntimeErrors it raises."""
    emb_nls, rep_nls = _nls_torus(R, tuple(sorted(J)), M, Q)
    emb_kg, rep_kg = _kg_torus(emb_nls, rep_nls, R, c)
    return emb_nls, emb_kg, rep_nls, rep_kg


def fit_loglog(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def scaling_study(R: float, c_list, sigma: float, T: float = 1e3,
                  J=(1,), M: int = 16, Q: int = 3,
                  n_samples: int = 512) -> dict:
    """Gauge distance between frequency-matched refined tori over c, and its
    log-log slope; inadmissible c (< R^{-73/72}) are rejected, and fewer
    than two converged rows leave the slope None with a warning.  The NLS
    torus is refined once per study.  Each
    converged row carries the KG solve's Newton iterations, defect history,
    smallest singular value and coefficient error bound defect / sigma_min."""
    J, params = tuple(sorted(J)), SpaceParams(a=0.0, p=5.0, beta=0.0, M=M)
    # neither the threshold nor the NLS torus depends on c
    c_adm = predicted_bounds(R, 1.0, sigma)["c_admissible"]
    rows, nls = [], None
    for c in c_list:
        if c < c_adm:
            rows.append({"c": c, "admissible": False, "converged": False,
                         "distance": None})
            continue
        nls = nls or _nls_torus(R, J, M, Q)
        emb_nls = nls[0]
        try:
            emb_kg, rep_kg = _kg_torus(*nls, R, c)
        except RuntimeError as exc:
            rows.append({"c": c, "admissible": True, "converged": False,
                         "distance": None, "error": str(exc)})
            continue
        _, sup = gauge_distance(emb_kg, emb_nls, params, c, sigma, T,
                                n_samples)
        smin = rep_kg.smallest_singular_value
        rows.append({"c": c, "admissible": True, "converged": True,
                     "distance": sup, "newton_iters": rep_kg.iterations,
                     "defect_history": rep_kg.defect_history,
                     "sigma_min": smin,
                     "coeff_error_bound": None if smin is None
                     else rep_kg.final_defect / smin})
    good = [(r["c"], r["distance"]) for r in rows if r["converged"]]
    slope = fit_loglog(*zip(*good)) if len(good) >= 2 else None
    if slope is None:
        warnings.warn(f"scaling study has no slope_vs_c: {len(good)} of "
                      f"{len(rows)} rows converged, it needs 2")
    return {"R": R, "sigma": sigma, "T": T, "J": list(J), "M": M, "Q": Q,
            "c_admissible": c_adm, "rows": rows, "slope_vs_c": slope,
            "predicted_slope": -2.0 * sigma}


# --- binary frame format ---------------------------------------------------

_FRAME_MAGIC = b"TLAB"


def _frame_dtype(n: int) -> np.dtype:
    return np.dtype([("t", "<f8"), ("z", "<c16", (n,)),
                     ("zbar", "<c16", (n,))])


def save_record(path, record: SimulationRecord) -> None:
    """Header: magic, then M and the frame count as little-endian int64;
    frames: time, z and zbar = conj(z) as little-endian doubles."""
    count, n = record.z.shape
    frames = np.empty(count, _frame_dtype(n))
    frames["t"], frames["z"], frames["zbar"] = \
        record.times, record.z, np.conj(record.z)
    with open(path, "wb") as fh:
        fh.write(_FRAME_MAGIC + np.array([n // 2, count], "<i8").tobytes())
        fh.write(frames.tobytes())


def load_record(path) -> tuple[np.ndarray, list[FourierState]]:
    """Frame times and states of a `save_record` file; a file whose length
    is not that of its header's frame count raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _FRAME_MAGIC or len(data) < 20:
        raise ValueError("not a trajectory frame file, or its header is cut")
    M, count = map(int, np.frombuffer(data, dtype="<i8", count=2, offset=4))
    frame = _frame_dtype(2 * max(M, 0) + 1)
    if M < 0 or len(data) != 20 + count * frame.itemsize:
        raise ValueError(f"frame file of {len(data)} bytes does not hold "
                         f"the {count} frames its header counts")
    frames = np.frombuffer(data, dtype=frame, count=count, offset=20)
    z, zbar = frames["z"].copy(), frames["zbar"].copy()
    return frames["t"].copy(), [FourierState(*st) for st in zip(z, zbar)]
