"""Galerkin torus laboratory: truncated flows of the two systems, the
normal-form torus construction, Gauss-Newton refinement of invariant-torus
embeddings, gauge-transformed distances, and the scaling studies.

Right sides (modes |j| <= M, dressing g_j = (z_j + zbar_{-j}) / sqrt(w_j)):
    KG : dz_q/dt = -i lambda_q z_q - (i/8 pi) w_q^{-1/2} (g*g*g)_q
    NLS: dz_m/dt = -(i/2) m^2 z_m - (3 i/8 pi) sum_{j1+j2-j3=m} z z zbar
The cube on the mode window is one valid-mode correlation of the full
self-convolution: sum_{j1+j2-j3=m} z z zbar = correlate(z*z, z)_m, and for
KG, where g is Hermitian (g_{-j} = conj(g_j)), (g*g*g)_m = correlate(g*g, g)_m.
Time stepping is Strang splitting on z only (states are real,
zbar = conj(z)): exact linear rotation halves around an RK4 step of the
nonlinear part.  Torus refinement is Gauss-Newton with the closed-form
Jacobian of the collocated invariance residual.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .kam_schedule import predicted_bounds
from .spectral_core import (TWO_PI, FourierState, FrequencyTable,
                            SpaceParams, seq_norm)


def _cube(z: np.ndarray) -> np.ndarray:
    """sum_{j1+j2-j3=m} z_j1 z_j2 conj(z_j3) on the mode window |m| <= M."""
    return np.correlate(np.convolve(z, z), z, "valid")


def _require_real(state: FourierState) -> None:
    if not state.real_representation():
        raise ValueError("the state is not real: zbar must equal conj(z)")


@dataclass
class TruncatedSystem:
    """One truncated flow; kind 'kg' (needs c) or 'nls'."""
    kind: str
    M: int
    c: float | None = None

    def __post_init__(self):
        if self.kind not in ("kg", "nls"):
            raise ValueError("kind must be 'kg' or 'nls'")
        if self.kind == "kg":
            if self.c is None or self.c <= 0:
                raise ValueError("the KG system needs a positive c")
            self._ft = FrequencyTable(c=self.c, M=self.M)
            self._lam = self._ft.lam
            self._sw = np.sqrt(self._ft.w)
        else:
            j = np.arange(-self.M, self.M + 1, dtype=float)
            self._lam = 0.5 * j * j
            self._sw = np.ones(2 * self.M + 1)

    @property
    def linear_freqs(self) -> np.ndarray:
        return self._lam

    @property
    def fastest_frequency(self) -> float:
        return float(np.max(np.abs(self._lam)))

    def nonlinear_rhs(self, z: np.ndarray) -> np.ndarray:
        """Nonlinear part of dz/dt at the real state (z, conj(z))."""
        if self.kind == "kg":
            g = (z + np.conj(z)[::-1]) / self._sw
            return -1j / (8.0 * math.pi) * _cube(g) / self._sw
        return -3j / (8.0 * math.pi) * _cube(z)

    def rhs(self, state: FourierState) -> tuple[np.ndarray, np.ndarray]:
        """(dz/dt, dzbar/dt) at a real state; dzbar/dt = conj(dz/dt)."""
        _require_real(state)
        dz = self.nonlinear_rhs(state.z) - 1j * self._lam * state.z
        return dz, np.conj(dz)

    def hamiltonian_value(self, state: FourierState) -> float:
        """Quadratic plus quartic energy at a real state (zbar = conj(z),
        so the KG dressing g is Hermitian, as `_cube` needs)."""
        z, zbar = state.z, state.zbar
        quad = np.sum(self._lam * z * zbar)
        if self.kind == "kg":
            g = (z + zbar[::-1]) / self._sw
            quart = np.sum(g * _cube(g)[::-1]) / (32.0 * math.pi)
        else:
            quart = 3.0 / (16.0 * math.pi) \
                * np.sum(np.convolve(z, z) * np.convolve(zbar, zbar))
        return float((quad + quart).real)

    def mass(self, state: FourierState) -> float:
        return float(np.sum(state.z * state.zbar).real)

    def momentum(self, state: FourierState) -> float:
        j = np.arange(-self.M, self.M + 1, dtype=float)
        return float(np.sum(j * state.z * state.zbar).real)


@dataclass
class SimulationRecord:
    times: np.ndarray
    states: list
    hamiltonian: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray

    def __post_init__(self):
        n = len(self.times)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("time grid must be strictly increasing")
        for tr in (self.states, self.hamiltonian, self.mass, self.momentum):
            if len(tr) != n:
                raise ValueError("trace length must match the time grid")


def default_dt(system: TruncatedSystem) -> float:
    return 0.05 / system.fastest_frequency


def integrate(system: TruncatedSystem, z0: FourierState, T: float,
              dt: float | None = None, record_every: int = 100,
              strict: bool = False) -> SimulationRecord:
    """Strang splitting with exact linear rotation and an RK4 nonlinear
    step; records Hamiltonian/mass/momentum traces every `record_every`
    steps (and always the final state).  The state must be real
    (zbar = conj(z)); only z is stepped, and each frame records
    (z, conj(z))."""
    import warnings

    _require_real(z0)

    if dt is None:
        dt = default_dt(system)
    if dt * system.fastest_frequency > 0.1:
        msg = (f"dt = {dt:.3e} does not resolve the fastest frequency "
               f"{system.fastest_frequency:.3e}")
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)
    n_steps = max(1, int(round(T / dt)))
    rot_half = np.exp(-0.5j * dt * system.linear_freqs)
    f = system.nonlinear_rhs

    z = z0.z.copy()
    times, states, ham, mass, mom = [], [], [], [], []

    def record(t):
        st = FourierState(z.copy(), np.conj(z))
        times.append(t)
        states.append(st)
        ham.append(system.hamiltonian_value(st))
        mass.append(system.mass(st))
        mom.append(system.momentum(st))

    record(0.0)
    for step in range(1, n_steps + 1):
        z *= rot_half
        k1 = f(z)
        k2 = f(z + 0.5 * dt * k1)
        k3 = f(z + 0.5 * dt * k2)
        k4 = f(z + dt * k3)
        z = z + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        z *= rot_half
        if step % record_every == 0 or step == n_steps:
            record(step * dt)
    return SimulationRecord(times=np.array(times), states=states,
                            hamiltonian=np.array(ham), mass=np.array(mass),
                            momentum=np.array(mom))


# --- torus embeddings ------------------------------------------------------

def _harmonics(N: int, Q: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(-Q, Q + 1), repeat=N))


def _fundamentals(N: int, Q: int) -> list[int]:
    """Row of the unit harmonic e_n in `_harmonics(N, Q)`, for each n."""
    order = _harmonics(N, Q)
    return [order.index(tuple(int(i == n) for i in range(N)))
            for n in range(N)]


def _phases(angles: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """E[a, h] = exp(i q_h . theta_a) for angle rows theta_a (shape (A, N))
    and harmonic rows q_h (shape (H, N)); E @ C evaluates an embedding."""
    return np.exp(1j * (angles @ qs.T))


@dataclass
class TorusEmbedding:
    """Angle-Fourier embedding U: T^N -> phase space.  Only the z-component
    harmonics are stored: coeffs[h] = C_q for q = _harmonics(N, Q)[h], one
    row of 2M+1 modes each.  The conjugate component is determined by the
    reality constraint zbar(theta) = conj(z(theta))."""
    J: tuple[int, ...]
    M: int
    Q: int
    omega: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        if self.omega.shape != (len(self.J),):
            raise ValueError("omega must have one entry per tangential mode")
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        shape = ((2 * self.Q + 1) ** self.N, 2 * self.M + 1)
        if self.coeffs.shape != shape:
            raise ValueError(f"coeffs must have shape {shape} (harmonic, "
                             f"mode), not {self.coeffs.shape}")

    @property
    def N(self) -> int:
        return len(self.J)

    @property
    def qs(self) -> np.ndarray:
        """Harmonic rows, in the row order of `coeffs`."""
        return np.array(_harmonics(self.N, self.Q), dtype=float)

    def copy(self) -> "TorusEmbedding":
        return TorusEmbedding(J=self.J, M=self.M, Q=self.Q,
                              omega=self.omega.copy(),
                              coeffs=self.coeffs.copy())


def linear_torus(xi, J, M: int, Q: int, omega) -> TorusEmbedding:
    """Fundamental-harmonic seed: z_{j_n}(theta) = sqrt(xi_n) e^{i theta_n}."""
    J = tuple(J)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    coeffs = np.zeros(((2 * Q + 1) ** len(J), 2 * M + 1), dtype=complex)
    for n, (h, j) in enumerate(zip(_fundamentals(len(J), Q), J)):
        coeffs[h] = FourierState.from_modes(M, {j: math.sqrt(xi[n])}).z
    return TorusEmbedding(J=J, M=M, Q=Q, omega=omega, coeffs=coeffs)


# --- normal-form torus -----------------------------------------------------

def flow_time1(G, state: FourierState, steps: int = 64,
               ball_radius: float | None = None) -> FourierState:
    """Time-1 flow of the polynomial field X_G by fixed-step RK4."""
    from .hamiltonian import vector_field

    z = state.z.copy()
    zb = state.zbar.copy()
    h = 1.0 / steps
    start = float(np.max(np.abs(z)))
    limit = ball_radius if ball_radius is not None else 10.0 * max(start, 1e-12)
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
    qs = emb.qs
    E = _phases(_collocation_angles(emb.N, emb.Q), qs)
    Z = E @ emb.coeffs
    dZ = E @ (1j * (qs @ emb.omega)[:, None] * emb.coeffs)
    fZ = np.array([system.nonlinear_rhs(z) for z in Z]) \
        - 1j * system.linear_freqs * Z
    return (dZ - fZ).ravel()


def invariance_defect(emb: TorusEmbedding, system: TruncatedSystem) -> float:
    return float(np.max(np.abs(invariance_residual(emb, system))))


def _conv_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row full convolutions of two (rows, 2M+1) arrays."""
    return np.array([np.convolve(x, y) for x, y in zip(a, b)])


def _invariance_jacobian(C: np.ndarray, omega: np.ndarray,
                         system: TruncatedSystem, E: np.ndarray,
                         qs: np.ndarray, with_omega: bool) -> np.ndarray:
    """Real Jacobian of [Re r; Im r], r = `invariance_residual`, with respect
    to [Re C, Im C] raveled (then omega when `with_omega`).

    E[a, h] = exp(i q_h . theta_a) and z_a = sum_h E[a, h] C_h.  The cubic
    field linearises as dN = P_a dz + Q_a conj(dz), with T(f)[m, k] = f_{m-k},
    Rfl the reflection m -> -m, zeta_a = Rfl conj(z_a) and g_a the KG
    dressing of `nonlinear_rhs`:
        NLS: P_a = 2 kappa T(z_a * zeta_a),  Q_a = kappa T(z_a * z_a) Rfl
        KG : P_a = kappa D T(g_a * g_a) D,   Q_a = P_a Rfl,  D = diag(w^-1/2)
    (kappa = -3i / 8 pi).  Then dr_a = sum_h K_ah dC_h + L_ah conj(dC_h) with
    K_ah = E_ah (i Lambda + i q_h . omega - P_a) and L_ah = -conj(E_ah) Q_a.
    """
    n = C.shape[1]
    z = E @ C
    kappa = -3j / (8.0 * math.pi)
    toeplitz = np.subtract.outer(np.arange(n), np.arange(n)) + n - 1
    if system.kind == "kg":
        g = (z + np.conj(z)[:, ::-1]) / system._sw
        P = kappa * _conv_rows(g, g)[:, toeplitz] \
            / np.outer(system._sw, system._sw)
        Q = P[:, :, ::-1]
    else:
        P = 2.0 * kappa * _conv_rows(z, np.conj(z)[:, ::-1])[:, toeplitz]
        Q = kappa * _conv_rows(z, z)[:, toeplitz][:, :, ::-1]
    lin = 1j * (system.linear_freqs[None, :] + (qs @ omega)[:, None])
    diag = np.eye(n)[:, None, :] * lin.T[:, :, None]          # [m, h, k]
    K = E[:, None, :, None] * (diag[None] - P[:, :, None, :])  # [a, m, h, k]
    L = -np.conj(E)[:, None, :, None] * Q[:, :, None, :]
    rows = K.shape[0] * n
    cols = np.hstack([(K + L).reshape(rows, -1),
                      (1j * (K - L)).reshape(rows, -1)])
    if with_omega:
        dw = np.einsum("ah,hk,hn->akn", E, C, 1j * qs).reshape(rows, -1)
        cols = np.hstack([cols, dw])
    return np.vstack([cols.real, cols.imag])


def refine_torus(emb: TorusEmbedding, system: TruncatedSystem,
                 mode: str = "fixed_frequency", tol: float = 1e-10,
                 max_iter: int = 25
                 ) -> tuple[TorusEmbedding, RefineReport]:
    """Gauss-Newton on the angle-collocated invariance residual, with the
    closed-form Jacobian of `_invariance_jacobian`.

    mode 'fixed_frequency': omega held, amplitudes solved.
    mode 'fixed_amplitude': omega free, fundamental amplitudes pinned.
    A phase condition (vanishing imaginary part of each fundamental
    tangential coefficient) removes the angle-shift null directions.
    """
    if mode not in ("fixed_frequency", "fixed_amplitude"):
        raise ValueError("unknown refinement mode")
    with_omega = mode == "fixed_amplitude"
    qs = emb.qs
    E = _phases(_collocation_angles(emb.N, emb.Q), qs)
    shape, size = emb.coeffs.shape, emb.coeffs.size
    x = np.concatenate([emb.coeffs.real.ravel(), emb.coeffs.imag.ravel()]
                       + ([emb.omega] if with_omega else []))
    # phase (Im) and amplitude (Re) conditions on each fundamental
    # tangential coefficient: unit rows of the Jacobian, x[pin_cols] = targets
    re_cols = [h * shape[1] + j + emb.M
               for h, j in zip(_fundamentals(emb.N, emb.Q), emb.J)]
    pin_cols = [size + c for c in re_cols] + (re_cols if with_omega else [])
    targets = x[pin_cols]
    targets[:emb.N] = 0.0
    pins = np.zeros((len(pin_cols), len(x)))
    pins[np.arange(len(pin_cols)), pin_cols] = 1.0

    def embedding(x: np.ndarray) -> TorusEmbedding:
        return TorusEmbedding(
            J=emb.J, M=emb.M, Q=emb.Q,
            omega=(x[2 * size:] if with_omega else emb.omega).copy(),
            coeffs=(x[:size] + 1j * x[size:2 * size]).reshape(shape))

    def residual(x: np.ndarray) -> np.ndarray:
        res = invariance_residual(embedding(x), system)
        return np.concatenate([res.real, res.imag, x[pin_cols] - targets])

    def jacobian(x: np.ndarray) -> np.ndarray:
        e = embedding(x)
        return np.vstack([_invariance_jacobian(e.coeffs, e.omega, system, E,
                                               qs, with_omega), pins])

    r = residual(x)
    history = [float(np.max(np.abs(r)))]
    smin = None
    for it in range(max_iter):
        if history[-1] < tol:
            return embedding(x), RefineReport(
                converged=True, iterations=it, defect_history=history,
                final_defect=history[-1],
                smallest_singular_value=smin)
        step, _, _, sv = np.linalg.lstsq(jacobian(x), -r, rcond=None)
        smin = float(sv[-1])
        if smin < 1e-14 * sv[0]:
            return embedding(x), RefineReport(
                converged=False, iterations=it, defect_history=history,
                final_defect=history[-1],
                message="singular collocation matrix",
                smallest_singular_value=smin)
        lam = 1.0
        for _ in range(6):
            xn = x + lam * step
            rn = residual(xn)
            if np.max(np.abs(rn)) < history[-1]:
                break
            lam *= 0.5
        else:
            return embedding(x), RefineReport(
                converged=False, iterations=it, defect_history=history,
                final_defect=history[-1],
                message="line search stalled",
                smallest_singular_value=smin)
        x, r = xn, rn
        history.append(float(np.max(np.abs(r))))
    converged = history[-1] < tol
    return embedding(x), RefineReport(
        converged=converged, iterations=max_iter, defect_history=history,
        final_defect=history[-1],
        message="" if converged else "max iterations reached",
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
        return _phases(np.outer(times, emb.omega), emb.qs) @ emb.coeffs

    diff = np.exp(1j * c * c * times)[:, None] * orbit(emb_kg) - orbit(emb_nls)
    pp = SpaceParams(a=params.a, p=params.p - 4.0 * sigma, beta=params.beta,
                     M=params.M)
    ft = FrequencyTable(c=c, M=params.M)
    out = np.array([seq_norm(d, pp, ft) for d in diff])
    return out, float(np.max(out))


def matched_torus_pair(R: float, c: float, J, M: int, Q: int,
                       tol: float = 1e-10):
    """Refined NLS torus at amplitude sqrt(xi), xi = R^2, plus the KG torus
    with exactly matching gauge-shifted frequency (fixed-frequency solve at
    omega_NLS - c^2 per angle).

    Both Newton solves start from the first-order amplitude-frequency maps
    of `frequencies.build_model`: the NLS seed has omega = -(j^2/2 + A_nls
    xi), and the KG seed has the fundamental amplitudes sqrt(xi_KG) with
    A xi_KG = -omega_KG - lambda_J.  A non-positive xi_KG component means
    the first-order map has no KG torus at that frequency, and raises
    RuntimeError."""
    from .frequencies import build_model

    J = tuple(J)
    N = len(J)
    xi = np.full(N, R * R)
    model = build_model(c, J, M, R, require_min_N=1)
    order = [model.J.index(j) for j in J]
    cross = np.ix_(order, order)
    nls = TruncatedSystem(kind="nls", M=M)
    omega0 = -(np.array([0.5 * j * j for j in J], dtype=float)
               + model.A_nls[cross] @ xi)
    seed = linear_torus(xi, J, M, Q, omega0)
    emb_nls, rep_nls = refine_torus(seed, nls, mode="fixed_amplitude",
                                    tol=tol)
    if not rep_nls.converged:
        raise RuntimeError(f"NLS torus did not converge: {rep_nls.message}")
    kg = TruncatedSystem(kind="kg", M=M, c=c)
    kg_seed = emb_nls.copy()
    kg_seed.omega = emb_nls.omega - c * c
    # -omega_KG - lambda_J = -omega_NLS - nu_J (lambda_J = c^2 + nu_J),
    # which does not cancel c^2.  A is invertible; lstsq, which the Newton
    # solve already calls, spares paging in another LAPACK routine
    # (np.linalg.solve: +0.3 MiB peak RSS).
    xi_kg = np.linalg.lstsq(model.A[cross],
                            -emb_nls.omega - model.nu_J[order],
                            rcond=None)[0]
    for h, j, x in zip(_fundamentals(N, Q), J, xi_kg):
        if not x > 0:
            raise RuntimeError(f"KG torus has no positive amplitude on mode "
                               f"{j}: the first-order map gives xi = {x:.3e}")
        kg_seed.coeffs[h, j + M] = math.sqrt(x)
    emb_kg, rep_kg = refine_torus(kg_seed, kg, mode="fixed_frequency",
                                  tol=tol)
    if not rep_kg.converged:
        raise RuntimeError(f"KG torus did not converge: {rep_kg.message}")
    return emb_nls, emb_kg, rep_nls, rep_kg


def fit_loglog(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def scaling_study(R: float, c_list, sigma: float, T: float = 1e3,
                  J=(1,), M: int = 16, Q: int = 3,
                  params: SpaceParams | None = None,
                  n_samples: int = 512, enforce_admissible: bool = True
                  ) -> dict:
    """Gauge distance between frequency-matched refined tori as a function
    of c; fits the log-log slope.  Inadmissible c (< R^{-73/72}) are
    rejected or flagged.  Each converged row also carries the KG solve's
    Newton iterations, defect history, smallest singular value and the
    coefficient-error bound final_defect / sigma_min."""
    if params is None:
        params = SpaceParams(a=0.0, p=5.0, beta=0.0, M=M)
    # the threshold does not depend on c
    c_adm = predicted_bounds(R, 1.0, sigma)["c_admissible"]
    rows = []
    for c in c_list:
        if c < c_adm:
            if enforce_admissible:
                rows.append({"c": c, "admissible": False, "converged": False,
                             "distance": None})
                continue
        try:
            emb_nls, emb_kg, _, rep_kg = matched_torus_pair(R, c, J, M, Q)
        except RuntimeError as exc:
            rows.append({"c": c, "admissible": c >= c_adm,
                         "converged": False, "distance": None,
                         "error": str(exc)})
            continue
        _, sup = gauge_distance(emb_kg, emb_nls, params, c, sigma, T,
                                n_samples)
        smin = rep_kg.smallest_singular_value
        rows.append({"c": c, "admissible": c >= c_adm, "converged": True,
                     "distance": sup, "newton_iters": rep_kg.iterations,
                     "defect_history": rep_kg.defect_history,
                     "sigma_min": smin,
                     "coeff_error_bound": None if smin is None
                     else rep_kg.final_defect / smin})
    good = [(r["c"], r["distance"]) for r in rows
            if r["converged"] and r["admissible"]]
    slope = fit_loglog([g[0] for g in good], [g[1] for g in good]) \
        if len(good) >= 2 else None
    return {"R": R, "sigma": sigma, "T": T, "J": list(J), "M": M, "Q": Q,
            "c_admissible": c_adm, "rows": rows, "slope_vs_c": slope,
            "predicted_slope": -2.0 * sigma}


# --- binary frame format ---------------------------------------------------

_FRAME_MAGIC = b"TLAB"


def save_record(path, record: SimulationRecord) -> None:
    """Header: magic, M, frame count; frames: time + interleaved complex
    doubles (z then zbar)."""
    M = record.states[0].M
    with open(path, "wb") as fh:
        fh.write(_FRAME_MAGIC)
        fh.write(struct.pack("<qq", M, len(record.times)))
        for t, st in zip(record.times, record.states):
            fh.write(struct.pack("<d", float(t)))
            fh.write(np.ascontiguousarray(st.z, dtype=complex).tobytes())
            fh.write(np.ascontiguousarray(st.zbar, dtype=complex).tobytes())


def load_record(path) -> tuple[np.ndarray, list[FourierState]]:
    with open(path, "rb") as fh:
        if fh.read(4) != _FRAME_MAGIC:
            raise ValueError("not a trajectory frame file")
        M, count = struct.unpack("<qq", fh.read(16))
        n = 2 * M + 1
        times = np.empty(count)
        states = []
        for i in range(count):
            times[i] = struct.unpack("<d", fh.read(8))[0]
            z = np.frombuffer(fh.read(16 * n), dtype=complex).copy()
            zb = np.frombuffer(fh.read(16 * n), dtype=complex).copy()
            states.append(FourierState(z, zb))
    return times, states
