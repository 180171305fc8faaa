"""Action-angle frequency maps for the tangential set J and the normal
modes, and the rank-one (Bateman) inverse.

Matrix conventions:
    A_ij = N_ij / (w_i w_j),         i, j in J
    B_nj = N_nj / (w_n w_j),         n in J^c, j in J
    N_ij = 3/(8 pi) (2 - delta_ij),  w_j = sqrt(1 + h j^2) = 1 + h nu_j.
The NLS maps are those of the c = inf model (`nls_model`): there w = 1,
so A = B = N, and lambda = j^2/2.  Frequency maps are affine:
    omega0(xi)  = lambda|_J   + A xi  (+ delta)
    Omega0(xi)  = lambda|_J^c + B xi
where delta, when set, is a constant shift of the tangential frequencies
(`divisors.center_pair_correction` sets one).

A `FrequencyModel` is frozen: a model with another delta or box is a new
model, `dataclasses.replace(model, delta=...)`.  Each instance carries a
private memo of derived data (`divisors` keeps its excision tables and its
latest point draw there), which lives and dies with the model; `replace`
starts the new model with an empty one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral_core import TWO_PI, FrequencyTable

N_OFFDIAG = 3.0 / (4.0 * TWO_PI) * 2.0   # 3/(4 pi)
N_DIAG = 3.0 / (4.0 * TWO_PI)            # 3/(8 pi)


@dataclass(frozen=True)
class FrequencyModel:
    """Everything a divisor evaluation needs for one (c, J, M, R)."""
    J: tuple[int, ...]
    M: int
    R: float
    freq: FrequencyTable
    A: np.ndarray
    B: np.ndarray
    normal_modes: np.ndarray          # sorted j in J^c, |j| <= M
    lam_J: np.ndarray
    lam_Jc: np.ndarray
    nu_J: np.ndarray
    nu_Jc: np.ndarray
    w_J: np.ndarray
    w_Jc: np.ndarray
    delta: np.ndarray | None = None   # (N,) constant shift of omega0
    xi_lo: np.ndarray = field(default=None)  # type: ignore[assignment]
    xi_hi: np.ndarray = field(default=None)  # type: ignore[assignment]
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    @property
    def N(self) -> int:
        return len(self.J)

    @property
    def h(self) -> float:
        return self.freq.h

    @property
    def c(self) -> float:
        return self.freq.c

    def check_xi(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.N,):
            raise ValueError(f"xi must have shape ({self.N},)")
        tol = 1e-12 * max(1.0, float(np.max(self.xi_hi)))
        if np.any(xi < self.xi_lo - tol) or np.any(xi > self.xi_hi + tol):
            raise ValueError("xi outside the amplitude box")
        return xi

    def xi_corners(self) -> np.ndarray:
        """All 2^N corners of the amplitude box; bit k of the row index
        picks xi_hi in coordinate k."""
        bits = (np.arange(2 ** self.N)[:, None] >> np.arange(self.N)) & 1
        return np.where(bits == 1, self.xi_hi, self.xi_lo)


def build_model(c: float, J, M: int, R: float) -> FrequencyModel:
    Jt = tuple(sorted(int(j) for j in J))
    N = len(Jt)
    if len(set(Jt)) < N:
        raise ValueError(f"J must not repeat a mode, got J = {tuple(J)}")
    if any(abs(j) > M for j in Jt):
        raise ValueError("tangential modes must lie inside the truncation")
    ft = FrequencyTable(c=c, M=M)
    normal = np.array([j for j in range(-M, M + 1) if j not in Jt])
    iJ, iJc = np.array(Jt, dtype=int) + M, normal + M
    wJ, wJc = ft.w[iJ], ft.w[iJc]

    A = N_OFFDIAG / np.outer(wJ, wJ)
    A[np.diag_indices_from(A)] = N_DIAG / wJ ** 2
    B = N_OFFDIAG / np.outer(wJc, wJ)

    xi_lo = np.full(N, 0.5 * R * R)
    xi_hi = np.full(N, 1.5 * R * R)
    return FrequencyModel(
        J=Jt, M=M, R=R, freq=ft, A=A, B=B, normal_modes=normal,
        lam_J=ft.lam[iJ], lam_Jc=ft.lam[iJc], nu_J=ft.nu[iJ],
        nu_Jc=ft.nu[iJc], w_J=wJ, w_Jc=wJc, xi_lo=xi_lo, xi_hi=xi_hi)


def nls_model(model: FrequencyModel) -> FrequencyModel:
    """The c = inf model on the same J, M and amplitude box: the NLS
    frequency maps, with no delta."""
    return build_model(math.inf, model.J, model.M, model.R)


def omega0(model: FrequencyModel, xi) -> np.ndarray:
    xi = model.check_xi(xi)
    out = model.lam_J + model.A @ xi
    if model.delta is not None:
        out = out + model.delta
    return out


def Omega0(model: FrequencyModel, xi) -> np.ndarray:
    xi = model.check_xi(xi)
    return model.lam_Jc + model.B @ xi


def omega0_remainder(model: FrequencyModel, xi) -> np.ndarray:
    """omega0 - 1/h - the NLS map: the gap to the Schrodinger limit."""
    return omega0(model, xi) - 1.0 / model.h - omega0(nls_model(model), xi)


def Omega0_remainder(model: FrequencyModel, xi) -> np.ndarray:
    return Omega0(model, xi) - 1.0 / model.h - Omega0(nls_model(model), xi)


def bateman_inverse(model: FrequencyModel) -> np.ndarray:
    """Closed-form inverse of A via the rank-one update formula:

        A^{-1} = (8 pi / 3) ( 2 <w, .> w / (2N - 1) - D^{-1} ),

    D^{-1} = diag(w_j^2).  Operator 1-norm bounded by
    (8 pi / 3) (4N - 1)/(2N - 1) |w|^2.
    """
    w = model.w_J
    N = model.N
    pref = 4.0 * TWO_PI / 3.0  # 8 pi / 3
    return pref * (2.0 * np.outer(w, w) / (2 * N - 1) - np.diag(w * w))


def bateman_norm_bound(model: FrequencyModel) -> float:
    N = model.N
    return (4.0 * TWO_PI / 3.0) * (4 * N - 1) / (2 * N - 1) \
        * float(np.max(model.w_J)) ** 2
