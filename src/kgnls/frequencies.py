"""Action-angle frequency maps for the tangential set J and the normal
modes, their NLS counterparts, the rank-one (Bateman) inverse, and the
first-Melnikov solvability bounds.

Matrix conventions:
    A_ij = N_ij / (w_i w_j),         i, j in J
    B_nj = N_nj / (w_n w_j),         n in J^c, j in J
    N_ij = 3/(8 pi) (2 - delta_ij),  w_j = sqrt(1 + h j^2) = 1 + h nu_j.
The NLS matrices drop the weight factors.  Frequency maps are affine:
    omega0(xi)  = lambda|_J   + A xi  (+ delta correction)
    Omega0(xi)  = lambda|_J^c + B xi  (+ Delta correction)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectral_core import TWO_PI, FrequencyTable

N_OFFDIAG = 3.0 / (4.0 * TWO_PI) * 2.0   # 3/(4 pi)
N_DIAG = 3.0 / (4.0 * TWO_PI)            # 3/(8 pi)


@dataclass
class CorrectionTable:
    """Tabulated frequency corrections on a sample grid of xi values,
    extended off the samples by nearest neighbour (a deliberate, documented
    simplification of a Lipschitz extension)."""
    points: np.ndarray   # (n_samples, N)
    values: np.ndarray   # (n_samples, dim_out)

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        """Values at the nearest sample of each point: (n, N) points give
        (n, dim_out) values; a single point (N,) is the one-row case."""
        xi = np.asarray(xi, dtype=float)
        d = np.linalg.norm(self.points[None, :, :]
                           - np.atleast_2d(xi)[:, None, :], axis=2)
        out = self.values[np.argmin(d, axis=1)]
        return out if xi.ndim == 2 else out[0]


@dataclass
class FrequencyModel:
    """Everything a divisor evaluation needs for one (c, J, M, R)."""
    J: tuple[int, ...]
    M: int
    R: float
    freq: FrequencyTable
    A: np.ndarray
    B: np.ndarray
    A_nls: np.ndarray
    B_nls: np.ndarray
    normal_modes: np.ndarray          # sorted j in J^c, |j| <= M
    lam_J: np.ndarray
    lam_Jc: np.ndarray
    nu_J: np.ndarray
    nu_Jc: np.ndarray
    w_J: np.ndarray
    w_Jc: np.ndarray
    delta: CorrectionTable | None = None
    Delta: CorrectionTable | None = None
    xi_lo: np.ndarray = field(default=None)  # type: ignore[assignment]
    xi_hi: np.ndarray = field(default=None)  # type: ignore[assignment]

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


def build_model(c: float, J, M: int, R: float,
                require_min_N: int = 3) -> FrequencyModel:
    Jt = tuple(sorted(set(int(j) for j in J)))
    N = len(Jt)
    if N < require_min_N:
        raise ValueError(f"need at least {require_min_N} tangential modes, "
                         f"got N={N}")
    if any(abs(j) > M for j in Jt):
        raise ValueError("tangential modes must lie inside the truncation")
    ft = FrequencyTable(c=c, M=M)
    normal = np.array([j for j in range(-M, M + 1) if j not in set(Jt)])

    wJ = np.array([ft.w_at(j) for j in Jt])
    wJc = np.array([ft.w_at(j) for j in normal])

    def nmat(rows_w, cols_w, diag_equal):
        Amat = N_OFFDIAG / np.outer(rows_w, cols_w)
        if diag_equal:
            Amat[np.diag_indices_from(Amat)] = N_DIAG / rows_w ** 2
        return Amat

    A = nmat(wJ, wJ, True)
    B = N_OFFDIAG / np.outer(wJc, wJ)
    A_nls = np.full((N, N), N_OFFDIAG)
    A_nls[np.diag_indices_from(A_nls)] = N_DIAG
    B_nls = np.full((len(normal), N), N_OFFDIAG)

    xi_lo = np.full(N, 0.5 * R * R)
    xi_hi = np.full(N, 1.5 * R * R)
    return FrequencyModel(
        J=Jt, M=M, R=R, freq=ft, A=A, B=B, A_nls=A_nls, B_nls=B_nls,
        normal_modes=normal,
        lam_J=np.array([ft.lam_at(j) for j in Jt]),
        lam_Jc=np.array([ft.lam_at(j) for j in normal]),
        nu_J=np.array([ft.nu_at(j) for j in Jt]),
        nu_Jc=np.array([ft.nu_at(j) for j in normal]),
        w_J=wJ, w_Jc=wJc, xi_lo=xi_lo, xi_hi=xi_hi)


def omega0(model: FrequencyModel, xi) -> np.ndarray:
    xi = model.check_xi(xi)
    out = model.lam_J + model.A @ xi
    if model.delta is not None:
        out = out + model.delta(xi)
    return out


def Omega0(model: FrequencyModel, xi) -> np.ndarray:
    xi = model.check_xi(xi)
    out = model.lam_Jc + model.B @ xi
    if model.Delta is not None:
        out = out + model.Delta(xi)
    return out


def omega0_nls(model: FrequencyModel, xi) -> np.ndarray:
    xi = model.check_xi(xi)
    return 0.5 * np.array([j * j for j in model.J], dtype=float) \
        + model.A_nls @ xi


def Omega0_nls(model: FrequencyModel, xi) -> np.ndarray:
    xi = model.check_xi(xi)
    return 0.5 * model.normal_modes.astype(float) ** 2 + model.B_nls @ xi


def omega0_remainder(model: FrequencyModel, xi) -> np.ndarray:
    """omega0 - 1/h - omega0_nls: the gap to the NLS map."""
    return omega0(model, xi) - 1.0 / model.h - omega0_nls(model, xi)


def Omega0_remainder(model: FrequencyModel, xi) -> np.ndarray:
    return Omega0(model, xi) - 1.0 / model.h - Omega0_nls(model, xi)


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


def solve_first_melnikov(model: FrequencyModel, ell: dict[int, int]
                         ) -> np.ndarray:
    """Closed-form solution x of A x + B^T ell = 0:

        x = <v_ell, ell> * sqrt(2)/(1 - 2N) * w,
        v_ell_n = sqrt(2)/w_n over the normal modes.

    For |ell|_1 in {1, 2} the components obey |x_j| <= 4 w_j / (2N - 1).
    """
    l1 = sum(abs(v) for v in ell.values())
    if l1 > 2:
        raise ValueError("first-Melnikov solve is restricted to |ell|_1 <= 2")
    from .divisors import _Divisors  # local to avoid a cycle

    table = _Divisors(model, np.zeros(model.N, dtype=int), [ell])
    dot = math.sqrt(2.0) * float(np.sum(table.val / model.w_Jc[table.pos]))
    return dot * math.sqrt(2.0) / (1.0 - 2 * model.N) * model.w_J


def melnikov_residual(model: FrequencyModel, ell: dict[int, int],
                      x: np.ndarray) -> float:
    """|A x + B^T ell|_1, B^T ell being the gradient of the k = 0 divisor."""
    from .divisors import _Divisors  # local to avoid a cycle

    bt_ell = _Divisors(model, np.zeros(model.N, dtype=int), [ell]).grad[0]
    return float(np.sum(np.abs(model.A @ x + bt_ell)))


def melnikov_hypothesis_h(J) -> float:
    """Largest h for which the first-Melnikov lower bound is guaranteed:
    h <= 49 / (576 Jmax^2)."""
    Jmax = max(abs(j) for j in J)
    return 49.0 / (576.0 * Jmax * Jmax)


def first_melnikov_lower_bound(model: FrequencyModel, kmax: int) -> dict:
    """Scan min over (k, ell) in the momentum-zero class of
    |A k + B^T ell|_1 / |k|_1 for 1 <= |k|_1 <= kmax."""
    from .divisors import _Divisors, _pair_tables  # local to avoid a cycle

    hyp = melnikov_hypothesis_h(model.J)
    best, arg, count = math.inf, None, 0
    for k, ells in _pair_tables(model, kmax, 1):
        ratio = np.abs(_Divisors(model, k, ells).grad).sum(axis=1) \
            / int(np.abs(k).sum())
        count += len(ells)
        i = int(np.argmin(ratio))
        if ratio[i] < best:
            best = float(ratio[i])
            arg = (tuple(int(x) for x in k), dict(ells[i]))
    return {"min_ratio": best, "argmin": arg, "pairs_scanned": count,
            "h": model.h, "hypothesis_h": hyp,
            "hypothesis_violated": model.h > hyp}


def asymptotics_check(model: FrequencyModel,
                      pairs: list[tuple[int, int]] | None = None) -> dict:
    """For normal modes c^3 < |i| < |j|, the gap ratio
    (Omega0_j - Omega0_i) / (c (|j| - |i|)) deviates from 1 by O(1/w_i^2).
    Reports the empirical constant max deviation * w_i^2 over the box
    corners."""
    c = model.c
    cut = c ** 3
    normal = [int(j) for j in model.normal_modes]
    if pairs is None:
        cands = sorted(j for j in normal if j > cut)
        pairs = [(i, j) for i in cands for j in cands if abs(i) < abs(j)]
    if not pairs:
        return {"empty": True, "constant": None, "pairs": 0}
    idx = {j: i for i, j in enumerate(normal)}
    best = 0.0
    rows = []
    for xi in model.xi_corners():
        Om = model.lam_Jc + model.B @ xi
        for (i, j) in pairs:
            if not (cut < abs(i) < abs(j)):
                raise ValueError(f"pair {(i, j)} violates c^3 < |i| < |j|")
            gap = (Om[idx[j]] - Om[idx[i]]) / (c * (abs(j) - abs(i)))
            dev = abs(gap - 1.0) * model.w_Jc[idx[i]] ** 2
            best = max(best, dev)
    for (i, j) in pairs[:32]:
        Om = model.lam_Jc + model.B @ model.xi_hi
        gap = (Om[idx[j]] - Om[idx[i]]) / (c * (abs(j) - abs(i)))
        rows.append({"i": i, "j": j, "deviation": abs(gap - 1.0)})
    return {"empty": False, "constant": best, "pairs": len(pairs),
            "sample_rows": rows}

