"""Truncated weighted Fourier sequence spaces.

Modes live on the symmetric index window ``j in {-M..M}``.  The linear
dispersion is ``lambda_j = c*sqrt(j^2 + c^2)``; with ``h = 1/c^2`` it splits
as ``lambda_j = 1/h + nu_j`` where ``nu_j = j^2/(1 + sqrt(1 + h j^2))``.
The mode weights are ``w_j = lambda_j / c^2 = sqrt(1 + j^2/c^2)``.
The Schrodinger limit is the table at ``c = inf``: there h = 0,
``nu_j = j^2/2`` and ``w_j = 1`` exactly, and in the gauge frame
``lambda_j = nu_j``.

Norm convention: ``<j> := sqrt(1 + j^2)`` throughout (documented choice; the
bracket is only fixed up to equivalent rescalings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def lambda_freq(c: float, j: int | np.ndarray) -> float | np.ndarray:
    """Linear frequency c*sqrt(j^2 + c^2).  Even in j."""
    if c <= 0:
        raise ValueError(f"speed parameter must be positive, got c={c}")
    j = np.asarray(j, dtype=float)
    out = c * np.sqrt(j * j + c * c)
    return out.item() if out.ndim == 0 else out


def nu(h: float, j: int | np.ndarray) -> float | np.ndarray:
    """Shifted frequency j^2/(1 + sqrt(1 + h j^2)), so lambda_j = 1/h + nu_j.

    Satisfies 0 <= nu_j <= j^2/2 and |nu_j - j^2/2| <= h*j^4/2; h = 0
    gives the Schrodinger frequencies j^2/2 exactly.
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got h={h}")
    j = np.asarray(j, dtype=float)
    out = j * j / (1.0 + np.sqrt(1.0 + h * j * j))
    return out.item() if out.ndim == 0 else out


@dataclass(frozen=True)
class SpaceParams:
    """Parameters (a, p, beta) of the weighted sequence space, plus the
    truncation radius M."""

    a: float = 0.0
    p: float = 5.0  # any p > 9/2 is fine; 5 is the working default
    beta: float = 0.0
    M: int = 16

    def __post_init__(self):
        if self.a < 0:
            raise ValueError("analyticity width a must be >= 0")
        if self.p <= 0.5:
            raise ValueError("Sobolev exponent p must exceed 1/2")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError("weight exponent beta must lie in [0, 1]")
        if self.M < 1:
            raise ValueError("truncation M must be >= 1")


@dataclass(frozen=True)
class FrequencyTable:
    """Immutable per-(c, M) table of lambda_j, nu_j and weights w_j, and
    `rest`, the rest energy c^2 that the split forms multiply by the gauge
    charge.  c = inf is the Schrodinger table: h = 0, lambda = nu = j^2/2,
    w = 1 and rest = 0."""

    c: float
    M: int
    h: float = field(init=False)
    rest: float = field(init=False)
    lam: np.ndarray = field(init=False)
    nu: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.c > 0:   # NaN too
            raise ValueError("speed parameter c must be positive")
        if self.M < 1:
            raise ValueError("truncation M must be >= 1")
        h = 1.0 / (self.c * self.c)
        j = np.arange(-self.M, self.M + 1)
        shifted = nu(h, j)
        kg = math.isfinite(self.c)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "rest", self.c ** 2 if kg else 0.0)
        object.__setattr__(self, "lam",
                           lambda_freq(self.c, j) if kg else shifted)
        object.__setattr__(self, "nu", shifted)
        object.__setattr__(self, "w", np.sqrt(1.0 + h * j.astype(float) ** 2))
        self.lam.setflags(write=False)
        self.nu.setflags(write=False)
        self.w.setflags(write=False)


@dataclass
class FourierState:
    """A truncated phase-space point (z, zbar) on |j| <= M.

    zbar is carried as an independent component; `real_representation`
    checks whether it is the conjugate of z (i.e. the state represents a
    real field).
    """

    z: np.ndarray
    zbar: np.ndarray

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=complex)
        self.zbar = np.asarray(self.zbar, dtype=complex)
        if self.z.shape != self.zbar.shape or self.z.ndim != 1:
            raise ValueError("z and zbar must be 1-d arrays of equal length")
        if len(self.z) % 2 != 1:
            raise ValueError("state length must be odd (modes -M..M)")

    @property
    def M(self) -> int:
        return (len(self.z) - 1) // 2

    @classmethod
    def zero(cls, M: int) -> "FourierState":
        n = 2 * M + 1
        return cls(np.zeros(n, dtype=complex), np.zeros(n, dtype=complex))

    @classmethod
    def from_modes(cls, M: int, modes: dict[int, complex]) -> "FourierState":
        """Real-representation state with z_j set from `modes`, zbar = conj(z).
        A mode outside |j| <= M raises ValueError."""
        outside = [j for j in modes if abs(j) > M]
        if outside:
            raise ValueError(f"modes {outside} outside the window |j| <= {M}")
        st = cls.zero(M)
        for j, v in modes.items():
            st.z[j + M] = v
        st.zbar = np.conj(st.z)
        return st

    def real_representation(self, tol: float = 1e-12) -> bool:
        return bool(np.max(np.abs(self.zbar - np.conj(self.z))) <= tol)


def mode_weights(params: SpaceParams, freq: FrequencyTable) -> np.ndarray:
    """Per-mode norm weights e^{2a|j|} <j>^{2p} w_j^{2 beta}."""
    if params.M != freq.M:
        raise ValueError("SpaceParams and FrequencyTable truncations differ")
    j = np.arange(-params.M, params.M + 1, dtype=float)
    return (np.exp(2.0 * params.a * np.abs(j))
            * (1.0 + j * j) ** params.p
            * freq.w ** (2.0 * params.beta))


def _two_sum(a: np.ndarray, b: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded, and its rounding error exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a float array of two or more columns, bit
    for bit.

    Two TwoSum distillation passes over the columns (Ogita, Rump & Oishi,
    SIAM J. Sci. Comput. 26, 2005) leave each row's exact sum as
    hi + e + r: hi the last rounded addition of the second pass, e its
    error, r the second-order errors of the additions before it.  When r
    is 0, hi is that sum rounded by one IEEE addition, ties included.
    Otherwise hi is the correctly rounded sum when |e| + |r| stays below
    half the gap below |hi|, the smaller of its two gaps, so the bound
    holds on either side of a binade boundary; the test keeps a factor-2
    margin for the rounding of |r| and of the slack.  Rows that pass
    neither, zero and non-finite sums among them, go to math.fsum."""
    cols = list(x.T)
    # overflow and inf - inf only make rows that fail the test
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            hi = cols[0]
            for k in range(1, len(cols)):
                hi, cols[k - 1] = _two_sum(hi, cols[k])
            cols[-1] = hi
        a = np.abs(hi)
        slack = (a - np.nextafter(a, 0.0)) / 2 - np.abs(cols[-2])
        r = sum(np.abs(e) for e in cols[:-2])
        ok = np.isfinite(hi) & (a > 0) & ((r == 0) | (2 * r <= slack))
    out = hi.copy()
    bad = np.flatnonzero(~ok)
    out[bad] = [math.fsum(row) for row in x[bad].tolist()]
    return out


def seq_norm(x: np.ndarray, params: SpaceParams, freq: FrequencyTable
             ) -> float | np.ndarray:
    """Weighted norm of a single sequence (not doubled); of each row when
    x is 2-D."""
    terms = (np.abs(np.asarray(x)) ** 2) * mode_weights(params, freq)
    # exact row sums keep the sharp invariant tests honest
    norms = np.sqrt(_fsum_rows(np.atleast_2d(terms)))
    return float(norms[0]) if terms.ndim == 1 else norms
