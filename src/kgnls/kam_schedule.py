"""Parameter cascade bookkeeping for the iterative scheme: geometric
sequences, smallness conditions, exponent choices, and closed-form
predictions of the limit-theorem bounds.

Cascade (nu >= 1):
    sigma_{nu+1} = sigma_nu / 2,            sigma_0 = s_0 / 40, s_0 = 2
    alpha_nu     = (alpha_1/2)(1 + 2^{1-nu})
    K_nu         = 2^{nu-1} K_1
    eps_{nu+1}   = C_1 eps_nu^{4/3} / (alpha_nu sigma_nu^mu)^{1/3}
    eta_nu^3     = eps_nu / (alpha_nu sigma_nu^mu)
    s_{nu+1}     = s_nu - 5 sigma_nu,       r_{nu+1} = eta_nu r_nu
with mu = 2 tau + N + 3 and the seed eps_1 = (eps_0/alpha_0)^{1/3} eps_0.

Exponent choices (knob varsigma, default 1/36):
    a_0 = 5/3 + 3 varsigma,  a_1 = 2 + varsigma,  theta = 1/2 - 3 varsigma,
    alpha_0 = r_0^{a_0},     alpha_1 = r_0^{a_1}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

# Smallness margin rho_*: eps0/alpha0 + eps1/alpha1 must stay below it.
RHO_STAR = 1e-2


class ScheduleDivergence(RuntimeError):
    pass


def init_exponents(varsigma: float) -> tuple[float, float, float]:
    """(a0, a1, theta) at the knob varsigma."""
    if not (0.0 < varsigma < 1.0 / 18.0):
        raise ValueError("varsigma must lie in (0, 1/18)")
    a0 = 5.0 / 3.0 + 3.0 * varsigma
    a1 = 2.0 + varsigma
    theta = 0.5 - 3.0 * varsigma
    if a0 >= 2.0:
        raise ValueError("exponent constraint a0 < 2 violated")
    if a1 >= 8.0 / 3.0 - a0 / 3.0:
        raise ValueError("exponent constraint a1 < 8/3 - a0/3 violated")
    return a0, a1, theta


@dataclass(frozen=True)
class ScheduleParams:
    """Cascade parameters; a0, a1 and theta are `init_exponents(varsigma)`,
    derived at construction (so `dataclasses.replace` derives them again)."""
    N: int
    tau: float
    r0: float
    varsigma: float = 1.0 / 36.0
    C1: float = 1.0
    s0: float = field(init=False, default=2.0)
    a0: float = field(init=False)
    a1: float = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not (0 < self.r0 < 1):
            raise ValueError("r0 must lie in (0, 1)")
        for name, v in zip(("a0", "a1", "theta"),
                           init_exponents(self.varsigma)):
            object.__setattr__(self, name, v)

    @property
    def sigma0(self) -> float:
        return self.s0 / 40.0

    @property
    def mu(self) -> float:
        return 2.0 * self.tau + self.N + 3.0

    @property
    def alpha0(self) -> float:
        return self.r0 ** self.a0

    @property
    def alpha1(self) -> float:
        return self.r0 ** self.a1


@dataclass
class KamSchedule:
    """Cascade sequences.  eps shrinks super-exponentially, so the
    recursion is carried in log space; `eps` underflows to 0.0 for deep
    steps while `log_eps` stays exact."""
    params: ScheduleParams
    sigma: np.ndarray
    alpha: np.ndarray
    K: np.ndarray
    eps: np.ndarray
    log_eps: np.ndarray
    eta: np.ndarray
    log_eta: np.ndarray
    s: np.ndarray
    r: np.ndarray

    @property
    def nu_max(self) -> int:
        return len(self.sigma) - 1

    def growth_factors(self) -> np.ndarray:
        """Ratios log eps_{nu+1} / log eps_nu; tend to 4/3."""
        return self.log_eps[1:] / self.log_eps[:-1]


def smallness_check(params: ScheduleParams, log_eps0: float) -> dict:
    """The smallness margin at the scale eps_0 = exp(log_eps0), given in
    natural log: eps shrinks past float range in meaningful runs."""
    a0, a1, alpha0 = params.a0, params.a1, params.alpha0
    L1 = (4.0 / 3.0) * log_eps0 - math.log(alpha0) / 3.0
    ratio0 = math.exp(log_eps0 - math.log(alpha0))
    ratio1 = math.exp(L1 - math.log(params.alpha1))
    # with the normal-form order eps0 ~ r0^2 these ratios scale as
    # r0^{2-a0} and r0^{(2-a0)/3 + 2 - a1}
    return {
        "ratio0": ratio0, "ratio1": ratio1,
        "sum": ratio0 + ratio1, "rho_star": RHO_STAR,
        "passed": ratio0 + ratio1 < RHO_STAR,
        "predicted_exponent_ratio0": 2.0 - a0,
        "predicted_exponent_ratio1": (2.0 - a0) / 3.0 + 2.0 - a1,
        "theta": params.theta, "a0": a0, "a1": a1,
    }


def minimal_K1(params: ScheduleParams, log_rho1: float) -> int:
    """Smallest integer with K1^(tau+1) > 1/rho1, rho1 = exp(log_rho1)
    (log arithmetic: rho1 can be far below float range)."""
    target = -log_rho1 / (params.tau + 1.0)   # need log K1 > target
    if target <= 700.0:
        K1 = max(1, int(math.floor(math.exp(max(target, 0.0)))) + 1)
    else:
        # beyond float range: exact big-integer candidate via Decimal
        from decimal import Decimal, getcontext
        getcontext().prec = 60
        K1 = int(Decimal(target).exp()) + 1
    while (params.tau + 1.0) * math.log(K1) <= -log_rho1:
        K1 += max(1, K1 >> 40)   # exact minimality preserved for small K1
    return K1


def generate(params: ScheduleParams, log_eps0: float, nu_max: int = 16
             ) -> KamSchedule:
    """The cascade from eps_0 = exp(log_eps0), with the minimal K1.  Raises
    ScheduleDivergence if the smallness margin fails, eps stops shrinking,
    s_nu is exhausted or some K_nu is too large for a float."""
    check = smallness_check(params, log_eps0)
    if not check["passed"]:
        raise ScheduleDivergence(
            f"smallness margin violated: eps0/alpha0 + eps1/alpha1 = "
            f"{check['sum']:.3e} >= rho_* = {RHO_STAR:.3e}")
    alpha1 = params.alpha1
    L1 = (4.0 / 3.0) * log_eps0 - math.log(params.alpha0) / 3.0
    K1 = minimal_K1(params, L1 - math.log(alpha1))

    n = nu_max + 1
    sigma = params.sigma0 * 0.5 ** np.arange(n)
    alpha = np.empty(n)
    alpha[0] = params.alpha0
    nus = np.arange(1, n)
    alpha[1:] = (alpha1 / 2.0) * (1.0 + 2.0 ** (1.0 - nus))
    K = np.empty(n)
    for nu in range(n):
        try:   # int division rounds once, and raises past the float range
            K[nu] = K1 * 2 ** nu / 2
        except OverflowError:
            raise ScheduleDivergence(
                f"K_nu = 2^(nu-1) K_1 is not a finite float at nu = {nu}"
            ) from None
    mu = params.mu
    log_denom = np.log(alpha) + mu * np.log(sigma)   # log(alpha sigma^mu)
    log_eps = np.empty(n)
    log_eps[0], log_eps[1] = log_eps0, L1
    for nu in range(1, n - 1):
        log_eps[nu + 1] = math.log(params.C1) \
            + (4.0 / 3.0) * log_eps[nu] - log_denom[nu] / 3.0
        if log_eps[nu + 1] >= log_eps[nu]:
            margin = log_eps[nu] - log_denom[nu]
            raise ScheduleDivergence(
                f"eps increases at step {nu}: log margin "
                f"log(eps_nu/(alpha_nu sigma_nu^mu)) = {margin:.3f} "
                f"must be negative")
    log_eta = (log_eps - log_denom) / 3.0
    eps = np.exp(log_eps)            # underflows to 0.0 for deep steps
    eta = np.exp(log_eta)
    s = np.empty(n)
    s[0] = params.s0
    for nu in range(n - 1):
        s[nu + 1] = s[nu] - 5.0 * sigma[nu]
    if np.any(s <= 0):
        raise ScheduleDivergence("analyticity budget s_nu exhausted")
    r = np.empty(n)
    r[0] = params.r0
    for nu in range(n - 1):
        r[nu + 1] = eta[nu] * r[nu]
    return KamSchedule(params=params, sigma=sigma, alpha=alpha, K=K,
                       eps=eps, log_eps=log_eps, eta=eta, log_eta=log_eta,
                       s=s, r=r)


def predicted_bounds(R: float, c: float, sigma: float) -> dict:
    """Closed-form limit-theorem quantities with unit constants:
    distance R^{1/36 - (215/72) sigma} / c^{2 sigma},
    excised-measure R^{1/36}, admissibility c >= R^{-73/72}."""
    if not (0.0 <= sigma <= 1.0):
        raise ValueError("sigma must lie in [0, 1]")
    if not (0.0 < R < 1.0):
        raise ValueError("R must lie in (0, 1)")
    c_adm = R ** (-73.0 / 72.0)
    return {
        "distance_bound": R ** (1.0 / 36.0 - 215.0 / 72.0 * sigma)
        / c ** (2.0 * sigma),
        "measure_bound": R ** (1.0 / 36.0),
        "c_admissible": c_adm,
        "admissible": c >= c_adm,
    }


SCHEDULE_CSV_FIELDS = ("nu", "sigma", "alpha", "K", "eps", "log_eps",
                       "eta", "log_eta", "s", "r")


def write_schedule_csv(path, sched: KamSchedule) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(SCHEDULE_CSV_FIELDS)
        for nu in range(sched.nu_max + 1):
            wr.writerow([nu] + [repr(float(v[nu])) for v in
                                (sched.sigma, sched.alpha, sched.K,
                                 sched.eps, sched.log_eps, sched.eta,
                                 sched.log_eta, sched.s, sched.r)])
