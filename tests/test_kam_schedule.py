"""Cascade sequences, smallness conditions, and limit-bound predictions."""

import dataclasses
import math

import numpy as np
import pytest

from kgnls.kam_schedule import (ScheduleDivergence, ScheduleParams,
                                generate, init_exponents, minimal_K1,
                                predicted_bounds, smallness_check,
                                write_schedule_csv)


def params(**kw):
    base = dict(N=3, tau=8.0, r0=1e-3)
    base.update(kw)
    return ScheduleParams(**base)


def test_exponent_values_at_default_knob():
    a0, a1, theta = init_exponents(1.0 / 36.0)
    assert abs(a0 - 7.0 / 4.0) < 1e-15
    assert abs(a1 - 73.0 / 36.0) < 1e-15
    assert abs(theta - 5.0 / 12.0) < 1e-15
    assert a0 < 2.0 and a1 < 8.0 / 3.0 - a0 / 3.0


def test_exponent_knob_validation():
    with pytest.raises(ValueError):
        init_exponents(0.0)
    with pytest.raises(ValueError):
        init_exponents(1.0 / 18.0)


def test_params_derived_quantities():
    p = params()
    assert p.sigma0 == 0.05
    assert p.mu == 2 * 8.0 + 3 + 3
    assert abs(p.alpha0 - 1e-3 ** p.a0) < 1e-18
    assert abs(p.alpha1 - 1e-3 ** p.a1) < 1e-18


def test_params_derive_the_exponents_of_their_knob():
    p = params()
    assert (p.a0, p.a1, p.theta) == init_exponents(p.varsigma)
    q = dataclasses.replace(p, varsigma=1.0 / 48.0)
    assert (q.a0, q.a1, q.theta) == init_exponents(1.0 / 48.0)
    assert q.a0 != p.a0 and q.alpha0 == q.r0 ** q.a0
    for bad in (0.0, 1.0 / 18.0):
        with pytest.raises(ValueError, match="varsigma"):
            dataclasses.replace(p, varsigma=bad)


def test_generate_recursions_consistent():
    p = params()
    sched = generate(p, log_eps0=-2000.0, nu_max=10)
    n = sched.nu_max + 1
    # sigma halves, K doubles, alpha follows the closed form
    assert np.allclose(sched.sigma, p.sigma0 * 0.5 ** np.arange(n))
    assert np.allclose(sched.K[1:] / sched.K[:-1], 2.0)
    nus = np.arange(1, n)
    assert np.allclose(sched.alpha[1:],
                       (p.alpha1 / 2.0) * (1.0 + 2.0 ** (1.0 - nus)))
    # the log recursion holds exactly as implemented
    mu = p.mu
    for nu in range(1, n - 1):
        rhs = math.log(p.C1) + (4.0 / 3.0) * sched.log_eps[nu] \
            - (math.log(sched.alpha[nu]) + mu * math.log(sched.sigma[nu])) / 3
        assert abs(sched.log_eps[nu + 1] - rhs) < 1e-9
    # eta^3 = eps / (alpha sigma^mu) in log form
    for nu in range(n):
        rhs = (sched.log_eps[nu] - math.log(sched.alpha[nu])
               - mu * math.log(sched.sigma[nu])) / 3.0
        assert abs(sched.log_eta[nu] - rhs) < 1e-9
    # s decreases by 5 sigma, r contracts by eta
    assert np.allclose(sched.s[1:], sched.s[:-1] - 5.0 * sched.sigma[:-1])
    assert np.all(sched.s > 0)
    good = sched.r[:-1] > 0
    ratio = sched.r[1:][good] / sched.r[:-1][good]
    assert np.allclose(ratio, sched.eta[:-1][good])


def test_eps_decreasing_and_growth_factor():
    sched = generate(params(), log_eps0=-2000.0, nu_max=14)
    assert np.all(np.diff(sched.log_eps) < 0)
    gf = sched.growth_factors()
    assert abs(np.mean(gf[4:13]) - 4.0 / 3.0) < 0.02
    # eta < 1/8 beyond the first step
    assert np.all(sched.eta[1:] < 1.0 / 8.0)


def test_divergence_detected():
    with pytest.raises(ScheduleDivergence):
        generate(params(), log_eps0=-20.0, nu_max=8)


def test_smallness_check():
    rep = smallness_check(params(), log_eps0=-2000.0)
    assert rep["passed"] and rep["sum"] < 1e-2
    assert abs(rep["predicted_exponent_ratio0"] - 0.25) < 1e-15
    rep2 = smallness_check(params(), log_eps0=math.log(1e-3))
    assert not rep2["passed"]


def test_smallness_margin_is_rho_star():
    # the margin rho_* = 1e-2 is reported and named when it fails
    assert smallness_check(params(), log_eps0=-2000.0)["rho_star"] == 1e-2
    with pytest.raises(ScheduleDivergence, match=r"rho_\* = 1\.000e-02"):
        generate(params(), log_eps0=math.log(1e-3))


def test_generate_uses_the_minimal_K1():
    # K1 is the least with K1^(tau+1) > alpha1 / eps1, eps1 from eps0
    p = params()
    L0 = -2000.0
    L1 = (4.0 / 3.0) * L0 - math.log(p.alpha0) / 3.0
    sched = generate(p, log_eps0=L0, nu_max=4)
    assert sched.K[1] == minimal_K1(p, log_rho1=L1 - math.log(p.alpha1))
    assert sched.log_eps[1] == L1


def test_minimal_K1_small_case():
    # tau = 1: need K1^2 > 1000 -> 32
    p = ScheduleParams(N=3, tau=1.0, r0=1e-3)
    assert minimal_K1(p, log_rho1=math.log(1e-3)) == 32
    assert minimal_K1(p, log_rho1=math.log(0.5)) == 2
    # astronomically small rho1 terminates (log arithmetic)
    big = minimal_K1(p, log_rho1=-2000.0)
    assert (p.tau + 1.0) * math.log(big) > 2000.0


def test_predicted_bounds():
    rep = predicted_bounds(1e-2, 200.0, 1.0)
    assert rep["admissible"]                      # 200 > 100^(73/72)
    assert abs(rep["c_admissible"] - 1e-2 ** (-73.0 / 72.0)) < 1e-9
    rep0 = predicted_bounds(1e-2, 200.0, 0.0)
    # sigma = 0 removes every c-dependence from the distance bound
    assert abs(rep0["distance_bound"]
               - 1e-2 ** (1.0 / 36.0)) < 1e-15
    assert not predicted_bounds(1e-2, 10.0, 1.0)["admissible"]
    with pytest.raises(ValueError):
        predicted_bounds(2.0, 10.0, 0.5)


def test_schedule_csv(tmp_path):
    sched = generate(params(), log_eps0=-2000.0, nu_max=6)
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, sched)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("nu,sigma,alpha,K,eps,log_eps")
    assert len(lines) == 8
