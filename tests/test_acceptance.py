"""End-to-end acceptance gate: ten numbered checks, one pass/fail line
each, at the pinned tolerances.  Run with `pytest -v -s` to see the lines
as they pass."""

import math

import numpy as np

from kgnls.birkhoff import (lambda_plus_closed_form, remainder_split,
                            solve_cohomological_nls,
                            solve_cohomological_quartic,
                            verify_divisor_bounds)
from kgnls.divisors import (ResonantQuery, cantor_excision,
                            center_pair_correction, make_pair,
                            measure_estimate_mc)
from kgnls.frequencies import (Omega0_remainder, bateman_inverse,
                               bateman_norm_bound, build_model,
                               omega0_remainder)
from kgnls.hamiltonian import build_P, build_P_nls, gauge_sum
from kgnls.kam_schedule import ScheduleParams, generate, init_exponents
from kgnls.spectral_core import (FourierState, FrequencyTable, SpaceParams,
                                 lambda_freq, nu, seq_norm)
from kgnls.torus_lab import (TruncatedSystem, fit_loglog, integrate,
                             invariance_defect, matched_torus_pair,
                             normal_form_torus, scaling_study)

J3 = (1, 2, 3)


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:2d}: {name}" + (f" ({detail})" if detail
                                                   else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_01_frequency_identities():
    j = np.arange(-200, 201)
    worst_rel, worst_bound = 0.0, 0.0
    for h in np.logspace(-6, 0, 13):
        c = 1.0 / math.sqrt(h)
        lam = lambda_freq(c, j)
        nu_j = nu(h, j)
        worst_rel = max(worst_rel,
                        float(np.max(np.abs(lam - (1.0 / h + nu_j)) / lam)))
        slack = np.abs(nu_j - 0.5 * j.astype(float) ** 2) \
            - 0.5 * h * j.astype(float) ** 4
        worst_bound = max(worst_bound, float(np.max(slack)))
    _report(1, "frequency split and parabolic deviation bound",
            worst_rel < 1e-12 and worst_bound <= 0.0,
            f"rel {worst_rel:.2e}")


def test_criterion_02_rank_one_inverse():
    worst = 0.0
    bound_ok = True
    for N in range(3, 9):
        for c in (2.0, 10.0, 1e3):
            model = build_model(c, range(1, N + 1), max(N + 4, 12), 1e-2)
            Ainv = bateman_inverse(model)
            err = float(np.max(np.abs(model.A @ Ainv - np.eye(N))))
            worst = max(worst, err)
            bound_ok &= np.linalg.norm(Ainv, 1) <= bateman_norm_bound(model)
    _report(2, "closed-form inverse and operator-norm bound",
            worst < 1e-12 and bound_ok, f"max defect {worst:.2e}")


def test_criterion_03_cohomological_identity():
    worst_res, worst_cf = 0.0, 0.0
    for c in (10.0, 1e3):
        ft = FrequencyTable(c=c, M=8)
        nf = solve_cohomological_quartic(build_P(ft), ft, J3)
        worst_res = max(worst_res, nf.residual)
        diff = nf.Lambda_plus - lambda_plus_closed_form(ft, J3)
        scale = nf.Lambda_plus.max_abs_coeff()
        worst_cf = max(worst_cf, diff.max_abs_coeff() / scale)
    _report(3, "normal-form identity and closed-form resonant part",
            worst_res < 1e-12 and worst_cf < 1e-12,
            f"residual {worst_res:.2e}, closed-form {worst_cf:.2e}")


def test_criterion_04_remainders_scale_like_h():
    sups = {}
    M = 6
    for c in (1e2, 1e3):
        ft = FrequencyTable(c=c, M=M)
        nf = solve_cohomological_quartic(build_P(ft), ft, J3)
        nf_nls = solve_cohomological_nls(build_P_nls(M), J3, M)
        split = remainder_split(nf, nf_nls)
        P_r = nf.P.restrict(lambda m: gauge_sum(m) == 0) - nf_nls.P
        model = build_model(c, J3, M, 1e-2)
        xi = model.xi_hi
        sups[c] = (split.G_remainder.max_abs_coeff() / ft.h,
                   P_r.max_abs_coeff() / ft.h,
                   float(np.max(np.abs(omega0_remainder(model, xi)))) / ft.h,
                   float(np.max(np.abs(Omega0_remainder(model, xi)))) / ft.h)
    ratios = [a / b for a, b in zip(sups[1e2], sups[1e3])]
    ok = all(abs(r - 1.0) < 0.10 for r in ratios)
    _report(4, "generator, quartic, and frequency remainders scale like h",
            ok, "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_05_divisor_floors():
    # truncation kept well inside the smallest c so the uniform floor is
    # in its asymptotic regime for every c on the grid
    rep = verify_divisor_bounds(J3, [25.0, 100.0, 400.0], 12)
    gauge_ok = all(r["gauge_min"] > 0 for r in rep["rows"])
    ng_ok = all(r["nongauge_min_over_c2"] > 0 for r in rep["rows"])
    _report(5, "exhaustive divisor minima and uniform non-gauge floor",
            gauge_ok and ng_ok and rep["nongauge_relative_spread"] < 0.05,
            f"spread {rep['nongauge_relative_spread']:.3f}")


def test_criterion_06_resonant_measure():
    model = build_model(10.0, J3, 20, 1e-2)
    # single resonant set: fraction ~ alpha over one decade
    pair = make_pair((1, -1, 0), {5: 1, -5: -1}, J3)
    centered = center_pair_correction(model, pair)
    alphas = np.logspace(-7, -6, 4)
    fracs = []
    for alpha in alphas:
        q = ResonantQuery(alpha=float(alpha), tau=2.0, samples=10_000,
                          seed=42)
        fracs.append(measure_estimate_mc(centered, pair.k, q,
                                         ells=[pair.ell_dict]).fraction)
    slope = float(np.polyfit(np.log(alphas), np.log(fracs), 1)[0])
    slope_ok = abs(slope - 1.0) < 0.15

    # union over the momentum-zero classes: monotone and power-law bounded
    upair = make_pair((1, -1, 0), {-1: -1}, J3)
    ucentered = center_pair_correction(model, upair)
    union_ok = True
    for theta in (0.0, 5.0 / 12.0):
        p = 2.0 / (3.0 - theta)
        uf = []
        for alpha in alphas:
            q = ResonantQuery(alpha=float(alpha), tau=2.0, theta=theta,
                              samples=10_000, seed=7)
            uf.append(cantor_excision(ucentered, q, K_cut=0,
                                      kmax=2)["excised_fraction"])
        union_ok &= uf == sorted(uf) and uf[-1] > 0
        C = uf[-1] / alphas[-1] ** p
        union_ok &= all(f <= C * a ** p * (1 + 1e-9)
                        for f, a in zip(uf, alphas))
    _report(6, "resonant-set measure: single-set slope and union bound",
            slope_ok and union_ok, f"slope {slope:.3f}")


def test_criterion_07_cascade():
    params = ScheduleParams(N=3, tau=8.0, r0=1e-3)
    sched = generate(params, log_eps0=-2000.0, nu_max=14)
    gf_mean = float(np.mean(sched.growth_factors()[4:13]))
    a0, a1, _ = init_exponents(1.0 / 36.0)
    ok = (np.all(np.diff(sched.log_eps) < 0)
          and abs(gf_mean - 4.0 / 3.0) < 0.02
          and np.all(sched.s > 0)
          and np.all(sched.eta[1:] < 1.0 / 8.0)
          and a0 < 2.0 and a1 < 8.0 / 3.0 - a0 / 3.0)
    _report(7, "cascade contraction, growth factor, and exponents",
            bool(ok), f"growth factor {gf_mean:.4f}")


def test_criterion_08_map_scalings():
    # displacement of the normal-form map ~ R^3
    ft = FrequencyTable(c=10.0, M=8)
    nf = solve_cohomological_quartic(build_P(ft), ft, J3)
    params = SpaceParams(a=0.0, p=5.0, beta=0.0, M=8)
    Rs = np.logspace(-3, -2, 4)
    disp = []
    for R in Rs:
        xi = np.full(3, R * R)
        st = normal_form_torus(xi, J3, 8, nf.G, steps=32)
        st0 = normal_form_torus(xi, J3, 8, None)
        disp.append(seq_norm(st.z - st0.z, params, ft))
    slope_R = fit_loglog(Rs, disp)

    # KG-vs-parabolic map difference ~ c^{-2} at Sobolev exponent p - 4
    pm4 = SpaceParams(a=0.0, p=1.0, beta=0.0, M=8)
    nf_nls = solve_cohomological_nls(build_P_nls(8), J3, 8)
    R = 1e-2
    xi = np.full(3, R * R)
    st_nls = normal_form_torus(xi, J3, 8, nf_nls.G, steps=32)
    cs = [50.0, 100.0, 200.0, 400.0]
    diffs = []
    for c in cs:
        ftc = FrequencyTable(c=c, M=8)
        nfc = solve_cohomological_quartic(build_P(ftc), ftc, J3)
        st_kg = normal_form_torus(xi, J3, 8, nfc.G, steps=32)
        diffs.append(seq_norm(st_kg.z - st_nls.z, pm4, ftc))
    slope_c = fit_loglog(cs, diffs)
    _report(8, "map displacement ~ R^3 and map difference ~ c^-2",
            abs(slope_R - 3.0) < 0.1 and abs(slope_c + 2.0) < 0.3,
            f"R-slope {slope_R:.4f}, c-slope {slope_c:.4f}")


def test_criterion_09_conservation_and_refined_torus():
    nls = TruncatedSystem(kind="nls", M=16)
    z0 = FourierState.from_modes(16, {1: 0.01, 2: 0.005 + 0.003j})
    rec = integrate(nls, z0, T=100.0, frame_dt=2.0)
    mass_drift = float(np.max(np.abs(rec.mass - rec.mass[0])))
    mom_drift = float(np.max(np.abs(rec.momentum - rec.momentum[0])))

    kg = TruncatedSystem(kind="kg", M=16, c=10.0)
    rec_kg = integrate(kg, z0, T=100.0, frame_dt=5.0)
    kg_mom = float(np.max(np.abs(rec_kg.momentum - rec_kg.momentum[0])))

    emb_nls, emb_kg, _, _ = matched_torus_pair(1e-2, 150.0, (1,), 16, 3)
    defect = max(invariance_defect(emb_nls, TruncatedSystem(kind="nls",
                                                            M=16)),
                 invariance_defect(emb_kg, TruncatedSystem(kind="kg", M=16,
                                                           c=150.0)))
    ok = (mass_drift < 1e-10 and mom_drift < 1e-10 and kg_mom < 1e-10
          and defect < 1e-10)
    _report(9, "conserved quantities over T=100 and refined-torus defect",
            ok, f"drifts {mass_drift:.1e}/{mom_drift:.1e}/{kg_mom:.1e}, "
            f"defect {defect:.1e}")


def test_criterion_10_gauge_distance_scaling():
    rep = scaling_study(1e-2, [50.0, 110.0, 160.0, 240.0, 360.0], 1.0,
                        T=1e3, M=16, Q=3, n_samples=256)
    slope = rep["slope_vs_c"]
    inadmissible = [r for r in rep["rows"] if not r["admissible"]]
    filter_ok = len(inadmissible) == 1 and inadmissible[0]["c"] == 50.0 \
        and inadmissible[0]["distance"] is None
    rep0 = scaling_study(1e-2, [110.0, 160.0, 240.0, 360.0], 0.0,
                         T=1e3, M=16, Q=3, n_samples=256)
    no_trend = rep0["slope_vs_c"] < 0.25
    _report(10, "gauge distance ~ c^-2 sigma with admissibility filter",
            abs(slope + 2.0) < 0.5 and filter_ok and no_trend,
            f"sigma=1 slope {slope:.3f}, sigma=0 slope "
            f"{rep0['slope_vs_c']:.3f}")
