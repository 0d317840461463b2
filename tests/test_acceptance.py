"""End-to-end acceptance gate.

Each test checks one headline claim of the laboratory at its stated tolerance
and prints a single PASS/FAIL summary line.  The flat-volatility barrier
comparison (A5) checks the two-part claim of the design: on the uniform grid
the step budget puts every stabilized family at two stages, and all
second-order two-stage members share the stability polynomial 1 + z + z^2/2,
so the Legendre, Gegenbauer and Chebyshev runs coincide to rounding and no
family separation exists there; the oscillation they share comes from the
unfitted spatial operator, since TR-BDF2 shows it too.  The separation is
asserted on the strongly stretched cubic grid, where the design places it.
Two attribution tests read both legs against the exact-in-time solution
expm(T M) y0 of the same semi-discrete system.
"""

import math
from time import perf_counter

import numpy as np
import pytest
import scipy.linalg
from conftest import cubic_grid
from scipy.special import eval_chebyt, eval_gegenbauer, eval_legendre

from stslab.experiments import (DEFAULT_LADDER, BsStudyResult, bs_closed_form,
                                bs_uniform_grid, call, default_bs_params,
                                default_heston_params, digital_range,
                                foulon_spec_v, foulon_spec_x, oscillation_metric,
                                payoff_eval, prepare, price_at_spot, rms_error, roi_mask,
                                run_bs_study, run_delta_comparison,
                                run_time_convergence)
from stslab.grids import make_grid
from stslab.implicit import banded_factor, crank_nicolson_run, operator_banded
from stslab.operators import (UpwindPolicy, assemble_bs, assemble_heston,
                              to_sparse)
from stslab.schemes import (FamilyKind, InfeasibleStepError, _certified, _poly_eval,
                            explicit_euler, make_coefficients, rkc, rkg, rkl,
                            run_integrator, select_stage_count)
from stslab.spectra import eigenvalues_dense, gershgorin_radius


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)


@pytest.fixture(scope="module")
def stress():
    return (default_heston_params(), make_grid(foulon_spec_x(100.0, 100)),
            make_grid(foulon_spec_v(50)))


@pytest.fixture(scope="module")
def ladder_results(stress):
    params, gx, gv = stress
    ladders = {
        UpwindPolicy.FOULON_REGION: (10, 20, 40, 80, 200),
        UpwindPolicy.PARTIAL_FITTING: DEFAULT_LADDER,
        UpwindPolicy.OSULLIVAN: DEFAULT_LADDER,
    }
    t0 = perf_counter()
    results = {}
    for policy, ladder in ladders.items():
        results[policy] = run_time_convergence(
            prepare(params, gx, gv, policy, call(params.strike)), (rkc(10.0),),
            ladder=ladder, l_ref=4000, validate_reference=True)
    return results, perf_counter() - t0


@pytest.fixture(scope="module")
def bs_results():
    params = default_bs_params()
    payoff = digital_range(10.0, 100.0)
    uniform = bs_uniform_grid(m=100)
    cubic = cubic_grid(m=400, alpha=0.01)
    families = (rkl(), rkg(2.0), rkc(10.0))
    scenarios = {
        "uniform-none": (uniform, UpwindPolicy.NONE, 100),
        "uniform-partial": (uniform, UpwindPolicy.PARTIAL_FITTING, 100),
        "cubic-20": (cubic, UpwindPolicy.PARTIAL_FITTING, 20),
        "cubic-50": (cubic, UpwindPolicy.PARTIAL_FITTING, 50),
    }
    return {key: run_bs_study(prepare(params, grid, None, policy, payoff), families, l)
            for key, (grid, policy, l) in scenarios.items()}


def test_a1_time_convergence_ladders(ladder_results, capsys):
    results, elapsed = ladder_results
    region = results[UpwindPolicy.FOULON_REGION]
    rms = {r.l: r.rms_error for r in region.runs}
    low_l = [l for l in rms if l < 100]
    diverges = all(rms[l] > 10.0 * rms[200] for l in low_l)
    clean = {}
    for policy in (UpwindPolicy.PARTIAL_FITTING, UpwindPolicy.OSULLIVAN):
        runs = results[policy].runs
        clean[policy.value] = (
            not any(r.exploded for r in runs)
            and all(b.rms_error <= 1.2 * a.rms_error
                    for a, b in zip(runs, runs[1:])))
    ok = diverges and all(clean.values()) and elapsed < 600.0
    announce(capsys, f"A1 convergence ladders: {'PASS' if ok else 'FAIL'} "
                     f"(region-fitting rms at l<100 all > 10x rms at l=200: "
                     f"{diverges}; monotone clean ladders: {clean}; "
                     f"{elapsed:.0f}s)")
    assert diverges, {l: rms[l] for l in sorted(rms)}
    assert all(clean.values()), clean
    assert elapsed < 600.0


def test_a2_spectrum_imaginary_ratio(stress, capsys):
    params, gx, gv = stress
    t0 = perf_counter()
    spectra = {}
    for policy in (UpwindPolicy.FOULON_REGION, UpwindPolicy.PARTIAL_FITTING):
        op = assemble_heston(params, gx, gv, policy)
        spectra[policy] = eigenvalues_dense(to_sparse(op),
                                            scale=params.expiry / 16.0)
    elapsed = perf_counter() - t0
    ratio = (spectra[UpwindPolicy.FOULON_REGION].max_abs_imag
             / spectra[UpwindPolicy.PARTIAL_FITTING].max_abs_imag)
    sym_ok, re_ok = True, True
    for spec in spectra.values():
        lam = spec.eigenvalues
        tol = 1e-8 * max(1.0, float(np.abs(lam).max()))
        sym_ok &= bool(np.allclose(np.sort_complex(lam),
                                   np.sort_complex(np.conj(lam)), atol=tol))
        re_ok &= spec.max_real <= 1e-6
    ok = ratio > 10.0 and sym_ok and re_ok and elapsed < 300.0
    announce(capsys, f"A2 spectrum of the scaled operator: "
                     f"{'PASS' if ok else 'FAIL'} (imag ratio {ratio:.1f}, "
                     f"conjugate-symmetric {sym_ok}, max Re <= 1e-6 {re_ok}, "
                     f"{elapsed:.0f}s)")
    assert ratio > 10.0
    assert sym_ok and re_ok
    assert elapsed < 300.0


def test_a3_delta_oscillation_by_family(stress, capsys):
    params, gx, gv = stress
    setup = prepare(params, gx, gv, UpwindPolicy.PARTIAL_FITTING, call(params.strike))
    out = run_delta_comparison(setup, (rkc(10.0), rkl(), rkg(2.0)), l=10)
    osc = {label: run.osc_metric for label, (_, run) in out.items()}
    floor = max(osc["rkc(eps=10)"], 1e-8)
    legendre_osc = osc["rkl"] >= 10.0 * floor
    gegenbauer_clean = osc["rkg(g=2)"] <= 3.0 * floor
    ok = legendre_osc and gegenbauer_clean
    announce(capsys, f"A3 delta oscillation near v=0: "
                     f"{'PASS' if ok else 'FAIL'} (rkl {osc['rkl']:.3g}, "
                     f"rkc(eps=10) {osc['rkc(eps=10)']:.3g}, "
                     f"rkg {osc['rkg(g=2)']:.3g})")
    assert legendre_osc, osc
    assert gegenbauer_clean, osc


def test_a4_heavy_damping_buys_stability(stress, capsys):
    params, gx, gv = stress
    op = assemble_heston(params, gx, gv, UpwindPolicy.FOULON_REGION)
    y0 = payoff_eval(call(params.strike), gx, gv)
    rho = gershgorin_radius(op)
    _, log_heavy = run_integrator(rkc(1000.0), op, y0, params.expiry, 16,
                                  rho=rho)
    _, log_light = run_integrator(rkc(10.0), op, y0, params.expiry, 16,
                                  rho=rho)
    ratio = float(np.mean(log_heavy.s_per_step) / np.mean(log_light.s_per_step))
    ok = (not log_heavy.exploded) and ratio >= 1.8
    announce(capsys, f"A4 heavy damping: {'PASS' if ok else 'FAIL'} "
                     f"(rkc(eps=1000) exploded={log_heavy.exploded}, "
                     f"stage ratio {ratio:.2f})")
    assert not log_heavy.exploded
    assert ratio >= 1.8


def _step_rho(res: BsStudyResult, policy: UpwindPolicy) -> float:
    """k * rho for a uniform-grid leg, rebuilt from the leg's own result."""
    params = default_bs_params()
    grid = bs_uniform_grid(m=len(res.curves["trbdf2"]) - 1)
    op = assemble_bs(params, grid, policy)
    return params.expiry / res.runs[0].l * gershgorin_radius(op)


def test_a5_uniform_grid_family_separation(bs_results, capsys):
    res_none = bs_results["uniform-none"]
    res_partial = bs_results["uniform-partial"]
    res_cubic = bs_results["cubic-20"]
    osc = {r.family: r.osc_metric for r in res_none.runs}
    explicit = [r.family for r in res_none.runs if r.family != "trbdf2"]
    stages = {r.family: sorted(set(r.s_per_step))
              for r in res_none.runs if r.family != "trbdf2"}
    two_stage = all(s == [2] for s in stages.values())

    # every second-order two-stage member is 1 + z + z^2/2, so the explicit
    # curves and their oscillation metrics coincide to rounding
    curves = res_none.curves
    curve_gap = max(float(np.max(np.abs(curves[k] - curves["rkl"])))
                    for k in explicit) / float(np.max(np.abs(curves["rkl"])))
    explicit_osc = [osc[k] for k in explicit]
    osc_spread = (max(explicit_osc) - min(explicit_osc)) / max(explicit_osc)
    identical = curve_gap <= 1e-12 and osc_spread <= 1e-9

    # the implicit reference oscillates as much: the unfitted spatial
    # operator, not the time integrator, is the source
    trbdf2_ratio = osc["trbdf2"] / osc["rkl"]
    spatial = 0.5 <= trbdf2_ratio <= 2.0
    unfitted_osc = (osc["rkl"] > res_partial.threshold
                    and osc["trbdf2"] > res_partial.threshold)
    partial_clean = all(r.osc_metric < res_partial.threshold
                        for r in res_partial.runs)

    # the separation lives on the strongly stretched cubic grid
    osc_cubic = {r.family: r.osc_metric for r in res_cubic.runs}
    separation = (osc_cubic["rkl"] >= 5.0 * osc_cubic["rkg(g=2)"]
                  and osc_cubic["rkl"] >= 5.0 * osc_cubic["trbdf2"])

    ok = (two_stage and identical and spatial and unfitted_osc
          and partial_clean and separation)
    announce(capsys, f"A5 flat-vol barrier: {'PASS' if ok else 'FAIL'} "
                     f"(uniform grid: stages {stages}; k*rho "
                     f"{_step_rho(res_none, UpwindPolicy.NONE):.3f} unfitted, "
                     f"{_step_rho(res_partial, UpwindPolicy.PARTIAL_FITTING):.3f} "
                     f"fitted; curve gap "
                     f"{curve_gap:.2g}, osc spread {osc_spread:.2g}, "
                     f"trbdf2/rkl {trbdf2_ratio:.4f}; fitted leg clean "
                     f"{partial_clean}; cubic l=20 osc rkl "
                     f"{osc_cubic['rkl']:.3g}, rkg {osc_cubic['rkg(g=2)']:.3g}, "
                     f"trbdf2 {osc_cubic['trbdf2']:.3g})")
    assert two_stage, stages
    assert identical, (curve_gap, osc_spread, osc)
    assert spatial, osc
    assert unfitted_osc, (osc, res_partial.threshold)
    assert partial_clean
    assert separation, osc_cubic


def test_a6_cubic_grid_step_budget(bs_results, capsys):
    t20 = bs_results["cubic-20"]
    t50 = bs_results["cubic-50"]
    osc20 = {r.family: r.osc_metric for r in t20.runs}
    osc50 = {r.family: r.osc_metric for r in t50.runs}
    rkl_dirty_at_20 = osc20["rkl"] > t20.threshold
    rkl_clean_at_50 = osc50["rkl"] <= t50.threshold
    others_clean = (osc20["rkg(g=2)"] <= t20.threshold
                    and osc20["trbdf2"] <= t20.threshold)
    no_explosions = not any(r.exploded for res in bs_results.values()
                            for r in res.runs)
    ok = rkl_dirty_at_20 and rkl_clean_at_50 and others_clean and no_explosions
    announce(capsys, f"A6 cubic-grid step budget: {'PASS' if ok else 'FAIL'} "
                     f"(rkl osc {osc20['rkl']:.3g} vs threshold "
                     f"{t20.threshold:.3g} at l=20, {osc50['rkl']:.3g} vs "
                     f"{t50.threshold:.3g} at l=50; no explosions "
                     f"{no_explosions})")
    assert rkl_dirty_at_20, (osc20, t20.threshold)
    assert rkl_clean_at_50, (osc50, t50.threshold)
    assert others_clean, (osc20, t20.threshold)
    assert no_explosions


def exact_in_time_osc(grid, policy: UpwindPolicy) -> float:
    """The oscillation metric of expm(T M) y0: the barrier study's semi-discrete
    system on grid, solved exactly in time (dense expm, ~0.4 s at 401 nodes)."""
    params = default_bs_params()
    setup = prepare(params, grid, None, policy, digital_range(10.0, 100.0))
    exact = scipy.linalg.expm(params.expiry * setup.op.matrix.toarray()) @ setup.y0
    return oscillation_metric(exact[setup.window])


def test_a5_attribution_uniform_oscillation_is_spatial(bs_results, capsys):
    # Bounds, stated before measuring against them: on the unfitted uniform
    # grid at l = 100 every run, TR-BDF2 included, reads the exact-in-time
    # metric to 1%, and on the fitted uniform operator the exact metric lies
    # at or below that leg's threshold.  Measured: exact 0.1353, every
    # explicit family 0.1347 (0.4% low), TR-BDF2 0.1354; fitted exact 0
    uniform = bs_uniform_grid(m=100)
    exact = exact_in_time_osc(uniform, UpwindPolicy.NONE)
    fitted = exact_in_time_osc(uniform, UpwindPolicy.PARTIAL_FITTING)
    gaps = {r.family: abs(r.osc_metric / exact - 1.0)
            for r in bs_results["uniform-none"].runs}
    threshold = bs_results["uniform-partial"].threshold
    spatial = max(gaps.values()) <= 0.01
    fitted_clean = fitted <= threshold
    announce(capsys, f"A5 attribution: {'PASS' if spatial and fitted_clean else 'FAIL'} "
                     f"(unfitted exact-in-time osc {exact:.4g}, worst run gap "
                     f"{max(gaps.values()):.2%}; fitted exact {fitted:.3g} vs "
                     f"threshold {threshold:.3g})")
    assert spatial, (exact, gaps)
    assert fitted_clean, (fitted, threshold)


def test_a6_attribution_rkl_oscillation_is_temporal(bs_results, capsys):
    # Bounds, stated before measuring against them: on the cubic grid at
    # l = 20 the exact-in-time metric lies below a tenth of the study's
    # threshold, and rkl reads at least 1e6 times the exact metric.  Measured:
    # exact 4.05e-10 against the threshold 1.005e-8 (0.04x), rkl 0.0678 (1.7e8x)
    res = bs_results["cubic-20"]
    exact = exact_in_time_osc(cubic_grid(m=400, alpha=0.01), UpwindPolicy.PARTIAL_FITTING)
    osc = {r.family: r.osc_metric for r in res.runs}
    clean = exact <= 0.1 * res.threshold
    temporal = osc["rkl"] >= 1e6 * exact
    announce(capsys, f"A6 attribution: {'PASS' if clean and temporal else 'FAIL'} "
                     f"(exact-in-time osc {exact:.3g} vs threshold {res.threshold:.4g}; "
                     f"rkl {osc['rkl']:.3g}, rkg {osc['rkg(g=2)']:.3g})")
    assert clean, (exact, res.threshold)
    assert temporal, (exact, osc)


def _closed_form_poly(coeffs, z):
    fam = coeffs.family
    arg = coeffs.w0 + coeffs.w1 * np.asarray(z, dtype=float)
    if fam.kind is FamilyKind.RKC:
        q = eval_chebyt(coeffs.s, arg)
    elif fam.kind is FamilyKind.RKL:
        q = eval_legendre(coeffs.s, arg)
    else:
        q = eval_gegenbauer(coeffs.s, fam.g, arg)
    return coeffs.a[coeffs.s] + coeffs.b[coeffs.s] * q


def test_a7_unit_oracles(stress, row_sum_check, capsys):
    # stability polynomials: stage recurrence against the classical forms
    worst_poly = 0.0
    for family, s in [(rkc(10.0), 21), (rkl(), 13), (rkg(2.0), 21)]:
        coeffs, extent = _certified(family, s)
        zs = np.linspace(-extent, 0.0, 17)
        got = _poly_eval(coeffs, zs)
        want = _closed_form_poly(coeffs, zs)
        worst_poly = max(worst_poly, float(np.max(
            np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    poly_ok = worst_poly < 1e-11

    # first three order conditions by central differences at the origin
    worst_order = 0.0
    h = 1e-2
    for family in (rkc(10.0), rkl(), rkg(2.0)):
        coeffs = make_coefficients(family, 12)
        vals = np.array([_poly_eval(coeffs, k * h)
                         for k in range(-2, 3)])
        r0 = vals[2]
        r1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        r2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
              - vals[4]) / (12 * h**2)
        worst_order = max(worst_order, abs(r0 - 1), abs(r1 - 1), abs(r2 - 1))
    order_ok = worst_order < 1e-8

    # discount-telescoping row sums under every policy
    params, gx, gv = stress
    for policy in UpwindPolicy:
        row_sum_check(assemble_heston(params, gx, gv, policy), params.r, tol=1e-12)

    # Dirichlet Laplacian eigenvalues against the sine formula
    import scipy.sparse as sp
    m, h_lap = 30, 0.1
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m - 1, m - 1)) / h_lap**2
    got = np.sort(eigenvalues_dense(lap).eigenvalues.real)
    want = np.sort(-4.0 * np.sin(np.arange(1, m) * np.pi / (2 * m))**2 / h_lap**2)
    toeplitz_err = float(np.max(np.abs(got - want) / np.abs(want)))
    toeplitz_ok = toeplitz_err < 1e-8

    # banded LU against a dense solve
    op_small = assemble_heston(params, make_grid(foulon_spec_x(100.0, 9)),
                               make_grid(foulon_spec_v(6)), UpwindPolicy.PARTIAL_FITTING)
    dense = np.eye(op_small.size) - 0.05 * to_sparse(op_small).toarray()
    rhs = np.sin(np.arange(float(op_small.size)))
    got_band = banded_factor(operator_banded(op_small, 1.0, -0.05)).solve(rhs)
    band_err = float(np.max(np.abs(got_band - np.linalg.solve(dense, rhs))))
    band_ok = band_err < 1e-10 * np.max(np.abs(got_band))

    # a vanilla payoff priced explicitly against the closed form
    bs_params = default_bs_params()
    grid = make_grid(foulon_spec_x(100.0, 400))
    op_bs = assemble_bs(bs_params, grid, UpwindPolicy.PARTIAL_FITTING)
    payoff = call(100.0)
    fld, log = run_integrator(rkc(10.0), op_bs, payoff_eval(payoff, grid),
                              bs_params.expiry, 100,
                              rho=gershgorin_radius(op_bs))
    exact = bs_closed_form(bs_params, payoff)
    vanilla_err = abs(price_at_spot(fld, grid, bs_params.spot) - exact) / exact
    vanilla_ok = not log.exploded and vanilla_err < 1e-3

    ok = poly_ok and order_ok and toeplitz_ok and band_ok and vanilla_ok
    announce(capsys, f"A7 unit oracles: {'PASS' if ok else 'FAIL'} "
                     f"(poly {worst_poly:.1e}, order {worst_order:.1e}, "
                     f"row sums ok, toeplitz {toeplitz_err:.1e}, "
                     f"banded {band_err:.1e}, vanilla {vanilla_err:.1e})")
    assert poly_ok and order_ok and toeplitz_ok and band_ok and vanilla_ok


def test_a8_euler_guard_and_convergence(stress, capsys):
    params, gx, gv = stress
    op = assemble_heston(params, gx, gv, UpwindPolicy.PARTIAL_FITTING)
    rho = gershgorin_radius(op)
    l_feas = math.ceil(params.expiry * rho / 1.9)
    assert select_stage_count(explicit_euler(), params.expiry / l_feas, rho) == 1
    y0 = payoff_eval(call(params.strike), gx, gv)
    with pytest.raises(InfeasibleStepError):
        run_integrator(explicit_euler(), op, y0, params.expiry, l_feas // 2,
                       rho=rho)

    # the A1 reference: CN/Rannacher at l = 4000 on the same operator
    ref = crank_nicolson_run(op, y0, params.expiry, 4000)
    roi = roi_mask(gx, 0.5 * params.strike, 1.5 * params.strike, gv, 0.0, 1.0)
    errs = []
    for l in (l_feas, 2 * l_feas):
        fld, log = run_integrator(explicit_euler(), op, y0, params.expiry, l,
                                  rho=rho)
        assert not log.exploded
        errs.append(rms_error(fld, ref, roi))
    ok = errs[1] < errs[0]
    announce(capsys, f"A8 explicit-Euler guard: {'PASS' if ok else 'FAIL'} "
                     f"(l_feas={l_feas}, halved l refused, rms "
                     f"{errs[0]:.3e} -> {errs[1]:.3e} on doubling)")
    assert ok, errs
