"""Stage recurrences against closed-form polynomials, extents, stage selection."""

import dataclasses
import math
import re
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from conftest import (assert_parity, closed_form_poly, cubic_grid, parity_case,
                      parity_grids)

import stslab.schemes as schemes
from stslab.experiments import (call, default_bs_params, default_heston_params,
                                foulon_spec_v, foulon_spec_x, payoff_eval)
from stslab.grids import Grid1D, make_grid
from stslab.operators import (StencilOperator, UpwindPolicy, apply,
                              assemble_bs, assemble_heston)
from stslab.schemes import (EXTENT_TOL, ExplosionError, FamilyKind,
                            InfeasibleStepError, SchemeFamily, _certified,
                            _poly_eval, _recurrence_multipliers, explicit_euler,
                            make_coefficients, rkc, rkg, rkl, run_integrator,
                            select_stage_count, super_step)
from stslab.spectra import gershgorin_radius

FAMILIES = [rkc(0.0), rkc(10.0), rkl(), rkg(2.0), rkg(0.7)]


def matrix_op(m) -> StencilOperator:
    """The dense matrix m as an operator on a grid of len(m) nodes."""
    m = np.atleast_2d(m)
    return StencilOperator(scipy.sparse.csr_matrix(m),
                           Grid1D(np.arange(float(len(m)))), None)


def brute_force_extent(coeffs):
    """Largest beta with |P_s(-x)| <= 1 + 1e-12 on [0, beta], by brute force.

    Runs the stage recurrence itself on a 1e4-point scan per window of
    1.05 (1 + w0)/w1 and bisects the first violation to 1e-9 relative; the
    library's certified search must agree with it.
    """
    guess = 1.05 * (1.0 + coeffs.w0) / coeffs.w1
    step = guess / 1e4
    lo = 0.0
    hi = lo_good = None
    while hi is None:
        xs = np.arange(lo + step, lo + guess + step, step)
        bad = np.nonzero(np.abs(_poly_eval(coeffs, -xs)) > 1.0 + EXTENT_TOL)[0]
        if len(bad):
            if lo == 0.0 and bad[0] == 0:
                raise RuntimeError(
                    f"{coeffs.family.label} s={coeffs.s}: stability polynomial "
                    "exceeds 1 immediately left of the origin")
            hi = xs[bad[0]]
            lo_good = hi - step
        else:
            lo += guess
            if lo > 100.0 * guess:
                raise RuntimeError("no stability boundary found within 100 windows")
    while hi - lo_good > 1e-9 * max(hi, 1.0):
        mid = 0.5 * (hi + lo_good)
        if abs(_poly_eval(coeffs, -mid)) > 1.0 + EXTENT_TOL:
            hi = mid
        else:
            lo_good = mid
    return lo_good


@lru_cache(maxsize=None)
def oracle_extent(family, s):
    return brute_force_extent(make_coefficients(family, s))


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
@pytest.mark.parametrize("s", [2, 3, 5, 8, 13, 21, 32])
def test_recurrence_matches_closed_form(family, s):
    coeffs, beta = _certified(family, s)
    z = -beta * np.linspace(0.0, 1.0, 41)
    got = _poly_eval(coeffs, z)
    want = closed_form_poly(coeffs, z)
    assert np.all(np.abs(got - want) <= 1e-11 * np.maximum(1.0, np.abs(want)))


def loop_coefficients(family, s):
    """make_coefficients written as one scalar loop per table, as reference."""
    A, B, w0 = _recurrence_multipliers(family, s)
    T, U, V = np.zeros(s + 1), np.zeros(s + 1), np.zeros(s + 1)
    T[0], T[1], U[1] = 1.0, A[1] * w0, A[1]
    for j in range(2, s + 1):
        T[j] = A[j] * w0 * T[j - 1] + B[j] * T[j - 2]
        U[j] = A[j] * (T[j - 1] + w0 * U[j - 1]) + B[j] * U[j - 2]
        V[j] = A[j] * (2.0 * U[j - 1] + w0 * V[j - 1]) + B[j] * V[j - 2]
    b = np.zeros(s + 1)
    b[2:] = V[2:] / U[2:] ** 2
    b[0] = b[1] = b[2]
    a = 1.0 - b * T
    w1 = U[s] / V[s]
    mu, nu, mt, gt = (np.zeros(s + 1) for _ in range(4))
    mt[1] = b[1] * U[1] * w1
    for j in range(2, s + 1):
        mu[j] = A[j] * w0 * b[j] / b[j - 1]
        nu[j] = B[j] * b[j] / b[j - 2]
        mt[j] = A[j] * w1 * b[j] / b[j - 1]
        gt[j] = -a[j - 1] * mt[j]
    return w0, w1, a, b, mu, nu, mt, gt


@pytest.mark.parametrize("family", FAMILIES + [rkc(1000.0), rkg(1.5)],
                         ids=lambda f: f.label)
def test_coefficients_equal_scalar_loops(family):
    # same operations in the same order, so the tables agree bit for bit
    for s in list(range(2, 61)) + [500]:
        c = make_coefficients(family, s)
        got = (c.w0, c.w1, c.a, c.b, c.mu, c.nu, c.mu_tilde, c.gamma_tilde)
        for x, y in zip(got, loop_coefficients(family, s)):
            assert np.array_equal(x, y), (s, x, y)


def test_rkl4_symbolic_expansion():
    x, z = sp.symbols("x z")
    p4 = sp.legendre(4, x)
    u4 = sp.diff(p4, x).subs(x, 1)
    v4 = sp.diff(p4, x, 2).subs(x, 1)
    b4 = v4 / u4 ** 2
    a4 = 1 - b4  # legendre(4, 1) == 1
    w1 = u4 / v4
    r_sym = sp.expand(a4 + b4 * sp.legendre(4, 1 + w1 * z))
    poly = sp.Poly(r_sym, z)
    assert poly.coeff_monomial(1) == 1
    assert poly.coeff_monomial(z) == 1
    assert poly.coeff_monomial(z ** 2) == sp.Rational(1, 2)
    coeffs = make_coefficients(rkl(), 4)
    for zz in [sp.Rational(-1, 2), sp.Rational(-3), sp.Rational(-17, 4),
               sp.Rational(-9)]:
        want = float(r_sym.subs(z, zz))
        got = _poly_eval(coeffs, float(zz))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
@pytest.mark.parametrize("s", [2, 5, 12, 30])
def test_order_conditions(family, s):
    """R(0) = R'(0) = R''(0) = 1 for every stabilized family, damped or not."""
    coeffs = make_coefficients(family, s)
    h = 1e-2
    f = [_poly_eval(coeffs, k * h) for k in (-2, -1, 0, 1, 2)]
    assert f[2] == pytest.approx(1.0, abs=1e-14)
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * h)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
    assert d1 == pytest.approx(1.0, abs=1e-8)
    assert d2 == pytest.approx(1.0, abs=1e-8)


def test_two_stage_schemes_share_their_polynomial():
    # three order conditions pin a quadratic completely, so every two-stage
    # member collapses to 1 + z + z^2/2 regardless of family or parameter;
    # families only start to differ at the cubic term of s = 3
    z = np.linspace(-2.0, 0.5, 101)
    quad = 1.0 + z + 0.5 * z ** 2
    for fam in [rkl(), rkg(0.5), rkg(1.0), rkg(2.0), rkg(5.0), rkc(0.0),
                rkc(10.0)]:
        coeffs = make_coefficients(fam, 2)
        got = _poly_eval(coeffs, z)
        assert np.max(np.abs(got - quad)) < 1e-13, fam.label
    r3_l = _poly_eval(make_coefficients(rkl(), 3), -2.0)
    r3_c = _poly_eval(make_coefficients(rkc(10.0), 3), -2.0)
    assert abs(r3_l - r3_c) > 1e-3


# ------------------------------------------------------- stability extents

def test_extent_closed_forms_even_s():
    s = 10
    assert _certified(explicit_euler(), 1)[1] \
        == pytest.approx(2.0, rel=1e-6)
    assert _certified(rkc(0.0), s)[1] \
        == pytest.approx(2.0 * (s * s - 1) / 3.0, rel=1e-6)
    assert _certified(rkl(), s)[1] \
        == pytest.approx((s * s + s - 2) / 2.0, rel=1e-6)
    assert _certified(rkg(2.0), s)[1] \
        == pytest.approx(2.0 * (s + 5.0) * (s - 1.0) / 7.0, rel=1e-6)


@pytest.mark.parametrize("family", [rkc(0.0), rkc(10.0), rkl(), rkg(2.0)],
                         ids=lambda f: f.label)
def test_extent_monotone_in_s(family):
    exts = [_certified(family, s)[1]
            for s in (2, 4, 8, 16)]
    assert all(b > a for a, b in zip(exts, exts[1:]))


@pytest.mark.parametrize("s", [8, 12, 20])
def test_extent_ordering_chebyshev_legendre_gegenbauer(s):
    e_c = _certified(rkc(0.0), s)[1]
    e_l = _certified(rkl(), s)[1]
    e_g = _certified(rkg(2.0), s)[1]
    assert e_c > e_l > e_g


@pytest.mark.parametrize("family", FAMILIES + [rkc(1000.0), rkg(1.5)],
                         ids=lambda f: f.label)
def test_extent_matches_brute_force(family):
    for s in range(2, 61):
        want = oracle_extent(family, s)
        got = _certified(family, s)[1]
        assert abs(got - want) <= 2e-9 * want, (s, got, want)


INTERVAL_FAMILIES = [rkc(0.0), rkc(10.0), rkc(1e3), rkc(3e4), rkl(), rkg(2.0), rkg(0.7)]


@given(family=st.sampled_from(INTERVAL_FAMILIES), s=st.integers(min_value=2, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_certified_extent_lies_between_consecutive_closed_forms(family, s):
    # _closed_extent(s) <= extent < _closed_extent(s + 1) in exact arithmetic.
    # The bisection stops at hi - lo <= 1e-9 max(hi, 1), and 565 of 2,548
    # tables (s = 2..200, then every 17th s to 3000) read below the closed form
    # by up to 6.3e-12 relative (rkg(0.7) at s = 2244), so the lower end
    # carries that stop, doubled
    extent = _certified(family, s)[1]
    assert schemes._closed_extent(family, s) * (1.0 - 2e-9) <= extent
    assert extent < schemes._closed_extent(family, s + 1)


@given(needs=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_select_stage_count_monotone_in_need(needs):
    lo, hi = sorted(needs)
    assert select_stage_count(rkc(10.0), 1.0, lo) <= select_stage_count(rkc(10.0), 1.0, hi)


def test_extent_refuses_uncertified_table(monkeypatch):
    def doubled_b(fam, s):
        coeffs = make_coefficients(fam, s)
        coeffs.b[s] *= 2.0  # P_s(0) = 1 + b_s Q_s(w0) > 1
        return coeffs

    schemes._certified.cache_clear()
    monkeypatch.setattr(schemes, "make_coefficients", doubled_b)
    with pytest.raises(RuntimeError, match="cannot certify"):
        _certified(rkl(), 7)


@pytest.mark.parametrize("s, broken", [(596, "mu is nan"), (144, "b_s is 0")])
def test_extent_refuses_a_degenerate_table(s, broken):
    # rkc(eps=1e5): U_s**2 overflows, so b_s underflows to 0 (and at s = 596
    # the mu, nu and mu_tilde entries are nan); a_s then rounds to 1, P_s is
    # 1 in floating point and the bisection would certify a spurious extent
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = make_coefficients(rkc(1e5), s)
        assert coeffs.b[s] == 0.0
        assert np.isnan(coeffs.mu).any() == (s == 596), broken
        schemes._certified.cache_clear()
        with pytest.raises(RuntimeError, match="not finite or b_s is not a normal"):
            _certified(rkc(1e5), s)


def test_selection_refuses_heavy_damping_it_cannot_certify():
    # dt * rho of the 61x31 region-fitting operator at l = 10; this returned
    # s = 596 from a table with nan entries
    schemes._certified.cache_clear()
    with (np.errstate(over="ignore", invalid="ignore"),
          pytest.raises(RuntimeError, match="b_s is not a normal float")):
        select_stage_count(rkc(1e5), 0.1, 21687.0)


def test_damping_interior():
    coeffs, beta = _certified(rkc(10.0), 30)
    
    z = -np.linspace(0.02, 0.90, 2000) * beta
    vals = np.array([abs(_poly_eval(coeffs, zz)) for zz in z])
    assert vals.max() <= 0.999


def test_undamped_touches_unity():
    coeffs, beta = _certified(rkc(0.0), 16)
    
    z = np.linspace(-beta, 0.0, 20001)
    vals = np.abs([_poly_eval(coeffs, zz) for zz in z])
    k = int(np.argmax(vals[:-100]))  # stay away from the trivial R(0) = 1
    res = minimize_scalar(lambda t: -abs(_poly_eval(coeffs, t)),
                          bounds=(z[max(k - 2, 0)], z[min(k + 2, len(z) - 1)]),
                          method="bounded")
    peak = -res.fun
    assert peak >= 1.0 - 1e-9
    assert peak <= 1.0 + 1e-10


# ------------------------------------------------------- stage-count choice

@pytest.mark.parametrize("family", [rkc(10.0), rkl(), rkg(2.0)],
                         ids=lambda f: f.label)
@pytest.mark.parametrize("need", [0.5, 3.0, 17.0, 240.0, 6100.0])
def test_select_stage_count_minimal(family, need):
    s = select_stage_count(family, 1.0, need)
    assert s >= 2
    assert 0.95 * _certified(family, s)[1] >= need
    if s > 2:
        assert 0.95 * _certified(family, s - 1)[1] < need


@given(need=st.floats(min_value=0.1, max_value=1e4),
       family=st.sampled_from(FAMILIES))
@settings(max_examples=40, deadline=None)
def test_select_stage_count_minimal_against_brute_force(need, family):
    # both extents are bisected to 1e-9 relative, so a need within that
    # distance of a decision boundary may fall on either side of it
    s = select_stage_count(family, 1.0, need)
    assert 0.95 * oracle_extent(family, s) * (1.0 + 2e-9) >= need
    if s > 2:
        assert 0.95 * oracle_extent(family, s - 1) * (1.0 - 2e-9) < need


def test_select_stage_count_benchmark_pins():
    # dt * rho of the cubic-grid barrier study at l = 20
    need = 8485549.492363814
    assert select_stage_count(rkl(), 1.0, need) == 4227
    assert select_stage_count(rkg(2.0), 1.0, need) == 5590
    assert select_stage_count(rkc(10.0), 1.0, need) == 5072


@pytest.mark.parametrize("family", FAMILIES + [rkc(1000.0), rkg(1.5)],
                         ids=lambda f: f.label)
def test_cold_selection_builds_few_tables(family, monkeypatch):
    built = []

    def counting(fam, s):
        built.append(s)
        return make_coefficients(fam, s)

    monkeypatch.setattr(schemes, "make_coefficients", counting)
    for need in (0.5, 3.0, 17.0, 240.0, 6100.0, 8485549.492363814):
        schemes._certified.cache_clear()
        built.clear()
        s = select_stage_count(family, 1.0, need)
        assert len(built) <= 3, (need, built)
        assert s in built


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_cold_run_builds_no_table_beyond_selection(family, monkeypatch):
    built = []

    def counting(fam, s):
        built.append(s)
        return make_coefficients(fam, s)

    monkeypatch.setattr(schemes, "make_coefficients", counting)
    schemes._certified.cache_clear()
    s = select_stage_count(family, 0.1, 6100.0)
    by_selection = list(built)
    schemes._certified.cache_clear()
    schemes.plan_run.cache_clear()
    built.clear()
    _, log = run_integrator(family, matrix_op(-np.eye(3)), np.ones(3), 0.1, 1,
                            rho=6100.0)
    assert log.s_per_step == [s]
    assert built == by_selection


def test_plan_run_caches_a_plan_and_never_a_refusal(monkeypatch):
    calls = []
    real = schemes.select_stage_count

    def counting(family, dt, rho):
        calls.append(family)
        return real(family, dt, rho)

    monkeypatch.setattr(schemes, "select_stage_count", counting)
    schemes.plan_run.cache_clear()
    plan = schemes.plan_run(rkl(), 0.1, 6100.0)
    s, coeffs, extent, t_select = plan
    assert schemes.plan_run(rkl(), 0.1, 6100.0) is plan
    assert schemes._certified(rkl(), s)[0] is coeffs and t_select > 0.0
    assert schemes._certified(rkl(), s)[1] == extent
    for _ in range(2):
        with pytest.raises(InfeasibleStepError, match="explicit Euler needs"):
            schemes.plan_run(explicit_euler(), 0.1, 38.0)
    # a run at the planned step reads the plan, cold selection time included
    _, log = run_integrator(rkl(), matrix_op(-np.eye(3)), np.ones(3), 0.1, 1, rho=6100.0)
    assert log.s_per_step == [s] and log.t_select == t_select
    assert calls == [rkl(), explicit_euler(), explicit_euler()]


@pytest.mark.parametrize("family", [rkc(10.0), rkl(), rkg(2.0)], ids=lambda f: f.label)
def test_select_stage_count_names_the_cap_it_exceeds(family):
    label = re.escape(family.label)
    with pytest.raises(InfeasibleStepError,
                       match=rf"^stage count out of range: {label} needs more than "
                             rf"10\*\*6 stages to cover dt\*rho = 2e\+15$"):
        select_stage_count(family, 2.0, 1e15)


def test_select_euler():
    assert select_stage_count(explicit_euler(), 0.1, 18.9) == 1
    with pytest.raises(InfeasibleStepError,
                       match="more steps or a stabilized family"):
        select_stage_count(explicit_euler(), 0.1, 38.0)
    with pytest.raises(ValueError, match="dt > 0"):
        select_stage_count(rkl(), 0.0, 1.0)
    with pytest.raises(ValueError, match="finite rho"):
        select_stage_count(rkl(), 0.1, float("nan"))


def test_family_validation_and_labels():
    with pytest.raises(ValueError, match="eps >= 0"):
        SchemeFamily(FamilyKind.RKC, eps=-1.0)
    with pytest.raises(ValueError, match="g > 0"):
        SchemeFamily(FamilyKind.RKG, g=0.0)
    assert rkc(10.0).label == "rkc(eps=10)"
    assert rkg(2.0).label == "rkg(g=2)"
    assert rkl().label == "rkl"
    assert explicit_euler().eps_or_g is None


def test_make_coefficients_guards():
    with pytest.raises(ValueError, match="exactly one stage"):
        make_coefficients(explicit_euler(), 3)
    with pytest.raises(ValueError, match="s >= 2"):
        make_coefficients(rkl(), 1)


@given(s=st.integers(min_value=2, max_value=60),
       family=st.sampled_from(FAMILIES))
@settings(max_examples=60, deadline=None)
def test_coefficients_finite_and_consistent(s, family):
    coeffs = make_coefficients(family, s)
    for arr in (coeffs.a, coeffs.b, coeffs.mu, coeffs.nu, coeffs.mu_tilde,
                coeffs.gamma_tilde):
        assert np.all(np.isfinite(arr))
    assert coeffs.w1 > 0.0
    assert _poly_eval(coeffs, 0.0) == pytest.approx(1.0, abs=1e-13)


def test_huge_stage_count_stays_finite():
    for fam in (rkc(10.0), rkl(), rkg(2.0)):
        coeffs = make_coefficients(fam, 5000)
        assert np.all(np.isfinite(coeffs.mu_tilde))
        assert np.isfinite(coeffs.w1) and coeffs.w1 > 0.0


# ----------------------------------------------------------- time stepping

def test_super_step_matches_polynomial_on_diagonal_system():
    lam = np.array([-40.0, -7.5, -0.3, 0.0])
    expiry, l = 2.0, 5
    dt = expiry / l
    for fam in FAMILIES + [explicit_euler()]:
        rho = 40.0
        if fam.kind is FamilyKind.EULER and dt * rho > 1.9:
            continue
        y, log = run_integrator(fam, matrix_op(np.diag(lam)), np.ones(4), expiry,
                                l, rho=rho)
        coeffs = make_coefficients(fam, log.s_per_step[0])
        want = _poly_eval(coeffs, dt * lam) ** l
        assert np.allclose(y, want, rtol=1e-12, atol=1e-13), fam.label
        assert not log.exploded
        assert log.l == l and len(log.s_per_step) == l
        assert log.dt == dt and log.stage_evals == l * log.s_per_step[0]


def test_explosion_detection():
    coeffs = make_coefficients(rkc(10.0), 4)
    grow = matrix_op(1e120 * np.eye(3))
    with pytest.raises(ExplosionError) as want:
        reference_super_step(coeffs, grow, np.ones(3), 1e200)
    with pytest.raises(ExplosionError) as exc:
        super_step(coeffs, grow, np.ones(3), 1e200)
    assert exc.value.stage == want.value.stage
    # a bad user-supplied spectral bound is detected, not silently integrated
    y, log = run_integrator(rkl(), matrix_op(-1e200 * np.eye(2)), np.ones(2), 1.0,
                            2, rho=1.0)
    assert log.exploded
    assert log.explosion_step == 0
    assert log.explosion_stage == 2  # stage 1 stays finite, stage 2 overflows
    assert np.all(np.isfinite(y))  # last finite state is returned
    d = dataclasses.asdict(log)
    assert d["exploded"] is True and d["explosion_step"] == 0
    assert d["explosion_stage"] == 2
    assert d["rho"] == 1.0 and d["need"] == 0.5 and d["s_per_step"] == [2]
    assert d["dt"] == 0.5 and d["stage_evals"] == 2  # one step of two stages
    assert d["margin"] == pytest.approx(0.95 * 2.0 / 0.5) and d["margin"] >= 1.0
    assert d["t_select"] >= 0.0
    assert all(np.isnan(d[k]) for k in ("rms_error", "osc_metric", "price_at_spot"))


def reference_super_step(coeffs, op, state, dt):
    """super_step as written before the fused stage loop, kept as its oracle.

    Every term is a new array and every stage is checked for finiteness; the
    gemv loop must agree with it to the rounding bound of `rounding_bound` and
    raise at the same stage.
    """
    y0 = np.asarray(state, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = apply(op, y0)
        y1 = y0 + coeffs.mu_tilde[1] * dt * f0
        if not np.isfinite(y1).all():
            raise ExplosionError(stage=1)
        if coeffs.s == 1:
            return y1
        mu, nu = coeffs.mu, coeffs.nu
        mt, gt = coeffs.mu_tilde, coeffs.gamma_tilde
        ym2, ym1 = y0, y1
        for j in range(2, coeffs.s + 1):
            fy = apply(op, ym1)
            y = (mu[j] * ym1 + nu[j] * ym2 + (1.0 - mu[j] - nu[j]) * y0
                 + dt * (mt[j] * fy + gt[j] * f0))
            if not np.isfinite(y).all():
                raise ExplosionError(stage=j)
            ym2, ym1 = ym1, y
    return ym1


def reference_run(family, op, initial, expiry, l, rho):
    """run_integrator's loop over the oracle: (field, explosion step, stage)."""
    dt = expiry / l
    coeffs = make_coefficients(family, select_stage_count(family, dt, rho))
    y = np.array(initial, dtype=float)
    for step in range(l):
        try:
            y = reference_super_step(coeffs, op, y, dt)
        except ExplosionError as exc:
            return y, step, exc.stage
    return y, None, None


def _dense_8x8():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    m = -(a @ a.T) + 0.3 * (a - a.T)  # negative semi-definite symmetric part
    rho = float(np.abs(m).sum(axis=1).max())
    return matrix_op(m), rho, np.linspace(-1.0, 2.0, 8)


@pytest.fixture(scope="module")
def step_cases():
    """name -> (operator, spectral bound, initial field).

    "callable" is a dense 8 x 8 matrix wrapped as an operator.
    """
    gx = cubic_grid(m=400, alpha=0.01)
    cubic = assemble_bs(default_bs_params(), gx, UpwindPolicy.PARTIAL_FITTING)
    hx, hv = make_grid(foulon_spec_x(100.0, m=40)), make_grid(foulon_spec_v(n=20))
    heston = assemble_heston(default_heston_params(), hx, hv,
                             UpwindPolicy.PARTIAL_FITTING)
    return {
        "cubic-1d": (cubic, gershgorin_radius(cubic),
                     payoff_eval(call(100.0), gx)),
        "partial-2d": (heston, gershgorin_radius(heston),
                       payoff_eval(call(100.0), hx, hv)),
        "callable": _dense_8x8(),
    }


def rounding_bound(s, *fields):
    """s^2 eps max|y|: how far super_step may sit from the written-order oracle.

    Both loops compute Y_0, F(Y_0) and Y_1 with the same two ufuncs, so they
    first differ at stage 2, where each rounds the same five-term sum in its
    own order.  The constant comes from three factors:
    - stage size: stage j is R_j(dt M) Y_0 with |R_j| <= 1 on the stability
      interval (R_j(0) = 1 and the weights are nonnegative), so every stage
      value lies within max|y| of the step's two ends;
    - local difference: each loop's final rounding lands within eps / 2 of
      the stage, so the two differ by r_j <= eps max|y| to first order, and
      the four intermediate adds are allowed as much again, 2 eps max|y|;
    - propagation: a difference made at stage j reaches Y_s through the
      internal stability polynomial, (b_s / b_j) U_{s-j}(w0 + w1 z) for RKC,
      which is at most about s - j + 1 on the stability interval
      (|U_k| <= k + 1; Verwer, Hundsdorfer and Sommeijer, Numer. Math.
      1990); summed over j = 2..s that is s (s - 1) / 2 < s^2 / 2.
    Together |Delta| <= (s^2 / 2) (2 eps max|y|) = s^2 eps max|y|.
    """
    return s * s * np.finfo(float).eps * max(np.abs(f).max() for f in fields)


def _first_stage_only(coeffs):
    """coeffs cut to s = 1: a super_step with them returns its own Y_1."""
    return dataclasses.replace(coeffs, s=1, **{k: getattr(coeffs, k)[:2] for k in
                                               ("a", "b", "mu", "nu", "mu_tilde",
                                                "gamma_tilde")})


@pytest.mark.parametrize("case", ["cubic-1d", "partial-2d", "callable"])
@pytest.mark.parametrize("family", [rkc(0.0), rkc(10.0), rkc(1000.0), rkl(),
                                    rkg(2.0), explicit_euler()],
                         ids=lambda f: f.label)
def test_super_step_bit_identical_to_reference(family, case, step_cases):
    """Y_1 of every family is the written-order formula, bit for bit.

    rounding_bound rests on this: the two loops first differ at stage 2.  For
    explicit Euler (s = 1) Y_1 is the whole step.
    """
    op, rho, y = step_cases[case]
    need = 1.5 if family.kind is FamilyKind.EULER else 300.0
    dt = need / rho
    coeffs = _first_stage_only(
        make_coefficients(family, select_stage_count(family, dt, rho)))
    for _ in range(3):
        want = reference_super_step(coeffs, op, y, dt)
        got = super_step(coeffs, op, y, dt)
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, y)
        y = got


@pytest.mark.parametrize("case", ["cubic-1d", "partial-2d", "callable"])
@pytest.mark.parametrize("family", [rkc(0.0), rkc(10.0), rkc(1000.0), rkl(),
                                    rkg(2.0), explicit_euler()],
                         ids=lambda f: f.label)
def test_super_step_within_rounding_bound_of_reference(family, case, step_cases):
    op, rho, y = step_cases[case]
    need = 1.5 if family.kind is FamilyKind.EULER else 300.0
    dt = need / rho
    coeffs = make_coefficients(family, select_stage_count(family, dt, rho))
    for _ in range(3):
        want = reference_super_step(coeffs, op, y, dt)
        got = super_step(coeffs, op, y, dt)
        assert np.abs(got - want).max() <= rounding_bound(coeffs.s, y, want)
        assert not np.shares_memory(got, y)
        y = got


def one_buffer_stages(coeffs, op, state, dt):
    """The stage loop as it ran on one (5, n) buffer B, kept as its oracle.

    Each stage copies Y_{j-2} and Y_{j-1} into rows 1 and 0, applies M into
    row 3 through `apply` and writes Y_j with np.dot(w_j, B); the two-buffer
    loop keeps the row order and the weights, so it must match bit for bit.
    """
    mu, nu = coeffs.mu[2:], coeffs.nu[2:]
    W = np.column_stack((mu, nu, 1.0 - mu - nu, dt * coeffs.mu_tilde[2:],
                         dt * coeffs.gamma_tilde[2:]))
    B = np.empty((5,) + op.shape)
    B[0] = B[2] = state
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = apply(op, B[2], B[4])
        y = np.add(B[2], np.multiply(f0, coeffs.mu_tilde[1] * dt, B[3]), np.empty(op.shape))
        rows, y_flat = B.reshape(5, -1), y.reshape(-1)
        for w in W:
            B[1] = B[0]
            B[0] = y
            apply(op, B[0], B[3])
            np.dot(w, rows, out=y_flat)
    return y


@pytest.mark.parametrize("case", ["cubic-1d", "partial-2d", "callable"])
@pytest.mark.parametrize("s", [2, 3, 4, None], ids=lambda s: f"s={s or 'selected'}")
@pytest.mark.parametrize("family", [rkc(10.0), rkl(), rkg(2.0)], ids=lambda f: f.label)
def test_super_step_bit_identical_to_one_buffer_loop(family, s, case, step_cases):
    """Both stage buffers and check_each give the one-buffer loop's bits.

    s = 2, 3 and 4 end the step in either buffer's turn; the selected s is a
    full-length step.  Every returned field owns its memory and shares none
    with the state or with an earlier step's field.
    """
    op, rho, y = step_cases[case]
    dt = 300.0 / rho
    coeffs = make_coefficients(family, s or select_stage_count(family, dt, rho))
    seen = [y]
    for _ in range(3):
        want = one_buffer_stages(coeffs, op, y, dt)
        got = super_step(coeffs, op, y, dt)
        checked = schemes._stages(coeffs, op, y, dt, check_each=True)
        assert got.tobytes() == want.tobytes() == checked.tobytes()
        assert got.flags.owndata
        assert not any(np.shares_memory(got, f) for f in seen)
        seen.append(got)
        y = got


def test_super_step_accepts_any_field_layout(step_cases):
    """apply writes C-ordered buffers; a Fortran-ordered field gives the same bits."""
    op, rho, y = step_cases["partial-2d"]
    coeffs = make_coefficients(rkc(10.0), select_stage_count(rkc(10.0), 300.0 / rho, rho))
    want = super_step(coeffs, op, y, 300.0 / rho)
    got = super_step(coeffs, op, np.asfortranarray(y), 300.0 / rho)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["cubic-1d", "partial-2d"])
def test_super_step_bits_do_not_depend_on_buffer_offset(case, step_cases):
    op, rho, y = step_cases[case]
    coeffs = make_coefficients(rkl(), select_stage_count(rkl(), 300.0 / rho, rho))
    raw = np.empty(y.size + 3)
    shifted = raw[3:].reshape(y.shape)  # 24 bytes past the allocation
    shifted[...] = y
    want = super_step(coeffs, op, y, 300.0 / rho)
    got = super_step(coeffs, op, shifted, 300.0 / rho)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, broadcasts, other",
                         [("cubic-1d", (1,), (400,)), ("partial-2d", (21,), (41,))])
def test_super_step_refuses_a_field_of_another_shape(case, broadcasts, other, step_cases):
    op, rho, _ = step_cases[case]
    coeffs = make_coefficients(rkl(), 4)
    for shape in (broadcasts, other):
        with pytest.raises(ValueError, match="does not match operator"):
            super_step(coeffs, op, np.ones(shape), 1.0 / rho)


def _region_fitting_case(family):
    # region fitting on a long expiry: the rungs grow past the float range
    params = dataclasses.replace(default_heston_params(), expiry=500.0)
    gx, gv = make_grid(foulon_spec_x(100.0, m=40)), make_grid(foulon_spec_v(n=20))
    op = assemble_heston(params, gx, gv, UpwindPolicy.FOULON_REGION)
    y0 = payoff_eval(call(100.0), gx, gv)
    return family, op, y0, 500.0, 10, gershgorin_radius(op)


EXPLODING_RUNS = {
    "grow-callable": lambda: (rkl(), matrix_op(-1e200 * np.eye(2)), np.ones(2),
                              1.0, 2, 1.0),
    "region-rkl": lambda: _region_fitting_case(rkl()),
    "region-rkc0": lambda: _region_fitting_case(rkc(0.0)),
    # a fast mode under a spectral bound 1e38 too small: stage 8 of 15 overflows
    "late-grow-callable": lambda: (rkl(), matrix_op(-1e40 * np.eye(2)), np.ones(2),
                                   1.0, 1, 100.0),
}


def test_exploding_runs_cover_both_stage_parities():
    """Stage j writes Y_j into the stage buffer of j's parity: the runs above
    must first go non-finite at an even stage past 2 and at an odd one."""
    stages = {reference_run(*make())[2] for make in EXPLODING_RUNS.values()}
    assert any(j > 2 and j % 2 == 0 for j in stages)
    assert any(j % 2 == 1 for j in stages)


@pytest.mark.parametrize("name", list(EXPLODING_RUNS))
def test_explosion_step_and_stage_match_reference(name):
    family, op, y0, expiry, l, rho = EXPLODING_RUNS[name]()
    want_y, want_step, want_stage = reference_run(family, op, y0, expiry, l, rho)
    assert want_step is not None  # the case does explode
    y, log = run_integrator(family, op, y0, expiry, l, rho=rho)
    assert log.exploded
    assert (log.explosion_step, log.explosion_stage) == (want_step, want_stage)
    # each finite step adds at most one step's rounding bound, relative to a
    # field that only grows on the way to the explosion
    assert np.abs(y - want_y).max() <= want_step * rounding_bound(log.s_per_step[0], want_y)


@pytest.mark.parametrize("family",
                         [rkc(10.0), rkl(), rkg(2.0), explicit_euler()],
                         ids=lambda f: f.label)
def test_poly_eval_complex_matches_real_block(family):
    # z = a + ib acts on (Re, Im) as the real block [[a, -b], [b, a]]
    s = 1 if family.kind is FamilyKind.EULER else 9
    coeffs, beta = _certified(family, s)
    zs = beta * np.array(
        [-0.05 + 0.01j, -0.3 - 0.05j, -0.5 + 0.3j, -0.9 + 0.0j, -1.0 + 0.02j])
    got = _poly_eval(coeffs, zs)
    assert got.dtype == np.complex128
    for z, p in zip(zs, got):
        block = np.array([[z.real, -z.imag], [z.imag, z.real]])
        re, im = super_step(coeffs, matrix_op(block), np.array([1.0, 0.0]), 1.0)
        assert abs(p - complex(re, im)) <= 1e-12 * max(1.0, abs(p)), z
    assert _poly_eval(coeffs, -0.5).dtype == np.float64


def test_run_integrator_guards():
    op = matrix_op(-np.eye(2))
    with pytest.raises(ValueError, match="l >= 1"):
        run_integrator(rkl(), op, np.ones(2), 1.0, 0, rho=1.0)
    with pytest.raises(ValueError, match="expiry > 0"):
        run_integrator(rkl(), op, np.ones(2), 0.0, 4, rho=1.0)


# ------------------------------------------------------ discrete put-call parity

def scalar_stability(family: SchemeFamily, s: int, z: float) -> float:
    """P_s(z) = a_s + b_s Q_s(w0 + w1 z) from the family's table, with Q_s by
    its textbook three-term recurrence: Chebyshev T_s for rkc and explicit
    Euler, Gegenbauer C_s^g otherwise (Legendre is g = 1/2)."""
    c = make_coefficients(family, s)
    w = c.w0 + c.w1 * z
    if family.kind in (FamilyKind.EULER, FamilyKind.RKC):
        q0, q1 = 1.0, w
        for _ in range(2, s + 1):
            q0, q1 = q1, 2.0 * w * q1 - q0
    else:
        g = 0.5 if family.kind is FamilyKind.RKL else family.g
        q0, q1 = 1.0, 2.0 * g * w
        for j in range(2, s + 1):
            q0, q1 = q1, (2.0 * (j + g - 1.0) * w * q1 - (j + 2.0 * g - 2.0) * q0) / j
    return float(c.a[s] + c.b[s] * q1)


def explicit_parity(grid, policy, family, l, r, q):
    """(op, the growth of a random field over the run, and the check that
    C - P meets the scalar parity to 64 l s^2 eps max|f|)."""
    op, expiry, x, call_y0, put_y0 = parity_case(grid, policy, r, q)
    if family.kind is FamilyKind.EULER:  # the least l it can run, and more
        l += math.ceil(expiry * gershgorin_radius(op) / 1.9)
    noise = np.random.default_rng(0).standard_normal(op.shape)
    growth = np.abs(run_integrator(family, op, noise, expiry, l)[0]).max() / np.abs(noise).max()

    def check():
        fc, log = run_integrator(family, op, call_y0, expiry, l)
        fp, _ = run_integrator(family, op, put_y0, expiry, l)
        s, dt = log.s_per_step[0], expiry / l
        want = (scalar_stability(family, s, -q * dt) ** l * x
                - scalar_stability(family, s, -r * dt) ** l * 100.0)
        scale = max(np.abs(fc).max(), np.abs(fp).max())
        assert_parity(op, fc - fp, want, 64 * l * s**2 * np.finfo(float).eps * scale)

    return op, growth, check


@given(case=parity_grids(), data=st.data(),
       r=st.floats(min_value=-0.05, max_value=0.2),
       q=st.floats(min_value=-0.05, max_value=0.2))
@settings(max_examples=25, deadline=None)
def test_explicit_put_call_parity(case, data, r, q):
    """C - P = P_s(-q dt)^l x - P_s(-r dt)^l K at every node.

    M 1 = -r 1 and M x = -q x in every row, so a run maps x - K to that
    exactly, and the two runs differ by it up to rounding.  The bound, fixed
    before measuring: each stage rounds its sum and its matvec, and M's rows
    hold the identities, to a few eps max|f|; a stage's error reaches Y_s
    through internal stability polynomials of size <= s - j + 1, < s^2/2
    over a step, and later steps do not grow it; two runs of l steps give
    64 l s^2 eps max|f|.  The premise that later steps do not grow an error
    is checked on the run itself: a run that grows a random field is left
    out.  Where the central policies grow it by ~1e5, C - P misses the bound:
    test_explicit_parity_past_the_bound_only_where_the_run_grows.  The cubic
    grid runs 10^4 stages a step, so it takes l <= 2, and no explicit Euler.
    """
    grid, policy = case
    cubic = grid == "cubic-401"
    family = data.draw(st.sampled_from(FAMILIES + ([] if cubic else [explicit_euler()])))
    l = data.draw(st.integers(min_value=1, max_value=2 if cubic else 40))
    _, growth, check = explicit_parity(grid, policy, family, l, r, q)
    assume(growth <= 1.0)
    check()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="rounding amplified by the run's unstable modes, not a row that "
                          "breaks M x = -q x")
@pytest.mark.parametrize("policy, family", [(UpwindPolicy.NONE, rkl()),
                                            (UpwindPolicy.FOULON_REGION, rkg(0.7))],
                         ids=["none-rkl", "region-rkg0.7"])
def test_explicit_parity_past_the_bound_only_where_the_run_grows(policy, family):
    """41x21 at l = 20: C - P misses the parity bound by 7.5x (central, on
    the five v rows nearest v_min, x from 65 to 694) and 2.5x (region
    fitting, x 604 and 694, v 0.0035 to 0.012).  Every row holds M x = -q x,
    one run of x - K misses by the same amount, and the run grows a random
    field by 4e5 to 8e5: the bound's premise fails, so the bound does."""
    _, growth, check = explicit_parity("41x21", policy, family, 20, 0.01, 0.04)
    assert growth > 1e5
    check()
