"""Payoffs, metrics, and the experiment drivers."""

import json
import math
import threading
import time
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import cubic_grid
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply
from scipy.stats import norm

from stslab.experiments import (bs_closed_form, bs_uniform_grid,
                                call, clean_threshold, default_bs_params,
                                default_heston_params, delta_surface,
                                digital_range, foulon_spec_v, foulon_spec_x,
                                oscillation_metric, payoff_eval, price_at_spot,
                                Setup, prepare, put, rms_error, roi_mask,
                                run_and_score, run_bs_study,
                                run_delta_comparison, run_time_convergence,
                                UnconvergedReferenceError)
from stslab.grids import Grid1D, make_grid, make_uniform
from stslab.implicit import crank_nicolson_run
from stslab.operators import BsParams, UpwindPolicy, assemble_bs, assemble_heston
import stslab.experiments
from stslab.schemes import rkc, rkg, rkl

# --------------------------------------------------------------- oscillation

def test_oscillation_frozen_cases():
    assert oscillation_metric(np.array([0.0, 1.0, 0.0, 1.0, 0.0])) == 3.0
    assert oscillation_metric(np.arange(12.0)) == 0.0
    assert oscillation_metric(np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0, 0.0])) == 0.0
    assert oscillation_metric(np.full(7, 4.0)) == 0.0


def test_oscillation_guards():
    with pytest.raises(ValueError, match="length >= 3"):
        oscillation_metric(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="1-D"):
        oscillation_metric(np.zeros((3, 3)))


finite_slices = st.lists(
    st.integers(min_value=-1000, max_value=1000).map(float),
    min_size=3, max_size=30).map(np.array)


@given(finite_slices)
@settings(max_examples=60, deadline=None)
def test_oscillation_nonnegative(values):
    assert oscillation_metric(values) >= 0.0


@given(finite_slices)
@settings(max_examples=60, deadline=None)
def test_oscillation_zero_for_monotone(values):
    values = np.sort(values)
    span = values[-1] - values[0]
    assert oscillation_metric(values) <= 1e-10 * (1.0 + span)


@given(finite_slices, st.sampled_from([2.0, 0.5, 8.0]))
@settings(max_examples=60, deadline=None)
def test_oscillation_positively_homogeneous(values, c):
    # powers of two rescale every intermediate exactly, so the smoothed
    # reference keeps its sign pattern and the metric scales linearly
    assert oscillation_metric(c * values) == pytest.approx(
        c * oscillation_metric(values), rel=1e-12, abs=1e-12)


def test_oscillation_shift_invariant():
    base = np.array([0.0, 2.0, 1.0, 3.0, 1.5, 4.0, 2.0])
    m0 = oscillation_metric(base)
    assert m0 > 0.0
    for c in (-5.0, 0.25, 1e3):
        assert oscillation_metric(base + c) == pytest.approx(m0, rel=1e-9)


def test_clean_threshold_arithmetic():
    assert clean_threshold(1.0, 2.0) == 6.0 + 1e-8
    assert clean_threshold(0.0) == 1e-8
    assert clean_threshold(0.5, floor=0.0) == 1.5


# ------------------------------------------------------------------- payoffs

def test_payoff_eval_kinks_and_bounds():
    g = make_uniform(0.0, 150.0, 15)
    c = payoff_eval(call(100.0), g)
    assert c[10] == 0.0 and c[11] == 10.0 and c[0] == 0.0
    p = payoff_eval(put(100.0), g)
    assert p[10] == 0.0 and p[9] == 10.0 and p[0] == 100.0
    d = payoff_eval(digital_range(10.0, 100.0), g)
    assert d[1] == 0.0              # the barrier nodes themselves pay nothing
    assert d[10] == 0.0
    assert d[2] == 1.0 and d[9] == 1.0 and d[11] == 0.0


def test_payoff_eval_broadcasts_over_v():
    g = make_uniform(0.0, 150.0, 15)
    gv = make_uniform(0.0, 1.0, 4)
    f = payoff_eval(call(100.0), g, gv)
    assert f.shape == (16, 5)
    assert np.array_equal(f, np.repeat(f[:, :1], 5, axis=1))


def test_digital_needs_ordered_barriers():
    with pytest.raises(ValueError, match="low < high"):
        digital_range(100.0, 10.0)


def test_payoff_bounds_name_the_field():
    with pytest.raises(ValueError, match=r"need 0 <= low < high, got \(-1.0, 5.0\)"):
        digital_range(-1.0, 5.0)
    for make in (call, put):
        with pytest.raises(ValueError, match="need strike > 0, got 0.0"):
            make(0.0)
    assert digital_range(10.0, 100.0).window == (50.0, 150.0)


def test_put_call_parity():
    params = default_bs_params()
    k = 87.0
    lhs = bs_closed_form(params, call(k)) - bs_closed_form(params, put(k))
    rhs = (params.spot * np.exp(-params.q * params.expiry)
           - k * np.exp(-params.r * params.expiry))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_closed_form_frozen_values():
    params = default_bs_params()
    assert bs_closed_form(params, digital_range(10.0, 100.0)) == pytest.approx(
        2.7316721566155464e-7, rel=1e-13)
    assert bs_closed_form(params, call(100.0)) == pytest.approx(
        9.51625829810788, rel=1e-13)


@pytest.mark.parametrize("params, strikes", [
    (default_bs_params(), (95.0, 100.0, 113.0, 125.0)),
    (BsParams(sigma=0.3, r=0.03, q=0.01, spot=90.0, expiry=2.0),
     (10.0, 60.0, 100.0, 140.0)),
], ids=["default", "sigma0.3"])
def test_closed_form_against_scipy_norm(params, strikes):
    # scipy's normal cdf is the oracle.  The strikes keep |d| <= 9; a price is
    # a difference of two terms, so the error is relative to their size.
    t = params.expiry
    df_r, df_q = math.exp(-params.r * t), math.exp(-params.q * t)
    sig = params.sigma * math.sqrt(t)

    def d2(level):
        return (math.log(params.spot / level)
                + (params.mu - 0.5 * params.sigma**2) * t) / sig

    def check(got, plus, minus):
        assert abs(got - (plus - minus)) <= 1e-14 * (plus + minus)

    for k in strikes:
        d1 = d2(k) + sig
        check(bs_closed_form(params, call(k)),
              params.spot * df_q * norm.cdf(d1), k * df_r * norm.cdf(d2(k)))
        check(bs_closed_form(params, put(k)),
              k * df_r * norm.cdf(-d2(k)), params.spot * df_q * norm.cdf(-d1))
    for low, high in zip(strikes, strikes[1:]):
        check(bs_closed_form(params, digital_range(low, high)),
              df_r * norm.cdf(d2(low)), df_r * norm.cdf(d2(high)))


# ----------------------------------------------------------- metrics helpers

def test_rms_error_values_and_guards():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.0, 2.0, 3.0])
    assert rms_error(a, b) == pytest.approx(np.sqrt(1.0 / 3.0))
    region = np.array([True, False, False])
    assert rms_error(a, b, region) == 1.0
    with pytest.raises(ValueError, match="shape mismatch"):
        rms_error(a, np.zeros(4))
    with pytest.raises(ValueError, match="region shape"):
        rms_error(a, b, np.ones(4, dtype=bool))
    with pytest.raises(ValueError, match="empty region"):
        rms_error(a, b, np.zeros(3, dtype=bool))


def test_rms_error_rescales_only_an_overflowing_sum():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rms_error([1e160, 2e160], [0.0, 0.0]) == pytest.approx(np.sqrt(2.5) * 1e160)
        assert rms_error([1e160, np.inf], [0.0, 0.0]) == np.inf
    # a sum that does not overflow keeps the plain formula's bits
    diff = np.array([3e150, -1e-3, 7.5])
    assert rms_error(diff, np.zeros(3)) == float(np.sqrt(np.mean(diff**2)))


def test_roi_mask_counts():
    g = make_uniform(0.0, 150.0, 15)
    mask = roi_mask(g, 50.0, 150.0)
    assert mask.sum() == 11 and mask[5] and not mask[4]
    gv = make_uniform(0.0, 5.0, 10)
    m2 = roi_mask(g, 50.0, 150.0, gv, 0.0, 1.0)
    assert m2.shape == (16, 11)
    assert m2.sum() == 11 * 3


def test_delta_surface_exact_for_linear():
    g = make_uniform(0.0, 10.0, 10)
    d = delta_surface(2.0 * g.nodes, g)
    assert np.allclose(d, 2.0, rtol=0, atol=1e-14)


def test_delta_surface_forward_difference():
    g = make_uniform(0.0, 10.0, 10)
    d = delta_surface(g.nodes**2, g)
    assert np.allclose(d[:-1], 2.0 * g.nodes[:-1] + 1.0)
    assert d[-1] == d[-2]


def test_delta_surface_2d_and_guard():
    g = make_uniform(0.0, 10.0, 5)
    f = np.outer(g.nodes, np.array([1.0, 2.0, 3.0]))
    d = delta_surface(f, g)
    assert np.allclose(d, np.tile([1.0, 2.0, 3.0], (6, 1)))
    with pytest.raises(ValueError, match="at least 3 nodes"):
        delta_surface(np.zeros(2), Grid1D(np.array([0.0, 1.0])))


def test_price_at_spot_interpolation():
    g = make_uniform(0.0, 10.0, 10)
    f = 3.0 * g.nodes + 1.0
    assert price_at_spot(f, g, 4.0) == pytest.approx(13.0)
    assert price_at_spot(f, g, 4.5) == pytest.approx(14.5)
    gv = make_uniform(0.0, 1.0, 4)
    surf = np.outer(g.nodes, gv.nodes)
    assert price_at_spot(surf, g, 3.5, gv, 0.6) == pytest.approx(3.5 * 0.6)
    assert price_at_spot(f, g, 10.0) == pytest.approx(31.0)  # the edges are on the grid
    assert price_at_spot(surf, g, 0.0, gv, 1.0) == 0.0
    with pytest.raises(ValueError, match="2-D field"):
        price_at_spot(surf, g, 3.5)
    with pytest.raises(ValueError, match="variance coordinate"):
        price_at_spot(surf, g, 3.5, gv)
    # off the grid, interpolation would clamp to the edge value
    with pytest.raises(ValueError, match=r"spot 10.5 outside the grid \[0, 10\]"):
        price_at_spot(f, g, 10.5)
    with pytest.raises(ValueError, match=r"spot -1 outside the grid \[0, 10\]"):
        price_at_spot(surf, g, -1.0, gv, 0.6)
    with pytest.raises(ValueError, match=r"v 1.5 outside the grid \[0, 1\]"):
        price_at_spot(surf, g, 3.5, gv, 1.5)


# ------------------------------------------------------------- grid builders

def test_foulon_grids_frozen_values():
    gx = make_grid(foulon_spec_x(100.0, m=100))
    assert gx.nodes[0] == 0.0 and gx.nodes[-1] == 800.0
    assert gx.nodes[50] == pytest.approx(122.5322491188717, rel=1e-13)
    gv = make_grid(foulon_spec_v(n=50))
    assert gv.nodes[0] == 0.0 and gv.nodes[-1] == 5.0
    assert gv.nodes[1] == pytest.approx(0.0013859503596154292, rel=1e-13)


def test_bs_grid_builders():
    assert bs_uniform_grid(m=100).spacings.max() == pytest.approx(1.5)
    cubic = cubic_grid(m=400, alpha=0.01)
    assert cubic.nodes[0] == 0.0 and cubic.nodes[-1] == 150.0
    assert cubic.spacings.min() < 1e-3


# ---------------------------------------------------------------- the drivers

@pytest.fixture
def heston_setup(heston_params, gx_small, gv_small):
    return prepare(heston_params, gx_small, gv_small, UpwindPolicy.PARTIAL_FITTING,
                   call(heston_params.strike))


def test_time_convergence_small(heston_params, gx_small, heston_setup):
    res = run_time_convergence(heston_setup, (rkc(10.0),), ladder=(20, 40), l_ref=400,
                               validate_reference=True)
    assert res.reference_check is not None and res.reference_check < 1e-4
    assert [r.l for r in res.runs] == [20, 40]
    assert not any(r.exploded for r in res.runs)
    assert res.runs[1].rms_error < 1.2 * res.runs[0].rms_error
    assert all(np.isfinite(r.price_at_spot) for r in res.runs)
    assert all(r.family == "rkc(eps=10)" for r in res.runs)
    # a call gains value with variance; check the reference at the money
    ref = crank_nicolson_run(heston_setup.op, heston_setup.y0, heston_params.expiry, 400)
    i = int(np.argmin(np.abs(gx_small.nodes - heston_params.strike)))
    dv = np.diff(ref[i, :])
    assert dv.min() > -1e-8 * np.abs(ref[i, :]).max()


def serial_time_convergence(setup, payoff, families, ladder, l_ref):
    """The serial driver: both CN runs first, then each rung scored against
    their Richardson extrapolation (an exploded rung has no field to score and
    reads inf)."""
    op, y0, expiry = setup.op, setup.y0, setup.params.expiry
    roi = roi_mask(op.gx, 0.5 * payoff.level, 1.5 * payoff.level, op.gv, 0.0, 1.0)
    ref = crank_nicolson_run(op, y0, expiry, l_ref)
    ref2 = crank_nicolson_run(op, y0, expiry, 2 * l_ref)
    richardson = (4.0 * ref2 - ref) / 3.0
    scored = [run_and_score(fam, setup, l) for fam in families for l in ladder]
    for fld, _, log in scored:
        log.rms_error = float("inf") if log.exploded else rms_error(fld, richardson, roi)
    return scored, rms_error(ref, ref2, roi)


def scored_record(log):
    """A RunLog as exact text, without its timings (repr round-trips floats)."""
    d = asdict(log)
    del d["wall_time"], d["t_select"]
    return json.dumps(d, sort_keys=True)


@pytest.mark.parametrize("rho_scale, exploded", [
    (1.0, [False] * 4),
    (0.5, [False, True, False, False]),  # the inf score beside overflowed ones
])
def test_time_convergence_matches_serial_oracle_bitwise(rho_scale, exploded, heston_params,
                                                        gx_small, gv_small, monkeypatch):
    real_radius = stslab.experiments.gershgorin_radius
    monkeypatch.setattr(stslab.experiments, "gershgorin_radius",
                        lambda op: rho_scale * real_radius(op))
    payoff = call(heston_params.strike)
    setup = prepare(heston_params, gx_small, gv_small, UpwindPolicy.PARTIAL_FITTING, payoff)
    args = (setup, (rkc(10.0), rkl()), (10, 20))
    want, want_check = serial_time_convergence(setup, payoff, *args[1:], 400)
    fields = []
    real_score = stslab.experiments.run_and_score

    def recording(*a, **kw):
        out = real_score(*a, **kw)
        fields.append(out[0])
        return out

    monkeypatch.setattr(stslab.experiments, "run_and_score", recording)
    res = run_time_convergence(*args, l_ref=400, validate_reference=True)
    assert res.reference_check == want_check
    assert [r.exploded for r in res.runs] == exploded
    if rho_scale == 1.0:
        assert all(0.0 < r.rms_error < 1e-2 for r in res.runs)
    else:
        assert [r.rms_error for r in res.runs if r.exploded] == [float("inf")]
    assert [scored_record(r) for r in res.runs] == [scored_record(w[2]) for w in want]
    assert [f.tobytes() for f in fields] == [w[0].tobytes() for w in want]


def test_time_convergence_scores_against_the_exact_solution(heston_setup, monkeypatch):
    """With validate_reference every rung's rms against the Richardson
    reference matches its rms against expm(T M) y0 to 1e-3 relative (bound
    stated before measuring; measured at most 1.2e-5, at the top rung).
    Against CN(l_ref) alone, the fallback without validation, the top rungs
    read their own error no longer: 45% and 5.4x off for rkl at l = 320 and
    640 here."""
    op, expiry = heston_setup.op, heston_setup.params.expiry
    exact = expm_multiply(expiry * op.matrix.tocsr(), heston_setup.y0.ravel()).reshape(op.shape)
    roi = heston_setup.window[:, None] & (op.gv.nodes <= 1.0)[None, :]
    fields = []
    real_score = stslab.experiments.run_and_score

    def recording(*a, **kw):
        out = real_score(*a, **kw)
        fields.append(out[0])
        return out

    monkeypatch.setattr(stslab.experiments, "run_and_score", recording)
    for validate in (True, False):
        fields.clear()
        res = run_time_convergence(heston_setup, (rkc(10.0), rkl()),
                                   ladder=(20, 40, 80, 160, 320, 640), l_ref=400,
                                   validate_reference=validate)
        errs = [abs(r.rms_error / rms_error(f, exact, roi) - 1.0)
                for f, r in zip(fields, res.runs)]
        if validate:
            assert max(errs) <= 1e-3, errs
        else:
            assert all(errs[i] > 0.1 for i in (4, 5, 10, 11)), errs


def test_time_convergence_unconverged_reference_raises(heston_setup):
    with pytest.raises(UnconvergedReferenceError,
                       match=r"reference not self-converged: rms\(l=3, l=6\) = "):
        run_time_convergence(heston_setup, (rkc(10.0),), ladder=(20,), l_ref=3)


def test_time_convergence_reference_error_propagates(heston_setup, monkeypatch):
    def failing(op, y0, expiry, l):
        raise np.linalg.LinAlgError(f"no reference at l={l}")

    before = threading.active_count()
    monkeypatch.setattr(stslab.experiments, "crank_nicolson_run", failing)
    with pytest.raises(np.linalg.LinAlgError, match="no reference at l=400"):
        run_time_convergence(heston_setup, (rkc(10.0),), ladder=(20,), l_ref=400)
    assert threading.active_count() == before

    # a ladder that fails cancels the queued reference: only the running one finishes
    started, calls = threading.Event(), []

    def counting(op, y0, expiry, l):
        calls.append(l)
        started.set()
        time.sleep(0.2)  # still running when the ladder fails
        return y0

    def failing_ladder(*args):
        assert started.wait(timeout=30)
        raise ValueError("ladder failed")

    monkeypatch.setattr(stslab.experiments, "crank_nicolson_run", counting)
    monkeypatch.setattr(stslab.experiments, "run_and_score", failing_ladder)
    with pytest.raises(ValueError, match="ladder failed"):
        run_time_convergence(heston_setup, (rkc(10.0),), ladder=(20,), l_ref=400)
    assert calls == [400]
    assert threading.active_count() == before


def test_delta_comparison_smoke(gx_small, heston_setup):
    out = run_delta_comparison(heston_setup, (rkc(10.0), rkl(), rkg(2.0)), l=10)
    assert set(out) == {"rkc(eps=10)", "rkl", "rkg(g=2)"}
    for label, (delta, run) in out.items():
        assert np.isfinite(run.osc_metric) and run.osc_metric >= 0.0
        assert delta.shape == (gx_small.m + 1,)
        assert run.l == 10
        assert run.family == label


def test_bs_study_structure(bs_params):
    setup = prepare(bs_params, bs_uniform_grid(m=60), None, UpwindPolicy.NONE,
                    digital_range(10.0, 100.0))
    res = run_bs_study(setup, (rkl(), rkg(2.0), rkc(10.0)), l=40)
    assert [r.family for r in res.runs] == ["trbdf2", "rkl", "rkg(g=2)",
                                            "rkc(eps=10)"]
    assert set(res.curves) == {"trbdf2", "rkl", "rkg(g=2)", "rkc(eps=10)"}
    assert all(curve.shape == (61,) for curve in res.curves.values())
    assert np.isfinite(res.threshold) and res.threshold > 0.0
    assert [len(r.s_per_step) for r in res.runs] == [0, 40, 40, 40]
    assert not any(r.exploded for r in res.runs)


@pytest.mark.parametrize("dim", [2, 1])
def test_run_and_score_explosion(dim, heston_params, bs_params, gx_small, gv_small):
    # rho = 1e-6 lets two stages through where the operator needs thousands,
    # so the run blows up
    if dim == 2:
        op = assemble_heston(heston_params, gx_small, gv_small,
                             UpwindPolicy.PARTIAL_FITTING)
        y0 = payoff_eval(call(100.0), gx_small, gv_small)
        params = heston_params
    else:
        op = assemble_bs(bs_params, cubic_grid(m=100),
                         UpwindPolicy.PARTIAL_FITTING)
        y0 = payoff_eval(digital_range(10.0, 100.0), op.gx)
        params = bs_params
    assert (params.expiry, params.spot) == (1.0, 100.0)
    setup = Setup(params, op, y0, 1e-6, roi_mask(op.gx, 50.0, 150.0))
    fld, osc_slice, run = run_and_score(rkl(), setup, 100)
    assert run.exploded and run.explosion_step is not None
    assert run.osc_metric == float("inf") and np.isnan(run.price_at_spot)
    assert np.isnan(run.rms_error)  # only the convergence ladder scores rms
    assert osc_slice.shape == (op.gx.m + 1,) and np.isfinite(osc_slice).all()
    assert np.isfinite(fld).all() and fld.shape == y0.shape


def strike_setup(strike: float, policy: UpwindPolicy) -> Setup:
    """The default 41x21 call setup with strike and spot at `strike`; the
    default grid recipes scale with the strike."""
    params = replace(default_heston_params(), strike=strike, spot=strike)
    return prepare(params, make_grid(foulon_spec_x(strike, m=40)),
                   make_grid(foulon_spec_v(n=20)), policy, call(strike))


@pytest.mark.parametrize("policy", [UpwindPolicy.PARTIAL_FITTING,
                                    UpwindPolicy.FOULON_REGION], ids=lambda p: p.value)
@pytest.mark.parametrize("family,l", [(rkc(10.0), 10), (rkc(10.0), 80), (rkl(), 40)],
                         ids=["rkc10-l10", "rkc10-l80", "rkl-l40"])
def test_doubling_strike_and_spot_doubles_the_field_exactly(policy, family, l):
    # M reads x only through ratios like x^2/h^2, so a power-of-two scale of
    # the lattice leaves it bitwise unchanged and the linear runs scale exactly;
    # the region-fitting l = 10 run grows to ~4e5 and scales all the same
    one, two = strike_setup(100.0, policy), strike_setup(200.0, policy)
    assert np.array_equal(two.op.gx.nodes, 2.0 * one.op.gx.nodes)
    assert two.op.matrix.data.tobytes() == one.op.matrix.data.tobytes()
    assert np.array_equal(two.op.matrix.offsets, one.op.matrix.offsets)
    f1, _, run1 = run_and_score(family, one, l)
    f2, _, run2 = run_and_score(family, two, l)
    assert np.array_equal(f2, 2.0 * f1)
    assert run2.s_per_step == run1.s_per_step and run2.exploded == run1.exploded
    assert run2.price_at_spot == 2.0 * run1.price_at_spot
