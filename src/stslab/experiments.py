"""Payoffs, error metrics, and the experiment drivers.

Every run starts from the `Setup` that `prepare` returns: the operator with
the payoff values, the spectral bound stage selection runs against and the
window the oscillation metric reads.  Every run on it is scored by `score`.
Three studies take a setup and build on these steps:

* a time-convergence ladder for the stochastic-volatility model: each family
  in turn runs the ladder against one Crank-Nicolson/Rannacher reference,
  computed once on the shared operator, exposing the explosion of
  region-restricted fitting at low step counts;
* a delta-oscillation comparison of the super-time-stepping families near
  v = 0;
* the flat-volatility barrier study on uniform and stretched grids; on the
  fitted cubic grid the Legendre scheme oscillates at low step counts while
  the Gegenbauer scheme and TR-BDF2 stay clean.

Oscillations are quantified by excess total variation: the total variation of
a slice minus the variation a monotone-per-segment profile would need, the
segments being taken from a 5-point smoothed reference.  The metric is zero
for monotone and single-hump slices and grows with sawtooth amplitude.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .grids import Grid1D, GridSpec, StretchKind, make_grid
from .implicit import crank_nicolson_run, trbdf2_run
from .operators import (BsParams, HestonParams, StencilOperator, UpwindPolicy,
                        assemble_bs, assemble_heston)
from .schemes import RunLog, SchemeFamily, run_integrator
from .spectra import Spectrum, gershgorin_radius

__all__ = [
    "Payoff",
    "PayoffKind",
    "call",
    "put",
    "digital_range",
    "payoff_eval",
    "bs_closed_form",
    "rms_error",
    "roi_mask",
    "delta_surface",
    "oscillation_metric",
    "clean_threshold",
    "price_at_spot",
    "score",
    "run_and_score",
    "Setup",
    "prepare",
    "default_heston_params",
    "default_bs_params",
    "foulon_spec_x",
    "foulon_spec_v",
    "bs_uniform_spec",
    "bs_uniform_grid",
    "DEFAULT_LADDER",
    "DEFAULT_L_REF",
    "ConvergenceResult",
    "UnconvergedReferenceError",
    "run_time_convergence",
    "run_delta_comparison",
    "BsStudyResult",
    "run_bs_study",
]


class PayoffKind(Enum):
    CALL = "call"
    PUT = "put"
    DIGITAL_RANGE = "digital-range"


@dataclass(frozen=True)
class Payoff:
    """Terminal condition; vanilla strike or digital barrier pair."""

    kind: PayoffKind
    strike: float = 0.0
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self):
        if self.kind is PayoffKind.DIGITAL_RANGE:
            if not 0.0 <= self.low < self.high:
                raise ValueError(f"need 0 <= low < high, got ({self.low!r}, {self.high!r})")
        elif not self.strike > 0.0:
            raise ValueError(f"need strike > 0, got {self.strike!r}")

    @property
    def level(self) -> float:
        """Price level the payoff kinks at; anchors error/oscillation windows."""
        if self.kind is PayoffKind.DIGITAL_RANGE:
            return self.high
        return self.strike

    @property
    def window(self) -> tuple[float, float]:
        """x bounds of the oscillation window and the rms region: (0.5, 1.5) * level."""
        return 0.5 * self.level, 1.5 * self.level


def call(strike: float) -> Payoff:
    return Payoff(PayoffKind.CALL, strike=float(strike))


def put(strike: float) -> Payoff:
    return Payoff(PayoffKind.PUT, strike=float(strike))


def digital_range(low: float, high: float) -> Payoff:
    return Payoff(PayoffKind.DIGITAL_RANGE, low=float(low), high=float(high))


def payoff_eval(p: Payoff, gx: Grid1D, gv: Grid1D | None = None) -> np.ndarray:
    """Terminal values on the grid; broadcast over the v dimension if given."""
    x = gx.nodes
    if p.kind is PayoffKind.CALL:
        vals = np.maximum(x - p.strike, 0.0)
    elif p.kind is PayoffKind.PUT:
        vals = np.maximum(p.strike - x, 0.0)
    elif p.kind is PayoffKind.DIGITAL_RANGE:
        vals = np.where((x > p.low) & (x < p.high), 1.0, 0.0)
    else:
        raise ValueError(f"unsupported payoff {p.kind!r}")
    if gv is None:
        return vals
    return np.repeat(vals[:, None], gv.m + 1, axis=1)


def _d2(params: BsParams, level: float) -> float:
    sig = params.sigma * math.sqrt(params.expiry)
    return (math.log(params.spot / level)
            + (params.mu - 0.5 * params.sigma**2) * params.expiry) / sig


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_closed_form(params: BsParams, payoff: Payoff) -> float:
    """Analytic price at the spot under constant volatility."""
    t = params.expiry
    df_r = math.exp(-params.r * t)
    df_q = math.exp(-params.q * t)
    if payoff.kind is PayoffKind.DIGITAL_RANGE:
        return df_r * (_norm_cdf(_d2(params, payoff.low))
                       - _norm_cdf(_d2(params, payoff.high)))
    k = payoff.strike
    sig = params.sigma * math.sqrt(t)
    d2 = _d2(params, k)
    d1 = d2 + sig
    if payoff.kind is PayoffKind.CALL:
        return params.spot * df_q * _norm_cdf(d1) - k * df_r * _norm_cdf(d2)
    if payoff.kind is PayoffKind.PUT:
        return k * df_r * _norm_cdf(-d2) - params.spot * df_q * _norm_cdf(-d1)
    raise ValueError(f"unsupported payoff {payoff.kind!r}")


def rms_error(a: np.ndarray, b: np.ndarray, region: np.ndarray | None = None) -> float:
    """Root mean square of a - b, optionally restricted to a boolean region.

    A sum of squares that overflows is rescaled by max|a - b| instead."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    if region is not None:
        if region.shape != a.shape:
            raise ValueError(f"region shape {region.shape} != field shape {a.shape}")
        diff = diff[region]
        if diff.size == 0:
            raise ValueError("empty region")
    with np.errstate(over="ignore"):
        rms = np.sqrt(np.mean(diff**2))
    if np.isinf(rms) and np.all(np.isfinite(diff)):  # a square overflowed
        top = np.abs(diff).max()
        rms = top * np.sqrt(np.mean((diff / top) ** 2))
    return float(rms)


def roi_mask(gx: Grid1D, x_low: float, x_high: float, gv: Grid1D | None = None,
             v_low: float = 0.0, v_high: float = 1.0) -> np.ndarray:
    """Boolean mask of the error region, inclusive bounds."""
    mx = (gx.nodes >= x_low) & (gx.nodes <= x_high)
    if gv is None:
        return mx
    mv = (gv.nodes >= v_low) & (gv.nodes <= v_high)
    return mx[:, None] & mv[None, :]


def delta_surface(f: np.ndarray, gx: Grid1D) -> np.ndarray:
    """Forward-difference delta; the last x row replicates its neighbor."""
    f = np.asarray(f, dtype=float)
    if gx.m < 2:
        raise ValueError("need at least 3 nodes for a delta surface")
    h = gx.spacings.reshape((-1,) + (1,) * (f.ndim - 1))  # broadcasts along axis 0
    out = np.empty_like(f)
    out[:-1] = np.diff(f, axis=0) / h
    out[-1] = out[-2]
    return out


def oscillation_metric(values: np.ndarray) -> float:
    """Excess total variation of a slice over its smoothed monotone envelope.

    A 5-point moving average of the symmetric-padded slice provides the
    reference; its sign changes split the slice into monotone segments
    (plateaus extend the current segment).  The metric is the total variation
    of the raw slice minus the max-min span of each segment, floored at zero.
    Humps narrower than the smoothing window register as excess variation.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 3:
        raise ValueError("need a 1-D slice of length >= 3")
    padded = np.pad(values, 2, mode="symmetric")
    ref = np.convolve(padded, np.full(5, 0.2), mode="valid")
    dref = np.diff(ref)
    tv = float(np.abs(np.diff(values)).sum())
    envelope = 0.0
    start = 0
    direction = 0
    for idx, d in enumerate(dref):
        s = 0 if d == 0.0 else (1 if d > 0.0 else -1)
        if s == 0:
            continue
        if direction == 0 or s == direction:
            direction = s
            continue
        seg = values[start:idx + 1]
        envelope += float(seg.max() - seg.min())
        start = idx
        direction = s
    seg = values[start:]
    envelope += float(seg.max() - seg.min())
    return max(tv - envelope, 0.0)


def clean_threshold(*clean_values: float, floor: float = 1e-8) -> float:
    """Oscillation threshold: three times the worst clean baseline plus a floor."""
    return 3.0 * max(clean_values) + floor


def price_at_spot(f: np.ndarray, gx: Grid1D, spot: float,
                  gv: Grid1D | None = None, v: float | None = None) -> float:
    """Linear (bilinear in 2-D) interpolation at the spot; off the grid it raises."""
    f = np.asarray(f, dtype=float)
    for name, point, g in (("spot", spot, gx), ("v", v, gv)):
        if g is not None and point is not None and not g.nodes[0] <= point <= g.nodes[-1]:
            raise ValueError(f"{name} {point:g} outside the grid "
                             f"[{g.nodes[0]:g}, {g.nodes[-1]:g}]")
    if gv is None:
        if f.ndim != 1:
            raise ValueError("need the variance grid and coordinate for a 2-D field")
        return float(np.interp(spot, gx.nodes, f))
    if v is None:
        raise ValueError("need the variance coordinate for a 2-D field")
    along_v = np.array([np.interp(spot, gx.nodes, f[:, j])
                        for j in range(gv.m + 1)])
    return float(np.interp(v, gv.nodes, along_v))


@dataclass(frozen=True)
class Setup:
    """What every run on one operator shares (see `prepare`); params give the
    expiry, the spot and, in 2-D, v0, y0 is the payoff on op's lattice, and
    spectrum is op's scaled spectrum if the command reads it, else None."""

    params: HestonParams | BsParams
    op: StencilOperator
    y0: np.ndarray
    rho: float
    window: np.ndarray
    spectrum: Spectrum | None = None


def score(setup: Setup, fld: np.ndarray, log: RunLog) -> np.ndarray:
    """Fill log's osc_metric and price_at_spot from fld; returns the osc slice.

    The one scorer of every run.  The slice is the field itself in 1-D and the
    delta at the lowest variance row in 2-D; the metric reads its `window`
    entries.  An exploded run scores osc = inf and price = nan.  The rms error
    stays nan: only `run_time_convergence` has a reference to score it against.
    """
    op, params = setup.op, setup.params
    osc_slice = fld if op.gv is None else delta_surface(fld, op.gx)[:, 0]
    if log.exploded:
        log.osc_metric = math.inf
    else:
        log.osc_metric = oscillation_metric(osc_slice[setup.window])
        log.price_at_spot = price_at_spot(fld, op.gx, params.spot, op.gv,
                                          getattr(params, "v0", None))
    return osc_slice


def run_and_score(family: SchemeFamily, setup: Setup, l: int):
    """Run one family on the setup and `score` it; returns (field, osc_slice, RunLog)."""
    fld, log = run_integrator(family, setup.op, setup.y0, setup.params.expiry, l, rho=setup.rho)
    return fld, score(setup, fld, log), log


def prepare(params: HestonParams | BsParams, gx: Grid1D, gv: Grid1D | None,
            policy: UpwindPolicy, payoff: Payoff) -> Setup:
    """The setup every run on one operator shares; 1-D when gv is None.

    This is the one place that picks the spectral bound stage selection runs
    against (rho, the Gershgorin radius of op) and the x window the
    oscillation metric reads (`payoff.window`).
    """
    if gv is None:
        op = assemble_bs(params, gx, policy)
    else:
        op = assemble_heston(params, gx, gv, policy)
    y0 = payoff_eval(payoff, gx, gv)
    window = roi_mask(gx, *payoff.window)
    return Setup(params, op, y0, gershgorin_radius(op), window)


def default_heston_params() -> HestonParams:
    """The small-vol-of-vol, large-drift-asymmetry stress case."""
    return HestonParams(v0=0.12, theta=0.12, kappa=3.0, sigma=0.04, rho=0.6,
                        r=0.01, q=0.04, spot=100.0, strike=100.0, expiry=1.0)


def default_bs_params() -> BsParams:
    """Small volatility with a large rate: advection-dominated in 1-D."""
    return BsParams(sigma=0.02, r=0.10, q=0.0, spot=100.0, expiry=1.0)


def foulon_spec_x(strike: float, m: int = 100) -> GridSpec:
    """Sinh-stretched x grid on [0, 8K] concentrated at the strike, lam = K/5."""
    return GridSpec(StretchKind.SINH, 0.0, 8.0 * strike, m, center=strike, lam=strike / 5.0)


def foulon_spec_v(n: int = 50, v_max: float = 5.0) -> GridSpec:
    """Sinh-stretched v grid on [0, v_max], concentrated hard at v = 0."""
    return GridSpec(StretchKind.SINH, 0.0, v_max, n, lam=v_max / 500.0)


def bs_uniform_spec(m: int = 100, x_max: float = 150.0) -> GridSpec:
    """Uniform x grid on [0, x_max], the default Black-Scholes grid."""
    return GridSpec(StretchKind.UNIFORM, 0.0, x_max, m)


def bs_uniform_grid(m: int = 100, x_max: float = 150.0) -> Grid1D:
    return make_grid(bs_uniform_spec(m, x_max))


DEFAULT_LADDER = (10, 20, 40, 80, 100, 200, 400, 800, 1600)
DEFAULT_L_REF = 4000


@dataclass
class ConvergenceResult:
    runs: list[RunLog]  # family-major: each family's ladder in turn
    reference_check: float | None


class UnconvergedReferenceError(RuntimeError):
    """The CN reference at l_ref is not within 1e-4 rms of the one at 2 l_ref."""


def run_time_convergence(setup: Setup, families: tuple[SchemeFamily, ...],
                         ladder: tuple[int, ...] = DEFAULT_LADDER,
                         l_ref: int = DEFAULT_L_REF,
                         validate_reference: bool = True) -> ConvergenceResult:
    """Run each family's ladder on a 2-D setup against one CN/Rannacher reference.

    The reference is computed once on the shared operator, whatever the
    number of families.  With validate_reference CN also runs at 2 * l_ref:
    its distance from CN(l_ref) is the self-convergence check, and the ladder
    is scored against the Richardson extrapolation
    (4 CN(2 l_ref) - CN(l_ref)) / 3, which cancels CN's k**2 error term;
    without it, against CN(l_ref).  The CN runs take turns on one
    worker thread while this one runs the ladder (their solves release the
    GIL), so a reference that fails the check raises UnconvergedReferenceError
    after the ladder, and a ladder that raises cancels the reference not yet
    started.  The rms error is taken over the oscillation window at v <= 1.
    """
    op, y0, t = setup.op, setup.y0, setup.params.expiry
    roi = setup.window[:, None] & (op.gv.nodes <= 1.0)[None, :]  # every v node is >= 0
    steps = (l_ref, 2 * l_ref) if validate_reference else (l_ref,)
    with ThreadPoolExecutor(max_workers=1) as pool:
        refs = pool.map(crank_nicolson_run, repeat(op), repeat(y0), repeat(t), steps)
        try:
            scored = [run_and_score(fam, setup, l) for fam in families for l in ladder]
        except BaseException:  # drop the queued reference; exit waits for the running one
            pool.shutdown(cancel_futures=True)
            raise
        ref, ref_check = next(refs), None
        if validate_reference:
            fine = next(refs)
            ref_check = rms_error(ref, fine, roi)
            ref = (4.0 * fine - ref) / 3.0
    if validate_reference and not ref_check < 1e-4:
        raise UnconvergedReferenceError(
            f"reference not self-converged: rms(l={l_ref}, "
            f"l={2 * l_ref}) = {ref_check:.3e}, need < 1e-4")
    for fld, _, log in scored:
        log.rms_error = math.inf if log.exploded else rms_error(fld, ref, roi)
    return ConvergenceResult([log for _, _, log in scored], ref_check)


def run_delta_comparison(setup: Setup, families: tuple[SchemeFamily, ...], l: int):
    """Delta slices nearest v = 0 for each family, the slices `score` reads;
    returns label -> (delta, RunLog)."""
    return {fam.label: run_and_score(fam, setup, l)[1:] for fam in families}


@dataclass
class BsStudyResult:
    runs: list[RunLog]  # TR-BDF2 first, then one per family
    threshold: float
    curves: dict[str, np.ndarray]


def run_bs_study(setup: Setup, families: tuple[SchemeFamily, ...],
                 l: int) -> BsStudyResult:
    """Price the barrier on a 1-D setup with each family plus TR-BDF2.

    The oscillation threshold is three times the worst of two baselines,
    TR-BDF2 and the Gegenbauer scheme, plus a small floor, so "oscillating" is
    judged relative to this scenario's own grid and step count.  The
    baselines are clean only where the spatial operator is: on an unfitted
    operator (the uniform grid with policy none) both carry its oscillation,
    the threshold lands above every family, and no family can be judged
    oscillating by it; compare such a scenario against a fitted one instead.
    """
    t0 = time.perf_counter()
    f_ref = trbdf2_run(setup.op, setup.y0, setup.params.expiry, l)
    log = RunLog(family="trbdf2", eps_or_g=None, l=l, dt=float(setup.params.expiry / l),
                 wall_time=time.perf_counter() - t0)
    score(setup, f_ref, log)
    curves, runs = {"trbdf2": f_ref}, [log]

    for fam in families:
        fld, _, run = run_and_score(fam, setup, l)
        curves[fam.label] = fld
        runs.append(run)

    baselines = [r.osc_metric for r in runs
                 if (r.family == "trbdf2" or r.family.startswith("rkg"))
                 and np.isfinite(r.osc_metric)]
    if not baselines:
        raise RuntimeError("no finite clean baseline to calibrate the threshold")
    return BsStudyResult(runs, clean_threshold(*baselines), curves)
