"""Stabilized explicit Runge-Kutta time integrators.

Implements explicit Euler and three super-time-stepping families built on
orthogonal-polynomial three-term recurrences: Chebyshev (RKC, with damping
shift eps), Legendre (RKL) and Gegenbauer (RKG, ultraspherical index g).  A
family at stage count s has the internal recurrence

    Y_0 = y_n
    Y_1 = Y_0 + mu_tilde_1 dt F(Y_0)
    Y_j = mu_j Y_{j-1} + nu_j Y_{j-2} + (1 - mu_j - nu_j) Y_0
          + mu_tilde_j dt F(Y_{j-1}) + gamma_tilde_j dt F(Y_0)
    y_{n+1} = Y_s

whose stability polynomial is P_s(z) = a_s + b_s Q_s(w0 + w1 z) with Q_s the
family's orthogonal polynomial.  All families here are second order in time
(P(0) = P'(0) = P''(0) = 1) except explicit Euler.  The coefficient tables
follow the standard construction: with Q_s', Q_s'' the derivatives at w0,

    b_j = Q_j''(w0) / Q_j'(w0)^2     (j >= 2; b_0 = b_1 = b_2)
    a_j = 1 - b_j Q_j(w0)
    w1  = Q_s'(w0) / Q_s''(w0)

and the stage weights are ratios of consecutive b_j against the recurrence
multipliers.  Stage counts are selected automatically from a spectral-radius
bound so that dt times the bound fits inside the damped stability interval.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .operators import StencilOperator, apply as apply_operator, matvec

__all__ = [
    "FamilyKind",
    "FREE_PARAMETER",
    "SchemeFamily",
    "StageCoefficients",
    "RunLog",
    "ExplosionError",
    "InfeasibleStepError",
    "explicit_euler",
    "rkc",
    "rkl",
    "rkg",
    "make_coefficients",
    "select_stage_count",
    "plan_run",
    "super_step",
    "run_integrator",
]

SAFETY = 0.95
EXTENT_TOL = 1e-12


class ExplosionError(RuntimeError):
    """A stage produced non-finite values."""

    def __init__(self, stage: int):
        self.stage = stage
        super().__init__(f"non-finite values at stage {stage}")


class InfeasibleStepError(RuntimeError):
    """The requested step cannot be stabilized by the chosen family."""


class FamilyKind(Enum):
    EULER = "euler"
    RKC = "rkc"
    RKL = "rkl"
    RKG = "rkg"


# The one free parameter of each family that has one: the SchemeFamily field
# a config may set, and the one its label and run record show.
FREE_PARAMETER = {FamilyKind.RKC: "eps", FamilyKind.RKG: "g"}


@dataclass(frozen=True)
class SchemeFamily:
    """An integrator family together with its free parameter.

    eps is the Chebyshev damping shift and g the Gegenbauer index;
    FREE_PARAMETER names the one each family uses.  Both are stored regardless
    of kind so instances hash and compare cleanly as cache keys.
    """

    kind: FamilyKind
    eps: float = 0.0
    g: float = 2.0

    def __post_init__(self):
        if self.eps < 0.0:
            raise ValueError(f"need eps >= 0, got {self.eps!r}")
        if not self.g > 0.0:
            raise ValueError(f"need g > 0, got {self.g!r}")

    @property
    def free(self) -> dict[str, float]:
        """{name: value} of the family's free parameter; empty if it has none."""
        key = FREE_PARAMETER.get(self.kind)
        return {} if key is None else {key: getattr(self, key)}

    @property
    def label(self) -> str:
        return self.kind.value + "".join(f"({k}={v:g})" for k, v in self.free.items())

    @property
    def eps_or_g(self) -> float | None:
        return next(iter(self.free.values()), None)


def explicit_euler() -> SchemeFamily:
    return SchemeFamily(FamilyKind.EULER)


def rkc(eps: float = 0.0) -> SchemeFamily:
    return SchemeFamily(FamilyKind.RKC, eps=float(eps))


def rkl() -> SchemeFamily:
    return SchemeFamily(FamilyKind.RKL)


def rkg(g: float = 2.0) -> SchemeFamily:
    return SchemeFamily(FamilyKind.RKG, g=float(g))


@dataclass
class StageCoefficients:
    """Stage weights of one (family, s) pair; arrays are indexed by stage."""

    family: SchemeFamily
    s: int
    w0: float
    w1: float
    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    mu_tilde: np.ndarray
    gamma_tilde: np.ndarray


def _recurrence_multipliers(family: SchemeFamily, s: int):
    """A_j, B_j (j = 0..s) of Q_j(x) = A_j x Q_{j-1}(x) + B_j Q_{j-2}(x), and w0.

    Explicit Euler is the one-stage Chebyshev member (Q_1(x) = x) and Legendre
    is the Gegenbauer index g = 1/2.  A_0, B_0 and B_1 are unused.
    """
    if family.kind in (FamilyKind.EULER, FamilyKind.RKC):
        return ([1.0, 1.0] + [2.0] * (s - 1), [0.0, 0.0] + [-1.0] * (s - 1),
                1.0 + family.eps / s**2)
    g = 0.5 if family.kind is FamilyKind.RKL else family.g
    js = range(2, s + 1)
    return ([2.0 * g] * 2 + [2.0 * (j - 1.0 + g) / j for j in js],
            [0.0, 0.0] + [-(j - 2.0 + 2.0 * g) / j for j in js], 1.0)


def make_coefficients(family: SchemeFamily, s: int) -> StageCoefficients:
    """Stage weights for the family at stage count s.

    Explicit Euler admits only s = 1; the stabilized families need s >= 2.
    """
    if family.kind is FamilyKind.EULER:
        if s != 1:
            raise ValueError(f"explicit Euler has exactly one stage, got s={s}")
        return StageCoefficients(family, 1, 1.0, 1.0, a=np.zeros(2), b=np.ones(2), mu=np.zeros(2),
                                 nu=np.zeros(2), mu_tilde=np.array([0.0, 1.0]),
                                 gamma_tilde=np.zeros(2))
    if s < 2:
        raise ValueError(f"stabilized families need s >= 2, got s={s}")
    A, B, w0 = _recurrence_multipliers(family, s)
    # Q_j(w0) and its first two derivatives, by differentiating the recurrence.
    T = [1.0, A[1] * w0] + [0.0] * (s - 1)
    U = [0.0, A[1]] + [0.0] * (s - 1)
    V = [0.0] * (s + 1)
    for j in range(2, s + 1):
        T[j] = A[j] * w0 * T[j - 1] + B[j] * T[j - 2]
        U[j] = A[j] * (T[j - 1] + w0 * U[j - 1]) + B[j] * U[j - 2]
        V[j] = A[j] * (2.0 * U[j - 1] + w0 * V[j - 1]) + B[j] * V[j - 2]
    w1 = U[s] / V[s]
    T, U, V, A, B = map(np.array, (T, U, V, A, B))
    b = np.zeros(s + 1)
    b[2:] = V[2:] / U[2:] ** 2
    b[0] = b[1] = b[2]
    a = 1.0 - b * T
    mu, nu, mt, gt = (np.zeros(s + 1) for _ in range(4))
    mt[1] = b[1] * U[1] * w1
    mu[2:] = A[2:] * w0 * b[2:] / b[1:-1]
    nu[2:] = B[2:] * b[2:] / b[:-2]
    mt[2:] = A[2:] * w1 * b[2:] / b[1:-1]
    gt[2:] = -a[1:-1] * mt[2:]
    return StageCoefficients(family, s, w0, w1, a, b, mu, nu, mt, gt)


def _poly_eval(coeffs: StageCoefficients, z):
    """Run the stage recurrence on y' = (z/dt) y with dt = 1 and y0 = 1.

    z may be real or complex; the result has z's kind in double precision.
    """
    z = np.asarray(z, dtype=np.result_type(z, np.float64))
    y0 = np.ones_like(z)
    f0 = z
    y1 = y0 + coeffs.mu_tilde[1] * f0
    if coeffs.s == 1:
        return y1
    ym2, ym1 = y0, y1
    mu, nu = coeffs.mu, coeffs.nu
    mt, gt = coeffs.mu_tilde, coeffs.gamma_tilde
    # Outside the stability window the recurrence overflows by design; the
    # resulting inf/nan reads as "unstable", so the intermediate warnings
    # carry no information.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(2, coeffs.s + 1):
            y = (mu[j] * ym1 + nu[j] * ym2 + (1.0 - mu[j] - nu[j]) * y0
                 + mt[j] * z * ym1 + gt[j] * f0)
            ym2, ym1 = ym1, y
    return ym1


def _q(A: list, B: list, w: float) -> float:
    """Q_s(w), s = len(A) - 1, by the plain-float three-term recurrence."""
    qm2, qm1 = 1.0, A[1] * w
    for a_j, b_j in zip(A[2:], B[2:]):
        qm2, qm1 = qm1, a_j * w * qm1 + b_j * qm2
    return qm1


@lru_cache(maxsize=None)
def _certified(family: SchemeFamily, s: int) -> tuple[StageCoefficients, float]:
    """The table of (family, s) and its stability extent, the largest beta with
    |P_s(-x)| <= 1 + 1e-12 on [0, beta]; InfeasibleStepError if not certified."""
    # a table too large for doubles overflows on the way; the check below
    # reports it, so the intermediate warnings carry no information
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = make_coefficients(family, s)
    A, B, w0 = _recurrence_multipliers(family, s)
    a, b, w1 = float(coeffs.a[s]), float(coeffs.b[s]), coeffs.w1
    # an overflowed table, or b_s below the normal range, is not the polynomial
    table = (w1, coeffs.a, coeffs.b, coeffs.mu, coeffs.nu, coeffs.mu_tilde, coeffs.gamma_tilde)
    if not (all(np.isfinite(t).all() for t in table) and abs(b) >= np.finfo(float).tiny):
        raise InfeasibleStepError(f"{family.label} s={s}: the coefficient table is "
                                  "not finite or b_s is not a normal float")
    top = 1.0 + EXTENT_TOL
    # |Q_s| <= Q_s(w0) on [-w0, w0]: |T_s| <= 1 and, for g > 0, |C_s^g| <=
    # C_s^g(1) on [-1, 1], and past 1 every zero lies behind.  P_s is affine in
    # Q_s, so this bounds |P_s(-x)| on the stretch 0 <= x <= 2 w0/w1.
    if not abs(a) + abs(b) * abs(_q(A, B, w0)) <= top:
        raise InfeasibleStepError(f"{family.label} s={s}: cannot certify |P_s| <= 1 "
                                  "on [0, 2 w0/w1]")

    def inside(x):  # an overflowed (non-finite) value counts as outside
        return abs(a + b * _q(A, B, w0 - w1 * x)) <= top

    # Past w = -w0 P_s is monotone and crosses the band once: bracket by
    # doubling steps, then bisect.
    lo = 2.0 * w0 / w1
    step = 1e-9 * max(lo, 1.0)
    while inside(lo + step):
        lo += step
        step *= 2.0
    hi = lo + step
    while hi - lo > 1e-9 * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return coeffs, lo


def _closed_extent(family: SchemeFamily, s: float) -> float:
    """2 w0/w1 = 2 w0 Q_s''(w0)/Q_s'(w0) in closed form, for real s.

    This is the extent for even s; odd s crosses a little further out.
    Chebyshev differentiates T_s(cosh t) = cosh(s t); Gegenbauer uses
    d/dx C_n^g = 2g C_{n-1}^{g+1} at w0 = 1.
    """
    if family.kind is FamilyKind.RKC:
        th = math.acosh(1.0 + family.eps / s**2)
        if th == 0.0:
            return 2.0 * (s * s - 1.0) / 3.0
        w0, sh = math.cosh(th), math.sinh(th)
        return 2.0 * w0 * (s / math.tanh(s * th) * sh - w0) / sh**2
    g = 0.5 if family.kind is FamilyKind.RKL else family.g
    return 2.0 * (s - 1.0) * (s + 2.0 * g + 1.0) / (2.0 * g + 3.0)


def _smallest_covering(s: int, covers) -> int:
    """Smallest s >= 2 with covers(s), walking from s; covers is monotone."""
    while not covers(s):
        s += 1
    while s > 2 and covers(s - 1):
        s -= 1
    return s


def select_stage_count(family: SchemeFamily, dt: float, rho: float) -> int:
    """Smallest s whose damped stability interval covers dt * rho.

    Uses the safety factor 0.95, i.e. requires 0.95 * extent(s) >= dt * rho.
    The closed-form extent gives the starting s without building a table;
    certified extents at s and s - 1 then settle minimality.
    Explicit Euler has no stage count to raise, so an uncoverable step raises
    InfeasibleStepError instead of being run unstably.
    """
    if not dt > 0.0:
        raise ValueError(f"need dt > 0, got {dt!r}")
    if not np.isfinite(rho) or rho < 0.0:
        raise ValueError(f"need finite rho >= 0, got {rho!r}")
    need = dt * rho
    if family.kind is FamilyKind.EULER:
        if need > SAFETY * 2.0:
            factor = int(np.ceil(need / (SAFETY * 2.0)))
            raise InfeasibleStepError(
                f"explicit Euler needs dt*rho <= {SAFETY * 2.0}, got {need:.6g};"
                f" use at least {factor}x more steps or a stabilized family")
        return 1
    # every family's extent grows like s^2; scale the undamped Chebyshev root
    s0 = max(2.0, math.sqrt(1.5 * need / SAFETY))
    guess = s0 * math.sqrt(need / (SAFETY * _closed_extent(family, s0)))
    if not guess <= 10**6:
        raise InfeasibleStepError(
            f"stage count out of range: {family.label} needs more than 10**6 stages "
            f"to cover dt*rho = {need:.6g}")
    s = _smallest_covering(max(2, math.ceil(guess)),
                           lambda k: SAFETY * _closed_extent(family, k) >= need)
    return _smallest_covering(s, lambda k: SAFETY * _certified(family, k)[1] >= need)


@lru_cache(maxsize=None)
def plan_run(family: SchemeFamily, dt: float, rho: float):
    """(s, coeffs, extent, t_select) of a run at step dt against the bound rho, the
    one place a stage count is chosen.  t_select times only select_stage_count, so
    a cached plan keeps its cold time; a refusal raises and is not cached."""
    t0 = time.perf_counter()
    s = select_stage_count(family, dt, rho)
    t_select = time.perf_counter() - t0
    coeffs, extent = _certified(family, s)
    return s, coeffs, extent, t_select


def _stages(coeffs: StageCoefficients, op: StencilOperator, state: np.ndarray,
            dt: float, check_each: bool) -> np.ndarray:
    """Y_s of the stage recurrence from Y_0 = state with F = M, in preallocated buffers.

    Stage j >= 2 is one gemv w_j B over the rows Y_{j-1}, Y_{j-2}, Y_0,
    F(Y_{j-1}), F(Y_0) of a (5, n) buffer B, with w_j = (mu, nu, 1 - mu - nu,
    dt mt, dt gt).  Two such buffers take turns: stage j writes Y_j into row 0
    of the other one and copies Y_{j-1} into its row 1.  BLAS sums in its own
    order, so Y_s agrees with the written-order formula to s^2 eps |y|, not
    bitwise; it does not depend on check_each.  With check_each, raises
    ExplosionError at the first stage value that is not finite.  The buffers
    are checked once per step: F(Y_0) goes through apply_operator, and every
    later F is the unchecked kernel matvec, looked up as a module global at
    every stage.  Y_s is returned as a copy that owns its memory.
    """
    mu, nu = coeffs.mu[2:], coeffs.nu[2:]
    W = np.column_stack((mu, nu, 1.0 - mu - nu, dt * coeffs.mu_tilde[2:],
                         dt * coeffs.gamma_tilde[2:]))
    bufs = np.empty((2, 5, op.size))
    bufs[:, 2] = np.reshape(state, -1)
    first = bufs[0]
    first[1] = first[2]
    apply_operator(op, first[2].reshape(op.shape), first[4].reshape(op.shape))
    bufs[1, 4] = first[4]
    np.add(first[2], np.multiply(first[4], coeffs.mu_tilde[1] * dt, first[3]), first[0])
    if check_each and not np.isfinite(first[0]).all():
        raise ExplosionError(stage=1)
    # each buffer with views of its rows 0, 1 and 3: a stage indexes no array
    mat, (cur, nxt) = op.matrix, [(b, b[0], b[1], b[3]) for b in bufs]
    for j, w in enumerate(W, 2):
        B, y, _, f = cur
        matvec(mat, y, f)
        np.dot(w, B, out=nxt[1])
        if check_each and not np.isfinite(nxt[1]).all():
            raise ExplosionError(stage=j)
        nxt[2][...] = y
        cur, nxt = nxt, cur
    return cur[1].reshape(op.shape).copy()


def super_step(coeffs: StageCoefficients, op: StencilOperator, state: np.ndarray,
               dt: float) -> np.ndarray:
    """One macro-step of size dt of the stage recurrence; returns Y_s.

    Raises ExplosionError carrying the index of the first stage whose value
    is not finite.  Non-finite values are absorbing under the recurrence
    (mu_j != 0 carries them forward and M spreads them), so one check of Y_s
    detects an explosion; only then is the step re-run with a check per stage.
    """
    if np.shape(state) != op.shape:  # the stage buffers would broadcast it
        raise ValueError(f"field shape {np.shape(state)} does not match operator {op.shape}")
    # The isfinite checks are the explosion detector; once a stage diverges
    # the overflow warnings on the way to inf carry no information.
    with np.errstate(over="ignore", invalid="ignore"):
        y = _stages(coeffs, op, state, dt, check_each=False)
        if not np.isfinite(y).all():
            y = _stages(coeffs, op, state, dt, check_each=True)
    return y


@dataclass
class RunLog:
    """The record of one run: its cost, outcome and, once scored, its score.

    run_integrator fills the cost fields; the three score fields stay nan
    until the run is scored (see experiments.score).
    """

    family: str
    eps_or_g: float | None
    l: int
    s_per_step: list[int] = field(default_factory=list)
    wall_time: float = 0.0
    exploded: bool = False
    explosion_step: int | None = None
    explosion_stage: int | None = None
    rho: float = 0.0
    need: float = 0.0  # dt * rho
    margin: float = math.inf  # 0.95 * extent(s) / need
    t_select: float = 0.0  # the cold selection time of the run's plan
    dt: float = 0.0
    stage_evals: int = 0  # stages run, the sum of s_per_step
    rms_error: float = math.nan
    osc_metric: float = math.nan
    price_at_spot: float = math.nan


def run_integrator(family: SchemeFamily, op: StencilOperator, initial: np.ndarray,
                   expiry: float, l: int, rho: float | None = None):
    """Integrate df/dt = M f over [0, expiry] in l macro-steps.

    Returns (field, RunLog).  On explosion the last finite field is returned
    and the log carries the step index; the caller decides how to report it.
    The spectral-radius bound defaults to the Gershgorin estimate of op; s and
    t_select, the plan's cold selection time, come from plan_run.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if not expiry > 0.0:
        raise ValueError(f"need expiry > 0, got {expiry!r}")
    if rho is None:
        from .spectra import gershgorin_radius

        rho = gershgorin_radius(op)
    dt = expiry / l
    s, coeffs, extent, t_select = plan_run(family, dt, rho)
    log = RunLog(family=family.label, eps_or_g=family.eps_or_g, l=l,
                 rho=float(rho), need=float(dt * rho), t_select=t_select, dt=float(dt))
    if log.need > 0.0:
        log.margin = SAFETY * extent / log.need
    y = np.array(initial, dtype=float, copy=True)
    t0 = time.perf_counter()
    for step in range(l):
        log.s_per_step.append(s)
        try:
            y = super_step(coeffs, op, y, dt)
        except ExplosionError as exc:
            log.exploded, log.explosion_step, log.explosion_stage = True, step, exc.stage
            break
    log.wall_time = time.perf_counter() - t0
    log.stage_evals = sum(log.s_per_step)
    return y, log
