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

import time
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .operators import StencilOperator, apply as apply_operator

__all__ = [
    "FamilyKind",
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
    "stability_poly_eval",
    "stability_extent",
    "select_stage_count",
    "super_step",
    "run_integrator",
]

SAFETY = 0.95
SCAN_TOL = 1e-12


class ExplosionError(RuntimeError):
    """A stage produced non-finite values."""

    def __init__(self, stage: int, step: int | None = None):
        self.stage = stage
        self.step = step
        where = f"stage {stage}" if step is None else f"step {step}, stage {stage}"
        super().__init__(f"non-finite values at {where}")


class InfeasibleStepError(RuntimeError):
    """The requested step cannot be stabilized by the chosen family."""


class FamilyKind(Enum):
    EULER = "euler"
    RKC = "rkc"
    RKL = "rkl"
    RKG = "rkg"


@dataclass(frozen=True)
class SchemeFamily:
    """An integrator family together with its free parameter.

    eps is the Chebyshev damping shift (RKC only); g is the Gegenbauer index
    (RKG only).  Both are stored regardless of kind so instances hash and
    compare cleanly as cache keys.
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
    def label(self) -> str:
        if self.kind is FamilyKind.RKC:
            return f"rkc(eps={self.eps:g})"
        if self.kind is FamilyKind.RKG:
            return f"rkg(g={self.g:g})"
        return self.kind.value

    @property
    def eps_or_g(self) -> float | None:
        if self.kind is FamilyKind.RKC:
            return self.eps
        if self.kind is FamilyKind.RKG:
            return self.g
        return None


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
    """A_j, B_j of Q_j(x) = A_j x Q_{j-1}(x) + B_j Q_{j-2}(x), and w0."""
    kind = family.kind
    if kind is FamilyKind.RKC:
        def A(j):
            return 2.0 if j >= 2 else 1.0

        def B(j):
            return -1.0

        w0 = 1.0 + family.eps / s**2
    elif kind is FamilyKind.RKL:
        def A(j):
            return (2.0 * j - 1.0) / j if j >= 2 else 1.0

        def B(j):
            return -(j - 1.0) / j

        w0 = 1.0
    elif kind is FamilyKind.RKG:
        g = family.g

        def A(j):
            return 2.0 * (j - 1.0 + g) / j if j >= 2 else 2.0 * g

        def B(j):
            return -(j - 2.0 + 2.0 * g) / j

        w0 = 1.0
    else:
        raise ValueError(f"no recurrence for {kind!r}")
    return A, B, w0


def make_coefficients(family: SchemeFamily, s: int) -> StageCoefficients:
    """Stage weights for the family at stage count s.

    Explicit Euler admits only s = 1; the stabilized families need s >= 2.
    """
    if family.kind is FamilyKind.EULER:
        if s != 1:
            raise ValueError(f"explicit Euler has exactly one stage, got s={s}")
        one = np.array([0.0, 1.0])
        zero = np.zeros(2)
        return StageCoefficients(family, 1, 1.0, 1.0, a=np.zeros(2), b=np.ones(2),
                                 mu=zero, nu=zero.copy(), mu_tilde=one,
                                 gamma_tilde=zero.copy())
    if s < 2:
        raise ValueError(f"stabilized families need s >= 2, got s={s}")
    A, B, w0 = _recurrence_multipliers(family, s)
    # Q_j(w0) and its first two derivatives, by differentiating the recurrence.
    T = np.zeros(s + 1)
    U = np.zeros(s + 1)
    V = np.zeros(s + 1)
    T[0] = 1.0
    T[1] = A(1) * w0
    U[1] = A(1)
    for j in range(2, s + 1):
        T[j] = A(j) * w0 * T[j - 1] + B(j) * T[j - 2]
        U[j] = A(j) * (T[j - 1] + w0 * U[j - 1]) + B(j) * U[j - 2]
        V[j] = A(j) * (2.0 * U[j - 1] + w0 * V[j - 1]) + B(j) * V[j - 2]
    b = np.zeros(s + 1)
    b[2:] = V[2:] / U[2:] ** 2
    b[0] = b[1] = b[2]
    a = 1.0 - b * T
    w1 = U[s] / V[s]
    mu = np.zeros(s + 1)
    nu = np.zeros(s + 1)
    mt = np.zeros(s + 1)
    gt = np.zeros(s + 1)
    mt[1] = b[1] * U[1] * w1
    for j in range(2, s + 1):
        mu[j] = A(j) * w0 * b[j] / b[j - 1]
        nu[j] = B(j) * b[j] / b[j - 2]
        mt[j] = A(j) * w1 * b[j] / b[j - 1]
        gt[j] = -a[j - 1] * mt[j]
    return StageCoefficients(family, s, w0, w1, a, b, mu, nu, mt, gt)


def _poly_eval(coeffs: StageCoefficients, z):
    """Run the stage recurrence on y' = (z/dt) y with dt = 1 and y0 = 1."""
    z = np.asarray(z, dtype=float)
    y0 = np.ones_like(z)
    f0 = z
    y1 = y0 + coeffs.mu_tilde[1] * f0
    if coeffs.s == 1:
        return y1
    ym2, ym1 = y0, y1
    mu, nu = coeffs.mu, coeffs.nu
    mt, gt = coeffs.mu_tilde, coeffs.gamma_tilde
    # Outside the stability window the recurrence overflows by design; the
    # resulting inf/nan is read as "unstable" by the extent scan, so the
    # intermediate warnings carry no information.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(2, coeffs.s + 1):
            y = (mu[j] * ym1 + nu[j] * ym2 + (1.0 - mu[j] - nu[j]) * y0
                 + mt[j] * z * ym1 + gt[j] * f0)
            ym2, ym1 = ym1, y
    return ym1


def stability_poly_eval(coeffs: StageCoefficients, z: float) -> float:
    """P_s(z), the amplification factor of one unit step on y' = z y."""
    return float(_poly_eval(coeffs, float(z)))


_EXTENT_CACHE: dict[tuple[SchemeFamily, int], float] = {}


def _analytic_extent(family: SchemeFamily, s: int) -> float:
    """(1 + w0)/w1: the undamped-boundary estimate of the stability interval.

    Exact for the even-s Chebyshev/Legendre cases; the scan in
    stability_extent refines it where touch points or odd-s end behavior move
    the true boundary.
    """
    if family.kind is FamilyKind.EULER:
        return 2.0
    coeffs = make_coefficients(family, s)
    return (1.0 + coeffs.w0) / coeffs.w1


def stability_extent(coeffs: StageCoefficients) -> float:
    """Largest beta with |P_s(-x)| <= 1 + 1e-12 on all of [0, beta].

    Found by scanning at resolution guess/1e4 and bisecting the first
    violation to 1e-9 relative.  Results are cached per (family, s).
    """
    key = (coeffs.family, coeffs.s)
    hit = _EXTENT_CACHE.get(key)
    if hit is not None:
        return hit
    guess = 1.05 * (1.0 + coeffs.w0) / coeffs.w1
    step = guess / 1e4
    lo = 0.0
    hi = lo_good = None
    while hi is None:
        xs = np.arange(lo + step, lo + guess + step, step)
        bad = np.nonzero(np.abs(_poly_eval(coeffs, -xs)) > 1.0 + SCAN_TOL)[0]
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
        if abs(stability_poly_eval(coeffs, -mid)) > 1.0 + SCAN_TOL:
            hi = mid
        else:
            lo_good = mid
    _EXTENT_CACHE[key] = lo_good
    return lo_good


def _scanned_extent(family: SchemeFamily, s: int) -> float:
    return stability_extent(make_coefficients(family, s))


def select_stage_count(family: SchemeFamily, dt: float, rho: float) -> int:
    """Smallest s whose damped stability interval covers dt * rho.

    Uses the safety factor 0.95, i.e. requires 0.95 * extent(s) >= dt * rho.
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
    if need <= SAFETY * _scanned_extent(family, 2):
        return 2
    # bracket with the cheap analytic extent, then settle minimality with the
    # scanned one
    s = 2
    while SAFETY * _analytic_extent(family, s) < need:
        s *= 2
        if s > 10**6:
            raise RuntimeError("stage count out of range")
    lo, hi = s // 2, s
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if SAFETY * _analytic_extent(family, mid) < need:
            lo = mid
        else:
            hi = mid
    s = max(hi, 2)
    while SAFETY * _scanned_extent(family, s) < need:
        s += 1
    while s > 2 and SAFETY * _scanned_extent(family, s - 1) >= need:
        s -= 1
    return s


def _as_linear_map(op):
    if isinstance(op, StencilOperator):
        return lambda y: apply_operator(op, y)
    if callable(op):
        return op
    raise TypeError(f"expected StencilOperator or callable, got {type(op)!r}")


def super_step(coeffs: StageCoefficients, op, state: np.ndarray,
               dt: float) -> np.ndarray:
    """One macro-step of size dt of the stage recurrence; returns Y_s.

    Raises ExplosionError carrying the stage index as soon as any stage value
    turns non-finite.
    """
    F = _as_linear_map(op)
    y0 = np.asarray(state, dtype=float)
    # The isfinite checks below are the explosion detector; once a stage
    # diverges the overflow warnings on the way to inf carry no information.
    with np.errstate(over="ignore", invalid="ignore"):
        f0 = F(y0)
        y1 = y0 + coeffs.mu_tilde[1] * dt * f0
        if not np.isfinite(y1).all():
            raise ExplosionError(stage=1)
        if coeffs.s == 1:
            return y1
        mu, nu = coeffs.mu, coeffs.nu
        mt, gt = coeffs.mu_tilde, coeffs.gamma_tilde
        ym2, ym1 = y0, y1
        for j in range(2, coeffs.s + 1):
            fy = F(ym1)
            y = (mu[j] * ym1 + nu[j] * ym2 + (1.0 - mu[j] - nu[j]) * y0
                 + dt * (mt[j] * fy + gt[j] * f0))
            if not np.isfinite(y).all():
                raise ExplosionError(stage=j)
            ym2, ym1 = ym1, y
    return ym1


@dataclass
class RunLog:
    """Execution record of one run_integrator call."""

    family: str
    eps_or_g: float | None
    l: int
    s_per_step: list[int] = field(default_factory=list)
    wall_time: float = 0.0
    exploded: bool = False
    explosion_step: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def run_integrator(family: SchemeFamily, op, initial: np.ndarray, expiry: float,
                   l: int, rho: float | None = None):
    """Integrate df/dt = M f over [0, expiry] in l macro-steps.

    Returns (field, RunLog).  On explosion the last finite field is returned
    and the log carries the step index; the caller decides how to report it.
    The spectral-radius bound defaults to the Gershgorin estimate of op.
    """
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if not expiry > 0.0:
        raise ValueError(f"need expiry > 0, got {expiry!r}")
    if rho is None:
        if not isinstance(op, StencilOperator):
            raise ValueError("need rho for a bare callable")
        from .spectra import gershgorin_radius

        rho = gershgorin_radius(op)
    dt = expiry / l
    s = select_stage_count(family, dt, rho)
    coeffs = make_coefficients(family, s)
    log = RunLog(family=family.label, eps_or_g=family.eps_or_g, l=l)
    y = np.array(initial, dtype=float, copy=True)
    t0 = time.perf_counter()
    for step in range(l):
        log.s_per_step.append(s)
        try:
            y = super_step(coeffs, op, y, dt)
        except ExplosionError as exc:
            log.exploded = True
            log.explosion_step = step
            exc.step = step
            break
    log.wall_time = time.perf_counter() - t0
    return y, log
