"""Spatial discretization of the pricing operators.

Builds the semi-discrete system  df/dt = M f  for the stochastic-volatility
model

    df/dt = (v x^2/2) f_xx + rho sigma x v f_xv + (sigma^2 v/2) f_vv
            + (r - q) x f_x + kappa (theta - v) f_v - r f

and for its one-dimensional constant-volatility counterpart, on tensor-product
grids that may be non-uniform.  Interior nodes use central differences; where
a direction is convection dominated the treatment is controlled by an
UpwindPolicy (exponential fitting of the diffusion coefficient, or first-order
one-sided advection).  Edge rows use one-sided closures: pure advection plus
discounting at the x edges (value linear in x), one-sided v-advection at the
v edges.

Coefficients do not include the time step; the integrators multiply by dt
themselves.  Assembly computes the nine-point coefficients a, b, c, d, e,
cross on the lattice,

    (M f)_{ij} = a_{ij} f_{i-1,j} + b_{ij} f_{ij} + c_{ij} f_{i+1,j}
               + d_{ij} f_{i,j-1} + e_{ij} f_{i,j+1}
               + cross_{ij} (f_{i+1,j+1} - f_{i+1,j-1} - f_{i-1,j+1} + f_{i-1,j-1})

(the 1-D stencil has a, b, c only), and `_lattice_matrix` maps them to M,
the one place that places a coefficient at its lattice neighbor; an
out-of-lattice neighbor's coefficient vanishes by construction.  The operator
keeps only its grids and M, in diagonal (DIA) form: nine diagonals (three in
1-D) with ascending offsets.  `matvec` is the one DIA kernel: `apply` checks
its arguments and runs it, and the stage loop, which checks its buffers once
per step, calls it at every later stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse
from scipy.sparse._sparsetools import dia_matvec

from .grids import Grid1D

__all__ = [
    "HestonParams",
    "BsParams",
    "UpwindPolicy",
    "StencilOperator",
    "peclet",
    "assemble_heston",
    "assemble_bs",
    "apply",
    "matvec",
    "to_sparse",
]


def _check_signs(params, positive=(), nonnegative=()):
    """Raise a ValueError that names the first field out of its bound and its value."""
    for name in (*positive, *nonnegative):
        val, strict = getattr(params, name), name in positive
        if not (val > 0.0 if strict else val >= 0.0):
            raise ValueError(f"need {name} {'>' if strict else '>='} 0, got {val!r}")


@dataclass(frozen=True)
class HestonParams:
    """Model parameters of the stochastic-volatility dynamics."""

    v0: float
    theta: float
    kappa: float
    sigma: float
    rho: float
    r: float
    q: float
    spot: float
    strike: float
    expiry: float

    def __post_init__(self):
        _check_signs(self, positive=("kappa",), nonnegative=("sigma",))
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"need rho in [-1, 1], got {self.rho!r}")
        _check_signs(self, positive=("spot", "strike", "expiry"),
                     nonnegative=("v0", "theta"))

    @property
    def mu(self) -> float:
        """Drift coefficient r - q of the spot advection."""
        return self.r - self.q


@dataclass(frozen=True)
class BsParams:
    """Constant-volatility model parameters."""

    sigma: float
    r: float
    q: float
    spot: float
    expiry: float

    def __post_init__(self):
        _check_signs(self, positive=("sigma", "spot", "expiry"))

    @property
    def mu(self) -> float:
        return self.r - self.q


class UpwindPolicy(Enum):
    """Treatment of convection-dominated nodes.

    NONE            central differences everywhere.
    PARTIAL_FITTING exponential fitting per dimension wherever |P| >= 2.
    FOULON_REGION   exponential fitting restricted to the v rows with
                    v = v_min or v > 1 (the region upwinded in the ADI
                    literature); elsewhere central.
    OSULLIVAN       first-order one-sided advection per dimension wherever
                    |P| >= 2; diffusion stays central and unfitted.
    """

    NONE = "none"
    PARTIAL_FITTING = "partial-fitting"
    FOULON_REGION = "foulon-region-fitting"
    OSULLIVAN = "osullivan-one-sided"


PECLET_THRESHOLD = 2.0


@dataclass
class StencilOperator:
    """The discrete operator M on the (m+1) or (m+1) x (n+1) lattice of its grids.

    matrix is M over the lattice flattened in row-major order (v index
    fastest), stored as a DIA matrix with strictly increasing offsets; any
    other sparse or dense matrix given is converted.
    """

    matrix: scipy.sparse.dia_matrix
    gx: Grid1D
    gv: Grid1D | None

    def __post_init__(self):
        self.matrix = scipy.sparse.dia_matrix(self.matrix)
        if not np.all(np.diff(self.matrix.offsets) > 0):  # apply's row order
            raise ValueError(f"offsets {self.matrix.offsets} must be strictly increasing")
        # plain attributes, not properties: apply reads them on every call
        mm = self.gx.m + 1
        self.shape = (mm,) if self.gv is None else (mm, self.gv.m + 1)
        self.size = math.prod(self.shape)
        if self.matrix.shape != (self.size, self.size):
            raise ValueError(f"matrix shape {self.matrix.shape} does not match "
                             f"the {self.size} lattice nodes")


def _backward_spacings(g: Grid1D) -> np.ndarray:
    """spacings with the first one repeated, one per node."""
    h = np.empty_like(g.nodes)
    h[1:] = g.spacings
    h[0] = h[1]
    return h


def peclet(params, gx: Grid1D, gv: Grid1D | None = None):
    """Per-node cell Peclet numbers evaluated with fitting factor 1.

    Returns (P_x, P_v); P_v is an empty array for the 1-D model.  Backward
    spacings are used (the spacing at index 0 is reused for the first node,
    whose row has no second-derivative term anyway).  Nodes where the
    diffusion coefficient vanishes report an infinite Peclet number; the
    assembly policies handle those through the limiting form of the fitted
    diffusion, and edge rows use one-sided closures regardless.
    """
    x, hx = gx.nodes, _backward_spacings(gx)
    if gv is None:
        var, pv = params.sigma**2, np.empty(0)
    else:
        var, x, hx = gv.nodes[None, :], x[:, None], hx[:, None]
    num_x, den_x = 2.0 * hx * params.mu, var * x
    with np.errstate(divide="ignore", invalid="ignore"):
        px = np.where(den_x != 0.0, num_x / den_x, np.inf * np.sign(num_x))
        if gv is not None:
            v = gv.nodes
            num_v = 2.0 * _backward_spacings(gv) * (params.kappa * (params.theta - v))
            den_v = params.sigma**2 * v
            pv = np.where(den_v != 0.0, num_v / den_v, np.inf * np.sign(num_v))
    return px, pv


def _fitted_diffusion(diff, adv, h_lo, h_hi):
    """beta * diff evaluated through the overflow-safe form s/tanh(s/D).

    beta(P) = (P/2)/tanh(P/2) is the exponential fitting factor: even in P,
    1 at P = 0, and ~|P|/2 once advection dominates.  s is spacing * advection
    with the full cell width h_lo + h_hi as the spacing, so beta is taken at
    P = 2 * (h_lo + h_hi) * A / D.  The cell width (the same width that
    appears in the stencil denominators) is the one spacing choice that keeps
    BOTH off-diagonal coefficients strictly positive in the
    advection-dominated limit on a stretched mesh: the anti-upwind coefficient
    tends to A/(h_lo + h_hi) instead of turning negative (single-sided
    spacing, oscillatory spurious eigenvalues) or collapsing to zero
    (upwind-side spacing, a one-way cascade whose Jordan structure is
    hypersensitive to the mixed-derivative coupling).  Where D == 0 the value
    reduces to the advective limit |A| * (h_lo + h_hi).
    """
    diff, adv, h_lo, h_hi = np.broadcast_arrays(
        np.asarray(diff, dtype=float), np.asarray(adv, dtype=float), h_lo, h_hi
    )
    s = (h_lo + h_hi) * adv
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        arg = np.where(diff != 0.0, s / diff, np.inf * np.sign(s))
        out = s / np.tanh(arg)
    return np.where(s == 0.0, diff, out)


def _policy_masks(policy: UpwindPolicy, px, pv, v):
    big_x = np.abs(px) >= PECLET_THRESHOLD
    big_v = np.abs(pv) >= PECLET_THRESHOLD if pv.size else np.zeros(0, dtype=bool)
    if policy is UpwindPolicy.NONE:
        return np.zeros_like(big_x), np.zeros_like(big_v)
    if policy in (UpwindPolicy.PARTIAL_FITTING, UpwindPolicy.OSULLIVAN):
        return big_x, big_v
    if policy is UpwindPolicy.FOULON_REGION:
        region = (v == v[0]) | (v > 1.0)
        return big_x & region[None, :], big_v & region
    raise ValueError(f"unknown policy {policy!r}")


def _direction_parts(adv, diff, h_lo, h_hi, flagged, onesided):
    """Stencil contributions of  A f' + (D/2) f''  on a non-uniform mesh.

    Returns (lo, mid, hi) coefficient contributions for the f_{k-1}, f_k,
    f_{k+1} neighbors.  Differences are central except at flagged nodes:
    there the diffusion is exponentially fitted or, with onesided, the
    advection difference is replaced by the first-order difference on the
    side the information comes from while the diffusion stays central.
    """
    if onesided:
        os_mask = flagged
    else:
        diff = np.where(flagged, _fitted_diffusion(diff, adv, h_lo, h_hi), diff)
        os_mask = np.zeros_like(flagged)
    span = h_lo + h_hi
    adv_c = np.where(os_mask, 0.0, adv)
    lo = -(adv_c * h_hi - diff) / (h_lo * span)
    hi = (adv_c * h_lo + diff) / (h_hi * span)
    mid = -(adv_c * (h_lo - h_hi) + diff) / (h_lo * h_hi)
    up = os_mask & (adv > 0.0)
    dn = os_mask & (adv < 0.0)
    hi = hi + np.where(up, adv / h_hi, 0.0)
    mid = mid - np.where(up, adv / h_hi, 0.0)
    lo = lo - np.where(dn, adv / h_lo, 0.0)
    mid = mid + np.where(dn, adv / h_lo, 0.0)
    return lo, mid, hi


def _x_stencil(params, gx: Grid1D, var, fit_x, onesided: bool):
    """a, b, c of  mu x f_x + (var x^2/2) f_xx - r f  on every row of the lattice.

    var is sigma^2 in 1-D and v[None, :] in 2-D, where every v column has the
    same x stencil.  The x-edge rows, where the value is linear in x, keep
    only one-sided advection and the discount.
    """
    if gx.nodes[0] < 0.0:
        raise ValueError(f"price grid must start at x >= 0, got {gx.nodes[0]:g}")
    col = (slice(None),) if np.ndim(var) == 0 else (slice(None), None)
    x, h = gx.nodes[col], gx.spacings[col]
    m, mu, r = gx.m, params.mu, params.r
    shape = np.broadcast_shapes(x.shape, np.shape(var))
    a, b, c = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    xi = x[1:m]
    ax, bx, cx = _direction_parts(mu * xi, var * xi**2, h[:-1], h[1:], fit_x[1:m],
                                  onesided)
    a[1:m], b[1:m], c[1:m] = ax, bx - r, cx
    c[0] = mu * x[0] / h[0]
    b[0] = -(r + mu * x[0] / h[0])
    a[m] = -mu * x[m] / h[m - 1]
    b[m] = -(r - mu * x[m] / h[m - 1])
    return a, b, c


def assemble_heston(params: HestonParams, gx: Grid1D, gv: Grid1D, policy: UpwindPolicy) -> StencilOperator:
    """Assemble the 2-D operator on the (m+1) x (n+1) lattice."""
    x, v = gx.nodes, gv.nodes
    m, n = gx.m, gv.m
    if v[0] < 0.0:
        raise ValueError(f"variance grid must start at v >= 0, got {v[0]:g}")
    w = gv.spacings
    px, pv = peclet(params, gx, gv)
    fit_x, fit_v = _policy_masks(policy, px, pv, v)
    onesided = policy is UpwindPolicy.OSULLIVAN
    a, b, c = _x_stencil(params, gx, v[None, :], fit_x, onesided)
    d, e, cross = np.zeros_like(b), np.zeros_like(b), np.zeros_like(b)

    if n >= 2:
        # v-direction parts on the interior columns j = 1..n-1.
        w_lo = w[:-1][None, :]
        w_hi = w[1:][None, :]
        vj = v[1:n][None, :]
        inner = (m - 1, n - 1)
        dv, bv, ev = _direction_parts(
            params.kappa * (params.theta - vj),
            np.broadcast_to(params.sigma**2 * vj, inner), w_lo, w_hi,
            np.broadcast_to(fit_v[None, 1:n], inner), onesided)
        d[1:m, 1:n] = dv
        e[1:m, 1:n] = ev
        b[1:m, 1:n] += bv
        span_x = (gx.spacings[:-1] + gx.spacings[1:])[:, None]
        cross[1:m, 1:n] = params.rho * params.sigma * x[1:m, None] * vj / (span_x * (w_lo + w_hi))
    elif params.kappa * (params.theta - v[0]) != 0.0:
        raise ValueError("a variance grid without interior nodes needs "
                         "kappa*(theta - v_min) = 0")

    # v = v_min row: one-sided (forward) advection in v, no v diffusion.
    adv0 = params.kappa * (params.theta - v[0]) / w[0]
    b[1:m, 0] -= adv0
    e[1:m, 0] = adv0
    # v = v_max row: one-sided (backward) advection in v.
    advn = params.kappa * (params.theta - v[n]) / w[n - 1]
    b[1:m, n] += advn
    d[1:m, n] = -advn

    return StencilOperator(_lattice_matrix(a, b, c, d, e, cross), gx, gv)


def assemble_bs(params: BsParams, gx: Grid1D, policy: UpwindPolicy) -> StencilOperator:
    """Assemble the 1-D constant-volatility operator on the m+1 nodes."""
    if policy is UpwindPolicy.FOULON_REGION:
        raise ValueError("foulon-region-fitting selects rows by variance level "
                         "and only applies to the two-dimensional model")
    px, _ = peclet(params, gx)
    fit_x, _ = _policy_masks(policy, px[:, None], np.empty(0), gx.nodes)
    a, b, c = _x_stencil(params, gx, params.sigma**2, fit_x[:, 0],
                         policy is UpwindPolicy.OSULLIVAN)
    return StencilOperator(_lattice_matrix(a, b, c), gx, None)


def matvec(mat: scipy.sparse.dia_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M x for M = mat in DIA form, with no checks; returns out.

    x and out are flat float64 rows of M's size and out is C-contiguous and
    does not overlap x: the matvec reads x while it writes out.  out is zeroed
    and the DIA matvec adds each diagonal into it, with no temporary.  Offsets
    ascend, so each row sums its products from +0.0 in column order, and DIA's
    extra zeros add only +-0: for finite x the result is bitwise M x in sorted
    CSR form.
    """
    out.fill(0.0)
    dia_matvec(out.size, x.size, len(mat.offsets), mat.data.shape[1],
               mat.offsets, mat.data, x, out)
    return out


def apply(op: StencilOperator, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate M f on the lattice; with out given, write it there and return out.

    Checks f and out on every call, then runs `matvec`; the stage loop makes
    one such call per step.  out must be a C-contiguous float64 array of the
    operator's shape and must not overlap f.
    """
    f = np.asarray(f)
    if f.shape != op.shape:
        raise ValueError(f"field shape {f.shape} does not match operator {op.shape}")
    if out is None:
        out = np.empty(op.shape)
    else:
        if (out.shape != op.shape or out.dtype != np.float64
                or not out.flags.c_contiguous):
            raise ValueError("out must be a C-contiguous float64 array of the "
                             f"operator shape {op.shape}")
        if np.may_share_memory(out, f):
            raise ValueError("out must not share memory with the field")
    matvec(op.matrix, f.ravel(), out.reshape(-1))
    return out


def _lattice_matrix(a, b, c, d=None, e=None, cross=None) -> scipy.sparse.dia_matrix:
    """M from the lattice coefficients of the stencil, in DIA form.

    The 1-D stencil passes a, b, c only.  On the lattice flattened in
    row-major order (v index fastest) the neighbor (i + di, j + dj) lies on
    the diagonal at offset di (n+1) + dj, whose data row holds it at the
    neighbor's node.  Bands that share an offset (fewer than three v nodes)
    sit at disjoint nodes and are added into one row.
    """
    mm, nn = b.shape if b.ndim == 2 else (b.size, 1)
    bands = [(b, 0, 0, 1.0), (a, -1, 0, 1.0), (c, 1, 0, 1.0)]
    if d is not None:
        bands += [(d, 0, -1, 1.0), (e, 0, 1, 1.0), (cross, 1, 1, 1.0),
                  (cross, 1, -1, -1.0), (cross, -1, 1, -1.0), (cross, -1, -1, 1.0)]
    offsets = sorted({di * nn + dj for _, di, dj, _ in bands})
    data = np.zeros((len(offsets), mm, nn))
    for arr, di, dj, sign in bands:
        src = arr.reshape(mm, nn)[max(0, -di):mm - max(0, di), max(0, -dj):nn - max(0, dj)]
        row = data[offsets.index(di * nn + dj)]
        row[max(0, di):mm + min(0, di), max(0, dj):nn + min(0, dj)] += sign * src
    return scipy.sparse.dia_matrix((data.reshape(len(offsets), mm * nn), offsets),
                                   shape=(mm * nn, mm * nn))


def to_sparse(op: StencilOperator) -> scipy.sparse.dia_matrix:
    """The operator's matrix M in DIA form (shared, not a copy)."""
    return op.matrix
