"""One-dimensional mesh construction: uniform, sinh-stretched, and cubic-stretched."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "StretchKind",
    "KIND_FIELDS",
    "GridSpec",
    "Grid1D",
    "make_uniform",
    "make_sinh",
    "make_cubic",
    "make_grid",
]


class StretchKind(Enum):
    UNIFORM = "uniform"
    SINH = "sinh"
    CUBIC = "cubic"


# the GridSpec fields each kind's builder reads; the others keep their defaults
KIND_FIELDS = {StretchKind.UNIFORM: ("a", "b", "m"),
               StretchKind.SINH: ("a", "b", "m", "center", "lam"),
               StretchKind.CUBIC: ("a", "b", "m", "center", "alpha")}


@dataclass(frozen=True)
class GridSpec:
    """Recipe for a 1-D mesh of m cells on [a, b] and its node clustering.

    center is the point nodes concentrate around.  For sinh meshes lam is the
    width of the dense region (smaller lam means stronger clustering); for
    cubic meshes alpha weights the linear term of the mapping (larger alpha
    means closer to uniform).  Construction checks every bound of the kind.
    """

    kind: StretchKind
    a: float
    b: float
    m: int
    center: float = 0.0
    lam: float = 1.0
    alpha: float = 1.0

    def __post_init__(self):
        for key in {"lam", "alpha"}.intersection(KIND_FIELDS[self.kind]):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"need {key} > 0, got {getattr(self, key)!r}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a!r}, b={self.b!r}")
        least = {StretchKind.UNIFORM: 1, StretchKind.SINH: 2, StretchKind.CUBIC: 4}[self.kind]
        if self.m < least:
            what = " for a cubic mesh" if self.kind is StretchKind.CUBIC else ""
            raise ValueError(f"need m >= {least}{what}, got {self.m}")
        if self.kind is StretchKind.CUBIC and not self.a <= self.center <= self.b:
            raise ValueError(f"center {self.center!r} outside [{self.a!r}, {self.b!r}]")


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing nodes x_0 < x_1 < ... < x_m."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a grid needs at least two nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "nodes", nodes)

    @property
    def m(self) -> int:
        """Number of cells; nodes are indexed 0..m."""
        return self.nodes.size - 1

    @property
    def spacings(self) -> np.ndarray:
        """Backward spacings, spacings[i-1] = nodes[i] - nodes[i-1]."""
        return np.diff(self.nodes)


def make_uniform(a: float, b: float, m: int) -> Grid1D:
    GridSpec(StretchKind.UNIFORM, a, b, m)  # its bound checks
    return Grid1D(np.linspace(a, b, m + 1))


def make_sinh(spec: GridSpec) -> Grid1D:
    """Mesh with nodes x_k = center + lam*sinh(c1 + (c2-c1)*k/m).

    The hyperbolic map concentrates nodes near spec.center; spacings grow
    roughly proportionally to distance from the center once it exceeds lam.
    """
    a, b, m = spec.a, spec.b, spec.m
    c1 = np.arcsinh((a - spec.center) / spec.lam)
    c2 = np.arcsinh((b - spec.center) / spec.lam)
    eta = np.linspace(0.0, 1.0, m + 1)
    nodes = spec.center + spec.lam * np.sinh(c1 + (c2 - c1) * eta)
    nodes[0] = a
    nodes[-1] = b
    return Grid1D(nodes)


def _cubic_root(alpha: float, t: float) -> float:
    """The real root of u^3 + alpha*u = t, alpha > 0: with r = sqrt(alpha/3) and
    u = 2r*sinh(theta) the cubic reads 2r^3*sinh(3*theta) = t."""
    r = math.sqrt(alpha / 3.0)
    two_r3 = 2.0 * r * r * r
    if not math.isfinite(two_r3):  # u^3 is then far below the rounding of alpha*u
        return t / alpha
    if not abs(t) < two_r3 * 1e308:  # else t / (2r^3) overflows
        return float(np.cbrt(t))  # alpha*u is then far below the rounding of u^3
    return 2.0 * r * math.sinh(math.asinh(t / two_r3) / 3.0)


def make_cubic(spec: GridSpec) -> Grid1D:
    """Mesh with nodes x(u) = center + u^3 + alpha*u, u uniform on [u_a, u_b].

    u_a and u_b solve x(u_a) = a and x(u_b) = b in closed form, and the end
    nodes are set to a and b.  Spacing is smallest near spec.center and grows
    cubically away from it."""
    u = np.linspace(_cubic_root(spec.alpha, spec.a - spec.center),
                    _cubic_root(spec.alpha, spec.b - spec.center), spec.m + 1)
    nodes = spec.center + (u**3 + spec.alpha * u)
    nodes[0], nodes[-1] = spec.a, spec.b
    return Grid1D(nodes)


def make_grid(spec: GridSpec) -> Grid1D:
    if spec.kind is StretchKind.UNIFORM:
        return make_uniform(spec.a, spec.b, spec.m)
    if spec.kind is StretchKind.SINH:
        return make_sinh(spec)
    return make_cubic(spec)  # GridSpec admits no other kind
