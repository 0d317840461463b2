"""Mesh construction: endpoints, monotonicity, and clustering behavior."""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cubic_grid
from stslab.grids import (KIND_FIELDS, Grid1D, GridSpec, StretchKind, _cubic_root,
                          make_cubic, make_grid, make_sinh, make_uniform)

KINDS = [
    GridSpec(StretchKind.UNIFORM, 0.0, 800.0, 64),
    GridSpec(StretchKind.SINH, 0.0, 800.0, 64, center=100.0, lam=20.0),
    GridSpec(StretchKind.CUBIC, 0.0, 800.0, 64, center=100.0, alpha=0.1),
]


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind.value)
def test_endpoints_exact(spec):
    g = make_grid(spec)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 800.0
    assert g.m == 64
    assert len(g.nodes) == 65


@given(kind=st.sampled_from(list(StretchKind)),
       m=st.integers(min_value=4, max_value=200),
       b=st.floats(min_value=1.0, max_value=1e4),
       frac=st.floats(min_value=0.0, max_value=1.0),
       lam=st.floats(min_value=1e-3, max_value=1e3),
       alpha=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60)
def test_strictly_increasing(kind, m, b, frac, lam, alpha):
    spec = GridSpec(kind, 0.0, b, m, center=frac * b, lam=lam, alpha=alpha)
    g = make_grid(spec)
    assert np.all(np.diff(g.nodes) > 0.0)
    assert np.all(g.spacings > 0.0)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == b


def test_sinh_midpoint_closed_form():
    g = make_sinh(GridSpec(StretchKind.SINH, 0.0, 800.0, 10, center=100.0, lam=20.0))
    c1 = np.arcsinh((0.0 - 100.0) / 20.0)
    c2 = np.arcsinh((800.0 - 100.0) / 20.0)
    expected = 100.0 + 20.0 * np.sinh(0.5 * (c1 + c2))
    assert g.nodes[5] == pytest.approx(expected, rel=1e-14)
    assert g.nodes[5] == pytest.approx(122.5322491188717, rel=1e-13)


def test_sinh_large_lam_is_nearly_uniform():
    g = make_sinh(GridSpec(StretchKind.SINH, 0.0, 150.0, 50, center=75.0, lam=1e6))
    u = make_uniform(0.0, 150.0, 50)
    assert np.allclose(g.nodes, u.nodes, atol=1e-6)


def test_sinh_concentrates_at_center():
    g = make_sinh(GridSpec(StretchKind.SINH, 0.0, 800.0, 100, center=100.0, lam=20.0))
    h = g.spacings
    mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    assert mids[np.argmin(h)] == pytest.approx(100.0, abs=5.0)
    # spacing grows monotonically with distance once outside the dense region
    far = mids > 140.0
    assert np.all(np.diff(h[far]) > 0.0)


def test_cubic_min_spacing_at_center():
    g = make_cubic(GridSpec(StretchKind.CUBIC, 0.0, 150.0, 400, center=100.0,
                            alpha=0.01))
    h = g.spacings
    mids = 0.5 * (g.nodes[:-1] + g.nodes[1:])
    assert mids[np.argmin(h)] == pytest.approx(100.0, abs=0.01)
    # alpha = 0.01 produces a severely graded mesh
    assert h.min() == pytest.approx(2.168008926020093e-4, rel=1e-6)
    assert h.max() / h.min() > 1000.0


def test_cubic_large_alpha_is_nearly_uniform():
    g = make_cubic(GridSpec(StretchKind.CUBIC, 0.0, 150.0, 30, center=50.0, alpha=1e8))
    u = make_uniform(0.0, 150.0, 30)
    assert np.allclose(g.nodes, u.nodes, atol=1e-5)


def mp_cubic_root(alpha, t):
    """The real root of u^3 + alpha*u = t by Newton in mpmath, at the working precision.

    min(t/alpha, t^(1/3)) bounds the root from above and the cubic is convex
    there, so Newton descends to it without overshooting (t > 0; odd in t).
    """
    alpha, t = mpmath.mpf(alpha), mpmath.mpf(t)
    start = min(abs(t) / alpha, mpmath.cbrt(abs(t)))
    root = mpmath.findroot(lambda u: u**3 + alpha * u - abs(t), start, solver="newton")
    return mpmath.sign(t) * root


@given(alpha_exp=st.floats(min_value=-6.0, max_value=8.0),
       t_exp=st.floats(min_value=-12.0, max_value=6.0),
       sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_cubic_root_matches_mpmath(alpha_exp, t_exp, sign):
    alpha, t = 10.0**alpha_exp, sign * 10.0**t_exp
    u = _cubic_root(alpha, t)
    with mpmath.workdps(50):
        want = mp_cubic_root(alpha, t)
        assert abs((u - want) / want) <= 1e-14, (alpha, t, u, want)
    assert _cubic_root(alpha, -t) == -u  # exactly odd in t
    assert _cubic_root(alpha, 0.0) == 0.0


def test_cubic_a6_nodes_match_the_map_in_mpmath():
    """The A6 grid pins its ends and puts every interior node on x(u_k) = 100 +
    u_k^3 + 0.01 u_k, u_k uniform between the roots of x = 0 and x = 150."""
    nodes = cubic_grid().nodes
    assert nodes[0] == 0.0 and nodes[-1] == 150.0
    with mpmath.workdps(50):
        alpha = mpmath.mpf("0.01")
        ua, ub = mp_cubic_root(alpha, -100), mp_cubic_root(alpha, 50)
        want = [100 + u**3 + alpha * u for u in (ua + (ub - ua) * k / 400 for k in range(1, 400))]
        worst = max(abs((x - w) / w) for x, w in zip(nodes[1:-1], want))
    assert worst <= 1e-13, worst


def test_cubic_root_of_a_vanishing_alpha_is_the_cube_root():
    # t / (2r^3) overflows for alpha = 1e-250; alpha*u is then ~1e-250 of u^3
    assert _cubic_root(1e-250, 100.0) == float(np.cbrt(100.0))
    assert _cubic_root(1e-250, -50.0) == float(np.cbrt(-50.0))
    assert _cubic_root(5e-324, 0.0) == 0.0
    g = make_cubic(GridSpec(StretchKind.CUBIC, 0.0, 150.0, 40, center=100.0, alpha=1e-250))
    u = np.linspace(np.cbrt(-100.0), np.cbrt(50.0), 41)
    assert np.array_equal(g.nodes[1:-1], (100.0 + u**3)[1:-1])


@pytest.mark.parametrize("alpha", [1e12, 1e100, 1e200, 1e206, 1e300, np.finfo(float).max])
def test_cubic_huge_alpha_is_uniform_to_rounding(alpha):
    # u^3 is below the rounding of alpha*u here; the bracket-and-bisect search
    # was 1e-3 off a uniform mesh at alpha = 1e12 and collapsed from 1e17 on,
    # and the closed form collapsed from 1e206 on, where 2r^3 overflows
    g = make_cubic(GridSpec(StretchKind.CUBIC, 0.0, 150.0, 30, center=50.0, alpha=alpha))
    assert np.abs(g.nodes - make_uniform(0.0, 150.0, 30).nodes).max() <= 1e-12


def test_grid1d_validation():
    with pytest.raises(ValueError, match="two nodes"):
        Grid1D(np.array([1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid1D(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        Grid1D(np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        Grid1D(np.array([0.0, np.inf]))


def test_builder_validation():
    sinh, cubic = StretchKind.SINH, StretchKind.CUBIC
    with pytest.raises(ValueError, match="a < b"):
        make_uniform(1.0, 1.0, 10)
    with pytest.raises(ValueError, match="a < b"):
        GridSpec(sinh, 1.0, 1.0, 10)
    with pytest.raises(ValueError, match="m >= 1"):
        make_uniform(0.0, 1.0, 0)
    with pytest.raises(ValueError, match="m >= 2"):
        make_sinh(GridSpec(sinh, 0.0, 1.0, 1))
    with pytest.raises(ValueError, match="lam > 0"):
        GridSpec(sinh, 0.0, 1.0, 10, lam=0.0)
    with pytest.raises(ValueError, match="m >= 4"):
        make_cubic(GridSpec(cubic, 0.0, 1.0, 3, center=0.5))
    with pytest.raises(ValueError, match="alpha > 0"):
        GridSpec(cubic, 0.0, 1.0, 10, center=0.5, alpha=0.0)
    with pytest.raises(ValueError, match="outside"):
        make_cubic(GridSpec(cubic, 0.0, 1.0, 10, center=2.0))


@pytest.mark.parametrize("spec", KINDS, ids=lambda s: s.kind.value)
def test_bounds_are_checked_only_on_the_fields_the_kind_reads(spec):
    # a uniform mesh reads neither lam nor alpha, and was refused for lam = 0
    unread = {key: 0.0 for key in ("lam", "alpha") if key not in KIND_FIELDS[spec.kind]}
    same = replace(spec, **unread)
    assert make_grid(same).nodes.tobytes() == make_grid(spec).nodes.tobytes()
    for key in {"lam", "alpha"} - set(unread):
        with pytest.raises(ValueError, match=f"need {key} > 0, got 0.0"):
            replace(spec, **{key: 0.0})


def test_spacings_are_backward_differences():
    g = Grid1D(np.array([0.0, 1.0, 3.0, 6.0]))
    assert g.m == 3
    assert np.array_equal(g.spacings, np.array([1.0, 2.0, 3.0]))
