"""Mesh construction: endpoints, monotonicity, and clustering behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stslab.grids import (Grid1D, GridSpec, StretchKind, make_cubic,
                          make_grid, make_sinh, make_uniform)

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


def test_spacings_are_backward_differences():
    g = Grid1D(np.array([0.0, 1.0, 3.0, 6.0]))
    assert g.m == 3
    assert np.array_equal(g.spacings, np.array([1.0, 2.0, 3.0]))
