"""Operator assembly: stencil identities, upwinding policies, reductions."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from conftest import band, csr_oracle, cubic_grid, operator_cases
from hypothesis import given, settings
from hypothesis import strategies as st

from stslab.grids import Grid1D, make_uniform
from stslab.operators import (BsParams, HestonParams, StencilOperator,
                              UpwindPolicy, _fitted_diffusion, apply, assemble_bs,
                              assemble_heston, peclet, to_sparse)

ALL_POLICIES = list(UpwindPolicy)
POLICIES_2D = ALL_POLICIES
POLICIES_1D = [p for p in ALL_POLICIES if p is not UpwindPolicy.FOULON_REGION]


# ---------------------------------------------------------------- row sums

@pytest.mark.parametrize("policy", POLICIES_2D, ids=lambda p: p.value)
def test_row_sums_equal_minus_r_stress(policy, heston_params, gx_stress,
                                       gv_stress, row_sum_check):
    op = assemble_heston(heston_params, gx_stress, gv_stress, policy)
    row_sum_check(op, heston_params.r)


@pytest.mark.parametrize("policy", POLICIES_1D, ids=lambda p: p.value)
def test_row_sums_equal_minus_r_bs(policy, bs_params, row_sum_check):
    op = assemble_bs(bs_params, make_uniform(0.0, 150.0, 100), policy)
    row_sum_check(op, bs_params.r)


@given(m=st.integers(min_value=3, max_value=12),
       n=st.integers(min_value=2, max_value=8),
       r=st.floats(min_value=-0.05, max_value=0.2),
       q=st.floats(min_value=-0.05, max_value=0.2),
       rho=st.floats(min_value=-1.0, max_value=1.0),
       sigma=st.floats(min_value=0.0, max_value=1.0),
       policy=st.sampled_from(ALL_POLICIES))
@settings(max_examples=50, deadline=None)
def test_row_sums_property(m, n, r, q, rho, sigma, policy):
    params = HestonParams(v0=0.1, theta=0.15, kappa=2.0, sigma=sigma, rho=rho,
                          r=r, q=q, spot=1.0, strike=1.0, expiry=1.0)
    gx = make_uniform(0.5, 2.0, m)
    gv = make_uniform(0.01, 0.8, n)
    op = assemble_heston(params, gx, gv, policy)
    mat = to_sparse(op).tocsr()
    sums = np.asarray(mat.sum(axis=1)).ravel()
    scale = np.asarray(abs(mat).sum(axis=1)).ravel()
    assert np.all(np.abs(sums + r) <= 1e-12 * np.maximum(1.0, scale))


def test_two_node_variance_grid(heston_params, gx_small, row_sum_check):
    # no interior v columns: assembling demands vanishing advection at v_min
    gv = Grid1D(np.array([0.05, 0.40]))
    with pytest.raises(ValueError, match="interior nodes"):
        assemble_heston(heston_params, gx_small, gv, UpwindPolicy.NONE)
    pinned = HestonParams(v0=0.12, theta=0.05, kappa=3.0, sigma=0.04, rho=0.6,
                          r=0.01, q=0.04, spot=100.0, strike=100.0, expiry=1.0)
    op = assemble_heston(pinned, gx_small, gv, UpwindPolicy.NONE)
    row_sum_check(op, pinned.r)


# --------------------------------------------------- stencil value oracles

def test_interior_x_coefficient_straight_line(heston_params, gx_stress, gv_stress):
    """a_{i,j} recomputed from scratch at a node no policy touches in x."""
    i, j = 50, 25
    x, v = gx_stress.nodes, gv_stress.nodes
    h = gx_stress.spacings
    adv = heston_params.mu * x[i]
    diff = v[j] * x[i] ** 2
    h_lo, h_hi = h[i - 1], h[i]
    oracle = -(adv * h_hi - diff) / (h_lo * (h_lo + h_hi))
    assert oracle == pytest.approx(311.62203103573125, rel=1e-13)
    px, _ = peclet(heston_params, gx_stress, gv_stress)
    assert abs(px[i, j]) < 2.0  # x direction unfitted here under every policy
    for policy in ALL_POLICIES:
        op = assemble_heston(heston_params, gx_stress, gv_stress, policy)
        assert band(op, -1)[i, j] == pytest.approx(oracle, rel=1e-14)


@pytest.mark.parametrize("field,bad,message", [
    ("v0", -0.1, "need v0 >= 0, got -0.1"),
    ("theta", -0.2, "need theta >= 0, got -0.2"),
    ("spot", 0.0, "need spot > 0, got 0.0"),
    ("strike", -5.0, "need strike > 0, got -5.0"),
])
def test_params_errors_name_one_field(heston_params, field, bad, message):
    with pytest.raises(ValueError) as err:
        replace(heston_params, **{field: bad})
    assert str(err.value) == message


def test_x_edge_rows(heston_params, gx_stress, gv_stress):
    op = assemble_heston(heston_params, gx_stress, gv_stress, UpwindPolicy.NONE)
    x, h = gx_stress.nodes, gx_stress.spacings
    m = gx_stress.m
    mu, r = heston_params.mu, heston_params.r
    a, b, c = band(op, -1), band(op, 0), band(op, 1)
    assert np.allclose(c[0, :], mu * x[0] / h[0], rtol=1e-15)
    assert np.allclose(b[0, :], -(r + mu * x[0] / h[0]), rtol=1e-15)
    assert np.allclose(a[m, :], -mu * x[m] / h[m - 1], rtol=1e-15)
    assert np.allclose(b[m, :], -(r - mu * x[m] / h[m - 1]), rtol=1e-15)
    # an edge row couples to nothing but its x neighbour
    for di, dj in [(0, -1), (0, 1), (1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert np.all(band(op, di, dj)[[0, m], :] == 0.0)


def test_v_edge_rows(heston_params, gx_stress, gv_stress):
    op = assemble_heston(heston_params, gx_stress, gv_stress, UpwindPolicy.NONE)
    v, w = gv_stress.nodes, gv_stress.spacings
    n = gv_stress.m
    kap, th = heston_params.kappa, heston_params.theta
    adv0 = kap * (th - v[0]) / w[0]
    advn = kap * (th - v[n]) / w[n - 1]
    d, e = band(op, 0, -1), band(op, 0, 1)
    assert np.allclose(e[1:-1, 0], adv0, rtol=1e-15)
    assert np.allclose(d[1:-1, n], -advn, rtol=1e-15)


CORNERS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_cross_zero_on_boundary_ring(heston_params, gx_stress, gv_stress):
    for policy in ALL_POLICIES:
        op = assemble_heston(heston_params, gx_stress, gv_stress, policy)
        for di, dj in CORNERS:
            corner = band(op, di, dj)
            assert np.all(corner[0, :] == 0.0)
            assert np.all(corner[-1, :] == 0.0)
            assert np.all(corner[:, 0] == 0.0)
            assert np.all(corner[:, -1] == 0.0)
            assert np.any(corner[1:-1, 1:-1] != 0.0)


def test_corner_bands_carry_the_cross_term(heston_params, gx_stress, gv_stress):
    """On interior nodes the corners of M are +cross, -cross, -cross, +cross."""
    x, v = gx_stress.nodes, gv_stress.nodes
    span_x = (x[2:] - x[:-2])[:, None]
    span_v = (v[2:] - v[:-2])[None, :]
    cross = (heston_params.rho * heston_params.sigma * x[1:-1, None] * v[None, 1:-1]
             / (span_x * span_v))
    for policy in ALL_POLICIES:
        op = assemble_heston(heston_params, gx_stress, gv_stress, policy)
        inner = {k: band(op, *k)[1:-1, 1:-1] for k in CORNERS}
        assert np.allclose(inner[1, 1], cross, rtol=1e-13, atol=0.0)
        assert np.array_equal(inner[1, -1], -inner[1, 1])
        assert np.array_equal(inner[-1, 1], -inner[1, 1])
        assert np.array_equal(inner[-1, -1], inner[1, 1])


# ------------------------------------------------------- Peclet diagnostics

def test_peclet_reference_value(heston_params):
    # spacings and node values chosen to hit w = 0.01 at v = 0.001 and
    # h = 1 at x = 100; only the diagnostic is evaluated on these grids
    gx = Grid1D(np.array([99.0, 100.0, 101.0]))
    gv = Grid1D(np.array([-0.009, 0.001, 0.011]))
    px, pv = peclet(heston_params, gx, gv)
    assert pv[1] == pytest.approx(4462.5, rel=1e-12)
    assert px[1, 1] == pytest.approx(-0.6, rel=1e-12)


def test_peclet_backward_spacing_convention(heston_params, gx_stress, gv_stress):
    px, pv = peclet(heston_params, gx_stress, gv_stress)
    x, v = gx_stress.nodes, gv_stress.nodes
    i, j = 50, 25
    h_i = x[i] - x[i - 1]
    w_j = v[j] - v[j - 1]
    assert px[i, j] == pytest.approx(
        2.0 * h_i * heston_params.mu / (v[j] * x[i]), rel=1e-14)
    assert pv[j] == pytest.approx(
        2.0 * w_j * heston_params.kappa * (heston_params.theta - v[j])
        / (heston_params.sigma ** 2 * v[j]), rel=1e-14)


def test_peclet_degenerate_cases(heston_params, gx_stress, gv_stress):
    px, pv = peclet(heston_params, gx_stress, gv_stress)
    # v = 0 boundary: x advection with zero diffusion reports signed infinity
    assert np.all(np.isinf(px[1:, 0]))
    assert np.all(px[1:, 0] < 0.0)  # mu = r - q < 0 here
    assert np.isinf(pv[0]) and pv[0] > 0.0
    # zero advection: P vanishes even where diffusion is small
    balanced = HestonParams(v0=0.12, theta=gv_stress.nodes[10], kappa=3.0,
                            sigma=0.04, rho=0.6, r=0.03, q=0.03, spot=100.0,
                            strike=100.0, expiry=1.0)
    px, pv = peclet(balanced, gx_stress, gv_stress)
    # x = 0 with zero advection is 0/0: reported as nan, never mask-fitted
    assert np.all(px[1:, 1:] == 0.0)
    assert np.all(np.isnan(px[0, :]))
    assert pv[10] == 0.0


def test_peclet_bs(bs_params):
    g = make_uniform(0.0, 150.0, 100)
    px, pv = peclet(bs_params, g)
    assert pv.size == 0
    # h = 1.5, mu = 0.1, sigma^2 = 4e-4: P = 750/x
    assert px[40] == pytest.approx(750.0 / g.nodes[40], rel=1e-14)
    assert np.isinf(px[0])


# ---------------------------------------------------------- fitting factor

def fitting_factor(p):
    """beta(P) as assembly evaluates it: the fitted diffusion of D = 1 at
    advection P/2 over a unit cell, divided by D."""
    d = 1.0
    out = _fitted_diffusion(d, np.asarray(p, dtype=float) / 2.0, 0.5, 0.5) / d
    return float(out) if out.ndim == 0 else out


def test_fitting_factor_values():
    assert fitting_factor(0.0) == 1.0
    assert fitting_factor(2.0) == pytest.approx(1.3130352854993315, abs=5e-16)
    assert fitting_factor(2.0) == pytest.approx(1.0 / np.tanh(1.0), abs=1e-16)
    assert fitting_factor(100.0) == pytest.approx(50.0, rel=1e-12)
    assert np.isinf(fitting_factor(np.inf))


@given(p=st.floats(min_value=-500.0, max_value=500.0))
@settings(max_examples=100)
def test_fitting_factor_properties(p):
    beta = fitting_factor(p)
    assert beta == fitting_factor(-p)
    if p == 0.0:
        assert beta == 1.0
    elif abs(p) >= 1e-7:
        # beta - 1 ~ P^2/12 underflows to zero below ~1e-8; the strict
        # inequality is only observable at representable excess
        assert beta > 1.0
    else:
        assert beta >= 1.0
    assert beta >= abs(p) / 2.0


def test_fitting_factor_vectorized():
    ps = np.array([-4.0, 0.0, 2.0, np.inf])
    out = fitting_factor(ps)
    assert out.shape == (4,)
    assert out[1] == 1.0 and np.isinf(out[3])
    assert out[0] == fitting_factor(4.0)


# ------------------------------------------------------------ policy masks

def expected_masks(params, gx, gv, policy):
    """Nodes a fitting or one-sided policy treats in x and in v, from peclet.

    |P| >= 2 flags a node, the region policy keeps the v rows with v = v_min
    or v > 1, and the edge rows (one-sided closures) are never fitted.
    """
    px, pv = peclet(params, gx, gv)
    v = gv.nodes
    region = (v == v[0]) | (v > 1.0)
    fx = np.abs(px) >= 2.0
    fv = np.zeros(px.shape, dtype=bool)
    fv[:, 1:-1] = (np.abs(pv) >= 2.0)[None, 1:-1]
    if policy is UpwindPolicy.FOULON_REGION:
        fx &= region[None, :]
        fv &= region[None, :]
    fx[[0, -1], :] = fv[[0, -1], :] = False
    return fx, fv


def assert_fitted_exactly_on(op, op_none, fx, fv):
    """The x and v bands differ from the central operator's on fx and fv only."""
    for (di, dj), mask in [((-1, 0), fx), ((1, 0), fx), ((0, -1), fv), ((0, 1), fv)]:
        got, central = band(op, di, dj), band(op_none, di, dj)
        assert np.all(got[mask] != central[mask]), (di, dj)
        assert np.array_equal(got[~mask], central[~mask]), (di, dj)
    unfitted = ~(fx | fv)
    assert np.array_equal(band(op, 0)[unfitted], band(op_none, 0)[unfitted])
    for di, dj in CORNERS:
        assert np.array_equal(band(op, di, dj), band(op_none, di, dj))


def test_partial_fitting_bit_identical_off_mask(heston_params, gx_stress, gv_stress):
    op_n = assemble_heston(heston_params, gx_stress, gv_stress, UpwindPolicy.NONE)
    op_p = assemble_heston(heston_params, gx_stress, gv_stress,
                           UpwindPolicy.PARTIAL_FITTING)
    fx, fv = expected_masks(heston_params, gx_stress, gv_stress,
                            UpwindPolicy.PARTIAL_FITTING)
    assert fx.any() and fv.any()
    assert_fitted_exactly_on(op_p, op_n, fx, fv)


def test_foulon_region_mask(heston_params, gx_stress, gv_stress):
    op = assemble_heston(heston_params, gx_stress, gv_stress,
                         UpwindPolicy.FOULON_REGION)
    op_n = assemble_heston(heston_params, gx_stress, gv_stress, UpwindPolicy.NONE)
    fx, fv = expected_masks(heston_params, gx_stress, gv_stress,
                            UpwindPolicy.FOULON_REGION)
    assert_fitted_exactly_on(op, op_n, fx, fv)
    # the restricted region leaves the strained low-v columns central
    _, fv_p = expected_masks(heston_params, gx_stress, gv_stress,
                             UpwindPolicy.PARTIAL_FITTING)
    assert fv_p.sum() > fv.sum() > 0


def test_none_policy_has_no_fitted_nodes(heston_params, gx_small, gv_small):
    """Every interior x coupling of the NONE operator is the central one."""
    op = assemble_heston(heston_params, gx_small, gv_small, UpwindPolicy.NONE)
    x, v, h = gx_small.nodes, gv_small.nodes, gx_small.spacings
    adv = heston_params.mu * x[1:-1, None]
    diff = v[None, :] * x[1:-1, None] ** 2
    h_lo, h_hi = h[:-1, None], h[1:, None]
    span = h_lo + h_hi
    assert np.allclose(band(op, -1)[1:-1], -(adv * h_hi - diff) / (h_lo * span),
                       rtol=1e-13, atol=0.0)
    assert np.allclose(band(op, 1)[1:-1], (adv * h_lo + diff) / (h_hi * span),
                       rtol=1e-13, atol=0.0)


def test_fitted_rows_keep_nonnegative_offdiagonals(heston_params, gx_stress,
                                                   gv_stress):
    """Exponential fitting must not flip an off-diagonal sign on a graded mesh."""
    op = assemble_heston(heston_params, gx_stress, gv_stress,
                         UpwindPolicy.PARTIAL_FITTING)
    fx, fv = expected_masks(heston_params, gx_stress, gv_stress,
                            UpwindPolicy.PARTIAL_FITTING)
    assert np.all(band(op, -1)[fx] >= 0.0)
    assert np.all(band(op, 1)[fx] >= 0.0)
    assert np.all(band(op, 0, -1)[fv] >= 0.0)
    assert np.all(band(op, 0, 1)[fv] >= 0.0)


def test_fitted_diffusion_not_smaller(heston_params, gx_stress, gv_stress):
    op_n = assemble_heston(heston_params, gx_stress, gv_stress, UpwindPolicy.NONE)
    op_p = assemble_heston(heston_params, gx_stress, gv_stress,
                           UpwindPolicy.PARTIAL_FITTING)
    fx, fv = expected_masks(heston_params, gx_stress, gv_stress,
                            UpwindPolicy.PARTIAL_FITTING)

    def pair_sum(op, d):  # the two off-diagonals of one direction
        return band(op, *d) + band(op, *(-k for k in d))

    # advection parts agree, so the off-diagonal sum isolates the diffusion
    assert np.all(pair_sum(op_p, (0, 1))[fv] >= pair_sum(op_n, (0, 1))[fv] - 1e-12)
    assert np.all(pair_sum(op_p, (1, 0))[fx] >= pair_sum(op_n, (1, 0))[fx] - 1e-12)


def test_osullivan_one_sided_signs(bs_params):
    g = make_uniform(0.0, 150.0, 100)
    x, h = g.nodes, g.spacings
    for mu_sign, params in [(1, bs_params),
                            (-1, BsParams(sigma=0.02, r=0.0, q=0.10,
                                          spot=100.0, expiry=1.0))]:
        op = assemble_bs(params, g, UpwindPolicy.OSULLIVAN)
        a, c = band(op, -1), band(op, 1)
        fit = np.abs(peclet(params, g)[0]) >= 2.0
        fit[0] = fit[-1] = False
        idx = np.nonzero(fit)[0]
        assert idx.size > 0
        diff = params.sigma ** 2 * x[idx] ** 2
        h_lo, h_hi = h[idx - 1], h[idx]
        span = h_lo + h_hi
        if mu_sign > 0:
            # downwind coefficient is pure diffusion; upwind gains advection
            assert np.allclose(a[idx], diff / (h_lo * span), rtol=1e-13)
            assert np.all(c[idx] >= diff / (h_hi * span) - 1e-13)
        else:
            assert np.allclose(c[idx], diff / (h_hi * span), rtol=1e-13)
            assert np.all(a[idx] >= diff / (h_lo * span) - 1e-13)
        assert np.all(a[idx] >= 0.0)
        assert np.all(c[idx] >= 0.0)


def test_osullivan_heston_offdiagonals(heston_params, gx_stress, gv_stress):
    op = assemble_heston(heston_params, gx_stress, gv_stress,
                         UpwindPolicy.OSULLIVAN)
    _, fv = expected_masks(heston_params, gx_stress, gv_stress,
                           UpwindPolicy.OSULLIVAN)
    assert fv.any()
    assert np.all(band(op, 0, -1)[fv] >= -1e-15)
    assert np.all(band(op, 0, 1)[fv] >= -1e-15)


# ----------------------------------------------- apply / sparse consistency

def stencil_apply(op, f):
    """M f on the 2-D lattice by the nine-point stencil, its bands read off M.

    Uses no entry of M outside the nine bands, so it also checks that M
    couples each node to its lattice neighbours only.
    """
    mm, nn = op.shape
    padded = np.pad(f, 1)
    out = np.zeros(op.shape)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            out += band(op, di, dj) * padded[1 + di:1 + di + mm, 1 + dj:1 + dj + nn]
    return out


@pytest.mark.parametrize("policy", POLICIES_2D, ids=lambda p: p.value)
def test_apply_matches_sparse_2d(policy, heston_params, gx_small, gv_small):
    # apply is the sparse matvec in 2-D; the stencil is the oracle
    op = assemble_heston(heston_params, gx_small, gv_small, policy)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(op.shape)
    direct = apply(op, f)
    want = stencil_apply(op, f)
    scale = (abs(to_sparse(op)) @ np.abs(f).ravel()).reshape(op.shape)
    assert np.all(np.abs(direct - want) <= 1e-12 * scale)


def test_apply_matches_sparse_1d(bs_params):
    g = make_uniform(0.0, 150.0, 60)
    op = assemble_bs(bs_params, g, UpwindPolicy.PARTIAL_FITTING)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(61)
    assert np.allclose(apply(op, f), to_sparse(op) @ f, rtol=1e-12, atol=1e-12)


def test_apply_shape_guard(bs_params):
    op = assemble_bs(bs_params, make_uniform(0.0, 150.0, 10), UpwindPolicy.NONE)
    with pytest.raises(ValueError, match="does not match"):
        apply(op, np.zeros(12))


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_apply_into_out(dim, heston_params, bs_params, gx_small, gv_small):
    if dim == "1d":
        op = assemble_bs(bs_params, make_uniform(0.0, 150.0, 60),
                         UpwindPolicy.PARTIAL_FITTING)
    else:
        op = assemble_heston(heston_params, gx_small, gv_small,
                             UpwindPolicy.PARTIAL_FITTING)
    f = np.random.default_rng(5).standard_normal(op.shape)
    buf = np.full(op.shape, np.nan)
    got = apply(op, f, out=buf)
    assert got is buf
    assert np.array_equal(buf, apply(op, f))
    # an out that overlaps the field would read values it already overwrote
    with pytest.raises(ValueError, match="share memory"):
        apply(op, f, out=f)
    with pytest.raises(ValueError, match="share memory"):
        apply(op, f[..., ::-1], out=f)


def reference_apply_1d(op, f):
    """The three-term 1-D stencil apply ran before it became the CSR matvec.

    Sums (b f + a f_-) + c f_+, a commutation of the matvec's row order
    (a f_- + b f) + c f_+, so the two agree bit for bit.
    """
    out = band(op, 0) * f
    out[1:] += band(op, -1)[1:] * f[:-1]
    out[:-1] += band(op, 1)[:-1] * f[1:]
    return out


def apply_case(dim, heston_params, bs_params, gx_small, gv_small):
    if dim == "1d":
        return assemble_bs(bs_params, cubic_grid(), UpwindPolicy.PARTIAL_FITTING)
    return assemble_heston(heston_params, gx_small, gv_small,
                           UpwindPolicy.PARTIAL_FITTING)


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_apply_is_the_matrix_product_bitwise(dim, heston_params, bs_params,
                                             gx_small, gv_small):
    op = apply_case(dim, heston_params, bs_params, gx_small, gv_small)
    f = np.random.default_rng(13).standard_normal(op.shape)
    want = (op.matrix.tocsr() @ f.ravel()).reshape(op.shape)
    buf = np.full(op.shape, np.nan)
    assert apply(op, f).tobytes() == want.tobytes()
    assert apply(op, f, out=buf).tobytes() == want.tobytes()
    # a non-contiguous field reads the same values
    wide = np.zeros(op.shape[:-1] + (2 * op.shape[-1],))
    wide[..., ::2] = f
    assert apply(op, wide[..., ::2], out=buf).tobytes() == want.tobytes()
    if dim == "1d":
        assert want.tobytes() == reference_apply_1d(op, f).tobytes()
        # a digital payoff: zero rows keep the old stencil's sign of zero
        x = op.gx.nodes
        step = np.where((x > 10.0) & (x < 100.0), 1.0, 0.0)
        assert apply(op, step).tobytes() == reference_apply_1d(op, step).tobytes()


def oracle_fields(op):
    """Random, 1e300-scaled, all-zero and digital-step fields on op's lattice."""
    rng = np.random.default_rng(17)
    f = rng.standard_normal(op.shape)
    x = op.gx.nodes
    step = np.where((x > 0.4 * x[-1]) & (x < 0.6 * x[-1]), 1.0, 0.0)
    if not op.is_1d:
        step = np.repeat(step[:, None], op.shape[1], axis=1)
    return {"random": f, "huge": 1e300 * f, "zero": np.zeros(op.shape), "step": step}


@pytest.mark.parametrize("build", operator_cases())
def test_apply_is_the_sorted_csr_product_bitwise(build):
    op = build()
    assert isinstance(op.matrix, scipy.sparse.dia_matrix)
    oracle = csr_oracle(op)
    buf = np.empty(op.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, f in oracle_fields(op).items():
            want = (oracle @ f.ravel()).reshape(op.shape)
            assert apply(op, f).tobytes() == want.tobytes(), name
            assert apply(op, f, out=buf).tobytes() == want.tobytes(), name


def test_matrix_is_stored_by_diagonals():
    g = make_uniform(0.0, 1.0, 3)
    dense = np.diag([1.0, 2.0, 3.0, 4.0]) + np.diag([5.0, 6.0, 7.0], -1)
    for given in (dense, scipy.sparse.csr_matrix(dense)):
        op = StencilOperator(given, g, None)
        assert isinstance(op.matrix, scipy.sparse.dia_matrix)
        assert np.array_equal(op.matrix.toarray(), dense)
    # a DIA matrix is kept as it is, not copied
    dia = scipy.sparse.dia_matrix(dense)
    assert StencilOperator(dia, g, None).matrix.data is dia.data
    # apply sums each row in offset order, so the offsets must ascend
    unsorted = scipy.sparse.dia_matrix((dia.data[::-1], dia.offsets[::-1]), shape=(4, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        StencilOperator(unsorted, g, None)


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_apply_out_guards(dim, heston_params, bs_params, gx_small, gv_small):
    op = apply_case(dim, heston_params, bs_params, gx_small, gv_small)
    f = np.ones(op.shape)
    bad = [np.empty(op.size + 1), np.empty(op.shape, dtype=np.float32),
           np.empty(op.shape[:-1] + (2 * op.shape[-1],))[..., ::2]]
    if dim == "2d":
        bad.append(np.empty(op.shape, order="F"))
    for out in bad:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            apply(op, f, out=out)


# --------------------------------------------------- consistency with PDE

def _heston_truncation_rms(params, m, n):
    gx = make_uniform(60.0, 140.0, m)
    gv = make_uniform(0.04, 0.36, n)
    op = assemble_heston(params, gx, gv, UpwindPolicy.NONE)
    x = gx.nodes[:, None]
    v = gv.nodes[None, :]
    f = np.sin(x / 40.0) * np.exp(-2.0 * v) + x * v
    fx = np.cos(x / 40.0) / 40.0 * np.exp(-2.0 * v) + v
    fxx = -np.sin(x / 40.0) / 40.0 ** 2 * np.exp(-2.0 * v)
    fv = -2.0 * np.sin(x / 40.0) * np.exp(-2.0 * v) + x
    fvv = 4.0 * np.sin(x / 40.0) * np.exp(-2.0 * v)
    fxv = -2.0 * np.cos(x / 40.0) / 40.0 * np.exp(-2.0 * v) + 1.0
    exact = (0.5 * v * x ** 2 * fxx
             + params.rho * params.sigma * x * v * fxv
             + 0.5 * params.sigma ** 2 * v * fvv
             + params.mu * x * fx
             + params.kappa * (params.theta - v) * fv
             - params.r * f)
    got = apply(op, np.broadcast_to(f, op.shape).copy())
    err = (got - exact)[1:-1, 1:-1]
    return float(np.sqrt(np.mean(err ** 2)))


def test_heston_interior_second_order(heston_params):
    e1 = _heston_truncation_rms(heston_params, 40, 30)
    e2 = _heston_truncation_rms(heston_params, 80, 60)
    assert 3.5 < e1 / e2 < 4.5


def _bs_truncation_rms(params, m):
    g = make_uniform(60.0, 140.0, m)
    op = assemble_bs(params, g, UpwindPolicy.NONE)
    x = g.nodes
    f = np.exp(-((x - 100.0) / 30.0) ** 2)
    fx = f * (-2.0 * (x - 100.0) / 30.0 ** 2)
    fxx = f * (4.0 * (x - 100.0) ** 2 / 30.0 ** 4 - 2.0 / 30.0 ** 2)
    exact = (0.5 * params.sigma ** 2 * x ** 2 * fxx + params.mu * x * fx
             - params.r * f)
    err = (apply(op, f) - exact)[1:-1]
    return float(np.sqrt(np.mean(err ** 2)))


def test_bs_interior_second_order():
    params = BsParams(sigma=0.25, r=0.04, q=0.01, spot=100.0, expiry=1.0)
    e1 = _bs_truncation_rms(params, 50)
    e2 = _bs_truncation_rms(params, 100)
    assert 3.5 < e1 / e2 < 4.5


# --------------------------------------------------------- model reduction

def test_heston_reduces_to_bs_per_column():
    gx = make_uniform(50.0, 150.0, 30)
    gv = Grid1D(np.array([0.04, 0.09, 0.16, 0.25]))
    hp = HestonParams(v0=0.09, theta=0.09, kappa=2.0, sigma=0.3, rho=0.5,
                      r=0.03, q=0.01, spot=100.0, strike=100.0, expiry=1.0)
    op_h = assemble_heston(hp, gx, gv, UpwindPolicy.NONE)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(31)
    f_const_v = np.repeat(g[:, None], 4, axis=1)
    out = apply(op_h, f_const_v)
    for j, vj in enumerate(gv.nodes):
        bp = BsParams(sigma=float(np.sqrt(vj)), r=hp.r, q=hp.q, spot=100.0,
                      expiry=1.0)
        op_b = assemble_bs(bp, gx, UpwindPolicy.NONE)
        assert np.allclose(band(op_h, -1)[:, j], band(op_b, -1), rtol=1e-14, atol=1e-16)
        assert np.allclose(band(op_h, 1)[:, j], band(op_b, 1), rtol=1e-14, atol=1e-16)
        # v-advection rows telescope to zero on a v-constant field
        assert np.allclose(out[:, j], apply(op_b, g), rtol=1e-12, atol=1e-10)


# -------------------------------------------------------------- error paths

def test_assembly_guards(heston_params, gx_small, bs_params):
    gv_neg = Grid1D(np.array([-0.1, 0.1, 0.3]))
    with pytest.raises(ValueError, match="v >= 0"):
        assemble_heston(heston_params, gx_small, gv_neg, UpwindPolicy.NONE)
    with pytest.raises(ValueError, match="two-dimensional"):
        assemble_bs(bs_params, make_uniform(0.0, 150.0, 10),
                    UpwindPolicy.FOULON_REGION)


def test_matrix_must_match_the_lattice():
    g = make_uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="does not match the 5 lattice nodes"):
        StencilOperator(scipy.sparse.csr_matrix(np.eye(4)), g, None)
    with pytest.raises(ValueError, match="does not match the 15 lattice nodes"):
        StencilOperator(scipy.sparse.csr_matrix(np.eye(5)), g, make_uniform(0.0, 1.0, 2))


def test_params_validation():
    with pytest.raises(ValueError, match="kappa"):
        HestonParams(v0=0.1, theta=0.1, kappa=0.0, sigma=0.1, rho=0.0,
                     r=0.0, q=0.0, spot=1.0, strike=1.0, expiry=1.0)
    with pytest.raises(ValueError, match="rho"):
        HestonParams(v0=0.1, theta=0.1, kappa=1.0, sigma=0.1, rho=1.5,
                     r=0.0, q=0.0, spot=1.0, strike=1.0, expiry=1.0)
    with pytest.raises(ValueError, match="sigma"):
        BsParams(sigma=0.0, r=0.0, q=0.0, spot=1.0, expiry=1.0)
    with pytest.raises(ValueError, match="expiry"):
        BsParams(sigma=0.1, r=0.0, q=0.0, spot=1.0, expiry=0.0)
