"""Gershgorin bounds and dense eigenvalue extraction."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from conftest import csr_oracle, cubic_grid, operator_cases

from stslab.experiments import foulon_spec_v, foulon_spec_x
from stslab.grids import Grid1D, make_grid, make_uniform
from stslab.operators import (StencilOperator, UpwindPolicy, assemble_bs,
                              assemble_heston, to_sparse)
from stslab.spectra import (DENSE_GUARD, Spectrum, eigenvalues_dense,
                            gershgorin_radius, write_spectrum)


def toeplitz_op(m: int, h: float) -> StencilOperator:
    """Dirichlet Laplacian rows on the interior of a uniform 1-D grid."""
    g = Grid1D(h * np.arange(m + 1.0))
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m + 1, m + 1)).toarray() / h ** 2
    lap[[0, -1], :] = 0.0
    return StencilOperator(sp.csr_matrix(lap), g, None)


def test_gershgorin_of_laplacian_rows():
    assert gershgorin_radius(toeplitz_op(20, 0.1)) == pytest.approx(4.0 / 0.01)


def gershgorin_by_arrays(op):
    """Row bound from the dense matrix: the largest row sum of |M|."""
    return float(np.abs(op.matrix.toarray()).sum(1).max())


@pytest.mark.parametrize("build", operator_cases())
def test_gershgorin_is_the_csr_row_sum_bitwise(build):
    # the DIA row sum groups a row's entries differently and can differ in
    # the last bit (it did on 61x31 and 41x21), so rho keeps the CSR sum
    op = build()
    want = float(abs(csr_oracle(op)).sum(axis=1).max())
    assert np.float64(gershgorin_radius(op)).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("policy", list(UpwindPolicy), ids=lambda p: p.value)
def test_gershgorin_matches_array_formula(policy, heston_params, gx_stress,
                                          gv_stress, bs_params):
    op = assemble_heston(heston_params, gx_stress, gv_stress, policy)
    want = gershgorin_by_arrays(op)
    assert abs(gershgorin_radius(op) - want) <= 1e-15 * want
    if policy is UpwindPolicy.FOULON_REGION:
        return
    for grid in (make_uniform(0.0, 150.0, 100), cubic_grid()):
        op = assemble_bs(bs_params, grid, policy)
        assert gershgorin_radius(op) == gershgorin_by_arrays(op)


def test_toeplitz_eigenvalues_closed_form():
    m, h = 30, 0.1
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m - 1, m - 1)) / h ** 2
    spec = eigenvalues_dense(lap)
    k = np.arange(1, m)
    exact = np.sort(-4.0 * np.sin(k * np.pi / (2 * m)) ** 2 / h ** 2)
    got = np.sort(spec.eigenvalues.real)
    assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-10
    assert np.allclose(got, exact, rtol=1e-8)
    assert spec.max_real == pytest.approx(exact[-1], rel=1e-8)


@pytest.fixture(scope="module")
def heston_spectrum(heston_params, gx_small, gv_small):
    op = assemble_heston(heston_params, gx_small, gv_small, UpwindPolicy.NONE)
    mat = to_sparse(op)
    return op, mat, eigenvalues_dense(mat)


def test_heston_spectrum_conjugate_symmetric(heston_spectrum):
    _, _, spec = heston_spectrum
    lam = spec.eigenvalues
    assert spec.max_abs_imag > 0.0
    paired = np.sort_complex(np.conj(lam))
    assert np.allclose(np.sort_complex(lam), paired, atol=1e-8 * spec.max_abs_imag)


def test_heston_spectrum_trace_identity(heston_spectrum):
    _, mat, spec = heston_spectrum
    assert spec.eigenvalues.sum().real == pytest.approx(
        mat.diagonal().sum(), rel=1e-6)
    assert abs(spec.eigenvalues.sum().imag) < 1e-6 * abs(mat.diagonal().sum())


def test_gershgorin_bounds_spectrum(heston_spectrum):
    op, _, spec = heston_spectrum
    rho = gershgorin_radius(op)
    assert np.abs(spec.eigenvalues).max() <= rho * (1 + 1e-12)
    assert spec.max_real <= rho


def test_residual_check_accepts_good_matrix(heston_spectrum):
    """Sampled eigenpairs of the nonnormal operator have small residuals.

    ||A v - lambda v||_2 <= 1e-7 ||A||_F on 10 pairs guards against an
    ill-conditioned decomposition, and the eigenvalues of the full
    decomposition match the ones eigenvalues_dense returns.
    """
    _, mat, spec = heston_spectrum
    dense = mat.toarray()
    lam, vr = scipy.linalg.eig(dense)
    norm = np.linalg.norm(dense, "fro")
    rng = np.random.default_rng(3)
    for k in rng.choice(lam.size, size=10, replace=False):
        resid = np.linalg.norm(dense @ vr[:, k] - lam[k] * vr[:, k])
        assert resid <= 1e-7 * norm, f"eigenpair {k} residual {resid:.3e}"
    lam = lam[np.lexsort((lam.imag, lam.real))]
    assert np.allclose(lam, spec.eigenvalues,
                       atol=1e-9 * np.abs(spec.eigenvalues).max())


def test_scale_is_linear():
    m, h = 12, 0.25
    lap = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(m, m)) / h ** 2
    half = eigenvalues_dense(lap, scale=0.5)
    full = eigenvalues_dense(lap, scale=1.0)
    assert np.allclose(half.eigenvalues, 0.5 * full.eigenvalues, rtol=1e-12)


def test_dense_guard_refuses_large_matrices():
    big = sp.identity(DENSE_GUARD + 1, format="coo")
    with pytest.raises(ValueError, match="dense guard"):
        eigenvalues_dense(big)


def test_non_square_refused():
    with pytest.raises(ValueError, match="square"):
        eigenvalues_dense(np.zeros((3, 4)))


def test_non_finite_refused():
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalues_dense(np.array([[1.0, np.nan], [0.0, 1.0]]))


@pytest.fixture(scope="module")
def heston_496(heston_params):
    """The 31 x 16 partial-fitting Heston operator (n = 496)."""
    op = assemble_heston(heston_params, make_grid(foulon_spec_x(100.0, m=30)),
                         make_grid(foulon_spec_v(n=15)), UpwindPolicy.PARTIAL_FITTING)
    return to_sparse(op)


def test_dense_eigensolve_holds_one_copy(heston_496):
    """One n x n array at the peak: scaled in place and overwritten by geev."""
    n = heston_496.shape[0]
    eigenvalues_dense(heston_496, scale=1.0 / 16)  # warm the LAPACK lookups
    tracemalloc.start()
    try:
        eigenvalues_dense(heston_496, scale=1.0 / 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * n * n * 8, f"peak {peak / (n * n * 8):.2f} x n^2 doubles"


@pytest.mark.parametrize("order", ["C", "F"])
def test_dense_input_left_unchanged(order, heston_496):
    dense = np.array(heston_496.toarray(), order=order)
    before = dense.copy()
    spec = eigenvalues_dense(dense, scale=0.25)
    assert np.array_equal(dense, before)
    want = eigenvalues_dense(heston_496, scale=0.25)
    assert spec.eigenvalues.tobytes() == want.eigenvalues.tobytes()


def test_write_spectrum_roundtrip(tmp_path, heston_spectrum):
    _, _, spec = heston_spectrum
    path = tmp_path / "spec.csv"
    write_spectrum(spec, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    lam = data[:, 0] + 1j * data[:, 1]
    assert np.array_equal(lam, spec.eigenvalues)
    meta = json.loads(path.with_suffix(".json").read_text())
    assert meta["n"] == spec.n == spec.eigenvalues.size
    assert meta["max_real"] == spec.max_real
    assert meta["max_abs_imag"] == spec.max_abs_imag


def test_spectrum_is_lexsorted(heston_spectrum):
    _, _, spec = heston_spectrum
    lam = spec.eigenvalues
    order = np.lexsort((lam.imag, lam.real))
    assert np.array_equal(lam, lam[order])
