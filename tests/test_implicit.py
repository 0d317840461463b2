"""Banded solves and the implicit reference integrators."""

import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse
from conftest import csr_oracle, cubic_grid, operator_cases
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import expm_multiply

import stslab.operators
import stslab.schemes
from stslab.experiments import (bs_closed_form, call,
                                default_bs_params, default_heston_params,
                                foulon_spec_v, foulon_spec_x, payoff_eval, prepare,
                                rms_error)
from stslab.grids import Grid1D, make_grid, make_uniform
from stslab.implicit import (BandedLU, BandedMatrix, TRBDF2_GAMMA, banded_factor,
                             crank_nicolson_run, operator_banded, trbdf2_run)
from stslab.operators import (StencilOperator, UpwindPolicy, apply, assemble_bs,
                              assemble_heston, to_sparse)


def scalar_op(z: float) -> StencilOperator:
    """Two decoupled copies of the scalar equation y' = z y."""
    return StencilOperator(scipy.sparse.csr_matrix(float(z) * np.eye(2)),
                           Grid1D(np.array([0.0, 1.0])), None)


def trbdf2_amplification(z: float) -> float:
    g = TRBDF2_GAMMA
    mid = (1.0 + 0.5 * g * z) / (1.0 - 0.5 * g * z)
    c_mid = 1.0 / (g * (2.0 - g))
    c_old = (1.0 - g) ** 2 / (g * (2.0 - g))
    return (c_mid * mid - c_old) / (1.0 - (1.0 - g) * z / (2.0 - g))


def reference_gbtrf(bm):
    """The oracle's own gbtrf factorization of a copy of bm.ab."""
    lu, ipiv, info = dgbtrf(bm.ab, bm.kl, bm.ku)
    assert info == 0
    return lu, ipiv, bm.kl, bm.ku


def reference_gbtrs_solve(ref, rhs: np.ndarray) -> np.ndarray:
    """The plain gbtrs solve over the full factorization: the bit-for-bit oracle."""
    lu, ipiv, kl, ku = ref
    x, info = dgbtrs(lu, kl, ku, np.asarray(rhs, dtype=float), ipiv)
    assert info == 0
    return x


def reference_tbsv_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """The f2py `dtbsv` pair on the packed triangles: the oracle of the pointer call."""
    x = dtbsv(lu.kl, lu.lower, np.array(rhs, dtype=float), lower=1, diag=1)
    return dtbsv(lu.ku, lu.upper, x)


def reference_crank_nicolson_run(op, initial, expiry, l):
    """The CN/Rannacher loop with per-step temporaries and gbtrs solves."""
    k = expiry / l
    lu = reference_gbtrf(operator_banded(op, 1.0, -0.5 * k))
    y = np.array(initial, dtype=float, copy=True)
    for _ in range(4):
        y = reference_gbtrs_solve(lu, y.ravel()).reshape(op.shape)
    for _ in range(l - 2):
        rhs = y + 0.5 * k * apply(op, y)
        y = reference_gbtrs_solve(lu, rhs.ravel()).reshape(op.shape)
    return y


def reference_trbdf2_run(op, initial, expiry, l):
    """The TR-BDF2 loop with per-step temporaries and gbtrs solves."""
    g = TRBDF2_GAMMA
    k = expiry / l
    lu_tr = reference_gbtrf(operator_banded(op, 1.0, -0.5 * g * k))
    lu_bdf = reference_gbtrf(operator_banded(op, 1.0, -k * (1.0 - g) / (2.0 - g)))
    c_mid = 1.0 / (g * (2.0 - g))
    c_old = (1.0 - g) ** 2 / (g * (2.0 - g))
    y = np.array(initial, dtype=float, copy=True)
    for _ in range(l):
        rhs = y + 0.5 * g * k * apply(op, y)
        y_mid = reference_gbtrs_solve(lu_tr, rhs)
        y = reference_gbtrs_solve(lu_bdf, c_mid * y_mid - c_old * y)
    return y


# ------------------------------------------------------------- banded algebra

def reference_operator_banded(op, alpha, beta):
    """Band array of alpha I + beta M scattered from M's nonzeros in COO form.

    The assembly operator_banded ran while M was stored in CSR form: the
    bit-for-bit oracle of the diagonal-by-diagonal copy.
    """
    kl = ku = 1 if op.is_1d else op.shape[1] + 1
    ab = np.zeros((2 * kl + ku + 1, op.size), order="F")
    mat = csr_oracle(op).tocoo()
    ab[kl + ku + mat.row - mat.col, mat.col] = beta * mat.data
    ab[kl + ku, :] += alpha
    return ab


@pytest.mark.parametrize("build", operator_cases())
def test_band_array_matches_the_coo_scatter_bitwise(build):
    op = build()
    for alpha, beta in ((1.0, -0.37), (1.0, 0.25), (0.0, -1.0)):
        bm = operator_banded(op, alpha, beta)
        want = reference_operator_banded(op, alpha, beta)
        assert bm.ab.flags.f_contiguous
        # +0.0 where M has no entry, never -0.0 from beta < 0
        assert bm.ab.tobytes(order="F") == want.tobytes(order="F")


def test_band_storage_layout(heston_params, gx_small, gv_small):
    op = assemble_heston(heston_params, gx_small, gv_small,
                         UpwindPolicy.PARTIAL_FITTING)
    alpha, beta = 1.0, -0.37
    bm = operator_banded(op, alpha, beta)
    dense = alpha * np.eye(op.size) + beta * to_sparse(op).toarray()
    rebuilt = np.zeros_like(dense)
    for i in range(op.size):
        for j in range(max(0, i - bm.kl), min(op.size, i + bm.ku + 1)):
            rebuilt[i, j] = bm.ab[bm.kl + bm.ku + i - j, j]
    assert np.array_equal(rebuilt, dense)
    assert bm.kl == bm.ku == gv_small.m + 2


@pytest.mark.parametrize("policy", [UpwindPolicy.NONE, UpwindPolicy.PARTIAL_FITTING],
                         ids=lambda p: p.value)
def test_banded_solve_matches_dense(policy, heston_params):
    gx = make_grid(foulon_spec_x(100.0, m=9))
    gv = make_grid(foulon_spec_v(n=6))
    op = assemble_heston(heston_params, gx, gv, policy)
    alpha, beta = 1.0, -0.05
    dense = alpha * np.eye(op.size) + beta * to_sparse(op).toarray()
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(op.size)
    lu = banded_factor(operator_banded(op, alpha, beta))
    got = lu.solve(rhs)
    want = np.linalg.solve(dense, rhs)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


def test_banded_solve_matches_dense_1d(bs_params):
    op = assemble_bs(bs_params, make_uniform(0.0, 150.0, 40),
                     UpwindPolicy.PARTIAL_FITTING)
    bm = operator_banded(op, 1.0, -0.01)
    assert bm.kl == bm.ku == 1
    dense = np.eye(41) - 0.01 * to_sparse(op).toarray()
    rhs = np.sin(np.arange(41.0))
    got = banded_factor(bm).solve(rhs)
    assert np.allclose(got, np.linalg.solve(dense, rhs), rtol=1e-10)


def test_singular_band_matrix_raises():
    bm = BandedMatrix(ab=np.zeros((4, 3)), kl=1, ku=1, n=3)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        banded_factor(bm)


def test_solve_length_guard():
    op = scalar_op(-1.0)
    lu = banded_factor(operator_banded(op, 1.0, -0.1))
    for rhs in (np.zeros(5), np.zeros((2, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match="rhs length"):
            lu.solve(rhs)


def test_operator_banded_rejects_offsets_outside_the_band():
    # -I + E_3 on 5 nodes: E_3 lies past the 1-D band kl = ku = 1.  Copied
    # into band storage it would wrap onto another row, and the solve of
    # (I - 0.5 M) would give [0, .67, 1.33, 2, 3.33], not the dense
    # [.67, 1.56, 1.33, 2, 2.67].
    mat = -np.eye(5) + np.eye(5, k=3)
    op = StencilOperator(scipy.sparse.csr_matrix(mat), Grid1D(np.linspace(0.0, 1.0, 5)),
                         None)
    with pytest.raises(ValueError, match=r"offsets \[0 3\] beyond the half-bandwidth 1"):
        operator_banded(op, 1.0, -0.5)
    dense = np.linalg.solve(np.eye(5) - 0.5 * mat, np.arange(5.0))
    assert np.allclose(dense, [2 / 3, 14 / 9, 4 / 3, 2, 8 / 3])


def cn_heston_matrix():
    """CN matrix of the 41x21 partial-fitting Heston operator at l = 50."""
    p = default_heston_params()
    op = assemble_heston(p, make_grid(foulon_spec_x(100.0, m=40)),
                         make_grid(foulon_spec_v(n=20)), UpwindPolicy.PARTIAL_FITTING)
    return operator_banded(op, 1.0, -0.5 * p.expiry / 50)


def trbdf2_bs_matrix(grid):
    """Trapezoidal-stage TR-BDF2 matrix of a 1-D BS operator at l = 20."""
    p = default_bs_params()
    op = assemble_bs(p, grid, UpwindPolicy.PARTIAL_FITTING)
    return operator_banded(op, 1.0, -0.5 * TRBDF2_GAMMA * p.expiry / 20)


def tiny_diagonal_matrix():
    """Tridiagonal with a 1e-3 diagonal and unit off-diagonals: pivots at once."""
    n = 30
    ab = np.zeros((4, n))
    ab[1, 1:] = 1.0
    ab[2, :] = 1e-3
    ab[3, :-1] = 1.0
    return BandedMatrix(ab=ab, kl=1, ku=1, n=n)


@pytest.mark.parametrize("build, pivoted", [
    (cn_heston_matrix, False),
    (lambda: trbdf2_bs_matrix(make_uniform(0.0, 150.0, 100)), False),
    (lambda: trbdf2_bs_matrix(cubic_grid()), True),
    (tiny_diagonal_matrix, True),
], ids=["heston-cn-41x21", "uniform-101", "cubic-401", "tiny-diagonal"])
def test_solve_matches_gbtrs_bitwise(build, pivoted):
    bm = build()
    ref = reference_gbtrf(bm)  # before banded_factor consumes bm
    lu = banded_factor(bm)
    assert (not np.array_equal(lu.ipiv, np.arange(bm.n))) == pivoted
    assert (lu.upper is None) == pivoted
    assert (lu.lu is None) == (not pivoted)
    rng = np.random.default_rng(11)
    for rhs in (rng.standard_normal(bm.n), np.linspace(0.0, 50.0, bm.n)):
        before = rhs.copy()
        got = lu.solve(rhs)
        assert got.tobytes() == reference_gbtrs_solve(ref, rhs).tobytes()
        assert np.array_equal(rhs, before)


@pytest.mark.parametrize("build", [case for case in operator_cases()
                                   if not case.id.startswith("1d-")])
def test_pointer_solve_matches_f2py_tbsv_and_gbtrs_bitwise(build):
    """The 2-D CN systems (l = 50 and l_ref = 4000) solve without gbtrs."""
    op = build()
    rng = np.random.default_rng(7)
    for l in (50, 4000):
        bm = operator_banded(op, 1.0, -0.5 / l)
        ref = reference_gbtrf(bm)
        lu = banded_factor(bm)
        assert lu.upper is not None
        for rhs in (rng.standard_normal(op.size), np.linspace(0.0, 50.0, op.size)):
            got = lu.solve(rhs).tobytes()
            assert got == reference_tbsv_solve(lu, rhs).tobytes()
            assert got == reference_gbtrs_solve(ref, rhs).tobytes()


@pytest.mark.parametrize("build", [
    cn_heston_matrix,
    lambda: trbdf2_bs_matrix(make_uniform(0.0, 150.0, 100)),
], ids=["heston-cn-41x21", "uniform-101"])
def test_factor_overwrites_band_array(build):
    """An unpivoted factorization keeps no reference to the band array."""
    bm = build()
    assert bm.ab.flags.f_contiguous
    ab = weakref.ref(bm.ab)
    lu = banded_factor(bm)
    del bm
    gc.collect()
    assert lu.upper is not None and lu.lu is None
    assert ab() is None


def test_factor_peak_below_band_array():
    """No copy of ab: only the packed triangles, ipiv and the pivot check."""
    bm = cn_heston_matrix()
    nbytes = bm.ab.nbytes
    banded_factor(cn_heston_matrix())  # warm the LAPACK lookups
    tracemalloc.start()
    try:
        banded_factor(bm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= nbytes, f"peak {peak / nbytes:.2f} x ab.nbytes"


def rounding_bound(l: int, y0: np.ndarray) -> float:
    """32 l eps max|y0|: how far a run of l steps may sit from its written-order oracle.

    Fixed before the midpoint form was measured against it; the worst ratio
    d / (l eps max|y0|) measured was 2.4 for CN and 9.9 for TR-BDF2.
    """
    return 32 * l * np.finfo(float).eps * np.abs(y0).max()


def test_crank_nicolson_within_rounding_bound_of_reference(heston_params, gx_small,
                                                           gv_small):
    op = assemble_heston(heston_params, gx_small, gv_small,
                         UpwindPolicy.PARTIAL_FITTING)
    y0 = payoff_eval(call(heston_params.strike), gx_small, gv_small)
    got = crank_nicolson_run(op, y0, heston_params.expiry, 50)
    want = reference_crank_nicolson_run(op, y0, heston_params.expiry, 50)
    assert np.abs(got - want).max() <= rounding_bound(50, y0)


@pytest.mark.parametrize("grid", [cubic_grid(), make_uniform(0.0, 150.0, 100)],
                         ids=["cubic-401", "uniform-101"])
def test_trbdf2_within_rounding_bound_of_reference(grid, bs_params):
    op = assemble_bs(bs_params, grid, UpwindPolicy.PARTIAL_FITTING)
    y0 = payoff_eval(call(100.0), grid)
    got = trbdf2_run(op, y0, bs_params.expiry, 20)
    want = reference_trbdf2_run(op, y0, bs_params.expiry, 20)
    assert np.abs(got - want).max() <= rounding_bound(20, y0)


@pytest.fixture
def implicit_calls(monkeypatch):
    """Counts of BandedLU.solve calls and of operators.apply calls, the latter
    through every stslab module global bound to it."""
    counts = {"solve": 0, "apply": 0}
    real_solve, real_apply = BandedLU.solve, stslab.operators.apply

    def solve(self, rhs):
        counts["solve"] += 1
        return real_solve(self, rhs)

    def counted_apply(*args, **kwargs):
        counts["apply"] += 1
        return real_apply(*args, **kwargs)

    monkeypatch.setattr(BandedLU, "solve", solve)
    for name, module in list(sys.modules.items()):
        if name.startswith("stslab."):
            for attr, value in list(vars(module).items()):
                if value is real_apply:
                    monkeypatch.setattr(module, attr, counted_apply)
    return counts


def test_implicit_runs_make_one_solve_per_stage_and_no_matvec(implicit_calls, heston_params,
                                                              gx_small, gv_small, bs_params):
    op = assemble_heston(heston_params, gx_small, gv_small, UpwindPolicy.PARTIAL_FITTING)
    y0 = payoff_eval(call(heston_params.strike), gx_small, gv_small)
    for l in (3, 50):
        implicit_calls.update(solve=0, apply=0)
        crank_nicolson_run(op, y0, heston_params.expiry, l)
        assert implicit_calls == {"solve": l + 2, "apply": 0}
    grid = cubic_grid()
    op = assemble_bs(bs_params, grid, UpwindPolicy.PARTIAL_FITTING)
    implicit_calls.update(solve=0, apply=0)
    trbdf2_run(op, payoff_eval(call(100.0), grid), bs_params.expiry, 20)
    assert implicit_calls == {"solve": 40, "apply": 0}
    stslab.schemes.apply_operator(op, payoff_eval(call(100.0), grid))  # the count is live
    assert implicit_calls["apply"] == 1


# ------------------------------------------------------ scalar amplification

@pytest.mark.parametrize("z", [-0.5, -2.0, -10.0, -100.0])
def test_trbdf2_scalar_amplification(z):
    y = trbdf2_run(scalar_op(z), np.ones(2), 1.0, 1)
    assert y[0] == pytest.approx(trbdf2_amplification(z), rel=1e-12)
    assert y[0] == y[1]


def test_trbdf2_l_stable():
    z = -1e8
    assert abs(trbdf2_amplification(z)) < 1e-3
    y = trbdf2_run(scalar_op(z), np.ones(2), 1.0, 1)
    assert abs(y[0]) < 1e-3


def test_trbdf2_second_order():
    errs = []
    for k in (0.02, 0.01):
        y = trbdf2_run(scalar_op(-1.0), np.ones(2), k, 1)
        errs.append(abs(y[0] - np.exp(-k)))
    # one-step defect of a second-order scheme scales like k^3
    assert 6.0 < errs[0] / errs[1] < 10.0


def test_crank_nicolson_scalar_startup_and_steps():
    z, expiry, l = -3.0, 1.0, 4
    k = expiry / l
    y = crank_nicolson_run(scalar_op(z), np.ones(2), expiry, l)
    be_half = 1.0 / (1.0 - 0.5 * k * z)
    cn = (1.0 + 0.5 * k * z) / (1.0 - 0.5 * k * z)
    assert y[0] == pytest.approx(be_half ** 4 * cn ** (l - 2), rel=1e-13)


def test_crank_nicolson_guards(bs_params):
    op = scalar_op(-1.0)
    with pytest.raises(ValueError, match="l >= 3"):
        crank_nicolson_run(op, np.ones(2), 1.0, 2)
    with pytest.raises(ValueError, match="expiry > 0"):
        crank_nicolson_run(op, np.ones(2), 0.0, 8)
    with pytest.raises(ValueError, match="initial shape"):
        crank_nicolson_run(op, np.ones(3), 1.0, 8)
    op2 = assemble_bs(bs_params, make_uniform(0.0, 150.0, 10), UpwindPolicy.NONE)
    with pytest.raises(ValueError, match="one-dimensional"):
        trbdf2_run(assemble_heston_small(), np.ones((11, 3)), 1.0, 4)
    with pytest.raises(ValueError, match="l >= 1"):
        trbdf2_run(op2, np.ones(11), 1.0, 0)


def assemble_heston_small():
    return assemble_heston(default_heston_params(), make_grid(foulon_spec_x(100.0, m=10)),
                           make_grid(foulon_spec_v(n=2)), UpwindPolicy.NONE)


# ----------------------------------------------------- PDE reference checks

def test_cn_second_order_at_spot(heston_params, gx_small, gv_small):
    op = assemble_heston(heston_params, gx_small, gv_small,
                         UpwindPolicy.PARTIAL_FITTING)
    y0 = payoff_eval(call(heston_params.strike), gx_small, gv_small)
    from stslab.experiments import price_at_spot
    prices = {}
    for l in (100, 200, 3200):
        fld = crank_nicolson_run(op, y0, heston_params.expiry, l)
        prices[l] = price_at_spot(fld, gx_small, heston_params.spot, gv_small,
                                  heston_params.v0)
    e1 = abs(prices[100] - prices[3200])
    e2 = abs(prices[200] - prices[3200])
    assert 3.0 < e1 / e2 < 5.5


@pytest.mark.parametrize("policy", [UpwindPolicy.PARTIAL_FITTING, UpwindPolicy.FOULON_REGION],
                         ids=lambda p: p.value)
def test_cn_second_order_against_exact_solution(policy, heston_params, gx_small, gv_small):
    """CN's temporal order against expm(T M) y0, which shares no code with CN.

    The rms is taken over the window `converge` scores in; each halving of
    the step cuts it by 3.82-4.00 here.
    """
    setup = prepare(heston_params, gx_small, gv_small, policy, call(heston_params.strike))
    op, expiry = setup.op, heston_params.expiry
    exact = expm_multiply(expiry * op.matrix.tocsr(), setup.y0.ravel()).reshape(op.shape)
    roi = setup.window[:, None] & (gv_small.nodes <= 1.0)[None, :]
    rms = [rms_error(crank_nicolson_run(op, setup.y0, expiry, l), exact, roi)
           for l in (100, 200, 400, 800)]
    ratios = [a / b for a, b in zip(rms, rms[1:])]
    assert all(3.6 <= r <= 4.4 for r in ratios), ratios


def test_references_agree_with_closed_form(bs_params):
    grid = make_grid(foulon_spec_x(100.0, 200))
    op = assemble_bs(bs_params, grid, UpwindPolicy.PARTIAL_FITTING)
    payoff = call(100.0)
    y0 = payoff_eval(payoff, grid)
    exact = bs_closed_form(bs_params, payoff)
    from stslab.experiments import price_at_spot
    cn = price_at_spot(crank_nicolson_run(op, y0, 1.0, 800), grid, 100.0)
    tb = price_at_spot(trbdf2_run(op, y0, 1.0, 800), grid, 100.0)
    assert cn == pytest.approx(exact, rel=5e-4)
    assert tb == pytest.approx(exact, rel=5e-4)
    assert cn == pytest.approx(tb, rel=1e-4)
