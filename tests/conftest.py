"""Shared fixtures: stress-case parameters and grids reused across test modules.

Also `cubic_grid`, the barrier study's cubic x grid; `band`, which reads one
stencil coefficient array off the matrix M; and `operator_cases` and
`csr_oracle`, which check the DIA form of M against its sorted CSR form.
"""

import numpy as np
import pytest
import scipy.sparse

from stslab.experiments import (default_bs_params, default_heston_params,
                                foulon_spec_v, foulon_spec_x)
from stslab.grids import Grid1D, GridSpec, StretchKind, make_grid, make_uniform
from stslab.operators import (HestonParams, UpwindPolicy, assemble_bs,
                              assemble_heston, to_sparse)


def cubic_grid(m: int = 400, alpha: float = 0.01) -> Grid1D:
    """The cubic x grid of the barrier study (A6): [0, 150] concentrated at 100."""
    return make_grid(GridSpec(StretchKind.CUBIC, 0.0, 150.0, m, center=100.0, alpha=alpha))


@pytest.fixture(scope="session")
def heston_params():
    return default_heston_params()

@pytest.fixture(scope="session")
def bs_params():
    return default_bs_params()


@pytest.fixture(scope="session")
def gx_stress():
    """The full-size stretched spot grid (m = 100)."""
    return make_grid(foulon_spec_x(100.0, m=100))


@pytest.fixture(scope="session")
def gv_stress():
    """The full-size stretched variance grid (n = 50)."""
    return make_grid(foulon_spec_v(n=50))


@pytest.fixture(scope="session")
def gx_small():
    return make_grid(foulon_spec_x(100.0, m=40))


@pytest.fixture(scope="session")
def gv_small():
    return make_grid(foulon_spec_v(n=20))


@pytest.fixture(scope="session")
def row_sum_check():
    """Callable asserting every row of M sums to -r, relative to the row scale.

    r is the discount rate of the parameters the operator was assembled from.

    Coefficients reach ~6e4 on the stretched grids, so the identity can only
    hold relative to the per-row coefficient magnitude; on O(1) rows the bound
    coincides with an absolute 1e-12.
    """
    def check(op, r, tol=1e-12):
        mat = to_sparse(op).tocsr()
        sums = np.asarray(mat.sum(axis=1)).ravel()
        scale = np.asarray(abs(mat).sum(axis=1)).ravel()
        err = np.abs(sums + r)
        bound = tol * np.maximum(1.0, scale)
        worst = (err - bound).max()
        assert worst <= 0.0, (
            f"row-sum deviation exceeds {tol} relative to row scale by {worst:.3e}")
    return check


def band(op, di, dj=0):
    """Lattice array of M's entries that couple node (i, j) to (i + di, j + dj).

    Read from op.matrix in CSR form; 0 where the neighbour lies off the
    lattice.  In 1-D only di is used.
    """
    offsets = (di,) if op.gv is None else (di, dj)
    rows = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offsets, op.shape))
    cols = tuple(slice(max(0, o), n + min(0, o)) for o, n in zip(offsets, op.shape))
    node = np.arange(op.size).reshape(op.shape)
    out = np.zeros(op.shape)
    entries = op.matrix.tocsr()[node[rows].ravel(), node[cols].ravel()]
    out[rows] = np.asarray(entries).reshape(out[rows].shape)
    return out


def _two_node_v_case(policy):
    # theta = v_min, so the grid without interior v nodes is allowed; with
    # n + 1 = 2 the cross bands share their offsets with d and e
    params = HestonParams(v0=0.12, theta=0.05, kappa=3.0, sigma=0.04, rho=0.6,
                          r=0.01, q=0.04, spot=100.0, strike=100.0, expiry=1.0)
    return assemble_heston(params, make_grid(foulon_spec_x(100.0, m=40)),
                           Grid1D(np.array([0.05, 0.40])), policy)


def operator_cases():
    """pytest params of zero-argument operator builders, every policy on each grid.

    1-D: the cubic A6 grid and a uniform one.  2-D: 101x51, 61x31, 41x21 and
    a two-node variance grid.  These are the grids whose DIA form must give
    the same numbers as M in sorted CSR form.
    """
    cases = []
    grids_1d = {"cubic": cubic_grid, "uniform": lambda: make_uniform(0.0, 150.0, 100)}
    for name, grid in grids_1d.items():
        for policy in UpwindPolicy:
            if policy is not UpwindPolicy.FOULON_REGION:
                cases.append(pytest.param(
                    lambda g=grid, p=policy: assemble_bs(default_bs_params(), g(), p),
                    id=f"1d-{name}-{policy.value}"))
    for m, n in ((100, 50), (60, 30), (40, 20)):
        for policy in UpwindPolicy:
            cases.append(pytest.param(
                lambda m=m, n=n, p=policy: assemble_heston(
                    default_heston_params(), make_grid(foulon_spec_x(100.0, m=m)),
                    make_grid(foulon_spec_v(n=n)), p),
                id=f"{m + 1}x{n + 1}-{policy.value}"))
    for policy in UpwindPolicy:
        cases.append(pytest.param(lambda p=policy: _two_node_v_case(p),
                                  id=f"2-node-v-{policy.value}"))
    return cases


def csr_oracle(op):
    """M in sorted CSR form, rebuilt from its dense array.

    No DIA kernel runs on it: products with it use the CSR kernels.
    """
    return scipy.sparse.csr_matrix(op.matrix.toarray())
