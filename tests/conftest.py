"""Shared fixtures: stress-case parameters and grids reused across test modules.

Also `band`, which reads one stencil coefficient array off the matrix M.
"""

import numpy as np
import pytest

from stslab.experiments import (default_bs_params, default_heston_params,
                                foulon_grid_v, foulon_grid_x)
from stslab.operators import to_sparse


@pytest.fixture(scope="session")
def heston_params():
    return default_heston_params()

@pytest.fixture(scope="session")
def bs_params():
    return default_bs_params()


@pytest.fixture(scope="session")
def gx_stress():
    """The full-size stretched spot grid (m = 100)."""
    return foulon_grid_x(100.0, m=100)


@pytest.fixture(scope="session")
def gv_stress():
    """The full-size stretched variance grid (n = 50)."""
    return foulon_grid_v(n=50)


@pytest.fixture(scope="session")
def gx_small():
    return foulon_grid_x(100.0, m=40)


@pytest.fixture(scope="session")
def gv_small():
    return foulon_grid_v(n=20)


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

    Read from op.matrix; 0 where the neighbour lies off the lattice.  In 1-D
    only di is used.
    """
    offsets = (di,) if op.gv is None else (di, dj)
    rows = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offsets, op.shape))
    cols = tuple(slice(max(0, o), n + min(0, o)) for o, n in zip(offsets, op.shape))
    node = np.arange(op.size).reshape(op.shape)
    out = np.zeros(op.shape)
    entries = op.matrix[node[rows].ravel(), node[cols].ravel()]
    out[rows] = np.asarray(entries).reshape(out[rows].shape)
    return out
