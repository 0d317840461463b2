"""Spectral-radius bounds and dense eigenvalue analysis of the operator.

The Gershgorin bound feeds stage-count selection; the dense spectrum
reproduces the eigenvalue comparison between upwinding policies (the fitted
operator's spectrum collapses toward the real axis, the region-restricted one
keeps large imaginary parts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse

from .operators import StencilOperator

__all__ = ["Spectrum", "gershgorin_radius", "eigenvalues_dense", "write_spectrum"]

DENSE_GUARD = 10000


@dataclass
class Spectrum:
    """Eigenvalues of a scaled operator matrix, sorted by (Re, Im)."""

    eigenvalues: np.ndarray
    max_real: float
    max_abs_imag: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)


def gershgorin_radius(op: StencilOperator) -> float:
    """Max over rows of |diagonal| + sum of |off-diagonals| of M.

    Upper bound on the spectral radius.  Rows are summed in CSR form: the
    DIA row sum groups a row's terms differently and can differ in the last bit.
    """
    return float(abs(op.matrix).tocsr().sum(axis=1).max())


def eigenvalues_dense(mat, scale: float = 1.0) -> Spectrum:
    """Full spectrum of scale * M via dense QR iteration.

    mat may be a sparse matrix or a dense array; dimension is capped at
    DENSE_GUARD.  One private Fortran-ordered copy of M is scaled in place and
    overwritten by geev, so the peak is one n x n array; mat is not modified.
    """
    n = np.shape(mat)[0]
    if n > DENSE_GUARD:
        raise ValueError(
            f"matrix dimension {n} exceeds the dense guard {DENSE_GUARD}; "
            "coarsen the grid or use an iterative eigensolver externally")
    if scipy.sparse.issparse(mat):
        dense = mat.toarray(order="F")
    else:
        dense = np.array(mat, dtype=float, order="F")
    if dense.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {dense.shape}")
    dense *= scale
    # min and max propagate NaN and expose +-inf without an n x n temporary
    if not (np.isfinite(dense.min()) and np.isfinite(dense.max())):
        raise ValueError("matrix must not contain infs or NaNs")
    lam = scipy.linalg.eigvals(dense, overwrite_a=True, check_finite=False)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    return Spectrum(eigenvalues=lam,
                    max_real=float(lam.real.max()),
                    max_abs_imag=float(np.abs(lam.imag).max()))


def write_spectrum(spec: Spectrum, path) -> None:
    """CSV of re,im rows plus a JSON sidecar with the summary statistics."""
    path = Path(path)
    with open(path, "w") as fh:
        fh.write("re,im\n")
        for lam in spec.eigenvalues:
            fh.write(f"{float(lam.real)!r},{float(lam.imag)!r}\n")
    sidecar = path.with_suffix(".json")
    with open(sidecar, "w") as fh:
        json.dump({"max_real": spec.max_real,
                   "max_abs_imag": spec.max_abs_imag,
                   "n": spec.n}, fh, indent=2)
        fh.write("\n")
