"""Implicit reference solvers on banded LU factorizations.

The vectorized operator is banded, and its half-bandwidth is M's widest
diagonal offset: the band array is sized from M itself, and the factorization
reads the size back from the array.  Systems (alpha I + beta M) are assembled
directly in Fortran-ordered LAPACK band storage and factored once per run, in
place: gbtrf overwrites the band array with its LU factors, so a
factorization holds no second copy of it.

A factorization without row interchanges (gbtrf has not pivoted on the 2-D
Heston CN systems at l >= 50; it does at l <= 7 on 41x21) keeps only its
triangles, packed: unit-lower L with kl subdiagonals and U with only ku
superdiagonals, since the fill rows above U stay zero.  Its solve is two BLAS
`tbsv` calls, bit-identical to `gbtrs` and about half its time, because
`gbtrs` sweeps U over kl + ku superdiagonals.
A factorization that pivoted (the cubic-grid 1-D systems do) solves with
`gbtrs`.

BLAS is called through the pointers `scipy.linalg.cython_blas` exports, by
ctypes.  The two `tbsv` calls of a solve go through CFUNCTYPE, which releases
the GIL for each (the f2py wrappers hold it), so CN can run beside other work:
two threads of 2,000 solves took 0.68 s this way against 1.39 s serial, and
1.12 s against 1.05 s through f2py; same kernel, same bits.  Everything else
a CN step holds the GIL and is kept to a few microseconds: the right-hand
side is copied through a memoryview, the reflection is a `daxpy` through
PYFUNCTYPE, and the ctypes arguments of the triangles are built once per
factorization.  A thread that releases the GIL waits for it again on its way
back, so every extra release (a numpy copy or ufunc on a long vector does one)
and every long hold makes the CN thread and the thread beside it queue.

Two references are provided: Crank-Nicolson with a Rannacher start-up (two
half-step implicit-Euler pairs smooth the non-smooth payoff before the
trapezoidal steps), and the two-stage composite TR-BDF2 scheme, which is
L-stable and needs no start-up.  Neither applies M: with A = I - (k/2) M, a
trapezoidal step A^-1 (I + (k/2) M) y is the implicit-midpoint 2 A^-1 y - y,
one band solve and a reflection (in CN one `daxpy`).  Fields agree with the
written-order recurrence (matvec, then solve) to 32 l eps max|y0|, not bitwise.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, byref, c_char_p, c_double, c_int, c_void_p, py_object
from dataclasses import dataclass

import numpy as np
from scipy.linalg.cython_blas import __pyx_capi__ as _blas_capsules
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .operators import StencilOperator

__all__ = [
    "BandedLU",
    "operator_banded",
    "banded_factor",
    "crank_nicolson_run",
    "trbdf2_run",
]


def _capsule_pointer(capsule) -> int:
    name = ctypes.PYFUNCTYPE(c_char_p, py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    return ctypes.PYFUNCTYPE(c_void_p, py_object, c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)


def _blas(name: str, functype, *argtypes):
    return functype(None, *argtypes)(_capsule_pointer(_blas_capsules[name]))


_INT = POINTER(c_int)
# dtbsv(uplo, trans, diag, n, k, a, lda, x, incx), through CFUNCTYPE: drops the GIL
_DTBSV = _blas("dtbsv", ctypes.CFUNCTYPE, c_char_p, c_char_p, c_char_p, _INT, _INT,
               c_void_p, _INT, POINTER(c_double), _INT)
# daxpy(n, alpha, x, incx, y, incy), through PYFUNCTYPE: holds the GIL
_DAXPY = _blas("daxpy", ctypes.PYFUNCTYPE, _INT, POINTER(c_double), c_void_p, _INT,
               c_void_p, _INT)
_ONE = byref(c_int(1))
_MINUS_TWO = byref(c_double(-2.0))


def _tbsv_args(uplo: bytes, diag: bytes, a: np.ndarray) -> tuple:
    """dtbsv's arguments up to x for A in Fortran-ordered BLAS band storage.

    The data_as pointer holds a reference to a, so it cannot dangle.
    """
    k, n = a.shape[0] - 1, a.shape[1]
    return (uplo, b"N", diag, byref(c_int(n)), byref(c_int(k)),
            a.ctypes.data_as(c_void_p), byref(c_int(k + 1)))


@dataclass
class BandedLU:
    """Factored band matrix of order n = ipiv.size; solve() is reusable and read-only.

    lower/upper: L and U of an unpivoted factorization in Fortran-ordered
    BLAS band storage (k + 1 rows for k off-diagonals), None when gbtrf
    pivoted.  lu: the gbtrf factors that gbtrs solves with when it pivoted
    (3 kl + 1 rows), None otherwise.
    """

    lu: np.ndarray | None
    ipiv: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):  # the ctypes arguments, built once
        self._tbsv = None if self.upper is None else (
            _tbsv_args(b"L", b"U", self.lower), _tbsv_args(b"U", b"N", self.upper))

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A^-1 rhs, written to out (a fresh array if None) and returned.

        out must be a writeable C-contiguous float64 array of shape (n,) that
        does not overlap rhs; rhs is only read.
        """
        b = np.ascontiguousarray(rhs, dtype=float)
        if b.shape != self.ipiv.shape:
            raise ValueError(f"rhs length: need shape {self.ipiv.shape}, got {np.shape(rhs)}")
        if out is None:
            out = np.empty(b.shape)
        elif not (isinstance(out, np.ndarray) and out.shape == b.shape
                  and out.dtype == b.dtype and out.flags.c_contiguous
                  and out.flags.writeable):
            raise ValueError(f"out: need a writeable C-contiguous float64 array "
                             f"of shape {b.shape}")
        elif np.may_share_memory(out, rhs):
            raise ValueError("out: must not overlap rhs")
        # the memoryview copy and from_buffer keep the GIL and are quick: a
        # numpy copy would drop and retake it, and .ctypes.data takes
        # microseconds an array
        memoryview(out)[:] = memoryview(b)
        if self._tbsv is None:
            kl = (self.lu.shape[0] - 1) // 3
            _, info = dgbtrs(self.lu, kl, kl, out, self.ipiv, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"gbtrs failed with info={info}")
            return out
        x = c_double.from_buffer(out)
        lower, upper = self._tbsv
        _DTBSV(*lower, x, _ONE)
        _DTBSV(*upper, x, _ONE)
        return out


def operator_banded(op: StencilOperator, alpha: float, beta: float) -> np.ndarray:
    """alpha I + beta M in LAPACK general-band storage, Fortran-ordered for an
    in-place gbtrf.

    kl = ku = M's widest diagonal offset.  The array has shape (3 kl + 1, n);
    entry (i, j) of the dense matrix lives at ab[2 kl + i - j, j], and the kl
    rows on top hold pivoting fill-in.  Each diagonal of M (DIA form) fills
    one row.  Only its nonzeros are written, so ab holds +0.0 where M has no
    entry, never -0.0 from beta < 0.
    """
    kl, n = int(np.abs(op.matrix.offsets).max(initial=0)), op.size
    ab = np.zeros((3 * kl + 1, n), order="F")
    for off, diag in zip(op.matrix.offsets.tolist(), op.matrix.data):
        lo, hi = max(0, off), min(n, n + off, diag.size)
        np.multiply(diag[lo:hi], beta, out=ab[2 * kl - off, lo:hi],
                    where=diag[lo:hi] != 0.0)
    ab[2 * kl, :] += alpha
    return ab


def banded_factor(ab: np.ndarray) -> BandedLU:
    """LU factorization with partial pivoting within the band.

    ab is a band array as operator_banded builds it: kl = ku = (rows - 1) / 3
    and n = its column count.  A Fortran-ordered ab is consumed, factored in
    place.  It becomes the returned lu if gbtrf pivoted; otherwise only the
    packed triangles are kept and lu is None.
    """
    kl = (ab.shape[0] - 1) // 3
    if ab.shape[0] != 3 * kl + 1:
        raise ValueError(f"band array: need 3 kl + 1 rows, got {ab.shape[0]}")
    lu, ipiv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"gbtrf: illegal argument {-info}")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"matrix singular to working precision (U[{info - 1},{info - 1}] = 0)")
    lower = upper = None
    if np.array_equal(ipiv, np.arange(ipiv.size)):  # ipiv is 0-based: no interchange
        lower = np.asfortranarray(lu[2 * kl:])
        upper = np.asfortranarray(lu[kl:2 * kl + 1])
        lu = None
    return BandedLU(lu, ipiv, lower, upper)


def crank_nicolson_run(op: StencilOperator, initial: np.ndarray, expiry: float,
                       l: int) -> np.ndarray:
    """Integrate df/dt = M f with CN and a Rannacher start-up.

    The first two macro-steps are taken as four implicit-Euler half-steps;
    both phases solve against A = I - (k/2) M, so one factorization serves the
    whole run.  Each CN step is one solve and a reflection, 2 A^-1 y - y, taken
    in place on two vectors; fields are bitwise those of a loop that writes
    2 A^-1 y - y into fresh arrays.
    """
    if l < 3:
        raise ValueError(f"need l >= 3 (two start-up steps plus CN), got {l}")
    if not expiry > 0.0:
        raise ValueError(f"need expiry > 0, got {expiry!r}")
    if np.shape(initial) != op.shape:
        raise ValueError(f"initial shape {np.shape(initial)} != operator shape {op.shape}")
    lu = banded_factor(operator_banded(op, 1.0, -0.5 * expiry / l))  # k = expiry / l
    w = lu.solve(np.ravel(initial))
    z = np.empty_like(w)
    for _ in range(3):
        z, w = w, lu.solve(w, out=z)
    # after k CN steps w = (-1)^k y_k, since w - 2 A^-1 w = -(2 A^-1 y_k - y_k):
    # a step is one solve into z and one daxpy, and releases the GIL only in
    # the solve's two tbsv calls
    n, wp, zp = byref(c_int(w.size)), w.ctypes.data, z.ctypes.data
    for _ in range(l - 2):
        lu.solve(w, out=z)
        _DAXPY(n, _MINUS_TWO, zp, _ONE, wp, _ONE)
    if l % 2:
        np.subtract(0.0, w, out=w)  # not -w: zeros stay +0.0, as 2 z - y writes them
    return w.reshape(op.shape)


TRBDF2_GAMMA = 2.0 - np.sqrt(2.0)


def trbdf2_run(op: StencilOperator, initial: np.ndarray, expiry: float,
               l: int) -> np.ndarray:
    """Integrate df/dt = M f with the composite TR-BDF2 scheme (1-D only).

    Each step runs a trapezoidal stage over gamma k in CN's midpoint form,
    then a BDF2 stage over the remainder, gamma = 2 - sqrt(2); both stage
    matrices are factored once.  L-stability makes a start-up phase unnecessary.
    """
    if op.gv is not None:
        raise ValueError("trbdf2_run supports the one-dimensional operator only")
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    if not expiry > 0.0:
        raise ValueError(f"need expiry > 0, got {expiry!r}")
    g, k = TRBDF2_GAMMA, expiry / l
    lu_tr = banded_factor(operator_banded(op, 1.0, -0.5 * g * k))
    lu_bdf = banded_factor(operator_banded(op, 1.0, -k * (1.0 - g) / (2.0 - g)))
    c_mid = 1.0 / (g * (2.0 - g))
    c_old = (1.0 - g) ** 2 / (g * (2.0 - g))
    y = np.array(initial, dtype=float, copy=True)
    for _ in range(l):
        y_mid = 2.0 * lu_tr.solve(y) - y
        y = lu_bdf.solve(c_mid * y_mid - c_old * y)
    return y
