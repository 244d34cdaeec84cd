"""Dense nonsymmetric eigensolver, generic over working precision.

Every matrix gets one Schur decomposition, kept on the solution; the
eigenvalues come from its (quasi-)triangular factor.  A real double matrix
-- the PT form K that ``hamiltonian.assemble`` builds -- gets the real
Schur form A = Z T Z^T from LAPACK (``dgees`` via scipy): each complex
conjugate pair is read off its standardized 2 x 2 block as
a +- i sqrt|b| sqrt|c|, so pairs are bitwise conjugate and real
eigenvalues have an imaginary part of exactly 0.0.  A complex double
matrix gets the complex Schur form A = Z T Z^H (``zgees``).  The extended
mode takes the complex form of the unrounded object matrix, real or
complex, from ``_fixed_schur``: mpmath's Hessenberg-QR algorithm run on
fixed-point Gaussian integers with ``GUARD_BITS`` bits beyond the mode's
113, whose normwise backward error is below that of 113-bit floats.  T and
Z come back as object arrays of ``mpc``.  Each eigenvalue's conjugate partner
is read off the same decomposition: the two positions of a 2 x 2 block of
a real form, exactly; in a complex form, the mutually nearest conjugate
within the solver's residual bound.  Right eigenvectors for any subset of
eigenvalues come from the same factors in either precision: a blocked
back substitution on the triangular T for the selected columns only (the
algorithm of LAPACK ``ztrevc3``), then V = Z Y, so one decomposition
serves both values and vectors.  A real Schur form is made triangular for
this, one unitary 2 x 2 rotation per block, only when vectors are asked
for.

A double-precision Schur decomposition of order below ``_SERIAL_BELOW``
runs on one thread of the OpenBLAS behind scipy's LAPACK: at that size the
threads' synchronisation costs more than the second core gains, and the
count is restored after the call.  Larger matrices run on the process's
thread count.  numpy's own BLAS is never touched, and where scipy's LAPACK
does not export OpenBLAS's thread controls the count is left as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from ._fixed_schur import ConvergenceError, complex_schur
from .precision import DOUBLE, ScalarPrecision, to_complex128, working_precision

#: Residual tolerance factors (times ||A||_F) per precision mode.
RESIDUAL_TOL = {"double64": 1e-10, "extended128": 1e-24}

# rows per diagonal block of the triangular back substitution, and
# eigenvectors per batch (bounds the n x batch work arrays)
_BACKSUB_BLOCK = 64
_VECTOR_BATCH = 512

# matrices of lower order take their double Schur form on one LAPACK thread
_SERIAL_BELOW = 512


@dataclass(frozen=True)
class EigenSolution:
    """All eigenvalues of one matrix plus its Schur factors.

    ``schur`` holds (T, Z) with A = Z T Z^H: the real Schur form (float64,
    T quasi-triangular) for a real double matrix, the complex Schur form
    (complex128) for a complex one, and the complex form as object arrays
    of mpmath scalars in extended mode.  ``eigenvalues[k]`` is T[k, k], or
    one of the conjugate pair of the 2 x 2 block at rows k..k+1 of a real
    form, the one with positive imaginary part first.  ``partners[k]`` is
    the position of the conjugate partner of ``eigenvalues[k]``, or -1 when
    it has none.  ``matrix_fro_norm`` is ||A||_F and ``residual_bound`` its
    multiple accepted as an eigenvector residual.  ``iteration_stats`` is
    (QR sweeps,) of the extended kernel, and empty in double mode, where
    LAPACK does not report its sweeps.  ``lapack_threads`` is (threads the
    Schur decomposition ran on, threads the process had) of scipy's
    OpenBLAS, each None where unknown; the first is None in extended mode,
    which makes no LAPACK call.
    """

    eigenvalues: np.ndarray
    partners: np.ndarray
    residual_bound: float
    matrix_fro_norm: float
    iteration_stats: Tuple[int, ...]
    precision: ScalarPrecision
    schur: Tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    lapack_threads: Tuple[Optional[int], Optional[int]]

    def eigenvectors(self, matrix: np.ndarray, indices: Sequence[int]
                     ) -> Iterator[Tuple[int, Optional[np.ndarray]]]:
        """Yield (index, vector) for the eigenvalues at ``indices``.

        ``matrix`` is the matrix this solution was computed from; each
        vector is scaled so its largest entry is 1.  The vector is None
        when its residual ||A v - lambda v|| misses ``residual_bound``.
        Vectors are back-substituted on the Schur factors in batches and
        yielded in Schur order.
        """
        ks = np.unique(np.asarray(indices, dtype=np.intp))
        if not len(ks):
            return
        t, z = self.schur
        rotations = None
        if t.dtype == np.float64:
            t, rotations = _complex_schur_form(t, self.eigenvalues)
        a = np.asarray(matrix)
        target2 = self.residual_bound ** 2
        for start in range(0, len(ks), _VECTOR_BATCH):
            batch = ks[start:start + _VECTOR_BATCH]
            cols = np.arange(len(batch))
            with working_precision(self.precision):
                y = _triangular_eigenvectors(t, batch,
                                             self.precision.machine_epsilon)
                if rotations is not None:
                    y = _rotate_rows(y, *rotations)
                v = _product(z[:, :y.shape[0]], y)
                del y
                v /= v[np.argmax(np.abs(v), axis=0), cols]
                residual2 = (np.abs(_product(a, v) - v * t[batch, batch]) ** 2
                             ).sum(axis=0)
            for c in cols:
                yield int(batch[c]), v[:, c] if residual2[c] <= target2 else None


def eigenvalues(matrix: np.ndarray, precision: ScalarPrecision = DOUBLE) -> EigenSolution:
    """Full spectrum of a dense real or complex matrix at the requested precision.

    One Schur decomposition -- real for a real double matrix, complex
    otherwise -- kept on the solution for later eigenvector requests.
    Raises ConvergenceError when the QR iteration behind it fails to
    converge.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("eigenvalues expects a square matrix")
    fro = float(np.linalg.norm(to_complex128(a) if a.dtype == object else a))
    bound = RESIDUAL_TOL[precision.mode] * fro
    stats = ()
    if precision.is_extended:
        t, z, sweeps = complex_schur(a, precision.bits)
        stats = (sweeps,)
        threads = (None, _process_threads())
        values = t.diagonal().copy()
        with working_precision(precision):
            partners = _conjugate_partners(values, bound)
    else:
        real = a.dtype.kind in "biuf"
        try:
            with _lapack_threads(n) as threads:
                t, z = scipy.linalg.schur(
                    np.asarray(a, dtype=np.float64) if real else to_complex128(a),
                    output="real" if real else "complex")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(str(exc)) from exc
        if real:
            values, partners = _real_schur_eigenvalues(t)
        else:
            values = t.diagonal().copy()
            partners = _conjugate_partners(values, bound)
    return EigenSolution(values, partners, bound, fro, stats, precision,
                         schur=(t, z), lapack_threads=threads)


def _thread_controls(lib) -> Optional[Tuple]:
    """(get, set) of the OpenBLAS thread count that ``lib`` exports, or None.

    Tries scipy's renamed OpenBLAS first, then a plain one.
    """
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, f"{prefix}_get_num_threads", None)
        put = getattr(lib, f"{prefix}_set_num_threads", None)
        if get is not None and put is not None:
            get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
            return get, put
    return None


@functools.lru_cache(maxsize=None)
def _openblas_threads() -> Optional[Tuple]:
    """``_thread_controls`` of the library behind scipy's LAPACK."""
    try:
        from scipy.linalg import _flapack
        return _thread_controls(ctypes.CDLL(_flapack.__file__))
    except (ImportError, AttributeError, OSError):
        return None


def _process_threads() -> Optional[int]:
    """The OpenBLAS thread count behind scipy's LAPACK, or None if unknown."""
    controls = _openblas_threads()
    return None if controls is None else controls[0]()


@contextlib.contextmanager
def _lapack_threads(n: int) -> Iterator[Tuple[Optional[int], Optional[int]]]:
    """Run the block on one LAPACK thread when ``n < _SERIAL_BELOW``.

    Yields (threads in the block, threads before it), both None where the
    count cannot be read or set, and restores the count on exit, also on
    an exception.  The count is process-wide: solves in concurrent threads
    share it.
    """
    before = _process_threads()
    if before is None or before == 1 or n >= _SERIAL_BELOW:
        yield before, before
        return
    put = _openblas_threads()[1]
    put(1)
    try:
        yield 1, before
    finally:
        put(before)


def _real_schur_eigenvalues(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and conjugate partners of a real Schur form.

    LAPACK leaves each pair as a standardized block [[a, b], [c, a]] with
    b c < 0, whose eigenvalues are a +- i sqrt|b| sqrt|c|: bitwise
    conjugate, and partners of each other.
    """
    values = np.diagonal(t).astype(np.complex128)
    k = np.flatnonzero(np.diagonal(t, -1))
    omega = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
    values.real[k + 1] = values.real[k]
    values.imag[k] = omega
    values.imag[k + 1] = -omega
    partners = np.full(len(values), -1)
    partners[k], partners[k + 1] = k + 1, k
    return values, partners


def _conjugate_partners(values: np.ndarray, tol: float) -> np.ndarray:
    """Conjugate partners of the diagonal of a complex Schur form.

    j is the partner of i when each is the other's nearest conjugate,
    |lambda_i - conj(lambda_j)| minimal over j and over i, and that gap is
    at most ``tol``; -1 otherwise.  A real eigenvalue, or one whose
    imaginary part is rounding noise, is its own nearest conjugate and has
    no partner.  Object arrays need the mpmath working precision set.
    """
    gap = np.abs(values[:, None] - np.conj(values)[None, :]).astype(np.float64)
    nearest = np.argmin(gap, axis=1)
    own = np.arange(len(values))
    mutual = ((nearest != own) & (nearest[nearest] == own)
              & (gap[own, nearest] <= tol))
    return np.where(mutual, nearest, -1)


def _complex_schur_form(t: np.ndarray, values: np.ndarray):
    """Triangular complex form G^H T G of a real Schur form T.

    G is the identity but for one unitary block [[c, i s], [i s, c]] per
    2 x 2 block at rows k..k+1, whose first column is the block's
    eigenvector for values[k] = a + i sqrt|b| sqrt|c|.  Returns the complex
    triangular matrix, its diagonal set to ``values``, and (k, c, s) for
    ``_rotate_rows``; the orthogonal Z times G is the unitary factor of the
    complex form.
    """
    k = np.flatnonzero(np.diagonal(t, -1))
    b, c = t[k, k + 1], t[k + 1, k]
    r = np.sqrt(np.abs(b) + np.abs(c))
    cos, sin = np.sqrt(np.abs(b)) / r, np.sign(b) * np.sqrt(np.abs(c)) / r
    tc = t.astype(np.complex128)
    for j, cj, sj in zip(k, cos, sin):
        g = np.array([[cj, 1j * sj], [1j * sj, cj]])
        tc[j:j + 2, j:] = g.conj() @ tc[j:j + 2, j:]
        tc[:j + 2, j:j + 2] = tc[:j + 2, j:j + 2] @ g
    tc[k + 1, k] = 0
    np.fill_diagonal(tc, values)
    return tc, (k, cos, sin)


def _rotate_rows(y: np.ndarray, k: np.ndarray, cos: np.ndarray,
                 sin: np.ndarray) -> np.ndarray:
    """G y for the block rotations of ``_complex_schur_form``.

    y holds rows 0..len(y)-1 of vectors that vanish below; a block that
    starts on the last row adds one row.
    """
    if np.any(k == len(y) - 1):
        y = np.vstack([y, np.zeros((1, y.shape[1]), dtype=y.dtype)])
    inside = k + 1 < len(y)
    k, cos, sin = k[inside], cos[inside, None], sin[inside, None]
    upper, lower = y[k], y[k + 1]
    y[k] = cos * upper + 1j * sin * lower
    y[k + 1] = 1j * sin * upper + cos * lower
    return y


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a real ``a`` times a complex ``b`` without a complex copy of ``a``."""
    if a.dtype == np.float64 and b.dtype == np.complex128:
        b = np.ascontiguousarray(b).view(np.float64)
        return (a @ b).view(np.complex128)
    return a @ b


def _triangular_eigenvectors(t: np.ndarray, ks: np.ndarray, eps: float
                             ) -> np.ndarray:
    """Eigenvectors of upper triangular T for the ascending positions ``ks``.

    Column c solves (T - T[k, k] I) y = 0 with y[k] = 1 and y[j] = 0 for
    j > k, k = ks[c]; only rows 0..max(ks) are returned, with the dtype of
    T.  Rows are solved bottom-up in diagonal blocks: within a block one
    row at a time for all columns still open there, then one matrix
    product carries the block's contribution to every row above it.  A
    divisor smaller than eps * |T[k, k]| is raised to that size, as LAPACK
    ``ztrevc3`` does, so a (near-)repeated eigenvalue still yields a
    finite vector.
    """
    m = len(ks)
    lam = t[ks, ks]
    size = int(ks[-1]) + 1
    y = np.zeros((size, m), dtype=t.dtype)
    y[ks, np.arange(m)] = 1
    # |Re| + |Im| as in ztrevc3; on an object array .real is the array
    # itself and .imag is zero, so this reads |lambda| there
    smin = np.maximum(eps * (np.abs(lam.real) + np.abs(lam.imag)),
                      np.finfo(float).tiny)
    for hi in range(size, 0, -_BACKSUB_BLOCK):
        lo = max(hi - _BACKSUB_BLOCK, 0)
        for j in range(hi - 1, lo - 1, -1):
            # columns whose eigenvalue sits below row j
            s = int(np.searchsorted(ks, j, side="right"))
            if s == m:
                continue
            acc = y[j, s:] + t[j, j + 1:hi] @ y[j + 1:hi, s:]
            d = t[j, j] - lam[s:]
            d = np.where(np.abs(d) < smin[s:], smin[s:], d)
            y[j, s:] = -acc / d
        s = int(np.searchsorted(ks, lo, side="left"))
        if lo > 0 and s < m:
            y[:lo, s:] += t[:lo, lo:hi] @ y[lo:hi, s:]
    return y
