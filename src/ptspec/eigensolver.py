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
``bits``, whose normwise backward error is below that of floats of that
length.  T and Z come back as object arrays of ``mpc``.  Each eigenvalue's
conjugate partner is read off the same decomposition: the two positions of
a 2 x 2 block of a real form, exactly; in a complex form, the mutually
nearest conjugate within the solver's residual bound, the precision's
``residual_tol`` times ||A||_F.  Right eigenvectors for any subset of
eigenvalues come from the same factors in either precision, as one batch
with their measured residuals: a blocked back substitution on T for the
selected columns only (the algorithm of LAPACK ``dtrevc3``, in real
arithmetic on a real form, where a 2 x 2 block is one small complex
system per column), then V = Z Y, so one decomposition serves both values
and vectors.  One routine serves the real, the complex and the extended
form.

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

# rows per diagonal block of the triangular back substitution, and
# eigenvectors per batch (bounds the n x batch work arrays)
_BACKSUB_BLOCK = 64
_VECTOR_BATCH = 1024

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
    multiple ``precision.residual_tol``, the largest gap at which two
    eigenvalues of a complex form are paired as conjugates; eigenvector
    residuals are judged by the caller.  ``iteration_stats`` is
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
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right eigenvectors for the eigenvalues at ``indices``, as one batch.

        ``matrix`` is the matrix A this solution was computed from.  Returns
        (ks, vectors, residuals): the distinct indices in ascending order;
        an n x len(ks) array whose column c is the eigenvector of
        ``eigenvalues[ks[c]]``, scaled so its largest entry is 1 (complex128,
        or object in extended mode); and each column's relative residual
        ||A v - lambda v|| / ||A||_F (float64).  The caller judges the
        residual; the solver's own bound is ``precision.residual_tol``.
        Vectors are back-substituted on the Schur factors, at most
        ``_VECTOR_BATCH`` columns at a time.
        """
        ks = np.unique(np.asarray(indices, dtype=np.intp))
        t, z = self.schur
        a = np.asarray(matrix)
        # per batch, after an empty part that holds the shapes for no index
        vectors = [np.empty((a.shape[0], 0),
                            dtype=object if t.dtype == object else np.complex128)]
        residual2 = [np.empty(0)]
        with working_precision(self.precision):
            for start in range(0, len(ks), _VECTOR_BATCH):
                batch = ks[start:start + _VECTOR_BATCH]
                lam = self.eigenvalues[batch]
                y = _schur_eigenvectors(t, batch, lam,
                                        self.precision.machine_epsilon)
                v = _product(z[:, :y.shape[0]], y)
                del y
                v /= v[np.argmax(np.abs(v), axis=0), np.arange(len(batch))]
                r = _product(a, v)
                r -= v * lam
                vectors.append(v)
                residual2.append((np.abs(r) ** 2).sum(axis=0).astype(np.float64))
                del r
        # a single batch is returned as computed, without a copy
        vectors = (vectors[1] if len(vectors) == 2
                   else np.concatenate(vectors, axis=1))
        residuals = np.sqrt(np.concatenate(residual2))
        return ks, vectors, residuals / (self.matrix_fro_norm or 1.0)


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
    bound = precision.residual_tol * fro
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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b.

    A real ``a`` times a complex ``b`` is one real product over b's
    interleaved real and imaginary parts, without a complex copy of ``a``;
    the last axis of ``b`` must be contiguous.
    """
    if a.dtype == np.float64 and b.dtype == np.complex128:
        return (a @ b.view(np.float64)).view(np.complex128)
    return a @ b


def _schur_eigenvectors(t: np.ndarray, ks: np.ndarray, lam: np.ndarray,
                        eps: float) -> np.ndarray:
    """Eigenvectors of the Schur factor T for the ascending positions ``ks``.

    T is upper triangular -- a complex Schur form, complex128 or object --
    or real quasi-triangular with LAPACK's standardized 2 x 2 blocks
    [[a, b], [c, a]].  Column c solves (T - lam[c] I) y = 0 for the
    eigenvalue lam[c] at position ks[c].  Its own diagonal block is seeded
    with the block's exact eigenvector, 1 on a 1 x 1 block and [b, i Im lam]
    on a 2 x 2 one, and the rows below that block are 0.  Only rows up to
    the last column's own block are returned, complex128 for a double T and
    object for an object one.

    The algorithm is that of LAPACK ``dtrevc3`` (``ztrevc3`` on a
    triangular T), in real arithmetic on a real T.  Rows are solved
    bottom-up in panels of ``_BACKSUB_BLOCK`` rows anchored at its multiples
    from row 0, so the panels do not depend on which other columns share
    the batch; the matrix products' shapes still do, and with them the
    rounding.  Within a panel each diagonal block is solved
    for all columns still open there, with the divisors and 2 x 2 inverses
    that ``_block_solvers`` computes for the whole panel at once; then one
    matrix product carries the panel to every row above it.
    """
    real = t.dtype == np.float64
    n, m = t.shape[0], len(ks)
    # pair[j]: rows j, j+1 hold a 2 x 2 block; pair[-1] == pair[n] is False
    pair = np.zeros(n + 1, dtype=bool)
    if real:
        pair[:n - 1] = np.diagonal(t, -1) != 0
    own = ks - pair[ks - 1]  # first row of each column's own block
    size = int(own[-1]) + 1 + int(pair[own[-1]])
    y = np.zeros((size, m), dtype=object if t.dtype == object else np.complex128)
    cols = np.arange(m)
    single = ~pair[own]
    y[own[single], cols[single]] = 1
    if real:
        double = own[~single]
        y[double, cols[~single]] = t[double, double + 1]
        y[double + 1, cols[~single]] = 1j * lam[~single].imag
    # |Re| + |Im| as in dtrevc3; on an object array .real is the array
    # itself and .imag is zero, so this reads |lambda| there
    smin = np.maximum(eps * (np.abs(lam.real) + np.abs(lam.imag)),
                      np.finfo(float).tiny)
    # a real T multiplies the real and imaginary parts of y as one real matrix
    flat, width = (y.view(np.float64), 2) if real else (y, 1)

    edges = [0, *(e - int(pair[e - 1]) for e in range(_BACKSUB_BLOCK, size,
                                                       _BACKSUB_BLOCK)), size]
    for lo, hi in reversed(list(zip(edges[:-1], edges[1:]))):
        first = int(np.searchsorted(own, lo, side="right"))  # open in the panel
        if first < m:
            divisor, inverse = _block_solvers(t, lo, hi, pair, lam[first:],
                                              smin[first:])
            rows = np.arange(lo, hi)
            tops = rows[~pair[rows - 1]]  # the panel's diagonal blocks
            bottoms = np.append(tops[1:], hi) - 1
            # columns whose own block lies below each diagonal block
            opens = np.searchsorted(own, bottoms, side="right")
            for top, end, s in zip(tops[::-1].tolist(), (bottoms[::-1] + 1).tolist(),
                                    opens[::-1].tolist()):
                if s == m:
                    continue
                block = top if end - top == 1 else slice(top, end)
                r = y[block, s:] + (t[block, end:hi]
                                    @ flat[end:hi, width * s:]).view(y.dtype)
                if end - top == 1:
                    y[top, s:] = -r / divisor[top - lo, s - first:]
                else:
                    y[block, s:] = (inverse[top - lo:end - lo, :, s - first:]
                                    * r).sum(axis=1)
        s = int(np.searchsorted(own, lo, side="left"))
        if lo > 0 and s < m:
            flat[:lo, width * s:] += t[:lo, lo:hi] @ flat[lo:hi, width * s:]
    return y


def _block_solvers(t: np.ndarray, lo: int, hi: int, pair: np.ndarray,
                   lam: np.ndarray, smin: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """What solves each diagonal block B of T in rows lo..hi-1, per lam.

    Returns (divisor, inverse).  ``divisor[j - lo, c]`` is T[j, j] - lam[c],
    raised to ``smin[c]`` when smaller, for a 1 x 1 block at row j.
    ``inverse[j - lo, k, c]`` is entry (j, k) of -(B - lam[c] I)^-1 for a
    2 x 2 block B, j counted from the block's first row; its determinant,
    when below ``smin[c]`` times the system's largest entry, is raised to
    that, as LAPACK ``dlaln2`` does.  So a (near-)repeated eigenvalue still
    yields a finite vector.  Rows of the other block size are left unused.
    """
    d = np.diagonal(t)[lo:hi, None] - lam[None, :]
    divisor = np.where(np.abs(d) < smin, smin, d)
    inverse = np.zeros((hi - lo, 2, len(lam)), dtype=d.dtype)
    rows = np.arange(lo, hi)
    top = rows[pair[rows]] - lo
    if top.size:
        m00, m11 = d[top], d[top + 1]
        m01 = t[top + lo, top + lo + 1][:, None]
        m10 = t[top + lo + 1, top + lo][:, None]
        det = m00 * m11 - m01 * m10
        floor = smin * np.maximum(np.maximum(np.abs(m00), np.abs(m11)),
                                  np.maximum(np.abs(m01), np.abs(m10)))
        inv = 1 / np.where(np.abs(det) < floor, floor, det)
        inverse[top, 0], inverse[top, 1] = -m11 * inv, m01 * inv
        inverse[top + 1, 0], inverse[top + 1, 1] = m10 * inv, -m00 * inv
    return divisor, inverse
