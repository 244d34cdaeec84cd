"""Dense nonsymmetric eigensolver for real matrices, generic over working precision.

The solver takes real matrices only: the PT form K that
``hamiltonian.assemble`` builds is real for every built-in potential.
Every matrix gets one real Schur decomposition A = Z T Z^T, kept on the
solution: from LAPACK (``dgees`` via scipy) in double precision, and from
``_fixed_schur.real_schur`` in extended precision, the Francis
double-shift QR of LAPACK ``dlahqr`` on fixed-point integers with
``GUARD_BITS`` bits beyond the mode's ``bits``.  Each complex conjugate
pair is read off its standardized 2 x 2 block of the quasi-triangular T
as a +- i sqrt|b| sqrt|c|, so pairs are bitwise conjugate, partners of
each other by construction, and real eigenvalues have an imaginary part of
exactly 0.  Extended T and Z come back as object arrays of ``mpf``, and
the extended kernel's normwise backward error is below that of floats of
``bits`` bits.

A block-diagonal matrix -- no nonzero entry couples the rows and columns
before some index with those from it on -- gets one Schur decomposition
per diagonal block, found from its nonzero pattern in O(n^2), written into
one n x n T and Z.  K splits so when A = 0, into its even and odd parity
blocks; with A != 0 it is one block.

Right eigenvectors for any subset of eigenvalues come from the same
factors in either precision, as one batch with their measured residuals:
a blocked back substitution on T for the selected columns only (the
algorithm of LAPACK ``dtrevc3``, in real arithmetic on a double real
form, where a 2 x 2 block is one small complex system per column), then
V = Z Y, so one decomposition serves both values and vectors.  One
routine serves both precisions.

A double-precision Schur decomposition of a block of order below
``_SERIAL_BELOW`` runs on one thread of the OpenBLAS behind scipy's
LAPACK: at that size the threads' synchronisation costs more than the
second core gains, and the count is restored after the call.  Larger
blocks run on the process's thread count.  numpy's own BLAS is never
touched, and where scipy's LAPACK does not export OpenBLAS's thread
controls the count is left as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import mpmath
import numpy as np
import scipy.linalg

from ._fixed_schur import ConvergenceError, real_schur
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

    ``schur`` holds (T, Z) with A = Z T Z^T, the real Schur form (T
    quasi-triangular): float64 in double precision and object arrays of
    ``mpf`` in extended precision.  A block-diagonal matrix has
    block-diagonal factors.  ``eigenvalues[k]`` is T[k, k], or one of the
    conjugate pair of the 2 x 2 block at rows k..k+1, the one with positive
    imaginary part first.  ``partners[k]`` is the position of the
    conjugate partner of ``eigenvalues[k]``, the other row of its block,
    or -1 for a real eigenvalue.  ``matrix_fro_norm`` is ||A||_F;
    eigenvector residuals are judged by the caller.  ``iteration_stats``
    is (QR sweeps,) of the extended kernel, summed over the diagonal
    blocks, and empty in double mode, where LAPACK does not report its
    sweeps.  ``lapack_threads`` is (threads the Schur decomposition of the
    largest block ran on, threads the process had) of scipy's OpenBLAS,
    each None where unknown; the first is None in extended mode, which
    makes no LAPACK call.
    """

    eigenvalues: np.ndarray
    partners: np.ndarray
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
    """Full spectrum of a dense real matrix at the requested precision.

    The matrix has a real dtype, or in extended mode is an object array of
    real numbers (``mpf``, or ``mpc`` with imaginary part 0); any other
    raises ValueError before a Schur decomposition starts.  One real Schur
    decomposition is kept on the solution for later eigenvector requests.
    A block-diagonal matrix gets one per diagonal block
    (``_diagonal_blocks``), written into one n x n T and Z.  Raises
    ConvergenceError when the QR iteration behind it fails to converge.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("eigenvalues expects a square matrix")
    if a.dtype.kind not in ("biufO" if precision.is_extended else "biuf"):
        raise ValueError(f"eigenvalues expects a real matrix, not {a.dtype}")
    if a.dtype == object:
        # rounded to double for the norm; an imaginary part too small to
        # survive the rounding is left to real_schur's own check
        rounded = to_complex128(a)
        if rounded.imag.any():
            raise ValueError("eigenvalues expects a real matrix")
        fro = float(np.linalg.norm(rounded))
    else:
        fro = float(np.linalg.norm(a))
    blocks = _diagonal_blocks(a)
    if len(blocks) == 1:  # T and Z as the solver returns them, no copy
        t, z, sweeps, threads = _block_schur(a, precision)
    else:
        t, z = _zeros(n, precision), _zeros(n, precision)
        sweeps = largest = 0
        for lo, hi in blocks:
            tb, zb, s, th = _block_schur(a[lo:hi, lo:hi], precision)
            t[lo:hi, lo:hi], z[lo:hi, lo:hi] = tb, zb
            del tb, zb
            sweeps += s
            if hi - lo > largest:
                largest, threads = hi - lo, th
    with working_precision(precision):
        values, partners = _real_schur_eigenvalues(t)
    stats = (sweeps,) if precision.is_extended else ()
    return EigenSolution(values, partners, fro, stats, precision,
                         schur=(t, z), lapack_threads=threads)


def _diagonal_blocks(a: np.ndarray) -> List[Tuple[int, int]]:
    """The finest split of ``a`` into diagonal blocks, as (first, stop) rows.

    Rows and columns lo..hi-1 form a block when no nonzero entry couples
    them with any outside it.  A block ends before k when no row above k
    has a nonzero from column k on, and no row from k on has one left of
    column k: O(n^2), reading rows only.
    """
    n = a.shape[0]
    nonzero = a != 0
    own = np.arange(n)
    empty = ~nonzero.any(axis=1)
    first = np.where(empty, own, np.minimum(np.argmax(nonzero, axis=1), own))
    last = np.where(empty, own,
                    np.maximum(n - 1 - np.argmax(nonzero[:, ::-1], axis=1), own))
    del nonzero
    # k = 1..n: nothing from rows < k reaches column k, nor from rows >= k left of k
    closed = np.maximum.accumulate(last) < own + 1
    closed[:-1] &= np.minimum.accumulate(first[::-1])[::-1][1:] >= own[1:]
    ends = np.flatnonzero(closed) + 1
    return list(zip([0, *ends[:-1].tolist()], ends.tolist()))


def _block_schur(a: np.ndarray, precision: ScalarPrecision):
    """(T, Z, QR sweeps, ``lapack_threads``) of one diagonal block.

    The real Schur form: LAPACK in double precision (on one thread below
    order ``_SERIAL_BELOW``), the fixed-point kernel of ``_fixed_schur``
    in extended precision.  Double mode reports 0 sweeps.
    """
    if precision.is_extended:
        t, z, sweeps = real_schur(a, precision.bits)
        return t, z, sweeps, (None, _process_threads())
    try:
        with _lapack_threads(a.shape[0]) as threads:
            t, z = scipy.linalg.schur(np.asarray(a, dtype=np.float64),
                                      output="real")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(str(exc)) from exc
    return t, z, 0, threads


def _zeros(n: int, precision: ScalarPrecision) -> np.ndarray:
    """An n x n array of zeros in the carrier of the real Schur form."""
    if precision.is_extended:
        return np.full((n, n), mpmath.mpf(0), dtype=object)
    return np.zeros((n, n))


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

    Each pair sits in a standardized block [[a, b], [c, a]] with b c < 0,
    from LAPACK or ``_fixed_schur.real_schur``, whose eigenvalues are
    a +- i sqrt|b| sqrt|c|: bitwise conjugate, and partners of each other.
    A float64 T gives complex128 values; an object T of ``mpf`` gives
    ``mpc`` at the mpmath working precision.
    """
    k = np.flatnonzero(np.diagonal(t, -1))
    if t.dtype == object:
        omega = _mp_sqrt(np.abs(t[k, k + 1])) * _mp_sqrt(np.abs(t[k + 1, k]))
        imag = np.zeros(len(t), dtype=object)
        imag[k], imag[k + 1] = omega, -omega
        values = _mp_complex(np.diagonal(t), imag)
    else:
        omega = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
        values = np.diagonal(t).astype(np.complex128)
        values.real[k + 1] = values.real[k]
        values.imag[k] = omega
        values.imag[k + 1] = -omega
    partners = np.full(len(values), -1)
    partners[k], partners[k + 1] = k + 1, k
    return values, partners


# elementwise mpmath.sqrt, mpmath.mpc(re, im) and mpmath.im over object arrays
_mp_sqrt = np.frompyfunc(mpmath.sqrt, 1, 1)
_mp_complex = np.frompyfunc(mpmath.mpc, 2, 1)
_mp_imag = np.frompyfunc(mpmath.im, 1, 1)


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

    T is a real Schur form, float64 or object of ``mpf``: quasi-triangular
    with standardized 2 x 2 blocks [[a, b], [c, a]], read off its nonzero
    subdiagonal entries.  Column c solves
    (T - lam[c] I) y = 0 for the eigenvalue lam[c] at position ks[c].  Its
    own diagonal block is seeded with the block's exact eigenvector, 1 on a
    1 x 1 block and [b, i Im lam] on a 2 x 2 one, and the rows below that
    block are 0.  Only rows up to the last column's own block are
    returned, complex128 for a double T and object for an object one.

    The algorithm is that of LAPACK ``dtrevc3``, in real arithmetic on a
    float64 T; an object T multiplies its ``mpf`` entries into the ``mpc``
    columns directly.
    Rows are solved bottom-up in panels of ``_BACKSUB_BLOCK`` rows anchored
    at its multiples from row 0, so the panels do not depend on which other
    columns share the batch; the matrix products' shapes still do, and
    with them the rounding.  Within a panel each diagonal block is solved
    for all columns still open there, with the divisors and 2 x 2 inverses
    that ``_block_solvers`` computes for the whole panel at once; then one
    matrix product carries the panel to every row above it.
    """
    real = t.dtype == np.float64
    n, m = t.shape[0], len(ks)
    # pair[j]: rows j, j+1 hold a 2 x 2 block; pair[-1] == pair[n] is False
    pair = np.zeros(n + 1, dtype=bool)
    pair[:n - 1] = np.diagonal(t, -1) != 0
    own = ks - pair[ks - 1]  # first row of each column's own block
    size = int(own[-1]) + 1 + int(pair[own[-1]])
    y = np.zeros((size, m), dtype=object if t.dtype == object else np.complex128)
    cols = np.arange(m)
    single = ~pair[own]
    y[own[single], cols[single]] = 1
    double = own[~single]
    imag = (_mp_imag if lam.dtype == object else np.imag)(lam[~single])
    y[double, cols[~single]] = t[double, double + 1]
    y[double + 1, cols[~single]] = 1j * imag
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
