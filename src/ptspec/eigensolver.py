"""Dense nonsymmetric eigensolver for real matrices, generic over working precision.

The solver takes real matrices only: the PT form K that
``hamiltonian.assemble`` builds is real for every built-in potential.
Every matrix gets one real Schur decomposition, whose factors are kept on
the solution.  In double precision it comes in three factors,
A = (Q Z) T (Q Z)^T: LAPACK ``dgehrd`` reduces A to Hessenberg form
H = Q^T A Q, and ``dhseqr`` takes H = Z T Z^T, both called through ctypes
in the OpenBLAS that numpy itself is built on.  Q is kept as ``dgehrd``'s
Householder reflectors, in panels of about n^2 / 2 entries
(``_SchurBlock``), and is never formed: it is applied only to the
eigenvectors asked for.  Extended precision runs
``_fixed_schur.real_schur``, the same two steps on fixed-point integers
with ``GUARD_BITS`` bits beyond the mode's ``bits``: Householder
reduction, its reflectors recorded, then the Francis double-shift QR of
LAPACK ``dlahqr`` on H alone.  It keeps no orthogonal factor at all: only
H as it was before the QR, and the reflectors (``_fixed_schur.Hessenberg``).
Each complex conjugate pair is read off its standardized 2 x 2 block of
the quasi-triangular T as a +- i sqrt|b| sqrt|c|, so pairs are bitwise
conjugate, partners of each other by construction, and real eigenvalues
have an imaginary part of exactly 0.  Extended eigenvalues are ``mpc``
rounded once from T's integers, and the extended kernel's normwise
backward error is below that of floats of ``bits`` bits.  mpmath and
``_fixed_schur`` are imported by the extended branches only, so a
double-precision solve loads neither.

A block-diagonal matrix -- no nonzero entry couples the rows and columns
before some index with those from it on -- gets one Schur decomposition
per diagonal block, found from its nonzero pattern in O(n^2), and keeps
one factor per block with its first row ``lo``: its own T, Z and
reflectors in double precision (``_SchurBlock``), its own H and
reflectors in extended (``_fixed_schur.Hessenberg``).  K splits so when
A = 0, into its even and odd parity blocks; with A != 0 it is one block.
Extended precision solves the blocks one after another, as
``real_schur`` is Python code and mpmath's precision is process-wide.

Right eigenvectors for any subset of eigenvalues come from the same
factors, as one batch with their measured residuals, so one decomposition
serves both values and vectors.  The indices are grouped by block, and
each precision's own routine solves a group on its block's factor and A's
block.  Double precision runs ``_schur_vectors``, blocked, in real
arithmetic on float64 factors and with BLAS products: a back substitution
on T for the selected columns only (the algorithm of LAPACK ``dtrevc3``,
where a 2 x 2 block is one small complex system per column), then V = Z Y
and V = Q (Z Y) by LAPACK ``dormqr``.  Extended precision runs
``_fixed_schur.eigenvectors`` on fixed-point integers: inverse iteration
on the kept H (LAPACK ``dlaein``: one LU and, unless its growth test asks
for another start vector, one solve per vector), then Q by the
reflectors, and each residual measured exactly.

The double Schur decomposition runs on numpy's OpenBLAS, the thread pool
that also runs the Z Y product, the reflectors and the residual products.
A matrix of order below ``_SERIAL_BELOW`` runs on one thread of that pool,
its blocks one after another: at that size the threads' synchronisation
costs more than the second core gains, and no thread pool is started.
From that order on, its diagonal blocks run by the rule of
``side_by_side``, the one rule for independent solves, which the
half-widths of a double sweep follow too: a single block on the process's
thread count, several concurrently, each on one thread, after OpenBLAS's
idle workers, which spin for a while after any threaded call, are
stopped.  The Hessenberg reductions of the blocks run so, then their QR
iterations.  A block runs on one thread either way, so its factors do not
depend on the rule.  Where numpy's library exports none of the LAPACKE
functions (a build on another BLAS), ``scipy.linalg.schur`` solves the
blocks one after another with an explicit Z, imported only then, and the
thread count is left as it is.  The library's symbols are looked up once
(``_openblas``); the thread count itself is kept nowhere but in OpenBLAS:
a hold reads it on entry, and each ``_qr`` call reads the count it runs
on, which the ``eigensolver.schur`` span reports.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .precision import DOUBLE, ScalarPrecision, to_complex128, working_precision
from .trace import span

# rows per diagonal block of the triangular back substitution, and
# eigenvectors per batch (bounds the n x batch work arrays)
_BACKSUB_BLOCK = 64
_VECTOR_BATCH = 1024

# Hessenberg reflectors per panel, as kept and as applied (``_SchurBlock``)
_PANEL = 64

# a matrix of lower order takes its double Schur form on one LAPACK thread,
# one diagonal block after another
_SERIAL_BELOW = 512


class ConvergenceError(RuntimeError):
    """The Schur decomposition failed to converge."""


@dataclass(frozen=True)
class EigenSolution:
    """All eigenvalues of one matrix plus the factors its eigenvectors come from.

    ``blocks`` holds one factor per diagonal block of A, in order, each
    with the block's first row and column as ``lo``.  In double precision
    a ``_SchurBlock``: the block's real Schur form, A_b = (Q Z) T (Q Z)^T
    with T quasi-triangular and Q kept as Householder reflectors, never
    formed (Q = I for the scipy fallback, which has none).  In extended
    precision a ``_fixed_schur.Hessenberg``: the block's Hessenberg form H
    = Q^T A_b Q before the QR, as fixed-point integers, and Q as
    reflectors; no orthogonal factor of the QR is kept.
    ``eigenvalues[k]`` is T[k, k] of its block, or one of the conjugate
    pair of the 2 x 2 block at rows k..k+1, the one with positive
    imaginary part first.  ``partners[k]`` is the position of the
    conjugate partner of ``eigenvalues[k]``, the other row of its block,
    or -1 for a real eigenvalue.  ``matrix_fro_norm`` is ||A||_F;
    eigenvector residuals are judged by the caller.  ``iteration_stats``
    is (QR sweeps,) of the extended kernel, summed over the diagonal
    blocks, and empty in double mode, where LAPACK does not report its
    sweeps.
    """

    eigenvalues: np.ndarray
    partners: np.ndarray
    matrix_fro_norm: float
    iteration_stats: Tuple[int, ...]
    precision: ScalarPrecision
    blocks: Tuple[object, ...] = field(repr=False, compare=False)

    def eigenvectors(self, matrix: np.ndarray, indices: Sequence[int]
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Right eigenvectors for the eigenvalues at ``indices``, as one batch.

        ``matrix`` is the matrix A this solution was computed from.  Returns
        (ks, vectors, residuals): the distinct indices in ascending order;
        an n x len(ks) array whose column c is the eigenvector of
        ``eigenvalues[ks[c]]``, scaled so its largest entry is 1 (complex128,
        or object in extended mode) and 0 outside its block; and each
        column's relative residual ||A v - lambda v|| / ||A||_F (float64).
        The caller judges the residual; the solver's own bound is
        ``precision.residual_tol``.  Raises IndexError for an index outside
        0..n-1 and ValueError for a matrix that is not n x n.  The indices
        are grouped by block, and each group is solved on its block's
        factor and A's block: in double precision back-substituted on the
        Schur factors by ``_schur_vectors``, at most ``_VECTOR_BATCH``
        columns at a time, with the ``trace`` spans ``eigensolver.backsub``,
        ``eigensolver.zy``, ``eigensolver.q`` (V = Q Z Y) and
        ``eigensolver.residual`` per batch; in extended precision by
        inverse iteration on H (``_fixed_schur.eigenvectors``), with the
        spans ``eigensolver.inverse_iteration``, ``eigensolver.q`` (V = Q X)
        and ``eigensolver.residual``.  A block that is the whole matrix
        returns its columns without a copy.  The call is the span
        ``eigensolver.vectors`` (counter ``columns``); no index runs
        neither routine.
        """
        a, n = np.asarray(matrix), len(self.eigenvalues)
        ks = np.sort(np.asarray(indices, dtype=np.intp).ravel())
        distinct = np.ones(len(ks), dtype=bool)
        distinct[1:] = ks[1:] != ks[:-1]
        ks = ks[distinct]
        if len(ks) and not 0 <= ks[0] <= ks[-1] < n:
            raise IndexError(f"eigenvector indices must lie in 0..{n - 1}")
        if a.shape != (n, n):
            raise ValueError(f"expected the {n} x {n} matrix of this solution")
        extended = self.precision.is_extended
        if extended:
            from mpmath import mpc

            from ._fixed_schur import eigenvectors
        starts = [block.lo for block in self.blocks]
        stops = [*starts[1:], n]
        owner = np.searchsorted(starts, ks, side="right") - 1
        # a lone block is the whole matrix: its columns are returned as they are
        vectors = (None if len(self.blocks) == 1 and len(ks) else
                   np.full((n, len(ks)), mpc(0) if extended else 0,
                           dtype=object if extended else np.complex128))
        norms = np.empty(len(ks))
        with span("eigensolver.vectors") as count:
            count["columns"] = len(ks)
            for b in sorted(set(owner.tolist())):  # np.unique would import numpy.ma
                cols = np.flatnonzero(owner == b)
                lo, hi = starts[b], stops[b]
                block, lam = self.blocks[b], self.eigenvalues[ks[cols]]
                v, norms[cols] = (
                    eigenvectors(block, a[lo:hi, lo:hi], lam, self.precision.bits)
                    if extended else
                    _schur_vectors(block, a[lo:hi, lo:hi], ks[cols] - lo, lam,
                                   self.precision.machine_epsilon))
                if vectors is None:
                    vectors = v
                else:
                    vectors[lo:hi, cols] = v
        return ks, vectors, norms / (self.matrix_fro_norm or 1.0)


def eigenvalues(matrix: np.ndarray, precision: ScalarPrecision = DOUBLE) -> EigenSolution:
    """Full spectrum of a dense real matrix at the requested precision.

    The matrix has a real dtype, or in extended mode is an object array of
    real numbers (``mpf``, or ``mpc`` with imaginary part 0); any other
    raises ValueError before a Schur decomposition starts, as does a
    double-mode matrix with an entry that is not finite, and a matrix whose
    ||A||_F overflows a double (no residual relative to it could be
    measured).  Each diagonal block (``_diagonal_blocks``) gets one real
    Schur decomposition, whose factor is kept on the solution for later
    eigenvector requests; its eigenvalues and partners are read off its T,
    and the partners offset by its first row.
    Raises ConvergenceError when the QR iteration behind it fails to
    converge.  ||A||_F is taken with the input checks; the work after them
    is the ``trace`` span ``eigensolver.schur``, with the child spans
    ``eigensolver.hessenberg`` and ``eigensolver.qr`` (one per diagonal
    block in extended precision), counting the ``blocks``, the
    ``largest_block``, the ``qr_sweeps`` (None in double mode) and, as
    ``schur_threads``, the OpenBLAS thread count that ``_qr`` read as it
    ran (None in extended mode, which makes no LAPACK call, for the scipy
    fallback and where the count cannot be read).  The process's own count
    is ``trace.environment()``'s.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("eigenvalues expects a square matrix")
    if a.dtype.kind not in ("biufO" if precision.is_extended else "biuf"):
        raise ValueError(f"eigenvalues expects a real matrix, not {a.dtype}")
    if not precision.is_extended and not np.isfinite(a).all():
        raise ValueError("eigenvalues expects a finite matrix")
    rounded = a
    if a.dtype == object:
        # rounded to double for the norm; an imaginary part too small to
        # survive the rounding is left to real_schur's own check
        rounded = to_complex128(a)
        if rounded.imag.any():
            raise ValueError("eigenvalues expects a real matrix")
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(rounded))
    if not np.isfinite(fro):
        raise ValueError("eigenvalues expects a matrix whose Frobenius norm is finite "
                         "in double precision")
    with span("eigensolver.schur") as count:
        ranges = _diagonal_blocks(a)
        if precision.is_extended:
            blocks, spectra, sweeps = _extended_schur(a, ranges, precision)
            threads = None
        else:
            blocks, threads = _schur_factors(a, ranges)
            spectra, sweeps = [_real_schur_eigenvalues(b.t) for b in blocks], None
        values = np.concatenate([v for v, _ in spectra])
        partners = np.concatenate([np.where(p >= 0, p + b.lo, -1)
                                   for b, (_, p) in zip(blocks, spectra)])
        count.update(blocks=len(ranges), largest_block=max(hi - lo for lo, hi in ranges),
                     qr_sweeps=sweeps, schur_threads=threads)
    stats = () if sweeps is None else (sweeps,)
    return EigenSolution(values, partners, fro, stats, precision, tuple(blocks))


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


def _extended_schur(a: np.ndarray, ranges: List[Tuple[int, int]],
                    precision: ScalarPrecision):
    """(Hessenberg factors, (eigenvalues, partners) per block, QR sweeps) of
    ``a`` in extended precision.

    The diagonal blocks at ``ranges`` are solved one after another by
    ``_fixed_schur.real_schur``, their sweeps summed; each block's
    eigenvalues are read off its T at the mode's working precision, and its
    ``Hessenberg`` factor is kept with the block's first row as ``lo``.
    """
    from ._fixed_schur import real_schur, schur_eigenvalues

    factors, spectra, sweeps = [], [], 0
    for lo, hi in ranges:
        t, s, factor = real_schur(a[lo:hi, lo:hi], precision.bits)
        with working_precision(precision):
            spectra.append(schur_eigenvalues(t, factor.f, precision.bits))
        factors.append(factor._replace(lo=lo))
        sweeps += s
    return factors, spectra, sweeps


def _schur_factors(a: np.ndarray, ranges: List[Tuple[int, int]]
                   ) -> Tuple[List[_SchurBlock], Optional[int]]:
    """(one ``_SchurBlock`` per diagonal block, LAPACK threads) of the
    double ``a``.

    Each of the diagonal blocks at ``ranges`` is copied to a Fortran-order
    T and gets its own Schur decomposition in two steps, the ``trace``
    spans ``eigensolver.hessenberg`` (``_hessenberg``: T becomes H = Q^T A
    Q in place, Q kept as reflectors) and ``eigensolver.qr`` (``_qr``: H =
    Z T Z^T, T and Z in place).  Below order ``_SERIAL_BELOW`` the blocks
    run one after another on one LAPACK thread; from it on each step runs
    them by the rule of ``side_by_side``.  Every block runs on the same
    count, which ``_qr`` reads, so the first block's is returned.
    """
    # T and Z are allocated here, not in the jobs: glibc keeps what a worker
    # thread frees in that thread's own arena, where the next solve on the
    # calling thread cannot reuse it (the box's two blocks at N=1023 on two
    # threads, then the step: a peak RSS of 83 MB, against 75 MB so)
    copies = [np.array(a[lo:hi, lo:hi], dtype=np.float64, order="F") for lo, hi in ranges]
    serial = len(a) < _SERIAL_BELOW

    def run(job: Callable, items: Sequence) -> list:
        return list(map(job, items)) if serial else side_by_side(job, items)

    with _one_thread() if serial else contextlib.nullcontext():
        with span("eigensolver.hessenberg"):
            reflectors = run(_hessenberg, copies)
        blocks = [_SchurBlock(lo, t, np.empty_like(t), *q)
                  for (lo, _), t, q in zip(ranges, copies, reflectors)]
        with span("eigensolver.qr"):
            threads = run(lambda block: _qr(block.t, block.z), blocks)
    return blocks, next(iter(threads), None)


# LAPACKE's matrix_layout code for column-major (Fortran-order) arrays
_COL_MAJOR = 102


class _SchurBlock(NamedTuple):
    """The real Schur form of one diagonal block A_b of order m, rows and
    columns ``lo``.., as A_b = (Q Z) T (Q Z)^T.

    ``t`` and ``z`` are the block's own Fortran-order float64 T and Z.  Q =
    H_0 H_1 ... H_{m-2}, H_j = I - tau[j] v v^T with v 0 above row j + 1,
    1 there, and below it the entries that LAPACK ``dgehrd`` leaves in
    column j below T's subdiagonal.  Panel p holds rows p * _PANEL + 1.. of
    columns p * _PANEL.. (at most ``_PANEL`` of them, up to column m - 3;
    H_{m-2} is the identity) in Fortran order, the layout of LAPACK
    ``dgeqrf`` that ``dormqr`` reads, whose entries on and above the unit
    diagonal are not read: about m^2 / 2 entries in all, where Q itself
    would take m^2, as views of one buffer.  The scipy fallback has no
    reflectors (``tau`` None, no panels): Q = I.
    """

    lo: int
    t: np.ndarray
    z: np.ndarray
    tau: Optional[np.ndarray]
    panels: Tuple[np.ndarray, ...]


def _fortran_order(*arrays: np.ndarray) -> int:
    """The order of the square float64 Fortran-order ``arrays``, all of one
    shape; ValueError for any other layout."""
    n = arrays[0].shape[0]
    if any(x.dtype != np.float64 or x.shape != (n, n) or not x.flags.f_contiguous
           for x in arrays):
        raise ValueError("LAPACK expects square float64 blocks with contiguous columns")
    return n


def _lapack(routine: str, function: Callable, *args) -> None:
    """``function(*args, work, lwork)``, a LAPACKE ``_work`` function, on
    the workspace it asks for in a query call first.

    The ``_work`` functions skip LAPACKE's scans of every input for NaN,
    a pass over each array that ``eigenvalues``' finiteness check has made
    needless.  Raises ConvergenceError for info > 0 (the QR iteration
    failed) and ValueError for an argument LAPACK rejects (info < 0), each
    naming ``routine``.
    """
    def call(work: np.ndarray, lwork: int) -> None:
        info = function(*args, work.ctypes.data, lwork)
        if info > 0:
            raise ConvergenceError(f"{routine}: the QR iteration failed (info {info})")
        if info < 0:
            raise ValueError(f"{routine}: argument {-info} is invalid")

    work = np.empty(1)
    call(work, -1)
    work = np.empty(max(int(work[0]), 1))
    call(work, len(work))


def _hessenberg(t: np.ndarray) -> Tuple[Optional[np.ndarray], Tuple[np.ndarray, ...]]:
    """Reduce the square block ``t`` to upper Hessenberg form H = Q^T t Q in
    place, by LAPACK ``dgehrd``; returns Q as the ``tau`` and ``panels`` of
    a ``_SchurBlock``.

    ``t`` is laid out as ``_fortran_order`` requires and holds finite
    entries.  Calls ``LAPACKE_dgehrd`` of numpy's OpenBLAS
    (``_openblas``); where numpy's library does not export it, ``t`` is
    left as it is and (None, ()) returned, and ``_qr`` takes the whole Schur
    form with scipy.  The reflectors below H's subdiagonal stay in ``t``,
    for ``_qr`` to clear.  Raises ValueError on an argument LAPACK rejects.
    """
    m = _fortran_order(t)
    lib = _openblas()
    if lib.dgehrd is None:
        return None, ()
    tau = np.zeros(max(m - 1, 1))
    _lapack("dgehrd", lib.dgehrd, _COL_MAJOR, m, 1, m, t.ctypes.data, m, tau.ctypes.data)
    # one buffer for all panels: at large m one mapping, returned whole when
    # freed, where some 60 panels of up to 2 MB each fragmented the heap
    # (the desk's peak RSS rose by 143 MB, against 66 MB for its coulomb
    # N=4095 job alone)
    shapes = [(m - j - 1, min(_PANEL, m - 2 - j)) for j in range(0, m - 2, _PANEL)]
    buffer = np.empty(sum(h * w for h, w in shapes))
    offsets = np.cumsum([0, *(h * w for h, w in shapes)])
    panels = tuple(buffer[start:start + h * w].reshape(w, h).T
                   for start, (h, w) in zip(offsets.tolist(), shapes))
    for j, panel in zip(range(0, m - 2, _PANEL), panels):
        panel[...] = t[j + 1:, j:j + panel.shape[1]]
    return tau, panels


def _qr(t: np.ndarray, z: np.ndarray) -> Optional[int]:
    """Overwrite the Hessenberg block ``t`` with its real Schur form T, and
    ``z`` with Z, H = Z T Z^T, by LAPACK ``dhseqr``; returns the OpenBLAS
    thread count it ran on.

    ``t`` and ``z`` are laid out as ``_fortran_order`` requires; ``t``
    holds what ``_hessenberg`` left, and T is zero below its subdiagonal.
    Nothing is reordered.  Z's entries below eps^2 are set to 0: Z is
    orthogonal, so that moves it by at most n eps^2 in norm, and each
    vector W = Z Y by n eps^2 relative, far below the rounding of the
    decomposition itself.  Calls ``LAPACKE_dhseqr`` of numpy's OpenBLAS
    (``_openblas``), reading the thread count just before, or, where
    numpy's library does not export it, ``scipy.linalg.schur`` on the
    block as ``_hessenberg`` left it, unreduced, so that ``z`` is the whole
    block's Schur vectors.  The count is None there and where it cannot be
    read.  Raises ConvergenceError when the QR iteration fails and
    ValueError on an argument LAPACK rejects.
    """
    m = _fortran_order(t, z)
    lib = _openblas()
    if lib.dhseqr is None:
        import scipy.linalg  # a second LAPACK, loaded only where numpy has none

        try:
            t[...], z[...] = scipy.linalg.schur(t, output="real")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(str(exc)) from exc
        return None
    wr, wi = np.empty(m), np.empty(m)
    threads = None if lib.get_threads is None else lib.get_threads()
    _lapack("dhseqr", lib.dhseqr, _COL_MAJOR, b"S", b"I", m, 1, m, t.ctypes.data, m,
            wr.ctypes.data, wi.ctypes.data, z.ctypes.data, m)
    # Z of H has entries down to the subnormal range where K's vectors are
    # localized; multiplied on into W = Z Y and through Q's reflectors they
    # take the processor's slow path for subnormal results (coulomb at
    # N=2047: 0.24 s for Q W, 0.13 s once Z's entries below eps^2 are 0)
    floor = np.finfo(np.float64).eps ** 2
    for j in range(0, m, _PANEL):
        part = z[:, j:j + _PANEL]
        part[np.abs(part) < floor] = 0
    return threads


def _apply_q(block: _SchurBlock, w: np.ndarray) -> None:
    """w := Q w in place, Q the product of ``block``'s reflectors.

    ``w`` is a C-contiguous complex128 array of the block's rows, such as
    ``_product`` returns.  LAPACK reads its float64 view, m x 2k in C
    order, as the 2k x m column-major matrix W^T, so each panel P of
    reflectors is applied from the right as W^T P^T by ``dormqr`` (``'R',
    'T'``), the last panel first, without a transposed copy; a block
    without reflectors (Q = I) leaves ``w`` as it is.  Raises ValueError
    for any other ``w`` and on an argument LAPACK rejects.
    """
    if w.dtype != np.complex128 or not w.flags.c_contiguous:
        raise ValueError("dormqr expects a complex128 array with contiguous rows")
    lib = _openblas()
    flat = w.view(np.float64)
    width = flat.shape[1]
    for p, v in reversed(list(enumerate(block.panels))):
        height, k = v.shape
        first = p * _PANEL
        _lapack("dormqr", lib.dormqr, _COL_MAJOR, b"R", b"T", width, height, k,
                v.ctypes.data, height, block.tau[first:].ctypes.data,
                flat[first + 1:].ctypes.data, width)


class _Symbols(NamedTuple):
    """The functions of numpy's BLAS and LAPACK library that the solver
    calls, typed for ctypes, each None where the library does not export
    it: ``LAPACKE_dgehrd_work``, ``LAPACKE_dhseqr_work`` and
    ``LAPACKE_dormqr_work`` (all three or none), OpenBLAS's thread controls
    (all three or none) and ``blas_thread_shutdown_``."""

    dgehrd: Optional[Callable]
    dhseqr: Optional[Callable]
    dormqr: Optional[Callable]
    get_threads: Optional[Callable[[], int]]
    set_threads: Optional[Callable[[int], None]]
    config: Optional[Callable[[], bytes]]
    shutdown: Optional[Callable[[], int]]


@functools.lru_cache(maxsize=None)
def _openblas() -> _Symbols:
    """The symbols of numpy's OpenBLAS, looked up once.

    ctypes finds them through numpy's linear-algebra extension, which links
    the library; where that cannot be loaded, every symbol is None.  numpy's
    OpenBLAS has 64-bit integers and marks its symbols so, with the ``64_``
    suffix, and the wheels' build adds the ``scipy_`` prefix: the LAPACKE
    functions are tried with both, the thread controls also without the
    suffix and with the plain ``openblas_`` prefix.
    ``blas_thread_shutdown_``, which joins the workers of OpenBLAS's thread
    pool until the next call that runs on more than one thread or the next
    count set, has neither.
    """
    try:
        lib = ctypes.CDLL(importlib.import_module("numpy.linalg._umath_linalg").__file__)
    except (ImportError, AttributeError, OSError):
        lib = None
    lapack = next((found for found in (
        tuple(getattr(lib, f"{prefix}LAPACKE_{name}_work64_", None)
              for name in ("dgehrd", "dhseqr", "dormqr"))
        for prefix in ("scipy_", "")) if None not in found), (None, None, None))
    if lapack[0] is not None:
        i64, ptr, char = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
        for function in lapack:
            function.restype = i64
        dgehrd, dhseqr, dormqr = lapack
        # layout, n, ilo, ihi, a, lda, tau, work, lwork
        dgehrd.argtypes = [ctypes.c_int, i64, i64, i64, ptr, i64, ptr, ptr, i64]
        # layout, job, compz, n, ilo, ihi, h, ldh, wr, wi, z, ldz, work, lwork
        dhseqr.argtypes = [ctypes.c_int, char, char, i64, i64, i64, ptr, i64, ptr, ptr,
                           ptr, i64, ptr, i64]
        # layout, side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork
        dormqr.argtypes = [ctypes.c_int, char, char, i64, i64, i64, ptr, i64, ptr, ptr,
                           i64, ptr, i64]
    controls = next((found for found in (
        tuple(getattr(lib, f"{prefix}_{name}{suffix}", None)
              for name in ("get_num_threads", "set_num_threads", "get_config"))
        for prefix in ("scipy_openblas", "openblas") for suffix in ("", "64_"))
        if None not in found), (None, None, None))
    if controls[0] is not None:
        get, put, config = controls
        get.restype, put.argtypes, config.restype = ctypes.c_int, [ctypes.c_int], ctypes.c_char_p
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    if shutdown is not None:
        shutdown.restype, shutdown.argtypes = ctypes.c_int, []
    return _Symbols(*lapack, *controls, shutdown)


def side_by_side(job: Callable, items: Sequence) -> list:
    """``[job(item) for item in items]``, the items run side by side.

    The one rule by which independent double solves share the cores: the
    diagonal blocks of a matrix from order ``_SERIAL_BELOW`` on
    (``_schur_factors``) and the half-widths of a double sweep
    (``harness.runner.run_experiment``), where an item is one L's whole
    job: its solve, its classification and the formatting of its files,
    so the Python steps of one L run while another L is in LAPACK, and
    only the writing of the files follows the pool.  A lone item, or items
    inside an enclosing hold, run on the calling thread unchanged.  Two or more
    items run in one ``ThreadPoolExecutor`` of min(items, process threads)
    workers, with numpy's OpenBLAS held at one thread (``_one_thread``)
    until the last item finishes: each item's LAPACK calls and products
    run on one thread, overlapping with the others' (the ctypes call
    releases the GIL), and a solve inside an item reads that count of 1,
    so it runs its blocks one after another, starts no pool and reports
    one thread.  The count is process-wide, so it is set once and
    restored in ``finally``, also when a job raises.  Where it cannot be
    read or set, or is 1 already, nothing is set and the items run one
    after another.  The hold also stops OpenBLAS's own workers
    (``_one_thread(stop_workers=True)``), before the pool starts and after
    the count is restored: after a threaded call an idle worker spins on a
    core for about 0.13 s, which a count of one does not end, and would
    take that core from an item; the restore starts a new worker, which
    would spin the same way next to whatever follows.  The next threaded
    call starts them again.  A lone item runs on the process's threads,
    workers included, and the serial path of ``_schur_factors`` on one
    thread, which a spinning worker leaves a core of its own on two;
    neither stops them.  An item's numbers are those it gets alone on one
    thread, whichever way it runs, and results come in the order of
    ``items``.
    """
    if len(items) < 2:
        return list(map(job, items))
    with _one_thread(stop_workers=True) as threads:
        if threads == 1:
            return list(map(job, items))
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(len(items), threads)) as pool:
            return list(pool.map(job, items))


@contextlib.contextmanager
def _one_thread(stop_workers: bool = False) -> Iterator[int]:
    """Hold numpy's OpenBLAS at one thread in the block; yields the count
    from before.

    The live count is read on entry.  Where it cannot be read or set (no
    LAPACKE functions or no OpenBLAS controls), or is 1, the block yields 1
    and sets nothing.  An open hold leaves the count at 1, so a nested hold,
    such as a solve's inside a sweep's pool, sets nothing, as does a
    process started with ``OPENBLAS_NUM_THREADS=1``.  Otherwise the count is
    set once, and restored on exit, also on an exception.  With
    ``stop_workers``, OpenBLAS's workers are stopped
    (``blas_thread_shutdown_``, where it is exported) once the count is
    set, and again once it is restored: setting it starts them anew, and a
    new worker spins like an idle one.  The next threaded call starts them
    again.
    """
    lib = _openblas()
    before = 1 if lib.dhseqr is None or lib.get_threads is None else lib.get_threads()
    if before == 1:
        yield 1
        return
    stop = (lib.shutdown if stop_workers else None) or (lambda: 0)
    lib.set_threads(1)
    stop()
    try:
        yield before
    finally:
        lib.set_threads(before)
        stop()


def _real_schur_eigenvalues(t: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and conjugate partners of a float64 real Schur form.

    Each pair sits in a standardized block [[a, b], [c, a]] with b c < 0,
    from LAPACK, whose eigenvalues are a +- i sqrt|b| sqrt|c|: bitwise
    conjugate, and partners of each other (``_fixed_schur.schur_eigenvalues``
    reads an extended T so).
    """
    k = np.flatnonzero(np.diagonal(t, -1))
    omega = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
    values = np.diagonal(t).astype(np.complex128)
    values.real[k + 1] = values.real[k]
    values.imag[k] = omega
    values.imag[k + 1] = -omega
    partners = np.full(len(values), -1)
    partners[k], partners[k + 1] = k + 1, k
    return values, partners


def _schur_vectors(block: _SchurBlock, matrix: np.ndarray, ks: np.ndarray,
                   lam: np.ndarray, eps: float) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvectors of the diagonal block ``matrix`` = (Q Z) T (Q Z)^T, its
    ``_SchurBlock`` ``block``, for the eigenvalues ``lam`` at the ascending
    positions ``ks`` in the block, and their ||A v - lam v||.

    At most ``_VECTOR_BATCH`` columns at a time: the back substitution on T
    (``_schur_eigenvectors``), W = Z Y, V = Q W (``_apply_q``) scaled to a
    largest entry of 1, and the residual, as the ``trace`` spans
    ``eigensolver.backsub``, ``eigensolver.zy``, ``eigensolver.q`` and
    ``eigensolver.residual`` per batch.  Returns complex128 vectors of the
    block's rows, a single batch as computed without a copy, and float64
    norms.
    """
    a = np.asarray(matrix, dtype=np.float64)
    vectors, norms = [], []
    for start in range(0, len(ks), _VECTOR_BATCH):
        batch = slice(start, start + _VECTOR_BATCH)
        with span("eigensolver.backsub"):
            y = _schur_eigenvectors(block.t, ks[batch], lam[batch], eps)
        with span("eigensolver.zy"):
            v = _product(block.z[:, :y.shape[0]], y)
            del y
        with span("eigensolver.q"):
            _apply_q(block, v)
            v /= v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        with span("eigensolver.residual"):
            r = _product(a, v)
            r -= v * lam[batch]
            vectors.append(v)
            norms.append(np.sqrt((np.abs(r) ** 2).sum(axis=0)))
            del r
    return (vectors[0] if len(vectors) == 1 else np.concatenate(vectors, axis=1),
            np.concatenate(norms))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real ``a`` and a complex128 ``b``: one real product over
    b's interleaved real and imaginary parts, without a complex copy of
    ``a``; the last axis of ``b`` must be contiguous."""
    return (a @ b.view(np.float64)).view(np.complex128)


def _schur_eigenvectors(t: np.ndarray, ks: np.ndarray, lam: np.ndarray,
                        eps: float) -> np.ndarray:
    """Eigenvectors of the Schur factor T for the ascending positions ``ks``.

    T is a float64 real Schur form: quasi-triangular with standardized
    2 x 2 blocks [[a, b], [c, a]], read off its nonzero subdiagonal entries.
    Column c solves (T - lam[c] I) y = 0 for the eigenvalue lam[c] at
    position ks[c].  Its own diagonal block is seeded with the block's
    exact eigenvector, 1 on a 1 x 1 block and [b, i Im lam] on a 2 x 2 one,
    and the rows below that block are 0.  Only rows up to the last column's
    own block are returned, as complex128.

    The algorithm is that of LAPACK ``dtrevc3``, in real arithmetic on T.
    Rows are solved bottom-up in panels of ``_BACKSUB_BLOCK`` rows anchored
    at its multiples from row 0, so the panels do not depend on which other
    columns share the batch; the matrix products' shapes still do, and
    with them the rounding.  Within a panel each diagonal block is solved
    for all columns still open there, with the divisors and 2 x 2 inverses
    that ``_block_solvers`` computes for the whole panel at once; then one
    matrix product carries the panel to every row above it.
    """
    n, m = t.shape[0], len(ks)
    # pair[j]: rows j, j+1 hold a 2 x 2 block; pair[-1] == pair[n] is False
    pair = np.zeros(n + 1, dtype=bool)
    pair[:n - 1] = np.diagonal(t, -1) != 0
    own = ks - pair[ks - 1]  # first row of each column's own block
    size = int(own[-1]) + 1 + int(pair[own[-1]])
    y = np.zeros((size, m), dtype=np.complex128)
    cols = np.arange(m)
    single = ~pair[own]
    y[own[single], cols[single]] = 1
    double = own[~single]
    y[double, cols[~single]] = t[double, double + 1]
    y[double + 1, cols[~single]] = 1j * lam[~single].imag
    # |Re| + |Im| as in dtrevc3
    smin = np.maximum(eps * (np.abs(lam.real) + np.abs(lam.imag)),
                      np.finfo(float).tiny)
    # T multiplies the real and imaginary parts of y as one real matrix
    flat = y.view(np.float64)

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
                                    @ flat[end:hi, 2 * s:]).view(np.complex128)
                if end - top == 1:
                    y[top, s:] = -r / divisor[top - lo, s - first:]
                else:
                    y[block, s:] = (inverse[top - lo:end - lo, :, s - first:]
                                    * r).sum(axis=1)
        s = int(np.searchsorted(own, lo, side="left"))
        if lo > 0 and s < m:
            flat[:lo, 2 * s:] += t[:lo, lo:hi] @ flat[lo:hi, 2 * s:]
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
