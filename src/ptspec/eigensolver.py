"""Dense complex nonsymmetric eigensolver, generic over working precision.

Both precisions compute the complex Schur form A = Z T Z^H once; the
eigenvalues are the diagonal of T.  Double precision calls LAPACK
(``zgees`` via scipy); the extended mode calls ``mpmath.schur`` on the
unrounded object matrix at the mpmath working precision of the mode and
keeps T and Z as object arrays.  Right eigenvectors for any subset of
eigenvalues come from the same factors in either precision: a blocked
back substitution on the triangular T for the selected columns only (the
algorithm of LAPACK ``ztrevc3``), then V = Z Y, so one decomposition
serves both values and vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import mpmath
import numpy as np
import scipy.linalg

from .precision import DOUBLE, ScalarPrecision, to_complex128, working_precision

#: Residual tolerance factors (times ||A||_F) per precision mode.
RESIDUAL_TOL = {"double64": 1e-10, "extended128": 1e-24}

# rows per diagonal block of the triangular back substitution, and
# eigenvectors per batch (bounds the n x batch work arrays)
_BACKSUB_BLOCK = 64
_VECTOR_BATCH = 512


class ConvergenceError(RuntimeError):
    """The Schur decomposition failed to converge."""


@dataclass(frozen=True)
class EigenSolution:
    """All eigenvalues of one matrix plus its complex Schur factors.

    ``schur`` holds (T, Z) with A = Z T Z^H and ``eigenvalues[k] ==
    T[k, k]``: complex128 arrays in double mode, object arrays of mpmath
    scalars in extended mode.  ``iteration_stats`` is empty; neither Schur
    routine reports its sweep counts.
    """

    eigenvalues: np.ndarray
    residual_bound: float
    iteration_stats: Tuple[int, ...]
    precision: ScalarPrecision
    schur: Tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)

    def eigenvectors(self, matrix: np.ndarray, indices: Sequence[int]
                     ) -> Iterator[Tuple[int, Optional[np.ndarray]]]:
        """Yield (index, vector) for the eigenvalues at ``indices``.

        ``matrix`` is the matrix this solution was computed from; each
        vector is scaled so its largest entry is 1.  The vector is None
        when its residual ||A v - lambda v|| misses ``residual_bound``.
        Vectors are back-substituted on the Schur factors in batches and
        yielded in Schur order.
        """
        t, z = self.schur
        a = np.asarray(matrix)
        ks = np.unique(np.asarray(indices, dtype=np.intp))
        target2 = self.residual_bound ** 2
        for start in range(0, len(ks), _VECTOR_BATCH):
            batch = ks[start:start + _VECTOR_BATCH]
            cols = np.arange(len(batch))
            with working_precision(self.precision):
                y = _triangular_eigenvectors(t, batch,
                                             self.precision.machine_epsilon)
                v = z[:, :y.shape[0]] @ y
                del y
                v /= v[np.argmax(np.abs(v), axis=0), cols]
                residual2 = (np.abs(a @ v - v * t[batch, batch]) ** 2).sum(axis=0)
            for c in cols:
                yield int(batch[c]), v[:, c] if residual2[c] <= target2 else None


def eigenvalues(matrix: np.ndarray, precision: ScalarPrecision = DOUBLE) -> EigenSolution:
    """Full spectrum of a dense complex matrix at the requested precision.

    One complex Schur decomposition, kept on the solution for later
    eigenvector requests.  Raises ConvergenceError when the QR iteration
    behind it fails to converge.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("eigenvalues expects a square matrix")
    bound = RESIDUAL_TOL[precision.mode] * float(np.linalg.norm(to_complex128(a)))
    if precision.is_extended:
        with working_precision(precision):
            try:
                q, r = mpmath.schur(mpmath.matrix(a.tolist()))
            except RuntimeError as exc:  # "qr: failed to converge ..."
                raise ConvergenceError(str(exc)) from exc
        t = np.array(r.tolist(), dtype=object)
        z = np.array(q.tolist(), dtype=object)
    else:
        try:
            t, z = scipy.linalg.schur(to_complex128(a), output="complex")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(str(exc)) from exc
    return EigenSolution(t.diagonal().copy(), bound, (), precision, schur=(t, z))


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
