"""Dense complex nonsymmetric eigensolver, generic over working precision.

Double precision computes the complex Schur form A = Z T Z^H once
(LAPACK ``zgees`` via scipy); the eigenvalues are the diagonal of T.  Right
eigenvectors for any subset of eigenvalues come from the same factors: a
blocked back substitution on the triangular T for the selected columns
only (the algorithm of LAPACK ``ztrevc3``), then V = Z Y, so one
decomposition serves both values and vectors.

The extended mode runs the algorithm chain -- Parlett-Reinsch balancing,
Householder reduction, single-shift QR with Wilkinson shifts and
deflation -- in software arithmetic (mpmath binary128-class scalars held
in object arrays), and fetches vectors by shifted inverse iteration on a
reusable Hessenberg workspace.  The software engine also accepts
complex128 input, which the tests use to cross-check it against LAPACK on
small matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Tuple

import mpmath
import numpy as np
import scipy.linalg

from .precision import DOUBLE, ScalarPrecision, working_precision

#: Residual tolerance factors (times ||A||_F) per precision mode.
RESIDUAL_TOL = {"double64": 1e-10, "extended128": 1e-24}

_LCG_MULT = 1664525
_LCG_INC = 1013904223
_LCG_MOD = 2 ** 32

# rows per diagonal block of the triangular back substitution, and
# eigenvectors per batch (bounds the n x batch work arrays)
_BACKSUB_BLOCK = 64
_VECTOR_BATCH = 512


class ConvergenceError(RuntimeError):
    """QR iteration failed to deflate within the iteration budget."""

    def __init__(self, message, partial_eigenvalues=None):
        super().__init__(message)
        self.partial_eigenvalues = partial_eigenvalues


class RefinementError(RuntimeError):
    """Inverse iteration failed to reach the residual tolerance."""


@dataclass(frozen=True)
class EigenSolution:
    """All eigenvalues of one matrix plus solver bookkeeping.

    In double mode ``schur`` holds the complex Schur factors (T, Z) of the
    matrix, with ``eigenvalues[k] == T[k, k]``; the extended mode leaves it
    None.
    """

    eigenvalues: np.ndarray
    residual_bound: float
    iteration_stats: Tuple[int, ...]
    precision: ScalarPrecision
    schur: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False)

    def eigenvectors(self, matrix: np.ndarray, indices: Sequence[int],
                     max_iterations: int = 10, seed: int = 42
                     ) -> Iterator[Tuple[int, Optional[np.ndarray]]]:
        """Yield (index, vector) for the eigenvalues at ``indices``.

        ``matrix`` is the matrix this solution was computed from; each
        vector is scaled so its largest entry is 1.  The vector is None
        when its residual ||A v - lambda v|| misses the precision's
        tolerance times ||A||_F.  Double mode back-substitutes on the
        Schur factors in batches (in Schur order); the extended mode runs
        one inverse iteration per index (``max_iterations`` and ``seed``
        steer it) in the order given.
        """
        if self.schur is not None:
            yield from _schur_eigenvectors(matrix, *self.schur, indices,
                                           self.residual_bound)
            return
        if len(indices) == 0:
            return
        workspace = HessenbergWorkspace(matrix, precision=self.precision)
        for i in indices:
            try:
                sample = workspace.inverse_iteration(
                    self.eigenvalues[i], max_iterations=max_iterations,
                    seed=seed)
            except RefinementError:
                yield i, None
                continue
            yield i, sample.vector


@dataclass(frozen=True)
class EigenvectorSample:
    """One normalized eigenvector; the max-magnitude entry is scaled to 1."""

    eigenvalue: complex
    vector: np.ndarray
    residual: float
    iterations: int


def _is_object(a: np.ndarray) -> bool:
    return np.asarray(a).dtype == object


def _fro_norm(a: np.ndarray) -> float:
    if _is_object(a):
        return float(mpmath.sqrt(sum(abs(z) ** 2 for z in np.asarray(a).ravel())))
    return float(np.linalg.norm(a))


def _sqrt(z):
    if isinstance(z, (mpmath.mpf, mpmath.mpc)):
        return mpmath.sqrt(z)
    if isinstance(z, complex):
        return cmath.sqrt(z)
    return math.sqrt(z) if z >= 0 else cmath.sqrt(z)


# ---------------------------------------------------------------------------
# balancing


def balance(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Diagonal similarity scaling that roughly equalizes row/column norms.

    Returns (balanced, d) with balanced = D^-1 A D, D = diag(d); the
    scalings are powers of two, so no rounding is introduced and the
    eigenvalues are exactly preserved.
    """
    a = np.array(matrix, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("balance expects a square matrix")
    d = np.ones(n)
    radix = 2.0
    sqrdx = radix * radix
    changed = True
    while changed:
        changed = False
        for i in range(n):
            c = float(sum(abs(a[j, i]) for j in range(n) if j != i))
            r = float(sum(abs(a[i, j]) for j in range(n) if j != i))
            if c == 0.0 or r == 0.0:
                continue
            g = r / radix
            f = 1.0
            s = c + r
            while c < g:
                f *= radix
                c *= sqrdx
            g = r * radix
            while c > g:
                f /= radix
                c /= sqrdx
            if (c + r) / f < 0.95 * s:
                changed = True
                d[i] *= f
                a[i, :] = a[i, :] * (1.0 / f)
                a[:, i] = a[:, i] * f
    return a, d


# ---------------------------------------------------------------------------
# Hessenberg reduction


def hessenberg_reduce(
    matrix: np.ndarray,
    accumulate_q: bool = True,
    precision: ScalarPrecision = DOUBLE,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Unitary similarity reduction to upper Hessenberg form.

    Returns (H, Q) with A = Q H Q^H; Q is None when accumulate_q is False.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("hessenberg_reduce expects a square matrix")
    with working_precision(precision):
        return _hessenberg_generic(a, accumulate_q)


def _hessenberg_generic(a, accumulate_q):
    a = np.array(a, dtype=object, copy=True)
    n = a.shape[0]
    q = None
    if accumulate_q:
        q = np.zeros((n, n), dtype=object)
        for i in range(n):
            q[i, i] = a[0, 0] * 0 + 1
    for k in range(n - 2):
        x = a[k + 1:, k]
        normx = _sqrt(sum(abs(z) ** 2 for z in x))
        if normx == 0:
            continue
        x0 = x[0]
        phase = x0 / abs(x0) if abs(x0) != 0 else 1
        alpha = -phase * normx
        v = np.array(x, copy=True)
        v[0] = v[0] - alpha
        vnorm2 = sum(abs(z) ** 2 for z in v)
        if vnorm2 == 0:
            continue
        beta = 2 / vnorm2
        vc = np.conjugate(v)
        # left: rows k+1.., right: columns k+1..
        w = vc @ a[k + 1:, k:]
        a[k + 1:, k:] = a[k + 1:, k:] - beta * np.outer(v, w)
        u = a[:, k + 1:] @ v
        a[:, k + 1:] = a[:, k + 1:] - beta * np.outer(u, vc)
        if q is not None:
            uq = q[:, k + 1:] @ v
            q[:, k + 1:] = q[:, k + 1:] - beta * np.outer(uq, vc)
        a[k + 1, k] = alpha
        for i in range(k + 2, n):
            a[i, k] = a[i, k] * 0
    return a, q


# ---------------------------------------------------------------------------
# shifted QR iteration


def _eig2(a, b, c, d):
    """Eigenvalues of [[a, b], [c, d]]."""
    half_tr = (a + d) / 2
    disc = _sqrt(((a - d) / 2) ** 2 + b * c)
    return half_tr + disc, half_tr - disc


def _wilkinson_shift(a, b, c, d):
    """Eigenvalue of the trailing 2x2 block closest to its bottom entry."""
    delta = (a - d) / 2
    root = _sqrt(delta * delta + b * c)
    t1 = delta + root
    t2 = delta - root
    t = t1 if abs(t1) >= abs(t2) else t2
    if t == 0:
        return d
    return d - b * c / t


def _qr_sweep(h, lo, hi, mu):
    """One explicit single-shift QR step on the active window [lo, hi]."""
    for i in range(lo, hi + 1):
        h[i, i] = h[i, i] - mu
    rots = []
    for k in range(lo, hi):
        f = h[k, k]
        g = h[k + 1, k]
        r = _sqrt(abs(f) ** 2 + abs(g) ** 2)
        if r == 0:
            rots.append(None)
            continue
        fc = np.conjugate(f)
        gc = np.conjugate(g)
        rowk = h[k, k:hi + 1].copy()
        rowk1 = h[k + 1, k:hi + 1].copy()
        h[k, k:hi + 1] = (fc * rowk + gc * rowk1) / r
        h[k + 1, k:hi + 1] = (f * rowk1 - g * rowk) / r
        rots.append((f, g, r))
    for k in range(lo, hi):
        rot = rots[k - lo]
        if rot is None:
            continue
        f, g, r = rot
        end = min(k + 1, hi) + 1
        colk = h[lo:end, k].copy()
        colk1 = h[lo:end, k + 1].copy()
        h[lo:end, k] = (f * colk + g * colk1) / r
        h[lo:end, k + 1] = (np.conjugate(f) * colk1 - np.conjugate(g) * colk) / r
    for i in range(lo, hi + 1):
        h[i, i] = h[i, i] + mu


def qr_eigenvalues(
    hessenberg: np.ndarray,
    precision: ScalarPrecision = DOUBLE,
    max_iter_factor: int = 40,
) -> EigenSolution:
    """All eigenvalues of an upper Hessenberg matrix.

    Raises ConvergenceError (carrying the eigenvalues deflated so far)
    if the iteration budget of max_iter_factor * dimension is exhausted.
    """
    h = np.asarray(hessenberg)
    n = h.shape[0]
    if h.shape != (n, n):
        raise ValueError("qr_eigenvalues expects a square matrix")
    fro = _fro_norm(h)
    bound = RESIDUAL_TOL[precision.mode] * fro
    with working_precision(precision):
        vals, stats = _qr_eigvals_generic(h, precision, max_iter_factor, fro)
    out = np.empty(n, dtype=object)
    out[:] = vals
    return EigenSolution(out, bound, tuple(stats), precision)


def _qr_eigvals_generic(h, precision, max_iter_factor, fro):
    h = np.array(h, dtype=object, copy=True)
    n = h.shape[0]
    eps = mpmath.mpf(2) ** (1 - precision.bits)
    eigs = [None] * n
    stats = []
    hi = n - 1
    total = 0
    budget = max_iter_factor * n
    iters_here = 0
    while hi >= 0:
        if hi == 0:
            eigs[0] = h[0, 0]
            stats.append(iters_here)
            break
        # negligible-subdiagonal scan from the bottom of the active window
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if s == 0:
                s = fro
            if abs(h[lo, lo - 1]) <= eps * s:
                h[lo, lo - 1] = h[lo, lo - 1] * 0
                break
            lo -= 1
        if lo == hi:
            eigs[hi] = h[hi, hi]
            stats.append(iters_here)
            iters_here = 0
            hi -= 1
            continue
        if lo == hi - 1:
            m1, m2 = _eig2(h[lo, lo], h[lo, hi], h[hi, lo], h[hi, hi])
            eigs[hi] = m2
            eigs[lo] = m1
            stats.append(iters_here)
            iters_here = 0
            hi = lo - 1
            continue
        total += 1
        iters_here += 1
        if total > budget:
            done = [z for z in eigs if z is not None]
            raise ConvergenceError(
                f"QR iteration exceeded {budget} sweeps with {hi + 1} rows active",
                partial_eigenvalues=done,
            )
        if iters_here % 10 == 0:
            # exceptional shift to break symmetry-induced stalls
            mu = h[hi, hi] + abs(h[hi, hi - 1]) * mpmath.mpc("0.75", "0.31")
        else:
            mu = _wilkinson_shift(h[hi - 1, hi - 1], h[hi - 1, hi], h[hi, hi - 1], h[hi, hi])
        _qr_sweep(h, lo, hi, mu)
    return eigs, stats


def eigenvalues(matrix: np.ndarray, precision: ScalarPrecision = DOUBLE) -> EigenSolution:
    """Full spectrum of a dense complex matrix at the requested precision.

    In double mode this is one complex Schur decomposition, kept on the
    solution for later eigenvector requests; the extended mode chains the
    exposed balance / reduce / QR stages explicitly.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("eigenvalues expects a square matrix")
    if not precision.is_extended and not _is_object(a):
        try:
            t, z = scipy.linalg.schur(a, output="complex")
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(str(exc)) from exc
        return EigenSolution(t.diagonal().copy(),
                             RESIDUAL_TOL["double64"] * float(np.linalg.norm(a)),
                             (), precision, schur=(t, z))
    balanced, _ = balance(a)
    h, _ = hessenberg_reduce(balanced, accumulate_q=False, precision=precision)
    return qr_eigenvalues(h, precision=precision)


# ---------------------------------------------------------------------------
# eigenvectors from the Schur form


def _triangular_eigenvectors(t: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Eigenvectors of upper triangular T for the ascending positions ``ks``.

    Column c solves (T - T[k, k] I) y = 0 with y[k] = 1 and y[j] = 0 for
    j > k, k = ks[c]; only rows 0..max(ks) are returned.  Rows are solved
    bottom-up in diagonal blocks: within a block one row at a time for all
    columns still open there, then one matrix product carries the block's
    contribution to every row above it.  A divisor smaller than
    eps * |T[k, k]| is raised to that size, as LAPACK ``ztrevc3`` does, so
    a (near-)repeated eigenvalue still yields a finite vector.
    """
    m = len(ks)
    lam = t[ks, ks]
    size = int(ks[-1]) + 1
    y = np.zeros((size, m), dtype=np.complex128)
    y[ks, np.arange(m)] = 1.0
    smin = np.maximum(np.finfo(float).eps * (np.abs(lam.real) + np.abs(lam.imag)),
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


def _schur_eigenvectors(matrix, t, z, indices, target):
    """Yield (index, vector or None) for the Schur positions ``indices``."""
    a = np.asarray(matrix)
    ks = np.unique(np.asarray(indices, dtype=np.intp))
    for start in range(0, len(ks), _VECTOR_BATCH):
        batch = ks[start:start + _VECTOR_BATCH]
        y = _triangular_eigenvectors(t, batch)
        v = z[:, :y.shape[0]] @ y
        del y
        cols = np.arange(len(batch))
        v /= v[np.argmax(np.abs(v), axis=0), cols]
        residual = np.linalg.norm(a @ v - v * t[batch, batch], axis=0)
        for c in cols:
            yield int(batch[c]), v[:, c] if residual[c] <= target else None


# ---------------------------------------------------------------------------
# inverse iteration (software arithmetic)


def _lcg_start_vector(n: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random start vector from a linear congruential stream."""
    state = seed & (_LCG_MOD - 1)
    samples = []
    for _ in range(2 * n):
        state = (_LCG_MULT * state + _LCG_INC) % _LCG_MOD
        samples.append(2.0 * state / _LCG_MOD - 1.0)
    out = np.empty(n, dtype=object)
    out[:] = [mpmath.mpc(a, b) for a, b in zip(samples[0::2], samples[1::2])]
    return out


def _lu_factor_generic(a):
    a = np.array(a, dtype=object, copy=True)
    n = a.shape[0]
    piv = np.arange(n)
    for k in range(n):
        p = k + max(range(n - k), key=lambda i: abs(a[k + i, k]))
        if abs(a[p, k]) == 0:
            a[p, k] = a[p, k] + mpmath.mpf(2) ** (-mpmath.mp.prec) * 1
        if p != k:
            a[[k, p], :] = a[[p, k], :]
            piv[[k, p]] = piv[[p, k]]
        a[k + 1:, k] = a[k + 1:, k] / a[k, k]
        if k + 1 < n:
            a[k + 1:, k + 1:] = a[k + 1:, k + 1:] - np.outer(a[k + 1:, k], a[k, k + 1:])
    return a, piv


def _lu_solve_generic(lu, piv, b):
    n = lu.shape[0]
    x = np.array([b[p] for p in piv], dtype=object)
    for k in range(1, n):
        x[k] = x[k] - lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        if k + 1 < n:
            x[k] = x[k] - lu[k, k + 1:] @ x[k + 1:]
        x[k] = x[k] / lu[k, k]
    return x


def inverse_iteration(
    matrix: np.ndarray,
    shift: complex,
    precision: ScalarPrecision = DOUBLE,
    max_iterations: int = 10,
    seed: int = 42,
) -> EigenvectorSample:
    """Eigenvector for a computed eigenvalue via shifted inverse iteration.

    Runs a dense LU in software arithmetic; this is the extended-precision
    vector path (double mode takes vectors from the Schur factors).  The
    start vector comes from a fixed linear congruential stream, so
    repeated calls are bitwise reproducible.  Raises RefinementError if the
    residual tolerance is not met within max_iterations.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("inverse_iteration expects a square matrix")
    tol = RESIDUAL_TOL[precision.mode]
    with working_precision(precision):
        a = np.array(a, dtype=object, copy=True)
        fro = mpmath.sqrt(sum(abs(z) ** 2 for z in a.ravel()))
        target = tol * fro if fro > 0 else mpmath.mpf(tol)
        sigma = mpmath.mpc(shift)
        shifted = np.array(a, copy=True)
        for i in range(n):
            shifted[i, i] = shifted[i, i] - sigma
        lu, piv = _lu_factor_generic(shifted)
        v = _lcg_start_vector(n, seed)
        for it in range(1, max_iterations + 1):
            w = _lu_solve_generic(lu, piv, v)
            mags = [abs(z) for z in w]
            idx = max(range(n), key=lambda i: mags[i])
            v = w / w[idx]
            res_vec = a @ v - sigma * v
            residual = mpmath.sqrt(sum(abs(z) ** 2 for z in res_vec))
            if residual <= target:
                return EigenvectorSample(sigma, v, float(residual), it)
    raise RefinementError(
        f"inverse iteration stalled at residual {float(residual):.3e} "
        f"(target {float(target):.3e}) for shift {shift}"
    )


class HessenbergWorkspace:
    """Reusable factorization for many inverse iterations on one matrix.

    Reduces A = Q H Q^H once in software arithmetic; each shift then needs
    only an O(n^2) Hessenberg solve instead of a fresh dense LU.  This is
    how the extended mode fetches one vector per bound-state candidate
    against the same immutable operator.
    """

    def __init__(self, matrix: np.ndarray, precision: ScalarPrecision = DOUBLE):
        a = np.asarray(matrix)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("HessenbergWorkspace expects a square matrix")
        self.precision = precision
        self.a = np.array(a, dtype=object, copy=True)
        with working_precision(precision):
            self.h, self.q = _hessenberg_generic(self.a, accumulate_q=True)
            self.fro = mpmath.sqrt(sum(abs(z) ** 2 for z in self.a.ravel()))

    def inverse_iteration(self, shift, max_iterations: int = 10, seed: int = 42):
        with working_precision(self.precision):
            n = self.h.shape[0]
            tol = RESIDUAL_TOL[self.precision.mode]
            target = tol * self.fro if self.fro > 0 else mpmath.mpf(tol)
            sigma = mpmath.mpc(shift)
            v = _lcg_start_vector(n, seed)
            for it in range(1, max_iterations + 1):
                w = _solve_hessenberg_shifted(self.h, sigma, v)
                u = self.q @ w
                mags = [abs(z) for z in u]
                idx = max(range(n), key=lambda i: mags[i])
                u = u / u[idx]
                res_vec = self.a @ u - sigma * u
                residual = mpmath.sqrt(sum(abs(z) ** 2 for z in res_vec))
                if residual <= target:
                    return EigenvectorSample(sigma, u, float(residual), it)
                v = np.conjugate(self.q.T) @ u
        raise RefinementError(
            f"inverse iteration stalled at residual {float(residual):.3e} "
            f"(target {float(target):.3e}) for shift {shift}"
        )


def _solve_hessenberg_shifted(h, shift, b):
    """Solve (H - shift I) x = b for upper Hessenberg H in O(n^2).

    Gaussian elimination with adjacent-row partial pivoting; an exactly
    zero pivot (shift equal to a computed eigenvalue to working accuracy)
    is replaced by a tiny value, which is the standard inverse-iteration
    practice.
    """
    n = h.shape[0]
    m = np.array(h, dtype=object, copy=True)
    x = np.array(b, dtype=object, copy=True)
    tiny = mpmath.mpf(2) ** (-2 * mpmath.mp.prec)
    scale = max([abs(z) for z in np.diagonal(h)] + [mpmath.mpf(1)])
    for i in range(n):
        m[i, i] = m[i, i] - shift
    for k in range(n - 1):
        if abs(m[k + 1, k]) > abs(m[k, k]):
            m[[k, k + 1], k:] = m[[k + 1, k], k:]
            x[[k, k + 1]] = x[[k + 1, k]]
        piv = m[k, k]
        if abs(piv) == 0:
            piv = tiny * scale
            m[k, k] = piv
        f = m[k + 1, k] / piv
        if f != 0:
            m[k + 1, k:] = m[k + 1, k:] - f * m[k, k:]
            x[k + 1] = x[k + 1] - f * x[k]
    for k in range(n - 1, -1, -1):
        piv = m[k, k]
        if abs(piv) == 0:
            piv = tiny * scale
        acc = x[k]
        if k + 1 < n:
            acc = acc - m[k, k + 1:] @ x[k + 1:]
        x[k] = acc / piv
    return x
