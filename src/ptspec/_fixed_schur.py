"""Schur forms in fixed-point integer arithmetic: the extended mode's kernels.

Two kernels share one scalar carrier.  ``complex_schur`` runs the algorithm
of ``mpmath.schur`` -- unitary reduction to upper Hessenberg form, then
single-shift complex QR with the Wilkinson shift, the exceptional shifts
at sweeps 10, 20 and 29 of every 30, and the same deflation test and sweep
limit -- on fixed-point Gaussian integers, two planes of ints (real and
imaginary).  ``real_schur`` takes the real Schur form of a real matrix on
one plane of ints: reduction to Hessenberg form by real Givens rotations,
then the Francis double-shift QR (J. G. F. Francis, Comput. J. 4,
1961-62; Golub & Van Loan, Matrix Computations, 7.5) as LAPACK ``dlahqr``
runs it, with its Ahues-Kressner deflation test and exceptional shifts,
each bulge step one 3 x 3 reflector; every converged 2 x 2 block is
standardized as ``dlanv2`` does.  mpmath applies a rotation to two rows as ~4n separate
``mpc`` products, each a Python-level call; here every entry is a
fixed-point integer, so a rotation or reflector is one small integer
matrix product over whole object arrays of Python ints, looped in C.

Entries are held at one common scale 2**f with f = bits + GUARD_BITS -
ceil(log2 max|Re, Im a_ij|): the largest entry has bits + GUARD_BITS
significant bits, and every entry is off by at most half a unit of 2**-f.
Rotation and reflector coefficients and the orthogonal factor, whose
entries are at most 1, are held at scale 2**g with g = bits + GUARD_BITS.
Every product is rounded back to its scale to the nearest unit, so the
normwise backward error of the decomposition is a few units of
2**-(bits + GUARD_BITS) * max|a_ij| per transformation -- far below a
``bits``-bit float's -- and both deflation tests' thresholds, relative
2**(1 - bits) / (100 n) (complex) and 2**(1 - bits) (real), stay well
above that rounding level.  Both kernels keep mpmath's sweep limit.
"""

from __future__ import annotations

from math import isqrt
from typing import Tuple

import mpmath
import numpy as np
from mpmath import libmp

#: Bits kept beyond the target precision.  The deflation test needs its
#: threshold well above the rounding level: on scarf2 K (A = 30, L = 10,
#: N = 21) QR fails to converge with 20 or 40 guard bits, and takes 68
#: sweeps with 64 and 62-63 with 80 to 128, in 0.12-0.19 s throughout.
GUARD_BITS = 96

#: mpmath's sweep limit: four QR sweeps per decimal digit of the working
#: precision, counted since the last deflation (in the real kernel, since
#: an eigenvalue or a pair last converged at the bottom of the active block).
SWEEPS_PER_DIGIT = 4


class ConvergenceError(RuntimeError):
    """The Schur decomposition failed to converge."""


def complex_schur(a: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Complex Schur form A = Z T Z^H of a square matrix of numbers.

    ``a`` holds anything ``mpmath.mpmathify`` accepts.  Returns T (upper
    triangular, strictly lower part exactly 0) and the unitary Z as object
    arrays of ``mpc`` rounded to ``bits`` bits, and the number of QR sweeps
    taken.  Raises ConvergenceError when one eigenvalue takes more than
    ``SWEEPS_PER_DIGIT`` sweeps per decimal digit of ``bits``.
    """
    n = a.shape[0]
    g = bits + GUARD_BITS
    h, f = _to_fixed(a, g)
    z = np.zeros((2, n, n), dtype=object)
    np.fill_diagonal(z[0], 1 << g)
    _hessenberg(h, z, g)
    sweeps = _hessenberg_qr(h, z, g, bits)
    return _to_mpc(h, f, bits), _to_mpc(z, g, bits), sweeps


def real_schur(a: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Real Schur form A = Z T Z^T of a square matrix of real numbers.

    ``a`` holds anything ``mpmath.mpmathify`` accepts, with every imaginary
    part 0 (ValueError otherwise).  Returns T, quasi-triangular, and the
    orthogonal Z as object arrays of ``mpf`` rounded to ``bits`` bits, and
    the number of QR sweeps taken.  T is exactly 0 below its subdiagonal,
    and each nonzero subdiagonal entry belongs to a standardized 2 x 2
    block [[a, b], [c, a]] with b c < 0, whose eigenvalues are the
    conjugate pair a +- i sqrt|b| sqrt|c|.  Raises ConvergenceError when
    the active block goes more than ``SWEEPS_PER_DIGIT`` sweeps per decimal
    digit of ``bits`` without an eigenvalue or a pair converging.
    """
    n = a.shape[0]
    g = bits + GUARD_BITS
    planes, f = _to_fixed(a, g)
    if any(planes[1].ravel().tolist()):
        raise ValueError("real_schur needs a real matrix")
    h = planes[0]
    z = np.zeros((n, n), dtype=object)
    np.fill_diagonal(z, 1 << g)
    _real_hessenberg(h, z, g)
    sweeps = _francis_qr(h, z, g, bits)
    return _to_mpf(h, f, bits), _to_mpf(z, g, bits), sweeps


def _to_fixed(a: np.ndarray, g: int) -> Tuple[np.ndarray, int]:
    """Planes (real, imag) of ints a * 2**f, the largest with g bits, and f."""
    parts = []
    for x in np.asarray(a, dtype=object).ravel():
        x = mpmath.mpmathify(x)
        parts += [_man_exp(x.real), _man_exp(x.imag)]
    top = max((m.bit_length() + e for m, e in parts if m), default=0)
    f = g - top
    fixed = np.empty(len(parts), dtype=object)
    fixed[:] = [_shift(m, e + f) for m, e in parts]
    return fixed.reshape(a.shape + (2,)).transpose(2, 0, 1).copy(), f


def _man_exp(x: mpmath.mpf) -> Tuple[int, int]:
    """Signed (m, e) with x = m * 2**e; ValueError for inf and nan."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"cannot take the Schur form of a matrix holding {x}")
    return (-man if sign else man), exp


def _shift(m: int, k: int) -> int:
    """m * 2**k rounded to the nearest integer (halves round up)."""
    if k >= 0:
        return m << k
    return (m + (1 << (-k - 1))) >> -k


def _to_mpc(planes: np.ndarray, f: int, bits: int) -> np.ndarray:
    """Object array of ``mpc`` (re + i im) * 2**-f, rounded to ``bits`` bits."""
    make = mpmath.mp.make_mpc
    out = np.empty(planes.shape[1:], dtype=object)
    out.ravel()[:] = [
        make((libmp.from_man_exp(re, -f, bits, "n"),
              libmp.from_man_exp(im, -f, bits, "n")))
        for re, im in zip(planes[0].ravel().tolist(), planes[1].ravel().tolist())]
    return out


def _to_mpf(plane: np.ndarray, f: int, bits: int) -> np.ndarray:
    """Object array of ``mpf`` plane * 2**-f, rounded to ``bits`` bits."""
    make = mpmath.mp.make_mpf
    out = np.empty(plane.shape, dtype=object)
    out.ravel()[:] = [make(libmp.from_man_exp(m, -f, bits, "n"))
                      for m in plane.ravel().tolist()]
    return out


def _givens(x, y, g: int):
    """Unitary G = [[conj c, conj s], [-s, c]] with G (x, y)^T = (v, 0)^T.

    ``x`` and ``y`` are Gaussian integers (re, im) at any common scale;
    returns c, s at scale 2**g as (re, im) and v >= 0 at the inputs' scale.
    The inputs are first shifted up to at least g + 8 bits, so that
    ``isqrt`` gives v, and hence c = x / v and s = y / v, to 2**-g relative
    even when x and y are a few units: a bulge entry that small otherwise
    yields a rotation unitary only to about 1 / v, and QR stalls.
    """
    parts = (*x, *y)
    top = max(abs(p) for p in parts).bit_length()
    if top == 0:
        return (1 << g, 0), (0, 0), 0
    up = max(g + 8 - top, 0)
    xr, xi, yr, yi = (p << up for p in parts)
    v = isqrt(xr * xr + xi * xi + yr * yr + yi * yi)
    cr, ci, sr, si = (_divide(p << g, v) for p in (xr, xi, yr, yi))
    return (cr, ci), (sr, si), _shift(v, -up)


def _divide(p: int, q: int) -> int:
    """p / q rounded to the nearest integer, q > 0."""
    return (2 * p + q) // (2 * q)


def _form(c, s) -> np.ndarray:
    """Real 4 x 4 form of G = [[conj c, conj s], [-s, c]] on (re x, re y, im x, im y)."""
    (cr, ci), (sr, si) = c, s
    return np.array([[cr, sr, ci, si],
                     [-sr, cr, si, -ci],
                     [-ci, -si, cr, sr],
                     [-si, ci, -sr, cr]], dtype=object)


def _rotate(h: np.ndarray, z: np.ndarray, c, s, p: int, start: int, stop: int,
            g: int) -> None:
    """h <- G h G^H and z <- z G^H, G acting on rows/columns p, p + 1.

    Row entries left of column ``start`` and column entries from row
    ``stop`` down are zero in h and are skipped.  Columns times G^H are,
    transposed, rows times conj(G): the form of conj c, conj s.
    """
    _rotate_rows(h, p, start, _form(c, s), g)
    right = _form((c[0], -c[1]), (s[0], -s[1]))
    _rotate_cols(h, p, stop, right, g)
    _rotate_cols(z, p, z.shape[1], right, g)


def _rounded_product(m: np.ndarray, v: np.ndarray, g: int) -> np.ndarray:
    """(m @ v) * 2**-g, rounded; a new array, so ``v`` may be a view."""
    return (m @ v + (1 << (g - 1))) >> g


def _rotate_rows(h: np.ndarray, p: int, start: int, m: np.ndarray, g: int) -> None:
    """Rows p, p + 1 of planes ``h``, columns start.., times the form ``m``."""
    k = h.shape[2] - start
    rows = h[:, p:p + 2, start:].reshape(4, k)
    h[:, p:p + 2, start:] = _rounded_product(m, rows, g).reshape(2, 2, k)


def _rotate_cols(h: np.ndarray, p: int, stop: int, m: np.ndarray, g: int) -> None:
    """Columns p, p + 1 of planes ``h``, rows ..stop, transposed, times ``m``."""
    cols = h[:, :stop, p:p + 2].transpose(0, 2, 1).reshape(4, stop)
    h[:, :stop, p:p + 2] = (_rounded_product(m, cols, g)
                            .reshape(2, 2, stop).transpose(0, 2, 1))


def _eliminate(h: np.ndarray, z: np.ndarray, j: int, p: int, stop: int,
               g: int) -> None:
    """Zero h[p + 1, j] against h[p, j] by a rotation of rows/columns p, p + 1.

    h[p, j] becomes the real v and h[p + 1, j] exactly 0; the rotation
    is applied to columns j + 1.. of the two rows and rows ..stop of the
    two columns.
    """
    c, s, v = _givens(_entry(h, p, j), _entry(h, p + 1, j), g)
    h[:, p, j] = v, 0
    h[:, p + 1, j] = 0
    _rotate(h, z, c, s, p, j + 1, stop, g)


def _hessenberg(h: np.ndarray, z: np.ndarray, g: int) -> None:
    """Reduce ``h`` to upper Hessenberg form by Givens rotations, bottom up."""
    n = h.shape[1]
    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            if h[0, i, j] or h[1, i, j]:
                _eliminate(h, z, j, i - 1, n, g)


def _hessenberg_qr(h: np.ndarray, z: np.ndarray, g: int, bits: int) -> int:
    """Triangularize Hessenberg ``h`` in place; returns the sweep count.

    mpmath's ``hessenberg_qr``: deflate at the first subdiagonal k of the
    active block with |h[k+1, k]| < eps s, s = |Re| + |Im| of the two
    diagonal entries beside it (norm when s < eps norm), eps =
    2**(1 - bits) / (100 n) and norm the Frobenius norm of the Hessenberg
    matrix over n; the integer tests below are these, squared and exact.
    """
    n = h.shape[1]
    if n < 2:
        return 0
    norm = isqrt(sum(x * x for x in np.triu(h, -1).ravel())) // n
    if norm == 0:
        return 0
    inv_eps = 100 * n << (bits - 1)
    maxits = SWEEPS_PER_DIGIT * libmp.prec_to_dps(bits)
    n0, n1 = 0, n
    its = sweeps = 0
    while True:
        k = n0
        while k + 1 < n1:
            s = (abs(h[0, k, k]) + abs(h[1, k, k])
                 + abs(h[0, k + 1, k + 1]) + abs(h[1, k + 1, k + 1]))
            if s * inv_eps < norm:
                s = norm
            if (h[0, k + 1, k] ** 2 + h[1, k + 1, k] ** 2) * inv_eps ** 2 < s * s:
                break
            k += 1
        if k + 1 < n1:
            h[:, k + 1, k] = 0
            n0 = k + 1
            its = 0
            if n0 + 1 >= n1:
                n0, n1 = 0, k + 1
                if n1 < 2:
                    return sweeps
            continue
        shift = _shift_for(h, n1, its, norm)
        its += 1
        sweeps += 1
        _qr_sweep(h, z, n0, n1, shift, g)
        if its > maxits:
            raise ConvergenceError(f"QR failed to converge after {its} sweeps")


def _shift_for(h: np.ndarray, n1: int, its: int, norm: int):
    """Shift (re, im) for the active block ending at row n1 - 1."""
    sub = (h[0, n1 - 1, n1 - 2], h[1, n1 - 1, n1 - 2])
    if its % 30 == 10:
        return sub
    if its % 30 == 20:
        return isqrt(sub[0] ** 2 + sub[1] ** 2), 0
    if its % 30 == 29:
        return norm, 0
    # Wilkinson: the eigenvalue of the trailing 2 x 2 [[a, b], [c, d]]
    # nearer d, as (a + d +- sqrt((d - a)**2 + 4 b c)) / 2
    a, b, c, d = (_entry(h, i, j) for i, j in
                  ((n1 - 2, n1 - 2), (n1 - 2, n1 - 1), (n1 - 1, n1 - 2),
                   (n1 - 1, n1 - 1)))
    dr, di = d[0] - a[0], d[1] - a[1]
    root = _sqrt(dr * dr - di * di + 4 * (b[0] * c[0] - b[1] * c[1]),
                 2 * dr * di + 4 * (b[0] * c[1] + b[1] * c[0]))
    tr, ti = a[0] + d[0], a[1] + d[1]
    plus = ((tr + root[0]) >> 1, (ti + root[1]) >> 1)
    minus = ((tr - root[0]) >> 1, (ti - root[1]) >> 1)
    if _distance2(d, plus) > _distance2(d, minus):
        return minus
    return plus


def _entry(h: np.ndarray, i: int, j: int):
    """Entry (i, j) of planes ``h`` as (re, im)."""
    return h[0, i, j], h[1, i, j]


def _distance2(x, y) -> int:
    """|x - y|**2 of two Gaussian integers."""
    return (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2


def _sqrt(x: int, y: int):
    """A square root of x + i y, at the square root of its scale.

    The branch is mpmath's: the principal root when x > 0, else
    i sqrt(-(x + i y)).
    """
    if x > 0:
        return _principal_sqrt(x, y)
    re, im = _principal_sqrt(-x, -y)
    return -im, re


def _principal_sqrt(x: int, y: int):
    """sqrt(x + i y) for x >= 0, where r + x cannot cancel."""
    re = isqrt((isqrt(x * x + y * y) + x) >> 1)
    return re, _divide(y, 2 * re) if re else 0


def _qr_sweep(h: np.ndarray, z: np.ndarray, n0: int, n1: int, shift, g: int) -> None:
    """One implicitly shifted QR sweep on the active block n0..n1 - 1."""
    x = (h[0, n0, n0] - shift[0], h[1, n0, n0] - shift[1])
    c, s, _ = _givens(x, _entry(h, n0 + 1, n0), g)
    _rotate(h, z, c, s, n0, n0, min(n1, n0 + 3), g)
    for j in range(n0, n1 - 2):
        _eliminate(h, z, j, j + 1, min(n1, j + 4), g)


# --- the real kernel: one plane of ints ---------------------------------------

def _rotation(c: int, s: int) -> np.ndarray:
    """G = [[c, s], [-s, c]], the real case of ``_givens``' rotation."""
    return np.array([[c, s], [-s, c]], dtype=object)


def _reflector(x, g: int) -> Tuple[np.ndarray, int]:
    """(P, beta): the symmetric orthogonal P at scale 2**g with P x = beta e_1.

    P = I - 2 v v^T / (v^T v), v = x - beta e_1, beta = -sign(x_0) ||x||
    (LAPACK ``dlarfg``); beta is at the scale of the ints ``x``.  P = I when
    x has no entry below its first.
    """
    k = len(x)
    p = np.zeros((k, k), dtype=object)
    np.fill_diagonal(p, 1 << g)
    if not any(x[1:]):
        return p, x[0]
    up = max(g + 8 - max(abs(v) for v in x).bit_length(), 0)
    v = [int(e) << up for e in x]
    r = isqrt(sum(e * e for e in v))
    sign = 1 if v[0] >= 0 else -1
    d = r * (r + abs(v[0]))  # v^T v / 2 after the update below
    v[0] += sign * r
    for i in range(k):
        for j in range(i, k):
            p[i, j] -= _divide(v[i] * v[j] << g, d)
            p[j, i] = p[i, j]
    return p, -sign * _shift(r, -up)


def _transform(h: np.ndarray, z: np.ndarray, q: np.ndarray, p: int, start: int,
               stop: int, g: int) -> None:
    """h <- Q h Q^T and z <- z Q^T, Q (at scale 2**g) acting on rows and
    columns p..p + len(Q) - 1.

    Row entries left of column ``start`` and column entries from row
    ``stop`` down are zero in h and are skipped.
    """
    k = len(q)
    h[p:p + k, start:] = _rounded_product(q, h[p:p + k, start:], g)
    h[:stop, p:p + k] = _rounded_product(h[:stop, p:p + k], q.T, g)
    z[:, p:p + k] = _rounded_product(z[:, p:p + k], q.T, g)


def _real_hessenberg(h: np.ndarray, z: np.ndarray, g: int) -> None:
    """Reduce ``h`` to upper Hessenberg form by real Givens rotations, bottom up."""
    n = h.shape[0]
    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            if h[i, j]:
                (c, _), (s, _), r = _givens((h[i - 1, j], 0), (h[i, j], 0), g)
                h[i - 1, j], h[i, j] = r, 0
                _transform(h, z, _rotation(c, s), i - 1, j + 1, n, g)


def _francis_qr(h: np.ndarray, z: np.ndarray, g: int, bits: int) -> int:
    """Real Schur form of Hessenberg ``h`` in place; returns the sweep count.

    LAPACK ``dlahqr`` with ULP = 2**(1 - bits) and, as its small-number
    floor, n units of the fixed-point scale, but with Francis's shifts
    (``_shift_polynomial``).  Its sweep counter, reset when an eigenvalue
    or a pair converges at the bottom of the active block, also drives the
    exceptional shifts (every 10th sweep) and the sweep limit.  The
    deflation test is the Ahues-Kressner criterion of ``dlahqr``; the
    integer tests below are its inequalities multiplied out, exact.
    """
    n = h.shape[0]
    maxits = SWEEPS_PER_DIGIT * libmp.prec_to_dps(bits)
    sweeps = 0
    i = n - 1
    while i >= 0:
        l = its = 0
        while True:
            l = next((k for k in range(i, l, -1) if _negligible(h, k, bits, n)), l)
            if l > 0:
                h[l, l - 1] = 0
            if l >= i - 1:
                break
            its += 1
            if its > maxits:
                raise ConvergenceError(f"QR failed to converge after {its} sweeps")
            _double_shift_sweep(h, z, l, i, _shift_polynomial(h, l, i, its),
                                g, bits)
            sweeps += 1
        if l == i - 1:
            _standardize(h, z, l, g)
        i = l - 1
    return sweeps


def _negligible(h: np.ndarray, k: int, bits: int, smlnum: int) -> bool:
    """Whether ``dlahqr`` takes h[k, k - 1] as negligible (Ahues & Kressner)."""
    hk = abs(h[k, k - 1])
    if hk <= smlnum:
        return True
    tst = abs(h[k - 1, k - 1]) + abs(h[k, k])
    if tst == 0:
        n = h.shape[0]
        tst = (abs(h[k - 1, k - 2]) if k >= 2 else 0) + (
            abs(h[k + 1, k]) if k + 1 < n else 0)
    if hk << (bits - 1) > tst:
        return False
    ab, ba = max(hk, abs(h[k - 1, k])), min(hk, abs(h[k - 1, k]))
    diff = abs(h[k - 1, k - 1] - h[k, k])
    aa, bb = max(abs(h[k, k]), diff), min(abs(h[k, k]), diff)
    return (ba * ab) << (bits - 1) <= max((smlnum * (aa + ab)) << (bits - 1),
                                          bb * aa)


def _shift_polynomial(h: np.ndarray, l: int, i: int, its: int) -> Tuple[int, int]:
    """(sum, product) of the two shifts of the sweep on rows l..i.

    Francis's pair (Golub & Van Loan, Algorithm 7.5.1): both eigenvalues of
    the trailing 2 x 2 block, or of ``dlahqr``'s exceptional substitute on
    every 10th sweep.  ``dlahqr`` itself takes the nearer of two real
    eigenvalues twice; on scarf2 K at n = 160, whose largest eigenvalues
    come in tight clusters, that took 668 sweeps against 446.  The sum is
    at the scale of h, the product at its square.
    """
    if its % 10 == 0:
        # the exceptional shift, built at the bottom (every 20th) or the top
        s, d = ((abs(h[i, i - 1]) + abs(h[i - 1, i - 2]), h[i, i]) if its % 20 == 0
                else (abs(h[l + 1, l]) + abs(h[l + 2, l + 1]), h[l, l]))
        h11 = h22 = _shift(3 * s, -2) + d
        h12, h21 = _shift(-7 * s, -4), s
    else:
        h11, h12 = h[i - 1, i - 1], h[i - 1, i]
        h21, h22 = h[i, i - 1], h[i, i]
    return h11 + h22, h11 * h22 - h12 * h21


def _double_shift_sweep(h: np.ndarray, z: np.ndarray, l: int, i: int,
                        shifts: Tuple[int, int], g: int, bits: int) -> None:
    """One Francis double-shift sweep on the active block l..i (``dlahqr``).

    It starts at the lowest row m whose subdiagonal entry the first
    reflector would leave negligible, and chases the bulge down with one
    3 x 3 reflector per step (2 x 2 at the last).
    """
    total, product = shifts
    for m in range(i - 2, l - 1, -1):
        h00, h01, h10 = h[m, m], h[m, m + 1], h[m + 1, m]
        v = [h00 * h00 + h01 * h10 - total * h00 + product,
             h10 * (h00 + h[m + 1, m + 1] - total),
             h10 * h[m + 2, m + 1]]
        if m == l:
            break
        left = abs(h[m, m - 1]) * (abs(v[1]) + abs(v[2]))
        right = abs(v[0]) * (abs(h[m - 1, m - 1]) + abs(h00) + abs(h[m + 1, m + 1]))
        if left << (bits - 1) <= right:
            break
    for k in range(m, i):
        nr = min(3, i - k + 1)
        if k > m:
            v = h[k:k + nr, k - 1].tolist()
        q, beta = _reflector(v, g)
        if k > m:
            h[k:k + nr, k - 1] = 0
            h[k, k - 1] = beta
        elif m > l:
            h[k, k - 1] = _shift(h[k, k - 1] * q[0, 0], -g)
        _transform(h, z, q, k, k, min(k + 4, i + 1), g)


def _standardize(h: np.ndarray, z: np.ndarray, p: int, g: int) -> None:
    """Bring the converged 2 x 2 block at rows p, p + 1 to ``dlanv2``'s form.

    Real eigenvalues: triangular, the eigenvector of the one farther from
    the other diagonal entry rotated onto the first axis.  Complex ones:
    [[a, b], [c, a]] with b c < 0, by the rotation that equalizes the
    diagonal.  Each rotation also acts on the rest of h and on z; the entry
    it makes 0 or equal up to rounding is then set exactly.  At most two
    rotations: one that equalizes the diagonal of a block whose eigenvalues
    turn out real is followed by a triangularizing one.
    """
    while True:
        a, b, c, d = h[p, p], h[p, p + 1], h[p + 1, p], h[p + 1, p + 1]
        if c == 0 or (a == d and b * c < 0):
            return
        disc4 = (a - d) ** 2 + 4 * b * c
        # below, the ints are first scaled by 2**g so that isqrt keeps g bits
        if disc4 >= 0:
            # (x, c) is an eigenvector, x = q + sign(q) sqrt(q^2 + b c), q = (a - d) / 2
            root = isqrt(disc4 << 2 * g)
            twice_x = ((a - d) << g) + (root if a >= d else -root)
            (cs, _), (sn, _), _ = _givens((twice_x, 0), ((2 * c) << g, 0), g)
            _transform(h, z, _rotation(cs, sn), p, p, p + 2, g)
            h[p + 1, p] = 0
        else:
            # cs = sqrt((1 + |sigma| / tau) / 2), sn = -sign(sigma) temp / (2 tau cs)
            sigma, temp = (b + c) << g, (a - d) << g
            tau = isqrt(sigma * sigma + temp * temp)
            cs = isqrt(((tau + abs(sigma)) << 2 * g) // (2 * tau))
            sn = _divide(temp << 2 * g, 2 * tau * cs)
            _transform(h, z, _rotation(cs, -sn if sigma >= 0 else sn), p, p,
                       p + 2, g)
            h[p, p] = h[p + 1, p + 1] = _shift(h[p, p] + h[p + 1, p + 1], -1)
