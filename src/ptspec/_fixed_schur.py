"""Complex Schur form in fixed-point Gaussian-integer arithmetic.

The extended mode's Schur decomposition.  It is the algorithm of
``mpmath.schur`` -- unitary reduction to upper Hessenberg form, then
single-shift complex QR with the Wilkinson shift, the exceptional shifts
at sweeps 10, 20 and 29 of every 30, and the same deflation test and sweep
limit -- with a different scalar carrier.  mpmath applies a rotation to two
rows as ~4n separate ``mpc`` products, each a Python-level call; here every
entry is a fixed-point Gaussian integer, so a rotation is one small integer
matrix product over whole object arrays of Python ints, looped in C.

Entries are held as two planes of ints, real and imaginary, at one common
scale 2**f with f = bits + GUARD_BITS - ceil(log2 max|Re, Im a_ij|): the
largest entry has bits + GUARD_BITS significant bits, and every entry is
off by at most half a unit of 2**-f.  Rotation coefficients and the unitary
factor, whose entries are at most 1, are held at scale 2**g with
g = bits + GUARD_BITS.  Every product is rounded back to its scale to the
nearest unit, so the normwise backward error of the decomposition is a
few units of 2**-(bits + GUARD_BITS) * max|a_ij| per rotation -- far below
a ``bits``-bit float's -- and the deflation test's 2**(1 - bits) / (100 n)
relative threshold stays well above that rounding level.
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
#: precision, counted since the last deflation.
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
