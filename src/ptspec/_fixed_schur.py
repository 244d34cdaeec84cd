"""The real Schur form and its eigenvectors in fixed-point integer
arithmetic: the extended mode's kernel.

``real_schur`` takes the real Schur form of a real matrix on an array of
ints: reduction to Hessenberg form by Givens rotations, then the Francis
double-shift QR (J. G. F. Francis, Comput. J. 4, 1961-62; Golub & Van
Loan, Matrix Computations, 7.5) as LAPACK ``dlahqr`` runs it, with its
Ahues-Kressner deflation test and exceptional shifts, each bulge step one
3 x 3 reflector; every converged 2 x 2 block is standardized as ``dlanv2``
does.  mpmath applies a rotation to two rows as ~4n separate ``mpf``
products, each a Python-level call; here every entry is a fixed-point
integer, so a rotation or reflector is one small integer matrix product
over whole object arrays of Python ints, looped in C.

Entries are held at one common scale 2**f with f = bits + GUARD_BITS -
ceil(log2 max|a_ij|): the largest entry has bits + GUARD_BITS significant
bits, and every entry is off by at most half a unit of 2**-f.  Rotation
and reflector coefficients and the orthogonal factor, whose entries are
at most 1, are held at scale 2**g with g = bits + GUARD_BITS.  Every
product is rounded back to its scale to the nearest unit, so the normwise
backward error of the decomposition is a few units of
2**-(bits + GUARD_BITS) * max|a_ij| per transformation -- far below a
``bits``-bit float's -- and the deflation test's threshold, relative
2**(1 - bits), stays well above that rounding level.

``eigenvectors`` takes the factors back: the back substitution of LAPACK
``dtrevc3`` on T, V = Z Y and each residual ||A v - lambda v|| run on
ints converted exactly from the ``mpf`` factors, each complex column as
two int planes, where the ``mpf`` entries multiplied into ``mpc`` columns
took one Python call per operation.
"""

from __future__ import annotations

from math import isqrt, ldexp
from typing import Sequence, Tuple

import mpmath
import numpy as np
from mpmath import libmp

from .eigensolver import ConvergenceError
from .trace import span

#: Bits kept beyond the target precision.  The deflation test needs its
#: threshold well above the rounding level: on scarf2 K (A = 30, L = 10,
#: N = 21) QR takes 78 sweeps with 20 guard bits and 188 with 40, and 31
#: with 64, 80, 96 and 128.
GUARD_BITS = 96

#: mpmath's sweep limit: four QR sweeps per decimal digit of the working
#: precision, counted since an eigenvalue or a pair last converged at the
#: bottom of the active block.
SWEEPS_PER_DIGIT = 4


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
    digit of ``bits`` without an eigenvalue or a pair converging.  The
    two steps are the ``trace`` spans ``eigensolver.hessenberg`` and
    ``eigensolver.qr``.
    """
    n = a.shape[0]
    g = bits + GUARD_BITS
    h, f = _to_fixed(a, g)
    z = np.zeros((n, n), dtype=object)
    np.fill_diagonal(z, 1 << g)
    with span("eigensolver.hessenberg"):
        _hessenberg(h, z, g)
    with span("eigensolver.qr"):
        sweeps = _francis_qr(h, z, g, bits)
    return _to_mpf(h, f, bits), _to_mpf(z, g, bits), sweeps


def _to_fixed(a: np.ndarray, g: int, exact: bool = False) -> Tuple[np.ndarray, int]:
    """Ints a * 2**f, the largest with g bits, and f; ValueError unless a is real.

    With ``exact``, f is raised where needed so that every entry is exact.
    """
    a = np.asarray(a, dtype=object)
    parts = []
    for x in a.ravel().tolist():
        if type(x) is not mpmath.mpf:
            x = mpmath.mpmathify(x)
            if x.imag:
                raise ValueError("expected a real matrix")
            x = x.real
        parts.append(_man_exp(x))
    top = max((m.bit_length() + e for m, e in parts if m), default=0)
    f = g - top
    if exact:
        f = max([f, *(-e for m, e in parts if m)])
    fixed = np.empty(len(parts), dtype=object)
    fixed[:] = [_shift(m, e + f) for m, e in parts]
    return fixed.reshape(a.shape), f


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


def _to_mpf(plane: np.ndarray, f: int, bits: int) -> np.ndarray:
    """Object array of ``mpf`` plane * 2**-f, rounded to ``bits`` bits."""
    make = mpmath.mp.make_mpf
    out = np.empty(plane.shape, dtype=object)
    out.ravel()[:] = [make(libmp.from_man_exp(m, -f, bits, "n"))
                      for m in plane.ravel().tolist()]
    return out


def _givens(x: int, y: int, g: int) -> Tuple[int, int, int]:
    """(c, s, v): the rotation G = [[c, s], [-s, c]] with G (x, y)^T = (v, 0)^T.

    ``x`` and ``y`` are ints at any common scale; returns c, s at scale
    2**g and v >= 0 at the inputs' scale.  The inputs are first shifted up
    to at least g + 8 bits, so that ``isqrt`` gives v, and hence c = x / v
    and s = y / v, to 2**-g relative even when x and y are a few units: a
    bulge entry that small otherwise yields a rotation orthogonal only to
    about 1 / v, and QR stalls.
    """
    top = max(abs(x), abs(y)).bit_length()
    if top == 0:
        return 1 << g, 0, 0
    up = max(g + 8 - top, 0)
    x, y = x << up, y << up
    v = isqrt(x * x + y * y)
    return _divide(x << g, v), _divide(y << g, v), _shift(v, -up)


def _divide(p: int, q: int) -> int:
    """p / q rounded to the nearest integer, q > 0."""
    return (2 * p + q) // (2 * q)


def _rounded_product(m: np.ndarray, v: np.ndarray, g: int) -> np.ndarray:
    """(m @ v) * 2**-g, rounded; a new array, so ``v`` may be a view."""
    return (m @ v + (1 << (g - 1))) >> g


def _rotation(c: int, s: int) -> np.ndarray:
    """G = [[c, s], [-s, c]], the rotation of ``_givens``."""
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


def _hessenberg(h: np.ndarray, z: np.ndarray, g: int) -> None:
    """Reduce ``h`` to upper Hessenberg form by Givens rotations, bottom up."""
    n = h.shape[0]
    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            if h[i, j]:
                c, s, r = _givens(h[i - 1, j], h[i, j], g)
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
            cs, sn, _ = _givens(twice_x, (2 * c) << g, g)
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


def eigenvectors(t: np.ndarray, z: np.ndarray, a: np.ndarray, ks: np.ndarray,
                 lam: Sequence, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Right eigenvectors of A = Z T Z^T for the eigenvalues at ``ks``, and
    their residuals.

    T and Z are the factors ``real_schur`` returns for A, ``ks`` ascending
    positions on T's diagonal and ``lam`` their eigenvalues, as
    ``eigensolver`` reads them off T.  Returns an n x len(ks) object array
    of ``mpc`` rounded to ``bits`` bits, whose column c is the eigenvector
    of ``lam[c]`` scaled so that its largest entry (the first of largest
    modulus) is exactly 1, and each column's ||A v - lam v|| as float64.

    T with ``lam``, Z, and A with ``lam`` are converted exactly to fixed
    point (``_to_fixed``), each with at least g = bits + GUARD_BITS bits on
    its largest entry; each complex column is held as two int planes.
    ``_back_substitute`` solves T y = lam y, V = Z Y, and V is divided by
    its largest entry at scale 2**g before the rounding to ``bits``.  The
    residual is exact for the returned vectors and ``lam``, and only its
    norm is rounded.  Each column is computed on its own, so a vector does
    not depend on which other columns share the call.  The stages are the
    ``trace`` spans ``eigensolver.backsub``, ``eigensolver.zy`` and
    ``eigensolver.residual``.
    """
    n, m = len(t), len(ks)
    g = bits + GUARD_BITS
    lam = [mpmath.mpmathify(x) for x in lam]
    parts = np.array([x.real for x in lam] + [x.imag for x in lam], dtype=object)
    with span("eigensolver.backsub"):
        fixed, f = _to_fixed(np.concatenate((np.ravel(t), parts)), g, exact=True)
        y = _back_substitute(fixed[:n * n].reshape(n, n), ks, fixed[n * n:n * n + m],
                             fixed[n * n + m:], g, bits - 1)
    with span("eigensolver.zy"):
        zz, _ = _to_fixed(z, g, exact=True)
        vectors, v = _unit_largest(zz[:, :y.shape[1]] @ y, g, bits)
        del y
    with span("eigensolver.residual"):
        fixed, fa = _to_fixed(np.concatenate((np.ravel(a), parts)), g, exact=True)
        lr, li = fixed[n * n:n * n + m], fixed[n * n + m:]
        r = fixed[:n * n].reshape(n, n) @ v
        r[0] -= v[0] * lr - v[1] * li
        r[1] -= v[1] * lr + v[0] * li
        norms = (r[0] * r[0] + r[1] * r[1]).sum(axis=0).tolist()
    return vectors, np.array([_root(x, fa + g) for x in norms], dtype=np.float64)


def _back_substitute(t: np.ndarray, ks: np.ndarray, lr: np.ndarray,
                     li: np.ndarray, g: int, up: int) -> np.ndarray:
    """Planes (re, im) of the eigenvectors of the integer Schur form ``t``.

    ``t`` holds T * 2**f, and ``lr``, ``li`` the parts of each column's
    eigenvalue at the same scale.  Column c solves (T - lam[c] I) y = 0 as
    LAPACK ``dtrevc3`` does: its own diagonal block is seeded with the
    block's exact eigenvector, 1 on a 1 x 1 block and [b, i Im lam] on a
    2 x 2 one [[a, b], [c, a]], divided by its larger part; the rows below
    are 0, and the diagonal blocks above are solved bottom-up, each for
    every column still open there.  Returns y * 2**g, shape (2, rows, m),
    with the rows up to the last column's own block.

    With eps = 2**-up, ``dtrevc3``'s floor smin = eps (|Re lam| + |Im lam|),
    but at least one unit of the scale, replaces a 1 x 1 divisor of smaller
    modulus, and ``dlaln2``'s floor smin max|m_ij| the determinant of a
    2 x 2 system M that is smaller than it, so a (near-)repeated
    eigenvalue still yields a finite vector.  Both tests compare squares of
    ints, exact.  Divisors and determinants are held 2**up above their
    natural scale, where smin is an integer.
    """
    n, m = len(t), len(ks)
    # pair[j]: rows j, j+1 hold a 2 x 2 block; pair[-1] == pair[n] is False
    pair = np.zeros(n + 1, dtype=bool)
    pair[:n - 1] = np.diagonal(t, -1) != 0
    own = ks - pair[ks - 1]  # first row of each column's own block
    size = int(own[-1]) + 1 + int(pair[own[-1]])
    y = np.zeros((2, size, m), dtype=object)
    for c, row in enumerate(own.tolist()):
        if pair[row]:
            b, w = t[row, row + 1], li[c]
            top = max(abs(b), abs(w))
            y[0, row, c], y[1, row + 1, c] = _divide(b << g, top), _divide(w << g, top)
        else:
            y[0, row, c] = 1 << g
    smin = np.maximum(np.abs(lr) + np.abs(li), 1 << up)
    rows = np.arange(size)
    tops = rows[~pair[rows - 1]]
    for top, end in zip(tops[::-1].tolist(), np.append(tops[1:], size)[::-1].tolist()):
        s = int(np.searchsorted(own, end - 1, side="right"))  # the open columns
        if s == m:
            continue
        r = t[top:end, end:size] @ y[:, end:size, s:]  # at scale 2**(f + g)
        p0, w, lo = t[top, top] - lr[s:], li[s:], smin[s:]
        if end - top == 1:
            # the divisor p0 - i w, raised to smin when smaller
            small = (p0 * p0 + w * w) << 2 * up < lo * lo
            dr, di = np.where(small, lo, p0 << up), np.where(small, 0, -w << up)
            u = r[:, 0]
        else:
            # M = [[p0 - i w, m01], [m10, p1 - i w]]: u = adj(M) r, x = -u / det M
            p1, m01, m10 = t[top + 1, top + 1] - lr[s:], t[top, top + 1], t[top + 1, top]
            det_r, det_i = p0 * p1 - w * w - m01 * m10, -w * (p0 + p1)
            big = np.maximum(np.maximum(p0 * p0, p1 * p1) + w * w,
                             max(m01 * m01, m10 * m10))
            small = (det_r * det_r + det_i * det_i) << 2 * up < lo * lo * big
            floor = lo * np.frompyfunc(isqrt, 1, 1)(big)
            dr, di = np.where(small, floor, det_r << up), np.where(small, 0, det_i << up)
            u = np.stack((p1 * r[0, 0] + w * r[1, 0] - m01 * r[0, 1],
                          p1 * r[1, 0] - w * r[0, 0] - m01 * r[1, 1],
                          p0 * r[0, 1] + w * r[1, 1] - m10 * r[0, 0],
                          p0 * r[1, 1] - w * r[0, 1] - m10 * r[1, 0]))
            u = u.reshape(2, 2, -1).transpose(1, 0, 2)
        # x = -u conj(d) / |d|^2, d held 2**up above its scale
        norm = dr * dr + di * di
        y[0, top:end, s:] = _divide(-(u[0] * dr + u[1] * di) << up, norm)
        y[1, top:end, s:] = _divide(-(u[1] * dr - u[0] * di) << up, norm)
    return y


def _unit_largest(v: np.ndarray, g: int, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The columns of planes ``v`` (at any one scale) divided by their
    largest entry: as ``mpc`` rounded to ``bits`` bits, and as the planes
    of those values at scale 2**g.

    The largest entry is the first of largest modulus; it becomes exactly 1.
    The quotients are rounded at scale 2**g, then to ``bits`` bits, which
    keeps every part a multiple of 2**-g.
    """
    n, m = v.shape[1:]
    cols = np.arange(m)
    big = np.argmax(v[0] * v[0] + v[1] * v[1], axis=0)
    mr, mi = v[0, big, cols], v[1, big, cols]
    norm = mr * mr + mi * mi
    parts = [[libmp.from_man_exp(q, -g, bits, "n") for q in plane.ravel().tolist()]
             for plane in (_divide((v[0] * mr + v[1] * mi) << g, norm),
                           _divide((v[1] * mr - v[0] * mi) << g, norm))]
    make = mpmath.mp.make_mpc
    vectors = np.empty((n, m), dtype=object)
    vectors.ravel()[:] = [make(pair) for pair in zip(*parts)]
    planes = np.empty((2, n * m), dtype=object)
    for plane, values in zip(planes, parts):
        plane[:] = [(-man if sign else man) << (exp + g)
                    for sign, man, exp, _ in values]
    return vectors, planes.reshape(2, n, m)


def _root(x: int, f: int) -> float:
    """sqrt(x) * 2**-f, x >= 0, to double precision."""
    k = x.bit_length() // 2 - 64  # keeps 64 bits of the root
    return ldexp(isqrt(x >> 2 * k if k > 0 else x << -2 * k), k - f)
