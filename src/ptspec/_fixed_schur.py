"""The real Schur form and selected eigenvectors in fixed-point integer
arithmetic: the extended mode's kernel.

``real_schur`` takes the real Schur form of a real matrix on an array of
ints without forming its orthogonal factor, LAPACK's eigenvalues-first
route (Golub & Van Loan, Matrix Computations, 7.6.1): reduction to
Hessenberg form H = Q^T A Q by Householder reflectors as ``dgehrd`` takes
it, the reflectors recorded in place of Q, then the Francis double-shift
QR (J. G. F. Francis, Comput. J. 4, 1961-62; Golub & Van Loan, 7.5) on H
alone as LAPACK ``dlahqr`` runs it, with its Ahues-Kressner deflation
test and exceptional shifts, each bulge step one 3 x 3 reflector; every
converged 2 x 2 block is standardized as ``dlanv2`` does.  mpmath applies
a rotation to two rows as ~4n separate ``mpf`` products, each a
Python-level call; here every entry is a fixed-point integer, so a
reflector is one small integer matrix product over whole object arrays of
Python ints, looped in C.

Entries are held at one common scale 2**f with f = bits + GUARD_BITS -
ceil(log2 max|a_ij|): the largest entry has bits + GUARD_BITS significant
bits, and every entry is off by at most half a unit of 2**-f.  Reflector
and rotation coefficients, whose entries are at most 1 (at most sqrt 2
for a Householder vector), are held at scale 2**g with g = bits +
GUARD_BITS.  Every product is rounded back to its scale to the nearest
unit, so the normwise backward error of the decomposition is a few units
of 2**-(bits + GUARD_BITS) * max|a_ij| per transformation -- far below a
``bits``-bit float's -- and the deflation test's threshold, relative
2**(1 - bits), stays well above that rounding level.

``eigenvectors`` takes the vectors asked for from the Hessenberg H kept
before the QR, by the inverse iteration of LAPACK ``dlaein`` (one pivoted
LU of H - lambda I per vector, a floored last pivot, one solve, and
another start vector only for a column whose solve shows too little
growth), maps them back through the recorded reflectors (``dormhr``), and
measures each residual ||A v - lambda v|| exactly; each complex column is
held as two int planes.
"""

from __future__ import annotations

from math import isqrt, ldexp
from typing import List, NamedTuple, Sequence, Tuple

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

#: ``dlahqr``'s sweep limit: 30 QR sweeps per row, of at least 10 rows,
#: counted since an eigenvalue or a pair last converged at the bottom of the
#: active block.
SWEEPS_PER_ROW = 30


class Hessenberg(NamedTuple):
    """What the eigenvectors of one diagonal block are taken from: its
    Hessenberg form H = Q^T A Q before the QR, and Q as reflectors.

    ``h`` holds H * 2**f as ints, ``f`` its scale, and ``lo`` the block's
    first row and column in the whole matrix.  ``reflectors`` are the
    Householder vectors u at scale 2**g (g = bits + GUARD_BITS), in the
    order of the reduction: each P = I - u u^T / 2**(2 g), with ||u|| =
    sqrt 2 * 2**g, acts on the last len(u) rows and columns, and Q is
    their product in that order.  A column with nothing below its
    subdiagonal has none.  They hold about n^2 / 2 ints where Q would take
    n^2.
    """

    lo: int
    h: np.ndarray
    f: int
    reflectors: Tuple[np.ndarray, ...]


def real_schur(a: np.ndarray, bits: int) -> Tuple[np.ndarray, int, Hessenberg]:
    """Real Schur form A = Z T Z^T of a square matrix of real numbers, Z not formed.

    ``a`` holds anything ``mpmath.mpmathify`` accepts, with every imaginary
    part 0 (ValueError otherwise).  Returns T * 2**f as ints, the number of
    QR sweeps taken, and the ``Hessenberg`` factor (``lo`` 0) at the same
    scale f.  T is exactly 0 below its subdiagonal, and each nonzero
    subdiagonal entry belongs to a standardized 2 x 2 block [[a, b], [c, a]]
    with b c < 0, whose eigenvalues are the conjugate pair
    a +- i sqrt|b| sqrt|c| (``schur_eigenvalues``).  Z = Q Z', Q of the
    reflectors and Z' of the QR's transformations, is never formed.
    Raises ConvergenceError when the active block goes more than
    ``SWEEPS_PER_ROW`` * max(10, n) sweeps without an eigenvalue or a pair
    converging.  The two steps are the ``trace`` spans
    ``eigensolver.hessenberg`` and ``eigensolver.qr``.
    """
    g = bits + GUARD_BITS
    h, f = _to_fixed(a, g)
    with span("eigensolver.hessenberg"):
        reflectors = _hessenberg(h, g)
        kept = Hessenberg(0, h.copy(), f, reflectors)
    with span("eigensolver.qr"):
        sweeps = _francis_qr(h, g, bits)
    return h, sweeps, kept


def schur_eigenvalues(t: np.ndarray, f: int, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and conjugate partners of the real Schur form T * 2**f
    that ``real_schur`` returns, as ``mpc`` at mpmath's working precision.

    T's entries are rounded to ``bits`` bits once; each pair sits in a
    standardized block [[a, b], [c, a]] with b c < 0, whose eigenvalues
    a +- i sqrt|b| sqrt|c| are bitwise conjugate, the one with positive
    imaginary part first, and partners of each other (-1 for a real one).
    """
    n = len(t)
    k = np.flatnonzero(np.diagonal(t, -1))
    imag = np.zeros(n, dtype=object)
    if len(k):
        root = np.frompyfunc(mpmath.sqrt, 1, 1)
        omega = (root(np.abs(_to_mpf(t[k, k + 1], f, bits)))
                 * root(np.abs(_to_mpf(t[k + 1, k], f, bits))))
        imag[k], imag[k + 1] = omega, -omega
    values = np.frompyfunc(mpmath.mpc, 2, 1)(_to_mpf(np.diagonal(t), f, bits), imag)
    partners = np.full(n, -1)
    partners[k], partners[k + 1] = k + 1, k
    return values, partners


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

    ``x`` has 2 or 3 entries.  P = I - v v^T / d from ``_reflection``;
    P = I when x has no entry below its first.  The entries of v v^T are
    divided by d through one reciprocal, 16 bits wider than P needs.
    """
    if not any(x[1:]):
        p = np.zeros((len(x), len(x)), dtype=object)
        np.fill_diagonal(p, 1 << g)
        return p, x[0]
    v, d, beta = _reflection(x, g)
    s = d.bit_length() + 16
    reciprocal, half, one = (1 << (s + g)) // d, 1 << (s - 1), 1 << g
    a, b = v[0], v[1]
    wa, wb = a * reciprocal, b * reciprocal
    ab = -((a * wb + half) >> s)
    if len(v) == 2:
        p = [[one - ((a * wa + half) >> s), ab], [ab, one - ((b * wb + half) >> s)]]
    else:
        c = v[2]
        wc = c * reciprocal
        ac, bc = -((a * wc + half) >> s), -((b * wc + half) >> s)
        p = [[one - ((a * wa + half) >> s), ab, ac],
             [ab, one - ((b * wb + half) >> s), bc],
             [ac, bc, one - ((c * wc + half) >> s)]]
    return np.array(p, dtype=object), beta


def _householder(x: List[int], g: int) -> Tuple[np.ndarray, int]:
    """(u, beta): P = I - u u^T / 2**(2 g) with P x = beta e_1, for ``x``
    with an entry below its first; u = v / sqrt(d) at scale 2**g, v and d
    from ``_reflection``, so ||u|| = sqrt(2) * 2**g."""
    v, d, beta = _reflection(x, g)
    root = isqrt(d)
    u = np.empty(len(v), dtype=object)
    u[:] = [_divide(e << g, root) for e in v]
    return u, beta


def _reflection(x: List[int], g: int) -> Tuple[List[int], int, int]:
    """(v, d, beta) of the Householder reflection I - v v^T / d that takes
    ``x`` to beta e_1 (LAPACK ``dlarfg``): beta = -sign(x_0) ||x|| at the
    scale of the ints ``x``, v = x - beta e_1 and d = v^T v / 2, both with
    x first shifted up to at least g + 8 bits, so that ``isqrt`` keeps
    what is built from them to 2**-g relative.  ``x`` has an entry below
    its first."""
    up = max(g + 8 - max(map(abs, x)).bit_length(), 0)
    v = [e << up for e in x]
    r = isqrt(sum([e * e for e in v]))
    sign = 1 if v[0] >= 0 else -1
    d = r * (r + abs(v[0]))
    v[0] += sign * r
    return v, d, -sign * _shift(r, -up)


def _transform(h: np.ndarray, q: np.ndarray, p: int, start: int, stop: int,
               g: int) -> None:
    """h <- Q h Q^T, Q (at scale 2**g) acting on rows and columns
    p..p + len(Q) - 1.

    Row entries left of column ``start`` and column entries from row
    ``stop`` down are zero in h and are skipped.
    """
    k = len(q)
    h[p:p + k, start:] = _rounded_product(q, h[p:p + k, start:], g)
    h[:stop, p:p + k] = _rounded_product(h[:stop, p:p + k], q.T, g)


def _hessenberg(h: np.ndarray, g: int) -> Tuple[np.ndarray, ...]:
    """Reduce ``h`` to upper Hessenberg form in place, column by column,
    by Householder reflectors (``dgehrd``); returns their vectors u as
    ``Hessenberg.reflectors`` holds them.

    Its products are rounded down.  The rounding moves H by units, and
    with it the QR's sweep count on clustered eigenvalues: on scarf2 K
    (A = 30, L = 10) at n = 120, 140, ..., 220 the QR that follows ran
    out of sweeps at n = 160, 180, 200 and 220 after a reduction rounded
    to the nearest unit, and only at 220 after this one.
    """
    n = h.shape[0]
    reflectors = []
    for j in range(n - 2):
        x = h[j + 1:, j].tolist()
        if not any(x[1:]):
            continue
        u, h[j + 1, j] = _householder(x, g)
        h[j + 2:, j] = 0
        # P h P on the rows and columns from j + 1 on, as rank-one updates
        rows = h[j + 1:, j + 1:]
        rows -= np.multiply.outer(u, (u @ rows) >> g) >> g
        cols = h[:, j + 1:]
        cols -= np.multiply.outer((cols @ u) >> g, u) >> g
        reflectors.append(u)
    return tuple(reflectors)


def _francis_qr(h: np.ndarray, g: int, bits: int) -> int:
    """Real Schur form of Hessenberg ``h`` in place; returns the sweep count.

    LAPACK ``dlahqr`` with ULP = 2**(1 - bits) and, as its small-number
    floor, n units of the fixed-point scale, but with Francis's shifts
    (``_shift_polynomial``).  Its sweep counter, reset when an eigenvalue
    or a pair converges at the bottom of the active block, drives the
    exceptional shifts (every 10th sweep) and, as in ``dlahqr``, the sweep
    limit: ``SWEEPS_PER_ROW`` * max(10, n), whatever ``bits``.  The
    deflation test is the Ahues-Kressner criterion of ``dlahqr``; the
    integer tests below are its inequalities multiplied out, exact.  Each
    transformation updates the whole of h, as ``dlahqr`` with WANTT does,
    and no Z.
    """
    n = h.shape[0]
    maxits = SWEEPS_PER_ROW * max(10, n)
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
            _double_shift_sweep(h, l, i, _shift_polynomial(h, l, i, its), g, bits)
            sweeps += 1
        if l == i - 1:
            _standardize(h, l, g)
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


def _double_shift_sweep(h: np.ndarray, l: int, i: int, shifts: Tuple[int, int],
                        g: int, bits: int) -> None:
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
        _transform(h, q, k, k, min(k + 4, i + 1), g)


def _standardize(h: np.ndarray, p: int, g: int) -> None:
    """Bring the converged 2 x 2 block at rows p, p + 1 to ``dlanv2``'s form.

    Real eigenvalues: triangular, the eigenvector of the one farther from
    the other diagonal entry rotated onto the first axis.  Complex ones:
    [[a, b], [c, a]] with b c < 0, by the rotation that equalizes the
    diagonal.  Each rotation also acts on the rest of h; the entry it
    makes 0 or equal up to rounding is then set exactly.  At most two
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
            _transform(h, _rotation(cs, sn), p, p, p + 2, g)
            h[p + 1, p] = 0
        else:
            # cs = sqrt((1 + |sigma| / tau) / 2), sn = -sign(sigma) temp / (2 tau cs)
            sigma, temp = (b + c) << g, (a - d) << g
            tau = isqrt(sigma * sigma + temp * temp)
            cs = isqrt(((tau + abs(sigma)) << 2 * g) // (2 * tau))
            sn = _divide(temp << 2 * g, 2 * tau * cs)
            _transform(h, _rotation(cs, -sn if sigma >= 0 else sn), p, p, p + 2, g)
            h[p, p] = h[p + 1, p + 1] = _shift(h[p, p] + h[p + 1, p + 1], -1)


def eigenvectors(factor: Hessenberg, a: np.ndarray, lam: Sequence,
                 bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """Right eigenvectors of the diagonal block A for the eigenvalues
    ``lam``, and their residuals.

    ``factor`` is A's ``Hessenberg`` factor and ``lam`` some of its
    eigenvalues.  Returns a len(A) x len(lam) object array of ``mpc``
    rounded to ``bits`` bits, whose column c is the eigenvector of
    ``lam[c]`` scaled so that its largest entry (the first of largest
    modulus) is exactly 1, and each column's ||A v - lam v|| as float64.

    Each column is solved on H (``_inverse_iteration``), mapped back
    through the reflectors and divided by its largest entry at scale
    2**g, g = bits + GUARD_BITS, before the rounding to ``bits``.  A with
    ``lam`` is converted exactly to fixed point (``_to_fixed``), so the
    residual is exact for the returned vectors and ``lam``, and only its
    norm is rounded.  Each column is computed on its own, so a vector does
    not depend on which other columns share the call.  The stages are the
    ``trace`` spans ``eigensolver.inverse_iteration``, ``eigensolver.q``
    and ``eigensolver.residual``.
    """
    n, m = len(a), len(lam)
    g = bits + GUARD_BITS
    lam = [mpmath.mpmathify(x) for x in lam]
    with span("eigensolver.inverse_iteration"):
        y = _inverse_iteration(factor.h, lam, factor.f, g, bits)
    with span("eigensolver.q"):
        vectors, v = _unit_largest(_apply_q(factor.reflectors, y, g), g, bits)
        del y
    with span("eigensolver.residual"):
        parts = np.array([z.real for z in lam] + [z.imag for z in lam], dtype=object)
        fixed, fa = _to_fixed(np.concatenate((np.ravel(a), parts)), g, exact=True)
        lr, li = fixed[n * n:n * n + m], fixed[n * n + m:]
        r = fixed[:n * n].reshape(n, n) @ v
        r[0] -= v[0] * lr - v[1] * li
        r[1] -= v[1] * lr + v[0] * li
        norms = (r[0] * r[0] + r[1] * r[1]).sum(axis=0).tolist()
    return vectors, np.array([_root(x, fa + g) for x in norms], dtype=np.float64)


def _inverse_iteration(h: np.ndarray, lam: Sequence, f: int, g: int,
                       bits: int) -> np.ndarray:
    """Planes (re, im) of eigenvectors of the Hessenberg H, h = H * 2**f,
    for the eigenvalues ``lam`` (``mpc``), one column each: LAPACK
    ``dlaein``.

    Each lam is rounded to the scale of h.  H - lam I = P L U by Gaussian
    elimination with partial pivoting, which on a Hessenberg matrix only
    ever swaps a row with the next; a zero pivot is replaced by eps3 =
    ||H||_inf * 2**(1 - g), a few units of the scale, and the last pivot,
    which carries the near-singularity, is raised to eps3 when smaller, so
    a (near-)repeated eigenvalue still yields a finite vector.  (``dlaein``
    takes ||H|| times the unit roundoff, here 2**(1 - bits): on scarf2 K
    that floor set every residual near 1e-33 ||A||, where lam's own
    rounding leaves about 1e-35.)
    Then U x = e, e all ones, as ``dlaein``'s first solve: x = (H - lam I)^-1
    P L e, whose growth 1 / |u_nn| makes it the eigenvector to about
    |u_nn| / ||H||, unless P L e lies near the range of H - lam I; a column
    that fails ``dlaein``'s growth test is solved again from its next start
    vector (on scarf2 K and random matrices none does).  Multipliers are
    held at scale 2**g, e is scaled per column so that x_n has about g
    bits, and every quotient and product is rounded down: an error of a
    unit at those scales, 2**-g relative, far below what lam's own rounding
    leaves in the vector.  The pivot tests compare squares of ints, exact.
    Returns shape (2, n, len(lam)).
    """
    n, m = len(h), len(lam)
    shift = np.array([[_scaled(z.real, f) for z in lam],
                      [_scaled(z.imag, f) for z in lam]], dtype=object)
    hnorm = max(sum(abs(v) for v in row) for row in h.tolist())
    eps3 = max(hnorm >> (g - 1), 1)

    def row(i: int) -> np.ndarray:
        """Row i of H - lam I from column i - 1 on (column 0 for row 0),
        as planes."""
        first = max(i - 1, 0)
        b = np.zeros((2, n - first, m), dtype=object)
        b[0] = h[i, first:, None]
        b[:, i - first] -= shift
        return b

    # U's rows, each from its diagonal on, with |u_ii|^2
    upper = []
    cur = row(0)
    for i in range(n - 1):
        following = row(i + 1)
        e = h[i + 1, i]
        swap = cur[0, 0] * cur[0, 0] + cur[1, 0] * cur[1, 0] < e * e
        pivot, other = np.where(swap, following, cur), np.where(swap, cur, following)
        p, o = pivot[:, 0], other[:, 0]
        zero = (p[0] == 0) & (p[1] == 0)
        if zero.any():
            p[0, zero] = eps3
        # the multiplier l = o / p at scale 2**g, and the row o - l p
        norm = p[0] * p[0] + p[1] * p[1]
        l_r = ((o[0] * p[0] + o[1] * p[1]) << g) // norm
        l_i = ((o[1] * p[0] - o[0] * p[1]) << g) // norm
        lp, turned = l_r * pivot[:, 1:], l_i * pivot[::-1, 1:]
        lp[0] -= turned[0]
        lp[1] += turned[1]
        cur = other[:, 1:] - (lp >> g)
        upper.append((pivot, norm))
    p = cur[:, 0]
    small = p[0] * p[0] + p[1] * p[1] < eps3 * eps3
    if small.any():
        p[0, small], p[1, small] = eps3, 0
    upper.append((cur, p[0] * p[0] + p[1] * p[1]))

    # U x = r e, r = 2**g |u_nn| at the scale of U x; then dlaein's growth
    # test: accept x once 10 sqrt(n) ||x||_1 eps3' >= r, eps3' the floor
    # ||H|| 2**(1 - bits) of dlaein, which bounds the residual by about
    # 10 n^1.5 eps3'; a column short of it (e lay near the range of
    # H - lam I) is solved again from dlaein's next start vector, up to
    # n - 1 times
    scale = np.array([1 << (g + max(abs(a), abs(b)).bit_length()) for a, b in zip(*p)],
                     dtype=object)
    floor = max(hnorm >> (bits - 1), 1)
    x = _solve_upper(upper, np.ones((n, m), dtype=object) * scale)
    root = isqrt(n)
    for its in range(1, n):
        size = (np.abs(x[0]) + np.abs(x[1])).sum(axis=0) * floor
        short = np.flatnonzero(100 * n * size * size < scale * scale)
        if not len(short):
            break
        start = np.ones((n, len(short)), dtype=object) * (scale[short] // (root + 1))
        start[0] = scale[short]
        start[n - its] -= scale[short] * root
        x[:, :, short] = _solve_upper([(u[..., short], norm[short]) for u, norm in upper],
                                      start)
    return x


def _solve_upper(upper: List[Tuple[np.ndarray, np.ndarray]],
                 rhs: np.ndarray) -> np.ndarray:
    """Planes of x with U x = rhs, column by column, bottom-up: U's rows
    as ``_inverse_iteration`` keeps them, each (planes from its diagonal
    on, |u_ii|^2), and ``rhs`` real, n x m.  Quotients are rounded down."""
    n, m = rhs.shape
    x = np.zeros((2, n, m), dtype=object)
    for i in range(n - 1, -1, -1):
        (u, norm), known = upper[i], x[:, i + 1:]
        re, im = (u[:, 1:] * known[0]).sum(axis=1), (u[:, 1:] * known[1]).sum(axis=1)
        num_r, num_i = rhs[i] - re[0] + im[1], -re[1] - im[0]
        x[0, i] = (num_r * u[0, 0] + num_i * u[1, 0]) // norm
        x[1, i] = (num_i * u[0, 0] - num_r * u[1, 0]) // norm
    return x


def _scaled(x: mpmath.mpf, f: int) -> int:
    """x * 2**f rounded to the nearest integer."""
    m, e = _man_exp(x)
    return _shift(m, e + f)


def _apply_q(reflectors: Sequence[np.ndarray], y: np.ndarray, g: int) -> np.ndarray:
    """Q y for the planes ``y`` (2, n, m), Q the product of ``reflectors``
    (``Hessenberg.reflectors``), the last applied first (``dormhr``); a new
    array, each product rounded down at the scale of ``y``."""
    m = y.shape[2]
    w = np.concatenate((y[0], y[1]), axis=1)  # the planes side by side
    for u in reversed(reflectors):
        rows = w[-len(u):]
        rows -= np.multiply.outer(u, (u @ rows) >> g) >> g
    return np.stack((w[:, :m], w[:, m:]))


def _unit_largest(v: np.ndarray, g: int, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The columns of planes ``v`` (each at any one scale) divided by their
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
