"""The extended-precision real Schur kernel on fixed-point integers."""

import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ptspec._fixed_schur as kernel
from ptspec import eigensolver
from ptspec.chebdiff import build_grid
from ptspec.eigensolver import ConvergenceError, eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.potentials import PotentialSpec
from ptspec.precision import DOUBLE, EXTENDED, as_working, working_precision

BITS = EXTENDED.bits
G = BITS + kernel.GUARD_BITS


def _scarf2_k(n_intervals=21):
    with working_precision(EXTENDED):
        grid = build_grid(10.0, n_intervals, precision=EXTENDED)
        return assemble(grid, PotentialSpec("scarf2", 30.0)).matrix


def _random_real(seed, n):
    a = np.random.default_rng(seed).standard_normal((n, n))
    with working_precision(EXTENDED):
        return as_working(a, EXTENDED)


def _fro(m):
    return mpmath.sqrt(sum(abs(x) ** 2 for x in np.asarray(m).ravel()))


def _orthogonal_factor(n, reflectors, steps):
    """U = Q Z at 4 x 113 bits: Q the product of the kernel's Householder
    ``reflectors``, Z that of the QR's transformations ``steps``, each
    (Q_k, p) with h <- Q_k h Q_k^T on rows and columns p.., in order."""
    with mpmath.workprec(4 * BITS):
        scale = mpmath.mpf(2) ** -G
        u = np.eye(n, dtype=object) * mpmath.mpf(1)
        for v in reflectors:
            v = v * scale
            u[:, -len(v):] -= np.multiply.outer(u[:, -len(v):] @ v, v)
        for q, p in steps:
            u[:, p:p + len(q)] = u[:, p:p + len(q)] @ (q.T * scale)
    return u


def _schur_errors(a):
    """(T, its eigenvalues, ||A U - U T||_F / ||A||_F, ||U^T U - I||_F) of
    the kernel's Schur form, T rounded to 113 bits as the kernel reads its
    eigenvalues; the orthogonal U, which the kernel does not form, is
    formed here from its reflectors and from each QR transformation,
    recorded as ``_transform`` applies it."""
    steps = []
    transform = kernel._transform

    def record(h, q, p, *args):
        steps.append((q, p))
        transform(h, q, p, *args)

    with mock.patch.object(kernel, "_transform", record):
        t, _, hessenberg = kernel.real_schur(a, BITS)
    u = _orthogonal_factor(len(a), hessenberg.reflectors, steps)
    with working_precision(EXTENDED):
        values = kernel.schur_eigenvalues(t, hessenberg.f, BITS)[0]
        t = kernel._to_mpf(t, hessenberg.f, BITS)
    with mpmath.workprec(4 * BITS):
        a = np.asarray(a, dtype=object)
        fro = _fro(a)
        residual = _fro(a @ u - u @ t) / (fro if fro else 1)
        orth = _fro(u.T @ u - np.eye(len(a), dtype=object))
    return t, values, float(residual), float(orth)


def _is_standard_real_form(t):
    """T is 0 below its subdiagonal, and each nonzero subdiagonal entry
    sits in a 2 x 2 block [[a, b], [c, a]] with b c < 0."""
    n = len(t)
    if any(t[i, j] != 0 for i in range(n) for j in range(i - 1)):
        return False
    sub = [j for j in range(n - 1) if t[j + 1, j] != 0]
    return all(j + 1 not in sub and t[j, j] == t[j + 1, j + 1]
               and t[j, j + 1] * t[j + 1, j] < 0 for j in sub)


def _matched_gap(a, values, reference):
    """Largest eigenvalue gap after minimum-cost matching, over ||A||_F."""
    with working_precision(EXTENDED):
        cost = np.array([[float(abs(x - y)) for y in reference] for x in values])
        rows, cols = linear_sum_assignment(cost)
        return cost[rows, cols].max() / float(_fro(a))


def _random_ints(rng, n):
    """An n x n array of random ints of about 160 bits."""
    h = np.empty((n, n), dtype=object)
    h[...] = [[int(v) << 150 for v in row] for row in rng.integers(-1000, 1000, (n, n))]
    return h


@pytest.mark.parametrize("n", [2, 5])
def test_rotation_reads_both_rows_before_writing_either(n):
    # slices of object arrays are views: a rotation that wrote row p back
    # before reading it for row p + 1 would mix new and old entries
    rng = np.random.default_rng(n)
    h = _random_ints(rng, n)
    c, s, _ = kernel._givens(3, -2, G)
    q = kernel._rotation(c, s)
    p = n - 2
    expected = _reference_transform(h, q, p, G)
    kernel._transform(h, q, p, 0, n, G)
    assert np.array_equal(h, expected)


@pytest.mark.parametrize("x, y", [(1, -1), (0, 3), (1 << 300, -5)],
                         ids=["units", "axis", "wide"])
def test_givens_of_a_few_units_is_orthogonal(x, y):
    # isqrt of a sum of a few units is off by up to 1 / v; the inputs
    # are shifted up to g + 8 bits first, so c^2 + s^2 = 1 to 2^-g
    c, s, v = kernel._givens(x, y, G)
    assert abs(c * c + s * s - (1 << 2 * G)) < 1 << (G + 2)
    # G (x, y)^T = (v, 0)^T, to a unit and 2^-g relative
    tol = 2 + (v >> (G - 2))
    assert abs(((c * x + s * y) >> G) - v) <= tol
    assert abs((c * y - s * x) >> G) <= tol


def test_guard_width_keeps_the_deflation_test_above_rounding(monkeypatch):
    # on scarf2 K at N = 21, QR takes 31 sweeps with 64, 80, 96 or 128
    # guard bits; with 40 the deflation test sits near the rounding level
    # and it takes 188
    assert kernel.GUARD_BITS >= 64
    a = _scarf2_k()
    assert 0 < kernel.real_schur(a, BITS)[1] <= 31
    monkeypatch.setattr(kernel, "GUARD_BITS", 40)
    assert kernel.real_schur(a, BITS)[1] > 100


def test_one_by_one():
    # an mpc with imaginary part 0 is a real number
    a = np.array([[mpmath.mpc(2, 0)]], dtype=object)
    t, values, residual, orth = _schur_errors(a)
    assert t[0, 0] == values[0] == 2
    assert residual == orth == 0


def test_jordan_block():
    # [[2, 1], [-1, 0]] = S [[1, 1], [0, 1]] S^-1: a double eigenvalue 1
    # with one eigenvector, which a backward error e moves by sqrt(e)
    a = np.array([[2, 1], [-1, 0]], dtype=object)
    t, values, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _is_standard_real_form(t)
    with working_precision(EXTENDED):
        assert all(abs(z - 1) < 1e-16 for z in values)


def test_graded_matrix():
    # entries from 1 down to 2^-100: fixed point keeps 2^-(113 + guard)
    # absolute accuracy, so the small ones still carry 100+ bits
    n = 11
    rng = np.random.default_rng(7)
    with working_precision(EXTENDED):
        a = np.array([[mpmath.mpf(float(rng.uniform(0.5, 1.5)))
                       * mpmath.mpf(2) ** (-5 * (i + j)) for j in range(n)]
                      for i in range(n)], dtype=object)
        reference = mpmath.schur(mpmath.matrix(a.tolist()))[1]
    t, values, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _is_standard_real_form(t)
    assert _matched_gap(a, values, [reference[k, k] for k in range(n)]) < 1e-30


def test_non_convergence_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(kernel, "SWEEPS_PER_ROW", 0)
    with pytest.raises(ConvergenceError, match="failed to converge"):
        kernel.real_schur(_random_real(5, 6), BITS)


def test_qr_takes_dlahqr_s_sweep_limit(monkeypatch):
    # the companion matrix of (x^2 + 1)^4: its fourfold pair +-i converges
    # linearly, 147 sweeps without a deflation, more than the 132 that four
    # sweeps per decimal digit of 113 bits allowed; dlahqr allows 300 at n = 8
    coefficients = np.polynomial.polynomial.polypow([1, 0, 1], 4)[::-1]
    a = np.zeros((8, 8))
    a[0] = -coefficients[1:]
    a[1:, :-1] = np.eye(7)
    longest = []
    shifts = kernel._shift_polynomial

    def spy(h, l, i, its):
        longest.append(its)
        return shifts(h, l, i, its)

    monkeypatch.setattr(kernel, "_shift_polynomial", spy)
    t, sweeps, factor = kernel.real_schur(a, BITS)
    assert 132 < max(longest) <= kernel.SWEEPS_PER_ROW * 10
    assert _is_standard_real_form(t)
    with working_precision(EXTENDED):
        values, partners = kernel.schur_eigenvalues(t, factor.f, BITS)
    assert np.count_nonzero(partners >= 0) == 8
    assert all(abs(abs(z.imag) - 1) < 1e-12 and abs(z.real) < 1e-12 for z in values)


@pytest.mark.parametrize("name", ["random12", "scarf2_k"])
def test_eigenvalues_match_mpmath_schur(name):
    a = _random_real(1, 12) if name == "random12" else _scarf2_k()
    with working_precision(EXTENDED):
        r = mpmath.schur(mpmath.matrix(a.tolist()))[1]
    reference = [r[k, k] for k in range(len(a))]
    t, values, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _matched_gap(a, values, reference) < 1e-30


def test_iteration_stats_carry_the_sweep_count():
    a = _scarf2_k()
    sol = eigenvalues(a, precision=EXTENDED)
    assert sol.iteration_stats == (kernel.real_schur(a, BITS)[1],)
    assert sol.iteration_stats[0] > 0
    assert eigenvalues(np.eye(3) + np.eye(3, k=1), precision=DOUBLE).iteration_stats == ()


def test_zero_matrix():
    # n diagonal blocks of order 1, each its own Schur form
    sol = eigenvalues(np.zeros((4, 4), dtype=object), precision=EXTENDED)
    assert all(z == 0 for z in sol.eigenvalues)
    assert sol.partners.tolist() == [-1] * 4
    assert sol.iteration_stats == (0,)


def test_reflectors_factor_the_kept_hessenberg_form():
    # H = Q^T A Q as the QR found it, Q the product of the reflectors
    a = _random_real(9, 12)
    _, _, hessenberg = kernel.real_schur(a, BITS)
    h = hessenberg.h
    assert all(x == 0 for x in np.tril(h, -2).ravel())
    # one reflector of length n - j - 1 per column j < n - 2
    assert [len(u) for u in hessenberg.reflectors] == list(range(11, 1, -1))
    q = _orthogonal_factor(len(a), hessenberg.reflectors, [])
    with mpmath.workprec(4 * BITS):
        h = h * mpmath.mpf(2) ** -hessenberg.f
        assert float(_fro(a @ q - q @ h) / _fro(a)) < 1e-30
        assert float(_fro(q.T @ q - np.eye(len(a), dtype=object))) < 1e-30


def test_the_extended_solve_keeps_no_n_by_n_orthogonal_factor():
    a = _scarf2_k(41)
    n = len(a)
    eigenvalues(a, precision=EXTENDED)  # a first call's imports and caches stay out
    tracemalloc.start()
    try:
        sol = eigenvalues(a, precision=EXTENDED)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (hessenberg,) = sol.blocks
    assert isinstance(hessenberg, kernel.Hessenberg)
    # H and its reflectors (about n^2 / 2 ints), where Q would take n^2
    # more and Z as many again; the slack is the eigenvalues and H's zeros
    assert sum(len(u) for u in hessenberg.reflectors) <= n * n / 2
    entry = sys.getsizeof(1 << G) + 8  # an int at the kernel's scale and its pointer
    assert kept <= 1.5 * n * n * entry
    assert peak <= 5 * n * n * entry


@st.composite
def _integer_matrices(draw):
    """Object arrays of small integers, real or complex."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-9, 9)
    re = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    if not draw(st.booleans()):
        return np.array(re, dtype=object).reshape(n, n)
    im = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    return np.array([complex(x, y) for x, y in zip(re, im)],
                    dtype=object).reshape(n, n)


@settings(max_examples=60, deadline=None)
@given(a=_integer_matrices())
def test_schur_form_of_small_integer_matrices(a):
    # the solver takes every matrix whose entries have Im 0, per diagonal
    # block, and refuses the others
    if any(complex(x).imag for x in a.ravel()):
        with pytest.raises(ValueError, match="real matrix"):
            eigenvalues(a, precision=EXTENDED)
        return
    t, _, residual, orth = _schur_errors(a)
    assert residual <= 1e-30
    assert orth <= 1e-30
    assert _is_standard_real_form(t)
    sol = eigenvalues(a, precision=EXTENDED)
    assert np.all(sol.eigenvectors(a, range(len(a)))[2] <= 1e-30)


@st.composite
def _real_integer_matrices(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=object).reshape(n, n)


@settings(max_examples=60, deadline=None)
@given(a=_real_integer_matrices())
def test_real_schur_form_of_small_integer_matrices(a):
    t, _, residual, orth = _schur_errors(a)
    assert residual <= 1e-30
    assert orth <= 1e-30
    assert _is_standard_real_form(t)


def test_real_one_by_one():
    t, _, residual, orth = _schur_errors(np.array([[mpmath.mpf(-3.5)]], dtype=object))
    assert t[0, 0] == -3.5
    assert residual == orth == 0


def test_real_zero_matrix():
    t, _, residual, orth = _schur_errors(np.zeros((4, 4), dtype=object))
    assert all(x == 0 for x in t.ravel())
    assert residual == orth == 0


@pytest.mark.parametrize("block, triangular", [
    ([[1, 2], [3, 4]], True),     # eigenvalues (5 +- sqrt 33) / 2
    ([[4, 0], [3, 1]], True),     # b = 0: a swap
    ([[2, 5], [5, 2]], True),     # equal diagonal, b c > 0
    ([[1, -2], [3, 4]], False),   # 5/2 +- i sqrt 15 / 2
    ([[0, 1], [-1, 0]], False),   # already standard
])
def test_two_by_two_blocks_are_standardized(block, triangular):
    a = np.array(block, dtype=object)
    t, values, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _is_standard_real_form(t)
    assert (t[1, 0] == 0) == triangular
    exact = np.roots([1, -(block[0][0] + block[1][1]),
                      block[0][0] * block[1][1] - block[0][1] * block[1][0]])
    assert _matched_gap(a, values, exact) < 1e-15


def test_real_kernel_rejects_complex_input():
    with pytest.raises(ValueError, match="real matrix"):
        kernel.real_schur(np.array([[1, 1j], [0, 1]], dtype=object), BITS)
    # an imaginary part that rounds to 0 in double still reaches the kernel,
    # which refuses it
    tiny = mpmath.mpc(0, mpmath.mpf(2) ** -2000)
    with pytest.raises(ValueError, match="real matrix"):
        eigenvalues(np.array([[1, tiny], [0, 1]], dtype=object), precision=EXTENDED)


def test_real_non_convergence_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(kernel, "SWEEPS_PER_ROW", 0)
    a = np.random.default_rng(5).standard_normal((6, 6))
    with pytest.raises(ConvergenceError, match="failed to converge"):
        eigenvalues(np.asarray(a, dtype=object), precision=EXTENDED)


def _rounded(m, g):
    return (m + (1 << (g - 1))) >> g


def _reference_transform(h, q, p, g):
    """h <- Q h Q^T on rows/columns p.., one element at a time from the
    entries as they were before, each rounded once."""
    k, n = len(q), h.shape[0]
    half = 1 << (g - 1)
    rows = h.copy()
    for r in range(k):
        for c in range(n):
            rows[p + r, c] = (sum(q[r, j] * h[p + j, c] for j in range(k)) + half) >> g
    out = rows.copy()
    for i in range(n):
        for r in range(k):
            out[i, p + r] = (sum(rows[i, p + j] * q[r, j] for j in range(k)) + half) >> g
    return out


@pytest.mark.parametrize("n, p", [(3, 0), (6, 2), (6, 3)])
def test_reflector_application_matches_an_elementwise_loop(n, p):
    rng = np.random.default_rng(n + p)
    h = _random_ints(rng, n)
    x = [int(v) << 150 for v in rng.integers(-1000, 1000, 3)]
    q, beta = kernel._reflector(x, G)
    # P x = beta e_1 and P^2 = I, to a few units of 2^-g
    px = _rounded(q @ np.array(x, dtype=object), G)
    assert abs(px[0] - beta) <= 4 + (abs(beta) >> (G - 4))
    assert all(abs(v) <= 4 + (abs(beta) >> (G - 4)) for v in px[1:])
    identity = np.eye(3, dtype=object) * (1 << G)
    assert all(abs(v) <= 8 for v in (_rounded(q @ q, G) - identity).ravel())
    expected = _reference_transform(h, q, p, G)
    kernel._transform(h, q, p, 0, n, G)
    assert np.array_equal(h, expected)


# --- eigenvectors on fixed-point integers -------------------------------------

def _reference_vectors(a, values):
    """The eigenvectors of A for ``values`` from ``mpmath.eig`` at the
    caller's precision, each the column of the reference eigenvalue
    nearest to it, as lists of ``mpc``."""
    reference, vectors = mpmath.eig(mpmath.matrix(np.asarray(a).tolist()))
    columns = []
    for lam in values:
        c = min(range(len(reference)), key=lambda j: abs(reference[j] - lam))
        columns.append([vectors[i, c] for i in range(len(a))])
    return columns


@pytest.mark.parametrize("name", ["scarf2_k", "random20"])
def test_vectors_match_an_mpmath_back_substitution(name):
    a = _scarf2_k() if name == "scarf2_k" else _random_real(22, 20)
    sol = eigenvalues(a, precision=EXTENDED)
    ks, vectors, residuals = sol.eigenvectors(a, range(len(a)))
    # real eigenvalues and both members of each pair
    assert 0 < np.count_nonzero(sol.partners >= 0) < len(a)
    with mpmath.workprec(4 * BITS):
        references = _reference_vectors(a, sol.eigenvalues[ks])
        for c, reference in enumerate(references):
            v = vectors[:, c]
            unit = next(i for i, x in enumerate(v) if x == 1)
            assert max(abs(x - y / reference[unit]) for x, y in zip(v, reference)) < 1e-30
            # the reported residual is that of the returned vector
            r = a @ v - sol.eigenvalues[ks[c]] * v
            measured = mpmath.sqrt(sum(abs(x) ** 2 for x in r)) / sol.matrix_fro_norm
            assert abs(residuals[c] / measured - 1) < 1e-6
    assert np.all(residuals <= 1e-24)


def _solution_of(t):
    """The extended solution of the standardized real Schur form T, its
    own Hessenberg form, with Q = I."""
    with working_precision(EXTENDED):
        t = as_working(t, EXTENDED)
        h, f = kernel._to_fixed(t, G)
        values, partners = kernel.schur_eigenvalues(h, f, BITS)
    return t, eigensolver.EigenSolution(values, partners, float(_fro(t)), (), EXTENDED,
                                        (kernel.Hessenberg(0, h, f, ()),))


@pytest.mark.parametrize("shape", ["jordan", "identical_blocks", "zero"])
def test_repeated_eigenvalue_gives_a_finite_vector(shape):
    # T[k, k] - lam (a 1 x 1 divisor) or det(B - lam I) (a 2 x 2 system) is
    # exactly 0 for the repeated eigenvalue (1 +- 2i, exact as 1 * sqrt(4));
    # the smin floors stand in for it, at least one unit where lam = 0
    t = np.triu(np.random.default_rng(23).standard_normal((6, 6)))
    if shape == "zero":
        t[...] = 0
        ks = [0, 5]
    elif shape == "jordan":
        t[1, 1] = t[0, 0]
        ks = [1]
    else:
        for k in (0, 2):
            t[k:k + 2, k:k + 2] = [[1.0, 1.0], [-4.0, 1.0]]
        ks = [2, 3]
    t, sol = _solution_of(t)
    assert sol.eigenvalues[ks[-1]] == sol.eigenvalues[ks[-1] - (1 if shape == "jordan" else 2)]
    _, vectors, residuals = sol.eigenvectors(t, ks)
    assert all(mpmath.isfinite(x) for x in vectors.ravel())
    assert max(abs(x) for x in vectors.ravel()) == 1
    assert np.all(residuals <= EXTENDED.residual_tol)


@pytest.mark.parametrize("rows", [
    [[2, 1], [0, 3]],
    [[1, -2], [0, -1]],
    [[-2, 0, 5], [0, -7, 8], [0, 0, 1]],
], ids=["2x2", "2x2_negative", "3x3"])
def test_a_start_vector_in_the_range_is_replaced(rows):
    # for the top eigenvalue of a triangular H the all-ones start vector
    # lies in the range of H - lam I ((H - 2 I) (0, 1)^T = (1, 1)^T in the
    # first case), so the first solve grows no eigenvector component;
    # dlaein's growth test rejects it and its next start vector succeeds
    a = np.array(rows, dtype=object)
    sol = eigenvalues(a, precision=EXTENDED)
    _, vectors, residuals = sol.eigenvectors(a, range(len(a)))
    assert np.all(residuals <= 1e-30)
    assert max(abs(x) for x in vectors.ravel()) == 1


def test_no_index_gives_empty_arrays():
    a = _random_real(24, 7)
    ks, vectors, residuals = eigenvalues(a, precision=EXTENDED).eigenvectors(a, [])
    assert ks.shape == (0,) and vectors.shape == (7, 0) and residuals.shape == (0,)
    assert vectors.dtype == object and residuals.dtype == np.float64


def test_a_vector_alone_is_bit_identical_to_its_batch_column():
    a = _scarf2_k()
    sol = eigenvalues(a, precision=EXTENDED)
    ks, vectors, residuals = sol.eigenvectors(a, range(len(a)))
    for c, k in enumerate(ks):
        _, alone, residual = sol.eigenvectors(a, [k])
        assert [x._mpc_ for x in alone[:, 0]] == [x._mpc_ for x in vectors[:, c]]
        assert residual[0] == residuals[c]
