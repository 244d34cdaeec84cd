"""The extended-precision real Schur kernel on fixed-point integers."""

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


def _scarf2_k():
    with working_precision(EXTENDED):
        grid = build_grid(10.0, 21, precision=EXTENDED)
        return assemble(grid, PotentialSpec("scarf2", 30.0)).matrix


def _random_real(seed, n):
    a = np.random.default_rng(seed).standard_normal((n, n))
    with working_precision(EXTENDED):
        return as_working(a, EXTENDED)


def _fro(m):
    return mpmath.sqrt(sum(abs(x) ** 2 for x in np.asarray(m).ravel()))


def _schur_errors(a, schur=None):
    """(T, ||A Z - Z T||_F / ||A||_F, ||Z^T Z - I||_F) at 113 bits, of
    the factors ``schur`` = (T, Z), or else of the kernel's."""
    t, z = schur or kernel.real_schur(a, BITS)[:2]
    with working_precision(EXTENDED):
        a = np.asarray(a, dtype=object)
        fro = _fro(a)
        residual = _fro(a @ z - z @ t) / (fro if fro else 1)
        orth = _fro(z.T @ z - np.eye(len(a), dtype=object))
    return t, float(residual), float(orth)


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
    """Two n x n arrays of random ints of about 160 bits."""
    h = np.empty((2, n, n), dtype=object)
    h[...] = [[[int(v) << 150 for v in row] for row in plane]
              for plane in rng.integers(-1000, 1000, (2, n, n))]
    return h


@pytest.mark.parametrize("n", [2, 5])
def test_rotation_reads_both_rows_before_writing_either(n):
    # slices of object arrays are views: a rotation that wrote row p back
    # before reading it for row p + 1 would mix new and old entries
    rng = np.random.default_rng(n)
    h, z = _random_ints(rng, n)
    c, s, _ = kernel._givens(3, -2, G)
    q = kernel._rotation(c, s)
    p = n - 2
    expected_h, expected_z = _reference_transform(h, z, q, p, G)
    kernel._transform(h, z, q, p, 0, n, G)
    assert np.array_equal(h, expected_h)
    assert np.array_equal(z, expected_z)


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
    assert 0 < kernel.real_schur(a, BITS)[2] <= 31
    monkeypatch.setattr(kernel, "GUARD_BITS", 40)
    assert kernel.real_schur(a, BITS)[2] > 100


def test_one_by_one():
    # an mpc with imaginary part 0 is a real number
    t, residual, orth = _schur_errors(np.array([[mpmath.mpc(2, 0)]], dtype=object))
    assert type(t[0, 0]) is mpmath.mpf and t[0, 0] == 2
    assert residual == orth == 0


def _eigenvalues_of(t):
    with working_precision(EXTENDED):
        return eigensolver._real_schur_eigenvalues(t)[0]


def test_jordan_block():
    # [[2, 1], [-1, 0]] = S [[1, 1], [0, 1]] S^-1: a double eigenvalue 1
    # with one eigenvector, which a backward error e moves by sqrt(e)
    a = np.array([[2, 1], [-1, 0]], dtype=object)
    t, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _is_standard_real_form(t)
    with working_precision(EXTENDED):
        assert all(abs(z - 1) < 1e-16 for z in _eigenvalues_of(t))


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
    t, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _is_standard_real_form(t)
    assert _matched_gap(a, _eigenvalues_of(t), [reference[k, k] for k in range(n)]) < 1e-30


def test_non_convergence_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(kernel, "SWEEPS_PER_DIGIT", 0)
    with pytest.raises(ConvergenceError, match="failed to converge"):
        kernel.real_schur(_random_real(5, 6), BITS)


@pytest.mark.parametrize("name", ["random12", "scarf2_k"])
def test_eigenvalues_match_mpmath_schur(name):
    a = _random_real(1, 12) if name == "random12" else _scarf2_k()
    with working_precision(EXTENDED):
        r = mpmath.schur(mpmath.matrix(a.tolist()))[1]
    reference = [r[k, k] for k in range(len(a))]
    t, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _matched_gap(a, _eigenvalues_of(t), reference) < 1e-30


def test_iteration_stats_carry_the_sweep_count():
    a = _scarf2_k()
    sol = eigenvalues(a, precision=EXTENDED)
    assert sol.iteration_stats == (kernel.real_schur(a, BITS)[2],)
    assert sol.iteration_stats[0] > 0
    assert eigenvalues(np.eye(3) + np.eye(3, k=1), precision=DOUBLE).iteration_stats == ()


def test_zero_matrix():
    # n diagonal blocks of order 1, each its own Schur form
    sol = eigenvalues(np.zeros((4, 4), dtype=object), precision=EXTENDED)
    assert all(z == 0 for z in sol.eigenvalues)
    assert sol.partners.tolist() == [-1] * 4
    assert sol.iteration_stats == (0,)


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
    t, residual, orth = _schur_errors(a, eigenvalues(a, precision=EXTENDED).schur)
    assert residual <= 1e-30
    assert orth <= 1e-30
    assert _is_standard_real_form(t)


@st.composite
def _real_integer_matrices(draw):
    n = draw(st.integers(1, 6))
    entries = draw(st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
    return np.array(entries, dtype=object).reshape(n, n)


@settings(max_examples=60, deadline=None)
@given(a=_real_integer_matrices())
def test_real_schur_form_of_small_integer_matrices(a):
    t, residual, orth = _schur_errors(a)
    assert residual <= 1e-30
    assert orth <= 1e-30
    assert _is_standard_real_form(t)


def test_real_one_by_one():
    t, residual, orth = _schur_errors(np.array([[mpmath.mpf(-3.5)]], dtype=object))
    assert t[0, 0] == -3.5
    assert residual == orth == 0


def test_real_zero_matrix():
    t, residual, orth = _schur_errors(np.zeros((4, 4), dtype=object))
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
    t, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _is_standard_real_form(t)
    assert (t[1, 0] == 0) == triangular
    exact = np.roots([1, -(block[0][0] + block[1][1]),
                      block[0][0] * block[1][1] - block[0][1] * block[1][0]])
    assert _matched_gap(a, _eigenvalues_of(t), exact) < 1e-15


def test_real_kernel_rejects_complex_input():
    with pytest.raises(ValueError, match="real matrix"):
        kernel.real_schur(np.array([[1, 1j], [0, 1]], dtype=object), BITS)
    # an imaginary part that rounds to 0 in double still reaches the kernel,
    # which refuses it
    tiny = mpmath.mpc(0, mpmath.mpf(2) ** -2000)
    with pytest.raises(ValueError, match="real matrix"):
        eigenvalues(np.array([[1, tiny], [0, 1]], dtype=object), precision=EXTENDED)


def test_real_non_convergence_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(kernel, "SWEEPS_PER_DIGIT", 0)
    a = np.random.default_rng(5).standard_normal((6, 6))
    with pytest.raises(ConvergenceError, match="failed to converge"):
        eigenvalues(np.asarray(a, dtype=object), precision=EXTENDED)


def _rounded(m, g):
    return (m + (1 << (g - 1))) >> g


def _reference_transform(h, z, q, p, g):
    """h <- Q h Q^T and z <- z Q^T on rows/columns p.., one element at a
    time from the entries as they were before, each rounded once."""
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
    zout = z.copy()
    for i in range(n):
        for r in range(k):
            zout[i, p + r] = (sum(z[i, p + j] * q[r, j] for j in range(k)) + half) >> g
    return out, zout


@pytest.mark.parametrize("n, p", [(3, 0), (6, 2), (6, 3)])
def test_reflector_application_matches_an_elementwise_loop(n, p):
    rng = np.random.default_rng(n + p)
    h, z = _random_ints(rng, n)
    x = [int(v) << 150 for v in rng.integers(-1000, 1000, 3)]
    q, beta = kernel._reflector(x, G)
    # P x = beta e_1 and P^2 = I, to a few units of 2^-g
    px = _rounded(q @ np.array(x, dtype=object), G)
    assert abs(px[0] - beta) <= 4 + (abs(beta) >> (G - 4))
    assert all(abs(v) <= 4 + (abs(beta) >> (G - 4)) for v in px[1:])
    identity = np.eye(3, dtype=object) * (1 << G)
    assert all(abs(v) <= 8 for v in (_rounded(q @ q, G) - identity).ravel())
    expected_h, expected_z = _reference_transform(h, z, q, p, G)
    kernel._transform(h, z, q, p, 0, n, G)
    assert np.array_equal(h, expected_h)
    assert np.array_equal(z, expected_z)

