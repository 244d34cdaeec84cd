"""The extended-precision Schur kernel on fixed-point Gaussian integers."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import ptspec._fixed_schur as kernel
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


def _random_complex(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with working_precision(EXTENDED):
        return as_working(a, EXTENDED)


def _fro(m):
    return mpmath.sqrt(sum(abs(x) ** 2 for x in np.asarray(m).ravel()))


def _schur_errors(a):
    """(T, ||A Z - Z T||_F / ||A||_F, ||Z^H Z - I||_F) at 113 bits."""
    t, z, _ = kernel.complex_schur(a, BITS)
    with working_precision(EXTENDED):
        a = np.asarray(a, dtype=object)
        fro = _fro(a)
        residual = _fro(a @ z - z @ t) / (fro if fro else 1)
        zh = np.vectorize(mpmath.conj, otypes=[object])(z).T
        orth = _fro(zh @ z - np.eye(len(a), dtype=object))
    return t, float(residual), float(orth)


def _strictly_lower_is_zero(t):
    return all(t[i, j] == 0 for i in range(len(t)) for j in range(i))


def _matched_gap(a, values, reference):
    """Largest eigenvalue gap after minimum-cost matching, over ||A||_F."""
    with working_precision(EXTENDED):
        cost = np.array([[float(abs(x - y)) for y in reference] for x in values])
        rows, cols = linear_sum_assignment(cost)
        return cost[rows, cols].max() / float(_fro(a))


def _reference_rows(h, p, c, s, g):
    """Rows p, p + 1 of planes ``h`` times G = [[conj c, conj s], [-s, c]],
    one element at a time from the entries as they were before."""
    (cr, ci), (sr, si) = c, s
    half = 1 << (g - 1)
    out = h.copy()
    for k in range(h.shape[2]):
        xr, xi, yr, yi = h[0, p, k], h[1, p, k], h[0, p + 1, k], h[1, p + 1, k]
        # conj(c) x + conj(s) y and c y - s x
        out[0, p, k] = (cr * xr + ci * xi + sr * yr + si * yi + half) >> g
        out[1, p, k] = (cr * xi - ci * xr + sr * yi - si * yr + half) >> g
        out[0, p + 1, k] = (cr * yr - ci * yi - sr * xr + si * xi + half) >> g
        out[1, p + 1, k] = (cr * yi + ci * yr - sr * xi - si * xr + half) >> g
    return out


def _reference_cols(h, p, c, s, g):
    """Columns p, p + 1 of planes ``h`` times G^H, likewise."""
    (cr, ci), (sr, si) = c, s
    half = 1 << (g - 1)
    out = h.copy()
    for k in range(h.shape[1]):
        xr, xi, yr, yi = h[0, k, p], h[1, k, p], h[0, k, p + 1], h[1, k, p + 1]
        # c x + s y and conj(c) y - conj(s) x
        out[0, k, p] = (cr * xr - ci * xi + sr * yr - si * yi + half) >> g
        out[1, k, p] = (cr * xi + ci * xr + sr * yi + si * yr + half) >> g
        out[0, k, p + 1] = (cr * yr + ci * yi - sr * xr - si * xi + half) >> g
        out[1, k, p + 1] = (cr * yi - ci * yr - sr * xi + si * xr + half) >> g
    return out


def _random_planes(rng, n):
    h = np.empty((2, n, n), dtype=object)
    h[...] = [[[int(v) << 150 for v in row] for row in plane]
              for plane in rng.integers(-1000, 1000, (2, n, n))]
    return h


@pytest.mark.parametrize("n", [2, 5])
def test_rotation_reads_both_rows_before_writing_either(n):
    # slices of object arrays are views: a rotation that wrote row p back
    # before reading it for row p + 1 would mix new and old entries
    rng = np.random.default_rng(n)
    h, z = _random_planes(rng, n), _random_planes(rng, n)
    c, s, _ = kernel._givens((3, -1), (2, 5), G)
    p = n - 2
    expected_h = _reference_cols(_reference_rows(h, p, c, s, G), p, c, s, G)
    expected_z = _reference_cols(z, p, c, s, G)
    kernel._rotate(h, z, c, s, p, 0, n, G)
    assert np.array_equal(h, expected_h)
    assert np.array_equal(z, expected_z)


@pytest.mark.parametrize("x, y", [((1, 0), (1, -1)), ((0, 3), (2, 0)),
                                  ((1 << 300, 7), (-5, 1 << 299))])
def test_givens_of_a_few_units_is_unitary(x, y):
    # isqrt of a sum of a few units is off by up to 1 / v; the inputs
    # are shifted up to g + 8 bits first, so |c|^2 + |s|^2 = 1 to 2^-g
    (cr, ci), (sr, si), v = kernel._givens(x, y, G)
    assert abs(cr * cr + ci * ci + sr * sr + si * si - (1 << 2 * G)) < 1 << (G + 2)
    # G (x, y)^T = (v, 0)^T, to a unit and 2^-g relative
    xr, xi = x
    yr, yi = y
    tol = 2 + (v >> (G - 2))
    assert abs(((cr * xr + ci * xi + sr * yr + si * yi) >> G) - v) <= tol
    assert abs((cr * xi - ci * xr + sr * yi - si * yr) >> G) <= tol
    assert abs((cr * yr - ci * yi - sr * xr + si * xi) >> G) <= tol


def test_guard_width_keeps_the_deflation_test_above_rounding():
    # 40 guard bits stall QR on scarf2 K (no convergence at n = 8); from
    # 64 bits on it takes 62-68 sweeps, about the time of mpmath's 68
    assert kernel.GUARD_BITS >= 80
    _, _, sweeps = kernel.complex_schur(_scarf2_k(), BITS)
    assert 0 < sweeps <= 68


def test_one_by_one():
    t, residual, orth = _schur_errors(np.array([[mpmath.mpc(2, -3)]], dtype=object))
    assert t[0, 0] == mpmath.mpc(2, -3)
    assert residual == orth == 0


def test_zero_matrix():
    t, residual, orth = _schur_errors(np.zeros((4, 4), dtype=object))
    assert all(x == 0 for x in t.ravel())
    assert residual == orth == 0


def test_jordan_block():
    # [[2, 1], [-1, 0]] = S [[1, 1], [0, 1]] S^-1: a double eigenvalue 1
    # with one eigenvector, which a backward error e moves by sqrt(e)
    a = np.array([[2, 1], [-1, 0]], dtype=object)
    t, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _strictly_lower_is_zero(t)
    with working_precision(EXTENDED):
        assert all(abs(t[k, k] - 1) < 1e-16 for k in range(2))


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
    assert _strictly_lower_is_zero(t)
    assert _matched_gap(a, t.diagonal(), [reference[k, k] for k in range(n)]) < 1e-30


def test_non_convergence_raises_convergence_error(monkeypatch):
    monkeypatch.setattr(kernel, "SWEEPS_PER_DIGIT", 0)
    with pytest.raises(ConvergenceError, match="failed to converge"):
        eigenvalues(_random_complex(5, 6), precision=EXTENDED)


@pytest.mark.parametrize("name", ["random12", "scarf2_k"])
def test_eigenvalues_match_mpmath_schur(name):
    a = _random_complex(1, 12) if name == "random12" else _scarf2_k()
    with working_precision(EXTENDED):
        r = mpmath.schur(mpmath.matrix(a.tolist()))[1]
    t, residual, orth = _schur_errors(a)
    assert residual < 1e-30 and orth < 1e-30
    assert _matched_gap(a, t.diagonal(), [r[k, k] for k in range(len(a))]) < 1e-30


def test_iteration_stats_carry_the_sweep_count():
    a = _scarf2_k()
    sol = eigenvalues(a, precision=EXTENDED)
    assert sol.iteration_stats == (kernel.complex_schur(a, BITS)[2],)
    assert sol.iteration_stats[0] > 0
    assert eigenvalues(np.eye(3) + np.eye(3, k=1), precision=DOUBLE).iteration_stats == ()


@st.composite
def _integer_matrices(draw):
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
    t, residual, orth = _schur_errors(a)
    assert residual <= 1e-30
    assert orth <= 1e-30
    assert _strictly_lower_is_zero(t)
