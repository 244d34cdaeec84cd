import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from ptspec.chebdiff import build_grid, second_derivative_rows
from ptspec.eigensolver import eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.potentials import FAMILIES, PotentialSpec, odd_profile
from ptspec.precision import DOUBLE, EXTENDED, working_precision


def _operator(family="scarf2", strength=30.0, half_width=10.0, n=64):
    grid = build_grid(half_width, n)
    return assemble(grid, PotentialSpec(family, strength))


def test_dimensions_and_readonly():
    op = _operator(n=32)
    assert op.dim == 31
    assert op.matrix.shape == (31, 31)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 0


def test_box_oracle_small():
    op = _operator(strength=0.0, half_width=10.0, n=64)
    ev = np.sort(eigenvalues(op.matrix).eigenvalues.real)
    for n in range(1, 6):
        exact = (n * math.pi / 20.0) ** 2
        assert ev[n - 1] == pytest.approx(exact, rel=1e-8)


def _interior_d2(grid):
    """All interior rows and columns of the second-derivative matrix."""
    return second_derivative_rows(grid, range(1, grid.n_intervals))[:, 1:-1]


def _complex_h(op, spec):
    """The complex collocation matrix H of ``spec`` that K is similar to,
    built directly."""
    v = 1j * spec.strength * odd_profile(spec.family, op.grid.interior_nodes)
    return -_interior_d2(op.grid) + np.diag(v)


def test_pt_form_block_structure():
    # N = 64: an odd number of interior nodes, with the centre at x = 0
    op = _operator()
    k_mat = op.matrix
    n, m = op.dim, op.dim // 2
    me = n - m
    assert k_mat.dtype == np.float64 and n == 63 and op.grid.nodes[32] == 0.0
    # the even and odd blocks couple only through diag(A f(x_k))
    w = np.diagonal(k_mat[me:, :m])
    assert np.array_equal(np.diagonal(k_mat[:m, me:]), -w)
    assert not np.any(k_mat[me:, :m] - np.diag(w))
    assert not np.any(k_mat[:m, me:] - np.diag(-w))
    assert not np.any(k_mat[m, me:])
    assert np.array_equal(w, 30.0 * odd_profile("scarf2", op.grid.nodes[1:m + 1]))
    # grid samples near (but not exactly at) the potential's peak of 15
    assert 14.0 < np.max(np.abs(w)) <= 15.0
    # De = T + R J, Do = T - R J from the top rows of -d2, centre scaled
    core = -_interior_d2(op.grid)
    t, rj = core[:m, :m], core[:m, n - m:][:, ::-1]
    assert np.array_equal(k_mat[:m, :m], t + rj)
    assert np.array_equal(k_mat[me:, me:], t - rj)
    assert np.allclose(k_mat[:m, m], math.sqrt(2) * core[:m, m], rtol=1e-15)
    assert k_mat[m, m] == core[m, m]


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("family", FAMILIES)
def test_pt_form_has_the_spectrum_of_h(family, n):
    spec = PotentialSpec(family, 3.0 if family == "step" else 30.0)
    op = _operator(spec.family, spec.strength, n=n)
    # the eigensolver takes real matrices only
    assert op.matrix.dtype == np.float64
    ev = np.asarray(eigenvalues(op.matrix).eigenvalues)
    ref = np.linalg.eigvals(_complex_h(op, spec))
    cost = np.abs(ev[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(cost)
    assert np.max(cost[rows, cols]) <= 1e-12 * np.max(np.abs(ref))
    # pairs are exact conjugates, and real levels exactly real
    complex_ev = ev[ev.imag != 0]
    assert complex_ev.size and set(complex_ev.conj()) == set(complex_ev)
    assert np.sum(ev.imag > 0) == np.sum(ev.imag < 0)


@pytest.mark.parametrize("n", [63, 64])
def test_mapped_vectors_solve_h(n):
    op = _operator(family="step", strength=3.0, n=n)
    h = _complex_h(op, PotentialSpec("step", 3.0))
    sol = eigenvalues(op.matrix)
    ks, vectors, _ = sol.eigenvectors(op.matrix, range(op.dim))
    assert ks.tolist() == list(range(op.dim))
    mapped = op.grid_vector(vectors)  # all columns at once
    for k, y in zip(ks, vectors.T):
        v = op.grid_vector(y)
        assert np.array_equal(mapped[:, k], v)
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(y), rel=1e-14)
        assert (np.linalg.norm(h @ v - sol.eigenvalues[k] * v)
                <= DOUBLE.residual_tol * sol.matrix_fro_norm)


@pytest.mark.parametrize("n", [12, 13])
def test_extended_pt_form_has_the_spectrum_of_h(n):
    with working_precision(EXTENDED):
        grid = build_grid(10.0, n, precision=EXTENDED)
        # the eigensolver takes real matrices only: every entry of K is real
        for family in FAMILIES:
            k_mat = assemble(grid, PotentialSpec(family, 30.0)).matrix
            assert all(mpmath.im(x) == 0 for x in k_mat.ravel())
        spec = PotentialSpec("scarf2", 30.0)
        op = assemble(grid, spec)
        h = _complex_h(op, spec)
        sol = eigenvalues(op.matrix, precision=EXTENDED)
        ref = mpmath.eig(mpmath.matrix(h.tolist()), left=False, right=False)
        cost = np.array([[float(abs(a - b)) for b in ref]
                         for a in sol.eigenvalues])
        scale = max(float(abs(z)) for z in ref)
        ks, vectors, _ = sol.eigenvectors(op.matrix, [0, op.dim - 1])
        bound = EXTENDED.residual_tol * sol.matrix_fro_norm
        for k, y in zip(ks, vectors.T):
            v = op.grid_vector(y)
            r = h @ v - sol.eigenvalues[k] * v
            assert float(mpmath.sqrt(sum(abs(x) ** 2 for x in r))) <= bound
    rows, cols = linear_sum_assignment(cost)
    # well below double rounding: K keeps the full working precision
    assert np.max(cost[rows, cols]) <= 1e-25 * scale


def _multiset_gap(a, b):
    """Worst nearest-neighbor distance between two eigenvalue multisets."""
    a = np.asarray(a)[:, None]
    b = np.asarray(b)[None, :]
    d = np.abs(a - b)
    return max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0)))


def test_spectrum_closed_under_conjugation():
    op = _operator(n=48)
    ev = np.asarray(eigenvalues(op.matrix).eigenvalues)
    tol = 1e-8 * np.linalg.norm(op.matrix)
    assert _multiset_gap(ev, np.conj(ev)) < tol


def test_strength_reversal_symmetry():
    ev_plus = eigenvalues(_operator(strength=30.0, n=48).matrix).eigenvalues
    ev_minus = eigenvalues(_operator(strength=-30.0, n=48).matrix).eigenvalues
    tol = 1e-8 * np.linalg.norm(_operator(strength=30.0, n=48).matrix)
    assert _multiset_gap(np.asarray(ev_plus), np.asarray(ev_minus)) < tol

