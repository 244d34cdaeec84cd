import math

import numpy as np
import pytest

from ptspec.chebdiff import build_diff_matrices, build_grid
from ptspec.eigensolver import eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.potentials import PotentialSpec


def _operator(family="scarf2", strength=30.0, half_width=10.0, n=64):
    grid = build_grid(half_width, n)
    diff = build_diff_matrices(grid)
    return assemble(grid, diff, PotentialSpec(family, strength))


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


def test_imaginary_part_is_diagonal():
    op = _operator()
    imag = op.matrix.imag
    diag = np.diagonal(imag)
    assert np.max(np.abs(imag - np.diag(diag))) == 0.0
    # grid samples near (but not exactly at) the potential's peak of 15
    assert 14.0 < np.max(np.abs(diag)) <= 15.0


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


def test_dimension_mismatch_rejected():
    grid = build_grid(10.0, 32)
    diff = build_diff_matrices(build_grid(10.0, 16))
    with pytest.raises(ValueError):
        assemble(grid, diff, PotentialSpec("scarf2", 30.0))
