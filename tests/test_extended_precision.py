import math

import mpmath
import numpy as np
import pytest

from ptspec.chebdiff import build_grid
from ptspec.eigensolver import eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.potentials import PotentialSpec
from ptspec.precision import (
    DOUBLE,
    EXTENDED,
    as_working,
    from_name,
    to_complex128,
    working_precision,
)
from ptspec.spectrum import BOUND, CONTINUUM_COMPLEX, classify


def _to_extended(a):
    with working_precision(EXTENDED):
        return as_working(a, EXTENDED)


def test_precision_names():
    assert from_name("double") is DOUBLE
    assert from_name("extended") is EXTENDED
    assert from_name("extended128").bits == 113
    with pytest.raises(ValueError):
        from_name("half")


def test_working_precision_context():
    with working_precision(EXTENDED):
        x = mpmath.mpf(1) / 3
        assert mpmath.mp.prec == 113
    assert abs(float(x) - 1.0 / 3.0) < 1e-15


def test_round_trip_conversions():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    ext = _to_extended(a)
    assert ext.dtype == object
    assert all(type(x) is mpmath.mpf for x in ext.ravel())
    assert np.array_equal(to_complex128(ext), a)
    assert as_working(a, DOUBLE).dtype == np.float64


def test_to_complex128_does_not_copy_complex128():
    a = np.arange(9, dtype=np.complex128).reshape(3, 3)
    assert np.shares_memory(to_complex128(a), a)
    assert np.array_equal(to_complex128(_to_extended(a.real)), a)


def test_extended_schur_matches_lapack():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((12, 12))
    with working_precision(EXTENDED):
        sol = eigenvalues(_to_extended(a), precision=EXTENDED)
        ev_soft = np.sort_complex(to_complex128(np.asarray(sol.eigenvalues)))
    ev_lapack = np.sort_complex(np.linalg.eigvals(a))
    assert np.max(np.abs(ev_soft - ev_lapack)) < 1e-12 * np.linalg.norm(a)


def test_extended_residuals_beat_double_limit():
    rng = np.random.default_rng(2)
    n = 20
    a = rng.standard_normal((n, n))
    fro = np.linalg.norm(a)
    with working_precision(EXTENDED):
        mat = _to_extended(a)
        sol = eigenvalues(mat, precision=EXTENDED)
        ks, vectors, residuals = sol.eigenvectors(mat, range(4))
        for k, v in zip(ks, vectors.T):
            r = mat @ v - sol.eigenvalues[k] * v
            assert float(mpmath.sqrt(sum(abs(x) ** 2 for x in r))) < 1e-24 * fro
    # the batch reports the residuals it measured, relative to ||A||_F
    assert vectors.dtype == object
    assert np.all(residuals < 1e-24)


def test_extended_mode_solves_the_unrounded_matrix():
    # A = S diag(1 + 2^-80, 2, 3, 4) S^-1 with S unit upper bidiagonal:
    # S^-1 has entries (-1)^(j-i), so A is exact in extended arithmetic
    # while 1 + 2^-80 rounds to 1 in double
    n = 4
    with working_precision(EXTENDED):
        target = 1 + mpmath.mpf(2) ** -80
        d = np.diag(np.array([target, 2, 3, 4], dtype=object))
        s = np.eye(n, dtype=object) + np.eye(n, k=1, dtype=object)
        s_inv = np.array([[(-1) ** (j - i) if j >= i else 0 for j in range(n)]
                          for i in range(n)], dtype=object)
        assert np.all(s @ s_inv == np.eye(n))
        a = s @ d @ s_inv
        values = eigenvalues(a, precision=EXTENDED).eigenvalues
        assert min(abs(z - target) for z in values) < 1e-30


def test_extended_eigenvalues_deterministic():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((8, 8))
    with working_precision(EXTENDED):
        mat = _to_extended(a)
        first = [mpmath.mpc(v) for v in eigenvalues(mat, precision=EXTENDED).eigenvalues]
        second = [mpmath.mpc(v) for v in eigenvalues(mat, precision=EXTENDED).eigenvalues]
    assert first == second


def test_extended_trace_identity_tight():
    rng = np.random.default_rng(4)
    n = 10
    a = rng.standard_normal((n, n))
    with working_precision(EXTENDED):
        mat = _to_extended(a)
        sol = eigenvalues(mat, precision=EXTENDED)
        trace = sum(mat[i, i] for i in range(n))
        gap = abs(sum(sol.eigenvalues) - trace)
        assert float(gap) < 1e-26 * np.linalg.norm(a) * n


def test_extended_pairs_from_the_real_schur_form():
    # each pair is read off one standardized 2 x 2 block of K's real form
    with working_precision(EXTENDED):
        grid = build_grid(10.0, 21, precision=EXTENDED)
        op = assemble(grid, PotentialSpec("scarf2", 30.0))
    sol = eigenvalues(op.matrix, precision=EXTENDED)
    values, partners = sol.eigenvalues, sol.partners
    paired = np.flatnonzero(partners >= 0)
    assert len(paired) == 14
    for k in paired:
        j = partners[k]
        assert partners[j] == k and abs(j - k) == 1
        # bitwise conjugate: equal mpf parts, the imaginary one negated
        assert values[j].real._mpf_ == values[k].real._mpf_
        assert values[j].imag._mpf_ == mpmath.libmp.mpf_neg(values[k].imag._mpf_)
    # every PT-unbroken level has Im exactly 0
    unpaired = np.flatnonzero(partners < 0)
    assert len(unpaired) == 6
    assert all(values[k].imag == 0 for k in unpaired)
    # classify labels the records of the seven blocks, each pair by one
    # fetched vector: its members, exact conjugates, share label and evidence
    result = classify(sol, op)
    position = {r.value: k for k, r in enumerate(result.records)}
    pairs = {tuple(sorted((k, position[r.value.conjugate()])))
             for k, r in enumerate(result.records) if r.value.imag}
    assert sorted(pairs) == [(k, k + 1) for k in range(0, 14, 2)]
    for k, j in pairs:
        first, second = result.records[k], result.records[j]
        assert first.label in (BOUND, CONTINUUM_COMPLEX)
        assert first.residual is not None
        assert ((first.label, first.tail_ratio, first.residual)
                == (second.label, second.tail_ratio, second.residual))
