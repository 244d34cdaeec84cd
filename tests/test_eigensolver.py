import dataclasses

import numpy as np
import pytest
import scipy.linalg

from ptspec.eigensolver import (
    HessenbergWorkspace,
    balance,
    eigenvalues,
    hessenberg_reduce,
    inverse_iteration,
    qr_eigenvalues,
)
from ptspec.precision import EXTENDED, as_working, to_complex128, working_precision


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _companion(coeffs):
    """Companion matrix of the monic polynomial with the given roots."""
    poly = np.poly(coeffs)
    n = len(coeffs)
    c = np.zeros((n, n), dtype=complex)
    c[1:, :-1] = np.eye(n - 1)
    c[:, -1] = -poly[1:][::-1]
    return c


def test_companion_matrix_roots():
    roots = np.array([1.0, 2.0, -0.5 + 1.5j, -0.5 - 1.5j, 3.0 + 0j])
    ev = np.sort_complex(np.asarray(eigenvalues(_companion(roots)).eigenvalues))
    assert np.allclose(ev, np.sort_complex(roots), atol=1e-10)


def test_balance_preserves_eigenvalues():
    rng = np.random.default_rng(0)
    a = _random_complex(rng, 12)
    a[0] *= 1e6  # force nontrivial scaling
    balanced, d = balance(a)
    assert np.all(np.log2(d) == np.round(np.log2(d)))  # powers of two
    restored = np.diag(d) @ balanced @ np.diag(1.0 / d)
    assert np.allclose(restored, a, rtol=0, atol=0)  # exact similarity
    ev_a = np.sort_complex(np.linalg.eigvals(a))
    ev_b = np.sort_complex(np.linalg.eigvals(balanced))
    assert np.allclose(ev_a, ev_b, rtol=1e-8)


def test_hessenberg_similarity():
    rng = np.random.default_rng(1)
    a = _random_complex(rng, 15)
    h, q = hessenberg_reduce(a, accumulate_q=True)  # software engine
    h, q = to_complex128(h), to_complex128(q)
    assert np.max(np.abs(np.tril(h, -2))) < 1e-12 * np.linalg.norm(a)
    assert np.allclose(q @ h @ q.conj().T, a, atol=1e-12 * np.linalg.norm(a))


def test_qr_on_hessenberg_matches_direct():
    rng = np.random.default_rng(2)
    a = _random_complex(rng, 20)
    h, _ = hessenberg_reduce(a, accumulate_q=False)
    ev_qr = np.sort_complex(to_complex128(qr_eigenvalues(h).eigenvalues))
    ev_ref = np.sort_complex(np.linalg.eigvals(a))  # LAPACK
    assert np.max(np.abs(ev_qr - ev_ref)) < 1e-10 * np.linalg.norm(a)


def test_trace_identity():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = _random_complex(rng, 30)
        sol = eigenvalues(a)
        gap = abs(np.sum(sol.eigenvalues) - np.trace(a))
        assert gap < 1e-10 * np.linalg.norm(a) * 30


def test_transpose_has_same_spectrum():
    rng = np.random.default_rng(4)
    a = _random_complex(rng, 25)
    ev = np.sort_complex(np.asarray(eigenvalues(a).eigenvalues))
    ev_t = np.sort_complex(np.asarray(eigenvalues(a.T).eigenvalues))
    assert np.max(np.abs(ev - ev_t)) < 1e-10 * np.linalg.norm(a)


def _vectors(solution, matrix, indices):
    return dict(solution.eigenvectors(matrix, indices))


def test_bitwise_determinism():
    rng = np.random.default_rng(5)
    a = _random_complex(rng, 40)
    first = eigenvalues(a)
    second = eigenvalues(a)
    assert np.array_equal(np.asarray(first.eigenvalues),
                          np.asarray(second.eigenvalues))
    v1 = _vectors(first, a, [0, 17, 39])
    v2 = _vectors(second, a, [0, 17, 39])
    assert all(np.array_equal(v1[k], v2[k]) for k in (0, 17, 39))


def test_schur_vectors_residual_and_normalization():
    rng = np.random.default_rng(6)
    a = _random_complex(rng, 30)
    fro = np.linalg.norm(a)
    sol = eigenvalues(a)
    vectors = _vectors(sol, a, range(30))
    assert sorted(vectors) == list(range(30))
    for k, v in vectors.items():
        assert np.linalg.norm(a @ v - sol.eigenvalues[k] * v) < 1e-10 * fro
        assert np.max(np.abs(v)) == pytest.approx(1.0, abs=1e-15)


def test_schur_vectors_match_scipy_eig():
    rng = np.random.default_rng(8)
    n = 150  # more rows than one back-substitution block
    a = _random_complex(rng, n)
    sol = eigenvalues(a)
    values, columns = scipy.linalg.eig(a)
    for k, v in _vectors(sol, a, [n - 1, 0, 70, 71, 130]).items():
        u = columns[:, np.argmin(np.abs(values - sol.eigenvalues[k]))]
        phase = np.vdot(u, v) / np.vdot(u, u)
        assert abs(abs(phase) - np.linalg.norm(v)) < 1e-9 * np.linalg.norm(v)
        assert np.linalg.norm(v - phase * u) < 1e-9 * np.linalg.norm(v)


def test_vector_over_residual_target_is_unresolved():
    rng = np.random.default_rng(12)
    a = _random_complex(rng, 30)
    sol = eigenvalues(a)
    residuals = {k: np.linalg.norm(a @ v - sol.eigenvalues[k] * v)
                 for k, v in _vectors(sol, a, range(30)).items()}
    cut = float(np.median(list(residuals.values())))
    strict = dataclasses.replace(sol, residual_bound=cut)
    vectors = _vectors(strict, a, range(30))
    # the batched residual rounds differently from a @ v: judge with margin
    over = [k for k in vectors if residuals[k] > 1.5 * cut]
    under = [k for k in vectors if residuals[k] < cut / 1.5]
    assert over and under
    assert all(vectors[k] is None for k in over)
    assert all(vectors[k] is not None for k in under)


def test_workspace_matches_dense_inverse_iteration():
    rng = np.random.default_rng(8)
    a = _random_complex(rng, 12)
    fro = np.linalg.norm(a)
    with working_precision(EXTENDED):
        mat = as_working(a, EXTENDED)
        ws = HessenbergWorkspace(mat, precision=EXTENDED)
        for lam in eigenvalues(mat, precision=EXTENDED).eigenvalues[:3]:
            sample = ws.inverse_iteration(lam)
            dense = inverse_iteration(mat, lam, precision=EXTENDED)
            assert sample.residual < 1e-24 * fro
            gap = max(abs(x - y) for x, y in zip(sample.vector, dense.vector))
            assert float(gap) < 1e-20


def test_diagonal_matrix_exact():
    d = np.diag(np.array([1.0 + 2j, -3.0, 0.5j]))
    ev = np.sort_complex(np.asarray(eigenvalues(d).eigenvalues))
    assert np.allclose(ev, np.sort_complex(np.array([1 + 2j, -3, 0.5j])),
                       atol=1e-14)


def test_solution_metadata():
    rng = np.random.default_rng(9)
    a = _random_complex(rng, 10)
    sol = eigenvalues(a)
    assert sol.precision.mode == "double64"
    assert sol.residual_bound > 0
    assert len(sol.eigenvalues) == 10
