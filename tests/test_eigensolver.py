import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from ptspec import eigensolver
from ptspec.eigensolver import ConvergenceError, eigenvalues
from ptspec.harness.config import ExperimentConfig
from ptspec.harness.runner import run_single
from ptspec.precision import DOUBLE, EXTENDED, as_working, working_precision


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


@pytest.mark.parametrize("precision, n", [(DOUBLE, 30), (EXTENDED, 12)],
                         ids=["double64", "extended128"])
def test_vector_over_residual_target_is_unresolved(precision, n):
    rng = np.random.default_rng(12)
    with working_precision(precision):
        a = as_working(_random_complex(rng, n), precision)
        sol = eigenvalues(a, precision=precision)
        residuals = {}
        for k, v in _vectors(sol, a, range(n)).items():
            r = a @ v - sol.eigenvalues[k] * v
            residuals[k] = math.sqrt(float(sum(abs(x) ** 2 for x in r)))
    cut = float(np.median(list(residuals.values())))
    strict = dataclasses.replace(sol, residual_bound=cut)
    vectors = _vectors(strict, a, range(n))
    # in double the batched residual rounds differently from a @ v (by up
    # to ~3% here): judge with a 10% margin
    over = [k for k in vectors if residuals[k] > 1.1 * cut]
    under = [k for k in vectors if residuals[k] < cut / 1.1]
    assert over and under
    assert all(vectors[k] is None for k in over)
    assert all(vectors[k] is not None for k in under)


def test_real_matrix_takes_the_real_schur_form():
    rng = np.random.default_rng(13)
    n = 150  # more rows than one back-substitution block
    a = rng.standard_normal((n, n))
    fro = np.linalg.norm(a)
    sol = eigenvalues(a)
    assert all(f.dtype == np.float64 for f in sol.schur)
    ev = np.asarray(sol.eigenvalues)
    ref = scipy.linalg.eigvals(a)
    assert max(np.min(np.abs(ref - z)) for z in ev) < 1e-12 * fro
    # each pair bitwise conjugate, positive imaginary part first
    upper = np.flatnonzero(ev.imag > 0)
    assert upper.size and np.array_equal(ev[upper + 1], ev[upper].conj())
    assert np.sum(ev.imag != 0) == 2 * upper.size
    # ... and partners of each other; real eigenvalues have none
    partners = np.full(n, -1)
    partners[upper], partners[upper + 1] = upper + 1, upper
    assert np.array_equal(sol.partners, partners)
    # a pair's first member as the last index needs its partner's row too
    pair = upper[upper > 70][0]
    for indices in ([0], [n - 1], [pair], [pair + 1], [3, pair, pair + 1]):
        for k, v in _vectors(sol, a, indices).items():
            assert np.linalg.norm(a @ v - ev[k] * v) < 1e-12 * fro
            assert np.max(np.abs(v)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED], ids=lambda p: p.mode)
def test_partners_match_exact_conjugates(precision):
    # a complex matrix takes the complex Schur form, whose pairs are matched
    sol = eigenvalues(np.diag([2 + 3j, 2 - 3j, 5 + 0j]), precision=precision)
    assert sol.partners.tolist() == [1, 0, -1]


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED], ids=lambda p: p.mode)
def test_partners_require_the_residual_bound(precision):
    # each is the other's nearest conjugate, but 0.5 apart
    sol = eigenvalues(np.diag([2 + 3j, 2.5 - 3j]), precision=precision)
    assert sol.partners.tolist() == [-1, -1]


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
    assert sol.matrix_fro_norm == np.linalg.norm(a)
    assert sol.residual_bound == 1e-10 * sol.matrix_fro_norm
    assert len(sol.eigenvalues) == 10


def test_no_indices_skips_the_complex_form(monkeypatch):
    rng = np.random.default_rng(14)
    a = rng.standard_normal((20, 20))
    sol = eigenvalues(a)

    def fail(*args):
        raise AssertionError("complex Schur form built for no vectors")

    monkeypatch.setattr(eigensolver, "_complex_schur_form", fail)
    assert list(sol.eigenvectors(a, [])) == []


# --- LAPACK threads ----------------------------------------------------------

_CONTROLS = eigensolver._openblas_threads()
needs_openblas = pytest.mark.skipif(
    _CONTROLS is None, reason="scipy's LAPACK exports no OpenBLAS thread count")


@pytest.fixture
def two_threads():
    """scipy's OpenBLAS on 2 threads for the test, then as it was."""
    get, put = _CONTROLS
    before = get()
    put(2)
    yield
    put(before)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_small_schur_runs_on_one_thread_and_restores_the_count(monkeypatch):
    get = _CONTROLS[0]
    seen = []
    schur = scipy.linalg.schur

    def spy(*args, **kwargs):
        seen.append(get())
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    a = np.random.default_rng(15).standard_normal((40, 40))
    sol = eigenvalues(a)
    assert seen == [1] and get() == 2
    assert sol.lapack_threads == (1, 2)
    eigenvalues(a + 0j)  # the complex form too
    assert seen == [1, 1] and get() == 2
    # a large one keeps the process's count
    big = eigenvalues(np.eye(eigensolver._SERIAL_BELOW))
    assert big.lapack_threads == (2, 2) and get() == 2
    # extended mode makes no LAPACK call
    assert eigenvalues(np.eye(3), precision=EXTENDED).lapack_threads == (None, 2)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_thread_count_restored_when_schur_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "schur", fail)
    with pytest.raises(ConvergenceError):
        eigenvalues(np.eye(8))
    assert _CONTROLS[0]() == 2


def test_no_thread_controls_leaves_the_solve_alone(monkeypatch):
    assert eigensolver._thread_controls(object()) is None
    monkeypatch.setattr(eigensolver, "_openblas_threads", lambda: None)
    sol = eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert sorted(sol.eigenvalues.real) == [1.0, 2.0, 3.0]
    assert sol.lapack_threads == (None, None)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_one_and_two_threads_give_the_same_labels(monkeypatch):
    config = ExperimentConfig(family="scarf2", strength=30.0,
                              half_widths=(10.0,), n_intervals=255)
    one, timings = run_single(config, 10.0)
    assert (timings["schur_threads"], timings["process_threads"]) == (1, 2)
    monkeypatch.setattr(eigensolver, "_SERIAL_BELOW", 0)
    two, timings = run_single(config, 10.0)
    assert (timings["schur_threads"], timings["process_threads"]) == (2, 2)
    assert one.bound_pairs == two.bound_pairs > 0
    assert ([(r.label, r.pair_index) for r in one.records]
            == [(r.label, r.pair_index) for r in two.records])
    z1 = np.array([r.value for r in one.records])
    z2 = np.array([r.value for r in two.records])
    assert np.max(np.abs(z1 - z2)) <= 1e-12 * np.max(np.abs(z1))
