import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ptspec import eigensolver
from ptspec.eigensolver import ConvergenceError, eigenvalues
from ptspec.harness.config import ExperimentConfig
from ptspec.harness.runner import run_single
from ptspec.precision import DOUBLE, EXTENDED, as_working, to_complex128, working_precision


def _companion(coeffs):
    """Companion matrix of the monic polynomial with the given roots, all
    real or in conjugate pairs."""
    poly = np.poly(coeffs)
    n = len(coeffs)
    c = np.zeros((n, n))
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
        a = rng.standard_normal((30, 30))
        sol = eigenvalues(a)
        gap = abs(np.sum(sol.eigenvalues) - np.trace(a))
        assert gap < 1e-10 * np.linalg.norm(a) * 30


def test_transpose_has_same_spectrum():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((25, 25))
    ev = np.sort_complex(np.asarray(eigenvalues(a).eigenvalues))
    ev_t = np.sort_complex(np.asarray(eigenvalues(a.T).eigenvalues))
    assert np.max(np.abs(ev - ev_t)) < 1e-10 * np.linalg.norm(a)


def _vectors(solution, matrix, indices):
    ks, vectors, _ = solution.eigenvectors(matrix, indices)
    return dict(zip(ks.tolist(), vectors.T))


def test_bitwise_determinism():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    first = eigenvalues(a)
    second = eigenvalues(a)
    assert np.array_equal(np.asarray(first.eigenvalues),
                          np.asarray(second.eigenvalues))
    v1 = _vectors(first, a, [0, 17, 39])
    v2 = _vectors(second, a, [0, 17, 39])
    assert all(np.array_equal(v1[k], v2[k]) for k in (0, 17, 39))


def test_schur_vectors_residual_and_normalization():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((30, 30))
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
    a = rng.standard_normal((n, n))
    sol = eigenvalues(a)
    values, columns = scipy.linalg.eig(a)
    for k, v in _vectors(sol, a, [n - 1, 0, 70, 71, 130]).items():
        u = columns[:, np.argmin(np.abs(values - sol.eigenvalues[k]))]
        phase = np.vdot(u, v) / np.vdot(u, u)
        assert abs(abs(phase) - np.linalg.norm(v)) < 1e-9 * np.linalg.norm(v)
        assert np.linalg.norm(v - phase * u) < 1e-9 * np.linalg.norm(v)


@pytest.mark.parametrize("precision, n", [(DOUBLE, 30), (EXTENDED, 12)],
                         ids=["double64", "extended128"])
def test_batch_residuals_are_the_measured_ones(precision, n):
    rng = np.random.default_rng(12)
    with working_precision(precision):
        a = as_working(rng.standard_normal((n, n)), precision)
        sol = eigenvalues(a, precision=precision)
        ks, vectors, residuals = sol.eigenvectors(a, range(n))
        measured = []
        for k, v in zip(ks, vectors.T):
            r = a @ v - sol.eigenvalues[k] * v
            measured.append(math.sqrt(float(sum(abs(x) ** 2 for x in r))))
    assert residuals.dtype == np.float64
    assert np.all(residuals <= precision.residual_tol)
    # in double the batched residual rounds differently from a @ v (by up
    # to ~3% here): judge with a 10% margin
    assert np.allclose(residuals, np.array(measured) / sol.matrix_fro_norm,
                       rtol=0.1, atol=0)


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
    # the pair 2 +- 3i is one 2 x 2 block of the real Schur form
    a = scipy.linalg.block_diag([[2.0, 3.0], [-3.0, 2.0]], [[5.0]])
    sol = eigenvalues(a, precision=precision)
    assert sol.partners.tolist() == [1, 0, -1]
    assert np.allclose(to_complex128(sol.eigenvalues), [2 + 3j, 2 - 3j, 5],
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED], ids=lambda p: p.mode)
def test_complex_input_is_refused_before_any_schur_call(monkeypatch, precision):
    def fail(*args):
        raise AssertionError("Schur decomposition of a complex matrix")

    monkeypatch.setattr(eigensolver, "_block_schur", fail)
    a = np.diag([2 + 3j, 2 - 3j, 5 + 0j])
    with working_precision(EXTENDED):
        mpc = np.frompyfunc(mpmath.mpc, 1, 1)(a)
    for m in (a, mpc):
        with pytest.raises(ValueError, match="real matrix"):
            eigenvalues(m, precision=precision)


def test_diagonal_matrix_exact():
    d = scipy.linalg.block_diag([[1.0, 2.0], [-2.0, 1.0]], [[-3.0]], [[0.5]])
    ev = np.sort_complex(np.asarray(eigenvalues(d).eigenvalues))
    assert np.allclose(ev, np.sort_complex(np.array([1 + 2j, 1 - 2j, -3, 0.5])),
                       atol=1e-14)


def test_solution_metadata():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((10, 10))
    sol = eigenvalues(a)
    assert sol.precision.mode == "double64"
    assert sol.matrix_fro_norm == np.linalg.norm(a)
    assert len(sol.eigenvalues) == 10


def test_no_indices_skips_the_back_substitution(monkeypatch):
    rng = np.random.default_rng(14)
    a = rng.standard_normal((20, 20))
    sol = eigenvalues(a)

    def fail(*args):
        raise AssertionError("back substitution run for no vectors")

    monkeypatch.setattr(eigensolver, "_schur_eigenvectors", fail)
    ks, vectors, residuals = sol.eigenvectors(a, [])
    assert ks.size == residuals.size == 0
    assert vectors.shape == (20, 0)


# --- back substitution on the real Schur form ---------------------------------

def _solution_of_real_schur_form(t):
    """The solution whose Schur form is the given standardized T, with Z = I."""
    values, partners = eigensolver._real_schur_eigenvalues(t)
    fro = float(np.linalg.norm(t))
    return eigensolver.EigenSolution(
        values, partners, fro, (), DOUBLE,
        schur=(t, np.eye(len(t))), lapack_threads=(None, None))


def _block(a, b, c):
    return np.array([[a, b], [c, a]])


@pytest.mark.parametrize("seed", [16, 17, 18])
def test_real_form_vectors_match_the_complex_form(seed):
    rng = np.random.default_rng(seed)
    n = 160  # more rows than two back-substitution panels
    g = rng.standard_normal((n, n))
    a = g - g.T + 0.1 * rng.standard_normal((n, n))  # nearly skew: pairs
    sol = eigenvalues(a)
    upper = np.flatnonzero(sol.eigenvalues.imag > 0)
    assert 2 * upper.size > 0.9 * n
    ks, vectors, residuals = sol.eigenvectors(a, upper)
    assert np.all(residuals <= DOUBLE.residual_tol)
    # the reference: LAPACK zgeev, on the complex Schur form of a + 0j
    values, columns = scipy.linalg.eig(a + 0j)
    for v, k in zip(vectors.T, ks):
        u = columns[:, np.argmin(np.abs(values - sol.eigenvalues[k]))]
        phase = np.vdot(u, v) / np.vdot(u, u)
        assert np.max(np.abs(v - phase * u)) <= 1e-12


def test_batches_do_not_change_the_vectors(monkeypatch):
    rng = np.random.default_rng(21)
    n = 150
    a = rng.standard_normal((n, n))
    sol = eigenvalues(a)
    ks, vectors, residuals = sol.eigenvectors(a, range(n))
    monkeypatch.setattr(eigensolver, "_VECTOR_BATCH", 40)
    again, small, small_residuals = sol.eigenvectors(a, range(n))
    assert np.array_equal(again, ks)
    assert np.max(np.abs(small - vectors)) <= 1e-13
    assert np.allclose(small_residuals, residuals, rtol=0.1, atol=1e-17)
    assert np.all(small_residuals <= DOUBLE.residual_tol)


def test_block_on_the_last_two_rows():
    rng = np.random.default_rng(19)
    n = 7
    t = np.triu(rng.standard_normal((n, n)))
    t[1:3, 1:3] = _block(0.5, 2.0, -0.5)
    t[n - 2:, n - 2:] = _block(-1.0, 0.3, -3.0)
    sol = _solution_of_real_schur_form(t)
    assert sol.partners[n - 2] == n - 1
    ks, vectors, residuals = sol.eigenvectors(t, range(n))
    assert np.all(residuals <= DOUBLE.residual_tol)
    values, columns = scipy.linalg.eig(t)
    for k in (n - 2, n - 1, 1):
        v = vectors[:, k]
        u = columns[:, np.argmin(np.abs(values - sol.eigenvalues[k]))]
        phase = np.vdot(u, v) / np.vdot(u, u)
        assert np.linalg.norm(v - phase * u) < 1e-12 * np.linalg.norm(v)


def test_identical_blocks_give_a_finite_vector():
    # the lower block's eigenvalue is exactly that of the upper block, so
    # solving the upper block for it meets a singular 2 x 2 system
    rng = np.random.default_rng(20)
    t = np.triu(rng.standard_normal((6, 6)))
    for k in (0, 2):
        t[k:k + 2, k:k + 2] = _block(1.0, 2.0, -3.0)
    t[4:, 4:] = _block(-2.0, 1.0, -1.0)
    sol = _solution_of_real_schur_form(t)
    assert sol.eigenvalues[0] == sol.eigenvalues[2]
    ks, vectors, residuals = sol.eigenvectors(t, [0, 2, 4])
    assert np.all(np.isfinite(vectors))
    assert np.all(residuals <= DOUBLE.residual_tol)


# --- one Schur decomposition per diagonal block ---------------------------------

_BLOCKS = [(0, 5), (5, 8), (8, 12)]


def _three_blocks(rng):
    a = np.zeros((12, 12))
    for lo, hi in _BLOCKS:
        a[lo:hi, lo:hi] = rng.standard_normal((hi - lo, hi - lo))
    return a


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED],
                         ids=lambda p: f"real-{p.mode}")
def test_block_diagonal_matrix_is_solved_per_block(monkeypatch, precision):
    rng = np.random.default_rng(22)
    a = _three_blocks(rng)
    n = len(a)
    assert eigensolver._diagonal_blocks(a) == _BLOCKS
    with working_precision(precision):
        if precision.is_extended:  # as mpc with Im 0
            a = np.frompyfunc(mpmath.mpc, 1, 1)(a)
        split = eigenvalues(a, precision=precision)
        ks, vectors, residuals = split.eigenvectors(a, range(n))
    assert np.all(residuals <= precision.residual_tol)
    outside = np.ones((n, n), dtype=bool)
    for lo, hi in _BLOCKS:
        outside[lo:hi, lo:hi] = False
    assert all(x == 0 for m in split.schur for x in m[outside])
    assert (split.schur[0].dtype == np.float64 if precision is DOUBLE
            else all(type(x) is mpmath.mpf for x in split.schur[0].ravel()))
    monkeypatch.setattr(eigensolver, "_diagonal_blocks", lambda a: [(0, len(a))])
    whole = eigenvalues(a, precision=precision)
    ev_split = to_complex128(split.eigenvalues)
    ev_whole = to_complex128(whole.eigenvalues)
    gap = max(np.min(np.abs(ev_whole - z)) for z in ev_split)
    assert gap <= 1e-12 * split.matrix_fro_norm
    assert np.count_nonzero(split.partners >= 0) == np.count_nonzero(whole.partners >= 0)


def test_one_coupling_entry_makes_one_schur_call(monkeypatch):
    rng = np.random.default_rng(23)
    a = _three_blocks(rng)
    calls = []
    schur = scipy.linalg.schur

    def spy(m, *args, **kwargs):
        calls.append(m.shape[0])
        return schur(m, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    eigenvalues(a)
    assert calls == [5, 3, 4]
    a[2, 10] = 0.5  # couples the first block with the last, and so all three
    calls.clear()
    eigenvalues(a)
    assert calls == [12]


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
    # a large one keeps the process's count; the superdiagonal couples
    # every row to the next, so it is one block, not n of order 1
    n = eigensolver._SERIAL_BELOW
    big = eigenvalues(np.eye(n) + np.eye(n, k=1))
    assert big.lapack_threads == (2, 2) and get() == 2
    # extended mode makes no LAPACK call
    assert eigenvalues(np.eye(3), precision=EXTENDED).lapack_threads == (None, 2)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_each_block_takes_its_own_thread_count(monkeypatch):
    get = _CONTROLS[0]
    seen = []
    schur = scipy.linalg.schur

    def spy(*args, **kwargs):
        seen.append(get())
        return schur(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "schur", spy)
    n = eigensolver._SERIAL_BELOW
    small = np.random.default_rng(24).standard_normal((40, 40))
    sol = eigenvalues(scipy.linalg.block_diag(np.eye(n) + np.eye(n, k=1), small))
    # the largest block's count is reported
    assert seen == [2, 1] and sol.lapack_threads == (2, 2) and get() == 2


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
