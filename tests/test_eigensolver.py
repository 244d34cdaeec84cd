import math
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ptspec import eigensolver, trace
from ptspec.chebdiff import build_grid
from ptspec.eigensolver import ConvergenceError, eigenvalues
from ptspec.hamiltonian import assemble
from ptspec.harness.config import ExperimentConfig
from ptspec.harness.runner import run_single
from ptspec.potentials import PotentialSpec
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
    # one block, and two diagonal blocks, each with its own reflectors
    for a in (rng.standard_normal((n, n)),
              scipy.linalg.block_diag(*rng.standard_normal((2, n // 2, n // 2)))):
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
    # the extended reference is measured at 4 x bits: at ``bits`` its own
    # rounding is as large as the residual; double arithmetic is numpy's
    with mpmath.workprec(4 * precision.bits):
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
    assert all(f.dtype == np.float64 for b in sol.blocks for f in (b.t, b.z))
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

    monkeypatch.setattr(eigensolver, "_schur_factors", fail)
    monkeypatch.setattr(eigensolver, "_extended_schur", fail)
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


def test_repeated_and_unordered_indices_give_each_vector_once():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((20, 20))
    sol = eigenvalues(a)
    indices = [7, 3, 7, 19, 0, 3]
    ks, vectors, residuals = sol.eigenvectors(a, indices)
    assert ks.tolist() == np.unique(indices).tolist()
    once = sol.eigenvectors(a, [0, 3, 7, 19])
    assert np.array_equal(vectors, once[1]) and np.array_equal(residuals, once[2])


@pytest.mark.parametrize("precision", [DOUBLE, EXTENDED], ids=lambda p: p.mode)
@pytest.mark.parametrize("case", ["index-minus-one", "index-n", "wrong-order"])
def test_eigenvectors_refuse_an_index_or_matrix_not_their_own(precision, case):
    n = 6
    with working_precision(precision):
        a = as_working(np.random.default_rng(34).standard_normal((n, n)), precision)
        sol = eigenvalues(a, precision=precision)
        with trace.record() as spans:
            if case == "wrong-order":
                # a larger matrix would fit every block's slice
                with pytest.raises(ValueError, match="6 x 6"):
                    sol.eigenvectors(np.eye(n + 1), [0])
            else:
                with pytest.raises(IndexError, match="0..5"):
                    sol.eigenvectors(a, [-1] if case == "index-minus-one" else [n])
    assert not spans  # refused before the eigensolver.vectors span opens


# --- back substitution on the real Schur form ---------------------------------

def _solution_of_real_schur_form(t):
    """The solution whose Schur form is the given standardized T, with Z = I."""
    values, partners = eigensolver._real_schur_eigenvalues(t)
    fro = float(np.linalg.norm(t))
    return eigensolver.EigenSolution(
        values, partners, fro, (), DOUBLE,
        (eigensolver._SchurBlock(0, t, np.eye(len(t)), None, ()),))


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
    # each block keeps its own factor, of the block's order: T and Z in
    # double precision, H in extended; a vector is 0 outside its
    # eigenvalue's block
    factor = (lambda f: f.h) if precision.is_extended else (lambda f: f.t)
    assert [(f.lo, len(factor(f))) for f in split.blocks] == [
        (lo, hi - lo) for lo, hi in _BLOCKS]
    if precision is DOUBLE:
        assert all(f.t.shape == f.z.shape and f.t.dtype == np.float64
                   for f in split.blocks)
    assert all(x == 0 for x in vectors[outside[:, ks]])
    monkeypatch.setattr(eigensolver, "_diagonal_blocks", lambda a: [(0, len(a))])
    whole = eigenvalues(a, precision=precision)
    ev_split = to_complex128(split.eigenvalues)
    ev_whole = to_complex128(whole.eigenvalues)
    gap = max(np.min(np.abs(ev_whole - z)) for z in ev_split)
    assert gap <= 1e-12 * split.matrix_fro_norm
    assert np.count_nonzero(split.partners >= 0) == np.count_nonzero(whole.partners >= 0)


def _spy_on_qr(monkeypatch, before=None):
    """Replace ``eigensolver._qr`` by a spy; returns the block orders it saw.

    ``before(t)``, if given, runs in the spy ahead of the real call.
    """
    calls = []
    qr = eigensolver._qr

    def spy(t, z):
        calls.append(t.shape[0])
        if before is not None:
            before(t)
        return qr(t, z)

    monkeypatch.setattr(eigensolver, "_qr", spy)
    return calls


def _schur_counters(a, precision=DOUBLE):
    """The counters of the ``eigensolver.schur`` span of ``eigenvalues(a)``."""
    with trace.record() as spans:
        eigenvalues(a, precision=precision)
    return spans[0].counters


def test_one_coupling_entry_makes_one_schur_call(monkeypatch):
    rng = np.random.default_rng(23)
    a = _three_blocks(rng)
    calls = _spy_on_qr(monkeypatch)
    eigenvalues(a)
    assert calls == [5, 3, 4]
    a[2, 10] = 0.5  # couples the first block with the last, and so all three
    calls.clear()
    eigenvalues(a)
    assert calls == [12]


# 1e160: finite, but the Frobenius norm overflows, so no residual relative
# to it could be measured
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e160])
def test_non_finite_matrix_is_refused_before_any_schur_call(monkeypatch, bad):
    def fail(*args):
        raise AssertionError("Schur decomposition of a non-finite matrix")

    monkeypatch.setattr(eigensolver, "_schur_factors", fail)
    a = np.eye(4)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        eigenvalues(a)


def test_without_lapacke_scipy_solves_the_blocks(monkeypatch):
    rng = np.random.default_rng(25)
    a = _three_blocks(rng)
    own = eigenvalues(a)
    calls = []
    schur = scipy.linalg.schur

    def spy(m, *args, **kwargs):
        calls.append(m.shape[0])
        return schur(m, *args, **kwargs)

    _with_symbols(monkeypatch, dgehrd=None, dhseqr=None, dormqr=None)
    monkeypatch.setattr(scipy.linalg, "schur", spy)
    with trace.record() as spans:
        sol = eigenvalues(a)
    # one block after another, on a pool whose threads are not known, with
    # Z explicit: no reflectors
    assert calls == [5, 3, 4]
    assert all(b.tau is None and not b.panels for b in sol.blocks)
    assert spans[0].counters["schur_threads"] is None
    assert np.allclose(sol.eigenvalues, own.eigenvalues, rtol=0, atol=1e-12)
    _, vectors, residuals = sol.eigenvectors(a, range(len(a)))
    assert np.all(residuals <= DOUBLE.residual_tol)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "schur", fail)
    with pytest.raises(ConvergenceError, match="no convergence"):
        eigenvalues(a)


def test_lapack_info_is_raised(monkeypatch):
    if _LIB.dhseqr is None:
        pytest.skip("numpy's library exports no LAPACKE_dhseqr")
    a = np.array([[1.0, 2.0, 0.5], [3.0, 4.0, 1.0], [0.5, 2.0, 1.0]])
    for routine, info, error in (("dhseqr", 1, ConvergenceError),
                                 ("dhseqr", -6, ValueError), ("dgehrd", -5, ValueError)):
        _with_symbols(monkeypatch, **{routine: lambda *args: info})
        with pytest.raises(error, match=routine):
            eigenvalues(a)
    monkeypatch.undo()
    sol = eigenvalues(a)
    _with_symbols(monkeypatch, dormqr=lambda *args: -9)
    with pytest.raises(ValueError, match="dormqr"):
        sol.eigenvectors(a, [0])


def test_lapack_refuses_blocks_it_cannot_read():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])  # C order: its rows are contiguous
    for t, z in ((a, np.empty_like(a, order="F")), (a.T, np.empty_like(a))):
        with pytest.raises(ValueError, match="contiguous columns"):
            eigensolver._qr(t, z)
    with pytest.raises(ValueError, match="contiguous columns"):
        eigensolver._hessenberg(a)
    # the reflectors read the vectors' rows as LAPACK's columns
    (block,) = eigenvalues(a).blocks
    with pytest.raises(ValueError, match="contiguous rows"):
        eigensolver._apply_q(block, np.zeros((2, 2), dtype=np.complex128, order="F"))


# --- the factored Schur form: T, Z and the Hessenberg reflectors ----------------

def _k(strength):
    """K of scarf2 at L=10, N=129: two parity blocks at A=0, one otherwise."""
    return assemble(build_grid(10.0, 129), PotentialSpec("scarf2", strength)).matrix


@pytest.mark.parametrize("case", ["random", "box", "scarf2"])
def test_reflectors_and_z_factor_the_matrix(case):
    a = (np.random.default_rng(31).standard_normal((150, 150)) if case == "random"
         else _k(0.0 if case == "box" else 30.0))
    n = len(a)
    sol = eigenvalues(a)
    t = scipy.linalg.block_diag(*(b.t for b in sol.blocks))
    blocks = eigensolver._diagonal_blocks(a)
    assert len(blocks) == (2 if case == "box" else 1)
    assert [b.lo for b in sol.blocks] == [lo for lo, _ in blocks]
    assert not np.tril(t, -2).any()
    # Q Z, from each block's reflectors applied to the columns of its Z
    parts = [np.ascontiguousarray(b.z, dtype=np.complex128) for b in sol.blocks]
    for b, part in zip(sol.blocks, parts):
        eigensolver._apply_q(b, part)
    qz = scipy.linalg.block_diag(*parts)
    assert not qz.imag.any()
    qz = qz.real
    assert np.linalg.norm(a - qz @ t @ qz.T) <= 1e-13 * np.linalg.norm(a)
    assert np.linalg.norm(qz.T @ qz - np.eye(n)) <= 1e-13


def test_without_lapacke_the_labels_are_the_same(monkeypatch):
    config = ExperimentConfig(family="scarf2", strength=30.0,
                              half_widths=(10.0,), n_intervals=255)
    own, _ = run_single(config, 10.0)
    _with_symbols(monkeypatch, dgehrd=None, dhseqr=None, dormqr=None)
    fallback, _ = run_single(config, 10.0)
    assert fallback.bound_pairs == own.bound_pairs > 0
    assert [r.label for r in fallback.records] == [r.label for r in own.records]
    z1 = np.array([r.value for r in own.records])
    z2 = np.array([r.value for r in fallback.records])
    assert np.max(np.abs(z1 - z2)) <= 1e-12 * np.max(np.abs(z1))


def test_the_solve_keeps_no_n_by_n_hessenberg_factor():
    if _LIB.dhseqr is None:
        pytest.skip("numpy's library exports no LAPACKE_dhseqr")
    n = 400
    a = np.random.default_rng(32).standard_normal((n, n))
    eigenvalues(a)  # a first call's imports and caches stay out of the peak
    tracemalloc.start()
    try:
        sol = eigenvalues(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # T, Z and the reflectors' panels (about n^2 / 2), where Q itself would
    # take n^2 more; the slack is the panels' unused triangles and one
    # LAPACK workspace, each under n * _PANEL entries
    assert len(sol.blocks) == 1
    assert peak <= (2.5 * n * n + 2 * n * eigensolver._PANEL) * 8


def test_two_blocks_keep_no_n_by_n_schur_factor():
    if _LIB.dhseqr is None:
        pytest.skip("numpy's library exports no LAPACKE_dhseqr")
    n = 800
    rng = np.random.default_rng(33)
    a = scipy.linalg.block_diag(*rng.standard_normal((2, n // 2, n // 2)))
    eigenvalues(a)  # a first call's imports and caches stay out of the peak
    tracemalloc.start()
    try:
        sol = eigenvalues(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # each block's own T and Z, n^2 / 4 each, and its panels, about n^2 / 8:
    # 1.25 n^2 for the two, where an n x n T and Z alone would take 2 n^2
    assert [(b.lo, len(b.t)) for b in sol.blocks] == [(0, n // 2), (n // 2, n // 2)]
    assert peak <= 1.5 * n * n * 8


# --- LAPACK threads ----------------------------------------------------------

_LIB = eigensolver._openblas()
needs_openblas = pytest.mark.skipif(
    _LIB.get_threads is None or _LIB.dhseqr is None,
    reason="numpy's OpenBLAS exports no thread count or no LAPACKE_dhseqr")


def _with_symbols(monkeypatch, **symbols):
    """Make ``eigensolver._openblas`` return numpy's symbols, those named
    in ``symbols`` replaced."""
    replaced = _LIB._replace(**symbols)
    monkeypatch.setattr(eigensolver, "_openblas", lambda: replaced)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_small_schur_runs_on_one_thread_and_restores_the_count(monkeypatch):
    get = _LIB.get_threads
    seen = []
    _spy_on_qr(monkeypatch, lambda m: seen.append(get()))
    a = np.random.default_rng(15).standard_normal((40, 40))
    counters = _schur_counters(a)
    assert seen == [1] and get() == 2
    assert counters["schur_threads"] == 1
    # a large one keeps the process's count; the superdiagonal couples
    # every row to the next, so it is one block, not n of order 1
    n = eigensolver._SERIAL_BELOW
    big = _schur_counters(np.eye(n) + np.eye(n, k=1))
    assert big["schur_threads"] == 2 and get() == 2
    # extended mode makes no LAPACK call
    assert _schur_counters(np.eye(3), precision=EXTENDED)["schur_threads"] is None


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_concurrent_blocks_each_run_on_one_thread(monkeypatch):
    get = _LIB.get_threads
    seen = []
    both = threading.Barrier(2, timeout=60)

    def meet(m):
        seen.append(get())
        both.wait()  # passes only while both blocks are in the solver at once

    _spy_on_qr(monkeypatch, meet)
    n = eigensolver._SERIAL_BELOW
    small = np.random.default_rng(24).standard_normal((40, 40))
    counters = _schur_counters(scipy.linalg.block_diag(np.eye(n) + np.eye(n, k=1),
                                                       small))
    assert seen == [1, 1] and get() == 2
    assert counters == {"blocks": 2, "largest_block": n, "qr_sweeps": None,
                        "schur_threads": 1}


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_no_more_concurrent_blocks_than_threads(monkeypatch):
    lock = threading.Lock()
    running, most = [0], [0]
    qr = eigensolver._qr

    def spy(t, z):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        try:
            return qr(t, z)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(eigensolver, "_qr", spy)
    # six blocks of order _SERIAL_BELOW or more in all, so they run concurrently
    size = -(-eigensolver._SERIAL_BELOW // 6)
    a = scipy.linalg.block_diag(
        *np.random.default_rng(26).standard_normal((6, size, size)))
    assert _schur_counters(a)["blocks"] == 6
    assert 1 <= most[0] <= 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_small_blocks_run_one_after_another_on_one_thread(monkeypatch):
    # below order _SERIAL_BELOW no pool is started: the blocks run in order,
    # on the calling thread, each on one LAPACK thread
    get = _LIB.get_threads
    seen = []
    _spy_on_qr(monkeypatch,
                  lambda m: seen.append((len(m), get(), threading.get_ident())))
    counters = _schur_counters(_three_blocks(np.random.default_rng(28)))
    me = threading.get_ident()
    assert seen == [(5, 1, me), (3, 1, me), (4, 1, me)] and get() == 2
    assert (counters["blocks"], counters["schur_threads"]) == (3, 1)


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_thread_count_restored_when_one_concurrent_block_fails(monkeypatch):
    seen = []

    def fail_one(m):
        seen.append(_LIB.get_threads())
        if m.shape[0] == 3:
            raise ConvergenceError("injected")

    _spy_on_qr(monkeypatch, fail_one)
    # of order _SERIAL_BELOW or more in all, so the blocks run concurrently
    n = eigensolver._SERIAL_BELOW
    a = scipy.linalg.block_diag(np.eye(n) + np.eye(n, k=1),
                                _three_blocks(np.random.default_rng(27)))
    with pytest.raises(ConvergenceError, match="injected"):
        eigenvalues(a)
    assert set(seen) == {1} and _LIB.get_threads() == 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_thread_count_restored_when_schur_fails(monkeypatch):
    # LAPACK reports no convergence, on one block and on several
    _with_symbols(monkeypatch, dhseqr=lambda *args: 1)
    for a in (np.ones((8, 8)), np.eye(8)):
        with pytest.raises(ConvergenceError):
            eigenvalues(a)
        assert _LIB.get_threads() == 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_concurrent_box_blocks_match_each_block_alone():
    # K of order _SERIAL_BELOW: its two parity blocks run concurrently
    grid = build_grid(10.0, eigensolver._SERIAL_BELOW + 1)
    k = assemble(grid, PotentialSpec("scarf2", 0.0)).matrix
    blocks = eigensolver._diagonal_blocks(k)
    assert len(blocks) == 2
    sol = eigenvalues(k)
    with eigensolver._one_thread() as threads:
        assert threads == 2 and _LIB.get_threads() == 1
        for (lo, hi), block in zip(blocks, sol.blocks):
            tb = np.array(k[lo:hi, lo:hi], order="F")
            zb = np.empty_like(tb)
            tau, panels = eigensolver._hessenberg(tb)
            eigensolver._qr(tb, zb)
            assert np.array_equal(block.t, tb)
            assert np.array_equal(block.z, zb)
            assert block.lo == lo
            assert np.array_equal(tau, block.tau)
            assert all(map(np.array_equal, panels, block.panels))


def test_held_solves_run_on_one_thread_and_report_the_count_before(two_threads,
                                                                  monkeypatch):
    # inside the hold any order takes the one-thread path: a single block is
    # not put back on two threads, and a box's blocks start no pool of their
    # own; the hold yields the count from before, each solve the one it ran on
    get = two_threads
    seen = []
    _spy_on_qr(monkeypatch,
                  lambda m: seen.append((len(m), get(), threading.get_ident())))
    n = eigensolver._SERIAL_BELOW
    box = scipy.linalg.block_diag(np.eye(n) + np.eye(n, k=1), np.eye(n) + np.eye(n, k=1))
    me = threading.get_ident()
    with eigensolver._one_thread() as slots:
        assert slots == 2 and get() == 1
        single = _schur_counters(np.eye(n) + np.eye(n, k=1))
        blocks = _schur_counters(box)
        with eigensolver._one_thread() as inner:  # already held
            assert inner == 1
        assert get() == 1
    assert get() == 2
    assert seen == [(n, 1, me)] * 3
    for counters in (single, blocks):
        assert counters["schur_threads"] == 1
    with pytest.raises(KeyError):
        with eigensolver._one_thread():
            raise KeyError("injected")
    assert get() == 2


def test_no_thread_controls_leaves_the_solve_alone(monkeypatch):
    # a library that exports none of OpenBLAS's thread controls: no hold is
    # taken, so two items run one after another on the calling thread
    _with_symbols(monkeypatch, get_threads=None, set_threads=None, config=None)
    me = threading.get_ident()
    assert eigensolver.side_by_side(lambda item: threading.get_ident(), [1, 2]) == [me, me]
    with trace.record() as spans:
        sol = eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert sorted(sol.eigenvalues.real) == [1.0, 2.0, 3.0]
    assert spans[0].counters["schur_threads"] is None
    environment = trace.environment()
    assert (environment["openblas"], environment["openblas_threads"]) == (None, None)


def test_a_library_that_cannot_be_read_exports_nothing():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigensolver.ctypes, "CDLL", lambda path: object())
        eigensolver._openblas.cache_clear()
        try:
            symbols = eigensolver._openblas()
        finally:
            eigensolver._openblas.cache_clear()  # looked up anew once restored
    assert symbols == (None,) * 7


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_one_and_two_threads_give_the_same_labels(monkeypatch):
    config = ExperimentConfig(family="scarf2", strength=30.0,
                              half_widths=(10.0,), n_intervals=255)
    one, spans = run_single(config, 10.0)
    assert spans[1].counters["schur_threads"] == 1
    monkeypatch.setattr(eigensolver, "_SERIAL_BELOW", 0)
    two, spans = run_single(config, 10.0)
    assert spans[1].counters["schur_threads"] == 2
    assert one.bound_pairs == two.bound_pairs > 0
    assert [r.label for r in one.records] == [r.label for r in two.records]
    z1 = np.array([r.value for r in one.records])
    z2 = np.array([r.value for r in two.records])
    assert np.max(np.abs(z1 - z2)) <= 1e-12 * np.max(np.abs(z1))


def _spy_on_shutdown(monkeypatch):
    """Replace OpenBLAS's worker shutdown by a spy; returns the OpenBLAS
    thread count at each call."""
    calls = []

    def spy():
        calls.append(_LIB.get_threads())
        return 0

    _with_symbols(monkeypatch, shutdown=spy)
    return calls


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_a_pool_of_two_or_more_stops_the_idle_workers_first(monkeypatch):
    calls = _spy_on_shutdown(monkeypatch)
    seen = []

    def job(item):
        seen.append((item, len(calls)))
        return item * 2

    assert eigensolver.side_by_side(job, [1, 2, 3]) == [2, 4, 6]
    # on one thread before any item starts, and once the count is restored
    assert calls == [1, 2] and sorted(seen) == [(1, 1), (2, 1), (3, 1)]
    assert _LIB.get_threads() == 2
    # K's parity blocks from order _SERIAL_BELOW on are such a pool too, once
    # for their Hessenberg reductions and once for their QR iterations
    n = eigensolver._SERIAL_BELOW
    box = scipy.linalg.block_diag(np.eye(n) + np.eye(n, k=1), np.eye(n))
    _schur_counters(box)
    assert calls == [1, 2, 1, 2, 1, 2] and _LIB.get_threads() == 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_no_pool_stops_no_workers(monkeypatch):
    calls = _spy_on_shutdown(monkeypatch)
    # one item runs unchanged, on the process's threads
    assert eigensolver.side_by_side(lambda item: _LIB.get_threads(), [7]) == [2]
    # items inside an enclosing hold run one after another
    with eigensolver._one_thread():
        assert eigensolver.side_by_side(lambda item: item, [1, 2]) == [1, 2]
    # a K below order _SERIAL_BELOW runs its blocks on the serial path
    _schur_counters(_three_blocks(np.random.default_rng(29)))
    # and a lone block from that order on runs on the process's threads
    n = eigensolver._SERIAL_BELOW
    _schur_counters(np.eye(n) + np.eye(n, k=1))
    assert calls == [] and _LIB.get_threads() == 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_without_the_shutdown_symbol_the_pool_runs_as_before(monkeypatch):
    _with_symbols(monkeypatch, shutdown=None)
    seen = eigensolver.side_by_side(lambda item: _LIB.get_threads(), [1, 2])
    assert seen == [1, 1] and _LIB.get_threads() == 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_thread_count_restored_after_the_shutdown_when_an_item_raises(monkeypatch):
    calls = _spy_on_shutdown(monkeypatch)

    def job(item):
        if item == 2:
            raise ConvergenceError("injected")
        return item

    with pytest.raises(ConvergenceError, match="injected"):
        eigensolver.side_by_side(job, [1, 2])
    assert calls == [1, 2] and _LIB.get_threads() == 2


@needs_openblas
@pytest.mark.usefixtures("two_threads")
def test_the_real_shutdown_leaves_no_worker_spinning():
    if _LIB.shutdown is None:
        pytest.skip("numpy's OpenBLAS exports no blas_thread_shutdown_")
    rng = np.random.default_rng(30)
    m = rng.standard_normal((300, 300))
    product = m @ m  # on two threads: an idle worker spins after it
    a = scipy.linalg.block_diag(*rng.standard_normal((2, 300, 300)))
    sol = eigenvalues(a)  # its two blocks run side by side
    assert _LIB.get_threads() == 2
    # no worker is left, so none spins (one would take ~0.13 s of CPU)
    start = time.process_time()
    time.sleep(0.2)
    assert time.process_time() - start < 0.05
    # the next threaded call starts them again, with the same result
    assert np.array_equal(m @ m, product)
    assert np.allclose(np.sort_complex(to_complex128(sol.eigenvalues)),
                       np.sort_complex(np.linalg.eigvals(a)), atol=1e-10)
