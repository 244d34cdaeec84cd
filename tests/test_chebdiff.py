import numpy as np
import pytest

from ptspec.chebdiff import Grid, build_grid, second_derivative_rows
from ptspec.precision import EXTENDED, to_complex128, working_precision


def test_nodes_descending_with_endpoints():
    grid = build_grid(10.0, 16)
    assert grid.n_nodes == 17
    assert grid.nodes[0] == pytest.approx(10.0)
    assert grid.nodes[-1] == pytest.approx(-10.0)
    assert np.all(np.diff(grid.nodes) < 0)


def test_odd_intervals_skip_origin():
    grid = build_grid(5.0, 15)
    assert np.min(np.abs(grid.nodes)) > 1e-3


def test_interior_nodes_drop_endpoints():
    grid = build_grid(2.0, 8)
    assert grid.interior_nodes.shape == (7,)
    assert np.max(np.abs(grid.interior_nodes)) < 2.0


def _d2(grid):
    return second_derivative_rows(grid, range(grid.n_nodes))


def test_two_interval_corner_entry():
    # hand-built 3-node grid on [-1, 1]: the interpolant is a parabola,
    # so every row of D2 is the stencil [1, -2, 1] (spacing 1)
    nodes = np.cos(np.pi * np.arange(3) / 2)
    d2 = _d2(Grid(half_width=1.0, n_intervals=2, nodes=nodes))
    assert np.allclose(d2, [[1.0, -2.0, 1.0]] * 3, rtol=0, atol=1e-14)


def test_smooth_function_spectral_accuracy():
    grid = build_grid(1.0, 32)
    f = np.exp(grid.nodes) * np.sin(2 * grid.nodes)
    exact = np.exp(grid.nodes) * (4 * np.cos(2 * grid.nodes) - 3 * np.sin(2 * grid.nodes))
    assert np.max(np.abs(_d2(grid) @ f - exact)) < 1e-10


def test_second_derivative_is_square_of_first():
    # independent oracle: the square of the classic first-derivative matrix
    grid = build_grid(3.0, 24)
    x, n = grid.nodes, grid.n_intervals
    c = np.where((np.arange(n + 1) == 0) | (np.arange(n + 1) == n), 2.0, 1.0)
    w = c * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    first = np.outer(w, 1.0 / w) / dx
    np.fill_diagonal(first, 0.0)
    np.fill_diagonal(first, -first.sum(axis=1))
    square = first @ first
    assert np.allclose(_d2(grid), square, rtol=0, atol=1e-12 * np.max(np.abs(square)))
    # any subset of rows, in any order, is those rows of the full matrix
    rows = [5, 0, 24, 12]
    assert np.array_equal(second_derivative_rows(grid, rows), _d2(grid)[rows])


def test_second_derivative_accuracy():
    grid = build_grid(2.0, 40)
    f = np.cos(3 * grid.nodes)
    assert np.max(np.abs(_d2(grid) @ f + 9 * f)) < 1e-8


def test_constant_annihilated():
    grid = build_grid(7.0, 20)
    d2 = _d2(grid)
    assert np.max(np.abs(d2 @ np.ones(grid.n_nodes))) < 1e-10
    assert np.max(np.abs(d2 @ grid.nodes)) < 1e-10


def test_half_width_scaling():
    base = _d2(build_grid(1.0, 12))
    scaled = _d2(build_grid(4.0, 12))
    assert np.allclose(scaled, base / 16.0)


@pytest.mark.parametrize("half_width", [0.0, -3.0])
def test_rejects_nonpositive_half_width(half_width):
    with pytest.raises(ValueError):
        build_grid(half_width, 16)


def test_rejects_tiny_interval_count():
    with pytest.raises(ValueError):
        build_grid(1.0, 3)


def test_extended_precision_beats_double_roundoff():
    with working_precision(EXTENDED):
        grid = build_grid(1.0, 8, precision=EXTENDED)
        assert grid.nodes.dtype == object
        d2 = _d2(grid)
        assert d2.dtype == object
        x = grid.nodes
        quartic = np.array([v ** 4 for v in x], dtype=object)
        deriv = d2 @ quartic
        err = max(abs(complex(d - 12 * v ** 2)) for d, v in zip(deriv, x))
    assert err < 1e-25


def test_double_rows_match_extended_rows():
    double = _d2(build_grid(10.0, 255))
    with working_precision(EXTENDED):
        exact = to_complex128(_d2(build_grid(10.0, 255, precision=EXTENDED))).real
    assert np.max(np.abs(double - exact)) <= 1e-11 * np.max(np.abs(exact))


def test_extended_matches_double_grid():
    with working_precision(EXTENDED):
        grid_e = build_grid(10.0, 16, precision=EXTENDED)
    grid_d = build_grid(10.0, 16)
    assert np.allclose(to_complex128(grid_e.nodes).real, grid_d.nodes)
