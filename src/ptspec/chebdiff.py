"""Chebyshev collocation grids and differentiation matrices on [-L, L].

Nodes are the Chebyshev-Lobatto points x_j = L cos(pi j / N), j = 0..N,
ordered descending in x (j = 0 sits at +L).  They are evaluated in the
sine form L sin(pi (N - 2j) / 2N) (Weideman & Reddy, ACM TOMS 26, 2000),
which makes them exactly antisymmetric, x_{N-j} = -x_j, and puts the
centre node of an even N exactly at the origin.  The first-derivative
matrix uses the standard collocation weights with the negative-sum trick
on the diagonal; the second-derivative matrix is the square of the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import mpmath
import numpy as np

from .precision import DOUBLE, ScalarPrecision


@dataclass(frozen=True)
class Grid:
    """Collocation grid: N subintervals, N + 1 nodes on [-L, L]."""

    half_width: float
    n_intervals: int
    nodes: np.ndarray  # shape (N + 1,), descending; dtype float64 or object

    def __post_init__(self):
        self.nodes.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.n_intervals + 1

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


@dataclass(frozen=True)
class DiffMatrices:
    """First- and second-derivative collocation matrices, (N+1) x (N+1)."""

    d1: np.ndarray
    d2: np.ndarray

    def __post_init__(self):
        self.d1.setflags(write=False)
        self.d2.setflags(write=False)


def build_grid(
    half_width: float,
    n_intervals: int,
    precision: Optional[ScalarPrecision] = None,
) -> Grid:
    """Build the Chebyshev-Lobatto grid with N subintervals on [-L, L].

    An odd N leaves no node at the origin, which matters for potentials
    with a sign discontinuity there.
    """
    L = float(half_width)
    n = int(n_intervals)
    if not L > 0:
        raise ValueError(f"half_width must be positive, got {half_width}")
    if n < 4:
        raise ValueError(f"n_intervals must be >= 4, got {n_intervals}")
    precision = precision or DOUBLE
    if precision.is_extended:
        with mpmath.workprec(precision.bits):
            vals = [mpmath.mpf(L) * mpmath.sin(mpmath.pi * (n - 2 * j) / (2 * n))
                    for j in range(n + 1)]
        nodes = np.empty(n + 1, dtype=object)
        nodes[:] = vals
    else:
        j = np.arange(n + 1)
        nodes = L * np.sin(np.pi * (n - 2 * j) / (2 * n))
    return Grid(half_width=L, n_intervals=n, nodes=nodes)


def build_diff_matrices(grid: Grid) -> DiffMatrices:
    """Collocation derivative matrices for the given grid.

    d1 follows the classic Lobatto formula D_ij = (c_i / c_j) (-1)^(i+j)
    / (x_i - x_j) with c = 2 at the endpoints, diagonal entries set to the
    negated off-diagonal row sums.  d2 = d1 @ d1; the corner rows lose a
    little accuracy this way but are discarded by the Dirichlet restriction.
    """
    x = grid.nodes
    n = grid.n_intervals
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    sign = np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    w = c * sign
    weight = np.outer(w, 1.0 / w)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d1 = weight / dx
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = d1 @ d1
    return DiffMatrices(d1=d1, d2=d2)
