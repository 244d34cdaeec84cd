"""Chebyshev collocation grids and differentiation matrices on [-L, L].

Nodes are the Chebyshev-Lobatto points x_j = L cos(pi j / N), j = 0..N,
ordered descending in x (j = 0 sits at +L).  They are evaluated in the
sine form L sin(pi (N - 2j) / 2N) (Weideman & Reddy, ACM TOMS 26, 2000),
which makes them exactly antisymmetric, x_{N-j} = -x_j, and puts the
centre node of an even N exactly at the origin.  Rows of the
second-derivative matrix come from explicit formulas, so a caller pays
O(N) per row it asks for, rather than the O(N^3) of squaring the
first-derivative matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[1:-1]


def build_grid(
    half_width: float,
    n_intervals: int,
    precision: Optional[ScalarPrecision] = None,
) -> Grid:
    """Build the Chebyshev-Lobatto grid with N subintervals on [-L, L].

    An odd N leaves no node at the origin; an even N puts its centre node
    exactly there, where an odd potential takes the value 0.
    """
    L = float(half_width)
    n = int(n_intervals)
    if not 0 < L < np.inf:  # False for nan too
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    if n < 4:
        raise ValueError(f"n_intervals must be >= 4, got {n_intervals}")
    precision = precision or DOUBLE
    if precision.is_extended:
        import mpmath

        with mpmath.workprec(precision.bits):
            vals = [mpmath.mpf(L) * mpmath.sin(mpmath.pi * (n - 2 * j) / (2 * n))
                    for j in range(n + 1)]
        nodes = np.empty(n + 1, dtype=object)
        nodes[:] = vals
    else:
        j = np.arange(n + 1)
        nodes = L * np.sin(np.pi * (n - 2 * j) / (2 * n))
    return Grid(half_width=L, n_intervals=n, nodes=nodes)


def second_derivative_rows(grid: Grid, rows: Sequence[int]) -> np.ndarray:
    """Rows ``rows`` of the (N+1) x (N+1) second-derivative matrix, all columns.

    Costs O(len(rows) N) in the arithmetic of the nodes (float64 or mpmath
    scalars at the current working precision).  For i != j

        D^(1)_ij = (c_i / c_j) (-1)^(i+j) / (x_i - x_j),  c = 2 at the endpoints,
        D^(2)_ij = 2 D^(1)_ij (D^(1)_ii - 1 / (x_i - x_j)),

    and each diagonal entry is the negated sum of the off-diagonal entries
    of its row (Weideman & Reddy, ACM TOMS 26, 2000; Baltensperger &
    Trummer, SIAM J. Sci. Comput. 24, 2003).  Float rows with an entry
    that overflows, from a half-width too small for N, raise ValueError
    naming both.
    """
    x = grid.nodes
    n = grid.n_intervals
    i = np.asarray(rows, dtype=int)
    own = (np.arange(i.size), i)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    w = c * np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
    # a float entry that overflows is refused below, whatever the warning
    # filter; underflow to 0 is kept
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inv = x[i, None] - x[None, :]
        inv[own] = 1.0
        inv = np.divide(1.0, inv, out=inv)  # 1 / (x_i - x_j)
        first = np.outer(w[i], 1.0 / w) * inv
        first[own] = 0.0
        first[own] = -first.sum(axis=1)
        second = np.subtract(first[own][:, None], inv, out=inv)
        second *= first
        second *= 2.0
        second[own] = 0.0
        second[own] = -second.sum(axis=1)
    if second.dtype != object and not np.isfinite(second).all():
        raise ValueError(f"half-width L={grid.half_width!r} is too small for N={n}: "
                         "the second-derivative matrix overflows a double")
    return second
