"""Dirichlet-restricted collocation matrix of H = -d^2/dx^2 + V(x).

The boundary rows/columns (j = 0 and j = N) of the second-derivative
matrix are deleted, imposing psi(+-L) = 0, and the potential enters as a
diagonal on the interior nodes.  For the built-in families the result has
a symmetric-looking real part (up to collocation asymmetry) and a purely
diagonal imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebdiff import DiffMatrices, Grid
from .potentials import PotentialSpec, evaluate_on_grid


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense (N-1) x (N-1) interior matrix plus its provenance."""

    matrix: np.ndarray
    grid: Grid
    spec: PotentialSpec

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def assemble(grid: Grid, diff: DiffMatrices, spec: PotentialSpec) -> OperatorMatrix:
    """Assemble -(interior d2) + diag(V) on the interior nodes."""
    if diff.d2.shape != (grid.n_nodes, grid.n_nodes):
        raise ValueError(
            f"diff matrices built for {diff.d2.shape[0]} nodes, grid has {grid.n_nodes}"
        )
    v = evaluate_on_grid(spec, grid)[1:-1]
    core = -diff.d2[1:-1, 1:-1]
    if grid.nodes.dtype == object or v.dtype == object:
        mat = core.astype(object).copy()
        idx = np.arange(grid.n_intervals - 1)
        mat[idx, idx] = mat[idx, idx] + v
    else:
        mat = core.astype(np.complex128)
        mat[np.diag_indices_from(mat)] += v
    return OperatorMatrix(matrix=mat, grid=grid, spec=spec)
