"""Real PT form K of the Dirichlet collocation matrix of H = -d^2/dx^2 + V(x).

The boundary rows/columns (j = 0 and j = N) of the second-derivative
matrix are deleted, imposing psi(+-L) = 0, and the potential enters as a
diagonal on the interior nodes.  Every built-in potential is V = iA f(x)
with f real and odd, and -d2 is centrosymmetric, so J conj(H) J = H with
J the node reversal x -> -x.  H is therefore unitarily similar to a real
matrix of the same size, and that matrix K is what ``assemble`` builds.

Split the n interior nodes into mirror pairs (k, n-1-k), k < m = n // 2,
plus the centre node when n is odd.  In the even/odd basis
Q = [[I, I], [J, -J]] / sqrt(2), followed by the phase diag(I, iI),

    K = [[De, -W], [W, Do]],   De = T + R J,   Do = T - R J,

where T and R are the top-left and top-right m x m blocks of the interior
-d2 and W = diag(A f(x_k)) on the top-half nodes.  For odd n the centre
row and column enter De scaled by sqrt(2) (V vanishes there).  K is built
in O(n^2) from the top rows of -d2, the only rows of d2 ever computed,
and the top-half potential samples, so the PT symmetry holds exactly by
construction.  An eigenvector y of K maps back to the grid as
v = [(ye + i yo); J (ye - i yo)] / sqrt(2), a unitary map, so residuals
measured on K are those of H.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from .chebdiff import Grid, second_derivative_rows
from .potentials import PotentialSpec, evaluate_on_grid


def _sqrt2(dtype):
    """sqrt(2) in the arithmetic of ``dtype`` (mpmath working precision for object)."""
    return mpmath.sqrt(2) if dtype == object else np.sqrt(2.0)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense (N-1) x (N-1) real PT form K of H plus its provenance."""

    matrix: np.ndarray
    grid: Grid
    spec: PotentialSpec

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def grid_vector(self, y: np.ndarray) -> np.ndarray:
        """Map an eigenvector of K to the eigenvector of H on the interior nodes.

        Object input is mapped at the current mpmath working precision.
        """
        n = self.dim
        m = n // 2
        ye, yo = y[:n - m], y[n - m:]
        v = np.empty(n, dtype=np.result_type(y.dtype, np.complex128))
        root2 = _sqrt2(v.dtype)
        v[:m] = (ye[:m] + 1j * yo) / root2
        v[n - m:] = ((ye[:m] - 1j * yo) / root2)[::-1]
        if n % 2:
            v[m] = ye[m]
        return v


def assemble(grid: Grid, spec: PotentialSpec) -> OperatorMatrix:
    """Assemble the real PT form K of -(interior d2) + diag(V).

    Only the me = n - n // 2 top interior rows of d2 are computed.  On an
    object (extended-precision) grid the entries are mpmath scalars at the
    current working precision.
    """
    n = grid.n_intervals - 1
    m = n // 2
    me = n - m  # even block: the mirror pairs plus the centre node, if any
    # -d2 on interior rows 0..me-1, all interior columns, negated in place
    top = second_derivative_rows(grid, range(1, me + 1))[:, 1:-1]
    np.negative(top, out=top)
    flip = top[:, ::-1]  # column l -> mirror column n-1-l
    v = evaluate_on_grid(spec, grid)[1:m + 1]  # i A f(x_k) on the top half
    w = np.array([z.imag for z in v], dtype=object) if v.dtype == object else v.imag
    mat = np.zeros((n, n), dtype=top.dtype)
    even = top[:, :me] + flip[:, :me]
    if n % 2:
        # the centre is its own mirror: un-double its column and row
        root2 = _sqrt2(mat.dtype)
        even[:m, m] = even[:m, m] / root2
        even[m, :m] = even[m, :m] / root2
        even[m, m] = even[m, m] / 2
    mat[:me, :me] = even
    mat[me:, me:] = top[:m, :m] - flip[:m, :m]
    k = np.arange(m)
    mat[k, me + k] = -w
    mat[me + k, k] = w
    return OperatorMatrix(matrix=mat, grid=grid, spec=spec)
