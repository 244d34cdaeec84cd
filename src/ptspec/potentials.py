"""The five decaying imaginary-odd potential families.

Every family evaluates to i * A * f(x) with f real and odd, so
V(-x) = -V(x) and Re V = 0: the parity/conjugation symmetry that makes the
Hamiltonian p^2 + V PT-symmetric, and that symmetry is what lets
``hamiltonian.assemble`` solve a real matrix.  All families vanish as
|x| -> infinity, at rates ranging from exponential (scarf2) down to 1/|x|
(coulomb_regulated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .chebdiff import Grid

FAMILIES = (
    "scarf2",
    "rational4",
    "rational3",
    "step",
    "coulomb_regulated",
)

# Half-width of the step family's support.
STEP_HALF_WIDTH = 2.5

# |x| beyond which sech(x) underflows in double; the potential is 0 there.
_SECH_CUTOFF = 710.0


@dataclass(frozen=True)
class PotentialSpec:
    """A potential family plus its real strength parameter."""

    family: str
    strength: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown potential family {self.family!r}")


def _odd_profile(family: str, x):
    """The real odd factor f(x) such that V = i * A * f(x)."""
    extended = isinstance(x, (mpmath.mpf, mpmath.mpc))
    if family == "scarf2":
        if extended:
            return mpmath.tanh(x) / mpmath.cosh(x)
        if abs(x) > _SECH_CUTOFF:
            return 0.0
        return math.tanh(x) / math.cosh(x)
    if family == "rational4":
        return x / (1 + x ** 4)
    if family == "rational3":
        return x / (1 + abs(x) ** 3)
    if family == "step":
        # sgn(0) = 0 and theta(0) = 1 pinned for determinism; default odd-N
        # grids never sample x = 0 or |x| = 2.5.
        sgn = (x > 0) - (x < 0)
        return sgn if abs(x) <= STEP_HALF_WIDTH else 0 * x
    if family == "coulomb_regulated":
        return x / (1 + x ** 2)
    raise ValueError(f"no closed form for family {family!r}")


def evaluate(spec: PotentialSpec, x):
    """Evaluate V(x) at a single point.

    Accepts float or mpmath.mpf arguments; the return type (complex or
    mpc) follows the argument so extended-precision assemblies stay in
    extended precision throughout.
    """
    extended = isinstance(x, (mpmath.mpf, mpmath.mpc))
    if not extended:
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"potential argument must be finite, got {x}")
    f = _odd_profile(spec.family, x)
    if extended:
        return mpmath.mpc(0, 1) * spec.strength * f
    return 1j * spec.strength * f


def evaluate_on_grid(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    """Pointwise potential samples at all N + 1 nodes, in node order."""
    if grid.nodes.dtype == object:
        out = np.empty(grid.n_nodes, dtype=object)
        out[:] = [evaluate(spec, x) for x in grid.nodes]
        return out
    return np.array([evaluate(spec, x) for x in grid.nodes], dtype=np.complex128)
