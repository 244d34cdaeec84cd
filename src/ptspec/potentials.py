"""The five decaying imaginary-odd potential families.

Every family evaluates to i * A * f(x) with f real and odd, so
V(-x) = -V(x) and Re V = 0: the parity/conjugation symmetry that makes the
Hamiltonian p^2 + V PT-symmetric, and that symmetry is what lets
``hamiltonian.assemble`` solve a real matrix.  All families vanish as
|x| -> infinity, at rates ranging from exponential (scarf2) down to 1/|x|
(coulomb_regulated).  ``odd_profile`` evaluates f on an array of nodes;
mpmath, which an ``mpf`` array needs, is imported by the scarf2 branch
only when it gets one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def odd_profile(family: str, x: np.ndarray) -> np.ndarray:
    """The real odd factor f of V = i * A * f, elementwise over ``x``.

    ``x`` is a float64 array, evaluated with numpy ufuncs, or an object
    array of ``mpf``, evaluated at the current mpmath working precision;
    the result has the shape of ``x`` and, for an object array, ``mpf``
    entries.
    """
    if family == "scarf2":
        if x.dtype == object:
            import mpmath

            return np.frompyfunc(lambda t: mpmath.tanh(t) / mpmath.cosh(t), 1, 1)(x)
        # past the cutoff f is 0, and cosh would overflow
        inside = abs(x) <= _SECH_CUTOFF
        t = np.where(inside, x, 0.0)
        return np.where(inside, np.tanh(t) / np.cosh(t), 0.0)
    if family == "rational4":
        return x / (1 + x ** 4)
    if family == "rational3":
        return x / (1 + abs(x) ** 3)
    if family == "step":
        # sgn(0) = 0 keeps f odd at the centre node of an even N;
        # the support's edge |x| = 2.5 counts as inside, for determinism.
        # 0 * x carries the arithmetic of x: mpf entries on an mpf grid.
        return 0 * x + np.sign(x) * (abs(x) <= STEP_HALF_WIDTH)
    if family == "coulomb_regulated":
        return x / (1 + x ** 2)
    raise ValueError(f"no closed form for family {family!r}")
