"""Spectra of 1-D PT-symmetric Schrodinger operators H = p^2 + V(x)
with decaying imaginary-odd potentials: Chebyshev collocation on a
truncated interval, dense nonsymmetric eigensolves in double or software
extended precision, bound/continuum classification from eigenfunction
boundary behavior, and Richardson extrapolation of the bound-state
sequence of the long-range family.
"""

from .chebdiff import Grid, build_grid
from .eigensolver import ConvergenceError, EigenSolution, eigenvalues
from .hamiltonian import OperatorMatrix, assemble
from .potentials import FAMILIES, PotentialSpec, odd_profile
from .precision import DOUBLE, EXTENDED, ScalarPrecision, from_name
from .spectrum import (
    BOUND,
    CONTINUUM_COMPLEX,
    CONTINUUM_REAL,
    UNRESOLVED,
    ClassificationPolicy,
    EigenRecord,
    SpectrumResult,
    classify,
)

# the module and the names of ``extrapolate``, which no spectrum run uses:
# imported on first use (``__getattr__``)
_LAZY = ("extrapolate", "BalmerEstimate", "InsufficientDataError",
         "RichardsonTable", "build_table", "estimate_balmer", "richardson")

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_LAZY))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.extrapolate")
    return module if name == "extrapolate" else getattr(module, name)
