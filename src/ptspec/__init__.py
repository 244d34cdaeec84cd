"""Spectra of 1-D PT-symmetric Schrodinger operators H = p^2 + V(x)
with decaying imaginary-odd potentials: Chebyshev collocation on a
truncated interval, dense nonsymmetric eigensolves in double or software
extended precision, bound/continuum classification from eigenfunction
boundary behavior, and Richardson extrapolation of the bound-state
sequence of the long-range family.
"""

from .chebdiff import Grid, build_grid
from .eigensolver import ConvergenceError, EigenSolution, eigenvalues
from .extrapolate import (
    BalmerEstimate,
    InsufficientDataError,
    RichardsonTable,
    bound_sequence,
    build_table,
    estimate_balmer,
    richardson,
)
from .hamiltonian import OperatorMatrix, assemble
from .potentials import FAMILIES, PotentialSpec, evaluate, evaluate_on_grid
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
    transition_info,
)

__all__ = [name for name in dir() if not name.startswith("_")]
