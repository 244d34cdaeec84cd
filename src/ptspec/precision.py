"""Scalar precision modes for the eigensolver pipeline.

Two working precisions are supported: native double (float64 matrices,
complex128 eigenvalues and vectors) and a software binary128-class mode
backed by mpmath (object arrays: ``mpf`` matrices, ``mpc`` eigenvalues and
vectors).  The extended mode exists because the slowly decaying
regulated-Coulomb runs at very large half-widths need imaginary parts
resolved far below the double-precision noise floor.  Its grid, matrix
and eigenvector back substitution are computed in mpmath under
``working_precision``; its real Schur decomposition runs on fixed-point
integers with guard bits beyond ``bits`` (``_fixed_schur``) and returns
``mpf`` rounded to ``bits``.

``ScalarPrecision`` is the one place that says what a mode means: its
``bits``, the ``machine_epsilon`` 2^(1 - bits) that sets the back
substitution's floor on divisors and the transition search's floor on
|Im E|, and the ``residual_tol`` that an eigenvector must meet.
``as_working`` puts a real array in a mode's matrix carrier, and
``to_complex128`` rounds ``mpc``/``mpf`` entries to the nearest double.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import mpmath
import numpy as np


@dataclass(frozen=True)
class ScalarPrecision:
    """Everything a working precision implies for the pipeline.

    ``bits`` is the significand length, from which ``machine_epsilon``
    follows; ``residual_tol`` is the multiple of ||A||_F that an
    eigenvector residual may reach.
    """

    mode: str  # "double64" or "extended128"
    bits: int
    residual_tol: float

    @property
    def machine_epsilon(self) -> float:
        return 2.0 ** (1 - self.bits)

    @property
    def is_extended(self) -> bool:
        return self.mode == "extended128"


DOUBLE = ScalarPrecision("double64", 53, 1e-10)
# 113 bits match IEEE binary128
EXTENDED = ScalarPrecision("extended128", 113, 1e-24)


def from_name(name: str) -> ScalarPrecision:
    """Map user-facing names ("double", "extended") to precision objects."""
    key = name.strip().lower()
    if key in ("double", "double64", "d"):
        return DOUBLE
    if key in ("extended", "extended128", "quad", "q"):
        return EXTENDED
    raise ValueError(f"unknown precision {name!r}")


def working_precision(precision: ScalarPrecision):
    """Context manager setting the mpmath working precision.

    A no-op for double mode, where arithmetic is native complex128.
    """
    if precision.is_extended:
        return mpmath.workprec(precision.bits)
    return contextlib.nullcontext()


# elementwise mpmath.mpf over an array, giving an object array
_to_mpf = np.frompyfunc(mpmath.mpf, 1, 1)


def as_working(a: np.ndarray, precision: ScalarPrecision) -> np.ndarray:
    """A real array in the matrix carrier of the given precision: float64,
    or an object array of ``mpf`` (object input is returned as is)."""
    a = np.asarray(a)
    if not precision.is_extended:
        return a.astype(np.float64)
    if a.dtype == object:
        return a
    with mpmath.workprec(precision.bits):
        return _to_mpf(a)


def to_complex128(a: np.ndarray) -> np.ndarray:
    """Round an object (mpmath) array to complex128.

    Complex128 input is returned as is, without a copy.
    """
    return np.asarray(a).astype(np.complex128, copy=False)
