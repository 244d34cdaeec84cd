"""Scalar precision modes for the eigensolver pipeline.

Two working precisions are supported: native double (float64 and
complex128 arrays) and a software binary128-class mode backed by mpmath
(arrays of ``mpf``/``mpc`` objects with dtype=object).  The extended mode
exists because the slowly decaying regulated-Coulomb runs at very large
half-widths need imaginary parts resolved far below the double-precision
noise floor.  Its grid, matrix and eigenvector back substitution are
computed in mpmath under ``working_precision``; its Schur decomposition
runs on fixed-point integers with guard bits beyond ``bits`` and returns
``mpc`` rounded to ``bits`` (``_fixed_schur``).

``ScalarPrecision`` is the one place that says what a mode means: its
``bits``, the ``machine_epsilon`` 2^(1 - bits) that sets the back
substitution's floor on divisors and the transition search's floor on
|Im E|, and the ``residual_tol`` that an eigenvector must meet.  Carrier
conversions are numpy casts: ``to_complex128`` rounds ``mpc``/``mpf``
entries to the nearest double.
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


# elementwise mpmath.mpc over an array, giving an object array
_to_mpc = np.frompyfunc(mpmath.mpc, 1, 1)


def as_working(a: np.ndarray, precision: ScalarPrecision) -> np.ndarray:
    """Convert an array to the carrier type of the given precision."""
    a = np.asarray(a)
    if not precision.is_extended:
        return a.astype(np.complex128)
    if a.dtype == object:
        return a
    with mpmath.workprec(precision.bits):
        return _to_mpc(a)


def to_complex128(a: np.ndarray) -> np.ndarray:
    """Round an object (mpmath) array to complex128.

    Complex128 input is returned as is, without a copy.
    """
    return np.asarray(a).astype(np.complex128, copy=False)
