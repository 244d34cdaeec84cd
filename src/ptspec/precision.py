"""Scalar precision modes for the eigensolver pipeline.

Two working precisions are supported: native double (float64 and
complex128 arrays) and a software binary128-class mode backed by mpmath
(arrays of ``mpf``/``mpc`` objects with dtype=object).  The extended mode
exists because the slowly decaying regulated-Coulomb runs at very large
half-widths need imaginary parts resolved far below the double-precision
noise floor.  Its grid, matrix and eigenvector back substitution are
computed in mpmath under ``working_precision``; its Schur decomposition
runs on fixed-point integers with guard bits beyond ``bits`` and returns
``mpc`` rounded to ``bits`` (``_fixed_schur``).  ``machine_epsilon`` sets
the back substitution's floor on divisors in either mode.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import mpmath
import numpy as np

# Significand bits per mode; 113 matches IEEE binary128.
_BITS = {"double64": 53, "extended128": 113}


@dataclass(frozen=True)
class ScalarPrecision:
    mode: str  # "double64" or "extended128"
    machine_epsilon: float

    def __post_init__(self):
        if self.mode not in _BITS:
            raise ValueError(f"unknown precision mode {self.mode!r}")

    @property
    def bits(self) -> int:
        return _BITS[self.mode]

    @property
    def is_extended(self) -> bool:
        return self.mode == "extended128"


DOUBLE = ScalarPrecision("double64", 2.0 ** -52)
EXTENDED = ScalarPrecision("extended128", 2.0 ** -112)


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


def as_working(a: np.ndarray, precision: ScalarPrecision) -> np.ndarray:
    """Convert an array to the carrier type of the given precision."""
    a = np.asarray(a)
    if not precision.is_extended:
        if a.dtype == object:
            return to_complex128(a)
        return a.astype(np.complex128)
    if a.dtype == object:
        return a
    with mpmath.workprec(precision.bits):
        flat = [mpmath.mpc(complex(z)) for z in a.ravel()]
    out = np.empty(a.size, dtype=object)
    out[:] = flat
    return out.reshape(a.shape)


def to_complex128(a: np.ndarray) -> np.ndarray:
    """Collapse an object (mpmath) array down to complex128.

    Complex128 input is returned as is, without a copy.
    """
    a = np.asarray(a)
    if a.dtype != object:
        return np.asarray(a, dtype=np.complex128)
    out = np.empty(a.shape, dtype=np.complex128)
    flat = out.ravel()
    for i, z in enumerate(np.asarray(a).ravel()):
        flat[i] = complex(z)
    return flat.reshape(a.shape)
