"""Richardson extrapolation and the inverse-square level-spacing fit.

For the long-range (regulated Coulomb) potential the k-th bound-state
energy behaves like alpha/k^2 +- i beta/k^3 for large k, in analogy with
the hydrogen Balmer series.  Multiplying Re E_k by k^2 (resp. |Im E_k| by
k^3) gives sequences with finite limits, which Richardson extrapolation
accelerates.

The order-m extrapolant uses the alternating-binomial form

    R_k^(m) = (1/m!) * sum_{j=0..m} (-1)^(m-j) C(m, j) (k+j)^m a_{k+j},

which annihilates every 1/k correction up to order m.  Note the sign of
the j = 0 term at order 5 is negative; the alternating form is the one
that reproduces the reference extrapolant tables (see tests), so a
printed "+k^5 a_k" variant of the order-5 formula is treated as a typo.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

MAX_ORDER = 5


class InsufficientDataError(ValueError):
    """Too few terms for the requested extrapolation."""


def richardson(a: Sequence[float], order: int) -> np.ndarray:
    """Order-m Richardson extrapolants of the sequence a_1, a_2, ...

    Input index starts at k = 1; the output has len(a) - order entries,
    the k-th being the extrapolant built from a_k .. a_{k+order}.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-d sequence")
    if arr.size < order + 1:
        raise InsufficientDataError(
            f"order {order} needs at least {order + 1} terms, got {arr.size}"
        )
    m = order
    n_out = arr.size - m
    k = np.arange(1, n_out + 1, dtype=float)
    out = np.zeros(n_out)
    for j in range(m + 1):
        coeff = (-1.0) ** (m - j) * math.comb(m, j)
        out += coeff * (k + j) ** m * arr[j:j + n_out]
    return out / math.factorial(m)


@dataclass(frozen=True)
class RichardsonTable:
    """The extrapolant columns of a sequence, orders 1..max feasible."""

    columns: Dict[int, Tuple[float, ...]]


def build_table(a: Sequence[float]) -> RichardsonTable:
    arr = tuple(float(v) for v in a)
    if len(arr) < 2:
        raise InsufficientDataError("need at least 2 terms")
    columns = {}
    for m in range(1, min(MAX_ORDER, len(arr) - 1) + 1):
        columns[m] = tuple(richardson(arr, m))
    return RichardsonTable(columns=columns)


@dataclass(frozen=True)
class BalmerEstimate:
    """Estimated inverse-power coefficients with inter-order spreads.

    alpha multiplies 1/k^2 in Re E_k, beta multiplies 1/k^3 in |Im E_k|.
    Each per-order entry is the deepest (largest-k) extrapolant of that
    order; the quoted value is the deepest order's, and the spread is the
    gap to the previous order's estimate.  ``re_table`` and ``im_table``
    are the tables of the sequences k^2 Re E_k and k^3 |Im E_k|.
    """

    alpha: float
    beta: float
    alpha_by_order: Tuple[float, ...]
    beta_by_order: Tuple[float, ...]
    alpha_spread: float
    beta_spread: float
    re_table: RichardsonTable
    im_table: RichardsonTable


def estimate_balmer(bound_values: Sequence[complex]) -> BalmerEstimate:
    """Fit E_k ~ alpha/k^2 +- i beta/k^3 to an ordered bound-state sequence.

    ``bound_values`` must be ordered with k = 1 the deepest state (largest
    |Im E|); the imaginary parts are taken in magnitude, so either member
    of each conjugate pair may be supplied.
    """
    vals = [complex(z) for z in bound_values]
    if len(vals) < 3:
        raise InsufficientDataError(
            f"need at least 3 bound states, got {len(vals)}"
        )
    k = np.arange(1, len(vals) + 1, dtype=float)
    re_seq = k ** 2 * np.array([z.real for z in vals])
    im_seq = k ** 3 * np.array([abs(z.imag) for z in vals])
    re_table = build_table(re_seq)
    im_table = build_table(im_seq)

    def per_order(table):
        return tuple(table.columns[m][-1] for m in sorted(table.columns))

    a_orders = per_order(re_table)
    b_orders = per_order(im_table)
    a_spread = abs(a_orders[-1] - a_orders[-2]) if len(a_orders) > 1 else math.inf
    b_spread = abs(b_orders[-1] - b_orders[-2]) if len(b_orders) > 1 else math.inf
    return BalmerEstimate(
        alpha=a_orders[-1],
        beta=b_orders[-1],
        alpha_by_order=a_orders,
        beta_by_order=b_orders,
        alpha_spread=a_spread,
        beta_spread=b_spread,
        re_table=re_table,
        im_table=im_table,
    )


def load_bound_sequence(path) -> List[complex]:
    """Read a two-column (Re, Im) text file into a complex sequence.

    Blank lines and '#' comments are skipped; rows keep file order, which
    is expected to be the k-order described in estimate_balmer.  A row
    that is not two finite numbers raises ``ValueError``.
    """
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"expected two columns, got {line!r}")
            value = complex(float(parts[0]), float(parts[1]))
            if not cmath.isfinite(value):
                raise ValueError(f"non-finite value in row {line!r}")
            out.append(value)
    return out
