"""Bound-state vs continuum classification of computed eigenvalues.

A truncated-interval discretization can only produce discrete eigenvalues,
so membership in the continuous spectrum is decided from the eigenfunction:
genuine bound states decay smoothly (exponentially) well before the
boundary, while continuum eigenfunctions stay O(1) and drop abruptly at
one or both endpoints.  Eigenvalues whose imaginary part is too small to
matter are taken as numerically real continuum without a vector; the
others -- the bound-state candidates -- are classified one conjugate pair
at a time, with the pairs the eigensolver read off its Schur form.  Only
the member with positive imaginary part gets an eigenvector: its partner
of the real matrix K has the conjugate vector, whose grid profile is the
mirror image, so it shares the label and the tail ratio.  In either
precision all these vectors come in one batched back substitution on the
Schur factors of K, and each is mapped back to the grid by
``OperatorMatrix.grid_vector``.  A vector whose residual misses the
solver's tolerance leaves its pair ``unresolved``, as does a candidate
without a partner (possible only in extended precision, where pairs are
matched within the residual bound); the residual is measured on K and
equals that on H, as the map is unitary.  In double precision a
conjugate pair is exactly conjugate and a PT-unbroken level exactly real.
``classify`` also locates the complex-to-real transition of the continuum
once, from the solution's precision and ||A||_F, and stores both its
location and its drop on the result, so the result is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .chebdiff import Grid
from .eigensolver import EigenSolution
from .hamiltonian import OperatorMatrix
from .precision import to_complex128

BOUND = "bound"
CONTINUUM_COMPLEX = "continuum_complex"
CONTINUUM_REAL = "continuum_real"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class ClassificationPolicy:
    """Thresholds steering the eigenfunction-based classification.

    ``vector_threshold`` is an absolute |Im| cut: below it an eigenvalue is
    taken as (numerically real) continuum without fetching its eigenvector.
    The strict bound test requires the boundary-band amplitude to be tiny
    and the envelope non-increasing; the relaxed test admits shallow,
    slowly decaying states whose outer envelope still fits an exponential.

    The relaxed test's tail cut is ``relaxed_tail_coeff / L**2``: a bound
    state's boundary amplitude shrinks exponentially as the interval
    grows, while pre-transition continuum levels keep boundary amplitudes
    of order 1e-4 at any L, so a fixed cut lax enough to catch marginally
    converged bound states on small intervals would sweep in whole bands
    of continuum on large ones.
    """

    vector_threshold: float = 0.05
    tail_band_fraction: float = 0.05
    bound_tail_threshold: float = 1e-6
    relaxed_tail_coeff: float = 0.5
    relaxed_band_fraction: float = 0.20
    relaxed_min_correlation: float = 0.999
    monotone_slack: float = 1e-6
    jump_min_decades: float = 6.0


@dataclass(frozen=True)
class EigenRecord:
    value: complex
    label: str = UNRESOLVED
    tail_ratio: Optional[float] = None
    pair_index: Optional[int] = None


@dataclass(frozen=True)
class SpectrumResult:
    """Labelled records in ascending (Re, Im) order, and the transition.

    ``transition_point`` is the location of the continuum's complex-to-real
    transition and ``transition_drop`` its drop in decades of |Im E|; both
    are None when no drop qualifies.
    """

    records: Tuple[EigenRecord, ...]
    bound_pairs: int
    transition_point: Optional[float]
    transition_drop: Optional[float]
    policy: ClassificationPolicy

    def bound_values(self) -> List[complex]:
        return [r.value for r in self.records if r.label == BOUND]

    def continuum_values(self) -> List[complex]:
        return [
            r.value
            for r in self.records
            if r.label in (CONTINUUM_REAL, CONTINUUM_COMPLEX)
        ]


def _sort_key(z: complex):
    return (z.real, z.imag)


def _tail_classification(absv: np.ndarray, x: np.ndarray, grid: Grid,
                         policy: ClassificationPolicy):
    """Return (tail_ratio, is_bound) for one normalized |eigenvector|."""
    L = grid.half_width
    edge = (1.0 - policy.tail_band_fraction) * L
    band = np.abs(x) >= edge
    tail_ratio = float(absv[band].max()) if band.any() else 0.0
    tail_ratio = min(tail_ratio, 1.0)

    # interior-to-boundary envelope sequences on both sides (x is descending);
    # entries already below the tail threshold are exempt from the monotone
    # requirement (at that level the vector is dominated by solver noise)
    right = absv[x >= edge][::-1]
    left = absv[x <= -edge]

    def non_increasing(seq, floor):
        if seq.size < 2:
            return True
        for a, b in zip(seq[:-1], seq[1:]):
            if b > a * (1.0 + policy.monotone_slack) and b > floor:
                return False
        return True

    if (
        tail_ratio < policy.bound_tail_threshold
        and non_increasing(right, policy.bound_tail_threshold)
        and non_increasing(left, policy.bound_tail_threshold)
    ):
        return tail_ratio, True

    # relaxed test for shallow, slowly decaying states: the envelope over
    # a band well inside the boundary region (before the Dirichlet
    # condition bends the profile down to 0) must fit an exponential
    relaxed_threshold = policy.relaxed_tail_coeff / (L * L)
    redge = (1.0 - policy.relaxed_band_fraction) * L
    fedge = (1.0 - 2.0 * policy.tail_band_fraction) * L

    def side_ok(mask, toward_positive):
        xs = x[mask]
        vs = absv[mask]
        # a side already below the strict threshold is bound-like as is;
        # fitting its noise-level wiggles would reject it spuriously
        if vs.size == 0 or vs.max() < policy.bound_tail_threshold:
            return True
        keep = vs > 0
        xs, vs = xs[keep], vs[keep]
        if xs.size < 4:
            return False
        logs = np.log(vs)
        r = np.corrcoef(xs, logs)[0, 1]
        slope = np.polyfit(xs, logs, 1)[0]
        decaying = slope < 0 if toward_positive else slope > 0
        return decaying and abs(r) > policy.relaxed_min_correlation

    if tail_ratio < relaxed_threshold:
        fit_right = (x >= redge) & (x < fedge)
        fit_left = (x <= -redge) & (x > -fedge)
        if (
            non_increasing(right, relaxed_threshold)
            and non_increasing(left, relaxed_threshold)
            and side_ok(fit_right, True)
            and side_ok(fit_left, False)
        ):
            return tail_ratio, True
    return tail_ratio, False


def classify(
    solution: EigenSolution,
    op: OperatorMatrix,
    policy: Optional[ClassificationPolicy] = None,
) -> SpectrumResult:
    """Label every eigenvalue and locate the continuum transition.

    Each conjugate pair shares one label.  Eigenvectors that miss the
    residual tolerance are recorded as ``unresolved`` rather than silently
    promoted to bound states.  The grid comes from ``op`` and the
    precision from ``solution``.
    """
    policy = policy or ClassificationPolicy()
    grid = op.grid
    raw = [complex(z) for z in solution.eigenvalues]
    partners = solution.partners.tolist()
    order = sorted(range(len(raw)), key=lambda i: _sort_key(raw[i]))
    position = {i: k for k, i in enumerate(order)}
    x = to_complex128(grid.interior_nodes).real

    upper = [i for i in order
             if raw[i].imag > policy.vector_threshold and partners[i] >= 0]
    labels = {}
    for i, vector in solution.eigenvectors(op.matrix, upper):
        if vector is None:
            label = (UNRESOLVED, None)
        else:
            absv = np.abs(op.grid_vector(to_complex128(vector)))
            absv /= absv.max()
            tail_ratio, is_bound = _tail_classification(absv, x, grid, policy)
            label = (BOUND if is_bound else CONTINUUM_COMPLEX, tail_ratio)
        labels[i] = labels[partners[i]] = label
    records: List[EigenRecord] = []
    for i in order:
        if abs(raw[i].imag) <= policy.vector_threshold:
            label, tail_ratio = CONTINUUM_REAL, None
        else:
            label, tail_ratio = labels.get(i, (UNRESOLVED, None))
        pair = (position[partners[i]]
                if label in (BOUND, CONTINUUM_COMPLEX) else None)
        records.append(EigenRecord(value=raw[i], label=label,
                                   tail_ratio=tail_ratio, pair_index=pair))
    eps = solution.precision.machine_epsilon
    floor = eps * eps * max(solution.matrix_fro_norm, 1.0)
    point, drop = (_transition(records, floor, policy.jump_min_decades)
                   or (None, None))
    return SpectrumResult(
        records=tuple(records),
        bound_pairs=sum(r.label == BOUND and r.value.imag > 0 for r in records),
        transition_point=point,
        transition_drop=drop,
        policy=policy,
    )


def _transition(records: List[EigenRecord], floor: float,
                min_decades: float) -> Optional[Tuple[float, float]]:
    """(location, drop in decades) of the continuum transition, or None.

    Scans the continuum records, which come in ascending (Re, Im) order,
    and returns the midpoint of the first adjacent pair whose drop of
    log10(|Im| + floor) spans at least ``min_decades`` decades.
    ``classify`` sets the floor to eps^2 * max(||A||_F, 1) for the machine
    epsilon of the run's precision.  Taking the first qualifying drop
    (rather than the globally largest) keeps the detector robust against
    marginally resolved high-frequency modes that re-enter the complex
    plane above the physical transition at desk-scale grid resolutions.
    """
    cont = [r.value for r in records
            if r.label in (CONTINUUM_REAL, CONTINUUM_COMPLEX)]
    if len(cont) < 10:
        return None
    logs = [math.log10(abs(z.imag) + floor) for z in cont]
    for a, b, la, lb in zip(cont[:-1], cont[1:], logs[:-1], logs[1:]):
        drop = la - lb
        if drop >= min_decades:
            return 0.5 * (a.real + b.real), drop
    return None
