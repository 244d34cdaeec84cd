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
mirror image, so it shares the label, the tail ratio and the residual.
In either precision all these vectors come as one batch from the Schur
factors of K, with their measured residuals, and the whole batch is
mapped back to the grid by ``OperatorMatrix.grid_vector``.  The tail
ratios and the strict bound test are array operations over all
candidates at once; only a candidate that fails the strict test with a
tail below the relaxed cut gets the per-vector exponential fit.  A vector
whose residual misses the solver's tolerance leaves its pair
``unresolved``, as does a grid too coarse to put a node in the boundary
bands, which leaves no tail to read; the residual is measured on K and
equals that on H, as the map is unitary.  K is real, so in either
precision every eigenvalue with Im != 0 has its partner by construction,
a conjugate pair is exactly conjugate and a PT-unbroken level exactly
real.
``classify`` also locates the complex-to-real transition of the continuum
once, from the solution's precision and ||A||_F, and stores both its
location and its drop on the result, so the result is complete.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .eigensolver import EigenSolution
from .hamiltonian import OperatorMatrix
from .precision import to_complex128
from .trace import span

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

    Every threshold is finite and not negative, ``bound_tail_threshold``
    above 0, the two band fractions inside (0, 1) and
    ``relaxed_min_correlation`` inside [0, 1]; any other value raises
    ValueError.
    """

    vector_threshold: float = 0.05
    tail_band_fraction: float = 0.05
    bound_tail_threshold: float = 1e-6
    relaxed_tail_coeff: float = 0.5
    relaxed_band_fraction: float = 0.20
    relaxed_min_correlation: float = 0.999
    monotone_slack: float = 1e-6
    jump_min_decades: float = 6.0

    def __post_init__(self):
        # a nan threshold fails every comparison, so it would label silently
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must not be negative, got {value!r}")
        for name in ("tail_band_fraction", "relaxed_band_fraction"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1), "
                                 f"got {getattr(self, name)!r}")
        if self.relaxed_min_correlation > 1:
            raise ValueError("relaxed_min_correlation must lie in [0, 1], "
                             f"got {self.relaxed_min_correlation!r}")
        if self.bound_tail_threshold == 0:
            raise ValueError("bound_tail_threshold must be above 0")


@dataclass(frozen=True)
class EigenRecord:
    """One eigenvalue, its label, and the evidence for the label.

    ``tail_ratio`` is the boundary-band amplitude of the normalized grid
    eigenfunction and ``residual`` is ||K v - lambda v|| / ||K||_F of the
    eigenvector v of K behind the label, v scaled to a largest entry of 1.
    A pair's members are the records of exactly conjugate values (the
    solver's ``EigenSolution.partners``), and the partner shares the label
    and both with the member whose vector was fetched.  Both are None
    where no vector was fetched, and
    ``tail_ratio`` also where the record is ``unresolved``: the vector
    missed the residual tolerance, or the boundary bands hold no node.
    """

    value: complex
    label: str = UNRESOLVED
    tail_ratio: Optional[float] = None
    residual: Optional[float] = None


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
        """One value per bound pair, its Im > 0 member, in record order."""
        return [r.value for r in self.records
                if r.label == BOUND and r.value.imag > 0]

    def continuum_values(self) -> List[complex]:
        return [
            r.value
            for r in self.records
            if r.label in (CONTINUUM_REAL, CONTINUUM_COMPLEX)
        ]


# a fetched vector's label by its code: 0 not bound, 1 bound, 2 unresolved
_LABELS = np.array((CONTINUUM_COMPLEX, BOUND, UNRESOLVED), dtype=object)


def _non_increasing(seq: np.ndarray, floor: float, slack: float) -> np.ndarray:
    """Per column: no entry above ``floor`` exceeds its predecessor by more
    than the relative ``slack``.

    Entries at or below the floor are exempt: at that level a vector is
    dominated by solver noise.  A 1-D ``seq`` is one column.
    """
    rise = (seq[1:] > seq[:-1] * (1.0 + slack)) & (seq[1:] > floor)
    return ~rise.any(axis=0)


def _strict_tails(absv: np.ndarray, x: np.ndarray, half_width: float,
                  policy: ClassificationPolicy) -> Tuple[np.ndarray, np.ndarray]:
    """(tail ratios, strict bound flags) of the columns of ``absv``.

    Each column is an |eigenvector| on the nodes ``x`` (descending), scaled
    to a largest entry of 1.  The tail ratio is its largest entry in the
    boundary bands |x| >= (1 - tail_band_fraction) L, at most 1.  The
    strict test asks for a tail ratio below ``bound_tail_threshold`` and
    for both envelopes, read from the interior towards each boundary, to be
    non-increasing.  Bands that hold no node (with the default fraction,
    N <= 9, as the outermost interior node is L cos(pi / N)) give every
    column a tail ratio of NaN, and fail the strict test.
    """
    edge = (1.0 - policy.tail_band_fraction) * half_width
    band = np.abs(x) >= edge
    if not band.any():
        return np.full(absv.shape[1], np.nan), np.zeros(absv.shape[1], dtype=bool)
    tails = np.minimum(absv[band].max(axis=0), 1.0)
    floor, slack = policy.bound_tail_threshold, policy.monotone_slack
    strict = ((tails < floor)
              & _non_increasing(absv[x >= edge][::-1], floor, slack)
              & _non_increasing(absv[x <= -edge], floor, slack))
    return tails, strict


def _relaxed_fit(absv: np.ndarray, x: np.ndarray, half_width: float,
                 policy: ClassificationPolicy) -> bool:
    """Relaxed bound test of one |eigenvector| that failed the strict one.

    For shallow, slowly decaying states: both envelopes must be
    non-increasing above the relaxed tail cut, and the envelope over a band
    well inside each boundary region (before the Dirichlet condition bends
    the profile down to 0) must fit a decaying exponential.  The caller
    checks the tail ratio against the cut.
    """
    L = half_width
    cut = policy.relaxed_tail_coeff / (L * L)
    edge = (1.0 - policy.tail_band_fraction) * L
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

    return bool(
        _non_increasing(absv[x >= edge][::-1], cut, policy.monotone_slack)
        and _non_increasing(absv[x <= -edge], cut, policy.monotone_slack)
        and side_ok((x >= redge) & (x < fedge), True)
        and side_ok((x <= -redge) & (x > -fedge), False))


def classify(
    solution: EigenSolution,
    op: OperatorMatrix,
    policy: Optional[ClassificationPolicy] = None,
) -> SpectrumResult:
    """Label every eigenvalue and locate the continuum transition.

    Each conjugate pair shares one label, tail ratio and residual.
    Eigenvectors that miss the residual tolerance, and every candidate of a
    grid whose boundary bands hold no node, are recorded as
    ``unresolved`` rather than silently promoted to bound states.  The
    grid comes from ``op`` and the precision from ``solution``.  Besides
    the ``eigensolver.vectors`` span of the vector fetch, it records the
    ``trace`` spans ``spectrum.tail_tests`` (counting the ``candidates``
    and the ``relaxed_fits``) and ``spectrum.transition``.
    """
    policy = policy or ClassificationPolicy()
    L = op.grid.half_width
    values = to_complex128(solution.eigenvalues)
    order = np.lexsort((values.imag, values.real))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    x = to_complex128(op.grid.interior_nodes).real

    ks, vectors, residuals = solution.eigenvectors(
        op.matrix, np.flatnonzero(values.imag > policy.vector_threshold))
    with span("spectrum.tail_tests") as count:
        absv = np.abs(op.grid_vector(to_complex128(vectors)))
        del vectors
        absv /= absv.max(axis=0)
        tails, bound = _strict_tails(absv, x, L, policy)
        # a label needs a vector within the tolerance and a tail to read
        resolved = (residuals <= solution.precision.residual_tol) & ~np.isnan(tails)
        cut = policy.relaxed_tail_coeff / (L * L)
        relaxed = np.flatnonzero(resolved & ~bound & (tails < cut))
        for c in relaxed:
            bound[c] = _relaxed_fit(absv[:, c], x, L, policy)
        count.update(candidates=len(ks), relaxed_fits=len(relaxed))
    # per-position columns: the rows of the fetched members, then those of
    # their partners, which share their label, tail ratio and residual
    label = np.full(len(order), CONTINUUM_REAL, dtype=object)
    tail_ratio, residual = (np.full(len(order), None, dtype=object) for _ in range(2))
    rows = np.concatenate((position[ks], position[solution.partners[ks]]))
    label[rows] = np.tile(_LABELS[np.where(resolved, bound, 2)], 2)
    tail_ratio[rows] = np.tile(np.where(resolved, tails, None), 2)
    residual[rows] = np.tile(residuals, 2)
    records = tuple(map(EigenRecord, values[order].tolist(), label.tolist(),
                        tail_ratio.tolist(), residual.tolist()))
    eps = solution.precision.machine_epsilon
    floor = eps * eps * max(solution.matrix_fro_norm, 1.0)
    with span("spectrum.transition"):
        point, drop = (_transition(records, floor, policy.jump_min_decades)
                       or (None, None))
    return SpectrumResult(
        records=records,
        bound_pairs=int(np.count_nonzero(resolved & bound)),
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
