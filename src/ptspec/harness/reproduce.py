"""Benchmark-reproduction suite: every published number this package pins.

Each check function computes a measured quantity (running the pipeline at
desk-scale grid sizes where needed) and compares against the reference
values in :mod:`ptspec.refdata`, returning a CheckResult with both sides
of the comparison.  A shared SpectrumCache memoizes ``runner.run_single``
(the pipeline the CLI runs), so spectra used by several checks are
computed once.

Selectors group the checks:
    box    -- the analytic free-particle oracle only (seconds);
    tables -- pure-arithmetic checks on the published extrapolant tables;
    desk   -- everything runnable at desk scale (minutes to tens of minutes);
    all    -- alias for desk.
The full published configuration of the long-range potential (L = 1000,
N = 2^14 - 1, extended precision) is deliberately not part of any default
selector; ``full_scale_config`` builds it for explicit opt-in runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import mpmath
import numpy as np

from .. import refdata
from ..eigensolver import eigenvalues
from ..extrapolate import build_table, estimate_balmer
from ..precision import EXTENDED, as_working, working_precision
from ..spectrum import SpectrumResult
from .config import ExperimentConfig
from .runner import run_single

SELECTORS = ("box", "tables", "desk", "all")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    expected: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured}; expected {self.expected}"


class SpectrumCache:
    """Memoizes classified spectra keyed by (family, A, L, N, precision)."""

    def __init__(self):
        self._store: Dict[tuple, SpectrumResult] = {}

    def get(self, family: str, strength: float, half_width: float,
            n_intervals: int, precision_mode: str = "double64"
            ) -> SpectrumResult:
        key = (family, float(strength), float(half_width),
               int(n_intervals), precision_mode)
        if key not in self._store:
            config = ExperimentConfig(family, strength, (half_width,),
                                      n_intervals, precision_mode)
            self._store[key], _ = run_single(config, half_width)
        return self._store[key]


def _nearest(values: Sequence[complex], target: complex) -> Tuple[complex, float]:
    best = min(values, key=lambda z: abs(z - target))
    return best, abs(best - target)


def check_box_oracle(cache: SpectrumCache) -> CheckResult:
    """Free particle in a box: E_n = (n pi / 2L)^2, here L = 10, N = 511."""
    records = cache.get("scarf2", 0.0, 10.0, 511).records  # ascending Re
    worst = 0.0
    for n in range(1, 11):
        exact = (n * math.pi / 20.0) ** 2
        worst = max(worst, abs(records[n - 1].value.real - exact) / exact)
    return CheckResult(
        name="box_oracle",
        passed=worst < 1e-6,
        measured=f"max rel err {worst:.2e} over n=1..10",
        expected="rel err < 1e-6 vs (n*pi/20)^2",
    )


def check_scarf2_bound_l10(cache: SpectrumCache) -> CheckResult:
    result = cache.get("scarf2", 30.0, 10.0, 1023)
    bound = [z for z in result.bound_values() if z.imag > 0]
    errs = []
    for ref in refdata.SCARF2_BOUND_L10:
        if bound:
            _, err = _nearest(bound, ref)
        else:
            err = math.inf
        errs.append(err)
    worst = max(errs)
    return CheckResult(
        name="scarf2_bound_l10",
        passed=worst < 1e-5 and len(bound) == 2,
        measured=f"{len(bound)} pairs, abs errs {[f'{e:.2e}' for e in errs]}",
        expected="2 pairs matching references within 1e-5",
    )


def check_scarf2_third_pair(cache: SpectrumCache) -> CheckResult:
    result = cache.get("scarf2", 30.0, 100.0, 2047)
    bound = [z for z in result.bound_values() if z.imag > 0]
    if bound:
        _, err = _nearest(bound, refdata.SCARF2_BOUND_THIRD_L100)
    else:
        err = math.inf
    return CheckResult(
        name="scarf2_third_pair_l100",
        passed=err < 1e-4 and result.bound_pairs == 3,
        measured=f"bound_pairs {result.bound_pairs}, third-pair err {err:.2e}",
        expected="3 pairs, third matching reference within 1e-4",
    )


# transition checks: (family, strength, N at L=100, tolerance); the
# expected locations are refdata.TRANSITION_POINTS
_TRANSITION_CASES = (
    ("scarf2", 30.0, 2047, 1.5),
    ("rational4", 30.0, 2047, 1.5),
    ("rational3", 30.0, 2047, 1.5),
    ("step", 3.0, 2047, 1.0),
)


def check_transitions(cache: SpectrumCache) -> CheckResult:
    rows = []
    ok = True
    for family, strength, n, tol in _TRANSITION_CASES:
        expected = refdata.TRANSITION_POINTS[family]
        result = cache.get(family, strength, 100.0, n)
        location, drop = result.transition_point, result.transition_drop
        if location is None:
            ok = False
            rows.append(f"{family}: none")
            continue
        good = abs(location - expected) <= tol and drop >= 8.0
        ok = ok and good
        rows.append(f"{family}: {location:.2f} ({drop:.1f} decades)")
    return CheckResult(
        name="transition_points",
        passed=ok,
        measured="; ".join(rows),
        expected="; ".join(
            f"{fam}: {refdata.TRANSITION_POINTS[fam]} +- {tol}, drop >= 8 decades"
            for fam, _, _, tol in _TRANSITION_CASES
        ),
    )


# pair-uncovering checks: (family, strength, (N at L=10, N at L=100))
_UNCOVERING_CASES = (
    ("rational4", 30.0, (1023, 2047)),
    ("step", 3.0, (1023, 2047)),
    ("coulomb_regulated", 10.0, (1023, 4095)),
)


def check_pair_uncovering(cache: SpectrumCache) -> CheckResult:
    rows = []
    ok = True
    for family, strength, (n10, n100) in _UNCOVERING_CASES:
        expected = refdata.BOUND_PAIR_COUNTS[(family, strength)]
        got = (
            cache.get(family, strength, 10.0, n10).bound_pairs,
            cache.get(family, strength, 100.0, n100).bound_pairs,
        )
        ok = ok and got == expected
        rows.append(f"{family}: {got[0]}->{got[1]}")
    return CheckResult(
        name="bound_pair_uncovering",
        passed=ok,
        measured="; ".join(rows),
        expected="; ".join(
            f"{fam}: {refdata.BOUND_PAIR_COUNTS[(fam, a)][0]}"
            f"->{refdata.BOUND_PAIR_COUNTS[(fam, a)][1]}"
            for fam, a, _ in _UNCOVERING_CASES
        ),
    )


def check_continuum_collapse(cache: SpectrumCache) -> CheckResult:
    """Max continuum |Im| shrinks as the interval grows (fixed N).

    N = 2047 keeps both half-widths fully resolved; coarser grids leave
    marginally resolved high-frequency modes at L = 100 whose spurious
    imaginary parts would mask the collapse.
    """
    maxima = []
    for half_width in (10.0, 100.0):
        result = cache.get("scarf2", 30.0, half_width, 2047)
        maxima.append(max(abs(z.imag) for z in result.continuum_values()))
    return CheckResult(
        name="continuum_collapse",
        passed=maxima[1] < maxima[0],
        measured=f"max |Im| {maxima[0]:.3f} (L=10) -> {maxima[1]:.3f} (L=100)",
        expected="strict decrease with L",
    )


def _table_agreement(input_seq, reference_columns) -> float:
    """Worst relative disagreement between computed and reference extrapolants."""
    table = build_table(input_seq)
    worst = 0.0
    for order, ref_col in reference_columns.items():
        col = table.columns[order]
        for got, ref in zip(col, ref_col):
            worst = max(worst, abs(got - ref) / abs(ref))
    return worst


def check_richardson_tables(cache: SpectrumCache) -> CheckResult:
    """Reproduce the published extrapolant tables to 4 significant figures.

    The scaled input sequences k^2 Re E_k and k^3 |Im E_k| are rebuilt at
    full precision from the published 8-decimal eigenvalues; the printed
    6-significant-figure roundings of the inputs are too coarse to pin the
    order-5 column to 4 figures (the alternating binomial weights amplify
    input rounding by ~2^5 k^5).
    """
    k = np.arange(1, 10, dtype=float)
    re_inputs = k ** 2 * np.array(refdata.REG_COULOMB_RE)
    im_inputs = k ** 3 * np.array(refdata.REG_COULOMB_IM)
    worst = max(
        _table_agreement(re_inputs, refdata.REG_COULOMB_RE_EXTRAPOLANTS),
        _table_agreement(im_inputs, refdata.REG_COULOMB_IM_EXTRAPOLANTS),
    )
    return CheckResult(
        name="richardson_tables",
        passed=worst < 5e-4,
        measured=f"worst rel disagreement {worst:.2e}",
        expected="every printed extrapolant matched to 4 significant figures",
    )


def check_balmer_reference(cache: SpectrumCache) -> CheckResult:
    estimate = estimate_balmer(refdata.REG_COULOMB_BOUND)
    ok = 24.0 <= estimate.alpha <= 26.0 and 60.0 <= estimate.beta <= 63.0
    return CheckResult(
        name="balmer_reference",
        passed=ok,
        measured=f"alpha {estimate.alpha:.4f}, beta {estimate.beta:.4f}",
        expected="alpha in [24, 26], beta in [60, 63]",
    )


def check_balmer_synthetic(cache: SpectrumCache) -> CheckResult:
    exact = [complex(25.0 / k ** 2, 61.0 / k ** 3) for k in range(1, 10)]
    estimate = estimate_balmer(exact)
    err = max(abs(estimate.alpha - 25.0), abs(estimate.beta - 61.0))
    return CheckResult(
        name="balmer_synthetic",
        passed=err < 1e-10,
        measured=f"max coefficient err {err:.2e}",
        expected="alpha=25, beta=61 recovered to 1e-10",
    )


def check_extended_residuals(cache: SpectrumCache) -> CheckResult:
    """Software extended precision beats double-precision roundoff limits.

    The residuals are those of the Schur vectors of the first real
    eigenvalue and of both members of the first conjugate pair of one
    random 50 x 50 real matrix, recomputed here in extended arithmetic.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    a = rng.standard_normal((50, 50))
    fro = float(np.linalg.norm(a))
    with working_precision(EXTENDED):
        mat = as_working(a, EXTENDED)
        solution = eigenvalues(mat, precision=EXTENDED)
        paired = solution.partners >= 0
        indices = [*np.flatnonzero(~paired)[:1], *np.flatnonzero(paired)[:2]]
        ks, vectors, _ = solution.eigenvectors(mat, indices)
        for k, v in zip(ks, vectors.T):
            r = mat @ v - solution.eigenvalues[k] * v
            worst = max(worst, float(mpmath.sqrt(sum(abs(x) ** 2 for x in r))) / fro)
    return CheckResult(
        name="extended_precision_residuals",
        passed=worst < 1e-24 and len(indices) == 3,
        measured=f"worst residual {worst:.2e} * ||A||_F at positions {ks.tolist()}",
        expected="residuals < 1e-24 * ||A||_F for a real eigenvalue and a pair",
    )


def check_eigensolver_properties(cache: SpectrumCache) -> CheckResult:
    """Trace, transpose, residual and determinism on 20 random real 100 x 100 matrices."""
    size = 100
    rng = np.random.default_rng(11)
    worst_trace = worst_transpose = worst_residual = 0.0
    deterministic = True
    for _ in range(20):
        a = rng.standard_normal((size, size))
        fro = np.linalg.norm(a)
        first = eigenvalues(a)
        again = eigenvalues(a)
        deterministic = deterministic and np.array_equal(
            np.asarray(first.eigenvalues), np.asarray(again.eigenvalues)
        )
        trace_gap = abs(np.sum(first.eigenvalues) - np.trace(a))
        worst_trace = max(worst_trace, trace_gap / (fro * size))
        ev_t = np.sort_complex(np.asarray(eigenvalues(a.T).eigenvalues))
        ev = np.sort_complex(np.asarray(first.eigenvalues))
        worst_transpose = max(worst_transpose, np.max(np.abs(ev - ev_t)) / fro)
        # vectors from the Schur factors: both ends and the middle of T
        ks, vectors, _ = first.eigenvectors(a, (0, size // 2, size - 1))
        for k, v in zip(ks, vectors.T):
            residual = np.linalg.norm(a @ v - first.eigenvalues[k] * v)
            worst_residual = max(worst_residual, residual / fro)
    ok = (worst_trace < 1e-10 and worst_transpose < 1e-10
          and worst_residual < 1e-10 and deterministic)
    return CheckResult(
        name="eigensolver_properties",
        passed=ok,
        measured=(f"trace {worst_trace:.1e}, transpose {worst_transpose:.1e}, "
                  f"residual {worst_residual:.1e}, deterministic {deterministic}"),
        expected="all < 1e-10 (scaled), bitwise deterministic",
    )


_CHECKS: Dict[str, Tuple[Callable[[SpectrumCache], CheckResult], ...]] = {
    "box": (check_box_oracle,),
    "tables": (
        check_richardson_tables,
        check_balmer_reference,
        check_balmer_synthetic,
    ),
}
_CHECKS["desk"] = (
    check_box_oracle,
    check_scarf2_bound_l10,
    check_scarf2_third_pair,
    check_transitions,
    check_pair_uncovering,
    check_continuum_collapse,
    check_richardson_tables,
    check_balmer_reference,
    check_balmer_synthetic,
    check_extended_residuals,
    check_eigensolver_properties,
)
_CHECKS["all"] = _CHECKS["desk"]


def full_scale_config() -> ExperimentConfig:
    """The full published configuration of the long-range potential.

    L up to 1000 at N = 2^14 - 1 in extended precision, so opt-in only:
    the matrix alone holds 2.7e8 mpmath entries at ~254 B each, ~68 GB,
    and cubic extrapolation from the real extended Schur kernel's 36 s
    at n = 160 gives at least 1.2 years of compute, as its sweep count
    grows faster than n.
    """
    return ExperimentConfig(
        family="coulomb_regulated",
        strength=10.0,
        half_widths=(10.0, 100.0, 1000.0),
        n_intervals=2 ** 14 - 1,
        precision_mode="extended128",
    )


def reproduce(selector: str = "desk",
              cache: Optional[SpectrumCache] = None) -> List[CheckResult]:
    if selector not in _CHECKS:
        raise ValueError(f"selector must be one of {sorted(_CHECKS)}, got {selector!r}")
    cache = cache or SpectrumCache()
    return [check(cache) for check in _CHECKS[selector]]
