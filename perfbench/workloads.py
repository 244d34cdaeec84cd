"""The benchmark's workloads: CLI calls a user would make, and their checks.

Each workload is a fixed list of ``ptspec`` CLI calls (``classify`` or
``sweep``, always with ``--out``).  A check reads only the persisted
``summary.json`` / ``eigenvalues.csv`` of its call and returns a list of
problems; an empty list is a pass.  README.md in this directory says why
each workload exists.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class Call:
    """One CLI invocation; ``check(out_dir, expected)`` returns problems."""

    name: str
    args: Tuple[str, ...]
    n_intervals: int
    check: Callable[[Path, dict], List[str]]
    expected: dict = field(default_factory=dict)
    # a deliberately wrong expectation the check must reject
    wrong: dict = field(default_factory=dict)

    def argv(self, out_dir: Path, warmup: bool = False) -> List[str]:
        """CLI arguments; a warm-up call uses an eighth of the grid (odd, >= 5)."""
        n = max(5, self.n_intervals // 8 | 1) if warmup else self.n_intervals
        return [*self.args, "--N", str(n), "--out", str(out_dir)]


def read_summary(out_dir: Path) -> dict:
    paths = sorted(out_dir.rglob("summary.json"))
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one summary.json under {out_dir}, "
                                f"found {len(paths)}")
    with open(paths[0]) as fh:
        return json.load(fh)


def read_eigenvalues(out_dir: Path, half_width: float) -> List[complex]:
    paths = sorted(out_dir.rglob(f"L{half_width:g}/eigenvalues.csv"))
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one L{half_width:g}/eigenvalues.csv "
                                f"under {out_dir}, found {len(paths)}")
    with open(paths[0], newline="") as fh:
        return [complex(float(row["re"]), float(row["im"]))
                for row in csv.DictReader(fh)]


def _run(summary: dict, half_width: float) -> dict:
    return summary["runs"][f"L{half_width:g}"]


def _failures(summary: dict) -> List[str]:
    return [f"per-L failure {k}: {v}" for k, v in summary.get("failures", {}).items()]


def check_no_failures(out_dir: Path, expected: dict) -> List[str]:
    """The call completed every half-width."""
    return _failures(read_summary(out_dir))


def check_bound_pairs(out_dir: Path, expected: dict) -> List[str]:
    """Bound-pair count per half-width, as in refdata.BOUND_PAIR_COUNTS."""
    summary = read_summary(out_dir)
    problems = _failures(summary)
    for half_width, pairs in expected["bound_pairs"].items():
        got = _run(summary, half_width)["bound_pairs"]
        if got != pairs:
            problems.append(f"L={half_width:g}: {got} bound pairs, expected {pairs}")
    return problems


def check_box_levels(out_dir: Path, expected: dict) -> List[str]:
    """Lowest levels of the free box [-L, L]: (k pi / 2L)^2 (criterion 01)."""
    summary = read_summary(out_dir)
    problems = _failures(summary)
    half_width, count, tol = expected["half_width"], expected["levels"], expected["rel_tol"]
    values = sorted(read_eigenvalues(out_dir, half_width), key=lambda z: z.real)
    scale = expected.get("scale", 1.0)
    for k, z in enumerate(values[:count], start=1):
        exact = scale * (k * math.pi / (2.0 * half_width)) ** 2
        if abs(z - exact) > tol * exact:
            problems.append(f"level {k}: {z} vs {exact} (rel tol {tol:g})")
    if len(values) < count:
        problems.append(f"only {len(values)} eigenvalues, expected >= {count}")
    return problems


def check_step(out_dir: Path, expected: dict) -> List[str]:
    """Bound pairs and transition window at L = 100 (criteria 04 and 05)."""
    summary = read_summary(out_dir)
    problems = _failures(summary)
    run = _run(summary, expected["half_width"])
    if run["bound_pairs"] != expected["bound_pairs"]:
        problems.append(f"{run['bound_pairs']} bound pairs, "
                        f"expected {expected['bound_pairs']}")
    centre, width = expected["transition"]
    t = run["transition_point"]
    if t is None or abs(t - centre) > width:
        problems.append(f"transition {t}, expected {centre} +- {width}")
    return problems


def check_matches_reference(out_dir: Path, expected: dict) -> List[str]:
    """Every eigenvalue within rel_tol * max|lambda| of the double-precision run.

    The match is a minimum-cost assignment, so two close eigenvalues that
    sort differently in the two runs still pair up.
    """
    summary = read_summary(out_dir)
    problems = _failures(summary)
    got = read_eigenvalues(out_dir, expected["half_width"])
    ref = expected["reference"]
    if len(got) != len(ref):
        return problems + [f"{len(got)} eigenvalues, reference has {len(ref)}"]
    cost = [[abs(a - b) for b in ref] for a in got]
    rows, cols = linear_sum_assignment(cost)
    worst = max(cost[i][j] for i, j in zip(rows, cols))
    scale = max(abs(z) for z in ref)
    if worst > expected["rel_tol"] * scale:
        problems.append(f"max eigenvalue deviation {worst:.3e} exceeds "
                        f"{expected['rel_tol']:g} x max|lambda| = "
                        f"{expected['rel_tol'] * scale:.3e}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Tuple[Call, ...]
    # a call whose output the checks need, made once before timing
    reference: Optional[Call] = None

    def ordered(self, seed: int) -> List[Call]:
        """The calls in the order given by the seed (the grids are fixed)."""
        calls = list(self.calls)
        random.Random(seed).shuffle(calls)
        return calls


COULOMB = ("--family", "coulomb_regulated", "--strength", "10")
SCARF2_EXT = ("classify", "--family", "scarf2", "--strength", "30", "--L", "10")

# Extended vs double eigenvalues of scarf2 A=30, L=10, N=21 differed by at
# most 2.9e-15 x max|lambda| (N=41: 1.8e-14).  Both runs round to double
# on output, so the double run's own rounding error bounds the difference;
# 1e-12 leaves headroom for BLAS thread count and summation order while
# any real defect in either path shows up at 1e-8 or worse.
EXTENDED_REL_TOL = 1e-12

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="coulomb_sweep_n255",
            calls=(
                Call("sweep", ("sweep", *COULOMB, "--L", "10", "--L", "100"), 255,
                     check_bound_pairs,
                     expected={"bound_pairs": {10.0: 1, 100.0: 4}},
                     wrong={"bound_pairs": {10.0: 1, 100.0: 5}}),
            ),
        ),
        Workload(
            name="box_step_extended",
            calls=(
                Call("box", ("classify", "--family", "scarf2", "--strength", "0",
                             "--L", "10"), 1023,
                     check_box_levels,
                     expected={"half_width": 10.0, "levels": 10, "rel_tol": 1e-6},
                     wrong={"half_width": 10.0, "levels": 10, "rel_tol": 1e-6,
                            "scale": 1.0 + 1e-5}),
                Call("step", ("classify", "--family", "step", "--strength", "3",
                              "--L", "100"), 1023,
                     check_step,
                     expected={"half_width": 100.0, "bound_pairs": 2,
                               "transition": (9.5, 1.0)},
                     wrong={"half_width": 100.0, "bound_pairs": 2,
                            "transition": (8.0, 1.0)}),
                Call("extended", (*SCARF2_EXT, "--precision", "extended"), 21,
                     check_matches_reference,
                     expected={"half_width": 10.0, "rel_tol": EXTENDED_REL_TOL}),
            ),
            reference=Call("double", (*SCARF2_EXT, "--precision", "double"), 21,
                           check_no_failures),
        ),
    )
}


def with_reference(calls: Sequence[Call], ref_dir: Path) -> List[Call]:
    """Fill the reference run's eigenvalues into the calls compared with it."""
    out = []
    for call in calls:
        if call.check is check_matches_reference:
            reference = read_eigenvalues(ref_dir, call.expected["half_width"])
            expected = {**call.expected, "reference": reference}
            wrong = {**expected, "reference": [z * (1 + 1e-9) for z in reference]}
            call = dataclasses.replace(call, expected=expected, wrong=wrong)
        out.append(call)
    return out
