"""Experiment orchestration: run per-L jobs and persist their spectra.

Each half-width L is an independent job, a chain in which each step takes
only what the previous one returned: grid -> real PT form K of H (built
from the rows of the second-derivative matrix it reads) -> Schur
decomposition -> labels and transition.  The grid and matrix entries are
computed at the working precision of the run.  Jobs run one after
another: the extended mode's mpmath precision and the LAPACK thread count
are process-wide state.  The Schur decomposition runs per diagonal block
of K: two parity blocks at A = 0, one block otherwise.  In double
precision a block of order below 512 runs on one LAPACK thread and a
larger one on every thread the process has: on 2 cores one thread is the
faster up to N ~ 767, most when the solve follows other work (N=511: 0.18
against 0.27 s), and two threads from about N=1023 (N=2047: 5.3 against
3.5 s); the ladder is in BENCH_lapack_threads.json.  Any exception inside a job aborts that L with
a recorded "<Type>: <message>" diagnostic while the remaining half-widths
still complete.

Persisted layout under <output_dir>/<family>_A<A>_N<N>_<precision>/:
    L<value>/eigenvalues.csv   columns re, im, label, tail_ratio, residual
                               (or eigenvalues.json, a list of such rows);
                               ``write_records`` also prints them for the CLI
    summary.json               counts, transitions, config snapshot, version
    timing.json                wall-clock seconds per stage, and the LAPACK
                               threads the Schur decomposition of the
                               largest block ran on and the process had
                               (kept separate so summary.json is
                               bit-for-bit reproducible)
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, Optional, TextIO, Tuple

from ..chebdiff import build_grid
from ..eigensolver import eigenvalues
from ..hamiltonian import assemble
from ..potentials import PotentialSpec
from ..precision import from_name, working_precision
from ..spectrum import SpectrumResult, classify
from .config import ExperimentConfig

try:
    TOOL_VERSION = metadata.version("ptspec")
except metadata.PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "unknown"

COLUMNS = ("re", "im", "label", "tail_ratio", "residual")


@dataclass(frozen=True)
class RunArtifact:
    """Everything one run produced: results, failures, timings, version."""

    config: ExperimentConfig
    results: Dict[float, SpectrumResult] = field(default_factory=dict)
    failures: Dict[float, str] = field(default_factory=dict)
    timings: Dict[float, Dict[str, Optional[float]]] = field(default_factory=dict)
    tool_version: str = TOOL_VERSION


def run_single(config: ExperimentConfig, half_width: float
               ) -> Tuple[SpectrumResult, Dict[str, Optional[float]]]:
    """Run the full pipeline for one half-width; returns (result, timings).

    ``timings`` holds the seconds of each stage and, as ``schur_threads``
    and ``process_threads``, the solution's ``lapack_threads``.
    """
    precision = from_name(config.precision_mode)
    spec = PotentialSpec(config.family, config.strength)
    timings: Dict[str, Optional[float]] = {}
    t0 = time.perf_counter()
    with working_precision(precision):
        grid = build_grid(half_width, config.n_intervals, precision=precision)
        op = assemble(grid, spec)
    timings["assemble"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    solution = eigenvalues(op.matrix, precision=precision)
    timings["eigensolve"] = time.perf_counter() - t0
    timings["schur_threads"], timings["process_threads"] = solution.lapack_threads

    t0 = time.perf_counter()
    result = classify(solution, op, policy=config.policy)
    timings["classify"] = time.perf_counter() - t0
    return result, timings


def run_experiment(config: ExperimentConfig) -> RunArtifact:
    """Run every half-width in the config; failures abort only their own L."""
    artifact = RunArtifact(config=config)
    for half_width in config.half_widths:
        try:
            result, timings = run_single(config, half_width)
        except Exception as exc:  # recorded per L; the sweep goes on
            artifact.failures[half_width] = f"{type(exc).__name__}: {exc}"
            continue
        artifact.results[half_width] = result
        artifact.timings[half_width] = timings
    return artifact


def write_records(result: SpectrumResult, fh: TextIO, output_format: str,
                  labels: bool = True) -> None:
    """Write one row per eigenvalue to the open text file ``fh``.

    Columns re, im and, with ``labels``, label, tail_ratio and residual; as
    CSV (floats by repr, a missing tail ratio or residual empty) or as a
    JSON list of objects.
    """
    columns = COLUMNS if labels else COLUMNS[:2]
    rows = [(r.value.real, r.value.imag, r.label, r.tail_ratio,
             r.residual)[:len(columns)]
            for r in result.records]
    if output_format == "json":
        json.dump([dict(zip(columns, row)) for row in rows], fh, indent=1)
        fh.write("\n")
    else:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _result_summary(result: SpectrumResult) -> dict:
    labels: Dict[str, int] = {}
    for record in result.records:
        labels[record.label] = labels.get(record.label, 0) + 1
    return {
        "bound_pairs": result.bound_pairs,
        "transition_point": result.transition_point,
        "label_counts": labels,
        "n_eigenvalues": len(result.records),
    }


def persist(artifact: RunArtifact, out_dir: Optional[Path] = None) -> Path:
    """Write the artifact's CSV/JSON files; returns the run directory.

    ``out_dir`` defaults to the config's ``output_dir``.
    """
    config = artifact.config
    if out_dir is None:
        out_dir = Path(config.output_dir)
    run_dir = Path(out_dir) / (f"{config.family}_A{config.strength:g}"
                               f"_N{config.n_intervals}_{config.precision_mode}")
    run_dir.mkdir(parents=True, exist_ok=True)

    summary = {
        "tool_version": artifact.tool_version,
        "config": {
            "family": config.family,
            "strength": config.strength,
            "half_widths": list(config.half_widths),
            "n_intervals": config.n_intervals,
            "precision": config.precision_mode,
        },
        "runs": {},
        "failures": dict(sorted(artifact.failures.items())),
    }
    for half_width in sorted(artifact.results):
        result = artifact.results[half_width]
        l_dir = run_dir / f"L{half_width:g}"
        l_dir.mkdir(exist_ok=True)
        with open(l_dir / f"eigenvalues.{config.output_format}", "w",
                  newline="") as fh:
            write_records(result, fh, config.output_format)
        summary["runs"][f"L{half_width:g}"] = _result_summary(result)

    with open(run_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    with open(run_dir / "timing.json", "w") as fh:
        json.dump(
            {f"L{w:g}": t for w, t in sorted(artifact.timings.items())},
            fh, indent=1, sort_keys=True,
        )
    return run_dir
