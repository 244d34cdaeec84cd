"""Experiment orchestration: run per-L jobs and persist their spectra.

Each half-width L is an independent job, a chain in which each step takes
only what the previous one returned: grid -> real PT form K of H (built
from the rows of the second-derivative matrix it reads) -> Schur
decomposition -> labels and transition.  The grid and matrix entries are
computed at the working precision of the run.  The Schur decomposition
runs per diagonal block of K: two parity blocks at A = 0, one block
otherwise.  In double precision it runs on numpy's OpenBLAS, the pool
that also runs the vector products, whose thread count is process-wide.

Each job is ``run_single`` followed by ``render``, which formats the text
of the L's files; ``run_single``, the pipeline the reproduce cache keeps,
formats nothing.  A double-precision config maps that job over its
half-widths with ``eigensolver.side_by_side``, the rule that K's parity
blocks follow too: two or more L side by side, each on one OpenBLAS
thread, its parity blocks one after another, with OpenBLAS's idle workers
stopped before and after (after a threaded call, such as a caller's own
linear algebra, one would spin for about 0.13 s on a core an L runs on);
a single L alone, its solve on the eigensolver's own rule (a K of order
below 512 on one LAPACK thread; from that order on, the two parity blocks
concurrently and a single block on every thread the process has: on 2
cores the two break even somewhere between orders 512 and 800, and two
threads win from about 1000 on; the ladder is in BENCH_stages.json).  So
one L formats its files while another is still in LAPACK, which releases
the GIL.  Two jobs at once hold two jobs' K, T and Z.  Extended-precision
configs run their half-widths one after another, as mpmath's precision
is process-wide.  Results, files, failures and spans are filled in the
config's order, whichever job finishes first.  Any exception inside a
job, in its rendering too, aborts that L with a recorded
"<Type>: <message>" diagnostic while the remaining half-widths still
complete.  ``persist`` is the only code that writes files: the texts the
jobs rendered, then summary.json and timing.json.  The CLI prints a
rendered eigenvalues text, so stdout carries the bytes of the file.

Persisted layout under <output_dir>/<family>_A<A>_N<N>_<precision>/, the
name followed by _<field><value> for each ``ClassificationPolicy`` field
that differs from its default (value by repr), so that a run with other
thresholds does not overwrite the default run's files.  A and each L are
written by ``exact_label``: by ``:g`` where that reads back as the same
float (A3, L10), else by repr (A3.0000001, L10.0000001), so that runs and
half-widths that differ keep their own files:
    L<value>/eigenvalues.csv   columns re, im, label, tail_ratio, residual
                               (or eigenvalues.json, a list of such rows)
    L<value>/complex_plane.csv re, im, label of every eigenvalue
    L<value>/log_im.csv        re, log10_abs_im, kind: the continuum records
                               (kind "point"), then the detected transition
                               as a row of kind "transition" with an empty
                               log10_abs_im
    L<value>/loglog_bound.csv  log10_re, log10_abs_im of each bound pair's
                               Im > 0 member
    summary.json               counts, transitions, config snapshot (its
                               thresholds under "classification"), the
                               installed ptspec's version ("unknown" in a
                               source tree), and "failures": per failed L
                               its diagnostic
    timing.json                "runs": per L, the ``trace`` spans of its
                               stages, each a name, wall-clock seconds,
                               counters (among them the OpenBLAS threads
                               the Schur decomposition ran on, and the
                               bytes of the closing harness.render) and
                               children;
                               "environment": ``trace.environment()``,
                               numpy's OpenBLAS build and the process's
                               thread count among it
                               (kept separate so summary.json is
                               bit-for-bit reproducible)
Floats are written by repr, a missing value empty, and log10 |x| is
taken of |x| + 1e-300; the CSV files are those ``csv.writer`` writes,
rows ending in "\\r\\n".  No images are rendered; the files plot directly
with any tool.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from .. import trace
from ..chebdiff import build_grid
from ..eigensolver import eigenvalues, side_by_side
from ..hamiltonian import assemble
from ..potentials import PotentialSpec
from ..precision import from_name, working_precision
from ..spectrum import (CONTINUUM_COMPLEX, CONTINUUM_REAL, ClassificationPolicy,
                        SpectrumResult, classify)
from .config import ExperimentConfig

COLUMNS = ("re", "im", "label", "tail_ratio", "residual")

# keeps log10 finite for eigenvalues with an exactly zero component
_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class RunArtifact:
    """Everything one run produced: results, the text of each L's files
    (``render``), failures and stage spans."""

    config: ExperimentConfig
    results: Dict[float, SpectrumResult] = field(default_factory=dict)
    files: Dict[float, Dict[str, str]] = field(default_factory=dict)
    failures: Dict[float, str] = field(default_factory=dict)
    spans: Dict[float, List[trace.Span]] = field(default_factory=dict)


def run_single(config: ExperimentConfig, half_width: float
               ) -> Tuple[SpectrumResult, List[trace.Span]]:
    """Run the full pipeline for one half-width; returns (result, spans).

    ``spans`` are the ``trace`` spans the stages recorded, in the order
    they ran.
    """
    precision = from_name(config.precision_mode)
    spec = PotentialSpec(config.family, config.strength)
    with trace.record() as spans:
        with working_precision(precision):
            grid = build_grid(half_width, config.n_intervals, precision=precision)
            op = assemble(grid, spec)
        solution = eigenvalues(op.matrix, precision=precision)
        result = classify(solution, op, policy=config.policy)
    return result, spans


def run_experiment(config: ExperimentConfig) -> RunArtifact:
    """Run every half-width in the config, side by side where the module
    docstring says so; failures abort only their own L."""
    artifact = RunArtifact(config=config)
    half_widths = config.half_widths
    run = map if from_name(config.precision_mode).is_extended else side_by_side
    outcomes = list(run(functools.partial(_attempt, config), half_widths))
    for half_width, (outcome, failure) in zip(half_widths, outcomes):
        if failure is None:
            (artifact.results[half_width], artifact.files[half_width],
             artifact.spans[half_width]) = outcome
        else:
            artifact.failures[half_width] = failure
    return artifact


def _attempt(config: ExperimentConfig, half_width: float):
    """One L's job: ((result, files, spans), None), ``run_single``'s result
    rendered in the config's format, its spans followed by the
    ``harness.render`` span with the ``bytes`` rendered; or (None, the
    "<Type>: <message>" of the exception either step raised)."""
    try:
        result, spans = run_single(config, half_width)
        with trace.record() as rendered, trace.span("harness.render") as count:
            files = render(result, config.output_format)
            count["bytes"] = sum(map(len, files.values()))  # ASCII: a byte a char
        return (result, files, spans + rendered), None
    except Exception as exc:  # recorded per L; the sweep goes on
        return None, f"{type(exc).__name__}: {exc}"


def render(result: SpectrumResult, output_format: str,
           labels: bool = True) -> Dict[str, str]:
    """The text of each of one L's files in the layout above, by file name.

    The CSV files are formatted in one pass: each float once, by repr,
    shared by every file that carries it, in the bytes of ``csv.writer``
    (rows ending in "\\r\\n", an empty cell for None).  An eigenvalues.json
    is ``json.dumps`` of its rows, keys in column order, with ``indent=1``
    and a final newline.  Without ``labels``, only the eigenvalues file, of
    columns re and im, as ``spectrum`` prints it.
    """
    records = result.records
    name = f"eigenvalues.{output_format}"
    files = {}
    if output_format == "json":
        columns = COLUMNS if labels else COLUMNS[:2]
        rows = [dict(zip(columns, (r.value.real, r.value.imag, r.label,
                                   r.tail_ratio, r.residual))) for r in records]
        files[name] = json.dumps(rows, indent=1) + "\n"
        if not labels:
            return files
    re = [repr(r.value.real) for r in records]
    im = [repr(r.value.imag) for r in records]
    if not labels:
        return {name: _csv(COLUMNS[:2], map(",".join, zip(re, im)))}
    plane = list(map(",".join, zip(re, im, (r.label for r in records))))
    if name not in files:
        # a record's row is its plane row followed by these two cells
        tail_ratio = ["" if r.tail_ratio is None else repr(r.tail_ratio)
                      for r in records]
        residual = ["" if r.residual is None else repr(r.residual)
                    for r in records]
        files[name] = _csv(COLUMNS, map(",".join, zip(plane, tail_ratio, residual)))
    log_im = [f"{re[i]},{_log10(r.value.imag)!r},point"
              for i, r in enumerate(records)
              if r.label in (CONTINUUM_REAL, CONTINUUM_COMPLEX)]
    if result.transition_point is not None:
        log_im.append(f"{result.transition_point!r},,transition")
    loglog = [f"{_log10(z.real)!r},{_log10(z.imag)!r}" for z in result.bound_values()]
    files["complex_plane.csv"] = _csv(("re", "im", "label"), plane)
    files["log_im.csv"] = _csv(("re", "log10_abs_im", "kind"), log_im)
    files["loglog_bound.csv"] = _csv(("log10_re", "log10_abs_im"), loglog)
    return files


def _csv(header: Tuple[str, ...], lines) -> str:
    """``header`` and the already joined ``lines`` as CSV text."""
    return "\r\n".join((",".join(header), *lines)) + "\r\n"


def _log10(x: float) -> float:
    return math.log10(abs(x) + _LOG_FLOOR)


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


def exact_label(value: float) -> str:
    """``value`` as a run's or an L's name gives it: by ``:g`` where that
    reads back as ``value``, else by repr, so that no two values share one."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def persist(artifact: RunArtifact) -> Path:
    """Write the texts the artifact carries under the config's
    ``output_dir`` in the layout above, then summary.json and timing.json;
    returns the run directory."""
    config = artifact.config
    policy, default = asdict(config.policy), asdict(ClassificationPolicy())
    run_dir = Path(config.output_dir) / (
        f"{config.family}_A{exact_label(config.strength)}"
        f"_N{config.n_intervals}_{config.precision_mode}"
        + "".join(f"_{name}{value!r}" for name, value in policy.items()
                  if value != default[name]))
    run_dir.mkdir(parents=True, exist_ok=True)

    summary = {
        "tool_version": trace.installed_version("ptspec") or "unknown",
        "config": {
            "family": config.family,
            "strength": config.strength,
            "half_widths": list(config.half_widths),
            "n_intervals": config.n_intervals,
            "precision": config.precision_mode,
            "classification": policy,
        },
        "runs": {},
        "failures": dict(sorted(artifact.failures.items())),
    }
    for half_width in sorted(artifact.results):
        l_dir = run_dir / f"L{exact_label(half_width)}"
        l_dir.mkdir(exist_ok=True)
        for name, text in artifact.files[half_width].items():
            (l_dir / name).write_text(text, newline="")
        summary["runs"][l_dir.name] = _result_summary(artifact.results[half_width])

    with open(run_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    with open(run_dir / "timing.json", "w") as fh:
        json.dump({"environment": trace.environment(),
                   "runs": {f"L{exact_label(w)}": [asdict(s) for s in spans]
                            for w, spans in sorted(artifact.spans.items())}},
                  fh, indent=1, sort_keys=True)
    return run_dir
