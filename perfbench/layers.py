"""Where the traced run hooks into ptspec, and the per-layer metrics it yields.

Layer names follow the package's modules.  Every wrap point is the name
the pipeline calls, so a refactor that stops calling one makes its layer
report zero rather than fail.
"""

from __future__ import annotations

import importlib
import statistics
from typing import Dict, List

from tracer import Tracer

# (module, attribute path, span name)
WRAP_POINTS = (
    ("ptspec.harness.runner", "build_grid", "chebdiff.grid"),
    ("ptspec.harness.runner", "build_diff_matrices", "chebdiff.diff"),
    ("ptspec.hamiltonian", "evaluate_on_grid", "potentials.eval"),
    ("ptspec.harness.runner", "assemble", "hamiltonian.assemble"),
    ("ptspec.harness.runner", "eigenvalues", "eigensolver.eigenvalues"),
    ("ptspec.eigensolver", "HessenbergWorkspace.__init__", "eigensolver.workspace"),
    ("ptspec.eigensolver", "HessenbergWorkspace.inverse_iteration", "eigensolver.fetch"),
    ("ptspec.harness.runner", "classify", "spectrum.classify"),
    ("ptspec.spectrum", "pair_conjugates", "spectrum.pair"),
    ("ptspec.harness.runner", "with_transition", "spectrum.transition"),
    ("ptspec.harness.cli", "persist", "harness.persist"),
    ("ptspec.harness.cli", "emit_plot_data", "harness.persist"),
)

# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "chebdiff.grid_s": "s",
    "chebdiff.diff_s": "s",
    "potentials.eval_s": "s",
    "potentials.points": "count",
    "hamiltonian.assemble_s": "s",
    "hamiltonian.matrix_mb": "MB",
    "eigensolver.eigenvalues_s": "s",
    "eigensolver.eigenvalues_calls": "count",
    "eigensolver.qr_sweeps": "count",
    "eigensolver.workspace_s": "s",
    "eigensolver.workspace_builds": "count",
    "eigensolver.fetches": "count",
    "eigensolver.fetch_s": "s",
    "eigensolver.fetch_ms_mean": "ms",
    "eigensolver.fetch_iterations": "count",
    "eigensolver.fetch_failed": "count",
    "spectrum.classify_self_s": "s",
    "spectrum.candidates": "count",
    "spectrum.bound_labels": "count",
    "spectrum.bound_per_fetch": "ratio",
    "spectrum.unresolved": "count",
    "spectrum.pair_s": "s",
    "spectrum.transition_s": "s",
    "harness.persist_s": "s",
    "harness.bytes_written": "bytes",
    "harness.other_s": "s",
    "trace.overhead_s": "s",
}


def _points(args, kwargs, result, error):
    return {"points": 0 if result is None else len(result)}


def _matrix_mb(args, kwargs, result, error):
    if result is None:
        return {}
    m = result.matrix
    return {"matrix_mb": m.shape[0] * m.shape[1] * m.itemsize / 1e6}


def _qr_sweeps(args, kwargs, result, error):
    return {"qr_sweeps": 0 if result is None else sum(result.iteration_stats)}


def _fetch(args, kwargs, result, error):
    return {
        "iterations": 0 if result is None else result.iterations,
        "failed": int(type(error).__name__ == "RefinementError"),
    }


def _classify(args, kwargs, result, error):
    if result is None:
        return {}
    cut = result.policy.vector_threshold
    labels = [r.label for r in result.records]
    return {
        "candidates": sum(abs(r.value.imag) > cut for r in result.records),
        "bound": labels.count("bound"),
        "unresolved": labels.count("unresolved"),
    }


COUNTERS = {
    "potentials.eval": _points,
    "hamiltonian.assemble": _matrix_mb,
    "eigensolver.eigenvalues": _qr_sweeps,
    "eigensolver.fetch": _fetch,
    "spectrum.classify": _classify,
}


def install(tracer: Tracer) -> None:
    for module_name, path, span_name in WRAP_POINTS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None:
            tracer.missing.append(f"{module_name}.{path}")
            continue
        tracer.wrap(owner, attr, span_name, COUNTERS.get(span_name))


def iteration_metrics(tracer: Tracer, iteration: int, wall: float,
                      bytes_written: int) -> Dict[str, float]:
    """Per-layer figures of one traced workload iteration."""
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counter: Dict[str, float] = {}
    matrix_mb = 0.0
    covered = 0.0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span.iteration != iteration:
            continue
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counters.items():
            if key == "matrix_mb":
                matrix_mb = max(matrix_mb, value)
            else:
                counter[key] = counter.get(key, 0) + value
        if span.parent is None:
            covered += span.duration

    fetches = calls.get("eigensolver.fetch", 0)
    fetch_s = total_s.get("eigensolver.fetch", 0.0)
    bound = counter.get("bound", 0)
    return {
        "chebdiff.grid_s": self_s.get("chebdiff.grid", 0.0),
        "chebdiff.diff_s": self_s.get("chebdiff.diff", 0.0),
        "potentials.eval_s": self_s.get("potentials.eval", 0.0),
        "potentials.points": counter.get("points", 0),
        "hamiltonian.assemble_s": self_s.get("hamiltonian.assemble", 0.0),
        "hamiltonian.matrix_mb": matrix_mb,
        "eigensolver.eigenvalues_s": total_s.get("eigensolver.eigenvalues", 0.0),
        "eigensolver.eigenvalues_calls": calls.get("eigensolver.eigenvalues", 0),
        "eigensolver.qr_sweeps": counter.get("qr_sweeps", 0),
        "eigensolver.workspace_s": total_s.get("eigensolver.workspace", 0.0),
        "eigensolver.workspace_builds": calls.get("eigensolver.workspace", 0),
        "eigensolver.fetches": fetches,
        "eigensolver.fetch_s": fetch_s,
        "eigensolver.fetch_ms_mean": 1e3 * fetch_s / fetches if fetches else 0.0,
        "eigensolver.fetch_iterations": counter.get("iterations", 0),
        "eigensolver.fetch_failed": counter.get("failed", 0),
        "spectrum.classify_self_s": self_s.get("spectrum.classify", 0.0),
        "spectrum.candidates": counter.get("candidates", 0),
        "spectrum.bound_labels": bound,
        "spectrum.bound_per_fetch": bound / fetches if fetches else 0.0,
        "spectrum.unresolved": counter.get("unresolved", 0),
        "spectrum.pair_s": total_s.get("spectrum.pair", 0.0),
        "spectrum.transition_s": total_s.get("spectrum.transition", 0.0),
        "harness.persist_s": total_s.get("harness.persist", 0.0),
        "harness.bytes_written": bytes_written,
        "harness.other_s": wall - covered,
    }


def median_metrics(per_iteration: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(m[key] for m in per_iteration)
            for key in per_iteration[0]}
