#!/usr/bin/env python3
"""Time the candidate stage of ``classify`` per L, on one or more checkouts.

Run from the root of a checkout of the repository:

    python3 tools/candidate_stage.py --tree change=. --tree parent=../parent \\
        --out BENCH_candidate_stage.json

Each ``--tree label=path`` names a checkout whose ``src/`` is timed.  For
every case (family, A, L, N) and every checkout, a fresh interpreter with
that checkout's ``src/`` on its path assembles the real PT form K and times:

- ``schur_s``: the Schur decomposition (``eigenvalues``), once;
- ``backsub_first_s`` and ``backsub_s``: ``EigenSolution.eigenvectors``
  for the bound-state candidates, the Im > 0 member of each pair above the
  policy's ``vector_threshold`` (the back substitution on the Schur
  factors, the product with Z and the residuals).  The first call in the
  process is the one ``classify`` makes once per L; ``backsub_s`` is the
  median of ``--repeats`` calls after it;
- ``map_tail_s``: ``classify`` with those vectors already fetched, which
  leaves the grid mapping, the tail tests, the records and the transition
  search;
- ``persist_s``: ``runner.persist`` of the result to a temporary directory.

The classify stage is also the median of ``--repeats`` runs.  Each case
also records the candidate count, the process's peak RSS, and the peak of
the memory numpy allocates during one more ``eigenvectors`` call
(``tracemalloc``), next to the size of one n x n complex array.  Each case
runs in ``--runs`` fresh interpreters per checkout (N=4095 in one), the
checkouts alternating, and every figure is the median over them; the
first calls of all runs are listed too, as they scatter the most.  The
JSON also records the build and thread count of the OpenBLAS behind
scipy's LAPACK and of numpy's own, the numpy, scipy and mpmath versions
and the CPU count.  Checkouts whose ``eigenvectors`` yields (index,
vector) pairs, rather than returning one batch, are timed the same way.

With ``--schur-structure`` it times the Schur decompositions of the
checkout it runs from instead, each in a fresh interpreter:

    python3 tools/candidate_stage.py --schur-structure \\
        --out BENCH_schur_structure.json

- ``kernels``: the extended kernel ``_fixed_schur.real_schur`` on the
  real PT form K of scarf2 A=30 L=10 at n = 20, 40 and 80 (N = n + 1):
  seconds (the median of ``--runs``), QR sweeps, and the backward errors
  ||K Z - Z T||_F / ||K||_F and ||Z^T Z - I||_F of T and Z as returned,
  at 113 bits;
- ``box``: ``eigensolver.eigenvalues`` on the box K (scarf2 A=0, L=10) at
  N = 1023 and 2047, split into its parity blocks as it is, and unsplit
  (one block), with the blocks and the LAPACK threads of the largest.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

CASES = (
    *(("coulomb_regulated", 10.0, 100.0, n) for n in (255, 1023, 2047, 4095)),
    *(("scarf2", 30.0, 10.0, n) for n in (255, 1023, 2047)),
)


def median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(family: str, strength: float, half_width: float, n: int,
            repeats: int) -> dict:
    """One case in this interpreter, with ``ptspec`` from its path."""
    from ptspec import eigensolver
    from ptspec.chebdiff import build_grid
    from ptspec.hamiltonian import assemble
    from ptspec.harness.config import ExperimentConfig
    from ptspec.harness.runner import RunArtifact, persist
    from ptspec.potentials import PotentialSpec
    from ptspec.spectrum import ClassificationPolicy, classify

    op = assemble(build_grid(half_width, n), PotentialSpec(family, strength))
    t0 = time.perf_counter()
    solution = eigensolver.eigenvalues(op.matrix)
    schur_s = time.perf_counter() - t0
    values = solution.eigenvalues
    threshold = ClassificationPolicy().vector_threshold
    candidates = [i for i in range(len(values)) if values[i].imag > threshold]

    def fetch():
        batch = solution.eigenvectors(op.matrix, candidates)
        return batch if isinstance(batch, tuple) else list(batch)

    backsub_first_s = median_seconds(fetch, 1)
    backsub_s = median_seconds(fetch, repeats)
    tracemalloc.start()
    fetched = fetch()
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    # classify with the vectors already fetched: the rest of the stage
    cls = type(solution)
    fetch_method = cls.eigenvectors
    cls.eigenvectors = (lambda self, matrix, indices: fetched
                        if isinstance(fetched, tuple) else iter(fetched))
    try:
        results = []
        map_tail_s = median_seconds(
            lambda: results.append(classify(solution, op)), repeats)
    finally:
        cls.eigenvectors = fetch_method
    result = results[-1]

    config = ExperimentConfig(family=family, strength=strength,
                              half_widths=(half_width,), n_intervals=n)
    artifact = RunArtifact(config=config, results={half_width: result})
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        persist(artifact, out_dir=Path(out))
        persist_s = time.perf_counter() - t0
    dim = op.dim
    return {
        "schur_s": schur_s,
        "backsub_first_s": backsub_first_s,
        "backsub_s": backsub_s,
        "map_tail_s": map_tail_s,
        "persist_s": persist_s,
        "candidates": len(candidates),
        "bound_pairs": result.bound_pairs,
        "vector_alloc_peak_mb": alloc_peak / 1e6,
        "n_by_n_complex_mb": dim * dim * 16 / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3,
        "schur_threads": solution.lapack_threads[0],
    }


def measure_kernel(n: int, runs: int) -> dict:
    """The extended kernel on scarf2 K of order n, in this interpreter."""
    import mpmath
    import numpy as np
    from ptspec._fixed_schur import real_schur
    from ptspec.chebdiff import build_grid
    from ptspec.hamiltonian import assemble
    from ptspec.potentials import PotentialSpec
    from ptspec.precision import EXTENDED, working_precision

    with working_precision(EXTENDED):
        grid = build_grid(10.0, n + 1, precision=EXTENDED)
        a = assemble(grid, PotentialSpec("scarf2", 30.0)).matrix
    seconds = []
    for _ in range(runs):
        t0 = time.perf_counter()
        t, z, sweeps = real_schur(a, EXTENDED.bits)
        seconds.append(time.perf_counter() - t0)
    with working_precision(EXTENDED):
        def fro(m):
            return float(mpmath.sqrt(sum(abs(x) ** 2 for x in m.ravel())))

        residual = fro(a @ z - z @ t) / fro(a)
        orthogonality = fro(z.T @ z - np.eye(n, dtype=object))
    return {"seconds": statistics.median(seconds), "seconds_runs": seconds,
            "sweeps": sweeps, "residual": residual,
            "orthogonality": orthogonality}


def measure_box(n: int, split: bool) -> dict:
    """The box K's Schur decomposition at N=n, in this interpreter."""
    from ptspec import eigensolver
    from ptspec.chebdiff import build_grid
    from ptspec.hamiltonian import assemble
    from ptspec.potentials import PotentialSpec

    op = assemble(build_grid(10.0, n), PotentialSpec("scarf2", 0.0))
    blocks = eigensolver._diagonal_blocks(op.matrix)
    if not split:
        blocks = [(0, op.dim)]
        eigensolver._diagonal_blocks = lambda a: [(0, len(a))]
    t0 = time.perf_counter()
    solution = eigensolver.eigenvalues(op.matrix)
    return {"seconds": time.perf_counter() - t0, "blocks": blocks,
            "schur_threads": solution.lapack_threads[0]}


def run_case(src: Path, call: list) -> dict:
    """``call`` = [function name, *args] in a fresh interpreter with
    ``src`` on its path."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, __file__, "--child", json.dumps(call)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _openblas(path: str) -> tuple:
    """(build, threads) of the OpenBLAS that the library at ``path`` exports."""
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype, threads.restype = ctypes.c_char_p, ctypes.c_int
                return config().decode(), threads()
    return None, None


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy
    from numpy._core import _multiarray_umath
    from scipy.linalg import _flapack

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "cpu_count": os.cpu_count()}
    info["openblas"], info["openblas_threads"] = _openblas(_flapack.__file__)
    info["numpy_openblas"], info["numpy_openblas_threads"] = _openblas(
        _multiarray_umath.__file__)
    info["OPENBLAS_NUM_THREADS"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return info


def schur_structure(runs: int) -> dict:
    """The record of ``--schur-structure``, from this checkout's ``src/``."""
    src = Path(__file__).resolve().parent.parent / "src"
    kernels = []
    for n in (20, 40, 80):
        row = {"n": n, "real": run_case(src, ["measure_kernel", n, runs])}
        print(f"scarf2 K n={n} real_schur: {row['real']['seconds']:.3f} s, "
              f"{row['real']['sweeps']} sweeps, residual "
              f"{row['real']['residual']:.1e}", flush=True)
        kernels.append(row)
    box = []
    for n in (1023, 2047):
        runs_of = {True: [], False: []}
        for run in range(runs):
            for split in ((True, False) if run % 2 == 0 else (False, True)):
                runs_of[split].append(run_case(src, ["measure_box", n, split]))
        row = {"n_intervals": n}
        for split, results in runs_of.items():
            key = "split" if split else "unsplit"
            row[key] = {**results[0],
                        "seconds": statistics.median(r["seconds"] for r in results),
                        "seconds_runs": [r["seconds"] for r in results]}
            print(f"box N={n} {key}: {row[key]['seconds']:.3f} s on "
                  f"{row[key]['schur_threads']} thread(s), blocks "
                  f"{row[key]['blocks']}", flush=True)
        box.append(row)
    return {"runs": runs, "environment": environment(), "kernels": kernels,
            "box": box}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="label=path of a checkout; repeatable")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--runs", type=int, default=3,
                        help="fresh interpreters per case and checkout")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--schur-structure", action="store_true",
                        help="time the Schur decompositions instead")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        name, *call = json.loads(args.child)
        print(json.dumps(globals()[name](*call)))
        return 0
    if args.schur_structure:
        return write(schur_structure(args.runs), args.out)
    trees = [spec.split("=", 1) for spec in args.tree] or [["this", "."]]
    cases = []
    for number, case in enumerate(CASES):
        family, strength, half_width, n = case
        row = {"family": family, "strength": strength,
               "half_width": half_width, "n_intervals": n, "trees": {}}
        runs: dict = {label: [] for label, _ in trees}
        for run in range(1 if n >= 4095 else args.runs):
            order = trees if (number + run) % 2 == 0 else trees[::-1]
            for label, path in order:
                runs[label].append(run_case(Path(path).resolve() / "src",
                                            ["measure", *case, args.repeats]))
        for label, results in runs.items():
            stage = {key: statistics.median(r[key] for r in results)
                     if isinstance(value, float) else value
                     for key, value in results[0].items()}
            stage["backsub_first_s_runs"] = [r["backsub_first_s"] for r in results]
            row["trees"][label] = stage
            print(f"{family} A={strength:g} L={half_width:g} N={n} {label}: "
                  f"schur {stage['schur_s']:.3f} s, vectors "
                  f"{stage['backsub_first_s']:.3f} s first, "
                  f"{stage['backsub_s']:.3f} s after, map+tail "
                  f"{stage['map_tail_s']:.3f} s, persist "
                  f"{stage['persist_s']:.3f} s, {stage['candidates']} "
                  f"candidates, alloc {stage['vector_alloc_peak_mb']:.1f} MB, "
                  f"rss {stage['peak_rss_mb']:.0f} MB", flush=True)
        cases.append(row)
    return write({"repeats": args.repeats, "runs": args.runs,
                  "trees": [label for label, _ in trees],
                  "environment": environment(), "cases": cases}, args.out)


def write(record: dict, out) -> int:
    text = json.dumps(record, indent=1)
    if out is None:
        print(text)
    else:
        out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
