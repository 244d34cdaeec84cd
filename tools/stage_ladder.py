#!/usr/bin/env python3
"""Time each stage of the pipeline on an N ladder, and the two end-to-end jobs.

Run from the root of a checkout of the repository:

    python3 tools/stage_ladder.py --out BENCH_stages.json
    python3 tools/stage_ladder.py --tree change=. --tree parent=../parent \\
        --out BENCH_stages.json

Each ``--tree label=path`` names a checkout whose ``src/`` is timed (by
default the one the script is run from).  Every case runs
``ptspec.harness.runner.run_experiment`` for one L, as the CLI does short
of persisting it, in a fresh interpreter with
that checkout's ``src/`` on its path, and reads only what the run records:
the ``ptspec.trace`` spans of its stages, ``trace.environment()`` and the
process's peak RSS.  The modules that a run would import inside its spans
(``CASE_MODULES``) are imported before it, so that no span times an import
(with ``PYTHONDONTWRITEBYTECODE`` set, the compile of a module's source).
A checkout without ``ptspec.trace`` is an error.  Each
case runs in ``--runs`` interpreters per checkout (N=4095 in one), the
checkouts alternating.  Per span the JSON holds the median seconds over
them, each run's seconds, and the counters of the first run; a span that
occurs more than once in a run (one per vector batch) is summed.

The cases are coulomb_regulated A=10 L=100 at N = 255 ... 4095, the box
(scarf2 A=0 L=10) and the step A=3 L=100 of the benchmark, and scarf2 A=30
L=10 in extended precision at N = 21 and 41.  Coulomb at N = 513, 767,
1023 and 2047 runs a second time with ``OPENBLAS_NUM_THREADS=1`` in the
child's environment, so that its Schur decomposition runs on one thread.
Each run of the one is followed by a run of the other, so the two meet
the same load on the machine.  The pairs bracket the order (512,
``eigensolver._SERIAL_BELOW``) from which a single block runs on every
thread: N=513 is the smallest N whose K, of order N - 1, is at it, and
N=511 runs on one thread either way.  The vector stage after the
decomposition shows what a two-thread decomposition costs the call after
it.

Four end-to-end cases follow.  ``cold-start`` times a fresh interpreter
from its start to the end of a first double ``spectrum`` call through
``ptspec.harness.cli.main`` (a 4 x 4 K), as perfbench's ``setup_s`` does:
the child reports when it got there on the system-wide monotonic clock, so
its teardown is not counted.  It runs ``--runs`` times per checkout, the
checkouts alternating, and the JSON holds the median seconds, each run's
seconds and which of ``COLD_START_MODULES`` the first run had loaded.
``sweep`` times the double sweep of ``SWEEPS`` through
``ptspec.harness.cli.main`` (``measure_sweep``): a 3-L coulomb sweep at
N=1023, timed 3 times per interpreter, each persisted, after one untimed
sweep at N/8 that loads what a first call loads.  The benchmark's own
coulomb sweep (N=255) is left to perfbench, whose paired runs resolve
differences that this case's fresh interpreters do not.  The sweep is timed
twice: as is, and "after matmul", with one product of a ``MATMUL_ORDER``
square matrix on every OpenBLAS thread before each call, untimed, as a
caller's own linear algebra would leave OpenBLAS (its idle workers spin
for a while after it).  Each runs in
``--runs`` fresh interpreters per checkout, the checkouts alternating,
and the JSON holds the median seconds over every timed call with their
quartiles ``q1`` and ``q3``, each call's seconds, the median peak RSS,
and the Schur seconds and threads per L of each interpreter's last call.
With two or more checkouts, each one's sweep is printed against the
first's as the difference of the medians, or "unresolved" where that is
smaller than the wider of the two interquartile ranges
(``sweep_difference``).
``reproduce --selector desk`` (``measure_desk``: the seconds of each check
from its ``reproduce.<check>`` span, where the checkout records one, and
the checks that passed) and the tier-1 command ``python -m pytest -q
--continue-on-collection-errors`` run in the checkout (its last output
line) run once per checkout in a fresh process.  For both the JSON holds
the wall seconds of the process and its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# (family, strength, half-width, N, precision mode, the OPENBLAS_NUM_THREADS
# values to run it with; None leaves the variable as it is)
CASES = (
    *(("coulomb_regulated", 10.0, 100.0, n, "double64", (None,)) for n in (255, 511)),
    *(("coulomb_regulated", 10.0, 100.0, n, "double64", (None, 1))
      for n in (513, 767, 1023, 2047)),
    ("coulomb_regulated", 10.0, 100.0, 4095, "double64", (None,)),
    *(("scarf2", 0.0, 10.0, n, "double64", (None,)) for n in (1023, 2047)),
    ("step", 3.0, 100.0, 1023, "double64", (None,)),
    *(("scarf2", 30.0, 10.0, n, "extended128", (None,)) for n in (21, 41)),
)

TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")

# per precision mode, the modules a first run imports inside its spans: the
# thread pool of ``side_by_side`` (two parity blocks from order 512 on) and
# the extended kernel
CASE_MODULES = {"double64": ("concurrent.futures",),
                "extended128": ("ptspec._fixed_schur",)}

# the sweeps of the ``sweep`` case, coulomb_regulated A=10: (N, half-widths,
# timed calls per interpreter).  One call spread 1.39-2.12 s over three
# interpreters of one checkout
SWEEPS = ((1023, (10.0, 30.0, 100.0), 3),)

# the order of the square matrix whose product precedes each call of the
# "after matmul" sweeps; OpenBLAS runs it on every thread
MATMUL_ORDER = 1000

# modules that a double-precision run has no use for (README, "Start-up")
COLD_START_MODULES = ("mpmath", "importlib.metadata", "numpy.ma",
                      "concurrent.futures", "ptspec._fixed_schur",
                      "ptspec.harness.reproduce", "ptspec.refdata",
                      "ptspec.extrapolate")

# a first double spectrum call; prints when it was done and which of the
# modules named in argv[1:] were loaded by then
_COLD_START = (
    "import contextlib, io, json, sys, time\n"
    "from ptspec.harness.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(['spectrum', '--family', 'scarf2', '--strength', '0',"
    " '--L', '1', '--N', '5'])\n"
    "ready = time.perf_counter()\n"
    "print(json.dumps({'ready': ready,"
    " 'loaded': [m for m in sys.argv[1:] if m in sys.modules]}))\n"
    "sys.exit(rc)\n"
)

# runs the function named argv[2] of the script at argv[1] on the arguments
# in argv[3]
_CHILD = ("import json, runpy, sys; function = runpy.run_path(sys.argv[1])"
          "[sys.argv[2]]; print(json.dumps(function(*json.loads(sys.argv[3]))))")


def measure(family: str, strength: float, half_width: float, n: int,
            precision: str) -> dict:
    """One case through ``run_experiment`` in this interpreter.

    Returns the seconds and counters of each span by name, the environment
    and the peak RSS of the process in MB.  The case's ``CASE_MODULES`` are
    imported first.
    """
    import importlib

    for module in CASE_MODULES[precision]:
        importlib.import_module(module)
    from ptspec import trace
    from ptspec.harness.config import ExperimentConfig
    from ptspec.harness.runner import run_experiment

    config = ExperimentConfig(family=family, strength=strength,
                              half_widths=(half_width,), n_intervals=n,
                              precision_mode=precision)
    artifact = run_experiment(config)
    if artifact.failures:
        raise RuntimeError(f"the run failed: {artifact.failures}")
    spans = artifact.spans[half_width]
    stages: dict = {}
    pending = list(spans)
    while pending:
        node = pending.pop(0)
        stage = stages.setdefault(node.name, {"seconds": 0.0})
        stage["seconds"] += node.seconds
        stage.update(node.counters)
        pending.extend(node.children)
    return {"spans": stages, "environment": trace.environment(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3}


def measure_sweep(n: int, half_widths: list, calls: int,
                  matmul: bool = False) -> dict:
    """``calls`` coulomb_regulated A=10 sweeps over ``half_widths`` at N=n
    through ``cli.main`` in this interpreter, after one at N/8, untimed.

    Each call persists into a fresh temporary directory; with ``matmul``,
    an untimed product of a ``MATMUL_ORDER`` square matrix precedes it.
    Returns the seconds of each timed call, the peak RSS of the process in
    MB, and per L the seconds and counters of the last call's
    ``eigensolver.schur`` span.
    """
    import contextlib
    import io
    import tempfile

    import numpy as np

    from ptspec.harness.cli import main

    square = np.random.default_rng(0).standard_normal((MATMUL_ORDER,) * 2)
    argv = ["sweep", "--family", "coulomb_regulated", "--strength", "10",
            *(arg for w in half_widths for arg in ("--L", f"{w:g}"))]
    seconds = []
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()) as printed:
        for call in range(-1, calls):
            if matmul:
                np.matmul(square, square)
            start = time.perf_counter()
            code = main([*argv, "--N", str(n if call >= 0 else max(5, n // 8 | 1)),
                         "--out", f"{out}/{call}"])
            if code != 0:
                raise RuntimeError(f"sweep exited with {code}")
            if call >= 0:
                seconds.append(time.perf_counter() - start)
        timing = json.loads((Path(printed.getvalue().splitlines()[-1])
                             / "timing.json").read_text())
    schur = {key: next({"seconds": s["seconds"], **s["counters"]}
                       for s in spans if s["name"] == "eigensolver.schur")
             for key, spans in timing["runs"].items()}
    return {"seconds": seconds, "schur": schur,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3}


def measure_desk() -> dict:
    """``reproduce --selector desk`` in this interpreter.

    Returns the seconds of each check by name (empty where the checkout
    records no ``reproduce.<check>`` spans) and the checks run and passed.
    """
    from ptspec import trace
    from ptspec.harness.reproduce import reproduce

    with trace.record() as spans:
        results = reproduce("desk")
    return {"checks": {s.name: s.seconds for s in spans
                       if s.name.startswith("reproduce.")},
            "passed": sum(bool(r.passed) for r in results), "run": len(results)}


def run_child(path: str, args: tuple, threads=None) -> dict:
    """A fresh interpreter with ``args``, in the checkout at ``path`` and with
    its ``src/`` on the path: the exit code, the output (stdout and stderr),
    the wall seconds and the peak RSS in MB of the process."""
    env = {**os.environ, "PYTHONPATH": str(Path(path).resolve() / "src")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], cwd=path, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT) as proc:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own rusage
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "output": output,
            "wall_s": time.perf_counter() - start,
            "peak_rss_mb": usage.ru_maxrss / 1e3}


def cold_start(label: str, path: str) -> dict:
    """One ``cold-start`` run on the checkout at ``path``: the seconds from
    before the interpreter starts to the end of its first spectrum call,
    and the ``COLD_START_MODULES`` it had loaded by then."""
    start = time.perf_counter()
    out = run_child(path, ("-c", _COLD_START, *COLD_START_MODULES))
    if out["returncode"] != 0:
        sys.exit(f"tree {label} ({path}) failed on cold-start:\n{out['output']}")
    record = json.loads(out["output"].splitlines()[-1])
    return {"seconds": record["ready"] - start, "loaded": record["loaded"]}


def run_measure(label: str, path: str, function: str, args: tuple,
                threads=None) -> dict:
    """The ``function`` of this script (``measure`` or ``measure_sweep``) on
    ``args`` in a fresh interpreter on the checkout at ``path``."""
    out = run_child(path, ("-c", _CHILD, __file__, function, json.dumps(args)), threads)
    if out["returncode"] != 0:
        sys.exit(f"tree {label} ({path}) failed on {function}{args}:\n{out['output']}")
    return json.loads(out["output"].splitlines()[-1])


def run_end_to_end(label: str, path: str, case: str) -> dict:
    """One end-to-end ``case`` ("desk" or "tier-1") on the checkout at ``path``."""
    if case == "desk":
        out = run_child(path, ("-c", _CHILD, __file__, "measure_desk", "[]"))
        if out["returncode"] != 0:
            sys.exit(f"tree {label} ({path}) failed on desk:\n{out['output']}")
        record = json.loads(out["output"].splitlines()[-1])
    else:
        out = run_child(path, TIER1)
        record = {"returncode": out["returncode"],
                  "result": out["output"].strip().splitlines()[-1]}
    return {**record, "wall_s": out["wall_s"], "peak_rss_mb": out["peak_rss_mb"]}


def sweep_seconds(seconds: list) -> dict:
    """The median of ``seconds`` (two or more) and its quartiles q1, q3."""
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"seconds": median, "q1": q1, "q3": q3}


def sweep_difference(record: dict, against: dict) -> str:
    """``record``'s median seconds less ``against``'s, each a
    ``sweep_seconds``; "unresolved" where the medians differ by less than
    the wider of the two interquartile ranges."""
    delta = record["seconds"] - against["seconds"]
    spread = max(record["q3"] - record["q1"], against["q3"] - against["q1"])
    return "unresolved" if abs(delta) < spread else f"{delta:+.4f} s"


def summarize(results: list) -> dict:
    """Per span the median seconds over the runs, and the first run's counters."""
    stages = {}
    for name, first in results[0]["spans"].items():
        seconds = [r["spans"][name]["seconds"] for r in results]
        stages[name] = {**first, "seconds": statistics.median(seconds),
                        "seconds_runs": seconds}
    return {"spans": stages,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "environment": results[0]["environment"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[],
                        help="label=path of a checkout; repeatable")
    parser.add_argument("--runs", type=int, default=3,
                        help="fresh interpreters per case and checkout")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    trees = ([spec.split("=", 1) for spec in args.tree]
             or [["this", str(Path(__file__).resolve().parent.parent)]])
    cases = []
    for number, (*call, settings) in enumerate(CASES):
        family, strength, half_width, n, precision = call
        runs: dict = {(threads, label): [] for threads in settings for label, _ in trees}
        for run in range(1 if n >= 4095 else args.runs):
            order = trees if (number + run) % 2 == 0 else trees[::-1]
            for threads in settings:  # side by side, under the same load
                for label, path in order:
                    runs[threads, label].append(
                        run_measure(label, path, "measure", call, threads))
        for threads in settings:
            row = {"family": family, "strength": strength, "half_width": half_width,
                   "n_intervals": n, "precision": precision,
                   "OPENBLAS_NUM_THREADS": threads,
                   "trees": {label: summarize(runs[threads, label])
                             for label, _ in trees}}
            for label, tree in row["trees"].items():
                seconds = " ".join(f"{name} {stage['seconds']:.3f}"
                                   for name, stage in tree["spans"].items())
                print(f"{family} A={strength:g} L={half_width:g} N={n} {precision}"
                      f"{'' if threads is None else f' {threads}T'} {label}: "
                      f"{seconds}; rss {tree['peak_rss_mb']:.0f} MB", flush=True)
            cases.append(row)
    starts: dict = {label: [] for label, _ in trees}
    for run in range(args.runs):
        for label, path in (trees if run % 2 == 0 else trees[::-1]):
            starts[label].append(cold_start(label, path))
    end_to_end = {"cold-start": {
        label: {"seconds": statistics.median(r["seconds"] for r in records),
                "seconds_runs": [r["seconds"] for r in records],
                "loaded": records[0]["loaded"]}
        for label, records in starts.items()}}
    for label, record in end_to_end["cold-start"].items():
        print(f"cold-start {label}: {record['seconds']:.3f} s, loaded "
              f"{record['loaded']}", flush=True)
    end_to_end["sweep"] = {}
    for (n, half_widths, calls), matmul in ((sweep, matmul) for sweep in SWEEPS
                                            for matmul in (False, True)):
        sweeps: dict = {label: [] for label, _ in trees}
        for run in range(args.runs):
            for label, path in (trees if run % 2 == 0 else trees[::-1]):
                sweeps[label].append(run_measure(label, path, "measure_sweep",
                                                 (n, half_widths, calls, matmul)))
        key = (f"N={n} L={','.join(f'{w:g}' for w in half_widths)}"
               + (" after matmul" if matmul else ""))
        end_to_end["sweep"][key] = {label: {
            **sweep_seconds([s for r in records for s in r["seconds"]]),
            "seconds_runs": [r["seconds"] for r in records],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "schur_runs": [r["schur"] for r in records]}
            for label, records in sweeps.items()}
        first = end_to_end["sweep"][key][trees[0][0]]
        for label, record in end_to_end["sweep"][key].items():
            versus = ("" if record is first else
                      f", against {trees[0][0]}: {sweep_difference(record, first)}")
            print(f"sweep {key} {label}: {record['seconds']:.4f} s "
                  f"[{record['q1']:.4f}, {record['q3']:.4f}], rss "
                  f"{record['peak_rss_mb']:.0f} MB{versus}", flush=True)
    for number, case in enumerate(("desk", "tier-1")):
        order = trees if number % 2 == 0 else trees[::-1]
        records = {label: run_end_to_end(label, path, case) for label, path in order}
        end_to_end[case] = {label: records[label] for label, _ in trees}
        for label, record in end_to_end[case].items():
            print(f"{case} {label}: {record['wall_s']:.1f} s, rss "
                  f"{record['peak_rss_mb']:.0f} MB", flush=True)
    text = json.dumps({"runs": args.runs, "trees": [label for label, _ in trees],
                       "cases": cases, "end_to_end": end_to_end}, indent=1)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
