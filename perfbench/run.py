#!/usr/bin/env python3
"""Benchmark of ptspec's classify pipeline, entered the way a user enters it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload coulomb_sweep_n255 --seed 1 \\
        --seconds 55 --trace 0

Each workload iteration is a fixed list of ``ptspec`` CLI calls made
in-process through ``ptspec.harness.cli.main`` (one client, one call at a
time), each persisting its run under a scratch directory.  Outputs are
checked from the persisted files.  Iterations repeat until ``--seconds``
is used up (at least three), and timings are medians over iterations.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the workload's
CLI calls, each from its start to its last persisted file, scaled to a
reference host speed by ``hostspeed.py``), ``setup_s (interpreter start to ptspec imported
and a first LAPACK call done, median of fresh interpreters) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics of ``layers.py``, with the tracing
overhead.  The seed only orders the calls within an iteration.

Every line but the last is for people; the last is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment, per-call outputs and (traced) spans goes to
``.perfbench_out/`` in the checkout.
"""

import os

# Pin BLAS threads before anything imports numpy.
BLAS_THREADS = 2
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, read_summary, with_reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
MIN_ITERATIONS = 3
MAX_FAIL_LINES = 5
# Interpreter start -> ptspec imported -> first LAPACK call (a 4x4 eigensolve
# through the CLI).  The child reports when it got there on the system-wide
# monotonic clock, so interpreter teardown is not counted.
SETUP_CODE = (
    "import contextlib, io, sys, time\n"
    "from ptspec.harness.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    rc = main(['spectrum', '--family', 'scarf2', '--strength', '0',"
    " '--L', '1', '--N', '5'])\n"
    "print(time.perf_counter())\n"
    "sys.exit(rc)\n"
)
CHECK_ERRORS = (OSError, KeyError, ValueError, TypeError)


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "machine": platform.machine(),
    }


def l3_bytes():
    """Last-level cache size as glibc reports it, or None where unknown."""
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None
    return int(out) if out.isdigit() else None


def measure_setup() -> float:
    """One set-up sample in a fresh interpreter, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - t0


def call_cli(cli, argv) -> str:
    """Run one CLI call; returns '' on success or what went wrong."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        return f"exit {exc.code}"
    except Exception as exc:  # a failed call is counted, the run goes on
        return f"{type(exc).__name__}: {exc}"
    return "" if rc == 0 else f"exit code {rc}"


def run_iteration(cli, calls, out_dir: Path, warmup: bool = False,
                  probes=None):
    """Make the calls in order; returns (seconds per call, call errors).

    With a ``probes`` list, the host-speed probe runs before each call,
    outside the call's timing, and its time is appended to the list.
    """
    seconds, errors = [], []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call in calls:
            if probes is not None:
                probes.append(hostspeed.probe())
            t0 = time.perf_counter()
            errors.append(call_cli(cli, call.argv(out_dir / call.name, warmup)))
            seconds.append(time.perf_counter() - t0)
    return seconds, errors


def check(call, out_dir: Path, expected: dict) -> list:
    try:
        return call.check(out_dir, expected)
    except CHECK_ERRORS as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def call_outputs(out_dir: Path) -> dict:
    """Bound pairs and transition per half-width, recorded without gating."""
    runs = read_summary(out_dir)["runs"]
    return {key: {"bound_pairs": run["bound_pairs"],
                  "transition_point": run["transition_point"]}
            for key, run in runs.items()}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptspec" / "__init__.py").is_file():
        print(f"error: no ptspec sources under {SRC}; run this from the root "
              f"of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ptspec.harness import cli

    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")

    scratch = OUT / f"run-{os.getpid()}"
    try:
        return _measure(cli, workload, args, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(cli, workload, args, env, scratch: Path) -> int:
    calls = workload.ordered(args.seed)
    reference = workload.reference
    if reference is not None:
        _, (error,) = run_iteration(cli, [reference], scratch)
        problems = check(reference, scratch / reference.name, {})
        if error or problems:
            print(f"error: reference call failed: {error} {problems}",
                  file=sys.stderr)
            return 1
        calls = with_reference(calls, scratch / reference.name)

    # warm-up at a small grid: lazy imports and first-call paths, untimed
    run_iteration(cli, calls, scratch / "warmup", warmup=True, probes=[])

    tracer = Tracer()
    walls = {False: [], True: []}
    # untraced runs: seconds of every call in order, and the probes around
    # them (call j ran between probes j and j + 1)
    call_s, probes = [], []
    setup = []
    layer_rows = []
    attempted = failed = 0
    problems_seen = []
    outputs = {}
    start = next_setup = time.perf_counter()
    it = 0
    while True:
        traced = bool(args.trace) and it % 2 == 1
        out_dir = scratch / f"it{it}"
        if traced:
            tracer.iteration = it
            layers.install(tracer)
        try:
            seconds, errors = run_iteration(
                cli, calls, out_dir, probes=None if args.trace else probes)
        finally:
            tracer.restore()
        wall = sum(seconds)
        walls[traced].append(wall)
        call_s.extend(seconds)

        for call, error in zip(calls, errors):
            call_dir = out_dir / call.name
            problems = ([error] if error else []) + check(call, call_dir, call.expected)
            attempted += 1
            if problems:
                failed += 1
                problems_seen.append(f"iteration {it} {call.name}: {problems}")
            elif it == 0:
                outputs[call.name] = call_outputs(call_dir)
                # the check must reject a deliberately wrong expectation
                if call.wrong and not check(call, call_dir, call.wrong):
                    failed += 1
                    problems_seen.append(f"self-check: {call.name} accepted "
                                         f"a wrong expected value")
        if traced:
            layer_rows.append(layers.iteration_metrics(
                tracer, it, wall, dir_bytes(out_dir)))
        shutil.rmtree(out_dir, ignore_errors=True)
        if not args.trace and time.perf_counter() >= next_setup:
            # spread over the run, so set-up sees the same host as the calls
            setup.append(measure_setup())
            next_setup += args.seconds / SETUP_SAMPLES

        it += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True])
        enough = (len(walls[False]) >= MIN_ITERATIONS
                  and (not args.trace or len(walls[True]) >= MIN_ITERATIONS))
        if enough and elapsed + typical > args.seconds:
            break
    while not args.trace and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    scaled_walls = []
    if not args.trace:
        probes.append(hostspeed.probe())
        scaled = hostspeed.scaled(call_s, probes)
        per = len(calls)
        scaled_walls = [sum(scaled[i:i + per]) for i in range(0, len(scaled), per)]

    if args.trace:
        metrics = layers.median_metrics(layer_rows)
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        units = layers.METRICS
    else:
        metrics = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    correct = failed == 0
    for line in problems_seen[:MAX_FAIL_LINES]:
        print(f"# FAIL {line}"[:500])
    if len(problems_seen) > MAX_FAIL_LINES:
        print(f"# FAIL ... {len(problems_seen) - MAX_FAIL_LINES} more in the record")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} calls)")
    if not args.trace:
        print(f"# unscaled wall median {statistics.median(walls[False]):.6g} s; "
              f"probe median {statistics.median(probes):.6g} s, reference "
              f"{hostspeed.REFERENCE_S:g} s")
    print(f"# check {'pass' if correct else 'FAIL'}; wall_s samples "
          f"untraced {len(walls[False])} traced {len(walls[True])}; "
          f"setup_s samples {len(setup)}; "
          f"outputs {json.dumps(outputs, sort_keys=True)}")
    if tracer.missing:
        print(f"# wrap points not found (layers report 0): {tracer.missing}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "order": [c.name for c in calls], "env": env,
        "walls": {"untraced": walls[False], "traced": walls[True],
                  "scaled": scaled_walls},
        "probes": probes,
        "setup_samples": setup, "outputs": outputs, "problems": problems_seen,
        "metrics": metrics, "missing_wrap_points": tracer.missing,
        "spans": tracer.to_json(),
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}_seed{args.seed}_trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
