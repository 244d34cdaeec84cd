#!/usr/bin/env python3
"""Time the double Schur decomposition on 1 and on 2 LAPACK threads.

Run from the root of a checkout of the repository:

    python3 tools/lapack_threads.py --out BENCH_lapack_threads.json

For each N of the ladder the script assembles the real PT form K of
coulomb_regulated A=10 on [-100, 100] and times ``scipy.linalg.schur(K,
output="real")`` -- the call that ``eigensolver.eigenvalues`` runs on one
thread below ``_SERIAL_BELOW`` -- with scipy's OpenBLAS set to 1 and to 2
threads.  Each count is timed two ways: back to back, one solve right
after the other, and after a gap of other work like the benchmark's
host-speed probe (a Python loop, then an eigensolve on numpy's own BLAS),
during which LAPACK's worker threads go idle.  Each figure is the median
of ``--repeats`` solves after one untimed warm-up.  The box K of scarf2
A=0, L=10, N=1023 is also timed with and without Schur vectors, the
latter at scipy's default minimal workspace and at the one LAPACK asks
for, against ``numpy.linalg.eigvals``.

The JSON also records the OpenBLAS build string, the numpy and scipy
versions and the CPU count.  The process's own thread count is restored
on exit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg
from scipy.linalg import _flapack, lapack

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptspec import eigensolver  # noqa: E402
from ptspec.chebdiff import build_grid  # noqa: E402
from ptspec.hamiltonian import assemble  # noqa: E402
from ptspec.potentials import PotentialSpec  # noqa: E402

LADDER = (255, 511, 767, 1023, 1535, 2047)
_rng = np.random.default_rng(20020417)
_GAP_MATRIX = _rng.standard_normal((180, 180)) + 1j * _rng.standard_normal((180, 180))


def gap() -> None:
    """About 0.1 s of work off scipy's LAPACK, like the host-speed probe."""
    acc = 0
    for i in range(375_000):
        acc = (acc + i * i) % 1_000_003
    np.linalg.eigvals(_GAP_MATRIX)


def openblas_config():
    """Build string of the OpenBLAS behind scipy's LAPACK, or None."""
    lib = ctypes.CDLL(_flapack.__file__)
    for name in ("scipy_openblas_get_config", "openblas_get_config"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def matrix(family: str, strength: float, half_width: float, n: int) -> np.ndarray:
    return assemble(build_grid(half_width, n),
                    PotentialSpec(family, strength)).matrix


def median_seconds(fn, repeats: int, before=None) -> float:
    fn()
    samples = []
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def ladder(sizes, repeats: int, set_threads) -> list:
    rows = []
    for n in sizes:
        k = matrix("coulomb_regulated", 10.0, 100.0, n)
        row = {"N": n, "order": k.shape[0]}
        for threads in (1, 2):
            set_threads(threads)
            solve = lambda: scipy.linalg.schur(k, output="real")  # noqa: E731
            row[f"{threads}T"] = {
                "back_to_back_s": median_seconds(solve, repeats),
                "after_gap_s": median_seconds(solve, repeats, before=gap),
            }
            print(f"N={n:5d} {threads}T  back to back "
                  f"{row[f'{threads}T']['back_to_back_s']:.4f} s  after gap "
                  f"{row[f'{threads}T']['after_gap_s']:.4f} s", flush=True)
        rows.append(row)
        del k
    return rows


def schur_vectors(repeats: int) -> dict:
    """Box K at N=1023: dgees with and without Z, and eigvals, in seconds."""
    k = matrix("scarf2", 0.0, 10.0, 1023)
    lwork = int(lapack.dgees(lambda re, im: None, k, lwork=-1)[-2][0].real)

    def no_vectors(**kwargs):
        return lambda: lapack.dgees(lambda re, im: None, k, compute_v=0, **kwargs)

    out = {
        "N": 1023,
        "lwork": lwork,
        "schur_with_z_s": median_seconds(
            lambda: scipy.linalg.schur(k, output="real"), repeats),
        "dgees_without_z_s": median_seconds(no_vectors(lwork=lwork), repeats),
        "dgees_without_z_default_lwork_s": median_seconds(no_vectors(), repeats),
        "eigvals_s": median_seconds(lambda: np.linalg.eigvals(k), repeats),
    }
    print(f"box N=1023: {out}", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_lapack_threads.json"))
    parser.add_argument("--sizes", type=int, nargs="+", default=list(LADDER))
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    controls = eigensolver._openblas_threads()
    if controls is None:
        print("scipy's LAPACK exports no OpenBLAS thread count", file=sys.stderr)
        return 1
    get, put = controls
    before = get()
    try:
        rows = ladder(args.sizes, args.repeats, put)
    finally:
        put(before)
    vectors = schur_vectors(args.repeats)
    record = {
        "workload": "scipy.linalg.schur(K, output='real') of coulomb_regulated "
                    "A=10 L=100; median seconds of --repeats solves",
        "repeats": args.repeats,
        "serial_below": eigensolver._SERIAL_BELOW,
        "ladder": rows,
        "box_schur_vectors": vectors,
        "environment": {
            "openblas_config": openblas_config(),
            "process_threads": before,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
            "cpu_count": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
        },
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
