"""Host-speed probe: a fixed piece of work that runs none of ptspec's code.

On a shared 2-vCPU VM host the same code runs up to about 1.7 times
slower in phases that last from seconds to minutes.  CPU time
tracks wall time through them, so the process is not waiting: the host
itself runs slower.  Medians over one run cannot remove a phase that
covers most of the run.  So the benchmark times this probe between CLI
calls, outside their timing, and scales each call's wall time by
``REFERENCE_S / probe time``.  A change to ptspec cannot move the probe,
so every change the program makes to its own time is still measured in
full.

The probe has two parts of about equal time: interpreter-bound Python
(like the mpmath QR of the extended path and the loops of the
inverse-iteration fetches) and a LAPACK eigensolve (like zgeev in the
double path).  A third part, short numpy operations driven from a Python
loop, was tried and dropped: its time swung with the host's phases more
than either workload's did, so scaling by it overcorrected.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

# A round figure near the probe's time in the host's fast phase on the
# reference machine (a 2-vCPU Intel Xeon VM, OpenBLAS with 2 threads; the
# low decile of 400 probes read 0.102 s).  Scaled times read as seconds on
# that machine in that phase.
REFERENCE_S = 0.100

_rng = np.random.default_rng(20020417)
_MATRIX = _rng.standard_normal((180, 180)) + 1j * _rng.standard_normal((180, 180))


def _interpreter() -> int:
    acc = 0
    for i in range(375_000):
        acc = (acc + i * i) % 1_000_003
    return acc


def _lapack() -> int:
    return len(np.linalg.eigvals(_MATRIX))


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _interpreter()
    _lapack()
    return time.perf_counter() - t0


def scaled(call_s: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Each call's seconds at reference host speed.

    Call ``j`` ran between probes ``j`` and ``j + 1``; the host's speed
    during it is taken as the mean of the two.
    """
    if len(probes) != len(call_s) + 1:
        raise ValueError(f"{len(call_s)} calls need {len(call_s) + 1} probes, "
                         f"got {len(probes)}")
    return [t * REFERENCE_S / statistics.fmean(probes[j:j + 2])
            for j, t in enumerate(call_s)]
