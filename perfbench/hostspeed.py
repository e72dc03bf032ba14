"""Fixed reference work that measures how fast the host runs right now.

On a shared host the same code runs tens of percent slower for seconds at a
time, with CPU time rising as much as wall time (other tenants contend for
the core, its caches and memory, not for our scheduler slot).  Over
ten-second runs of one workload this moved the median wall-clock trials/s by
up to 30% from run to run, which no choice of median or run length removes.

The benchmark therefore runs this kernel before and after every repetition
and divides each repetition's time by the kernel's slowdown over the same
stretch.  The kernel mixes the operations a sweep trial is made of (a keyed
Philox draw, small numpy reductions and sorts, a frozen dataclass, float
formatting) and uses no ``specgame`` code, so no change to the package can
move it.

Set-up time is dominated by starting an interpreter and importing numpy,
which load the host differently (process creation, page faults, file
reads) and drift by tens of percent on their own.  Each set-up probe is
therefore paired with ``bare_interpreter_seconds``, the same interpreter
importing only numpy, and reported relative to it.

Changing ``_kernel``, ``NOMINAL_S``, the bare interpreter or ``BARE_NOMINAL_S``
rescales the figures the benchmark reports, so none may change once a
baseline is recorded.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

# lower-quartile kernel time on a 2-core Intel Xeon (2.1 GHz), Python 3.11,
# numpy 2.4, so a normalized figure reads like the wall-clock one at that speed
NOMINAL_S = 0.0025
_ROUNDS = 5
# lower-quartile start-up of an interpreter importing numpy on the same host
BARE_NOMINAL_S = 0.15


@dataclass(frozen=True)
class _Row:
    ratio: float
    text: str


def _kernel(n: int = 100) -> float:
    acc = 0.0
    for i in range(n):
        rng = np.random.Generator(np.random.Philox(key=np.array([7, i], dtype=np.uint64)))
        z = rng.standard_normal((12, 2))
        g = z[:, 0] ** 2 + z[:, 1] ** 2
        order = np.argsort(-g, kind="stable")
        p = np.zeros((2, 6))
        p[0, int(order[0]) % 6] = 1.0
        row = _Row(float(g[order[0]]) / float(g[order[1]]), format(acc + p.sum(), ".9g"))
        acc += row.ratio + float(np.log2(1.0 + g[0]))
    return acc


def slowdown() -> float:
    """Median kernel time over a few rounds, relative to ``NOMINAL_S``."""
    times = []
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[_ROUNDS // 2] / NOMINAL_S


def bare_interpreter_seconds() -> float:
    """Start a fresh interpreter that imports numpy; seconds until it is ready."""
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, "-c", "import time, numpy; print(time.monotonic_ns())"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return (int(done.stdout.split()[-1]) - start) / 1e9
