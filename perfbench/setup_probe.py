"""One set-up of the benchmark, timed from the parent process.

Usage: ``python3 setup_probe.py SRC_DIR SWEEP_JSON``.  Imports ``specgame``
from SRC_DIR, loads the sweep config and solves its gamma_star, then prints
the CLOCK_MONOTONIC time in nanoseconds.  The parent reads the same clock
before it starts this interpreter, so the difference covers interpreter
start, imports, config parsing and the first root solve.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import specgame  # noqa: E402,F401  (the package import is part of set-up)
from specgame.config import load_sweep_config  # noqa: E402

load_sweep_config(sys.argv[2]).efficiency.gamma_star
print(time.monotonic_ns())
