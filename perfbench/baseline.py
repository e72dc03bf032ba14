"""Record the benchmark's baseline: every workload on ten seeds, plus one traced run.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py

It writes ``perfbench/BASELINE.json``.  For each workload and end-to-end
metric it stores the values of seeds 1 to 10, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) / median``,
and prints that spread against the metric's bound in ``BENCHMARK.json``.  The median wall-clock rate of each run is stored too,
to show what the host-speed scaling removes.  The traced run's per-layer
metrics and the machine (CPU model, core count, Python and numpy versions)
are stored alongside.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def bench(workload, seed, trace) -> tuple[dict, list[str]]:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stdout}{done.stderr}")
    return result, done.stdout.splitlines()


def machine() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    record = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "seeds": list(SEEDS), "end_to_end": {},
              "unscaled_wall_trials_per_s": {}, "per_layer": {}}
    for wl in SPEC["workloads"]:
        name = wl["name"]
        values, wall_medians = {}, []
        for seed in record["seeds"]:
            start = time.monotonic()
            result, lines = bench(name, seed, 0)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            wall = [float(x) for line in lines if line.startswith("wall-clock trials/s:")
                    for x in line.split(":", 1)[1].split()]
            wall_medians.append(statistics.median(wall))
            print(f"{name} seed {seed}: {time.monotonic() - start:.1f} s "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items())
                  + f" unscaled_trials_per_s={wall_medians[-1]:.5g}", flush=True)
        record["end_to_end"][name] = {k: spread(v) for k, v in values.items()}
        record["unscaled_wall_trials_per_s"][name] = spread(wall_medians)
        for metric, s in record["end_to_end"][name].items():
            bound = bounds[metric]
            verdict = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"{verdict} {name} {metric}: median {s['median']:.5g} spread "
                  f"{s['spread']:.4f} (bound {bound}, third {bound / 3:.4f})", flush=True)
        traced, _ = bench(name, record["seeds"][0], 1)
        record["per_layer"][name] = {k: m["value"] for k, m in traced["metrics"].items()}
    (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
