"""Sweep benchmark for specgame: throughput, set-up time and memory per workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's sweep config is generated from ``--seed`` and written to
``perfbench/out/<workload>-seed<N>/sweep.json``; the package sees only the
``SweepConfig`` loaded from it.  Repetitions of one ``run_sweep`` plus its
CSV writes run until ``--seconds`` have passed, then the outputs are checked.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``trials_per_s``: trials per second at reference host speed, the median
  over repetitions.  A repetition's wall-clock rate (the clock stops once
  its CSVs are written; a trial is one channel draw solved in every
  configured mode) is multiplied by the host slowdown that ``hostspeed``
  measures just before and after it, which takes the load of other tenants
  out of the figure.  The wall-clock rates are printed too.
* ``setup_s``: median over nine fresh interpreters, spread over the run,
  each importing ``specgame``, loading the config and solving the first
  gamma_star.  Each probe is divided by the start-up of a bare interpreter
  importing numpy, run just before it, and multiplied by that start-up's
  nominal time (see ``hostspeed``).
* ``peak_rss_mb``: peak resident memory of this process plus, for pool
  workloads, the summed peaks of the pool workers (shared pages count in
  each process).

With ``--trace 1`` it reports the per-layer metrics of one traced repetition
(see ``spans.py``), the outcome counts of the validation pass, and the
tracing overhead.  Span times are divided by the host slowdown measured
around the traced repetition, like the rates.  Spans are written to ``spans.csv`` in the output folder.

Exit status: 0 when every output check passes, 1 when one fails, 2 when the
package sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 9
MIN_REPS = 3
AGGREGATE_CSV = "aggregate.csv"
TRIAL_CSV = "aggregate.trials.csv"


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    lines: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def summary(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()},
        }


def one_rep(config, per_trial, workers, out):
    """One timed sweep plus its CSV writes; returns (seconds, result)."""
    from specgame import sweep

    start = time.perf_counter()
    result = sweep.run_sweep(config, per_trial=per_trial, workers=workers)
    sweep.write_aggregate_csv(result.aggregates, out / AGGREGATE_CSV)
    if per_trial:
        sweep.write_trial_csv(result.trials, out / TRIAL_CSV)
    return time.perf_counter() - start, result


def digests(out) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }


@dataclass
class Timing:
    """Per-repetition rates and set-up times, raw and divided by host slowdown."""

    wall_rates: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    wall_setups: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    slowdowns: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    aggregates: tuple = ()


def around(measure):
    """Run ``measure`` between two host-speed readings: (value, mean slowdown)."""
    before = hostspeed.slowdown()
    value = measure()
    return value, (before + hostspeed.slowdown()) / 2.0


def timed_reps(config, wl, out, seconds, probe=None, probes=0) -> Timing:
    """Repeat the workload for ``seconds`` of timed work.

    Each repetition is scaled by the host slowdown measured on either side
    of it, and each set-up probe by a bare interpreter started just before
    it.  ``probe`` (the set-up probe) runs ``probes`` times, spread evenly
    over the run between repetitions and outside their timing.
    """
    t = Timing()
    busy = 0.0
    while len(t.rates) < MIN_REPS or busy < seconds:
        while len(t.setups) < probes and busy >= len(t.setups) * seconds / probes:
            bare = hostspeed.bare_interpreter_seconds()
            wall = probe()
            t.wall_setups.append(wall)
            t.setups.append(wall / bare * hostspeed.BARE_NOMINAL_S)
        (elapsed, result), factor = around(
            lambda: one_rep(config, wl.per_trial, wl.workers, out)
        )
        # keep only what the sharing check reads, so no repetition's records
        # are alive while the next one builds its own
        t.aggregates = result.aggregates
        del result
        busy += elapsed
        t.slowdowns.append(factor)
        t.wall_rates.append(wl.trials / elapsed)
        t.rates.append(wl.trials / elapsed * factor)
        t.digests.append(digests(out))
    return t


def setup_seconds(config_path) -> float:
    start = time.monotonic_ns()
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(config_path)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return (int(done.stdout.split()[-1]) - start) / 1e9


def _vm_hwm_kb(pid) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


@dataclass
class PoolLog:
    """Per sweep pool: its workers' summed peak RSS (kB) and bytes they sent."""

    peaks_kb: list = field(default_factory=list)
    sent_bytes: list = field(default_factory=list)


@contextmanager
def watched_pools(log: PoolLog, count_sent: bool):
    """Record every sweep pool in ``log`` until exit.

    Replaces ``specgame.sweep.ProcessPoolExecutor`` with a subclass that
    reads every worker's VmHWM just before the pool shuts its workers down.
    With ``count_sent`` the first pool's ``map`` also re-pickles each batch
    a worker returns, as the pool pickled it, and adds up the sizes.  That
    costs the parent time, so only the traced pass asks for it, and only one
    repetition pays it.
    """
    from multiprocessing.reduction import ForkingPickler

    from specgame import sweep

    base = sweep.ProcessPoolExecutor

    class WatchedPool(base):
        sent = 0

        def map(self, fn, *iterables, **kwargs):
            batches = super().map(fn, *iterables, **kwargs)
            return self._counted(batches) if count_sent and not log.sent_bytes else batches

        def _counted(self, batches):
            for batch in batches:
                self.sent += len(ForkingPickler.dumps(batch))
                yield batch

        def shutdown(self, *args, **kwargs):
            if self._processes:
                log.peaks_kb.append(sum(_vm_hwm_kb(pid) for pid in self._processes))
                log.sent_bytes.append(self.sent)
            super().shutdown(*args, **kwargs)

    sweep.ProcessPoolExecutor = WatchedPool
    try:
        yield log
    finally:
        sweep.ProcessPoolExecutor = base


def run(wl, seed, seconds, trace, out) -> Report:
    import checks
    from specgame import config as sg_config

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "sweep.json"
    config_path.write_text(json.dumps(wl.sweep_mapping(seed), indent=1) + "\n")
    rep = Report()

    config = sg_config.load_sweep_config(config_path)
    config.efficiency.gamma_star  # set-up cost, timed by the probes

    pools = PoolLog()
    with watched_pools(pools, count_sent=trace):
        timing = timed_reps(
            config, wl, out, seconds,
            probe=lambda: setup_seconds(config_path), probes=0 if trace else SETUP_PROBES,
        )
    trials_per_s = statistics.median(timing.rates)
    seen = timing.digests
    rep.lines += [
        f"{wl.name} seed {seed}: {len(seen)} repetitions of {wl.trials} trials, "
        f"modes {','.join(config.modes)}, workers {wl.workers}",
        "wall-clock trials/s: " + " ".join(f"{r:.0f}" for r in timing.wall_rates),
        "host slowdown: " + " ".join(f"{f:.3f}" for f in timing.slowdowns),
    ]
    if timing.wall_setups:
        rep.lines.append("wall-clock set-up s: " + " ".join(f"{s:.3f}" for s in timing.wall_setups))
    if any(d != seen[0] for d in seen):
        rep.problems.append("CSV bytes differ between repetitions")
    for name, digest in seen[0].items():
        rep.lines.append(f"sha256 {name} {digest}")

    inline_rate = trials_per_s
    if wl.workers > 1:
        inline = out / "inline"
        inline.mkdir()
        (elapsed, _), factor = around(lambda: one_rep(config, wl.per_trial, 1, inline))
        inline_rate = wl.trials / elapsed * factor
        if digests(inline) != seen[0]:
            rep.problems.append(f"workers={wl.workers} CSV differs from the inline run")

    for line in checks.sharing_check(config, timing.aggregates):
        rep.lines.append(line)
        if line.startswith("FAIL"):
            rep.problems.append(line)
    v = checks.validate(config)
    rep.attempted, rep.failed = v.attempted, v.failed
    rep.problems += v.problems
    rep.lines += [f"failed solve: {f}" for f in v.failures]
    rep.lines.append(
        f"ops_failed_frac {v.failed / v.attempted:.6g} ratio "
        f"({v.failed} of {v.attempted} solves)"
    )

    if not trace:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + max(pools.peaks_kb, default=0)
        rep.add("trials_per_s", trials_per_s, "1/s")
        rep.add("setup_s", statistics.median(timing.setups), "s")
        rep.add("peak_rss_mb", peak_kb / 1024.0, "MiB")
    else:
        rep.add("host.slowdown", statistics.median(timing.slowdowns), "x")
        rep.add("sweep.wall_trials_per_s", statistics.median(timing.wall_rates), "1/s")
        traced(rep, wl, config_path, out, seen[0], trials_per_s, inline_rate, pools)
        for name in checks.COUNT_NAMES:
            rep.add(name, v.counts[name], "count")
        rep.add("equilibria.ops_failed_frac", v.failed / v.attempted, "ratio")
    for name, (value, unit) in rep.metrics.items():
        rep.lines.append(f"{name} {value:.6g} {unit}")
    return rep


def traced(rep, wl, config_path, out, untraced_digests, trials_per_s, inline_rate, pools):
    """One traced repetition (inline for pool workloads) and its layer metrics."""
    import spans
    from specgame import config as sg_config

    rec = spans.SpanRecorder()
    traced_out = out / "traced"
    traced_out.mkdir()
    with spans.patched(rec):
        config = sg_config.load_sweep_config(config_path)
        config.efficiency.gamma_star
        first = len(rec)
        (wall_s, _), factor = around(lambda: one_rep(config, wl.per_trial, 1, traced_out))
    rec.write(out / "spans.csv")
    if digests(traced_out) != untraced_digests:
        rep.problems.append("traced repetition wrote different CSV bytes")

    n = wl.trials
    t = spans.SpanTable(rec, first, factor)
    setup = spans.SpanTable(rec, 0, factor)
    add = rep.add
    add("channel.sample_channel.calls", t.calls("channel.sample_channel"), "count")
    add("channel.sample_channel.us_p50", t.percentile_us("channel.sample_channel", 50), "us")
    add("channel.sample_channel.us_p99", t.percentile_us("channel.sample_channel", 99), "us")
    add("channel.best_two_carriers.calls_per_trial",
        t.calls("channel.best_two_carriers") / n, "calls/trial")
    add("channel.best_two_carriers.us_per_trial",
        t.total_us("channel.best_two_carriers") / n, "us/trial")
    beta = "efficiency.solve_beta_star"
    add(f"{beta}.calls", t.calls(beta), "count")
    add(f"{beta}.calls_per_trial", t.calls(beta) / n, "calls/trial")
    add(f"{beta}.us_p50", t.percentile_us(beta, 50), "us")
    add(f"{beta}.us_p99", t.percentile_us(beta, 99), "us")
    add(f"{beta}.root_found_ratio",
        rec.roots_found / t.calls(beta) if t.calls(beta) else 0.0, "ratio")
    add("efficiency.solve_gamma_star.ms", setup.total_us("efficiency.solve_gamma_star") / 1e3, "ms")
    add("config.load_sweep_config.ms", setup.total_us("config.load_sweep_config") / 1e3, "ms")
    add("game.utility.calls_per_trial", t.calls("game.utility") / n, "calls/trial")
    add("game.utility.us_per_trial", t.total_us("game.utility") / n, "us/trial")
    add("game.sinr.calls_per_trial", t.calls("game.sinr") / n, "calls/trial")
    add("game.single_carrier_allocation.us_per_trial",
        t.total_us("game.single_carrier_allocation") / n, "us/trial")
    for solver in ("nash_solve", "stackelberg_solve", "social_optimum"):
        name = f"equilibria.{solver}"
        add(f"{name}.calls", t.calls(name), "count")
        add(f"{name}.us_p50", t.percentile_us(name, 50), "us")
        add(f"{name}.us_p99", t.percentile_us(name, 99), "us")
        add(f"{name}.self_us_per_trial", t.self_us(name) / n, "us/trial")
    run_trials = t.calls("sweep.run_trial")
    add("sweep.run_trial.self_us",
        t.self_us("sweep.run_trial") / run_trials if run_trials else 0.0, "us")
    add("sweep.run_sweep.self_us_per_trial", t.self_us("sweep.run_sweep") / n, "us/trial")
    add("sweep.write_trial_csv.us_per_trial", t.total_us("sweep.write_trial_csv") / n, "us/trial")
    trial_csv = traced_out / TRIAL_CSV
    add("sweep.write_trial_csv.bytes_per_trial",
        trial_csv.stat().st_size / n if trial_csv.exists() else 0.0, "B/trial")
    add("sweep.write_aggregate_csv.ms", t.total_us("sweep.write_aggregate_csv") / 1e3, "ms")

    add("sweep.records.bytes_per_trial", records_peak_bytes(config, wl) / n, "B/trial")
    # every repetition sends the same batches; 0 when the workload runs inline
    add("sweep.pool.transfer_bytes_per_trial",
        pools.sent_bytes[0] / n if pools.sent_bytes else 0.0, "B/trial")
    add("sweep.pool.speedup", trials_per_s / inline_rate, "x")

    wall_us = wall_s * 1e6 / factor
    for layer in spans.LAYERS:
        add(f"layer.{layer}.self_us_per_trial", t.layer_self_ns[layer] / 1e3 / n, "us/trial")
    add("layer.remainder_us_per_trial", (wall_us - t.top_level_ns / 1e3) / n, "us/trial")
    add("layer.wall_us_per_trial", wall_us / n, "us/trial")
    untraced = trials_per_s if wl.workers == 1 else inline_rate
    add("trace.untraced_trials_per_s", untraced, "1/s")
    add("trace.traced_trials_per_s", n / wall_us * 1e6, "1/s")
    add("trace.overhead_ratio", untraced * wall_us / (n * 1e6), "x")


def records_peak_bytes(config, wl) -> int:
    """tracemalloc peak of one inline sweep with the workload's retention."""
    from specgame import sweep

    tracemalloc.start()
    try:
        result = sweep.run_sweep(config, per_trial=wl.per_trial, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del result
    return peak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "specgame" / "__init__.py").is_file():
        print(f"error: specgame sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    rep = run(wl, args.seed, args.seconds, bool(args.trace), HERE / "out" / f"{wl.name}-seed{args.seed}")
    for line in rep.lines + [f"FAIL {p}" for p in rep.problems]:
        print(line)
    print(json.dumps(rep.summary()))
    return 0 if not rep.problems else 1


if __name__ == "__main__":
    sys.exit(main())
