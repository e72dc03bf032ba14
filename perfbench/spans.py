"""Spans for the traced pass, recorded around the package's layer boundaries.

The package is not instrumented.  ``patched`` replaces module attributes
(``specgame.sweep.sample_channel``, ``specgame.equilibria.solve_beta_star``,
``specgame.game.utility`` and the rest of ``TARGETS``) with wrappers that
append one span per call to a ``SpanRecorder``: a name, start and end in
``perf_counter_ns`` and the index of the enclosing span.  The attributes are
the ones the package looks up at call time, so the wrappers see every call
the sweep makes.  Spans stay in memory until ``write`` saves them.

A span's name is ``<layer>.<function>``; the layer is the package module the
function belongs to, whichever module the call goes through.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module whose attribute is replaced, attribute, span name)
TARGETS = (
    ("specgame.config", "load_sweep_config", "config.load_sweep_config"),
    ("specgame.efficiency", "solve_gamma_star", "efficiency.solve_gamma_star"),
    ("specgame.sweep", "run_sweep", "sweep.run_sweep"),
    ("specgame.sweep", "run_trial", "sweep.run_trial"),
    ("specgame.sweep", "write_trial_csv", "sweep.write_trial_csv"),
    ("specgame.sweep", "write_aggregate_csv", "sweep.write_aggregate_csv"),
    ("specgame.sweep", "sample_channel", "channel.sample_channel"),
    ("specgame.sweep", "best_two_carriers", "channel.best_two_carriers"),
    ("specgame.equilibria", "best_two_carriers", "channel.best_two_carriers"),
    ("specgame.equilibria", "nash_solve", "equilibria.nash_solve"),
    ("specgame.equilibria", "stackelberg_solve", "equilibria.stackelberg_solve"),
    ("specgame.equilibria", "social_optimum", "equilibria.social_optimum"),
    ("specgame.equilibria", "solve_beta_star", "efficiency.solve_beta_star"),
    ("specgame.equilibria", "single_carrier_allocation", "game.single_carrier_allocation"),
    ("specgame.game", "sinr", "game.sinr"),
    ("specgame.game", "utility", "game.utility"),
)
LAYERS = ("channel", "efficiency", "game", "equilibria", "sweep")
BETA_STAR = "efficiency.solve_beta_star"


class SpanRecorder:
    """Spans in four parallel lists, plus how many beta* solves found a root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.roots_found = 0
        self._open = [-1]

    def __len__(self):
        return len(self.names)

    def wrap(self, name, fn):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1])
            ends.append(0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            return result

        return traced

    def wrap_beta_star(self, fn):
        """``wrap`` for ``solve_beta_star``, also counting calls that return a root."""

        def counted(*args, **kwargs):
            root = fn(*args, **kwargs)
            self.roots_found += root is not None
            return root

        return self.wrap(BETA_STAR, counted)

    def write(self, path) -> None:
        """Save every span as ``id,name,start_ns,end_ns,parent`` CSV rows."""
        with open(path, "w") as fh:
            fh.write("id,name,start_ns,end_ns,parent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i},{row[0]},{row[1]},{row[2]},{row[3]}\n")


@contextmanager
def patched(recorder: SpanRecorder):
    """Route every ``TARGETS`` attribute through ``recorder`` until exit."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if name == BETA_STAR:
                setattr(module, attr, recorder.wrap_beta_star(original))
            else:
                setattr(module, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanTable:
    """Durations and self times of the spans recorded from index ``first``.

    Durations are divided by ``slowdown``, the host slowdown measured around
    the traced work, so they read like the benchmark's scaled rates.
    """

    def __init__(self, rec: SpanRecorder, first: int, slowdown: float = 1.0):
        starts = np.array(rec.starts[first:], dtype=np.int64)
        ends = np.array(rec.ends[first:], dtype=np.int64)
        parents = np.array(rec.parents[first:], dtype=np.int64) - first
        self.duration = (ends - starts) / slowdown
        nested = parents >= 0
        child_time = np.zeros_like(self.duration)
        np.add.at(child_time, parents[nested], self.duration[nested])
        # one thread, so children never overlap: their sum is the covered time
        self.self_time = self.duration - child_time
        self.top_level_ns = float(self.duration[~nested].sum())
        names = np.array(rec.names[first:], dtype=str)
        self._index = {n: np.flatnonzero(names == n) for n in np.unique(names)}
        self.layer_self_ns = {
            layer: float(sum(self.self_time[idx].sum() for n, idx in self._index.items()
                             if n.split(".", 1)[0] == layer))
            for layer in LAYERS
        }

    def calls(self, name) -> int:
        return len(self._index.get(name, ()))

    def total_us(self, name) -> float:
        return float(self.duration[self._index.get(name, [])].sum()) / 1e3

    def self_us(self, name) -> float:
        return float(self.self_time[self._index.get(name, [])].sum()) / 1e3

    def percentile_us(self, name, q) -> float:
        """Per-call duration percentile; 0 when the function was not called."""
        idx = self._index.get(name)
        if idx is None:
            return 0.0
        return float(np.percentile(self.duration[idx], q)) / 1e3
