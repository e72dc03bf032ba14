"""Seeded Monte Carlo sweeps over correlated fading draws.

Each trial is keyed by ``(seed, trial_index)`` through a counter-based
generator, so any trial can be recomputed in isolation and the grid can be
split across processes freely.  Aggregation always runs over the trials
in trial order, which makes the output byte-identical for every worker
count.  Reusing the same trial indices across grid cells is deliberate:
cells share underlying fading draws, so curves over ``rho`` and ``theta``
are paired comparisons rather than independent resamples.

``run_sweep`` solves each cell on arrays (``equilibria.solve_rows``), a
chunk of trials at a time; ``run_trial`` is the one-trial case of the same
pass.  f is evaluated with the rounding of a scalar evaluation
(``EfficiencyModel.value_each``), so a trial's numbers do not depend on
the chunk it is solved in.  A sweep calls no public solver, so a solver
patched onto :mod:`specgame.equilibria` never reaches it.

Per-trial results stay in those arrays.  ``SweepResult.trials`` is a
``TrialTable``, which builds a ``TrialRecord`` only when one is read, and
``write_trial_csv`` formats the trial CSV straight from the arrays.

The per-trial spectral efficiency is the per-user average
``(1/2) * sum_n log2(1 + SINR_n)``; under full orthogonalization at
``gamma_star`` it equals ``log2(1 + gamma_star)``, the scale of the
analytic floors in :mod:`specgame.analysis`.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import equilibria
from .channel import CorrelationSpec, sample_gains
# bound here only so that perfbench's traced pass can wrap them on this module
from .channel import best_two_carriers, sample_channel  # noqa: F401
from .efficiency import EfficiencyModel, ExponentialEfficiency
from .errors import ConfigError
from .game import check_sigma2_and_rates

MODES = tuple(equilibria.SOLVERS)
WORKERS_ENV = "SPECGAME_WORKERS"
SEED_MAX = 2**64 - 1  # the seed is one uint64 word of the Philox key
# trials per batched chunk are chosen so that its normals, and with the
# social mode its (trials, K, K) score, stay within this many bytes
_CHUNK_BYTES = 256 * 1024

# trials a TrialTable builds records for, or write_trial_csv formats, at once
_PIECE_TRIALS = 2048
# every float in CSV and command-line output: 9 significant digits
_FLOAT_SPEC = ".9g"
_F = "%" + _FLOAT_SPEC

AGGREGATE_HEADER = (
    "K,rho,theta,mode,trials,p_no_orth,p_no_orth_se,"
    "ee_mean,ee_user1,ee_user2,se_mean,welfare_mean"
)
TRIAL_HEADER = (
    "trial,K,rho,theta,mode,kind,orthogonalized,carrier1,carrier2,"
    "power1,power2,sinr1,sinr2,utility1,utility2,welfare,se,system_ee"
)
_AGGREGATE_ROW = ",".join(["%d", _F, _F, "%s", "%d"] + [_F] * 7) + "\n"
# the trial row after its cell's K, rho, theta and mode: kind, orthogonalized,
# the two 1-based carriers, then powers, SINRs, utilities, welfare, SE and EE
_TRIAL_ROW_TAIL = ",".join(["%s", "%s", "%d", "%d"] + [_F] * 9) + "\n"


@dataclass(frozen=True)
class SweepConfig:
    """Grid definition for one sweep: channel sizes, correlations, game."""

    K_list: tuple[int, ...]
    rho_list: tuple[float, ...] = (0.0,)
    theta_list: tuple[float, ...] = (0.0,)
    trials: int = 10_000
    seed: int = 0
    sigma2: float = 1.0
    rates: tuple[float, float] = (1.0, 1.0)
    efficiency: EfficiencyModel = ExponentialEfficiency(M=100)
    modes: tuple[str, ...] = MODES
    mean_gain: float = 1.0

    def __post_init__(self):
        for name in ("K_list", "rho_list", "theta_list", "rates", "modes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.K_list:
            raise ConfigError("K_list must be non-empty")
        for k in self.K_list:
            if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 2:
                raise ConfigError(f"K_list entries must be integers >= 2, got {k!r}")
        if not self.rho_list or not self.theta_list:
            raise ConfigError("rho_list and theta_list must be non-empty")
        for rho in self.rho_list:
            for theta in self.theta_list:
                CorrelationSpec(rho, theta, self.mean_gain)  # range checks
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed <= SEED_MAX:
            raise ConfigError(
                f"seed must be an integer in [0, 2**64 - 1], got {self.seed!r}"
            )
        check_sigma2_and_rates(self.sigma2, self.rates)
        if not self.modes:
            raise ConfigError("modes must be non-empty")
        if len(set(self.modes)) != len(self.modes):
            raise ConfigError(f"duplicate modes: {self.modes!r}")
        for mode in self.modes:
            if mode not in MODES:
                raise ConfigError(f"unknown mode {mode!r}; choose from {MODES}")


@dataclass(frozen=True)
class ModeStats:
    """One solved game inside one trial, flattened to plain numbers."""

    mode: str
    kind: str
    orthogonalized: bool
    carriers: tuple[int, int]
    powers: tuple[float, float]
    sinrs: tuple[float, float]
    utilities: tuple[float, float]
    welfare: float
    se: float
    system_ee: float
    divergent: bool


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    K: int
    rho: float
    theta: float
    best_carriers: tuple[int, int]
    second_carriers: tuple[int, int]
    best_gains: tuple[float, float]
    second_gains: tuple[float, float]
    stats: tuple[ModeStats, ...]


@dataclass(frozen=True)
class AggregateStats:
    """Per-cell, per-mode averages over all trials."""

    K: int
    rho: float
    theta: float
    mode: str
    trials: int
    p_no_orth: float
    p_no_orth_se: float
    ee_mean: float
    ee_user1: float
    ee_user2: float
    se_mean: float
    welfare_mean: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    aggregates: tuple[AggregateStats, ...]
    # per-trial results of ``per_trial=True``: TrialRecords built on access
    trials: TrialTable | None = None


_KIND_NAMES = np.array(equilibria.KINDS, dtype=object)


class _ModeColumns(NamedTuple):
    """One mode's outcomes on consecutive trials, plus the per-trial SE and EE."""

    outcomes: equilibria.RowOutcomes
    se: np.ndarray
    system_ee: np.ndarray


class _SpanColumns(NamedTuple):
    """Consecutive trials of one cell as arrays; per-user fields have shape (2, n)."""

    best: np.ndarray
    second: np.ndarray
    best_gains: np.ndarray
    second_gains: np.ndarray
    modes: tuple[_ModeColumns, ...]


def _mode_columns(outcomes, f, rates) -> _ModeColumns:
    """One mode's outcomes with the per-trial SE and system EE."""
    s0, s1 = outcomes.sinrs
    p0, p1 = outcomes.powers
    rate_sum = rates[0] * f.value_each(s0) + rates[1] * f.value_each(s1)
    return _ModeColumns(
        outcomes=outcomes,
        se=0.5 * (np.log2(1.0 + s0) + np.log2(1.0 + s1)),
        system_ee=rate_sum / (p0 + p1),
    )


def _chunk_trials(config: SweepConfig, K: int) -> int:
    per_trial = 16 * (3 + 3 * K)  # normals: (3 + 3K, 2) float64
    if "social" in config.modes:
        per_trial = max(per_trial, 8 * K * K)
    return max(1, _CHUNK_BYTES // per_trial)


def _solve_chunk(config, spec, K, start, stop) -> _SpanColumns:
    rows = equilibria.GameRows(
        gains=sample_gains(K, spec, config.seed, start, stop),
        sigma2=config.sigma2,
        rates=config.rates,
        efficiency=config.efficiency,
    )
    return _SpanColumns(
        best=rows.best,
        second=rows.second,
        best_gains=rows.best_gains,
        second_gains=rows.second_gains,
        modes=tuple(
            _mode_columns(equilibria.solve_rows(mode, rows), config.efficiency, rows.rates)
            for mode in config.modes
        ),
    )


def _joined(parts):
    """Concatenate the arrays of consecutive spans along the trial axis."""
    head = parts[0]
    if len(parts) == 1:
        return head
    if isinstance(head, tuple):  # the NamedTuples above, or the tuple of modes
        joined = [_joined(list(group)) for group in zip(*parts)]
        return head._make(joined) if hasattr(head, "_make") else tuple(joined)
    return np.concatenate(parts, axis=-1)


def _run_span(args) -> _SpanColumns:
    """Trials ``start`` to ``stop - 1`` of one cell, solved chunk by chunk."""
    config, K, rho, theta, start, stop = args
    spec = CorrelationSpec(rho_carrier=rho, theta_user=theta, mean_gain=config.mean_gain)
    step = _chunk_trials(config, K)
    return _joined([
        _solve_chunk(config, spec, K, lo, min(lo + step, stop))
        for lo in range(start, stop, step)
    ])


def _records(
    modes, K, rho, theta, cols: _SpanColumns, lo, hi, first=0
) -> list[TrialRecord]:
    """The TrialRecords of columns ``lo`` to ``hi - 1`` of ``cols``, in order;
    column 0 holds trial ``first``."""
    per_mode = []
    for mode, m in zip(modes, cols.modes):
        o = m.outcomes
        per_mode.append([
            ModeStats(
                mode=mode, kind=kind, orthogonalized=c0 != c1, carriers=(c0, c1),
                powers=(p0, p1), sinrs=(s0, s1), utilities=(u0, u1),
                welfare=u0 + u1, se=se, system_ee=ee, divergent=divergent,
            )
            for kind, c0, c1, p0, p1, s0, s1, u0, u1, se, ee, divergent in zip(
                _KIND_NAMES[o.kind[lo:hi]].tolist(),
                *o.carriers[:, lo:hi].tolist(), *o.powers[:, lo:hi].tolist(),
                *o.sinrs[:, lo:hi].tolist(), *o.utilities[:, lo:hi].tolist(),
                m.se[lo:hi].tolist(), m.system_ee[lo:hi].tolist(),
                o.divergent[lo:hi].tolist(),
            )
        ])
    return [
        TrialRecord(
            trial_index=t, K=K, rho=rho, theta=theta,
            best_carriers=tuple(b), second_carriers=tuple(s),
            best_gains=tuple(bg), second_gains=tuple(sg), stats=stats,
        )
        for t, (b, s, bg, sg, stats) in enumerate(zip(
            cols.best[:, lo:hi].T.tolist(), cols.second[:, lo:hi].T.tolist(),
            cols.best_gains[:, lo:hi].T.tolist(), cols.second_gains[:, lo:hi].T.tolist(),
            zip(*per_mode),
        ), first + lo)
    ]


def run_trial(
    config: SweepConfig, K: int, rho: float, theta: float, trial_index: int
) -> TrialRecord:
    """Sample one channel and solve every requested mode on it: the one-trial
    span of a sweep."""
    if K < 2 or trial_index < 0:
        raise ConfigError(f"need K >= 2 and trial_index >= 0, got {K!r}, {trial_index!r}")
    cols = _run_span((config, K, rho, theta, trial_index, trial_index + 1))
    return _records(config.modes, K, rho, theta, cols, 0, 1, first=trial_index)[0]


class TrialTable(Sequence):
    """Per-trial results of a sweep: a read-only sequence of TrialRecords in
    grid-then-trial order.

    The table keeps each cell's result arrays, and builds a record, equal to
    what ``run_trial`` returns for that trial, only when it is read:
    ``len``, integer indexing (negative too) and iteration, which builds a
    bounded piece of a cell at a time.  ``write_trial_csv`` formats straight
    from the arrays and builds no record.
    """

    def __init__(self, modes, cells):
        self._modes = tuple(modes)
        self._cells = tuple(cells)  # (K, rho, theta, _SpanColumns) per grid cell
        self._ends = list(itertools.accumulate(c[3].best.shape[1] for c in self._cells))

    def __len__(self):
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, index):
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"trial index {index} out of range for {len(self)} trials")
        c = bisect.bisect_right(self._ends, i)
        t = i - (self._ends[c - 1] if c else 0)
        return _records(self._modes, *self._cells[c], t, t + 1)[0]

    def __iter__(self):
        for cell in self._cells:
            n = cell[3].best.shape[1]
            for lo in range(0, n, _PIECE_TRIALS):
                yield from _records(self._modes, *cell, lo, min(lo + _PIECE_TRIALS, n))


def _aggregate_cell(config, K, rho, theta, cols: _SpanColumns):
    rows = []
    n = cols.best.shape[1]
    for mode, m in zip(config.modes, cols.modes):
        o = m.outcomes
        p = int(np.count_nonzero(o.carriers[0] == o.carriers[1])) / n
        rows.append(
            AggregateStats(
                K=K,
                rho=rho,
                theta=theta,
                mode=mode,
                trials=n,
                p_no_orth=p,
                p_no_orth_se=float(np.sqrt(p * (1.0 - p) / n)),
                ee_mean=float(np.mean(m.system_ee)),
                ee_user1=float(np.mean(o.utilities[0])),
                ee_user2=float(np.mean(o.utilities[1])),
                se_mean=float(np.mean(m.se)),
                welfare_mean=float(np.mean(o.utilities[0] + o.utilities[1])),
            )
        )
    return rows


def _resolve_workers(workers) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is None:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if (
        not isinstance(workers, (int, np.integer)) or isinstance(workers, bool)
        or workers < 1
    ):
        raise ConfigError(f"worker count must be an integer >= 1, got {workers!r}")
    return int(workers)


def run_sweep(
    config: SweepConfig, per_trial: bool = False, workers: int | None = None
) -> SweepResult:
    """Run the full (K, rho, theta) grid and aggregate per mode.

    ``workers`` falls back to the ``SPECGAME_WORKERS`` environment variable,
    then to 1 (inline, no subprocesses).  Results are byte-identical for
    every worker count; ``per_trial=True`` additionally keeps every trial,
    in grid-then-trial order, as a ``TrialTable``.

    Each cell is solved on arrays, a chunk of trials at a time, with the
    same numbers ``run_trial`` gives trial by trial.  With workers, every
    cell's spans go to the pool in one ``map``, so cells do not wait for
    each other, and come back as arrays.  No TrialRecord is built here: the
    table keeps each cell's arrays and builds a record when it is read.
    """
    workers = _resolve_workers(workers)
    cells = [
        (K, rho, theta)
        for K in config.K_list
        for rho in config.rho_list
        for theta in config.theta_list
    ]
    aggregates: list[AggregateStats] = []
    kept = []

    def _consume(solved):
        for (K, rho, theta), cols in zip(cells, solved):
            aggregates.extend(_aggregate_cell(config, K, rho, theta, cols))
            if per_trial:
                kept.append((K, rho, theta, cols))

    if workers == 1:
        _consume(
            _run_span((config, K, rho, theta, 0, config.trials)) for K, rho, theta in cells
        )
    else:
        span = -(-config.trials // (workers * 4))  # ceil; ~4 spans per worker
        spans = [
            (s, min(s + span, config.trials))
            for s in range(0, config.trials, span)
        ]
        args = [(config, K, rho, theta, s, e) for K, rho, theta in cells for s, e in spans]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = pool.map(_run_span, args)
            _consume(_joined(list(itertools.islice(batches, len(spans)))) for _ in cells)
    return SweepResult(
        config=config,
        aggregates=tuple(aggregates),
        trials=TrialTable(config.modes, kept) if per_trial else None,
    )


def _fmt(value: float) -> str:
    """Every float in CSV and command-line output: 9 significant digits."""
    return format(float(value), _FLOAT_SPEC)


def write_aggregate_csv(rows, path) -> None:
    """One row per (K, rho, theta, mode); floats at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(AGGREGATE_HEADER + "\n")
        fh.writelines(
            _AGGREGATE_ROW % (
                r.K, r.rho, r.theta, r.mode, r.trials, r.p_no_orth, r.p_no_orth_se,
                r.ee_mean, r.ee_user1, r.ee_user2, r.se_mean, r.welfare_mean,
            )
            for r in rows
        )


def write_trial_csv(trials: TrialTable, path) -> None:
    """One row per (trial, mode) of a sweep's ``TrialTable``; carriers are
    1-based in the file.

    Rows are formatted straight from each cell's arrays, one ``%`` template
    a row, and written a bounded piece of trials at a time; no TrialRecord
    is built.
    """
    with open(path, "w", newline="") as fh:
        fh.write(TRIAL_HEADER + "\n")
        for K, rho, theta, cols in trials._cells:
            cell = f"{K},{_fmt(rho)},{_fmt(theta)},"
            templates = ["%d," + cell + mode + "," + _TRIAL_ROW_TAIL for mode in trials._modes]
            n = cols.best.shape[1]
            for lo in range(0, n, _PIECE_TRIALS):
                hi = min(lo + _PIECE_TRIALS, n)
                per_mode = [zip(range(lo, hi), *_trial_columns(m, lo, hi)) for m in cols.modes]
                fh.write("".join([
                    template % row
                    for rows in zip(*per_mode)
                    for template, row in zip(templates, rows)
                ]))


def _trial_columns(m: _ModeColumns, lo, hi):
    """One mode's trial-CSV fields after the trial index, as lists over
    trials ``lo`` to ``hi - 1``."""
    o = m.outcomes
    c0, c1 = o.carriers[:, lo:hi]
    u0, u1 = o.utilities[:, lo:hi]
    return (
        _KIND_NAMES[o.kind[lo:hi]].tolist(),
        np.where(c0 != c1, "true", "false").tolist(),
        (c0 + 1).tolist(), (c1 + 1).tolist(),
        *o.powers[:, lo:hi].tolist(), *o.sinrs[:, lo:hi].tolist(),
        u0.tolist(), u1.tolist(), (u0 + u1).tolist(),
        m.se[lo:hi].tolist(), m.system_ee[lo:hi].tolist(),
    )
