"""Seeded Monte Carlo sweeps over correlated fading draws.

Each trial is keyed by ``(seed, trial_index)`` through a counter-based
generator, so any trial can be recomputed in isolation and the grid can be
split across processes freely.  Aggregation always runs over the trials
in trial order, which makes the output byte-identical for every worker
count.  Reusing the same trial indices across grid cells is deliberate:
cells share underlying fading draws, so curves over ``rho`` and ``theta``
are paired comparisons rather than independent resamples.

``run_sweep`` solves each cell on arrays, a chunk of trials at a time, and
stores exactly what ``run_trial`` stores for every trial: the draws, the
carrier ranking, the closed forms and f are evaluated with the scalar
path's rounding (``EfficiencyModel.value_each``).  A sweep calls no scalar
solver, so a solver patched onto :mod:`specgame.equilibria` never reaches
it.  ``run_trial`` solves one trial the scalar way, looking the solvers up
at call time, and is the reference the batched path is tested against.

The per-trial spectral efficiency is the per-user average
``(1/2) * sum_n log2(1 + SINR_n)``; under full orthogonalization at
``gamma_star`` it equals ``log2(1 + gamma_star)``, the scale of the
analytic floors in :mod:`specgame.analysis`.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import equilibria
from .channel import CorrelationSpec, best_two_carriers, sample_channel, sample_gains
from .efficiency import EfficiencyModel, ExponentialEfficiency
from .errors import ConfigError
from .game import GameInstance, check_sigma2_and_rates

MODES = tuple(equilibria.SOLVERS)
WORKERS_ENV = "SPECGAME_WORKERS"
SEED_MAX = 2**64 - 1  # the seed is one uint64 word of the Philox key
# trials per batched chunk are chosen so that its normals, and with the
# social mode its (trials, K, K) score, stay within this many bytes
_CHUNK_BYTES = 256 * 1024

AGGREGATE_HEADER = (
    "K,rho,theta,mode,trials,p_no_orth,p_no_orth_se,"
    "ee_mean,ee_user1,ee_user2,se_mean,welfare_mean"
)
TRIAL_HEADER = (
    "trial,K,rho,theta,mode,kind,orthogonalized,carrier1,carrier2,"
    "power1,power2,sinr1,sinr2,utility1,utility2,welfare,se,system_ee"
)


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
    trials: tuple[TrialRecord, ...] | None = None


def _mode_stats(mode: str, outcome) -> ModeStats:
    inst = outcome.instance
    f = inst.efficiency
    u0, u1 = outcome.users
    total_power = u0.power + u1.power  # divergent trials carry inf here
    rate_sum = inst.rates[0] * float(f.value(u0.sinr)) + inst.rates[1] * float(
        f.value(u1.sinr)
    )
    se = 0.5 * float(np.log2(1.0 + u0.sinr) + np.log2(1.0 + u1.sinr))
    return ModeStats(
        mode=mode,
        kind=outcome.kind,
        orthogonalized=outcome.orthogonalized,
        carriers=(u0.carrier, u1.carrier),
        powers=(u0.power, u1.power),
        sinrs=(u0.sinr, u1.sinr),
        utilities=(u0.utility, u1.utility),
        welfare=outcome.welfare,
        se=se,
        system_ee=rate_sum / total_power,
        divergent=outcome.divergent,
    )


def run_trial(
    config: SweepConfig, K: int, rho: float, theta: float, trial_index: int
) -> TrialRecord:
    """Sample one channel and solve every requested mode on it."""
    spec = CorrelationSpec(
        rho_carrier=rho, theta_user=theta, mean_gain=config.mean_gain
    )
    channel = sample_channel(K, spec, config.seed, trial_index)
    inst = GameInstance(
        channel=channel,
        sigma2=config.sigma2,
        rates=config.rates,
        efficiency=config.efficiency,
    )
    g = channel.gains
    b1, s1 = best_two_carriers(channel, 0)
    b2, s2 = best_two_carriers(channel, 1)
    stats = tuple(
        _mode_stats(mode, equilibria.solve(mode, inst))
        for mode in config.modes
    )
    return TrialRecord(
        trial_index=trial_index,
        K=K,
        rho=rho,
        theta=theta,
        best_carriers=(b1, b2),
        second_carriers=(s1, s2),
        best_gains=(float(g[0, b1]), float(g[1, b2])),
        second_gains=(float(g[0, s1]), float(g[1, s2])),
        stats=stats,
    )


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
    """Batched ``_mode_stats``: the same operations in the same order."""
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


def _records(config, K, rho, theta, cols: _SpanColumns) -> list[TrialRecord]:
    """The TrialRecords ``run_trial`` returns for the cell's trials, in order."""
    per_mode = []
    for mode, m in zip(config.modes, cols.modes):
        o = m.outcomes
        per_mode.append([
            ModeStats(
                mode=mode, kind=kind, orthogonalized=c0 != c1, carriers=(c0, c1),
                powers=(p0, p1), sinrs=(s0, s1), utilities=(u0, u1),
                welfare=u0 + u1, se=se, system_ee=ee, divergent=divergent,
            )
            for kind, c0, c1, p0, p1, s0, s1, u0, u1, se, ee, divergent in zip(
                [equilibria.KINDS[k] for k in o.kind.tolist()],
                *o.carriers.tolist(), *o.powers.tolist(), *o.sinrs.tolist(),
                *o.utilities.tolist(), m.se.tolist(), m.system_ee.tolist(),
                o.divergent.tolist(),
            )
        ])
    return [
        TrialRecord(
            trial_index=t, K=K, rho=rho, theta=theta,
            best_carriers=tuple(b), second_carriers=tuple(s),
            best_gains=tuple(bg), second_gains=tuple(sg), stats=stats,
        )
        for t, (b, s, bg, sg, stats) in enumerate(zip(
            cols.best.T.tolist(), cols.second.T.tolist(),
            cols.best_gains.T.tolist(), cols.second_gains.T.tolist(),
            zip(*per_mode),
        ))
    ]


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
    every worker count; ``per_trial=True`` additionally keeps every
    TrialRecord in grid-then-trial order.

    Each cell is solved on arrays, a chunk of trials at a time, with the
    same numbers ``run_trial`` gives trial by trial.  Pool workers return
    arrays; TrialRecords are built here, and only for ``per_trial=True``.
    """
    workers = _resolve_workers(workers)
    cells = [
        (K, rho, theta)
        for K in config.K_list
        for rho in config.rho_list
        for theta in config.theta_list
    ]
    aggregates: list[AggregateStats] = []
    kept: list[TrialRecord] | None = [] if per_trial else None

    def _consume(K, rho, theta, cols):
        aggregates.extend(_aggregate_cell(config, K, rho, theta, cols))
        if kept is not None:
            kept.extend(_records(config, K, rho, theta, cols))

    if workers == 1:
        for K, rho, theta in cells:
            _consume(K, rho, theta, _run_span((config, K, rho, theta, 0, config.trials)))
    else:
        span = -(-config.trials // (workers * 4))  # ceil; ~4 spans per worker
        spans = [
            (s, min(s + span, config.trials))
            for s in range(0, config.trials, span)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for K, rho, theta in cells:
                args = [(config, K, rho, theta, s, e) for s, e in spans]
                _consume(K, rho, theta, _joined(list(pool.map(_run_span, args))))
    return SweepResult(
        config=config,
        aggregates=tuple(aggregates),
        trials=tuple(kept) if kept is not None else None,
    )


def _fmt(value: float) -> str:
    """Every float in CSV and command-line output: 9 significant digits."""
    return format(float(value), ".9g")


def write_aggregate_csv(rows, path) -> None:
    """One row per (K, rho, theta, mode); floats at 9 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [
                    str(r.K), _fmt(r.rho), _fmt(r.theta), r.mode, str(r.trials),
                    _fmt(r.p_no_orth), _fmt(r.p_no_orth_se), _fmt(r.ee_mean),
                    _fmt(r.ee_user1), _fmt(r.ee_user2), _fmt(r.se_mean),
                    _fmt(r.welfare_mean),
                ]
            )


def write_trial_csv(records, path) -> None:
    """One row per (trial, mode); carriers are 1-based in the file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRIAL_HEADER.split(","))
        for rec in records:
            for s in rec.stats:
                writer.writerow(
                    [
                        str(rec.trial_index), str(rec.K), _fmt(rec.rho),
                        _fmt(rec.theta), s.mode, s.kind,
                        "true" if s.orthogonalized else "false",
                        str(s.carriers[0] + 1), str(s.carriers[1] + 1),
                        _fmt(s.powers[0]), _fmt(s.powers[1]),
                        _fmt(s.sinrs[0]), _fmt(s.sinrs[1]),
                        _fmt(s.utilities[0]), _fmt(s.utilities[1]),
                        _fmt(s.welfare), _fmt(s.se), _fmt(s.system_ee),
                    ]
                )
