"""Seeded Monte Carlo sweeps over correlated fading draws.

Each trial is keyed by ``(seed, trial_index)`` through a counter-based
generator, so any trial can be recomputed in isolation and the grid can be
split across processes freely.  Aggregation always runs over the records
in trial order, which makes the output byte-identical for every worker
count.  Reusing the same trial indices across grid cells is deliberate:
cells share underlying fading draws, so curves over ``rho`` and ``theta``
are paired comparisons rather than independent resamples.

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

import numpy as np

from . import equilibria
from .channel import CorrelationSpec, best_two_carriers, sample_channel
from .efficiency import EfficiencyModel, ExponentialEfficiency
from .errors import ConfigError
from .game import GameInstance, check_sigma2_and_rates

MODES = tuple(equilibria.SOLVERS)
WORKERS_ENV = "SPECGAME_WORKERS"

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
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
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


def _run_span(args):
    config, K, rho, theta, start, stop = args
    return [run_trial(config, K, rho, theta, i) for i in range(start, stop)]


def _aggregate_cell(config, K, rho, theta, records):
    rows = []
    n = len(records)
    for idx, mode in enumerate(config.modes):
        stats = [r.stats[idx] for r in records]
        p = sum(not s.orthogonalized for s in stats) / n
        rows.append(
            AggregateStats(
                K=K,
                rho=rho,
                theta=theta,
                mode=mode,
                trials=n,
                p_no_orth=p,
                p_no_orth_se=float(np.sqrt(p * (1.0 - p) / n)),
                ee_mean=float(np.mean([s.system_ee for s in stats])),
                ee_user1=float(np.mean([s.utilities[0] for s in stats])),
                ee_user2=float(np.mean([s.utilities[1] for s in stats])),
                se_mean=float(np.mean([s.se for s in stats])),
                welfare_mean=float(np.mean([s.welfare for s in stats])),
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
    if not isinstance(workers, int) or workers < 1:
        raise ConfigError(f"worker count must be an integer >= 1, got {workers!r}")
    return workers


def run_sweep(
    config: SweepConfig, per_trial: bool = False, workers: int | None = None
) -> SweepResult:
    """Run the full (K, rho, theta) grid and aggregate per mode.

    ``workers`` falls back to the ``SPECGAME_WORKERS`` environment variable,
    then to 1 (inline, no subprocesses).  Results are byte-identical for
    every worker count; ``per_trial=True`` additionally keeps every
    TrialRecord in grid-then-trial order.
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

    def _consume(K, rho, theta, records):
        aggregates.extend(_aggregate_cell(config, K, rho, theta, records))
        if kept is not None:
            kept.extend(records)

    if workers == 1:
        for K, rho, theta in cells:
            _consume(
                K, rho, theta,
                [run_trial(config, K, rho, theta, i) for i in range(config.trials)],
            )
    else:
        span = -(-config.trials // (workers * 4))  # ceil; ~4 spans per worker
        spans = [
            (s, min(s + span, config.trials))
            for s in range(0, config.trials, span)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for K, rho, theta in cells:
                args = [(config, K, rho, theta, s, e) for s, e in spans]
                records = [r for batch in pool.map(_run_span, args) for r in batch]
                _consume(K, rho, theta, records)
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
