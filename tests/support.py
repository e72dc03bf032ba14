"""Shared test helpers: deterministic instances, a low-peak efficiency curve
and the record-by-record trial CSV writer."""

from __future__ import annotations

import csv

import numpy as np

from specgame import (
    ChannelMatrix,
    EfficiencyModel,
    ExponentialEfficiency,
    GameInstance,
)
from specgame.sweep import TRIAL_HEADER, _fmt


class ScaledExponentialEfficiency(EfficiencyModel):
    """(1 - exp(-2x))^2: same shape as the block-success curve, but its
    throughput-per-watt peak sits below SINR 1, so shared-carrier
    equilibria stay finite.  Used to exercise branches the stock curves
    cannot reach."""

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.square(-np.expm1(-2.0 * x))
        return out.item() if out.ndim == 0 else out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        out = 4.0 * np.exp(-2.0 * x) * (-np.expm1(-2.0 * x))
        return out.item() if out.ndim == 0 else out


def make_instance(gains, sigma2=1.0, rates=(1.0, 1.0), efficiency=None):
    """GameInstance from a plain 2-row gains list; defaults to the M=100 curve."""
    if efficiency is None:
        efficiency = ExponentialEfficiency(M=100)
    return GameInstance(
        channel=ChannelMatrix(np.array(gains, dtype=float)),
        sigma2=sigma2,
        rates=rates,
        efficiency=efficiency,
    )


def random_instance(rng, K, efficiency=None, sigma2=1.0, rates=(1.0, 1.0)):
    """Instance with iid unit-mean exponential gains drawn from ``rng``."""
    gains = rng.exponential(1.0, size=(2, K))
    return make_instance(gains, sigma2=sigma2, rates=rates, efficiency=efficiency)


def write_trial_csv_reference(records, path) -> None:
    """The trial CSV written record by record with ``csv.writer`` and
    ``_fmt``: the byte oracle for ``specgame.write_trial_csv``."""
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
