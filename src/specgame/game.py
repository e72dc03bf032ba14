"""Game instances and generic SINR and utility evaluation.

The two users transmit over K shared carriers.  On carrier k, user n's
SINR is ``g_n^k p_n^k / (sigma2 + g_m^k p_m^k)`` with m the other user, and
the utility is goodput per watt:

    u_n = R_n * sum_k f(sinr_n^k) / sum_k p_n^k     [bits/Joule]

The evaluators here take any (2, K) allocation; the solvers in
:mod:`specgame.equilibria` evaluate their single-carrier outcomes with the
same arithmetic, and the tests use these functions as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .efficiency import EfficiencyModel
from .errors import ConfigError


def check_sigma2_and_rates(sigma2, rates) -> tuple[float, float]:
    """Validate the noise power and the two rates; return the rates as floats."""
    if not sigma2 > 0.0:
        raise ConfigError(f"sigma2 must be positive, got {sigma2!r}")
    r = tuple(float(x) for x in rates)
    if len(r) != 2 or not all(x > 0.0 for x in r):
        raise ConfigError(f"rates must be two positive reals, got {rates!r}")
    return r


@dataclass(frozen=True, eq=False)
class GameInstance:
    """Immutable problem data: channel, noise power, rates, efficiency curve."""

    channel: ChannelMatrix
    sigma2: float
    rates: tuple[float, float]
    efficiency: EfficiencyModel

    def __post_init__(self):
        object.__setattr__(self, "rates", check_sigma2_and_rates(self.sigma2, self.rates))

    @property
    def K(self) -> int:
        return self.channel.K


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Transmit powers, one row per user, one column per carrier."""

    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.ndim != 2 or p.shape[0] != 2:
            raise ConfigError(f"powers must have shape (2, K), got {p.shape}")
        if np.any(np.isnan(p)) or np.any(p < 0.0):
            raise ConfigError("powers must be nonnegative")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


def single_carrier_allocation(K: int, entries) -> PowerAllocation:
    """Build a (2, K) allocation from per-user ``(carrier, power)`` pairs."""
    p = np.zeros((2, K))
    for user, (carrier, power) in enumerate(entries):
        p[user, carrier] = power
    return PowerAllocation(p=p)


def effective_gain(inst: GameInstance, alloc: PowerAllocation, user: int, carrier: int) -> float:
    """SINR per watt on the carrier: g / (sigma2 + rival received power)."""
    other = 1 - user
    g = inst.channel.gains
    return float(g[user, carrier] / (inst.sigma2 + g[other, carrier] * alloc.p[other, carrier]))


def sinr(inst: GameInstance, alloc: PowerAllocation, user: int, carrier: int) -> float:
    return float(sinr_matrix(inst, alloc)[user, carrier])


def sinr_matrix(inst: GameInstance, alloc: PowerAllocation) -> np.ndarray:
    g = inst.channel.gains
    received = g * alloc.p
    return received / (inst.sigma2 + received[::-1])


def utility(inst: GameInstance, alloc: PowerAllocation, user: int) -> float:
    """Goodput per watt; 0 by convention when the user is silent.

    The all-zero-power value of the defining ratio is 0/0; 0 is the limit
    along vanishing power whenever f'(0) = 0 and a floor otherwise, and the
    positive-slope case is treated explicitly by the equilibrium layer, so
    the convention never leaks into results.
    """
    total = float(alloc.p[user].sum())
    if total == 0.0:
        return 0.0
    rates = inst.efficiency.value(sinr_matrix(inst, alloc)[user])
    return inst.rates[user] * float(np.sum(rates)) / total


def utilities(inst: GameInstance, alloc: PowerAllocation) -> tuple[float, float]:
    return utility(inst, alloc, 0), utility(inst, alloc, 1)
