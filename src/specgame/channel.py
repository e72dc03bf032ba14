"""Channel-gain realizations: fixtures and correlated Rayleigh fading.

Fading gains are ``|z|^2 * mean_gain`` for unit-variance complex Gaussians
``z`` built with an equicorrelated Gaussian copula:

    z_n^k = sqrt(theta) * u^k + sqrt(1 - theta) * v_n^k

where the carrier-indexed factors ``u^k`` and ``v_n^k`` are themselves
``sqrt(rho) * w + sqrt(1 - rho) * (independent draw)`` for shared scalars
``w``.  This yields correlation ``rho`` between any two carriers of one
user and ``theta`` between the two users on one carrier; at
``rho = theta = 0`` the 2K gains are i.i.d. exponential with mean
``mean_gain``, and ``theta = 1`` makes the two gain rows bitwise identical.

Sampling is counter-based: every ``(seed, trial_index)`` pair keys its own
Philox stream, so trials are reproducible independently of execution order
and are safe to draw in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class CorrelationSpec:
    """Fading correlation across carriers (rho) and across users (theta)."""

    rho_carrier: float = 0.0
    theta_user: float = 0.0
    mean_gain: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.rho_carrier < 1.0:
            raise ConfigError(f"rho_carrier must lie in [0, 1), got {self.rho_carrier!r}")
        if not 0.0 <= self.theta_user <= 1.0:
            raise ConfigError(f"theta_user must lie in [0, 1], got {self.theta_user!r}")
        if not self.mean_gain > 0.0:
            raise ConfigError(f"mean_gain must be positive, got {self.mean_gain!r}")


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """Per-user, per-carrier power gains; two users, K >= 2 carriers."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.array(self.gains, dtype=float)
        if g.ndim != 2 or g.shape[0] != 2 or g.shape[1] < 2:
            raise ConfigError(f"gains must have shape (2, K) with K >= 2, got {g.shape}")
        if not np.all(np.isfinite(g)) or not np.all(g > 0.0):
            raise ConfigError("gains must be strictly positive and finite")
        g.setflags(write=False)
        object.__setattr__(self, "gains", g)

    @property
    def K(self) -> int:
        return self.gains.shape[1]


def top_two(gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the highest and second-highest entries along the last axis.

    Ties go to the lower index, exactly as in a stable descending sort: the
    best is the first maximum, the second the first maximum once the best
    is masked out.
    """
    best = np.argmax(gains, axis=-1)
    masked = np.array(gains, dtype=float).reshape(-1, gains.shape[-1])
    masked[np.arange(len(masked)), best.ravel()] = -np.inf
    return best, np.argmax(masked, axis=-1).reshape(best.shape)


def best_two_carriers(channel: ChannelMatrix, user: int) -> tuple[int, int]:
    """Indices of the user's highest- and second-highest-gain carriers.

    Ties go to the lower carrier index.  Indices are 0-based here; only the
    CLI layer renders them 1-based.
    """
    if user not in (0, 1):
        raise ConfigError(f"user must be 0 or 1, got {user!r}")
    best, second = top_two(channel.gains[user])
    return int(best), int(second)


def sample_gains(
    K: int, spec: CorrelationSpec, seed: int, start: int, stop: int
) -> np.ndarray:
    """Gains of trials ``start`` to ``stop - 1``, stacked to shape (n, 2, K).

    Row i is bit-identical to ``sample_channel(K, spec, seed, start + i)``:
    one Philox bit generator is re-keyed to ``(seed, trial)`` through its
    state for every trial, which draws exactly what a fresh generator with
    that key would.  Each trial reads one (3 + 3K, 2) standard-normal block
    as the three shared scalars (user factor, then one per-user factor
    each) followed by the K carrier factors and the two K-sized per-user
    carrier factors.
    """
    bitgen = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    fresh = bitgen.state  # zero counter, empty buffer
    normals = np.empty((stop - start, 3 + 3 * K, 2))
    for i, trial in enumerate(range(start, stop)):
        fresh["state"]["key"] = np.array([seed, trial], dtype=np.uint64)
        bitgen.state = fresh
        rng.standard_normal(out=normals[i])
    # pairs (a, b) read as a + ib, scaled to unit variance: E|z|^2 = 1
    z = normals.view(np.complex128)[..., 0]
    z /= np.sqrt(2.0)
    w_user = z[:, 0, None]
    w_per_user = z[:, 1:3, None]
    u_carrier = z[:, 3 : 3 + K]
    v_carrier = z[:, 3 + K :].reshape(-1, 2, K)

    # updated in place, so the temporaries stay near the size of the normals;
    # c * x + d * y is formed as d * y + c * x, which rounds identically
    rho = spec.rho_carrier
    u = np.sqrt(1.0 - rho) * u_carrier
    u += np.sqrt(rho) * w_user
    v = np.sqrt(1.0 - rho) * v_carrier
    v += np.sqrt(rho) * w_per_user

    theta = spec.theta_user
    v *= np.sqrt(1.0 - theta)
    v += np.sqrt(theta) * u[:, None, :]  # v now holds the user mix
    return (v.real**2 + v.imag**2) * spec.mean_gain


def sample_channel(
    K: int, spec: CorrelationSpec, seed: int, trial_index: int
) -> ChannelMatrix:
    """Draw one correlated Rayleigh gain matrix for trial ``trial_index``.

    Bit-identical output for identical arguments; the one-row case of
    :func:`sample_gains`.
    """
    if K < 2:
        raise ConfigError(f"K must be >= 2, got {K!r}")
    if seed < 0 or trial_index < 0:
        raise ConfigError("seed and trial_index must be nonnegative")
    return ChannelMatrix(gains=sample_gains(K, spec, seed, trial_index, trial_index + 1)[0])
