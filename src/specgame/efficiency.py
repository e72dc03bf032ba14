"""Packet-success efficiency curves and their characteristic SINR levels.

An efficiency model is a sigmoidal curve ``f`` with ``f(0) = 0``, increasing
and bounded, mapping SINR to the fraction of transmitted data received
correctly.  Two SINR levels derived from ``f`` drive every equilibrium
formula downstream:

* ``gamma_star``: the unique positive root of ``x f'(x) = f(x)``, i.e. the
  SINR at which goodput per watt ``f(x)/x`` peaks.  A transmitter alone on a
  carrier always tunes its power to hit this SINR.
* ``beta_star``: a root of ``(x - x^2 gamma_star) f'(x) = f(x)``, the SINR a
  transmitter prefers on a carrier it shares with a rival who keeps retuning
  to ``gamma_star`` on top of the induced interference.  Depending on the
  curve shape this root may not exist.

Both are found by the same procedure: a dense sign-change scan followed
by bisection.  ``gamma_star`` is bisected to 1e-12 and certified by its
stationarity residual; the ``beta_star`` roots do not depend on the game, so
each model solves them once, to adjacent doubles, and caches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, SolverFailure

GAMMA_STAR_BRACKET = (1e-9, 50.0)
_GRID_POINTS = 10_000
_BISECT_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
_PEAK_CHECK_POINTS = 4001
_PEAK_CHECK_REL = 1e-4  # linear grid undershoots the peak by < 1e-5 relative


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _match_scalar(x, out):
    """Return a Python float when the input was scalar, else the array."""
    if np.ndim(x) == 0:
        return float(out)
    return out


class EfficiencyModel:
    """Common interface; subclasses supply ``value`` and ``derivative``."""

    def value(self, x):
        raise NotImplementedError

    def derivative(self, x):
        raise NotImplementedError

    def value_each(self, x) -> np.ndarray:
        """f at every SINR in the 1-D array ``x``, each rounded exactly as
        ``value(float(x_i))``.

        The batched solvers evaluate f here so that their numbers equal the
        scalar solvers' bit for bit.  This default calls ``value`` once per
        entry; subclasses whose array path rounds like their scalar path
        may vectorise.
        """
        return np.array([float(self.value(v)) for v in _as_float_array(x).tolist()])

    def gamma_star_residual(self, x):
        """Residual of the peak-rate condition, x f'(x) - f(x)."""
        x = _as_float_array(x)
        return x * self.derivative(x) - self.value(x)

    def beta_star_residual(self, x, gamma_star):
        """Residual of the shared-carrier condition, (x - x^2 g*) f'(x) - f(x)."""
        x = _as_float_array(x)
        return (x - x * x * gamma_star) * self.derivative(x) - self.value(x)

    @cached_property
    def gamma_star(self) -> float:
        return solve_gamma_star(self)

    @cached_property
    def beta_star_roots(self) -> tuple[tuple[float, float], ...]:
        """Every root of the shared-carrier condition in (0, min(g*, 1/g*)),
        ascending, each paired with its shared-carrier rate
        ``f(r) (1 - r gamma_star) / r``; solved on first use."""
        gs = self.gamma_star
        ceiling = min(gs, 1.0 / gs)
        roots = _scan_roots(
            lambda x: self.beta_star_residual(x, gs), ceiling * 1e-12, ceiling, tol=0.0
        )
        return tuple(
            (r, float(self.value(r)) * (1.0 - r * gs) / r) for r in roots if 0.0 < r < ceiling
        )


@dataclass(frozen=True)
class ExponentialEfficiency(EfficiencyModel):
    """f(x) = (1 - exp(-x))^M, the success curve of an M-symbol block.

    The residuals are rewritten without the (1 - exp(-x))^M factor, which
    underflows long before the roots are reached for large M; the reduced
    forms M x = e^x - 1 and M (x - x^2 g*) = e^x - 1 have the same roots
    and stay well scaled.
    """

    M: int = 100

    def __post_init__(self):
        if not isinstance(self.M, int) or isinstance(self.M, bool) or self.M <= 1:
            raise ConfigError(f"block length M must be an integer > 1, got {self.M!r}")

    def value(self, x):
        x = _as_float_array(x)
        out = (-np.expm1(-x)) ** self.M
        return _match_scalar(x, out)

    def value_each(self, x) -> np.ndarray:
        # a scalar ``** M`` is libm's pow; numpy's array power may take a
        # SIMD pow that rounds differently, so the power runs on Python floats
        base = -np.expm1(-_as_float_array(x))
        M = self.M
        return np.array([b**M for b in base.tolist()])

    def derivative(self, x):
        x = _as_float_array(x)
        out = self.M * np.exp(-x) * (-np.expm1(-x)) ** (self.M - 1)
        return _match_scalar(x, out)

    def gamma_star_residual(self, x):
        x = _as_float_array(x)
        return self.M * x - np.expm1(x)

    def beta_star_residual(self, x, gamma_star):
        # M x (1 - x g*) - e^x + 1, with x g* split exactly into p + e so
        # that 1 - x g* keeps its low bits where x g* is close to 1
        x = _as_float_array(x)
        p, e = _two_product(x, gamma_star)
        return self.M * x * ((1.0 - p) - e) - np.expm1(x)


_SQRT17 = math.sqrt(17.0)
_RS_SAT = (7.0 + _SQRT17) / 4.0
_RS_NUM = 13.0 + 3.0 * _SQRT17
_RS_OFF = 2.0 * _SQRT17 - 18.0
_RS_KNEE = 0.75


@dataclass(frozen=True)
class RationalSigmoidEfficiency(EfficiencyModel):
    """A piecewise rational sigmoid with positive slope at the origin.

    f(x) = 1/sqrt(1-x) - 1 up to the knee at 3/4, then a rational branch
    saturating at (7 + sqrt(17))/4; both f and f' are continuous at the
    knee.  Its distinguishing features against the exponential family:
    f'(0) = 1/2 > 0, gamma_star = 1, and the shared-carrier equation has
    no root at all, so the leader's power has a supremum value that is
    approached but never attained.
    """

    def value(self, x):
        x = _as_float_array(x)
        # expm1/log1p form of 1/sqrt(1-x) - 1: near zero it keeps the full
        # relative precision the stationarity residuals cancel against
        lo = np.expm1(-0.5 * np.log1p(-np.minimum(x, _RS_KNEE)))
        hi = _RS_SAT - _RS_NUM / (32.0 * np.maximum(x, _RS_KNEE) + _RS_OFF)
        return _match_scalar(x, np.where(x <= _RS_KNEE, lo, hi))

    def value_each(self, x) -> np.ndarray:
        return self.value(_as_float_array(x))  # rounds like the scalar path

    def derivative(self, x):
        x = _as_float_array(x)
        lo = 0.5 * (1.0 - np.minimum(x, _RS_KNEE)) ** -1.5
        hi = 32.0 * _RS_NUM / (32.0 * np.maximum(x, _RS_KNEE) + _RS_OFF) ** 2
        return _match_scalar(x, np.where(x <= _RS_KNEE, lo, hi))


def _two_product(a, b):
    """``a * b`` as ``p + e`` exactly, ``p`` the rounded product (Dekker 1971)."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a):
    """``a`` as ``hi + lo``, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _bisect(fn, lo, hi, f_lo, tol):
    """Shrink a sign-change bracket to width <= ``tol``, or to adjacent
    doubles, and return its midpoint."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _scan_roots(fn, lo, hi, tol=_BISECT_TOL):
    """All roots of ``fn`` on [lo, hi] found by grid scan plus bisection."""
    grid = np.linspace(lo, hi, _GRID_POINTS)
    vals = np.asarray(fn(grid), dtype=float)
    roots = [float(grid[i]) for i in np.nonzero(vals == 0.0)[0]]
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]
    for i in sign_change:
        roots.append(_bisect(fn, float(grid[i]), float(grid[i + 1]), float(vals[i]), tol))
    return sorted(set(roots))


def solve_gamma_star(model: EfficiencyModel, bracket=GAMMA_STAR_BRACKET) -> float:
    """SINR maximizing f(x)/x: the positive root of x f'(x) = f(x).

    Scans ``bracket`` with a 10^4-point grid, bisects every sign change to
    1e-12, and returns the smallest root after two certifications: the
    stationarity residual must be below 1e-10, and f(root)/root must reach
    the per-watt maximum seen on an independent grid (so a residual zero
    manufactured by rounding noise cannot pass).  Prefer
    ``model.gamma_star``, which caches the result per model instance.
    """
    roots = _scan_roots(model.gamma_star_residual, bracket[0], bracket[1])
    if not roots:
        raise SolverFailure(
            f"no root of the peak-rate condition in [{bracket[0]}, {bracket[1]}]"
        )
    root = roots[0]
    residual = float(root * model.derivative(root) - model.value(root))
    if abs(residual) > _RESIDUAL_TOL:
        raise SolverFailure(
            f"peak-rate root at {root} has residual {residual:.3e} > {_RESIDUAL_TOL}"
        )
    grid = np.linspace(bracket[0], bracket[1], _PEAK_CHECK_POINTS)
    grid_peak = float(np.max(np.asarray(model.value(grid), dtype=float) / grid))
    root_peak = float(model.value(root)) / root
    if root_peak < grid_peak * (1.0 - _PEAK_CHECK_REL):
        raise SolverFailure(
            f"root at {root} gives per-watt rate {root_peak:.6g}, below the "
            f"grid maximum {grid_peak:.6g}"
        )
    return root


def solve_beta_star(model: EfficiencyModel, x_max: float) -> float | None:
    """Preferred SINR on a carrier shared with a rival retuning to gamma_star.

    Of the roots of ``(x - x^2 gamma_star) f'(x) = f(x)`` on ``(0, x_max]``,
    returns the one with the highest shared-carrier rate
    ``f(x) (1 - x gamma_star) / x`` (the smaller root on a tie), or ``None``
    when no root exists.  Any root returned lies strictly inside
    ``(0, min(gamma_star, 1/gamma_star))``.  The roots come from
    ``model.beta_star_roots``, solved once per model.
    """
    if not (x_max > 0.0):
        raise ConfigError(f"x_max must be positive, got {x_max!r}")
    best = beta_star_each(model, np.array([x_max], dtype=float))[0]
    return None if math.isnan(best) else float(best)


def beta_star_each(model: EfficiencyModel, x_max: np.ndarray) -> np.ndarray:
    """``solve_beta_star`` at every entry of the array ``x_max``; NaN for ``None``."""
    best = np.full(x_max.shape, np.nan)
    best_rate = np.full(x_max.shape, -np.inf)
    for root, rate in model.beta_star_roots:  # ascending, so ties keep the smaller
        take = (root <= x_max) & (rate > best_rate)
        best[take] = root
        best_rate[take] = rate
    return best
