"""Closed-form equilibria of the two-user multi-carrier power game.

The sequential game is solved by case analysis on the two users' best
carriers.  When they differ, each user simply tunes to ``gamma_star`` on
his own best carrier.  When they coincide, the leader weighs four options
on the contested carrier ``B``:

* share it at SINR ``beta_star`` while the follower stays (share value),
* raise power just enough to push the follower off (deter value),
* fall back to his second-best carrier at ``gamma_star`` (retreat value),
* shrink power toward zero, which approaches a supremum that is attained
  only in the limit (vanish value); when this supremum strictly beats the
  other three there is no exact equilibrium and an epsilon-equilibrium is
  returned instead.

The simultaneous-move solver classifies outcomes by the shared-carrier
gain condition (both users' best gain at least ``1 + gamma_star`` times
their second best on a common best carrier) and otherwise orthogonalizes.

Every solved game puts each user on a single carrier, so the SINRs and
utilities stored on outcomes are evaluated from the two final (carrier,
power) pairs directly; the candidate values are kept alongside as
diagnostics.

Each solver has one implementation, on arrays: ``solve_rows`` solves many
games at once, the leader's four-way comparison and the epsilon fallback
included.  The public solvers (``nash_solve``, ``stackelberg_solve``,
``social_optimum`` and ``epsilon_equilibrium``) are its one-row case: each
solves a one-row ``GameRows`` and reads row 0 back as an
``EquilibriumOutcome`` with its diagnostics.  ``SOLVERS`` maps each sweep
mode to its public solver, and ``solve`` looks the solver up at call time,
so a solver patched onto this module reaches ``solve`` and the oracle
checks of :mod:`specgame.verify`, but not sweeps, which call
``solve_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix, top_two
from .errors import PreconditionError, SolverFailure
from .efficiency import _BISECT_TOL, EfficiencyModel, beta_star_each
# bound here only so that perfbench's traced pass can wrap them on this module
from .channel import best_two_carriers  # noqa: F401
from .efficiency import solve_beta_star  # noqa: F401
from .game import (
    GameInstance,
    PowerAllocation,
    check_sigma2_and_rates,
    single_carrier_allocation,
)

STACKELBERG_EXACT = "StackelbergExact"
STACKELBERG_EPSILON = "StackelbergEpsilon"
NASH_EXACT = "NashExact"
NASH_SHARED = "NashShared"
SOCIAL_OPTIMUM = "SocialOptimum"

_TIE_REL = 1e-12
_EPSILON_GRID_CAP = 400

# mode -> solver attribute, resolved at call time so test doubles patched
# onto this module take effect in ``solve``; batched sweeps (``solve_rows``)
# never call it
SOLVERS = {
    "nash": "nash_solve",
    "stackelberg": "stackelberg_solve",
    "social": "social_optimum",
}


@dataclass(frozen=True)
class LeaderCandidates:
    """The leader's candidate utilities on a contested best carrier.

    ``deterrence_sinr`` is the follower's gain gap ``(g_best - g_second) /
    g_second``: the lowest leader SINR on the contested carrier that makes
    the follower's reply move elsewhere.  ``share_sinr`` is the bounded
    shared-carrier root (absent for curves where sharing never pays).
    ``best_alone_value`` is the interference-free utility on the best
    carrier, a diagnostic upper reference for ``share_value``.
    """

    deterrence_sinr: float
    share_sinr: float | None
    share_value: float | None
    deter_value: float
    retreat_value: float
    vanish_value: float
    best_alone_value: float


@dataclass(frozen=True)
class UserOutcome:
    carrier: int
    power: float
    sinr: float
    utility: float


@dataclass(frozen=True, eq=False)
class EquilibriumOutcome:
    """One solved game: per-user actions and payoffs plus diagnostics."""

    kind: str
    users: tuple[UserOutcome, UserOutcome]
    orthogonalized: bool
    instance: GameInstance
    candidates: LeaderCandidates | None = None
    epsilon: float | None = None
    alpha: float | None = None
    divergent: bool = False
    notes: tuple[str, ...] = ()

    def allocation(self) -> PowerAllocation:
        return single_carrier_allocation(
            self.instance.K, [(u.carrier, u.power) for u in self.users]
        )

    @property
    def welfare(self) -> float:
        return self.users[0].utility + self.users[1].utility


def solve(mode: str, inst: GameInstance) -> EquilibriumOutcome:
    """Solve ``inst`` with the solver ``SOLVERS`` names for ``mode``."""
    return globals()[SOLVERS[mode]](inst)


def follower_best_response(inst: GameInstance, leader_powers) -> np.ndarray:
    """The follower's reply to a fixed leader allocation.

    Picks the carrier with the highest effective gain (SINR per watt, with
    the leader's interference baked in) and tunes to ``gamma_star`` there.
    Effective gains within 1e-12 of the best are treated as tied; a tied
    carrier free of leader power wins, then the lowest index.
    """
    leader_powers = np.asarray(leader_powers, dtype=float)
    g = inst.channel.gains
    interfered = inst.sigma2 + g[0] * leader_powers
    eff = g[1] / interfered
    tied = eff >= eff.max() * (1.0 - _TIE_REL)
    free = tied & (leader_powers == 0.0)
    k = int(np.argmax(free)) if free.any() else int(np.argmax(tied))
    reply = np.zeros(inst.K)
    reply[k] = inst.efficiency.gamma_star * interfered[k] / g[1, k]
    return reply


def _one_row(inst: GameInstance) -> GameRows:
    """``inst`` as a one-row ``GameRows``."""
    return GameRows(inst.channel.gains[None], inst.sigma2, inst.rates, inst.efficiency)


def _as_outcome(inst: GameInstance, out: RowOutcomes, **extra) -> EquilibriumOutcome:
    """Row 0 of ``out`` as the outcome of ``inst``."""
    columns = (out.carriers, out.powers, out.sinrs, out.utilities)
    users = tuple(UserOutcome(*user) for user in zip(*(a[:, 0].tolist() for a in columns)))
    return EquilibriumOutcome(
        kind=KINDS[out.kind[0]],
        users=users,
        orthogonalized=users[0].carrier != users[1].carrier,
        instance=inst,
        divergent=bool(out.divergent[0]),
        **extra,
    )


def _candidates(rows: GameRows) -> LeaderCandidates:
    """The leader's candidates in the one game of ``rows``, a contested one."""
    values = _leader_values(rows, np.zeros(1, dtype=np.intp))
    cand = LeaderCandidates(*(float(v[0]) for v in values))
    if np.isnan(cand.share_sinr):
        return replace(cand, share_sinr=None, share_value=None)
    return cand


def _attainable(cand):
    """The leader's exact options as (name, value), in tie-priority order."""
    exact = [("deter", cand.deter_value), ("retreat", cand.retreat_value)]
    if cand.share_value is not None:
        exact.append(("share", cand.share_value))
    return exact


def stackelberg_solve(inst: GameInstance) -> EquilibriumOutcome:
    """Leader-first equilibrium; K >= 2 is guaranteed by the instance.

    Distinct best carriers: both users at ``gamma_star`` on their own best.
    Contested carrier with a small follower gap: leader takes it, follower
    falls back.  Otherwise the four candidate values are compared; on exact
    value ties the priority is deter > retreat > share (the outcome notes
    record the tie), and a strictly winning vanish value yields an
    epsilon-equilibrium with the default epsilon of 1e-6 times the
    supremum.
    """
    rows = _one_row(inst)
    out = _stackelberg_rows(rows)
    if rows.best[0, 0] != rows.best[1, 0]:
        return _as_outcome(inst, out)
    cand = _candidates(rows)
    if cand.deterrence_sinr <= rows.efficiency.gamma_star:
        return _as_outcome(inst, out, candidates=cand)
    if KINDS[out.kind[0]] == STACKELBERG_EPSILON:
        return _as_outcome(
            inst, out, candidates=cand, epsilon=1e-6 * cand.vanish_value,
            alpha=float(out.powers[0, 0]),
            notes=("auto epsilon: vanishing-power supremum beats every exact option",),
        )
    exact = _attainable(cand)
    best_exact = max(v for _, v in exact)
    notes = []
    if cand.share_value is None:
        notes.append("no shared-carrier root: compared deter and retreat only")
    winners = [name for name, v in exact if v == best_exact]
    if len(winners) > 1:
        notes.append("tie between candidate values: " + ", ".join(winners))
    return _as_outcome(inst, out, candidates=cand, notes=tuple(notes))


def _epsilon_start(gs, s2n, g):
    """The leader's first epsilon-grid power on each gain of the array ``g``:
    the largest finite ``2**-j * gs * s2n / g`` with j >= 0.

    That is ``gs * s2n / g`` itself (j = 0) wherever it is finite.  Where it
    overflows, the same product is formed from frexp mantissas and placed at
    the largest exponent that stays finite, so halving from it can reach
    the vanishing-power target.
    """
    with np.errstate(over="ignore"):  # overflowing rows are handled below
        alpha = gs * s2n / g
    over = np.isinf(alpha)
    if over.any():
        m_gs, e_gs = np.frexp(gs)
        m_s2n, e_s2n = np.frexp(s2n)
        m_g, e_g = np.frexp(g[over])
        mantissa, e = np.frexp(m_gs * m_s2n / m_g)  # mantissa in [0.5, 1)
        alpha[over] = np.ldexp(mantissa, np.minimum(e + e_gs + e_s2n - e_g, 1024))
    return alpha


def epsilon_equilibrium(inst: GameInstance, epsilon: float) -> EquilibriumOutcome:
    """Near-equilibrium for games whose leader supremum is unattainable.

    The leader puts a small power ``alpha`` on the contested carrier, the
    largest finite value of the form ``2**-j * gamma_star * sigma2 / g``
    (j >= 0) keeping his utility within ``epsilon`` of the vanishing-power
    supremum; the follower replies on the same carrier at ``gamma_star``
    over the induced interference.  Raises :class:`PreconditionError` unless the contested
    carrier exists, the follower's gap exceeds ``gamma_star``, and the
    supremum strictly beats the three exact candidate values.
    """
    if not epsilon > 0.0:
        raise PreconditionError(f"epsilon must be positive, got {epsilon!r}")
    rows = _one_row(inst)
    if rows.best[0, 0] != rows.best[1, 0]:
        raise PreconditionError("distinct best carriers: an exact equilibrium exists")
    cand = _candidates(rows)
    if cand.deterrence_sinr <= rows.efficiency.gamma_star:
        raise PreconditionError("follower gap below gamma_star: exact equilibrium exists")
    if not cand.vanish_value > max(v for _, v in _attainable(cand)):
        raise PreconditionError(
            "vanishing-power supremum does not dominate: exact equilibrium exists"
        )
    g_b1, g_b2 = rows.best_gains
    powers = _epsilon_powers(
        rows, g_b1, g_b2, np.array([cand.vanish_value]), np.array([epsilon], dtype=float)
    )
    out = _row_outcomes(
        rows, KINDS.index(STACKELBERG_EPSILON), rows.best, powers=np.stack(powers)
    )
    return _as_outcome(
        inst, out, candidates=cand, epsilon=epsilon, alpha=float(out.powers[0, 0])
    )


def nash_solve(inst: GameInstance) -> EquilibriumOutcome:
    """Simultaneous-move equilibrium with a deterministic selection rule.

    Sharing happens exactly when both users' best carrier coincides and
    each has best gain >= (1 + gamma_star) times his second best.  The
    shared fixed point solves both one-shot response equations only for
    gamma_star < 1 (a solved root within the bisection tolerance 1e-12 of
    1 counts as 1); past that it diverges, and the outcome keeps the
    carriers but reports infinite powers, zero utilities and the
    ``divergent`` flag.  Otherwise the game orthogonalizes: with distinct
    best carriers each user takes his own; on a contested carrier the user
    whose gain ratio is below the threshold yields to his second best, and
    when both are below, the smaller ratio yields (user 1 on an exact
    ratio tie).
    """
    out = _nash_rows(_one_row(inst))
    if out.divergent[0]:
        return _as_outcome(
            inst, out, notes=("shared fixed point diverges for gamma_star >= 1",)
        )
    return _as_outcome(inst, out)


def _shares_finitely(gamma_star):
    """gamma_star < 1 beyond its solve tolerance: the shared fixed point is finite."""
    return gamma_star < 1.0 - _BISECT_TOL


def shared_nash_powers(gamma_star: float, sigma2: float, gains) -> tuple[float, float]:
    """Solve the two coupled response equations on one shared carrier.

    Each user wants SINR ``gamma_star`` over the other's interference:
    ``g_n p_n = gamma_star (sigma2 + g_m p_m)``, giving
    ``g_n p_n = gamma_star sigma2 / (1 - gamma_star)``.  Only meaningful
    for ``gamma_star < 1``, by more than the bisection tolerance.
    """
    if not _shares_finitely(gamma_star):
        raise PreconditionError(
            f"shared fixed point requires gamma_star < 1, got {gamma_star!r}"
        )
    received = gamma_star * sigma2 / (1.0 - gamma_star)
    return received / float(gains[0]), received / float(gains[1])


def social_optimum(inst: GameInstance) -> EquilibriumOutcome:
    """Welfare-maximizing orthogonal assignment.

    Searches every ordered pair of distinct carriers with each user tuned
    to ``gamma_star`` on his own carrier; the welfare of pair (j, k) is
    proportional to ``R_1 g_1^j + R_2 g_2^k``.  Lexicographically first
    maximizer on ties.
    """
    return _as_outcome(inst, _social_rows(_one_row(inst)))


def swap_roles(inst: GameInstance) -> tuple[EquilibriumOutcome, EquilibriumOutcome]:
    """Solve the sequential game with user 1 leading, then following.

    The second outcome is remapped to the original user order, so
    ``users[0]`` is user 1 in both; its candidate diagnostics describe
    user 2 as the leader.
    """
    as_leader = stackelberg_solve(inst)
    mirrored = GameInstance(
        channel=ChannelMatrix(gains=inst.channel.gains[::-1]),
        sigma2=inst.sigma2,
        rates=inst.rates[::-1],
        efficiency=inst.efficiency,
    )
    raw = stackelberg_solve(mirrored)
    as_follower = EquilibriumOutcome(
        kind=raw.kind,
        users=raw.users[::-1],
        orthogonalized=raw.orthogonalized,
        instance=inst,
        candidates=raw.candidates,
        epsilon=raw.epsilon,
        alpha=raw.alpha,
        divergent=raw.divergent,
        notes=raw.notes + ("user 2 led this orientation",),
    )
    return as_leader, as_follower


# Array solvers: one mode on many games at once, and the one implementation
# of every solver above.  f is evaluated through ``EfficiencyModel.value_each``,
# which rounds each entry as a scalar evaluation does.

KINDS = (NASH_EXACT, NASH_SHARED, STACKELBERG_EXACT, STACKELBERG_EPSILON, SOCIAL_OPTIMUM)


class GameRows:
    """n games that share noise power, rates and efficiency curve.

    ``gains`` has shape (n, 2, K).  ``best`` and ``second`` hold each
    user's strongest and second-strongest carrier, shape (2, n), ranked
    once for every mode with the tie rule of ``best_two_carriers``;
    ``best_gains`` and ``second_gains`` hold the gains there.
    """

    def __init__(self, gains: np.ndarray, sigma2: float, rates, efficiency: EfficiencyModel):
        self.gains = gains
        self.sigma2 = sigma2
        self.rates = check_sigma2_and_rates(sigma2, rates)
        self.efficiency = efficiency
        best, second = top_two(gains)
        self.best, self.second = best.T, second.T
        self.best_gains = self.gains_at(self.best)
        self.second_gains = self.gains_at(self.second)

    def gains_at(self, carriers: np.ndarray) -> np.ndarray:
        """Gain of user n on ``carriers[n]`` in every row, shape (2, n)."""
        rows = np.arange(self.gains.shape[0])
        return self.gains[rows, np.array([[0], [1]]), carriers]


class RowOutcomes(NamedTuple):
    """One mode solved on every row of a ``GameRows``.

    ``kind`` indexes ``KINDS``; the per-user fields have shape (2, n), so
    ``powers[0]`` holds user 1's power in every row.
    """

    kind: np.ndarray
    carriers: np.ndarray
    powers: np.ndarray
    sinrs: np.ndarray
    utilities: np.ndarray
    divergent: np.ndarray


def _row_outcomes(rows, kind, carriers, received=None, powers=None):
    """User n alone on ``carriers[n]`` in every row.

    ``kind`` is an index into ``KINDS``, one for all rows or one per row.
    Unless ``powers`` gives them, shape (2, n), each power is ``received /
    g`` on the user's carrier; ``received`` defaults to ``gamma_star *
    sigma2``, the interference-free peak.  SINR is ``g p / (sigma2 +
    rival's received power on a shared carrier)`` and utility ``R f(SINR) /
    p``, 0 for a silent user, as in ``game.utility``.
    """
    carriers = np.stack(carriers)
    g = rows.gains_at(carriers)
    if powers is None:
        if received is None:
            received = rows.efficiency.gamma_star * rows.sigma2
        powers = received / g
    rx = g * powers
    interference = np.where(carriers[0] == carriers[1], rx[::-1], 0.0)
    sinrs = rx / (rows.sigma2 + interference)
    utilities = np.zeros_like(powers)
    for n in (0, 1):
        rate = rows.rates[n] * rows.efficiency.value_each(sinrs[n])
        np.divide(rate, powers[n], out=utilities[n], where=powers[n] != 0.0)
    return RowOutcomes(
        kind=np.broadcast_to(kind, carriers.shape[1:]).astype(np.int8),
        carriers=carriers,
        powers=powers,
        sinrs=sinrs,
        utilities=utilities,
        divergent=np.zeros(carriers.shape[1], dtype=bool),
    )


def _nash_rows(rows):
    gs = rows.efficiency.gamma_star
    (b1, b2), (s1, s2) = rows.best, rows.second
    r1, r2 = rows.best_gains / rows.second_gains
    threshold = 1.0 + gs
    contested = b1 == b2
    shared = contested & (r1 >= threshold) & (r2 >= threshold)
    user1_yields = np.where(
        (r1 >= threshold) & (threshold > r2),
        False,
        np.where((r2 >= threshold) & (threshold > r1), True, r1 <= r2),
    )
    yielding = contested & ~shared
    carriers = (
        np.where(yielding & user1_yields, s1, b1),
        np.where(yielding & ~user1_yields, s2, b2),
    )
    kind = np.where(shared, KINDS.index(NASH_SHARED), KINDS.index(NASH_EXACT))
    if not _shares_finitely(gs):
        out = _row_outcomes(rows, kind, carriers)
        out.powers[:, shared] = np.inf
        out.sinrs[:, shared] = 0.0
        out.utilities[:, shared] = 0.0
        out.divergent[shared] = True
        return out
    peak = gs * rows.sigma2
    received = np.where(shared, peak / (1.0 - gs), peak)
    return _row_outcomes(rows, kind, carriers, received)


def _stackelberg_rows(rows):
    gs = rows.efficiency.gamma_star
    (b1, b2), s2 = rows.best, rows.second[1]
    contested = b1 == b2
    g_best, g_second = rows.best_gains[1], rows.second_gains[1]
    leads = contested & ((g_best - g_second) / g_second > gs)
    kind = np.full(b1.shape, KINDS.index(STACKELBERG_EXACT), dtype=np.int8)
    carriers = np.stack((b1, np.where(contested, s2, b2)))
    # gamma_star alone on each carrier, except where the leader chooses
    powers = np.empty(carriers.shape)
    np.divide(gs * rows.sigma2, rows.gains_at(carriers), out=powers, where=~leads)
    leader = np.flatnonzero(leads)
    if leader.size:
        _leader_choice(rows, leader, kind, carriers, powers)
    return _row_outcomes(rows, kind, carriers, powers=powers)


class _LeaderValues(NamedTuple):
    """``LeaderCandidates`` on many rows, field for field; NaN for no share root."""

    deterrence_sinr: np.ndarray
    share_sinr: np.ndarray
    share_value: np.ndarray
    deter_value: np.ndarray
    retreat_value: np.ndarray
    vanish_value: np.ndarray
    best_alone_value: np.ndarray


def _leader_values(rows, idx) -> _LeaderValues:
    """The leader's candidate values on the contested rows ``idx``.

    The deter value takes its gap-free limit where the follower's gap is 0,
    and a share root is sought only where the gap exceeds gamma_star.
    """
    f = rows.efficiency
    gs = f.gamma_star
    s2n = rows.sigma2
    R1 = rows.rates[0]
    g_b1 = rows.best_gains[0, idx]
    g_best, g_second = rows.best_gains[1, idx], rows.second_gains[1, idx]
    gamma_hat = (g_best - g_second) / g_second

    slope = float(f.derivative(0.0))
    gap = gamma_hat > 0.0
    deter = np.empty(idx.shape)
    deter[gap] = R1 * f.value_each(gamma_hat[gap]) * g_b1[gap] / (gamma_hat[gap] * s2n)
    deter[~gap] = R1 * slope * g_b1[~gap] / s2n  # gap-free limit
    peak_rate = float(f.value(gs))
    retreat = R1 * peak_rate * rows.second_gains[0, idx] / (gs * s2n)
    vanish = slope * g_b1 * R1 / (s2n * (1.0 + gs))
    best_alone = R1 * peak_rate * g_b1 / (gs * s2n)

    share_sinr = np.full(idx.shape, np.nan)
    wide = gamma_hat > gs
    g_wide = gamma_hat[wide]
    share_sinr[wide] = beta_star_each(f, g_wide / (1.0 + gs * (1.0 + g_wide)))
    has_share = ~np.isnan(share_sinr)
    bs = share_sinr[has_share]
    share = np.full(idx.shape, np.nan)
    share[has_share] = (
        R1 * f.value_each(bs) * (1.0 - gs * bs) * g_b1[has_share]
        / (bs * s2n * (1.0 + gs))
    )
    return _LeaderValues(gamma_hat, share_sinr, share, deter, retreat, vanish, best_alone)


def _leader_choice(rows, idx, kind, carriers, powers):
    """The leader's comparison on rows ``idx``, contested with a follower
    gap above gamma_star: writes each row's kind, carriers and powers.

    On exact value ties the priority is deter > retreat > share; a vanish
    value above all three gives an epsilon row at epsilon = 1e-6 * vanish.
    """
    v = _leader_values(rows, idx)
    gs = rows.efficiency.gamma_star
    s2n = rows.sigma2
    peak = gs * s2n
    g_b1, g_b2 = rows.best_gains[:, idx]
    g_s1, g_s2 = rows.second_gains[:, idx]

    # Python's max over (deter, retreat[, share]): a later value replaces
    # the running maximum only when strictly greater (never a NaN share)
    best = np.where(v.retreat_value > v.deter_value, v.retreat_value, v.deter_value)
    best = np.where(v.share_value > best, v.share_value, best)
    epsilon = v.vanish_value > best
    deter_wins = ~epsilon & (v.deter_value == best)
    retreat_wins = ~epsilon & ~deter_wins & (v.retreat_value == best)
    share_wins = ~epsilon & ~deter_wins & ~retreat_wins

    d = idx[deter_wins]
    powers[0, d] = v.deterrence_sinr[deter_wins] * s2n / g_b1[deter_wins]
    powers[1, d] = peak / g_s2[deter_wins]
    r = idx[retreat_wins]
    carriers[:, r] = rows.second[0, r], rows.best[1, r]
    powers[:, r] = peak / g_s1[retreat_wins], peak / g_b2[retreat_wins]
    sh = idx[share_wins]
    carriers[1, sh] = rows.best[1, sh]
    bs = v.share_sinr[share_wins]
    one_minus = 1.0 - gs * bs
    powers[0, sh] = bs * (1.0 + gs) * s2n / (g_b1[share_wins] * one_minus)
    powers[1, sh] = gs * (1.0 + bs) * s2n / (g_b2[share_wins] * one_minus)
    e = idx[epsilon]
    if e.size:
        kind[e] = KINDS.index(STACKELBERG_EPSILON)
        carriers[1, e] = rows.best[1, e]
        vanish = v.vanish_value[epsilon]
        powers[:, e] = _epsilon_powers(
            rows, g_b1[epsilon], g_b2[epsilon], vanish, 1e-6 * vanish
        )


def _epsilon_powers(rows, g_b1, g_b2, vanish, epsilon):
    """The leader's power on each row, halved from ``_epsilon_start`` until
    his utility is within ``epsilon`` of ``vanish``, and the follower's
    reply to it."""
    f = rows.efficiency
    gs = f.gamma_star
    s2n = rows.sigma2
    R1 = rows.rates[0]
    target = vanish - epsilon
    alpha = _epsilon_start(gs, s2n, g_b1)
    short = np.arange(alpha.size)
    for _ in range(_EPSILON_GRID_CAP):
        a = alpha[short]
        follower = gs * (s2n + g_b1[short] * a) / g_b2[short]
        sinr = g_b1[short] * a / (s2n + g_b2[short] * follower)
        utility = np.zeros_like(a)
        np.divide(R1 * f.value_each(sinr), a, out=utility, where=a != 0.0)
        short = short[~(utility >= target[short])]
        if not short.size:
            break
        alpha[short] *= 0.5
    else:
        raise SolverFailure(
            "leader utility did not reach the vanishing-power target on the "
            f"geometric grid (epsilon={float(epsilon[short[0]])!r})"
        )
    return alpha, gs * (s2n + g_b1 * alpha) / g_b2


def _social_rows(rows):
    g = rows.gains
    n, _, K = g.shape
    score = (rows.rates[0] * g[:, 0])[:, :, None] + (rows.rates[1] * g[:, 1])[:, None, :]
    diagonal = np.arange(K)
    score[:, diagonal, diagonal] = -np.inf
    flat = np.argmax(score.reshape(n, K * K), axis=1)
    return _row_outcomes(rows, KINDS.index(SOCIAL_OPTIMUM), (flat // K, flat % K))


_ROW_SOLVERS = {
    "nash": _nash_rows,
    "stackelberg": _stackelberg_rows,
    "social": _social_rows,
}


def solve_rows(mode: str, rows: GameRows) -> RowOutcomes:
    """Solve every row of ``rows`` in ``mode``, as ``solve`` would row by row.

    The share roots come from the model's cached ``beta_star_roots``.
    """
    return _ROW_SOLVERS[mode](rows)
