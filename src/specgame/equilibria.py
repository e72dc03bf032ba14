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
diagnostics.  ``SOLVERS`` maps each sweep mode to its solver, and
``solve`` looks the solver up at call time.

Sweeps solve many games at once with ``solve_rows``, which reproduces the
scalar solvers bit for bit on arrays, the leader's four-way comparison and
the epsilon fallback included.  Sweeps therefore never call a solver
patched onto this module; ``solve``, and with it ``run_trial`` and the
oracle checks of :mod:`specgame.verify`, always see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix, best_two_carriers, top_two
from .errors import PreconditionError, SolverFailure
from .efficiency import _BISECT_TOL, EfficiencyModel, beta_star_each, solve_beta_star
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


def _users(inst, carriers, powers):
    """Per-user outcomes when user n puts ``powers[n]`` on ``carriers[n]`` only.

    SINR is ``g p / (sigma2 + rival's received power on a shared carrier)``
    and utility ``R f(SINR) / p``, 0 for a silent user, as in ``game.utility``.
    """
    g = inst.channel.gains
    received = (g[0, carriers[0]] * powers[0], g[1, carriers[1]] * powers[1])
    shared = carriers[0] == carriers[1]
    users = []
    for n in (0, 1):
        p = float(powers[n])
        s = float(received[n] / (inst.sigma2 + (received[1 - n] if shared else 0.0)))
        u = inst.rates[n] * float(inst.efficiency.value(s)) / p if p != 0.0 else 0.0
        users.append(UserOutcome(carrier=carriers[n], power=p, sinr=s, utility=u))
    return tuple(users)


def _outcome(inst, kind, carriers, powers=None, **extra):
    """Assemble an outcome; ``powers`` defaults to gamma_star alone on each carrier."""
    if powers is None:
        g = inst.channel.gains
        peak = inst.efficiency.gamma_star * inst.sigma2
        powers = (peak / g[0, carriers[0]], peak / g[1, carriers[1]])
    return EquilibriumOutcome(
        kind=kind,
        users=_users(inst, carriers, powers),
        orthogonalized=carriers[0] != carriers[1],
        instance=inst,
        **extra,
    )


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


def _ranked(inst):
    b1, s1 = best_two_carriers(inst.channel, 0)
    b2, s2 = best_two_carriers(inst.channel, 1)
    return b1, s1, b2, s2


def _leader_candidates(inst, b1, s1, b2, s2):
    g = inst.channel.gains
    s2n = inst.sigma2
    f = inst.efficiency
    gs = f.gamma_star
    R1 = inst.rates[0]
    gamma_hat = (g[1, b2] - g[1, s2]) / g[1, s2]

    if gamma_hat > 0.0:
        deter = R1 * float(f.value(gamma_hat)) * g[0, b1] / (gamma_hat * s2n)
    else:
        deter = R1 * float(f.derivative(0.0)) * g[0, b1] / s2n  # gap-free limit
    retreat = R1 * float(f.value(gs)) * g[0, s1] / (gs * s2n)
    vanish = float(f.derivative(0.0)) * g[0, b1] * R1 / (s2n * (1.0 + gs))
    best_alone = R1 * float(f.value(gs)) * g[0, b1] / (gs * s2n)

    share_sinr = None
    share_value = None
    if gamma_hat > gs:
        x_max = gamma_hat / (1.0 + gs * (1.0 + gamma_hat))
        share_sinr = solve_beta_star(f, x_max)
        if share_sinr is not None:
            share_value = (
                R1 * float(f.value(share_sinr)) * (1.0 - gs * share_sinr) * g[0, b1]
                / (share_sinr * s2n * (1.0 + gs))
            )
    return gamma_hat, LeaderCandidates(
        deterrence_sinr=gamma_hat,
        share_sinr=share_sinr,
        share_value=share_value,
        deter_value=deter,
        retreat_value=retreat,
        vanish_value=vanish,
        best_alone_value=best_alone,
    )


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
    g = inst.channel.gains
    s2n = inst.sigma2
    gs = inst.efficiency.gamma_star
    b1, s1, b2, s2 = _ranked(inst)

    if b1 != b2:
        return _outcome(inst, STACKELBERG_EXACT, (b1, b2))

    gamma_hat, cand = _leader_candidates(inst, b1, s1, b2, s2)

    if gamma_hat <= gs:
        return _outcome(inst, STACKELBERG_EXACT, (b1, s2), candidates=cand)

    exact = _attainable(cand)
    best_exact = max(v for _, v in exact)

    if cand.vanish_value > best_exact:
        return _epsilon_outcome(
            inst, b1, b2, cand, epsilon=1e-6 * cand.vanish_value,
            notes=("auto epsilon: vanishing-power supremum beats every exact option",),
        )

    notes = []
    if cand.share_value is None:
        notes.append("no shared-carrier root: compared deter and retreat only")
    winners = [name for name, v in exact if v == best_exact]
    if len(winners) > 1:
        notes.append("tie between candidate values: " + ", ".join(winners))
    winner = winners[0]  # list order encodes the tie priority
    extra = dict(candidates=cand, notes=tuple(notes))

    if winner == "deter":
        powers = (gamma_hat * s2n / g[0, b1], gs * s2n / g[1, s2])
        return _outcome(inst, STACKELBERG_EXACT, (b1, s2), powers, **extra)
    if winner == "retreat":
        return _outcome(inst, STACKELBERG_EXACT, (s1, b2), **extra)
    bs = cand.share_sinr
    one_minus = 1.0 - gs * bs
    powers = (
        bs * (1.0 + gs) * s2n / (g[0, b1] * one_minus),
        gs * (1.0 + bs) * s2n / (g[1, b2] * one_minus),
    )
    return _outcome(inst, STACKELBERG_EXACT, (b1, b2), powers, **extra)


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


def _epsilon_outcome(inst, b1, b2, cand, epsilon, notes=()):
    g = inst.channel.gains
    s2n = inst.sigma2
    gs = inst.efficiency.gamma_star
    target = cand.vanish_value - epsilon
    alpha = _epsilon_start(gs, s2n, g[0, b1 : b1 + 1])[0]
    for _ in range(_EPSILON_GRID_CAP):
        follower_power = gs * (s2n + g[0, b1] * alpha) / g[1, b2]
        users = _users(inst, (b1, b2), (alpha, follower_power))
        if users[0].utility >= target:
            break
        alpha *= 0.5
    else:
        raise SolverFailure(
            "leader utility did not reach the vanishing-power target on the "
            f"geometric grid (epsilon={epsilon!r})"
        )
    return EquilibriumOutcome(
        kind=STACKELBERG_EPSILON, users=users, orthogonalized=False, instance=inst,
        candidates=cand, epsilon=epsilon, alpha=alpha, notes=tuple(notes),
    )


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
    b1, s1, b2, s2 = _ranked(inst)
    if b1 != b2:
        raise PreconditionError("distinct best carriers: an exact equilibrium exists")
    gs = inst.efficiency.gamma_star
    gamma_hat, cand = _leader_candidates(inst, b1, s1, b2, s2)
    if gamma_hat <= gs:
        raise PreconditionError("follower gap below gamma_star: exact equilibrium exists")
    if not cand.vanish_value > max(v for _, v in _attainable(cand)):
        raise PreconditionError(
            "vanishing-power supremum does not dominate: exact equilibrium exists"
        )
    return _epsilon_outcome(inst, b1, b2, cand, epsilon)


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
    g = inst.channel.gains
    gs = inst.efficiency.gamma_star
    b1, s1, b2, s2 = _ranked(inst)

    if b1 != b2:
        return _outcome(inst, NASH_EXACT, (b1, b2))

    r1 = g[0, b1] / g[0, s1]
    r2 = g[1, b2] / g[1, s2]
    threshold = 1.0 + gs

    if r1 >= threshold and r2 >= threshold:
        if _shares_finitely(gs):
            powers = shared_nash_powers(gs, inst.sigma2, (g[0, b1], g[1, b2]))
            return _outcome(inst, NASH_SHARED, (b1, b2), powers)
        users = tuple(
            UserOutcome(carrier=(b1, b2)[n], power=np.inf, sinr=0.0, utility=0.0)
            for n in (0, 1)
        )
        return EquilibriumOutcome(
            kind=NASH_SHARED,
            users=users,
            orthogonalized=False,
            instance=inst,
            divergent=True,
            notes=("shared fixed point diverges for gamma_star >= 1",),
        )

    if r1 >= threshold > r2:
        user1_yields = False
    elif r2 >= threshold > r1:
        user1_yields = True
    else:
        user1_yields = r1 <= r2
    return _outcome(inst, NASH_EXACT, (s1, b2) if user1_yields else (b1, s2))


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
    g = inst.channel.gains
    score = inst.rates[0] * g[0][:, None] + inst.rates[1] * g[1][None, :]
    np.fill_diagonal(score, -np.inf)
    j, k = np.unravel_index(int(np.argmax(score)), score.shape)
    return _outcome(inst, SOCIAL_OPTIMUM, (int(j), int(k)))


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


# Batched solvers: one mode on many games at once.  Every number equals what
# the scalar solver above returns for the same row, bit for bit: the
# arithmetic is the same, in the same order, and f is evaluated through
# ``EfficiencyModel.value_each``.

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
    """Batched ``_outcome``: user n alone on ``carriers[n]`` in every row.

    ``kind`` is an index into ``KINDS``, one for all rows or one per row.
    Unless ``powers`` gives them, shape (2, n), each power is ``received /
    g`` on the user's carrier; ``received`` defaults to ``gamma_star *
    sigma2``, the interference-free peak.
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
    gamma_hat = (g_best - g_second) / g_second
    kind = np.full(b1.shape, KINDS.index(STACKELBERG_EXACT), dtype=np.int8)
    carriers = np.stack((b1, np.where(contested, s2, b2)))
    powers = gs * rows.sigma2 / rows.gains_at(carriers)
    leader = np.flatnonzero(contested & (gamma_hat > gs))
    if leader.size:
        _leader_choice(rows, leader, gamma_hat[leader], kind, carriers, powers)
    return _row_outcomes(rows, kind, carriers, powers=powers)


def _leader_choice(rows, idx, gamma_hat, kind, carriers, powers):
    """Batched leader comparison of ``stackelberg_solve`` on rows ``idx``.

    The rows are contested with a follower gap ``gamma_hat`` above
    gamma_star.  Writes each row's kind, carriers and powers in place, with
    the operations of ``_leader_candidates``, ``stackelberg_solve`` and
    ``_epsilon_outcome`` in the same order.
    """
    f = rows.efficiency
    gs = f.gamma_star
    s2n = rows.sigma2
    R1 = rows.rates[0]
    g_b1 = rows.best_gains[0, idx]
    g_s1 = rows.second_gains[0, idx]
    g_b2 = rows.best_gains[1, idx]

    deter = R1 * f.value_each(gamma_hat) * g_b1 / (gamma_hat * s2n)
    retreat = R1 * float(f.value(gs)) * g_s1 / (gs * s2n)
    vanish = float(f.derivative(0.0)) * g_b1 * R1 / (s2n * (1.0 + gs))
    share_sinr = beta_star_each(f, gamma_hat / (1.0 + gs * (1.0 + gamma_hat)))
    has_share = ~np.isnan(share_sinr)
    bs = share_sinr[has_share]
    share = np.full(idx.shape, np.nan)
    share[has_share] = (
        R1 * f.value_each(bs) * (1.0 - gs * bs) * g_b1[has_share]
        / (bs * s2n * (1.0 + gs))
    )

    # Python's max over (deter, retreat[, share]): a later value replaces
    # the running maximum only when strictly greater
    best = np.where(retreat > deter, retreat, deter)
    best = np.where(has_share & (share > best), share, best)
    epsilon = vanish > best
    deter_wins = ~epsilon & (deter == best)
    retreat_wins = ~epsilon & ~deter_wins & (retreat == best)
    share_wins = ~epsilon & ~deter_wins & ~retreat_wins

    d = idx[deter_wins]
    powers[0, d] = gamma_hat[deter_wins] * s2n / g_b1[deter_wins]
    r = idx[retreat_wins]
    carriers[:, r] = rows.second[0, r], rows.best[1, r]
    powers[:, r] = gs * s2n / g_s1[retreat_wins], gs * s2n / g_b2[retreat_wins]
    sh = idx[share_wins]
    carriers[1, sh] = rows.best[1, sh]
    bs = share_sinr[share_wins]
    one_minus = 1.0 - gs * bs
    powers[0, sh] = bs * (1.0 + gs) * s2n / (g_b1[share_wins] * one_minus)
    powers[1, sh] = gs * (1.0 + bs) * s2n / (g_b2[share_wins] * one_minus)
    e = idx[epsilon]
    kind[e] = KINDS.index(STACKELBERG_EPSILON)
    carriers[1, e] = rows.best[1, e]
    powers[:, e] = _epsilon_powers(rows, g_b1[epsilon], g_b2[epsilon], vanish[epsilon])


def _epsilon_powers(rows, g_b1, g_b2, vanish):
    """Batched ``_epsilon_outcome`` at epsilon = 1e-6 * vanish: the leader's
    halved power on each row, and the follower's reply to it."""
    f = rows.efficiency
    gs = f.gamma_star
    s2n = rows.sigma2
    R1 = rows.rates[0]
    epsilon = 1e-6 * vanish
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

    Every row is solved on arrays, without calling a scalar solver; the
    share roots come from the model's cached ``beta_star_roots``.
    """
    return _ROW_SOLVERS[mode](rows)
