"""Closed-form equilibria: every branch of the sequential and simultaneous solvers."""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specgame import (
    ChannelMatrix,
    CorrelationSpec,
    ExponentialEfficiency,
    GameInstance,
    PowerAllocation,
    PreconditionError,
    RationalSigmoidEfficiency,
    SolverFailure,
    best_two_carriers,
    brute_force_best_response,
    epsilon_equilibrium,
    follower_best_response,
    nash_solve,
    sample_channel,
    shared_nash_powers,
    social_optimum,
    solve_beta_star,
    stackelberg_solve,
    swap_roles,
    utility,
)
from specgame import equilibria
from specgame.equilibria import (
    KINDS,
    NASH_EXACT,
    NASH_SHARED,
    SOCIAL_OPTIMUM,
    STACKELBERG_EPSILON,
    STACKELBERG_EXACT,
    GameRows,
    solve,
    solve_rows,
)
from specgame.game import sinr
from support import ScaledExponentialEfficiency, make_instance, random_instance

M100 = ExponentialEfficiency(M=100)
GS = M100.gamma_star


def assert_consistent(outcome):
    """Reported utilities must match a fresh evaluation of the allocation."""
    inst = outcome.instance
    if outcome.divergent:
        return
    alloc = outcome.allocation()
    for u, user in enumerate(outcome.users):
        assert user.sinr == sinr(inst, alloc, u, user.carrier)
        assert user.utility == pytest.approx(utility(inst, alloc, u), rel=1e-12, abs=1e-300)
    assert outcome.welfare == pytest.approx(
        outcome.users[0].utility + outcome.users[1].utility, rel=1e-12
    )
    assert outcome.orthogonalized == (outcome.users[0].carrier != outcome.users[1].carrier)


class TestDistinctBestCarriers:
    def test_all_modes_agree(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        for solve, kind in (
            (stackelberg_solve, STACKELBERG_EXACT),
            (nash_solve, NASH_EXACT),
            (social_optimum, SOCIAL_OPTIMUM),
        ):
            out = solve(inst)
            assert out.kind == kind
            assert out.orthogonalized
            assert (out.users[0].carrier, out.users[1].carrier) == (0, 1)
            assert out.users[0].power == pytest.approx(2.158200126529801, rel=1e-12)
            assert out.users[1].power == pytest.approx(3.237300189794702, rel=1e-12)
            assert out.users[0].sinr == pytest.approx(GS, rel=1e-12)
            assert out.users[1].sinr == pytest.approx(GS, rel=1e-12)
            assert out.users[0].utility == pytest.approx(0.3970849126507396, rel=1e-12)
            assert out.users[1].utility == pytest.approx(0.26472327510049304, rel=1e-12)
            assert out.welfare == pytest.approx(0.6618081877512326, rel=1e-12)
            assert_consistent(out)


class TestStackelbergDeterrence:
    def test_symmetric_strong_best(self):
        inst = make_instance([[8.0, 1.0], [8.0, 1.0]])
        out = stackelberg_solve(inst)
        assert out.kind == STACKELBERG_EXACT
        assert out.orthogonalized
        lead, follow = out.users
        assert lead.carrier == 0 and follow.carrier == 1
        # deterrence power sigma2 * (g_b - g_a) / (g1_b * g_a)
        assert lead.power == pytest.approx(0.875, rel=1e-12)
        assert lead.sinr == pytest.approx(7.0, rel=1e-12)
        assert lead.utility == pytest.approx(1.0432090572585826, rel=1e-9)
        assert follow.sinr == pytest.approx(GS, rel=1e-12)
        assert follow.utility == pytest.approx(0.13236163755024652, rel=1e-9)
        assert out.welfare == pytest.approx(1.1755706948088291, rel=1e-9)
        assert_consistent(out)

    def test_candidate_ledger(self):
        inst = make_instance([[8.0, 1.0], [8.0, 1.0]])
        out = stackelberg_solve(inst)
        c = out.candidates
        assert c is not None
        assert c.deterrence_sinr == pytest.approx(7.0, rel=1e-12)
        assert c.share_sinr is None and c.share_value is None
        f = inst.efficiency.value
        assert c.deter_value == pytest.approx(f(7.0) * 8.0 / 7.0, rel=1e-12)
        assert c.retreat_value == pytest.approx(f(GS) / GS, rel=1e-12)
        assert c.vanish_value == 0.0
        assert c.best_alone_value == pytest.approx(f(GS) * 8.0 / GS, rel=1e-12)
        assert any("deter" in n for n in out.notes)

    def test_leader_peak_already_deters_small_gap(self):
        # follower's best-to-second gap below the stationary SINR
        inst = make_instance([[4.0, 1.0], [2.0, 1.0]])
        out = stackelberg_solve(inst)
        assert out.kind == STACKELBERG_EXACT
        assert out.orthogonalized
        assert out.users[0].carrier == 0 and out.users[1].carrier == 1
        assert out.users[0].power == pytest.approx(GS / 4.0, rel=1e-12)
        assert out.users[0].sinr == pytest.approx(GS, rel=1e-12)
        assert out.users[1].sinr == pytest.approx(GS, rel=1e-12)
        assert_consistent(out)


class TestStackelbergShare:
    def test_share_beats_deterrence_for_short_blocks(self):
        inst = make_instance(
            [[100.0, 1.0], [100.0, 1.0]], efficiency=ExponentialEfficiency(M=2)
        )
        out = stackelberg_solve(inst)
        assert out.kind == STACKELBERG_EXACT
        assert not out.orthogonalized
        lead, follow = out.users
        assert lead.carrier == 0 and follow.carrier == 0
        m2 = inst.efficiency
        beta = solve_beta_star(m2, min(m2.gamma_star, 1.0 / m2.gamma_star))
        assert lead.sinr == pytest.approx(beta, rel=1e-9)
        assert follow.sinr == pytest.approx(m2.gamma_star, rel=1e-12)
        assert lead.utility == pytest.approx(6.211662701032891, rel=1e-9)
        assert follow.utility == pytest.approx(18.15766161696087, rel=1e-9)
        c = out.candidates
        assert c.share_value == pytest.approx(lead.utility, rel=1e-12)
        assert c.share_value > c.deter_value
        assert c.share_value > c.retreat_value
        assert_consistent(out)

    def test_follower_prefers_sharing_here(self):
        # the second mover in the crowd does better than the first
        inst = make_instance(
            [[100.0, 1.0], [100.0, 1.0]], efficiency=ExponentialEfficiency(M=2)
        )
        lead, follow = swap_roles(inst)
        assert follow.users[0].utility > lead.users[0].utility

    def test_share_with_low_peak_curve(self):
        inst = make_instance(
            [[10.0, 1.0], [10.0, 1.0]], efficiency=ScaledExponentialEfficiency()
        )
        out = stackelberg_solve(inst)
        assert not out.orthogonalized
        nash = nash_solve(inst)
        assert not nash.divergent
        assert out.users[0].utility > nash.users[0].utility
        # hierarchy helps both on the shared carrier, the follower more:
        # the leader's power cut reduces everyone's interference bill
        assert out.users[1].utility > nash.users[1].utility
        lead_gain = out.users[0].utility - nash.users[0].utility
        follow_gain = out.users[1].utility - nash.users[1].utility
        assert follow_gain > lead_gain
        assert_consistent(out)


class TestEpsilonEquilibrium:
    def setup_method(self):
        self.inst = make_instance(
            [[100.0, 1.0], [100.0, 1.0]], efficiency=RationalSigmoidEfficiency()
        )

    def test_auto_epsilon_when_no_exact_optimum(self):
        out = stackelberg_solve(self.inst)
        assert out.kind == STACKELBERG_EPSILON
        assert not out.orthogonalized
        v0 = out.candidates.vanish_value
        assert v0 == pytest.approx(25.0, rel=1e-9)
        assert out.epsilon == pytest.approx(1e-6 * v0, rel=1e-12)
        assert v0 - out.epsilon <= out.users[0].utility < v0
        assert any("auto epsilon" in n for n in out.notes)

    def test_explicit_epsilon(self):
        out = epsilon_equilibrium(self.inst, 1e-3)
        assert out.kind == STACKELBERG_EPSILON
        assert out.epsilon == 1e-3
        v0 = out.candidates.vanish_value
        assert v0 - 1e-3 <= out.users[0].utility < v0
        assert out.users[0].utility == pytest.approx(24.99923710711092, rel=1e-9)
        assert_consistent(out)

    def test_leader_power_is_dyadic_fraction_of_peak(self):
        out = epsilon_equilibrium(self.inst, 1e-3)
        gs = self.inst.efficiency.gamma_star
        start = gs * 1.0 / 100.0
        j = round(math.log2(start / out.alpha))
        assert j >= 1
        assert out.alpha == start / 2.0**j

    def test_tighter_epsilon_means_smaller_power(self):
        loose = epsilon_equilibrium(self.inst, 1e-2)
        tight = epsilon_equilibrium(self.inst, 1e-5)
        assert tight.alpha < loose.alpha
        assert tight.users[0].utility > loose.users[0].utility

    def test_follower_still_at_peak(self):
        out = stackelberg_solve(self.inst)
        assert out.users[1].sinr == pytest.approx(
            self.inst.efficiency.gamma_star, rel=1e-12
        )

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            epsilon_equilibrium(self.inst, 0.0)
        with pytest.raises(PreconditionError):
            epsilon_equilibrium(make_instance([[3.0, 1.0], [1.0, 2.0]]), 1e-3)
        with pytest.raises(PreconditionError):
            epsilon_equilibrium(make_instance([[4.0, 1.0], [2.0, 1.0]]), 1e-3)
        with pytest.raises(PreconditionError):
            epsilon_equilibrium(make_instance([[8.0, 1.0], [8.0, 1.0]]), 1e-3)


class TestNash:
    def test_divergent_when_peak_above_one(self):
        inst = make_instance([[10.0, 1.0], [10.0, 1.0]])
        out = nash_solve(inst)
        assert out.kind == NASH_SHARED
        assert out.divergent
        assert not out.orthogonalized
        for u in out.users:
            assert u.power == math.inf
            assert u.sinr == 0.0
            assert u.utility == 0.0
        assert out.welfare == 0.0
        assert out.notes

    def test_shared_fixed_point_low_peak_curve(self):
        sc = ScaledExponentialEfficiency()
        inst = make_instance([[10.0, 1.0], [10.0, 1.0]], efficiency=sc)
        out = nash_solve(inst)
        assert out.kind == NASH_SHARED
        assert not out.divergent
        gs = sc.gamma_star
        # both at the stationary SINR against each other's interference
        alloc = out.allocation()
        assert sinr(inst, alloc, 0, 0) == pytest.approx(gs, rel=1e-9)
        assert sinr(inst, alloc, 1, 0) == pytest.approx(gs, rel=1e-9)
        p1, p2 = shared_nash_powers(gs, 1.0, (10.0, 10.0))
        assert out.users[0].power == pytest.approx(p1, rel=1e-12)
        assert out.users[1].power == pytest.approx(p2, rel=1e-12)
        assert_consistent(out)

    def test_shared_powers_solve_fixed_point(self):
        gs = 0.4
        p1, p2 = shared_nash_powers(gs, 2.0, (3.0, 5.0))
        assert 3.0 * p1 / (2.0 + 5.0 * p2) == pytest.approx(gs, rel=1e-12)
        assert 5.0 * p2 / (2.0 + 3.0 * p1) == pytest.approx(gs, rel=1e-12)

    def test_shared_powers_need_peak_below_one(self):
        with pytest.raises(PreconditionError):
            shared_nash_powers(GS, 1.0, (10.0, 10.0))

    def test_peak_at_one_diverges(self):
        # gamma_star = 1 exactly, solved to within the bisection tolerance
        # just below 1: still the divergent case, not a huge finite fixed point
        rs = RationalSigmoidEfficiency()
        assert rs.gamma_star == pytest.approx(1.0, abs=1e-12)
        out = nash_solve(make_instance([[100.0, 1.0], [100.0, 1.0]], efficiency=rs))
        assert out.kind == NASH_SHARED
        assert out.divergent
        assert [u.power for u in out.users] == [math.inf, math.inf]
        assert out.welfare == 0.0
        with pytest.raises(PreconditionError):
            shared_nash_powers(rs.gamma_star, 1.0, (100.0, 100.0))

    def test_one_ratio_above_threshold_other_yields(self):
        inst = make_instance([[10.0, 1.0], [3.0, 1.0]])
        out = nash_solve(inst)
        assert out.kind == NASH_EXACT
        assert (out.users[0].carrier, out.users[1].carrier) == (0, 1)
        assert out.users[0].sinr == pytest.approx(GS, rel=1e-12)
        assert out.users[1].sinr == pytest.approx(GS, rel=1e-12)
        assert_consistent(out)

    def test_both_below_weaker_ratio_yields(self):
        out_i = nash_solve(make_instance([[3.0, 1.0], [4.0, 1.0]]))
        assert (out_i.users[0].carrier, out_i.users[1].carrier) == (1, 0)
        out_j = nash_solve(make_instance([[5.0, 1.0], [4.0, 1.0]]))
        assert (out_j.users[0].carrier, out_j.users[1].carrier) == (0, 1)

    def test_orthogonal_outcome_is_mutual_best_response(self):
        for gains in ([[10.0, 1.0], [3.0, 1.0]], [[3.0, 1.0], [4.0, 1.0]]):
            inst = make_instance(gains)
            out = nash_solve(inst)
            alloc = out.allocation()
            for user in (0, 1):
                reply = brute_force_best_response(inst, alloc.p[1 - user], user)
                assert utility(inst, alloc, user) >= utility(
                    inst, reply, user
                ) * (1.0 - 1e-6)


class TestFollowerBestResponse:
    def test_picks_best_effective_gain(self):
        inst = make_instance([[2.0, 1.0], [3.0, 2.0]])
        row = follower_best_response(inst, np.array([1.0, 0.0]))
        # effective gains: 3/(1+2) = 1 on carrier 0, 2/1 = 2 on carrier 1
        assert row[0] == 0.0
        assert row[1] == pytest.approx(GS / 2.0, rel=1e-12)

    def test_tie_prefers_free_carrier(self):
        inst = make_instance([[2.0, 1.0], [4.0, 2.0]])
        row = follower_best_response(inst, np.array([0.5, 0.0]))
        # both carriers have effective gain 2; carrier 1 is unoccupied
        assert row[0] == 0.0
        assert row[1] > 0.0


class TestSocialOptimum:
    def test_tie_resolves_lexicographically(self):
        inst = make_instance([[5.0, 5.0], [3.0, 3.0]])
        out = social_optimum(inst)
        assert (out.users[0].carrier, out.users[1].carrier) == (0, 1)
        assert out.welfare == pytest.approx(1.0588931004019722, rel=1e-9)

    def test_matches_exhaustive_assignment_search(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            K = int(rng.integers(2, 5))
            inst = random_instance(rng, K)
            out = social_optimum(inst)
            g = inst.channel.gains
            best = -1.0
            for j in range(K):
                for k in range(K):
                    if j == k:
                        continue
                    best = max(best, inst.rates[0] * g[0, j] + inst.rates[1] * g[1, k])
            f = inst.efficiency
            expected = f.value(GS) * best / (GS * inst.sigma2)
            assert out.welfare == pytest.approx(expected, rel=1e-9)
            assert out.orthogonalized
            assert_consistent(out)


class TestSwapRoles:
    def test_orientation_remap(self):
        inst = make_instance([[8.0, 1.0], [6.0, 1.0]])
        lead, follow = swap_roles(inst)
        assert lead.instance is inst and follow.instance is inst
        # user 0 leading exploits its 8x carrier at the stationary SINR
        assert lead.users[0].utility == pytest.approx(1.0588931004019722, rel=1e-9)
        # user 1 leading must overshoot to 7x to deter user 0
        assert follow.users[1].sinr == pytest.approx(7.0, rel=1e-12)
        assert follow.users[1].power == pytest.approx(7.0 / 6.0, rel=1e-12)
        assert follow.users[0].carrier == 1
        assert any("user 2 led" in n for n in follow.notes)

    def test_mirrored_instance_equivalence(self):
        inst = make_instance([[8.0, 1.0], [6.0, 1.0]], rates=(2.0, 3.0))
        _, follow = swap_roles(inst)
        mirror = make_instance([[6.0, 1.0], [8.0, 1.0]], rates=(3.0, 2.0))
        direct = stackelberg_solve(mirror)
        assert follow.users[0] == direct.users[1]
        assert follow.users[1] == direct.users[0]


class TestCrossSolverProperties:
    def test_leader_never_worse_than_simultaneous(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            K = int(rng.integers(2, 4))
            inst = random_instance(rng, K)
            stack = stackelberg_solve(inst)
            nash = nash_solve(inst)
            assert stack.users[0].utility >= nash.users[0].utility * (1.0 - 1e-9)

    def test_social_welfare_tops_both(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            K = int(rng.integers(2, 4))
            inst = random_instance(rng, K)
            soc = social_optimum(inst).welfare
            assert soc >= stackelberg_solve(inst).welfare * (1.0 - 1e-9)
            assert soc >= nash_solve(inst).welfare * (1.0 - 1e-9)

    def test_sequential_sharing_implies_simultaneous_sharing(self):
        rng = np.random.default_rng(103)
        shared = 0
        for _ in range(200):
            inst = random_instance(rng, 2, efficiency=ScaledExponentialEfficiency())
            stack = stackelberg_solve(inst)
            if stack.orthogonalized:
                continue
            shared += 1
            nash = nash_solve(inst)
            assert nash.kind == NASH_SHARED
        assert shared > 0

    def test_utility_is_bitwise_rate_of_reported_sinr(self):
        # one route from powers to SINR and utility: the stored utility is
        # exactly R * f(sinr) / power for the stored sinr and power
        for f in (M100, ExponentialEfficiency(M=2), RationalSigmoidEfficiency()):
            for K in (2, 4, 8):
                for t in range(100):
                    inst = GameInstance(
                        channel=sample_channel(K, CorrelationSpec(), 0, t),
                        sigma2=1.0, rates=(1.0, 1.0), efficiency=f,
                    )
                    for solve in (nash_solve, stackelberg_solve, social_optimum):
                        out = solve(inst)
                        if out.divergent:
                            continue
                        for n, u in enumerate(out.users):
                            expected = inst.rates[n] * f.value(u.sinr) / u.power
                            assert u.utility == expected, (
                                f, K, t, solve.__name__, n, u.utility, expected
                            )

    def test_outcomes_recompute_cleanly(self):
        rng = np.random.default_rng(104)
        for _ in range(50):
            inst = random_instance(rng, 3)
            for solve in (stackelberg_solve, nash_solve, social_optimum):
                assert_consistent(solve(inst))


# Batched leader choice: ``solve_rows("stackelberg", ...)`` against the scalar
# solver, row by row, on generated games and on hand-made ones that reach
# every winner of the leader's comparison.

RATIONAL = RationalSigmoidEfficiency()
SCALED = ScaledExponentialEfficiency()


@functools.cache
def _exponential(M):
    return ExponentialEfficiency(M=M)  # one gamma_star solve per block length


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def assert_rows_match_scalar(efficiency, sigma2, rates, gains):
    """``solve_rows`` equals ``solve`` on every row; returns the scalar outcomes.

    When a scalar solve raises, the batched solve must raise the same type.
    """
    gains = np.array(gains, dtype=float)
    expected = []
    for g in gains:
        inst = GameInstance(
            channel=ChannelMatrix(g), sigma2=sigma2, rates=rates, efficiency=efficiency
        )
        try:
            expected.append(solve("stackelberg", inst))
        except Exception as exc:  # any type: the batched solve must raise the same
            with pytest.raises(type(exc)):
                solve_rows("stackelberg", GameRows(gains, sigma2, rates, efficiency))
            return None
    got = solve_rows("stackelberg", GameRows(gains, sigma2, rates, efficiency))
    for i, o in enumerate(expected):
        assert KINDS[got.kind[i]] == o.kind, i
        assert got.carriers[:, i].tolist() == [u.carrier for u in o.users], i
        assert bool(got.divergent[i]) == o.divergent, i
        for field, arr in (("power", got.powers), ("sinr", got.sinrs),
                           ("utility", got.utilities)):
            for n, u in enumerate(o.users):
                assert _same(float(arr[n, i]), getattr(u, field)), (i, n, field)
    return expected


def leader_winner(o):
    """The option a contested leader took in a scalar Stackelberg outcome."""
    if o.kind == STACKELBERG_EPSILON:
        return "epsilon"
    if not o.orthogonalized:
        return "share"
    best = best_two_carriers(o.instance.channel, 0)[0]
    return "deter" if o.users[0].carrier == best else "retreat"


def _deter_retreat_tie_gain():
    """The leader's second-carrier gain g that makes deter and retreat exactly
    equal on [[1, g], [100, 1]] with M = 100 (no share root: x_max < beta_star)."""
    gs = M100.gamma_star
    deter = 1.0 * float(M100.value(99.0)) * 1.0 / (99.0 * 1.0)
    g = deter * gs / float(M100.value(gs))
    for _ in range(200):
        retreat = 1.0 * float(M100.value(gs)) * g / (gs * 1.0)
        if retreat == deter:
            return g
        g = math.nextafter(g, math.inf if retreat < deter else 0.0)
    raise AssertionError("no exact tie within 200 ulps")


# name -> (efficiency, sigma2, rates, one game's (2, K) gains, leader's winner)
LEADER_CASES = {
    "share": (_exponential(2), 1.0, (1.0, 1.0), [[100.0, 1.0], [100.0, 1.0]], "share"),
    "share_scaled": (SCALED, 1.0, (1.0, 1.0), [[10.0, 1.0], [10.0, 1.0]], "share"),
    "deter": (M100, 1.0, (1.0, 1.0), [[8.0, 1.0], [8.0, 1.0]], "deter"),
    "retreat": (M100, 1.0, (1.0, 1.0), [[1.0, 0.99], [100.0, 1.0]], "retreat"),
    "epsilon": (RATIONAL, 1.0, (1.0, 1.0), [[100.0, 1.0], [100.0, 1.0]], "epsilon"),
    "deter_retreat_tie": (
        M100, 1.0, (1.0, 1.0), [[1.0, _deter_retreat_tie_gain()], [100.0, 1.0]], "deter"
    ),
    # gamma_star * sigma2 / g overflows, so the halving grid starts from its
    # largest finite point instead and still reaches the vanishing-power target
    "epsilon_grid_exhausted": (
        RATIONAL, 1e300, (1.0, 1.0), [[1e-10, 1e-12], [100.0, 1.0]], "epsilon"
    ),
}


@st.composite
def stackelberg_batches(draw):
    """Games sharing one curve, noise power and rates, with gains and noise
    across 1e+-100, repeated gains and identical user rows."""
    efficiency = draw(st.one_of(
        st.integers(2, 10**6).map(_exponential), st.sampled_from([RATIONAL, SCALED])
    ))
    K = draw(st.integers(2, 64))
    sigma2 = 10.0 ** draw(st.floats(-100.0, 100.0))
    rates = (draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    level = draw(st.floats(-100.0, 100.0))
    width = draw(st.sampled_from([0.0, 0.3, 3.0, 100.0]))
    # few distinct offsets, so carriers often tie exactly
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=K))
    exponent = st.sampled_from(offsets).map(
        lambda u: min(100.0, max(-100.0, level + width * u))
    )

    def user():
        # a strong carrier 0 makes contested games with wide follower gaps
        boost = draw(st.sampled_from([1.0, 30.0, 1e4]))
        es = draw(st.lists(exponent, min_size=K, max_size=K))
        return [10.0**e * (boost if k == 0 else 1.0) for k, e in enumerate(es)]

    games = []
    for _ in range(draw(st.integers(1, 4))):
        first = user()
        games.append([first, first if draw(st.booleans()) else user()])
    return efficiency, sigma2, rates, games


class TestStackelbergRowsMatchScalar:
    @pytest.mark.parametrize("name", sorted(LEADER_CASES))
    def test_leader_cases(self, name):
        efficiency, sigma2, rates, gains, winner = LEADER_CASES[name]
        other = [[1.0, 2.0], [2.0, 1.0]]  # distinct best carriers
        batch = [gains, other, gains]
        outcomes = assert_rows_match_scalar(efficiency, sigma2, rates, batch)
        if winner is SolverFailure:
            assert outcomes is None
            with pytest.raises(SolverFailure):
                solve("stackelberg", make_instance(gains, sigma2, rates, efficiency))
            return
        assert leader_winner(outcomes[0]) == winner
        assert outcomes[2].users == outcomes[0].users

    def test_overflowing_epsilon_start_meets_the_target(self):
        efficiency, sigma2, rates, gains, _ = LEADER_CASES["epsilon_grid_exhausted"]
        out = solve("stackelberg", make_instance(gains, sigma2, rates, efficiency))
        gs = efficiency.gamma_star
        assert math.isinf(gs * sigma2 / gains[0][0])
        # a grid point: a power of two times the exact gamma_star * sigma2 / g
        scale = out.alpha / (gs * (sigma2 / 2.0**64) / gains[0][0])
        assert math.isfinite(out.alpha) and math.frexp(scale)[0] == 0.5
        vanish = out.candidates.vanish_value
        assert out.epsilon == 1e-6 * vanish
        assert out.users[0].utility >= vanish - out.epsilon

    def test_grid_cap_raises_on_both_paths(self, monkeypatch):
        # the halving grid from the start power reaches the target in a few
        # dozen steps, so the 400-step cap is met only with a lowered cap
        monkeypatch.setattr(equilibria, "_EPSILON_GRID_CAP", 1)
        efficiency, sigma2, rates, gains, _ = LEADER_CASES["epsilon"]
        assert assert_rows_match_scalar(efficiency, sigma2, rates, [gains]) is None
        with pytest.raises(SolverFailure):
            solve("stackelberg", make_instance(gains, sigma2, rates, efficiency))

    def test_tie_is_exact_and_noted(self):
        efficiency, sigma2, rates, gains, _ = LEADER_CASES["deter_retreat_tie"]
        out = solve("stackelberg", make_instance(gains, sigma2, rates, efficiency))
        assert out.candidates.deter_value == out.candidates.retreat_value
        assert out.candidates.share_value is None
        assert any(n.startswith("tie between candidate values: deter, retreat")
                   for n in out.notes)

    @settings(
        max_examples=300, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(stackelberg_batches())
    def test_generated_games(self, batch):
        assert_rows_match_scalar(*batch)
