"""SINR/utility algebra and the grid-search best-response oracle."""

import math

import numpy as np
import pytest

from specgame import (
    ConfigError,
    ExponentialEfficiency,
    GameInstance,
    PowerAllocation,
    brute_force_best_response,
    follower_best_response,
    single_carrier_allocation,
    utilities,
    utility,
)
from specgame.game import effective_gain, sinr, sinr_matrix
from support import ScaledExponentialEfficiency, make_instance, random_instance


class TestSinr:
    def test_no_interference(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        alloc = single_carrier_allocation(2, [(0, 2.0), (1, 3.0)])
        assert sinr(inst, alloc, 0, 0) == pytest.approx(6.0)
        assert sinr(inst, alloc, 1, 1) == pytest.approx(6.0)
        assert sinr(inst, alloc, 0, 1) == 0.0

    def test_with_interference(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        alloc = PowerAllocation(np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert sinr(inst, alloc, 0, 0) == pytest.approx(3.0 * 2.0 / (1.0 + 1.0))
        assert sinr(inst, alloc, 0, 1) == pytest.approx(1.0 / (1.0 + 6.0))
        assert sinr(inst, alloc, 1, 0) == pytest.approx(1.0 / (1.0 + 6.0))
        assert sinr(inst, alloc, 1, 1) == pytest.approx(2.0 * 3.0 / (1.0 + 1.0))

    def test_noise_scaling(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]], sigma2=0.25)
        alloc = single_carrier_allocation(2, [(0, 2.0), (1, 3.0)])
        assert sinr(inst, alloc, 0, 0) == pytest.approx(24.0)

    def test_matrix_agrees_with_scalar(self):
        # bit for bit: one rounding of g * p / (sigma2 + interference)
        rng = np.random.default_rng(5)
        inst = random_instance(rng, 4, sigma2=0.3)
        alloc = PowerAllocation(rng.exponential(1.0, size=(2, 4)))
        mat = sinr_matrix(inst, alloc)
        assert mat.shape == (2, 4)
        for u in range(2):
            for c in range(4):
                assert mat[u, c] == sinr(inst, alloc, u, c)

    def test_effective_gain(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        alloc = PowerAllocation(np.array([[2.0, 0.0], [4.0, 0.0]]))
        assert effective_gain(inst, alloc, 0, 0) == pytest.approx(3.0 / 5.0)
        assert effective_gain(inst, alloc, 1, 0) == pytest.approx(1.0 / 7.0)


class TestUtility:
    def test_throughput_per_watt(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        alloc = PowerAllocation(np.array([[2.0, 1.0], [1.0, 3.0]]))
        f = inst.efficiency.value
        expected = (f(3.0) + f(1.0 / 7.0)) / 3.0
        assert utility(inst, alloc, 0) == pytest.approx(expected, rel=1e-12)

    def test_rate_weighting(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]], rates=(2.5, 1.0))
        alloc = single_carrier_allocation(2, [(0, 2.0), (1, 3.0)])
        base = make_instance([[3.0, 1.0], [1.0, 2.0]])
        assert utility(inst, alloc, 0) == pytest.approx(
            2.5 * utility(base, alloc, 0), rel=1e-12
        )

    def test_peak_value_per_watt(self):
        # power tuned to the stationary SINR on a unit channel
        inst = make_instance([[1.0, 1.0], [1.0, 1.0]])
        gs = inst.efficiency.gamma_star
        alloc = single_carrier_allocation(2, [(0, gs), (1, gs)])
        assert utility(inst, alloc, 0) == pytest.approx(0.13236163755024652, rel=1e-12)

    def test_zero_power_is_zero_utility(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        zero = PowerAllocation(np.zeros((2, 2)))
        assert utility(inst, zero, 0) == 0.0
        assert utility(inst, zero, 1) == 0.0

    def test_infinite_power_is_zero_utility(self):
        inst = make_instance([[3.0, 1.0], [1.0, 2.0]])
        alloc = PowerAllocation(np.array([[np.inf, 0.0], [0.0, 1.0]]))
        assert utility(inst, alloc, 0) == 0.0

    def test_utilities_pair(self):
        rng = np.random.default_rng(6)
        inst = random_instance(rng, 3)
        alloc = PowerAllocation(rng.exponential(1.0, size=(2, 3)))
        pair = utilities(inst, alloc)
        assert pair == (utility(inst, alloc, 0), utility(inst, alloc, 1))


class TestAllocations:
    def test_single_carrier_layout(self):
        alloc = single_carrier_allocation(4, [(2, 1.5), (0, 2.5)])
        expected = np.zeros((2, 4))
        expected[0, 2] = 1.5
        expected[1, 0] = 2.5
        assert np.array_equal(alloc.p, expected)

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ConfigError):
            PowerAllocation(np.array([[1.0, -0.1], [0.0, 0.0]]))
        with pytest.raises(ConfigError):
            PowerAllocation(np.array([[1.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(ConfigError):
            PowerAllocation(np.ones((3, 2)))

    def test_infinity_allowed(self):
        PowerAllocation(np.array([[np.inf, 0.0], [0.0, np.inf]]))

    def test_read_only(self):
        alloc = PowerAllocation(np.ones((2, 2)))
        with pytest.raises(ValueError):
            alloc.p[0, 0] = 2.0


class TestInstanceValidation:
    def test_bad_sigma2(self):
        with pytest.raises(ConfigError):
            make_instance([[1.0, 1.0], [1.0, 1.0]], sigma2=0.0)

    def test_bad_rates(self):
        with pytest.raises(ConfigError):
            make_instance([[1.0, 1.0], [1.0, 1.0]], rates=(1.0, -2.0))
        with pytest.raises(ConfigError):
            make_instance([[1.0, 1.0], [1.0, 1.0]], rates=(1.0, 1.0, 1.0))


class TestBruteForceBestResponse:
    def test_matches_closed_form_follower(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            K = int(rng.integers(2, 6))
            inst = random_instance(rng, K)
            leader = np.zeros(K)
            leader[rng.integers(K)] = rng.exponential(5.0)
            closed_row = follower_best_response(inst, leader)
            closed = PowerAllocation(np.vstack([leader, closed_row]))
            brute = brute_force_best_response(inst, leader, 1)
            u_closed = utility(inst, closed, 1)
            u_brute = utility(inst, brute, 1)
            assert u_brute == pytest.approx(u_closed, rel=1e-6)

    def test_wide_gain_spread_regression(self):
        # one near-dead carrier used to stretch a shared linear grid past
        # the strong carrier's optimum; per-carrier windows must not
        inst = make_instance(
            [
                [0.9134, 0.2341, 0.6791, 0.3120],
                [0.7747, 0.4536, 0.5823, 4.873e-4],
            ]
        )
        leader = np.array([0.0, 0.511, 0.0, 0.0])
        closed_row = follower_best_response(inst, leader)
        closed = PowerAllocation(np.vstack([leader, closed_row]))
        brute = brute_force_best_response(inst, leader, 1)
        assert utility(inst, brute, 1) == pytest.approx(
            utility(inst, closed, 1), rel=1e-6
        )

    def test_responds_for_either_user(self):
        rng = np.random.default_rng(43)
        inst = random_instance(rng, 3)
        opp = np.array([0.0, 2.0, 0.0])
        for user in (0, 1):
            alloc = brute_force_best_response(inst, opp, user)
            other = 1 - user
            assert np.array_equal(alloc.p[other], opp)
            assert np.count_nonzero(alloc.p[user]) == 1

    def test_finds_peak_sinr_without_interference(self):
        inst = make_instance([[2.0, 0.5], [1.0, 1.0]])
        gs = inst.efficiency.gamma_star
        alloc = brute_force_best_response(inst, np.zeros(2), 0)
        k = int(np.argmax(alloc.p[0]))
        assert k == 0
        assert alloc.p[0, 0] * 2.0 == pytest.approx(gs, rel=1e-6)

    def test_small_grid_rejected(self):
        inst = make_instance([[2.0, 0.5], [1.0, 1.0]])
        with pytest.raises(ConfigError):
            brute_force_best_response(inst, np.zeros(2), 0, n_grid=500)

    def test_scaled_efficiency_double(self):
        rng = np.random.default_rng(44)
        inst = random_instance(rng, 3, efficiency=ScaledExponentialEfficiency())
        leader = np.array([1.0, 0.0, 0.0])
        closed_row = follower_best_response(inst, leader)
        closed = PowerAllocation(np.vstack([leader, closed_row]))
        brute = brute_force_best_response(inst, leader, 1)
        assert utility(inst, brute, 1) == pytest.approx(
            utility(inst, closed, 1), rel=1e-6
        )
