"""Channel sampling: marginals, correlation structure, determinism."""

import numpy as np
import pytest
import scipy.stats

from specgame import (
    ChannelMatrix,
    ConfigError,
    CorrelationSpec,
    ExponentialEfficiency,
    best_two_carriers,
    sample_channel,
)
from specgame.channel import sample_gains, top_two


def gain_stack(K, spec, seed, trials):
    return np.stack([sample_channel(K, spec, seed, t).gains for t in range(trials)])


class TestMarginals:
    def test_unit_exponential_when_uncorrelated(self):
        g = gain_stack(4, CorrelationSpec(), seed=0, trials=2000)
        stat = scipy.stats.kstest(g.ravel(), "expon")
        assert stat.pvalue > 0.01

    def test_mean_gain_scaling(self):
        spec = CorrelationSpec(mean_gain=3.5)
        g = gain_stack(3, spec, seed=1, trials=3000)
        n = g.size
        assert abs(g.mean() - 3.5) < 4.0 * 3.5 / np.sqrt(n)

    def test_correlation_leaves_marginal_mean_alone(self):
        spec = CorrelationSpec(rho_carrier=0.7, theta_user=0.5)
        g = gain_stack(3, spec, seed=2, trials=3000)
        assert abs(g.mean() - 1.0) < 4.0 / np.sqrt(g.size)

    def test_best_to_second_ratio_event(self):
        # For two iid exponential gains, P(max >= t * min) = 2 / (1 + t).
        gs = ExponentialEfficiency(M=100).gamma_star
        t = 1.0 + gs
        g = gain_stack(2, CorrelationSpec(), seed=3, trials=6000)
        hits = (g.max(axis=2) >= t * g.min(axis=2)).ravel()
        p_hat = hits.mean()
        p = 2.0 / (1.0 + t)
        assert abs(p_hat - p) < 3.0 * np.sqrt(p * (1.0 - p) / hits.size)


class TestCorrelation:
    def test_carrier_pairs_equicorrelated(self):
        g = gain_stack(3, CorrelationSpec(rho_carrier=0.8), seed=11, trials=4000)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            r = np.corrcoef(g[:, 0, a], g[:, 0, b])[0, 1]
            assert abs(r - 0.64) < 0.05

    def test_zero_rho_uncorrelated(self):
        g = gain_stack(3, CorrelationSpec(), seed=12, trials=4000)
        assert abs(np.corrcoef(g[:, 0, 0], g[:, 0, 1])[0, 1]) < 0.05

    def test_user_rows_correlated_per_carrier(self):
        g = gain_stack(3, CorrelationSpec(theta_user=0.8), seed=13, trials=4000)
        r_same = np.corrcoef(g[:, 0, 0], g[:, 1, 0])[0, 1]
        r_cross = np.corrcoef(g[:, 0, 0], g[:, 1, 1])[0, 1]
        assert abs(r_same - 0.64) < 0.05
        assert abs(r_cross) < 0.05

    def test_full_theta_duplicates_rows(self):
        spec = CorrelationSpec(theta_user=1.0)
        for t in range(50):
            cm = sample_channel(4, spec, seed=14, trial_index=t)
            assert np.array_equal(cm.gains[0], cm.gains[1])


class TestDeterminism:
    def test_same_key_same_draw(self):
        spec = CorrelationSpec(rho_carrier=0.3, theta_user=0.2)
        a = sample_channel(5, spec, seed=7, trial_index=3)
        b = sample_channel(5, spec, seed=7, trial_index=3)
        assert np.array_equal(a.gains, b.gains)

    def test_trial_index_changes_draw(self):
        spec = CorrelationSpec()
        a = sample_channel(5, spec, seed=7, trial_index=3)
        b = sample_channel(5, spec, seed=7, trial_index=4)
        assert not np.array_equal(a.gains, b.gains)

    def test_seed_changes_draw(self):
        spec = CorrelationSpec()
        a = sample_channel(5, spec, seed=7, trial_index=3)
        b = sample_channel(5, spec, seed=8, trial_index=3)
        assert not np.array_equal(a.gains, b.gains)

    def test_batched_rows_equal_single_draws(self):
        # one re-keyed generator per batch draws what a fresh one per trial does
        spec = CorrelationSpec(rho_carrier=0.4, theta_user=0.7, mean_gain=2.5)
        single = np.stack([sample_channel(6, spec, 13, t).gains for t in range(3, 40)])
        whole = sample_gains(6, spec, 13, 3, 40)
        parts = np.concatenate(
            [sample_gains(6, spec, 13, lo, min(lo + 5, 40)) for lo in range(3, 40, 5)]
        )
        assert whole.tobytes() == single.tobytes()
        assert parts.tobytes() == single.tobytes()

    def test_trials_do_not_overlap_draws(self):
        # counter-keyed streams must not depend on enumeration order
        spec = CorrelationSpec()
        order = (4, 1, 5, 0, 3, 2)
        forward = [sample_channel(2, spec, 9, t).gains for t in range(6)]
        shuffled = [sample_channel(2, spec, 9, t).gains for t in order]
        for pos, trial in enumerate(order):
            assert np.array_equal(forward[trial], shuffled[pos])


class TestValidation:
    def test_correlation_spec_bounds(self):
        CorrelationSpec(rho_carrier=0.0, theta_user=1.0)
        for kwargs in (
            {"rho_carrier": 1.0},
            {"rho_carrier": -0.1},
            {"theta_user": 1.1},
            {"theta_user": -0.5},
            {"mean_gain": 0.0},
        ):
            with pytest.raises(ConfigError):
                CorrelationSpec(**kwargs)

    def test_sample_channel_arguments(self):
        spec = CorrelationSpec()
        with pytest.raises(ConfigError):
            sample_channel(1, spec, 0, 0)
        with pytest.raises(ConfigError):
            sample_channel(2, spec, -1, 0)
        with pytest.raises(ConfigError):
            sample_channel(2, spec, 0, -1)

    def test_matrix_shape_and_sign(self):
        with pytest.raises(ConfigError):
            ChannelMatrix(np.ones((3, 2)))
        with pytest.raises(ConfigError):
            ChannelMatrix(np.ones((2, 1)))
        with pytest.raises(ConfigError):
            ChannelMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ConfigError):
            ChannelMatrix(np.array([[1.0, np.inf], [1.0, 1.0]]))

    def test_gains_are_read_only(self):
        cm = ChannelMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            cm.gains[0, 0] = 9.0


class TestBestTwoCarriers:
    def test_picks_strongest_pair(self):
        cm = ChannelMatrix(np.array([[0.2, 3.0, 1.0], [5.0, 0.1, 2.0]]))
        assert best_two_carriers(cm, 0) == (1, 2)
        assert best_two_carriers(cm, 1) == (0, 2)

    def test_ties_resolve_to_lower_index(self):
        cm = ChannelMatrix(np.array([[1.0, 1.0, 1.0], [2.0, 5.0, 5.0]]))
        assert best_two_carriers(cm, 0) == (0, 1)
        assert best_two_carriers(cm, 1) == (1, 2)

    def test_user_out_of_range(self):
        cm = ChannelMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ConfigError):
            best_two_carriers(cm, 2)


class TestTopTwo:
    """``top_two`` must rank exactly like a stable descending argsort."""

    @staticmethod
    def stable(row):
        order = np.argsort(-row, kind="stable")
        return int(order[0]), int(order[1])

    def tie_rows(self):
        rows = [
            [3.0, 3.0, 1.0, 2.0],  # repeated value at first place
            [1.0, 3.0, 3.0, 3.0],
            [5.0, 2.0, 2.0, 1.0],  # repeated value at second place
            [1.0, 2.0, 5.0, 2.0],
            [2.0, 2.0, 2.0, 2.0],
        ]
        identical = sample_channel(4, CorrelationSpec(theta_user=1.0), 14, 0).gains
        assert identical[0].tobytes() == identical[1].tobytes()
        rows += identical.tolist()
        rng = np.random.default_rng(5)
        rows += rng.integers(1, 4, size=(200, 4)).astype(float).tolist()
        return np.array(rows)

    def test_matches_stable_argsort_on_ties(self):
        rows = self.tie_rows()
        best, second = top_two(rows)
        for row, b, s in zip(rows, best, second):
            assert (int(b), int(s)) == self.stable(row)

    def test_batched_shape_and_best_two_carriers(self):
        rows = self.tie_rows()
        stack = rows[: len(rows) // 2 * 2].reshape(-1, 2, rows.shape[1])
        best, second = top_two(stack)
        assert best.shape == second.shape == stack.shape[:2]
        for i, game in enumerate(stack):
            cm = ChannelMatrix(game)
            for user in (0, 1):
                expected = self.stable(game[user])
                assert best_two_carriers(cm, user) == expected
                assert (int(best[i, user]), int(second[i, user])) == expected
