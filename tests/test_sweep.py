"""Monte Carlo sweeps: determinism, aggregation, per-trial invariants, CSV shape."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from specgame import (
    ConfigError,
    CorrelationSpec,
    ExponentialEfficiency,
    RationalSigmoidEfficiency,
    SweepConfig,
    p_gain_condition_iid,
    run_sweep,
    run_trial,
    sample_channel,
    write_aggregate_csv,
    write_trial_csv,
)
from specgame import equilibria, sweep
from specgame.sweep import (
    AGGREGATE_HEADER, TRIAL_HEADER, MODES, TrialTable, _F, _fmt, _resolve_workers,
)
from support import ScaledExponentialEfficiency, write_trial_csv_reference

GS_M100 = 6.474600379589404


def small_config(**overrides):
    kwargs = dict(K_list=[2], trials=120, seed=9)
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def csv_bytes(result, tmp_path, stem):
    agg = tmp_path / f"{stem}.csv"
    write_aggregate_csv(result.aggregates, agg)
    out = agg.read_bytes()
    if result.trials is not None:
        tri = tmp_path / f"{stem}.trials.csv"
        write_trial_csv(result.trials, tri)
        out += tri.read_bytes()
    return out


class TestConfigValidation:
    def test_carrier_counts(self):
        for bad in ([], [1], [2.5], [True]):
            with pytest.raises(ConfigError):
                SweepConfig(K_list=bad)

    def test_scalars(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)
        with pytest.raises(ConfigError):
            small_config(seed=-1)
        with pytest.raises(ConfigError):
            small_config(sigma2=0.0)
        with pytest.raises(ConfigError):
            small_config(rates=(1.0,))

    def test_seed_fits_the_philox_key(self):
        top = SweepConfig(K_list=[2], trials=2, seed=2**64 - 1)
        assert len(run_sweep(top).aggregates) == len(MODES)
        with pytest.raises(ConfigError, match="seed"):
            SweepConfig(K_list=[2], trials=2, seed=2**64)

    def test_modes(self):
        with pytest.raises(ConfigError):
            small_config(modes=("nash", "nash"))
        with pytest.raises(ConfigError):
            small_config(modes=())
        with pytest.raises(ConfigError):
            small_config(modes=("nash", "bogus"))

    def test_correlation_ranges(self):
        with pytest.raises(ConfigError):
            small_config(rho_list=[1.0])
        small_config(theta_list=[1.0])

    def test_lists_coerced_to_tuples(self):
        cfg = small_config(K_list=[2, 4], rho_list=[0.0, 0.5])
        assert cfg.K_list == (2, 4)
        assert cfg.rho_list == (0.0, 0.5)


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_config()
        a = run_trial(cfg, 2, 0.0, 0.0, trial_index=5)
        b = run_trial(cfg, 2, 0.0, 0.0, trial_index=5)
        assert a == b

    def test_channel_summary_fields(self):
        cfg = small_config()
        rec = run_trial(cfg, 3, 0.2, 0.1, trial_index=4)
        gains = sample_channel(
            3, CorrelationSpec(rho_carrier=0.2, theta_user=0.1), seed=9, trial_index=4
        ).gains
        for u in range(2):
            assert rec.best_gains[u] == gains[u].max()
            assert gains[u, rec.best_carriers[u]] == rec.best_gains[u]
            assert rec.best_gains[u] >= rec.second_gains[u]
            assert rec.best_carriers[u] != rec.second_carriers[u]

    def test_stats_follow_mode_order(self):
        cfg = small_config(modes=("social", "nash"))
        rec = run_trial(cfg, 2, 0.0, 0.0, trial_index=0)
        assert tuple(s.mode for s in rec.stats) == ("social", "nash")

    def test_se_and_ee_definitions(self):
        cfg = small_config()
        rec = run_trial(cfg, 2, 0.0, 0.0, trial_index=7)
        for s in rec.stats:
            if s.divergent:
                continue
            se = 0.5 * sum(math.log2(1.0 + x) for x in s.sinrs)
            assert s.se == pytest.approx(se, rel=1e-12)
            f = cfg.efficiency.value
            ee = sum(f(x) for x in s.sinrs) / sum(s.powers)
            assert s.system_ee == pytest.approx(ee, rel=1e-12)
            assert s.welfare == pytest.approx(sum(s.utilities), rel=1e-12)

    def test_divergent_trials_zero_out(self):
        # identical rows + long blocks: simultaneous play escalates forever
        cfg = small_config(theta_list=[1.0], trials=400)
        found = False
        for t in range(400):
            rec = run_trial(cfg, 2, 0.0, 1.0, trial_index=t)
            nash = rec.stats[0]
            assert nash.mode == "nash"
            if nash.divergent:
                found = True
                assert nash.utilities == (0.0, 0.0)
                assert nash.welfare == 0.0
                assert nash.system_ee == 0.0
                assert not nash.orthogonalized
                break
        assert found


class TestAggregation:
    def test_matches_per_trial_records(self):
        cfg = small_config(trials=150)
        res = run_sweep(cfg, per_trial=True)
        for agg in res.aggregates:
            stats = [
                s
                for rec in res.trials
                for s in rec.stats
                if s.mode == agg.mode and rec.K == agg.K
            ]
            assert agg.trials == len(stats) == 150
            p = np.mean([not s.orthogonalized for s in stats])
            assert agg.p_no_orth == pytest.approx(p, abs=1e-15)
            assert agg.p_no_orth_se == pytest.approx(
                math.sqrt(p * (1.0 - p) / 150), rel=1e-12
            )
            assert agg.ee_mean == pytest.approx(
                np.mean([s.system_ee for s in stats]), rel=1e-12
            )
            assert agg.ee_user1 == pytest.approx(
                np.mean([s.utilities[0] for s in stats]), rel=1e-12
            )
            assert agg.ee_user2 == pytest.approx(
                np.mean([s.utilities[1] for s in stats]), rel=1e-12
            )
            assert agg.se_mean == pytest.approx(
                np.mean([s.se for s in stats]), rel=1e-12
            )
            assert agg.welfare_mean == pytest.approx(
                np.mean([s.welfare for s in stats]), rel=1e-12
            )

    def test_single_trial_has_zero_stderr(self):
        res = run_sweep(small_config(trials=1))
        for agg in res.aggregates:
            assert agg.p_no_orth_se == 0.0

    def test_row_order_nested_by_cell_then_mode(self):
        cfg = SweepConfig(K_list=[2, 3], theta_list=[0.0, 1.0], trials=5)
        res = run_sweep(cfg)
        keys = [(a.K, a.rho, a.theta, a.mode) for a in res.aggregates]
        expected = [
            (K, 0.0, th, mode)
            for K in (2, 3)
            for th in (0.0, 1.0)
            for mode in MODES
        ]
        assert keys == expected

    def test_trials_omitted_unless_requested(self):
        assert run_sweep(small_config(trials=3)).trials is None
        assert run_sweep(small_config(trials=3), per_trial=True).trials is not None


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = small_config()
        a = csv_bytes(run_sweep(cfg, per_trial=True), tmp_path, "a")
        b = csv_bytes(run_sweep(cfg, per_trial=True), tmp_path, "b")
        assert a == b

    def test_worker_count_invariant(self, tmp_path):
        cfg = small_config()
        a = csv_bytes(run_sweep(cfg, per_trial=True, workers=1), tmp_path, "w1")
        b = csv_bytes(run_sweep(cfg, per_trial=True, workers=2), tmp_path, "w2")
        assert a == b

    def test_workers_env_var(self, tmp_path, monkeypatch):
        cfg = small_config()
        base = csv_bytes(run_sweep(cfg, workers=1), tmp_path, "base")
        monkeypatch.setenv("SPECGAME_WORKERS", "2")
        env = csv_bytes(run_sweep(cfg), tmp_path, "env")
        assert base == env

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("SPECGAME_WORKERS", raising=False)
        assert _resolve_workers(None) == 1
        assert _resolve_workers(4) == 4
        monkeypatch.setenv("SPECGAME_WORKERS", "3")
        assert _resolve_workers(None) == 3
        assert _resolve_workers(2) == 2
        monkeypatch.setenv("SPECGAME_WORKERS", "abc")
        with pytest.raises(ConfigError):
            _resolve_workers(None)
        with pytest.raises(ConfigError):
            _resolve_workers(0)
        for flag in (True, False):
            with pytest.raises(ConfigError):
                _resolve_workers(flag)
        resolved = _resolve_workers(np.int64(2))
        assert resolved == 2 and type(resolved) is int
        with pytest.raises(ConfigError):
            _resolve_workers(np.int64(0))


class TestPerTrialInvariants:
    def test_orderings_hold_every_trial(self):
        cfg = small_config(trials=600, seed=21)
        res = run_sweep(cfg, per_trial=True)
        for rec in res.trials:
            nash, stack, social = rec.stats
            assert social.orthogonalized
            assert social.welfare >= stack.welfare * (1.0 - 1e-9)
            assert social.welfare >= nash.welfare * (1.0 - 1e-9)
            assert stack.utilities[0] >= nash.utilities[0] * (1.0 - 1e-9)
            if not stack.orthogonalized:
                assert not nash.orthogonalized

    def test_nash_sharing_rate_matches_prediction(self):
        cfg = small_config(trials=3000, seed=33, modes=("nash",))
        res = run_sweep(cfg, per_trial=True)
        p_hat = res.aggregates[0].p_no_orth
        p = p_gain_condition_iid(GS_M100, 2)
        assert abs(p_hat - p) < 4.0 * math.sqrt(p * (1.0 - p) / 3000)

    def test_identical_fading_shares_more(self):
        base = small_config(trials=1500, seed=40, modes=("nash",))
        res0 = run_sweep(base)
        res1 = run_sweep(small_config(trials=1500, seed=40, modes=("nash",), theta_list=[1.0]))
        assert res1.aggregates[0].p_no_orth > res0.aggregates[0].p_no_orth

    def test_more_carriers_share_less(self):
        cfg = SweepConfig(
            K_list=[2, 8], theta_list=[1.0], trials=1500, seed=41, modes=("nash",)
        )
        res = run_sweep(cfg)
        by_k = {a.K: a.p_no_orth for a in res.aggregates}
        assert by_k[8] < by_k[2]


class TestCsvFiles:
    def test_headers(self, tmp_path):
        assert AGGREGATE_HEADER == (
            "K,rho,theta,mode,trials,p_no_orth,p_no_orth_se,"
            "ee_mean,ee_user1,ee_user2,se_mean,welfare_mean"
        )
        assert TRIAL_HEADER == (
            "trial,K,rho,theta,mode,kind,orthogonalized,carrier1,carrier2,"
            "power1,power2,sinr1,sinr2,utility1,utility2,welfare,se,system_ee"
        )
        res = run_sweep(small_config(trials=3), per_trial=True)
        agg = tmp_path / "agg.csv"
        tri = tmp_path / "tri.csv"
        write_aggregate_csv(res.aggregates, agg)
        write_trial_csv(res.trials, tri)
        assert agg.read_text().splitlines()[0] == AGGREGATE_HEADER
        assert tri.read_text().splitlines()[0] == TRIAL_HEADER

    def test_unix_line_endings(self, tmp_path):
        res = run_sweep(small_config(trials=3), per_trial=True)
        agg = tmp_path / "agg.csv"
        write_aggregate_csv(res.aggregates, agg)
        assert b"\r" not in agg.read_bytes()

    def test_row_counts(self, tmp_path):
        cfg = SweepConfig(K_list=[2, 3], theta_list=[0.0, 0.5], trials=4)
        res = run_sweep(cfg, per_trial=True)
        agg = tmp_path / "agg.csv"
        tri = tmp_path / "tri.csv"
        write_aggregate_csv(res.aggregates, agg)
        write_trial_csv(res.trials, tri)
        assert len(agg.read_text().splitlines()) == 1 + 2 * 2 * 3
        assert len(tri.read_text().splitlines()) == 1 + 2 * 2 * 4 * 3

    def test_trial_rows_use_one_based_carriers(self, tmp_path):
        res = run_sweep(small_config(trials=5), per_trial=True)
        tri = tmp_path / "tri.csv"
        write_trial_csv(res.trials, tri)
        lines = tri.read_text().splitlines()
        header = lines[0].split(",")
        first = dict(zip(header, lines[1].split(",")))
        rec = res.trials[0]
        stat = rec.stats[0]
        assert int(first["carrier1"]) == stat.carriers[0] + 1
        assert int(first["carrier2"]) == stat.carriers[1] + 1
        assert first["orthogonalized"] in ("true", "false")

    def test_nine_significant_digits(self, tmp_path):
        res = run_sweep(small_config(trials=7))
        agg = tmp_path / "agg.csv"
        write_aggregate_csv(res.aggregates, agg)
        lines = agg.read_text().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        a = res.aggregates[0]
        assert row["welfare_mean"] == format(a.welfare_mean, ".9g")
        assert row["p_no_orth"] == format(a.p_no_orth, ".9g")


    def test_float_template_matches_format(self):
        # the row templates' %-format and _fmt read one spec; they must agree
        # on every float, edge values included
        rng = np.random.default_rng(0)
        edges = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324,
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1.0, 0.1, 123456789.5, 1e16]
        values = np.concatenate([
            edges,
            rng.lognormal(0.0, 30.0, 20_000),
            rng.uniform(-1.0, 1.0, 5_000) * 1e-300,
            rng.uniform(-1.0, 1.0, 5_000) * 1e300,
        ]).tolist()
        for x in values:
            assert _F % x == _fmt(x) == format(x, ".9g"), repr(x)


class TestTrialTable:
    CONFIG = dict(K_list=[2, 3], theta_list=[0.0, 1.0], trials=7, seed=4)

    @pytest.fixture(scope="class")
    def table(self):
        return run_sweep(SweepConfig(**self.CONFIG), per_trial=True).trials

    def test_sequence_of_run_trial_records(self, table):
        cfg = SweepConfig(**self.CONFIG)
        assert isinstance(table, TrialTable)
        assert len(table) == 2 * 2 * 7
        assert table[0] == run_trial(cfg, 2, 0.0, 0.0, 0)
        assert table[-1] == run_trial(cfg, 3, 0.0, 1.0, 6)
        assert table[-len(table)] == table[0]
        assert table[np.int64(9)] == run_trial(cfg, 2, 0.0, 1.0, 2)

    def test_index_past_either_end(self, table):
        for i in (len(table), len(table) + 5, -len(table) - 1):
            with pytest.raises(IndexError):
                table[i]
        with pytest.raises(TypeError):
            table[1.0]

    def test_iteration_equals_indexing(self, table, monkeypatch):
        monkeypatch.setattr(sweep, "_PIECE_TRIALS", 3)  # pieces split each cell
        records = list(table)
        assert records == [table[i] for i in range(len(table))]
        assert list(reversed(table)) == records[::-1]

    def test_sweep_and_trial_csv_build_no_record(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a record was built")

        monkeypatch.setattr(sweep, "TrialRecord", refuse)
        monkeypatch.setattr(sweep, "ModeStats", refuse)
        res = run_sweep(SweepConfig(**self.CONFIG), per_trial=True)
        write_trial_csv(res.trials, tmp_path / "tri.csv")
        with pytest.raises(AssertionError, match="a record was built"):
            res.trials[0]

    def test_memory_per_trial(self):
        # the table holds each cell's arrays, a few hundred bytes a trial;
        # a tuple of TrialRecords took about 2,600
        cfg = SweepConfig(K_list=[2, 4, 8], trials=2000, seed=3)
        run_sweep(SweepConfig(K_list=[2], trials=20, seed=1), per_trial=True)
        cfg.efficiency.gamma_star  # one-time set-up
        tracemalloc.start()
        try:
            result = run_sweep(cfg, per_trial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.trials) == 6000
        assert peak / 6000 < 800, peak / 6000


class TestCsvCanary:
    """Pinned SHA-256 digests of small sweeps.

    Recorded with numpy 2.4.6 on CPython 3.11.  A solver or formatting
    change that moves a byte here has to show why the new byte is at least
    as right before the digests are re-recorded.
    """

    CASES = {
        "iid_M100": (
            dict(K_list=[2, 4], trials=150, seed=11,
                 efficiency=ExponentialEfficiency(M=100)),
            "dcdae8fb60ba2610f416907d863ff8c41fc5088f6aada135d7ea666b69fc11d8",
            "fd988f5c484995f1fffcceea14cf89d68f9fe28b0cd2b7ddee8b2eede9a0709a",
        ),
        "correlated_M2": (
            dict(K_list=[3], rho_list=[0.5], theta_list=[0.6], trials=150,
                 seed=11, efficiency=ExponentialEfficiency(M=2)),
            "c6f6ee66b46c2daa03fe70fa97791a0cd8a15b607b768290ded5bc7ee5ac1a4a",
            "6fda25c0eb50b95ed77f166de5097e10b9af6c92c16e2c452b745fc4c0f9331a",
        ),
        # every trial contested: pins the epsilon and no-share-root outcomes
        "identical_rational_sigmoid": (
            dict(K_list=[2, 4], theta_list=[1.0], trials=150, seed=11,
                 efficiency=RationalSigmoidEfficiency()),
            "a67ef759f95d3f2c7a5f5a38f2417c7d9e88aabdeb2bc4eef921a16ecca9f30a",
            "2c6aa406d6eca776bac64222e603750669bb43e33fa548ff8eca1d9c9d2c5fc0",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digests(self, name, tmp_path):
        kwargs, agg_digest, tri_digest = self.CASES[name]
        res = run_sweep(SweepConfig(**kwargs), per_trial=True)
        agg, tri = tmp_path / "agg.csv", tmp_path / "agg.trials.csv"
        write_aggregate_csv(res.aggregates, agg)
        write_trial_csv(res.trials, tri)
        got = (
            hashlib.sha256(agg.read_bytes()).hexdigest(),
            hashlib.sha256(tri.read_bytes()).hexdigest(),
        )
        assert got == (agg_digest, tri_digest), (
            f"{name}: sweep CSV bytes changed. If no solver or formatting code "
            "changed, suspect drift in numpy's Generator streams (NEP 19 does "
            "not promise them stable across numpy versions) or in libm "
            "(exp/expm1/pow rounding), and re-record the digests."
        )


# Configs on which the batched sweep must reproduce run_trial exactly; between
# them they reach every solver branch (see test_every_branch_is_exercised).
BATCH_CASES = {
    "iid_main_grid": dict(K_list=[2, 4, 8], trials=150, seed=0),
    "exponential_M2": dict(
        K_list=[2, 4], trials=150, seed=1, efficiency=ExponentialEfficiency(M=2)
    ),
    "scaled_exponential": dict(
        K_list=[2, 4], theta_list=[0.0, 1.0], trials=150, seed=2,
        efficiency=ScaledExponentialEfficiency(),
    ),
    "rational_sigmoid_identical": dict(
        K_list=[2, 4, 8], theta_list=[1.0], trials=100, seed=3,
        efficiency=RationalSigmoidEfficiency(),
    ),
    "correlated_low_noise_rates": dict(
        K_list=[3], rho_list=[0.5], theta_list=[0.6], trials=150, seed=4,
        sigma2=1e-3, rates=(1.0, 2.5),
    ),
    "high_noise": dict(K_list=[2, 4], trials=150, seed=5, sigma2=1e3),
    "wide_K64": dict(K_list=[64], trials=60, seed=6),
}


@pytest.fixture(scope="module")
def scalar_reference():
    """(config, run_trial records in grid-then-trial order) per case, cached."""
    cache = {}

    def get(name):
        if name not in cache:
            cfg = SweepConfig(**BATCH_CASES[name])
            cache[name] = (cfg, [
                run_trial(cfg, K, rho, theta, t)
                for K in cfg.K_list
                for rho in cfg.rho_list
                for theta in cfg.theta_list
                for t in range(cfg.trials)
            ])
        return cache[name]

    return get


class TestBatchedMatchesScalar:
    """The array pass must store exactly what run_trial stores, field by field."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_records_equal_run_trial(self, name, workers, scalar_reference):
        cfg, expected = scalar_reference(name)
        got = run_sweep(cfg, per_trial=True, workers=workers).trials
        assert len(got) == len(expected)
        for rec, ref in zip(got, expected):
            assert rec == ref, f"{name}: trial {ref.trial_index} at K={ref.K} differs"

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_trial_csv_equals_record_writer(self, name, workers, scalar_reference, tmp_path):
        # the column writer against csv.writer over run_trial's records
        cfg, expected = scalar_reference(name)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        write_trial_csv(run_sweep(cfg, per_trial=True, workers=workers).trials, got)
        write_trial_csv_reference(expected, ref)
        assert got.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("name", sorted(BATCH_CASES))
    def test_aggregates_equal_means_of_run_trial(self, name, scalar_reference):
        cfg, expected = scalar_reference(name)
        got = run_sweep(cfg).aggregates
        i = 0
        for rec_start in range(0, len(expected), cfg.trials):
            records = expected[rec_start : rec_start + cfg.trials]
            for idx, mode in enumerate(cfg.modes):
                stats = [r.stats[idx] for r in records]
                agg = got[i]
                i += 1
                assert agg.mode == mode and agg.trials == cfg.trials
                assert agg.p_no_orth == sum(not s.orthogonalized for s in stats) / cfg.trials
                assert agg.ee_mean == float(np.mean([s.system_ee for s in stats]))
                assert agg.ee_user1 == float(np.mean([s.utilities[0] for s in stats]))
                assert agg.ee_user2 == float(np.mean([s.utilities[1] for s in stats]))
                assert agg.se_mean == float(np.mean([s.se for s in stats]))
                assert agg.welfare_mean == float(np.mean([s.welfare for s in stats]))
        assert i == len(got)

    def test_every_branch_is_exercised(self, scalar_reference):
        seen = dict.fromkeys(
            (
                "NashExact", "NashShared finite", "NashShared divergent",
                "StackelbergExact uncontested or small gap", "StackelbergExact deter",
                "StackelbergExact retreat", "StackelbergExact share",
                "StackelbergEpsilon", "SocialOptimum",
            ),
            0,
        )
        for name in BATCH_CASES:
            cfg, records = scalar_reference(name)
            gs = cfg.efficiency.gamma_star
            for rec in records:
                for s in rec.stats:
                    if s.mode == "nash":
                        if s.kind == "NashShared":
                            key = "NashShared divergent" if s.divergent else "NashShared finite"
                        else:
                            key = s.kind
                    elif s.kind == "StackelbergExact":
                        # the leader weighs deter, retreat and share where his
                        # carrier is contested and the follower's gap exceeds
                        # gamma_star
                        gap = (rec.best_gains[1] - rec.second_gains[1]) / rec.second_gains[1]
                        contested = rec.best_carriers[0] == rec.best_carriers[1]
                        if not (contested and gap > gs):
                            key = "StackelbergExact uncontested or small gap"
                        elif s.carriers[0] == s.carriers[1]:
                            key = "StackelbergExact share"
                        elif s.carriers[0] == rec.second_carriers[0]:
                            key = "StackelbergExact retreat"
                        else:
                            key = "StackelbergExact deter"
                    else:
                        key = s.kind
                    seen[key] += 1
        assert all(seen.values()), seen


def test_sweeps_call_no_scalar_solver(monkeypatch):
    # contested leader rows included: the share, deter, retreat and epsilon
    # choices are all made on arrays from the model's cached beta* roots
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep called a scalar solver")

    for name in ("nash_solve", "stackelberg_solve", "social_optimum",
                 "solve_beta_star", "best_two_carriers"):
        monkeypatch.setattr(equilibria, name, refuse)
    for name in ("sample_channel", "best_two_carriers", "run_trial"):
        monkeypatch.setattr(sweep, name, refuse)
    kinds = set()
    for efficiency in (RationalSigmoidEfficiency(), ExponentialEfficiency(M=2),
                       ScaledExponentialEfficiency()):
        cfg = SweepConfig(K_list=[2, 4], theta_list=[1.0], trials=60, seed=1,
                          efficiency=efficiency)
        for rec in run_sweep(cfg, per_trial=True).trials:
            kinds.update((s.kind, s.orthogonalized) for s in rec.stats)
    assert ("StackelbergEpsilon", False) in kinds
    assert ("StackelbergExact", False) in kinds  # the leader shares


def test_chunked_memory_stays_flat():
    # Trials are solved in chunks sized from K, so the largest temporaries
    # do not grow with the trial count; only the cell's per-trial result
    # arrays (a few hundred bytes a trial) do.  One unchunked pass at
    # K = 512 would hold about 100 MB of normals for 4,000 trials.
    def peak(trials):
        cfg = SweepConfig(K_list=[512], trials=trials, seed=8, modes=("nash",))
        tracemalloc.start()
        try:
            run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # gamma_star and other one-time set-up
    small, large = peak(400), peak(4000)
    assert large - small < 2 * 2**20, (small, large)
