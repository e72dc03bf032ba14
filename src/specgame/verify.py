"""Self-contained verification suite: oracles, invariants, statistics.

Every check revalidates a closed-form result against an independent route:
direct numerical maximization for the solvers, derived reference values for
the Monte Carlo frequencies, moment statistics for the channel sampler.
The oracle checks look solvers up on :mod:`specgame.equilibria` at call
time, so a deliberately corrupted solver (patched onto the module) is
caught.  The Monte Carlo checks run sweeps, which solve on arrays and never
call a patched solver (see :mod:`specgame.sweep`).

The grid oracles (``brute_force_best_response`` and the leader and social
searches below) are deliberately independent of every closed form in
:mod:`specgame.equilibria`; they exist to validate them.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import analysis, equilibria, sweep
from .channel import ChannelMatrix, CorrelationSpec, sample_channel
from .efficiency import ExponentialEfficiency, RationalSigmoidEfficiency
from .equilibria import _TIE_REL
from .errors import ConfigError
from .game import GameInstance, PowerAllocation

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    results: tuple[CheckResult, ...]
    info: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def _golden_max(fn, lo, hi, iters=80):
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def brute_force_best_response(
    inst: GameInstance,
    opponent_powers,
    user: int,
    n_grid: int = 1200,
    span: float = 1e4,
) -> PowerAllocation:
    """Best single-carrier reply found by grid search plus refinement.

    Scans every carrier with ``n_grid`` log-spaced powers covering
    ``span`` on either side of that carrier's natural power scale (the
    scale only sets the window; the argmax inside it is free), widens the
    window whenever the optimum lands on an edge, and polishes the best
    point with golden-section search.  Single-carrier replies are
    exhaustive here: splitting power over several carriers never beats
    the best single carrier for these utilities.  Ties across carriers
    resolve to the lower index.
    """
    if n_grid < 1000:
        raise ConfigError(f"n_grid must be >= 1000, got {n_grid}")
    opponent_powers = np.asarray(opponent_powers, dtype=float)
    g = inst.channel.gains
    other = 1 - user
    eff = g[user] / (inst.sigma2 + g[other] * opponent_powers)
    gs = inst.efficiency.gamma_star

    f = inst.efficiency.value
    R = inst.rates[user]

    def rate_on(k):
        h = eff[k]
        return lambda p: R * float(f(h * p)) / p

    for _ in range(10):
        best = (-np.inf, 0, 0)
        grids = []
        for k in range(inst.K):
            center = gs / eff[k]
            grid = np.geomspace(center / span, center * span, n_grid)
            grids.append(grid)
            vals = R * f(eff[k] * grid) / grid
            i = int(np.argmax(vals))
            if vals[i] > best[0]:
                best = (float(vals[i]), k, i)
        _, k, i = best
        if 0 < i < n_grid - 1:
            break
        span *= 100.0  # optimum on the window edge: widen and rescan
    grid = grids[k]
    lo = grid[i - 1] if i > 0 else grid[i] / 2.0
    hi = grid[i + 1] if i < n_grid - 1 else grid[i] * 2.0
    p_best, _ = _golden_max(rate_on(k), lo, hi)
    if rate_on(k)(p_best) < best[0]:
        p_best = float(grid[i])
    p = np.zeros(inst.K)
    p[k] = p_best
    rows = [opponent_powers, p] if user == 1 else [p, opponent_powers]
    return PowerAllocation(p=np.vstack(rows))


def _random_instance(rng, K, efficiency, sigma2=1.0, rates=(1.0, 1.0)):
    gains = rng.exponential(1.0, size=(2, K))
    return GameInstance(
        channel=ChannelMatrix(gains=gains),
        sigma2=sigma2,
        rates=rates,
        efficiency=efficiency,
    )


def _check_gamma_star_stationarity() -> CheckResult:
    worst = 0.0
    for model in (ExponentialEfficiency(M=100), ExponentialEfficiency(M=2),
                  RationalSigmoidEfficiency()):
        gs = model.gamma_star
        target = float(model.value(gs)) / gs

        def per_watt(x):
            return float(model.value(x)) / x

        _, found_peak = _golden_max(per_watt, gs / 50.0, gs * 50.0)
        worst = max(worst, abs(found_peak - target) / target)
    return CheckResult(
        "gamma_star_stationarity",
        worst < 1e-9,
        f"max relative gap between root and direct 1D maximum: {worst:.3g}",
    )


def _check_follower_oracle(seed, instances=200) -> CheckResult:
    rng = np.random.default_rng(seed)
    for i in range(instances):
        K = int(rng.integers(2, 5))
        inst = _random_instance(rng, K, ExponentialEfficiency(M=100))
        leader = np.zeros(K)
        leader[int(rng.integers(0, K))] = float(rng.exponential(5.0))
        reply = equilibria.follower_best_response(inst, leader)
        oracle = brute_force_best_response(inst, leader, user=1).p[1]
        k_closed, k_grid = int(np.argmax(reply)), int(np.argmax(oracle))
        if k_closed != k_grid:
            # accept a genuine near-tie between carriers
            interfered = inst.sigma2 + inst.channel.gains[0] * leader
            eff = inst.channel.gains[1] / interfered
            if abs(eff[k_closed] - eff[k_grid]) > 1e-6 * eff[k_grid]:
                return CheckResult(
                    "follower_closed_form_vs_grid", False,
                    f"carrier mismatch on instance #{i} (seed {seed}): "
                    f"closed {k_closed}, grid {k_grid}",
                )
            continue
        p_c, p_g = reply[k_closed], oracle[k_grid]
        if abs(p_c - p_g) > 1e-3 * max(p_c, p_g):
            return CheckResult(
                "follower_closed_form_vs_grid", False,
                f"power mismatch on instance #{i} (seed {seed}): "
                f"closed {p_c!r}, grid {p_g!r}",
            )
    return CheckResult(
        "follower_closed_form_vs_grid", True,
        f"{instances} random instances, carrier and power agree",
    )


def _leader_reply_utilities(inst, c, powers):
    """Leader utility on carrier ``c`` for each power, follower replying.

    Vectorized mirror of the closed-form follower rule, including its tie
    band and the preference for an interference-free carrier on ties.
    """
    g = inst.channel.gains
    s2n = inst.sigma2
    gs = inst.efficiency.gamma_star
    others = np.array([k for k in range(inst.K) if k != c])
    a = int(others[np.argmax(g[1, others])])
    eff_other = g[1, a] / s2n
    eff_c = g[1, c] / (s2n + g[0, c] * powers)
    stay = eff_other < eff_c * (1.0 - _TIE_REL)
    q = np.where(stay, gs / np.maximum(eff_c, 1e-300), gs / eff_other)
    interference = np.where(stay, g[1, c] * q, 0.0)
    sinr1 = g[0, c] * powers / (s2n + interference)
    return inst.rates[0] * np.asarray(inst.efficiency.value(sinr1)) / powers


def _leader_oracle(inst, n_grid=1500):
    """Grid + golden-section maximization of the leader's utility.

    Returns (value, carrier) plus the best value among all other carriers,
    so callers can tell a decisive carrier choice from a near-tie.
    """
    g = inst.channel.gains
    s2n = inst.sigma2
    gs = inst.efficiency.gamma_star
    per_carrier = []
    for c in range(inst.K):
        own = gs * s2n / g[0, c]
        specials = [own]
        others = np.array([k for k in range(inst.K) if k != c])
        a = int(others[np.argmax(g[1, others])])
        if g[1, c] > g[1, a]:
            # power at which the follower abandons carrier c
            specials.append(s2n * (g[1, c] - g[1, a]) / (g[0, c] * g[1, a]))
        p_lo, p_hi = own * 1e-4, max(specials) * 50.0
        powers = np.concatenate(
            [np.geomspace(p_lo, p_hi, n_grid), np.asarray(specials)]
        )
        values = _leader_reply_utilities(inst, c, powers)
        i = int(np.argmax(values))
        best = float(values[i])
        order = np.argsort(powers)
        rank = int(np.where(order == i)[0][0])
        lo = powers[order[max(rank - 1, 0)]]
        hi = powers[order[min(rank + 1, len(powers) - 1)]]
        _, refined = _golden_max(
            lambda p: float(_leader_reply_utilities(inst, c, np.array([p]))[0]),
            lo, hi,
        )
        best = max(best, refined)
        per_carrier.append(best)
    order = np.argsort(per_carrier)[::-1]
    top, runner = order[0], order[1]
    return per_carrier[top], int(top), per_carrier[runner]


def _check_leader_oracle(seed, instances=200) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for i in range(instances):
        K = int(rng.integers(2, 5))
        inst = _random_instance(rng, K, ExponentialEfficiency(M=100))
        outcome = equilibria.stackelberg_solve(inst)
        closed_value = outcome.users[0].utility
        closed_carrier = outcome.users[0].carrier
        oracle_value, oracle_carrier, runner_up = _leader_oracle(inst)
        gap = abs(closed_value - oracle_value) / max(closed_value, oracle_value)
        worst = max(worst, gap)
        if gap > 1e-6:
            return CheckResult(
                "leader_closed_form_vs_grid", False,
                f"utility gap {gap:.3g} on instance #{i} (seed {seed + 1}): "
                f"closed {closed_value!r}, grid {oracle_value!r}",
            )
        decisive = (oracle_value - runner_up) > 1e-4 * oracle_value
        if decisive and closed_carrier != oracle_carrier:
            return CheckResult(
                "leader_closed_form_vs_grid", False,
                f"carrier mismatch on instance #{i} (seed {seed + 1}): "
                f"closed {closed_carrier}, grid {oracle_carrier}",
            )
    return CheckResult(
        "leader_closed_form_vs_grid", True,
        f"{instances} random instances, max relative utility gap {worst:.3g}",
    )


def _check_social_oracle(seed, instances=50) -> CheckResult:
    rng = np.random.default_rng(seed + 2)
    for i in range(instances):
        K = int(rng.integers(2, 5))
        inst = _random_instance(rng, K, ExponentialEfficiency(M=100))
        social = equilibria.social_optimum(inst).welfare
        g = inst.channel.gains
        gs = inst.efficiency.gamma_star
        best_shared = 0.0
        for k in range(K):
            scale1 = gs * inst.sigma2 / g[0, k]
            scale2 = gs * inst.sigma2 / g[1, k]
            p1 = np.geomspace(scale1 * 1e-3, scale1 * 1e3, 48)
            p2 = np.geomspace(scale2 * 1e-3, scale2 * 1e3, 48)
            P1, P2 = np.meshgrid(p1, p2, indexing="ij")
            s1 = g[0, k] * P1 / (inst.sigma2 + g[1, k] * P2)
            s2 = g[1, k] * P2 / (inst.sigma2 + g[0, k] * P1)
            f = inst.efficiency
            w = (
                inst.rates[0] * np.asarray(f.value(s1)) / P1
                + inst.rates[1] * np.asarray(f.value(s2)) / P2
            )
            best_shared = max(best_shared, float(w.max()))
        if best_shared > social * (1.0 + 1e-9):
            return CheckResult(
                "social_optimum_vs_shared_grid", False,
                f"shared allocation beats the orthogonal optimum on instance "
                f"#{i} (seed {seed + 2}): shared {best_shared!r} > {social!r}",
            )
    return CheckResult(
        "social_optimum_vs_shared_grid", True,
        f"{instances} random instances, no shared allocation beats it",
    )


def _mc_checks(trials, seed):
    """Sweep once per K and derive every Monte Carlo check from the records."""
    gs = ExponentialEfficiency(M=100).gamma_star
    results = []
    freq_rows = []
    subset_bad = leader_bad = welfare_bad = 0
    subset_detail = leader_detail = welfare_detail = ""
    for K in (2, 4, 8):
        config = sweep.SweepConfig(
            K_list=(K,), trials=trials, seed=seed,
            modes=("nash", "stackelberg", "social"),
        )
        result = sweep.run_sweep(config, per_trial=True)
        by_mode = {a.mode: a for a in result.aggregates}
        p_nash = by_mode["nash"].p_no_orth
        p_stack = by_mode["stackelberg"].p_no_orth
        exact = analysis.p_gain_condition_iid(gs, K)
        curve = analysis.p_no_orth_iid(gs, K)
        # One-count slack on top of 3 stderr: with fractional expected hit
        # counts the normal band is narrower than a single observation.
        band = 3.0 * np.sqrt(max(exact * (1.0 - exact), 1e-12) / trials) + 1.0 / trials
        freq_rows.append((K, p_nash, exact, band, curve, p_stack))
        for rec in result.trials:
            stats = {s.mode: s for s in rec.stats}
            if not stats["stackelberg"].orthogonalized:
                r1 = rec.best_gains[0] / rec.second_gains[0]
                r2 = rec.best_gains[1] / rec.second_gains[1]
                shared = rec.best_carriers[0] == rec.best_carriers[1]
                if not (shared and min(r1, r2) >= 1.0 + gs):
                    subset_bad += 1
                    subset_detail = f"K={K} trial {rec.trial_index} (seed {seed})"
            if stats["stackelberg"].utilities[0] < stats["nash"].utilities[0] * (
                1.0 - 1e-9
            ):
                leader_bad += 1
                leader_detail = f"K={K} trial {rec.trial_index} (seed {seed})"
            w_social = stats["social"].welfare
            if w_social < max(stats["nash"].welfare, stats["stackelberg"].welfare) * (
                1.0 - 1e-9
            ):
                welfare_bad += 1
                welfare_detail = f"K={K} trial {rec.trial_index} (seed {seed})"

    off = [
        (K, p, exact, band)
        for K, p, exact, band, _, _ in freq_rows
        if abs(p - exact) > band
    ]
    results.append(CheckResult(
        "nash_frequency_matches_prediction",
        not off,
        ("deviations beyond 3 stderr + one-count slack: " + repr(off)) if off else
        "; ".join(
            f"K={K}: {p:.5f} vs {exact:.5f} (band {band:.5f})"
            for K, p, exact, band, _, _ in freq_rows
        ),
    ))
    above = [
        (K, p, curve)
        for K, p, _, band, curve, _ in freq_rows
        if p > curve + band
    ]
    results.append(CheckResult(
        "nash_frequency_below_reference_curve",
        not above,
        ("frequency above the reference curve: " + repr(above)) if above else
        "empirical frequency stays below the analytic curve on every K",
    ))
    worse = [(K, ps, pn) for K, pn, _, _, _, ps in freq_rows if ps > pn]
    results.append(CheckResult(
        "sequential_no_orth_subset_of_simultaneous",
        subset_bad == 0 and not worse,
        f"violating trial: {subset_detail}" if subset_bad else
        ("sequential frequency above simultaneous: " + repr(worse)) if worse else
        "every sequential shared trial satisfies the gain condition",
    ))
    results.append(CheckResult(
        "leader_not_worse_than_simultaneous",
        leader_bad == 0,
        f"violating trial: {leader_detail}" if leader_bad else
        "per-trial leader utility >= simultaneous user-1 utility",
    ))
    results.append(CheckResult(
        "welfare_ordering",
        welfare_bad == 0,
        f"violating trial: {welfare_detail}" if welfare_bad else
        "per-trial optimum welfare >= both equilibria",
    ))
    return results


def _check_sweep_determinism(seed) -> CheckResult:
    config = sweep.SweepConfig(K_list=(2,), trials=120, seed=seed)
    paths = []
    try:
        for run in range(2):
            result = sweep.run_sweep(config, workers=1)
            fd, path = tempfile.mkstemp(suffix=".csv")
            os.close(fd)
            paths.append(path)
            sweep.write_aggregate_csv(result.aggregates, path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            same_runs = a.read() == b.read()
        parallel = sweep.run_sweep(config, workers=2)
        sweep.write_aggregate_csv(parallel.aggregates, paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            same_workers = a.read() == b.read()
    finally:
        for path in paths:
            os.unlink(path)
    return CheckResult(
        "sweep_bytes_deterministic",
        same_runs and same_workers,
        f"identical reruns: {same_runs}; worker-count invariance: {same_workers}",
    )


def _check_channel_statistics(seed) -> CheckResult:
    gs = ExponentialEfficiency(M=100).gamma_star
    n = 20_000
    spec = CorrelationSpec()
    rows = np.stack(
        [sample_channel(2, spec, seed, t).gains for t in range(n)]
    )  # (n, 2, 2)
    flat = rows.reshape(-1)
    mean_ok = abs(flat.mean() - 1.0) < 3.0 / np.sqrt(flat.size)
    top = rows.max(axis=2)
    bottom = rows.min(axis=2)
    hits = (top >= (1.0 + gs) * bottom).mean()
    target = 2.0 / (2.0 + gs)
    band = 3.0 * np.sqrt(target * (1.0 - target) / (2 * n))
    ratio_ok = abs(hits - target) < band

    rho_spec = CorrelationSpec(rho_carrier=0.8)
    g = np.stack([sample_channel(2, rho_spec, seed + 1, t).gains[0] for t in range(n)])
    rho_corr = float(np.corrcoef(g[:, 0], g[:, 1])[0, 1])
    rho_ok = abs(rho_corr - 0.64) < 0.05

    theta_spec = CorrelationSpec(theta_user=0.8)
    g = np.stack(
        [sample_channel(2, theta_spec, seed + 2, t).gains[:, 0] for t in range(n)]
    )
    theta_corr = float(np.corrcoef(g[:, 0], g[:, 1])[0, 1])
    theta_ok = abs(theta_corr - 0.64) < 0.05
    return CheckResult(
        "channel_statistics",
        mean_ok and ratio_ok and rho_ok and theta_ok,
        f"mean {flat.mean():.4f}; ratio event {hits:.4f} vs {target:.4f}; "
        f"carrier corr {rho_corr:.3f} and user corr {theta_corr:.3f} vs 0.64",
    )


def _check_identical_rows(seed) -> CheckResult:
    spec = CorrelationSpec(theta_user=1.0)
    for t in range(50):
        gains = sample_channel(4, spec, seed, t).gains
        if not np.array_equal(gains[0], gains[1]):
            return CheckResult(
                "full_user_correlation_identical_rows", False,
                f"rows differ at trial {t} (seed {seed})",
            )
    return CheckResult(
        "full_user_correlation_identical_rows", True,
        "both users see bitwise-equal gains at full user correlation",
    )


def _check_role_conditions(seed, instances=400):
    rng = np.random.default_rng(seed + 3)
    counts: Counter[str] = Counter()
    checked = 0
    for i in range(instances):
        K = int(rng.integers(2, 4))
        inst = _random_instance(rng, K, ExponentialEfficiency(M=100))
        nash = equilibria.nash_solve(inst)
        stack = equilibria.stackelberg_solve(inst)
        counts[analysis.classify_outcome_pattern(inst, nash, stack)] += 1
        conditions = analysis.role_advantage_conditions(inst)
        if not conditions:
            continue
        as_leader, as_follower = equilibria.swap_roles(inst)
        if (
            as_leader.kind != equilibria.STACKELBERG_EXACT
            or as_follower.kind != equilibria.STACKELBERG_EXACT
        ):
            continue
        checked += 1
        lead = as_leader.users[0].utility
        follow = as_follower.users[0].utility
        if lead < follow * (1.0 - 1e-9):
            return (
                CheckResult(
                    "role_conditions_imply_leading_advantage", False,
                    f"instance #{i} (seed {seed + 3}) satisfies {sorted(conditions)} "
                    f"but leading {lead!r} < following {follow!r}",
                ),
                counts,
            )
    return (
        CheckResult(
            "role_conditions_imply_leading_advantage", True,
            f"{checked} instances with a satisfied condition and exact "
            "equilibria in both orientations",
        ),
        counts,
    )


def run_verification(trials: int = 2000, seed: int = 0) -> VerificationReport:
    """Run every check; the report is green only if all of them pass."""
    results = [
        _check_gamma_star_stationarity(),
        _check_follower_oracle(seed),
        _check_leader_oracle(seed),
        _check_social_oracle(seed),
    ]
    results.extend(_mc_checks(trials, seed))
    results.append(_check_sweep_determinism(seed))
    results.append(_check_channel_statistics(seed))
    results.append(_check_identical_rows(seed))
    role_result, counts = _check_role_conditions(seed)
    results.append(role_result)
    total = sum(counts.values())
    info = (
        "outcome patterns over {} sampled instances: {}".format(
            total,
            ", ".join(f"{k}={counts.get(k, 0)}" for k in (
                analysis.DISTINCT_BEST, analysis.SHARED_BOTH,
                analysis.ROLE_SWAP, analysis.OTHER,
            )),
        ),
    )
    return VerificationReport(results=tuple(results), info=info)
