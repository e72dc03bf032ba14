"""Output checks: solve every trial through the public API and judge the CSVs.

``validate`` re-solves each trial of a sweep config one mode at a time, so a
solver that raises counts as one failed solve instead of aborting the sweep.
It also gathers the outcome counts the traced pass reports and checks the
per-trial orderings that hold for the exponential model.  The remaining
checks read the sweep's own outputs: aggregate rows and CSV digests.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import specgame.equilibria as eq
from specgame import analysis
from specgame.channel import CorrelationSpec, sample_channel
from specgame.efficiency import ExponentialEfficiency
from specgame.game import GameInstance

SOLVERS = {"nash": "nash_solve", "stackelberg": "stackelberg_solve", "social": "social_optimum"}
KINDS = {
    "nash": (eq.NASH_EXACT, eq.NASH_SHARED),
    "stackelberg": (eq.STACKELBERG_EXACT, eq.STACKELBERG_EPSILON),
    "social": (eq.SOCIAL_OPTIMUM,),
}
COUNT_NAMES = tuple(
    [f"equilibria.{mode}.kind.{kind}" for mode, kinds in KINDS.items() for kind in kinds]
    + [
        "equilibria.nash.divergent",
        "equilibria.stackelberg.epsilon_fallbacks",
        "equilibria.stackelberg.no_share_root",
        "equilibria.stackelberg.value_ties",
        "equilibria.social.below_equilibrium_welfare",
        "equilibria.nash.shared_finite_at_gs_ge_1",
    ]
)

# the package's tie tolerance: welfare values closer than this are equal
TIE_REL = 1e-12
# gamma_star is bisected to 1e-12, so a solved root this close to 1 may be 1
ROOT_TOL = 1e-12
# Nash sharing frequency must sit within Z_MAX standard errors (plus 1/n) of
# the exact probability.  At 3 standard errors one cell in about 370 fails by
# chance (seed 4, contested_rs, K=4 does), so across a hundred runs of about
# three cells each at least one run would fail about half the time.
Z_MAX = 5.0
# failed solves kept for the report; the rest are only counted
MAX_KEPT_FAILURES = 5


@dataclass
class Validation:
    attempted: int = 0
    failed: int = 0
    counts: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)  # first few failed solves
    problems: list = field(default_factory=list)  # failed output checks


def _finite(outcome) -> bool:
    return all(
        math.isfinite(v) for u in outcome.users for v in (u.power, u.sinr, u.utility)
    )


def _welfare_below(low, high) -> bool:
    return low < high - TIE_REL * abs(high)


def validate(config) -> Validation:
    """Solve every (cell, trial, mode) of ``config`` and check each outcome.

    A solve fails when it raises, or returns a non-finite power, SINR or
    utility on an outcome not flagged ``divergent``.  On the exponential
    model each trial must also give social welfare at least both
    equilibria's and the Stackelberg leader at least Nash user 1's utility.
    """
    v = Validation()
    exponential = isinstance(config.efficiency, ExponentialEfficiency)
    gs_at_one = config.efficiency.gamma_star >= 1.0 - ROOT_TOL
    orderings = Counter()
    for K in config.K_list:
        for rho in config.rho_list:
            for theta in config.theta_list:
                spec = CorrelationSpec(rho, theta, config.mean_gain)
                for t in range(config.trials):
                    inst = GameInstance(
                        channel=sample_channel(K, spec, config.seed, t),
                        sigma2=config.sigma2, rates=config.rates,
                        efficiency=config.efficiency,
                    )
                    out = {}
                    for mode in config.modes:
                        v.attempted += 1
                        try:
                            o = getattr(eq, SOLVERS[mode])(inst)
                        except Exception as exc:  # a raising solve is a failed op
                            _fail(v, f"{mode} K={K} trial {t} raised {exc!r}")
                            continue
                        if not o.divergent and not _finite(o):
                            _fail(v, f"{mode} K={K} trial {t} is not finite")
                            continue
                        if o.kind not in KINDS[mode]:
                            orderings[f"{mode} returned unknown kind {o.kind!r}"] += 1
                            continue
                        out[mode] = o
                        _count(v.counts, mode, o, gs_at_one)
                    _count_orderings(orderings, out)
    v.counts["equilibria.social.below_equilibrium_welfare"] = orderings["social_below"]
    v.problems += [f"{k} on {n} trials" for k, n in orderings.items() if "unknown kind" in k]
    if exponential and orderings["social_below"]:
        v.problems.append(
            f"social welfare below an equilibrium's on {orderings['social_below']} trials"
        )
    if exponential and orderings["leader_below"]:
        v.problems.append(
            f"Stackelberg leader below Nash user 1 on {orderings['leader_below']} trials"
        )
    return v


def _fail(v, message):
    v.failed += 1
    if len(v.failures) < MAX_KEPT_FAILURES:
        v.failures.append(message)


def _count(counts, mode, o, gs_at_one):
    counts[f"equilibria.{mode}.kind.{o.kind}"] += 1
    if mode == "nash":
        counts["equilibria.nash.divergent"] += o.divergent
        counts["equilibria.nash.shared_finite_at_gs_ge_1"] += (
            gs_at_one and o.kind == eq.NASH_SHARED and not o.divergent
        )
    elif mode == "stackelberg":
        counts["equilibria.stackelberg.epsilon_fallbacks"] += o.kind == eq.STACKELBERG_EPSILON
        counts["equilibria.stackelberg.no_share_root"] += any(
            n.startswith("no shared-carrier root") for n in o.notes
        )
        counts["equilibria.stackelberg.value_ties"] += any(
            n.startswith("tie between candidate values") for n in o.notes
        )


def _count_orderings(orderings, out):
    social = out.get("social")
    if social is not None:
        orderings["social_below"] += any(
            _welfare_below(social.welfare, out[m].welfare)
            for m in ("nash", "stackelberg") if m in out
        )
    if "nash" in out and "stackelberg" in out:
        leader = out["stackelberg"].users[0].utility
        nash1 = out["nash"].users[0].utility
        orderings["leader_below"] += _welfare_below(leader, nash1)


def sharing_check(config, aggregates) -> list[str]:
    """Nash ``p_no_orth`` per cell against the exact sharing probability.

    Cells at theta = 0 compare with ``p_gain_condition_iid`` and cells at
    theta = 1 with ``p_no_orth_identical``, both at the model's gamma_star;
    other cells have no closed form and are skipped.  Returns one line per
    checked cell, prefixed FAIL when the cell is out of tolerance.
    """
    gs = config.efficiency.gamma_star
    lines = []
    for a in aggregates:
        if a.mode != "nash" or a.rho != 0.0 or a.theta not in (0.0, 1.0):
            continue
        if a.theta == 0.0:
            p0 = analysis.p_gain_condition_iid(gs, a.K)
        else:
            p0 = analysis.p_no_orth_identical(gs, a.K)
        se = math.sqrt(p0 * (1.0 - p0) / a.trials)
        gap = abs(a.p_no_orth - p0)
        ok = gap <= Z_MAX * se + 1.0 / a.trials
        z = gap / se if se > 0.0 else math.inf if gap else 0.0
        lines.append(
            f"{'ok' if ok else 'FAIL'} nash p_no_orth K={a.K} theta={a.theta:g}: "
            f"{a.p_no_orth:.6g} vs exact {p0:.6g} ({z:.2f} SE, n={a.trials})"
        )
    return lines
