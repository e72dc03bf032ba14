"""Command-line front end: solve fixtures, run sweeps, print bound curves.

A thin shell over the library: every number printed here is reproducible
by calling the corresponding function directly.  Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 solver precondition
violation.  Carrier indices are 1-based in all output.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import equilibria
from .analysis import BOUND_KINDS, bound_curve
from .config import load_instance_config, load_sweep_config
from .efficiency import ExponentialEfficiency
from .errors import ConfigError, PreconditionError
from .sweep import MODES, _fmt, run_sweep, write_aggregate_csv, write_trial_csv
from .verify import run_verification


def _outcome_lines(mode, outcome):
    lines = [f"[{mode}]"]
    lines.append(f"kind = {outcome.kind}")
    lines.append(f"orthogonalized = {'true' if outcome.orthogonalized else 'false'}")
    if outcome.divergent:
        lines.append("divergent = true")
    if outcome.epsilon is not None:
        lines.append(f"epsilon = {_fmt(outcome.epsilon)}")
    if outcome.alpha is not None:
        lines.append(f"alpha = {_fmt(outcome.alpha)}")
    for i, user in enumerate(outcome.users, start=1):
        lines.append(f"user{i}.carrier = {user.carrier + 1}")
        lines.append(f"user{i}.power = {_fmt(user.power)}")
        lines.append(f"user{i}.sinr = {_fmt(user.sinr)}")
        lines.append(f"user{i}.utility = {_fmt(user.utility)}")
    lines.append(f"welfare = {_fmt(outcome.welfare)}")
    cand = outcome.candidates
    if cand is not None:
        lines.append(f"candidates.deterrence_sinr = {_fmt(cand.deterrence_sinr)}")
        if cand.share_sinr is not None:
            lines.append(f"candidates.share_sinr = {_fmt(cand.share_sinr)}")
            lines.append(f"candidates.share_value = {_fmt(cand.share_value)}")
        lines.append(f"candidates.deter_value = {_fmt(cand.deter_value)}")
        lines.append(f"candidates.retreat_value = {_fmt(cand.retreat_value)}")
        lines.append(f"candidates.vanish_value = {_fmt(cand.vanish_value)}")
        lines.append(f"candidates.best_alone_value = {_fmt(cand.best_alone_value)}")
    for note in outcome.notes:
        lines.append(f"note = {note}")
    return lines


def _cmd_solve(args) -> int:
    inst = load_instance_config(args.config)
    if args.epsilon is not None:
        if args.mode not in (None, "stackelberg"):
            raise ConfigError("--epsilon applies only to the stackelberg mode")
        outcomes = {"stackelberg": equilibria.epsilon_equilibrium(inst, args.epsilon)}
    else:
        mode = args.mode or "all"
        modes = MODES if mode == "all" else (mode,)
        outcomes = {m: equilibria.solve(m, inst) for m in modes}

    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(
            ["mode", "kind", "orthogonalized", "user", "carrier",
             "power", "sinr", "utility"]
        )
        for mode, outcome in outcomes.items():
            for i, user in enumerate(outcome.users, start=1):
                writer.writerow(
                    [mode, outcome.kind,
                     "true" if outcome.orthogonalized else "false",
                     str(i), str(user.carrier + 1), _fmt(user.power),
                     _fmt(user.sinr), _fmt(user.utility)]
                )
    else:
        blocks = [_outcome_lines(mode, outcome) for mode, outcome in outcomes.items()]
        print("\n\n".join("\n".join(block) for block in blocks))
    return 0


def _cmd_sweep(args) -> int:
    config = load_sweep_config(args.config)
    result = run_sweep(config, per_trial=args.per_trial, workers=args.workers)
    write_aggregate_csv(result.aggregates, args.out)
    print(f"wrote {args.out} ({len(result.aggregates)} rows)")
    if args.per_trial:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        trial_path = stem + ".trials.csv"
        write_trial_csv(result.trials, trial_path)
        print(f"wrote {trial_path} ({len(result.trials)} trials)")
    return 0


def _cmd_bounds(args) -> int:
    if (args.M is None) == (args.gamma_star is None):
        raise ConfigError("provide exactly one of --M or --gamma-star")
    if args.M is not None:
        gamma_star = ExponentialEfficiency(M=args.M).gamma_star
    else:
        if not args.gamma_star > 0.0:
            raise ConfigError(f"--gamma-star must be positive, got {args.gamma_star!r}")
        gamma_star = args.gamma_star
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ConfigError(
            f"need 1 <= k-min <= k-max, got {args.k_min!r}..{args.k_max!r}"
        )
    ks = range(args.k_min, args.k_max + 1)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["K", "kind", "value"])
        for kind in BOUND_KINDS:
            curve = bound_curve(gamma_star, ks, kind)
            for k, value in zip(curve.K_values, curve.values):
                writer.writerow([str(k), kind, _fmt(value)])
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(trials=args.trials, seed=args.seed)
    for result in report.results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    for line in report.info:
        print(f"info: {line}")
    passed = sum(r.passed for r in report.results)
    print(f"{passed}/{len(report.results)} checks passed")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgame",
        description="Two-user multi-carrier spectrum games: equilibria, "
        "bounds, Monte Carlo sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one explicit-gains fixture")
    solve.add_argument("--config", required=True, help="JSON fixture path")
    solve.add_argument("--mode", choices=(*MODES, "all"), default=None)
    solve.add_argument(
        "--epsilon", type=float, default=None,
        help="solve the near-equilibrium at this epsilon (stackelberg only)",
    )
    solve.add_argument("--format", choices=("keyvalue", "csv"), default="keyvalue")
    solve.set_defaults(handler=_cmd_solve)

    swp = sub.add_parser("sweep", help="run a Monte Carlo grid to CSV")
    swp.add_argument("--config", required=True, help="JSON sweep config path")
    swp.add_argument("--out", required=True, help="aggregate CSV path")
    swp.add_argument(
        "--per-trial", action="store_true",
        help="also write <out stem>.trials.csv with one row per trial and mode",
    )
    swp.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: SPECGAME_WORKERS or 1)",
    )
    swp.set_defaults(handler=_cmd_sweep)

    bounds = sub.add_parser("bounds", help="print analytic bound curves")
    bounds.add_argument("--M", type=int, default=None, help="efficiency exponent")
    bounds.add_argument(
        "--gamma-star", type=float, default=None,
        help="use this critical SINR directly instead of solving for it",
    )
    bounds.add_argument("--k-min", type=int, default=1)
    bounds.add_argument("--k-max", type=int, default=64)
    bounds.add_argument("--out", default=None, help="CSV path (default stdout)")
    bounds.set_defaults(handler=_cmd_bounds)

    verify = sub.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("--trials", type=int, default=2000)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
