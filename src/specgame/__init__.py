"""Two-user multi-carrier spectrum-sharing games.

Closed-form sequential and simultaneous equilibria for energy-efficiency
power control over shared carriers, the matching analytic probability and
spectral-efficiency bounds, and a seeded Monte Carlo harness for sweeps
over correlated Rayleigh fading.
"""

from .analysis import (
    BOUND_KINDS,
    DISTINCT_BEST,
    OTHER,
    ROLE_SWAP,
    SHARED_BOTH,
    BoundCurve,
    beta_term,
    bound_curve,
    classify_outcome_pattern,
    p_gain_condition_iid,
    p_no_orth_identical,
    p_no_orth_iid,
    role_advantage_conditions,
    se_bound,
    welfare_ratio_bounds,
)
from .channel import ChannelMatrix, CorrelationSpec, best_two_carriers, sample_channel
from .efficiency import (
    EfficiencyModel,
    ExponentialEfficiency,
    RationalSigmoidEfficiency,
    solve_beta_star,
    solve_gamma_star,
)
from .equilibria import (
    EquilibriumOutcome,
    LeaderCandidates,
    UserOutcome,
    epsilon_equilibrium,
    follower_best_response,
    nash_solve,
    shared_nash_powers,
    social_optimum,
    stackelberg_solve,
    swap_roles,
)
from .errors import ConfigError, PreconditionError, SolverFailure, SpecgameError
from .game import (
    GameInstance,
    PowerAllocation,
    single_carrier_allocation,
    utilities,
    utility,
)
from .sweep import (
    AggregateStats,
    SweepConfig,
    SweepResult,
    TrialRecord,
    run_sweep,
    run_trial,
    write_aggregate_csv,
    write_trial_csv,
)
from .verify import (
    CheckResult,
    VerificationReport,
    brute_force_best_response,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "BOUND_KINDS",
    "BoundCurve",
    "ChannelMatrix",
    "CheckResult",
    "ConfigError",
    "CorrelationSpec",
    "DISTINCT_BEST",
    "EfficiencyModel",
    "EquilibriumOutcome",
    "ExponentialEfficiency",
    "GameInstance",
    "LeaderCandidates",
    "OTHER",
    "PowerAllocation",
    "PreconditionError",
    "RationalSigmoidEfficiency",
    "ROLE_SWAP",
    "SHARED_BOTH",
    "SolverFailure",
    "SpecgameError",
    "SweepConfig",
    "SweepResult",
    "TrialRecord",
    "UserOutcome",
    "VerificationReport",
    "best_two_carriers",
    "beta_term",
    "bound_curve",
    "brute_force_best_response",
    "classify_outcome_pattern",
    "epsilon_equilibrium",
    "follower_best_response",
    "nash_solve",
    "p_gain_condition_iid",
    "p_no_orth_identical",
    "p_no_orth_iid",
    "role_advantage_conditions",
    "run_sweep",
    "run_trial",
    "run_verification",
    "sample_channel",
    "se_bound",
    "shared_nash_powers",
    "single_carrier_allocation",
    "social_optimum",
    "solve_beta_star",
    "solve_gamma_star",
    "stackelberg_solve",
    "swap_roles",
    "utilities",
    "utility",
    "welfare_ratio_bounds",
    "write_aggregate_csv",
    "write_trial_csv",
]
