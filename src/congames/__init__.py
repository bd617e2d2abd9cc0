"""No-regret, no-violation learning in repeated contextual games.

The package provides kernels and incremental GP regression with confidence
bounds, sleeping-expert aggregation rules, constraint-aware contextual
learners, a tabular game simulator with a random-game generator, oracle-side
metrics (constrained regret, violations, equilibrium accuracy), and a
JSON-config CLI harness.
"""

from .experts import (
    HedgeState,
    SleepingExpertState,
    ada_predict,
    ada_update,
    hedge_predict,
    hedge_update,
)
from .game import (
    GameDefinition,
    Trajectory,
    default_constraint_kernel,
    default_reward_kernel,
    fixed_schedule,
    generate_random_game,
    run,
    uniform_finite_schedule,
)
from .gp import ConfidenceParams, FactorizationError, GpModel, beta
from .kernels import (
    KernelError,
    Matern,
    Polynomial,
    Product,
    SquaredExponential,
    cross,
    evaluate,
    gram,
    kernel_from_config,
    kernel_to_config,
)
from .metrics import (
    MetricsReport,
    best_feasible_policy,
    cce_epsilon,
    compute_report,
    constrained_regret,
    empirical_policy,
    theorem_bounds,
)
from .strategy import (
    ALGORITHMS,
    ContextRouter,
    InfeasibilityDeclared,
    Player,
    PlayerConfig,
    UniformPlayer,
    renormalize,
)

__all__ = [
    "ALGORITHMS",
    "ConfidenceParams",
    "ContextRouter",
    "FactorizationError",
    "GameDefinition",
    "GpModel",
    "HedgeState",
    "InfeasibilityDeclared",
    "KernelError",
    "Matern",
    "MetricsReport",
    "Player",
    "PlayerConfig",
    "Polynomial",
    "Product",
    "SleepingExpertState",
    "SquaredExponential",
    "Trajectory",
    "UniformPlayer",
    "ada_predict",
    "ada_update",
    "best_feasible_policy",
    "beta",
    "cce_epsilon",
    "compute_report",
    "constrained_regret",
    "cross",
    "default_constraint_kernel",
    "default_reward_kernel",
    "empirical_policy",
    "evaluate",
    "fixed_schedule",
    "generate_random_game",
    "gram",
    "hedge_predict",
    "hedge_update",
    "kernel_from_config",
    "kernel_to_config",
    "renormalize",
    "run",
    "theorem_bounds",
    "uniform_finite_schedule",
]

__version__ = "0.1.0"
