"""Incentivized exploration for non-stationary multi-armed bandits.

Simulates a principal who recommends arms through a bandit policy and pays
agents the estimate gap whenever the recommendation departs from the greedy
choice, while the paid agents return drift-biased reward feedback.  Provides
abrupt (breakpoint) and budgeted-drift environments, five policies (UCB1,
discounted UCB, sliding-window UCB, epsilon-greedy, Thompson sampling), a
restarting scheduler, and a deterministic replication harness with a CLI.
"""

from .env import (
    AbruptEnvironment,
    DriftingEnvironment,
    MeanSchedule,
    RewardSample,
    make_flip_env,
    make_sinusoidal_env,
    mean_at,
    optimal_arm_at,
    sample_reward,
    variation_of,
)
from .harness import (
    ConfigError,
    EnvSpec,
    ExperimentConfig,
    gap_diagnostic,
    run_experiment,
    run_replication,
    scaling_probe,
    sweep,
    tuned_gamma,
    tuned_tau,
)
from .incentive import (
    DriftModel,
    StepOutcome,
    incentive_step,
    run_incentivized,
)
from .policy import PolicyParams, make_policy
from .restart import RestartParams, batch_size, run_restarting

__version__ = "0.1.0"

__all__ = [
    "AbruptEnvironment",
    "ConfigError",
    "DriftingEnvironment",
    "DriftModel",
    "EnvSpec",
    "ExperimentConfig",
    "MeanSchedule",
    "PolicyParams",
    "RestartParams",
    "RewardSample",
    "StepOutcome",
    "batch_size",
    "gap_diagnostic",
    "incentive_step",
    "make_flip_env",
    "make_policy",
    "make_sinusoidal_env",
    "mean_at",
    "optimal_arm_at",
    "run_experiment",
    "run_incentivized",
    "run_replication",
    "run_restarting",
    "sample_reward",
    "scaling_probe",
    "sweep",
    "tuned_gamma",
    "tuned_tau",
    "variation_of",
]
