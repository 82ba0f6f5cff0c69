"""Incentivized exploration for non-stationary multi-armed bandits.

Simulates a principal who recommends arms through a bandit policy and pays
agents the estimate gap whenever the recommendation departs from the greedy
choice, while the paid agents return drift-biased reward feedback.  Provides
abrupt (breakpoint) and budgeted-drift environments, five policies (UCB1,
discounted UCB, sliding-window UCB, epsilon-greedy, Thompson sampling), a
restarting scheduler, and a deterministic replication harness with a CLI.
"""

from .harness import ConfigError, EnvSpec, ExperimentConfig, run_experiment
from .incentive import DriftModel, incentive_step, run_incentivized
from .policy import PolicyParams
from .restart import RestartParams

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DriftModel",
    "EnvSpec",
    "ExperimentConfig",
    "PolicyParams",
    "RestartParams",
    "incentive_step",
    "run_experiment",
    "run_incentivized",
]
