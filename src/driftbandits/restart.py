"""Restarting scheduler for continuously changing environments.

The horizon is split into ``ceil(T / sigma)`` batches.  At every batch
boundary the policy is rebuilt from scratch (fresh round-robin, fresh
estimates, fresh greedy baseline) and the incentivized loop runs within the
batch.  The batch size trades off per-batch learning against staleness:
``sigma = (lam * T / V_T)^(2/3) * (K ln T)^(1/3)`` balances the two when the
sub-policy has worst-case regret ``lam * sqrt(T K ln T)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from .incentive import CurveRecorder, DriftModel, Totals, run_segment
from .policy import PolicyParams, make_policy

__all__ = [
    "RestartParams",
    "batch_size",
    "batch_size_exact",
    "batch_bounds",
    "run_restarting",
]


@dataclass(frozen=True)
class RestartParams:
    """The restart section of a config: batch size, or the constant to derive it.

    ``sigma=None`` means: derive the batch size from ``lam`` with
    :func:`batch_size` (the experiment harness does so when it resolves a
    config and passes the result to :func:`run_restarting`).
    """

    sigma: int | None = None
    lam: float = 1.0

    def __post_init__(self):
        if self.sigma is not None and (int(self.sigma) != self.sigma or self.sigma < 1):
            raise ValueError("sigma must be a positive integer")
        if not 0 < self.lam < math.inf:
            raise ValueError("lam must be positive and finite")


def batch_size_exact(T: int, V_T: float, K: int, lam: float = 1.0) -> float:
    """Pre-floor batch size ``(lam*T/V_T)^(2/3) * (K ln T)^(1/3)``."""
    if T < 2:
        raise ValueError("T must be >= 2")
    if K < 2:
        raise ValueError("K must be >= 2")
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not (1.0 / K <= V_T <= T / K):
        raise ValueError(f"V_T must lie in [1/K, T/K] = [{1.0 / K}, {T / K}]")
    return (lam * T / V_T) ** (2.0 / 3.0) * (K * math.log(T)) ** (1.0 / 3.0)


def batch_size(T: int, V_T: float, K: int, lam: float = 1.0) -> int:
    """Integer batch size: the floored formula value, clamped into [1, T]."""
    # clamp before the floor: a huge lam makes the formula value inf
    return max(1, math.floor(min(batch_size_exact(T, V_T, K, lam), T)))


def batch_bounds(T: int, sigma: int) -> list[tuple[int, int]]:
    """Inclusive step ranges of each batch; the last one is truncated at T."""
    if not 1 <= sigma:
        raise ValueError("sigma must be >= 1")
    return [
        (start, min(T, start + sigma - 1)) for start in range(1, T + 1, sigma)
    ]


def run_restarting(
    env,
    sigma: int,
    policy_params: PolicyParams,
    model: DriftModel,
    rng: Random,
    curves: CurveRecorder | None = None,
) -> Totals:
    """Incentivized run with a policy restart every ``sigma`` steps.

    Returns the sums over the run.  With ``sigma >= T`` there is a single
    batch and the run is identical, draw for draw, to the plain incentivized
    loop.  The step records of a ``CurveRecorder(steps=True)`` carry the
    batch index in ``batch``.
    """
    totals = Totals()
    for j, (start, stop) in enumerate(batch_bounds(env.schedule.T, sigma), start=1):
        policy = make_policy(policy_params, env.schedule.K)
        totals = run_segment(policy, env, start, stop, model, rng, totals, curves, j)
    return totals
