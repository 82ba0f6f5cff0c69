"""Arm-selection policies with incremental sufficient statistics.

All policies share the same lifecycle: the first ``K`` recommendations are a
forced round-robin over the arms (1..K), after which the policy's index rule
takes over.  ``recommend`` never mutates state; ``observe`` folds one
(arm, reward) pair into the statistics.  Arms and time are 1-indexed at the
interface; rewards may exceed 1 when feedback is drift-biased.

Index rules:

* UCB1:   ``mean + sqrt(2 ln t / N)``
* DUCB:   discounted mean + ``2 sqrt(xi ln n(gamma) / N(gamma, a))``
* SWUCB:  windowed mean + ``sqrt(xi ln(min(t, tau)) / N(tau, a))``
* eps-greedy: uniform exploration w.p. ``min(1, eps_c * K / t)``, else greedy
* Thompson: Beta(alpha, beta) posterior sampling with Bernoulli-ized updates

With ``gamma = 1`` and ``xi = 1/2`` the DUCB index reduces to UCB1 exactly
(bit-for-bit); with ``tau >= T`` and ``xi = 2`` so does SWUCB.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from math import inf, isfinite, log, sqrt
from random import Random

__all__ = [
    "POLICY_KINDS",
    "PolicyParams",
    "Policy",
    "Ucb1Policy",
    "DucbPolicy",
    "SwucbPolicy",
    "EpsGreedyPolicy",
    "ThompsonPolicy",
    "make_policy",
]

POLICY_KINDS = ("ucb1", "ducb", "swucb", "eps_greedy", "thompson")


@dataclass
class PolicyParams:
    """Constructor arguments for any policy kind.

    ``xi`` applies to DUCB/SWUCB (theory requires ``xi > 1/2``; values down
    to exactly 1/2 are accepted so DUCB can reduce to UCB1).  ``gamma`` and
    ``tau`` are required by DUCB and SWUCB respectively; the rest only
    matter for eps-greedy / Thompson.
    """

    kind: str
    xi: float = 0.6
    gamma: float | None = None
    tau: int | None = None
    eps_c: float = 5.0
    prior_a: float = 1.0
    prior_b: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        for name in ("xi", "gamma", "eps_c", "prior_a", "prior_b"):
            v = getattr(self, name)
            if v is not None and not isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.xi < 0.5:
            raise ValueError("xi must be at least 1/2")
        if self.gamma is not None and not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.tau is not None and (int(self.tau) != self.tau or self.tau < 1):
            raise ValueError("tau must be a positive integer")
        if self.eps_c <= 0:
            raise ValueError("eps_c must be positive")
        if self.prior_a <= 0 or self.prior_b <= 0:
            raise ValueError("Beta prior parameters must be positive")


class Policy:
    """Common lifecycle: forced round-robin, then the subclass index rule."""

    kind = "base"

    def __init__(self, K: int):
        if K < 2:
            raise ValueError("need at least two arms")
        self.K = K
        self.t = 0  # observations folded in so far

    @property
    def ready(self) -> bool:
        """True once every arm has been pulled (round-robin complete)."""
        return self.t >= self.K

    def recommend(self, rng: Random) -> int:
        raise NotImplementedError

    def observe(self, arm: int, reward: float, rng: Random | None = None) -> None:
        """Fold one (arm, reward) pair in. Thompson needs ``rng``; others ignore it."""
        raise NotImplementedError

    def estimate(self, arm: int) -> float:
        raise NotImplementedError

    def greedy_arm(self) -> int:
        """Arm maximizing this policy's own mean estimator (ties: lowest)."""
        if not self.ready:
            raise RuntimeError("greedy arm undefined before every arm is observed")
        est = self.estimate
        pick, best = 1, est(1)
        for a in range(2, self.K + 1):
            v = est(a)
            if v > best:
                pick, best = a, v
        return pick

    def _check(self, arm: int, reward: float) -> None:
        if not 1 <= arm <= self.K:
            raise ValueError(f"arm {arm} outside [1, {self.K}]")
        if not 0.0 <= reward < inf:
            raise ValueError(f"reward must be finite and nonnegative, got {reward}")

    def _per_arm(self) -> list:
        raise NotImplementedError

    def state_json(self) -> str:
        """Debug dump with stable field order."""
        return json.dumps({"kind": self.kind, "t": self.t, "per_arm": self._per_arm()})


class Ucb1Policy(Policy):
    kind = "ucb1"

    def __init__(self, K: int, params: PolicyParams | None = None):
        super().__init__(K)
        self.count = [0.0] * K
        self.total = [0.0] * K

    def reset(self) -> None:
        self.t = 0
        self.count = [0.0] * self.K
        self.total = [0.0] * self.K

    def recommend(self, rng: Random) -> int:
        t = self.t
        if t < self.K:
            return t + 1
        two_log_t = 2.0 * log(t)
        count, total = self.count, self.total
        pick, best = 1, -inf
        for i in range(self.K):
            n = count[i]
            v = total[i] / n + sqrt(two_log_t / n) if n > 0.0 else inf
            if v > best:
                pick, best = i + 1, v
        return pick

    def observe(self, arm: int, reward: float, rng: Random | None = None) -> None:
        self._check(arm, reward)
        self.count[arm - 1] += 1.0
        self.total[arm - 1] += reward
        self.t += 1

    def estimate(self, arm: int) -> float:
        n = self.count[arm - 1]
        return self.total[arm - 1] / n if n > 0.0 else 0.0

    def radius(self, arm: int) -> float:
        n = self.count[arm - 1]
        return sqrt(2.0 * log(self.t) / n) if n > 0.0 else inf

    def _per_arm(self) -> list:
        return [
            {"count": self.count[i], "sum": self.total[i]} for i in range(self.K)
        ]


class DucbPolicy(Policy):
    """Discounted UCB: all statistics decay by ``gamma`` at every observation."""

    kind = "ducb"

    def __init__(self, K: int, params: PolicyParams):
        super().__init__(K)
        if params.gamma is None:
            raise ValueError("ducb requires gamma")
        self.gamma = params.gamma
        self.xi = params.xi
        self.disc_count = [0.0] * K  # N_t(gamma, a)
        self.disc_sum = [0.0] * K
        self.raw_count = [0] * K  # undiscounted pulls N_t(a)
        self.disc_total = 0.0  # n_t(gamma)

    def reset(self) -> None:
        self.t = 0
        self.disc_count = [0.0] * self.K
        self.disc_sum = [0.0] * self.K
        self.raw_count = [0] * self.K
        self.disc_total = 0.0

    def recommend(self, rng: Random) -> int:
        if self.t < self.K:
            return self.t + 1
        xi_log_n = self.xi * log(self.disc_total)
        dc, ds = self.disc_count, self.disc_sum
        pick, best = 1, -inf
        for i in range(self.K):
            n = dc[i]
            v = ds[i] / n + 2.0 * sqrt(xi_log_n / n) if n > 0.0 else inf
            if v > best:
                pick, best = i + 1, v
        return pick

    def observe(self, arm: int, reward: float, rng: Random | None = None) -> None:
        self._check(arm, reward)
        g = self.gamma
        dc, ds = self.disc_count, self.disc_sum
        for i in range(self.K):
            dc[i] *= g
            ds[i] *= g
        i = arm - 1
        dc[i] += 1.0
        ds[i] += reward
        self.raw_count[i] += 1
        self.disc_total = g * self.disc_total + 1.0
        self.t += 1

    def estimate(self, arm: int) -> float:
        n = self.disc_count[arm - 1]
        return self.disc_sum[arm - 1] / n if n > 0.0 else 0.0

    def radius(self, arm: int) -> float:
        n = self.disc_count[arm - 1]
        if n <= 0.0:
            return inf
        return 2.0 * sqrt(self.xi * log(self.disc_total) / n)

    def _per_arm(self) -> list:
        return [
            {
                "disc_count": self.disc_count[i],
                "disc_sum": self.disc_sum[i],
                "raw_count": self.raw_count[i],
            }
            for i in range(self.K)
        ]


class SwucbPolicy(Policy):
    """Sliding-window UCB over the last ``tau`` pulls."""

    kind = "swucb"

    def __init__(self, K: int, params: PolicyParams):
        super().__init__(K)
        if params.tau is None:
            raise ValueError("swucb requires tau")
        self.tau = int(params.tau)
        self.xi = params.xi
        self.window: deque = deque()  # (arm index 0-based, reward)
        self.win_count = [0] * K  # N_t(tau, a)
        self.win_sum = [0.0] * K
        self.raw_count = [0] * K

    def reset(self) -> None:
        self.t = 0
        self.window.clear()
        self.win_count = [0] * self.K
        self.win_sum = [0.0] * self.K
        self.raw_count = [0] * self.K

    def recommend(self, rng: Random) -> int:
        t = self.t
        if t < self.K:
            return t + 1
        xi_log_w = self.xi * log(min(t, self.tau))
        wc, ws = self.win_count, self.win_sum
        pick, best = 1, -inf
        for i in range(self.K):
            n = wc[i]
            v = ws[i] / n + sqrt(xi_log_w / n) if n > 0 else inf
            if v > best:
                pick, best = i + 1, v
        return pick

    def observe(self, arm: int, reward: float, rng: Random | None = None) -> None:
        self._check(arm, reward)
        if len(self.window) == self.tau:
            old_i, old_r = self.window.popleft()
            self.win_count[old_i] -= 1
            self.win_sum[old_i] -= old_r
        i = arm - 1
        self.window.append((i, reward))
        self.win_count[i] += 1
        self.win_sum[i] += reward
        self.raw_count[i] += 1
        self.t += 1

    def estimate(self, arm: int) -> float:
        n = self.win_count[arm - 1]
        return self.win_sum[arm - 1] / n if n > 0 else 0.0

    def radius(self, arm: int) -> float:
        n = self.win_count[arm - 1]
        if n <= 0:
            return inf
        return sqrt(self.xi * log(min(self.t, self.tau)) / n)

    def _per_arm(self) -> list:
        return [
            {
                "win_count": self.win_count[i],
                "win_sum": self.win_sum[i],
                "raw_count": self.raw_count[i],
            }
            for i in range(self.K)
        ]


class EpsGreedyPolicy(Policy):
    """Decaying-epsilon greedy: explore w.p. ``min(1, eps_c * K / t)``."""

    kind = "eps_greedy"

    def __init__(self, K: int, params: PolicyParams):
        super().__init__(K)
        self.eps_c = params.eps_c
        self.count = [0.0] * K
        self.total = [0.0] * K

    def reset(self) -> None:
        self.t = 0
        self.count = [0.0] * self.K
        self.total = [0.0] * self.K

    def recommend(self, rng: Random) -> int:
        t = self.t
        if t < self.K:
            return t + 1
        eps = self.eps_c * self.K / t
        if eps >= 1.0 or rng.random() < eps:
            return rng.randrange(self.K) + 1
        return self.greedy_arm()

    def observe(self, arm: int, reward: float, rng: Random | None = None) -> None:
        self._check(arm, reward)
        self.count[arm - 1] += 1.0
        self.total[arm - 1] += reward
        self.t += 1

    def estimate(self, arm: int) -> float:
        n = self.count[arm - 1]
        return self.total[arm - 1] / n if n > 0.0 else 0.0

    def _per_arm(self) -> list:
        return [
            {"count": self.count[i], "sum": self.total[i]} for i in range(self.K)
        ]


class ThompsonPolicy(Policy):
    """Beta-Bernoulli Thompson sampling.

    Rewards are clipped to [0, 1] and converted to a Bernoulli outcome with
    one uniform draw before the conjugate update, so drift-inflated feedback
    keeps the posterior well-defined.  The draw happens on every observation
    regardless of the reward value, keeping stream consumption uniform.
    """

    kind = "thompson"

    def __init__(self, K: int, params: PolicyParams):
        super().__init__(K)
        self.prior_a = params.prior_a
        self.prior_b = params.prior_b
        self.alpha = [params.prior_a] * K
        self.beta = [params.prior_b] * K

    def reset(self) -> None:
        self.t = 0
        self.alpha = [self.prior_a] * self.K
        self.beta = [self.prior_b] * self.K

    def recommend(self, rng: Random) -> int:
        if self.t < self.K:
            return self.t + 1
        beta = rng.betavariate
        a_, b_ = self.alpha, self.beta
        pick, best = 1, -inf
        for i in range(self.K):
            v = beta(a_[i], b_[i])
            if v > best:
                pick, best = i + 1, v
        return pick

    def observe(self, arm: int, reward: float, rng: Random | None = None) -> None:
        self._check(arm, reward)
        if rng is None:
            raise ValueError("thompson updates need an rng for the Bernoulli draw")
        x = reward if reward < 1.0 else 1.0
        i = arm - 1
        if rng.random() < x:
            self.alpha[i] += 1.0
        else:
            self.beta[i] += 1.0
        self.t += 1

    def estimate(self, arm: int) -> float:
        i = arm - 1
        return self.alpha[i] / (self.alpha[i] + self.beta[i])

    def _per_arm(self) -> list:
        return [
            {"alpha": self.alpha[i], "beta": self.beta[i]} for i in range(self.K)
        ]


def make_policy(params: PolicyParams, K: int) -> Policy:
    """Instantiate the policy named by ``params.kind`` for ``K`` arms."""
    cls = {
        "ucb1": Ucb1Policy,
        "ducb": DucbPolicy,
        "swucb": SwucbPolicy,
        "eps_greedy": EpsGreedyPolicy,
        "thompson": ThompsonPolicy,
    }[params.kind]
    return cls(K, params)
