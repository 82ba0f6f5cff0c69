"""Non-stationary reward environments.

An environment is a deterministic mean-reward schedule ``mu_t(a)`` over a
1-indexed horizon ``t = 1..T`` and arms ``a = 1..K``; the step engine
(:mod:`driftbandits.incentive`) draws Bernoulli rewards from the schedule's
plain-Python views.  Two generator families build the one
:class:`Environment` type: abrupt two-arm "flip" schedules (piecewise-constant
means that swap at evenly spaced breakpoints) carry their breakpoints, and
continuously drifting sinusoidal schedules carry the total-variation budget
they spend.  Environments are immutable after construction and safe to share
across concurrent replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MeanSchedule",
    "Environment",
    "make_flip_env",
    "make_sinusoidal_env",
    "variation_of",
]


def _share_repeats(values) -> tuple:
    """``values`` as a tuple whose runs of equal values are each one object."""
    out, last = [], None
    for v in values:
        if v != last:
            last = v
        out.append(last)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class MeanSchedule:
    """Mean rewards ``mu_t(a)`` for ``t in [1, T]``, ``a in [1, K]``.

    ``means`` has shape ``(T, K)`` with every entry in ``[0, 1]``; row ``t-1``
    holds the means of step ``t``.  The backing array is made read-only.
    """

    means: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.means, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ValueError("means must be a (T, K) array with T, K >= 1")
        if not np.isfinite(m).all():
            raise ValueError("means contain non-finite values")
        if (m < 0.0).any() or (m > 1.0).any():
            raise ValueError("means must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "means", m)

    @property
    def T(self) -> int:
        return self.means.shape[0]

    @property
    def K(self) -> int:
        return self.means.shape[1]

    # Plain-Python views, cached: scalar indexing into ndarrays is too slow
    # for the per-step simulation loop.  A value equal to the one before it
    # is that same object, so a flip schedule holds one row per segment.
    @cached_property
    def rows(self) -> tuple:
        return _share_repeats(map(tuple, self.means.tolist()))

    @cached_property
    def best_mean(self) -> tuple:
        return _share_repeats(self.means.max(axis=1).tolist())

    @cached_property
    def variation(self) -> float:
        """Total variation ``sum_t max_a |mu_t(a) - mu_{t+1}(a)|``.

        Uses exact summation so piecewise-constant schedules report their
        variation with no accumulation error.
        """
        if self.T == 1:
            return 0.0
        step_sup = np.abs(np.diff(self.means, axis=0)).max(axis=1)
        return math.fsum(step_sup.tolist())


@dataclass(frozen=True, eq=False)
class Environment:
    """A mean schedule plus the one fact its generator fixed.

    A flip schedule carries its ``breakpoints`` (means are constant between
    them); a sinusoidal schedule carries the variation ``budget`` V_T that it
    spends without exceeding.
    """

    schedule: MeanSchedule
    breakpoints: tuple = ()
    budget: float | None = None

    @property
    def T(self) -> int:
        return self.schedule.T

    @property
    def K(self) -> int:
        return self.schedule.K

    @property
    def beta(self) -> int:
        return len(self.breakpoints)


def make_flip_env(T: int, p: int, hi: float, lo: float) -> Environment:
    """Two-arm schedule whose means swap at ``floor(k*T/p)``, ``k=1..p-1``.

    Arm 1 starts at ``hi`` and arm 2 at ``lo``; the values swap at every
    breakpoint, giving ``p`` equal segments and ``p - 1`` breakpoints, all
    strictly inside ``(1, T)``.
    """
    if p <= 0:
        raise ValueError("segment count p must be positive")
    need = 2 * p if p > 1 else 1  # floor(T/p) > 1 keeps breakpoints past step 1
    if T < need:
        raise ValueError(f"T={T} is too short for {p} segments: needs T >= {need}")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("means must satisfy 0 <= lo < hi <= 1")

    breakpoints = [(k * T) // p for k in range(1, p)]
    means = np.empty((T, 2), dtype=float)
    edges = [0, *breakpoints, T]
    for seg, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        arm1 = hi if seg % 2 == 0 else lo
        means[start:stop, 0] = arm1
        means[start:stop, 1] = lo if arm1 == hi else hi
    return Environment(MeanSchedule(means), tuple(breakpoints))


def _phase_span(budget: float, amplitude: float) -> float:
    """Phase length over which ``amplitude * sin`` spends exactly ``budget``.

    The total variation of ``A*sin(theta)`` over ``[0, Theta]`` is
    ``A * (2*floor(Theta/pi) + g(Theta mod pi))`` with ``g(r) = sin r`` for
    ``r <= pi/2`` and ``2 - sin r`` otherwise; this inverts that map.
    """
    half_cycles = int(budget // (2.0 * amplitude))
    remainder = budget - 2.0 * amplitude * half_cycles
    ratio = remainder / amplitude
    if ratio <= 1.0:
        r = math.asin(min(ratio, 1.0))
    else:
        r = math.pi - math.asin(2.0 - ratio)
    return half_cycles * math.pi + r


def make_sinusoidal_env(
    T: int, budget: float, amplitude: float, active_fraction: float
) -> Environment:
    """Two antiphase sinusoidal arms centered at 0.5 spending ``budget``.

    Both arms follow ``0.5 +/- amplitude * sin`` over the first
    ``ceil(active_fraction * T)`` steps and hold constant afterwards.  The
    oscillation frequency is chosen so the realized variation nearly exhausts
    the budget (within 5%) without ever exceeding it.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not (0.0 < amplitude <= 0.5):
        raise ValueError("amplitude must lie in (0, 0.5]")
    if not (0.0 < active_fraction <= 1.0):
        raise ValueError("active_fraction must lie in (0, 1]")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if 2.0 * budget > T:
        raise ValueError("inadmissible budget: K * V_T must not exceed T")
    if budget > 2.0 * amplitude * T:
        raise ValueError("budget unreachable: an arm moves at most 2*amplitude per step")

    if budget == 0.0:
        means = np.full((T, 2), 0.5)
        return Environment(MeanSchedule(means), budget=0.0)

    theta_total = _phase_span(budget, amplitude)
    if theta_total < math.pi / 2.0:
        raise ValueError(
            "budget too small to exhaust: needs at least a quarter period"
        )
    n_active = math.ceil(active_fraction * T)
    if n_active < 2:
        raise ValueError("active window too short to spend a positive budget")

    t_idx = np.arange(n_active, dtype=float)

    def schedule_over(theta: float) -> MeanSchedule:
        wave = amplitude * np.sin(theta * t_idx / (n_active - 1))
        means = np.empty((T, 2), dtype=float)
        means[:n_active, 0] = 0.5 + wave
        means[:n_active, 1] = 0.5 - wave
        means[n_active:, 0] = means[n_active - 1, 0]
        means[n_active:, 1] = means[n_active - 1, 1]
        return MeanSchedule(means)

    schedule = schedule_over(theta_total)
    # The sines round, so the exact span can overshoot the budget by a few
    # ulps; shrink it, by a doubling relative step, until it does not.
    shrink = 2.0**-52
    while schedule.variation > budget:
        schedule = schedule_over(theta_total * (1.0 - shrink))
        shrink *= 2.0
    if schedule.variation < 0.95 * budget:
        raise ValueError("generated schedule underspends the budget by >5%")
    return Environment(schedule, budget=float(budget))


def variation_of(env) -> float:
    """``MeanSchedule.variation`` of an environment or schedule (cached)."""
    return (env if isinstance(env, MeanSchedule) else env.schedule).variation
