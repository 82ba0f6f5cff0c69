"""Non-stationary reward environments.

An environment is a deterministic mean-reward schedule ``mu_t(a)`` over a
1-indexed horizon ``t = 1..T`` and arms ``a = 1..K``; the step engine
(:mod:`driftbandits.incentive`) draws Bernoulli rewards from the schedule's
plain-Python views.  Two generator families are provided: abrupt two-arm "flip"
schedules (piecewise-constant means that swap at evenly spaced breakpoints)
and continuously drifting sinusoidal schedules that spend a total-variation
budget.  Environments are immutable after construction and safe to share
across concurrent replications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeanSchedule",
    "AbruptEnvironment",
    "DriftingEnvironment",
    "make_flip_env",
    "make_sinusoidal_env",
    "variation_of",
]


@dataclass(frozen=True, eq=False)
class MeanSchedule:
    """Mean rewards ``mu_t(a)`` for ``t in [1, T]``, ``a in [1, K]``.

    ``means`` has shape ``(T, K)`` with every entry in ``[0, 1]``; row ``t-1``
    holds the means of step ``t``.  The backing array is made read-only.
    """

    means: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

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
    # for the per-step simulation loop.
    @property
    def rows(self) -> tuple:
        r = self._cache.get("rows")
        if r is None:
            r = tuple(tuple(row) for row in self.means.tolist())
            self._cache["rows"] = r
        return r

    @property
    def best_mean(self) -> tuple:
        b = self._cache.get("best_mean")
        if b is None:
            b = tuple(self.means.max(axis=1).tolist())
            self._cache["best_mean"] = b
        return b


@dataclass(frozen=True, eq=False)
class AbruptEnvironment:
    """Piecewise-stationary schedule with known breakpoint positions.

    Means are constant on every interval between consecutive breakpoints;
    ``beta`` counts the breakpoints, all strictly inside ``(1, T)``.
    """

    schedule: MeanSchedule
    breakpoints: tuple
    beta: int

    def __post_init__(self):
        bps = tuple(int(b) for b in self.breakpoints)
        if list(bps) != sorted(set(bps)):
            raise ValueError("breakpoints must be strictly increasing")
        T = self.schedule.T
        if any(b <= 1 or b >= T for b in bps):
            raise ValueError("breakpoints must lie strictly inside (1, T)")
        if self.beta != len(bps):
            raise ValueError("beta must equal the number of breakpoints")
        m = self.schedule.means
        edges = [0, *bps, T]
        for lo, hi in zip(edges[:-1], edges[1:]):
            seg = m[lo:hi]
            if seg.shape[0] > 1 and (seg != seg[0]).any():
                raise ValueError("means must be constant between breakpoints")
        object.__setattr__(self, "breakpoints", bps)

    @property
    def T(self) -> int:
        return self.schedule.T

    @property
    def K(self) -> int:
        return self.schedule.K


@dataclass(frozen=True, eq=False)
class DriftingEnvironment:
    """Schedule whose total sup-norm variation stays within a budget."""

    schedule: MeanSchedule
    budget: float
    measured_variation: float = field(init=False)

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.schedule.K * self.budget > self.schedule.T:
            raise ValueError("inadmissible budget: K * V_T must not exceed T")
        mv = variation_of(self.schedule)
        if mv > self.budget:
            raise ValueError(
                f"schedule variation {mv} exceeds the budget {self.budget}"
            )
        object.__setattr__(self, "measured_variation", mv)

    @property
    def T(self) -> int:
        return self.schedule.T

    @property
    def K(self) -> int:
        return self.schedule.K


def make_flip_env(T: int, p: int, hi: float, lo: float) -> AbruptEnvironment:
    """Two-arm schedule whose means swap at ``floor(k*T/p)``, ``k=1..p-1``.

    Arm 1 starts at ``hi`` and arm 2 at ``lo``; the values swap at every
    breakpoint, giving ``p`` equal segments and ``p - 1`` breakpoints.
    """
    if p <= 0:
        raise ValueError("segment count p must be positive")
    if T < p:
        raise ValueError("T must be at least the segment count p")
    if not (0.0 <= lo < hi <= 1.0):
        raise ValueError("means must satisfy 0 <= lo < hi <= 1")

    breakpoints = [(k * T) // p for k in range(1, p)]
    means = np.empty((T, 2), dtype=float)
    edges = [0, *breakpoints, T]
    for seg, (start, stop) in enumerate(zip(edges[:-1], edges[1:])):
        arm1 = hi if seg % 2 == 0 else lo
        means[start:stop, 0] = arm1
        means[start:stop, 1] = lo if arm1 == hi else hi
    return AbruptEnvironment(MeanSchedule(means), tuple(breakpoints), p - 1)


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
) -> DriftingEnvironment:
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
        return DriftingEnvironment(MeanSchedule(means), 0.0)

    theta_total = _phase_span(budget, amplitude)
    if theta_total < math.pi / 2.0:
        raise ValueError(
            "budget too small to exhaust: needs at least a quarter period"
        )
    n_active = math.ceil(active_fraction * T)
    if n_active < 2:
        raise ValueError("active window too short to spend a positive budget")

    t_idx = np.arange(n_active, dtype=float)
    phase = theta_total * t_idx / (n_active - 1)
    wave = amplitude * np.sin(phase)
    means = np.empty((T, 2), dtype=float)
    means[:n_active, 0] = 0.5 + wave
    means[:n_active, 1] = 0.5 - wave
    means[n_active:, 0] = means[n_active - 1, 0]
    means[n_active:, 1] = means[n_active - 1, 1]

    env = DriftingEnvironment(MeanSchedule(means), float(budget))
    if env.measured_variation < 0.95 * budget:
        raise ValueError("generated schedule underspends the budget by >5%")
    return env


def _schedule_of(env) -> MeanSchedule:
    return env if isinstance(env, MeanSchedule) else env.schedule


def variation_of(env) -> float:
    """Total variation ``sum_t max_a |mu_t(a) - mu_{t+1}(a)|`` of a schedule.

    Uses exact summation so piecewise-constant schedules report their
    variation with no accumulation error.  Cached on the schedule, which is
    immutable.
    """
    sched = _schedule_of(env)
    v = sched._cache.get("variation")
    if v is None:
        if sched.T == 1:
            v = 0.0
        else:
            step_sup = np.abs(np.diff(sched.means, axis=0)).max(axis=1)
            v = math.fsum(step_sup.tolist())
        sched._cache["variation"] = v
    return v
