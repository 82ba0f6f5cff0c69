"""The incentivized recommendation step.

Each step the principal recommends arm ``a_t`` via the bandit policy, the
agent's myopic greedy choice is ``g_t`` (argmax of the policy's own mean
estimator), and whenever they differ the principal pays the estimate gap
``chi_t = estimate(g_t) - estimate(a_t)`` as compensation.  Paid agents bias
their feedback: the observed reward is ``r_t = X_t(a_t) + f(chi_t)`` where
``f`` is a nondecreasing Lipschitz drift function with ``f(0) = 0``.  The
policy is updated with the biased ``r_t`` — neither party can separate the
true reward from the drift.

``run_segment`` is the single entry point to this loop; it serves the
one-step API, full runs, and the restarting scheduler.  It steps the
built-in policies through fused per-policy kernels, which inline the policy
and drift methods, accumulate regret/compensation totals, and write into a
:class:`CurveRecorder` only when one is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log, sqrt
from random import Random
from typing import NamedTuple

from .policy import (
    DucbPolicy,
    EpsGreedyPolicy,
    Policy,
    SwucbPolicy,
    ThompsonPolicy,
    Ucb1Policy,
)

__all__ = [
    "DriftModel",
    "StepOutcome",
    "RunTotals",
    "CurveRecorder",
    "incentive_step",
    "run_segment",
    "run_incentivized",
]


@dataclass(frozen=True)
class DriftModel:
    """Reward-drift function ``f``: linear ``l*x`` or saturating ``l*min(x, cap)``.

    Both variants are nondecreasing, vanish at 0, and are Lipschitz with
    constant ``l``.  This is also the drift section of an experiment config.
    """

    kind: str = "linear"
    l: float = 0.0
    cap: float | None = None

    def __post_init__(self):
        if self.kind not in ("linear", "saturating"):
            raise ValueError(f"unknown drift kind {self.kind!r}")
        if not 0.0 <= self.l < inf:
            raise ValueError("Lipschitz constant l must be finite and >= 0")
        if self.kind == "saturating":
            if self.cap is None or not 0.0 < self.cap < inf:
                raise ValueError("saturating drift requires a finite cap > 0")

    def apply(self, chi: float) -> float:
        """Drift ``f(chi)`` caused by paying compensation ``chi``."""
        if chi != chi or chi < 0.0:
            raise _bad_compensation(chi)
        if self.kind == "linear":
            return self.l * chi
        return self.l * (chi if chi < self.cap else self.cap)


class StepOutcome(NamedTuple):
    """Full record of one incentivized step, in ``trace.csv`` column order.

    The ``cum_*`` fields are the run's totals (the :class:`RunTotals` the
    step adds to) after this step.
    """

    t: int
    batch: int
    recommended: int
    greedy: int
    compensation: float
    drift: float
    true_reward: float
    observed_reward: float
    cum_pseudo_regret: float
    cum_realized_regret: float
    cum_comp: float


class RunTotals:
    """Running sums over a (partial) run; carried across restart batches."""

    __slots__ = ("pseudo_regret", "realized_regret", "compensation", "true_reward")

    def __init__(self):
        self.pseudo_regret = 0.0
        self.realized_regret = 0.0
        self.compensation = 0.0
        self.true_reward = 0.0


class CurveRecorder:
    """The per-step sink: the run's cumulative totals after every step.

    With ``steps=True`` it also keeps one :class:`StepOutcome` per step,
    which is what a trace exports.
    """

    __slots__ = ("cum_pseudo", "cum_realized", "cum_comp", "cum_reward", "steps")

    def __init__(self, steps: bool = False):
        self.cum_pseudo: list[float] = []
        self.cum_realized: list[float] = []
        self.cum_comp: list[float] = []
        self.cum_reward: list[float] = []
        self.steps: list[StepOutcome] | None = [] if steps else None


def run_segment(
    policy: Policy,
    env,
    t_start: int,
    t_end: int,
    model: DriftModel,
    rng: Random,
    totals: RunTotals | None = None,
    curves: CurveRecorder | None = None,
    batch: int = 1,
) -> RunTotals:
    """Run incentivized steps ``t_start..t_end`` (inclusive), mutating ``policy``.

    During the policy's forced round-robin no greedy arm exists, so no
    compensation is paid and no drift occurs.  Each step consumes the
    policy's recommendation draws (if any), exactly one uniform for the
    Bernoulli reward, then any update draws, in that order.  ``batch`` is
    the restart batch recorded in the step records.

    Only the built-in policy classes and ``DriftModel`` itself have a step
    kernel; any other type, a subclass included, is refused with a
    ``TypeError`` rather than run as its base class.
    """
    kernel = _KERNELS.get(type(policy))
    if kernel is None:
        raise TypeError(f"no step kernel for policy type {type(policy).__name__}")
    if type(model) is not DriftModel:
        raise TypeError(f"no step kernel for drift type {type(model).__name__}")
    sched = env.schedule
    if not (1 <= t_start and t_end <= sched.T):
        raise ValueError(f"steps [{t_start}, {t_end}] outside horizon [1, {sched.T}]")
    if totals is None:
        totals = RunTotals()
    # Linear drift is the saturating form with an infinite cap: for every
    # chi that passes the check, ``chi if chi < inf else inf`` is ``chi``.
    cap = model.cap if model.kind == "saturating" else inf
    acc = (totals.pseudo_regret, totals.realized_regret, totals.compensation,
           totals.true_reward)
    acc = kernel(
        policy, sched.rows, sched.best_mean, t_start, t_end, model.l, cap, rng,
        acc, curves, batch,
    )
    (totals.pseudo_regret, totals.realized_regret, totals.compensation,
     totals.true_reward) = acc
    return totals


# ---------------------------------------------------------------------------
# Fused step kernels.
#
# Each kernel is the step loop for one policy class with the policy's
# ``recommend``/``greedy_arm``/``estimate``/``observe`` and
# ``DriftModel.apply`` inlined: the statistics live in local variables (the
# per-arm lists are the policy's own, updated in place; scalars are written
# back on exit, also when a check raises), and one pass over the arms finds
# both the index argmax (ties to the lowest arm, starting from -inf) and the
# greedy argmax (ties to the lowest arm, starting from arm 1's estimate).
# Any edit here must keep the draw order and every float expression of the
# loop over the public methods; tests/test_kernels.py checks bit-identity
# against that loop.
#
# Signature: (policy, rows, best, t_start, t_end, l, cap, rng, acc, curves,
# batch), where ``acc`` is (pseudo, realized, compensation, true_reward);
# returns the updated ``acc``.


def _bad_compensation(chi: float) -> ValueError:
    return ValueError(f"compensation must be >= 0, got {chi}")


def _bad_reward(r: float) -> ValueError:
    return ValueError(f"reward must be finite and nonnegative, got {r}")


def _ucb1_segment(pol, rows, best, t_start, t_end, l, cap, rng, acc, curves, batch):
    K = pol.K
    count, total = pol.count, pol.total
    n_obs = pol.t
    uniform = rng.random
    arms = range(K)
    pseudo, realized, comp_sum, reward_sum = acc
    if curves is not None:
        app_p = curves.cum_pseudo.append
        app_r = curves.cum_realized.append
        app_c = curves.cum_comp.append
        app_w = curves.cum_reward.append
        steps = curves.steps
    try:
        for t in range(t_start, t_end + 1):
            if n_obs < K:
                a = g = n_obs + 1
                chi = delta = 0.0
            else:
                two_log_t = 2.0 * log(n_obs)
                n = count[0]
                g, ge = 1, (total[0] / n if n > 0.0 else 0.0)
                a, av, ae = 1, -inf, ge
                for i in arms:
                    n = count[i]
                    if n > 0.0:
                        e = total[i] / n
                        v = e + sqrt(two_log_t / n)
                    else:
                        e, v = 0.0, inf
                    if v > av:
                        a, av, ae = i + 1, v, e
                    if e > ge:
                        g, ge = i + 1, e
                if a != g:
                    chi = ge - ae
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = rows[t - 1][a - 1]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            count[a - 1] += 1.0
            total[a - 1] += r
            n_obs += 1

            mu_star = best[t - 1]
            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if steps is not None:
                    steps.append(StepOutcome(
                        t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
    return pseudo, realized, comp_sum, reward_sum


def _ducb_segment(pol, rows, best, t_start, t_end, l, cap, rng, acc, curves, batch):
    K = pol.K
    gamma, xi = pol.gamma, pol.xi
    dc, ds, raw = pol.disc_count, pol.disc_sum, pol.raw_count
    n_disc = pol.disc_total
    n_obs = pol.t
    uniform = rng.random
    arms = range(K)
    pseudo, realized, comp_sum, reward_sum = acc
    if curves is not None:
        app_p = curves.cum_pseudo.append
        app_r = curves.cum_realized.append
        app_c = curves.cum_comp.append
        app_w = curves.cum_reward.append
        steps = curves.steps
    try:
        for t in range(t_start, t_end + 1):
            if n_obs < K:
                a = g = n_obs + 1
                chi = delta = 0.0
            else:
                xi_log_n = xi * log(n_disc)
                n = dc[0]
                g, ge = 1, (ds[0] / n if n > 0.0 else 0.0)
                a, av, ae = 1, -inf, ge
                for i in arms:
                    n = dc[i]
                    if n > 0.0:
                        e = ds[i] / n
                        v = e + 2.0 * sqrt(xi_log_n / n)
                    else:
                        e, v = 0.0, inf
                    if v > av:
                        a, av, ae = i + 1, v, e
                    if e > ge:
                        g, ge = i + 1, e
                if a != g:
                    chi = ge - ae
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = rows[t - 1][a - 1]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            for i in arms:
                dc[i] *= gamma
                ds[i] *= gamma
            i = a - 1
            dc[i] += 1.0
            ds[i] += r
            raw[i] += 1
            n_disc = gamma * n_disc + 1.0
            n_obs += 1

            mu_star = best[t - 1]
            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if steps is not None:
                    steps.append(StepOutcome(
                        t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
        pol.disc_total = n_disc
    return pseudo, realized, comp_sum, reward_sum


def _swucb_segment(pol, rows, best, t_start, t_end, l, cap, rng, acc, curves, batch):
    K = pol.K
    tau, xi = pol.tau, pol.xi
    window = pol.window
    push, pop = window.append, window.popleft
    wc, ws, raw = pol.win_count, pol.win_sum, pol.raw_count
    n_obs = pol.t
    uniform = rng.random
    arms = range(K)
    pseudo, realized, comp_sum, reward_sum = acc
    if curves is not None:
        app_p = curves.cum_pseudo.append
        app_r = curves.cum_realized.append
        app_c = curves.cum_comp.append
        app_w = curves.cum_reward.append
        steps = curves.steps
    try:
        for t in range(t_start, t_end + 1):
            if n_obs < K:
                a = g = n_obs + 1
                chi = delta = 0.0
            else:
                xi_log_w = xi * log(n_obs if n_obs < tau else tau)
                n = wc[0]
                g, ge = 1, (ws[0] / n if n > 0 else 0.0)
                a, av, ae = 1, -inf, ge
                for i in arms:
                    n = wc[i]
                    if n > 0:
                        e = ws[i] / n
                        v = e + sqrt(xi_log_w / n)
                    else:
                        e, v = 0.0, inf
                    if v > av:
                        a, av, ae = i + 1, v, e
                    if e > ge:
                        g, ge = i + 1, e
                if a != g:
                    chi = ge - ae
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = rows[t - 1][a - 1]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            if len(window) == tau:
                old_i, old_r = pop()
                wc[old_i] -= 1
                ws[old_i] -= old_r
            i = a - 1
            push((i, r))
            wc[i] += 1
            ws[i] += r
            raw[i] += 1
            n_obs += 1

            mu_star = best[t - 1]
            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if steps is not None:
                    steps.append(StepOutcome(
                        t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
    return pseudo, realized, comp_sum, reward_sum


def _eps_greedy_segment(
    pol, rows, best, t_start, t_end, l, cap, rng, acc, curves, batch
):
    K = pol.K
    eps_c = pol.eps_c
    count, total = pol.count, pol.total
    n_obs = pol.t
    uniform = rng.random
    randrange = rng.randrange
    arms = range(1, K)
    pseudo, realized, comp_sum, reward_sum = acc
    if curves is not None:
        app_p = curves.cum_pseudo.append
        app_r = curves.cum_realized.append
        app_c = curves.cum_comp.append
        app_w = curves.cum_reward.append
        steps = curves.steps
    try:
        for t in range(t_start, t_end + 1):
            if n_obs < K:
                a = g = n_obs + 1
                chi = delta = 0.0
            else:
                eps = eps_c * K / n_obs
                n = count[0]
                g, ge = 1, (total[0] / n if n > 0.0 else 0.0)
                for i in arms:
                    n = count[i]
                    e = total[i] / n if n > 0.0 else 0.0
                    if e > ge:
                        g, ge = i + 1, e
                if eps >= 1.0 or uniform() < eps:
                    a = randrange(K) + 1
                else:
                    a = g
                if a != g:
                    n = count[a - 1]
                    chi = ge - (total[a - 1] / n if n > 0.0 else 0.0)
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = rows[t - 1][a - 1]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            count[a - 1] += 1.0
            total[a - 1] += r
            n_obs += 1

            mu_star = best[t - 1]
            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if steps is not None:
                    steps.append(StepOutcome(
                        t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
    return pseudo, realized, comp_sum, reward_sum


def _thompson_segment(pol, rows, best, t_start, t_end, l, cap, rng, acc, curves, batch):
    K = pol.K
    alpha, beta = pol.alpha, pol.beta
    n_obs = pol.t
    uniform = rng.random
    betavariate = rng.betavariate
    arms = range(K)
    pseudo, realized, comp_sum, reward_sum = acc
    if curves is not None:
        app_p = curves.cum_pseudo.append
        app_r = curves.cum_realized.append
        app_c = curves.cum_comp.append
        app_w = curves.cum_reward.append
        steps = curves.steps
    try:
        for t in range(t_start, t_end + 1):
            if n_obs < K:
                a = g = n_obs + 1
                chi = delta = 0.0
            else:
                g, ge = 1, alpha[0] / (alpha[0] + beta[0])
                a, av, ae = 1, -inf, ge
                for i in arms:
                    ai, bi = alpha[i], beta[i]
                    v = betavariate(ai, bi)
                    e = ai / (ai + bi)
                    if v > av:
                        a, av, ae = i + 1, v, e
                    if e > ge:
                        g, ge = i + 1, e
                if a != g:
                    chi = ge - ae
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = rows[t - 1][a - 1]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            if uniform() < (r if r < 1.0 else 1.0):
                alpha[a - 1] += 1.0
            else:
                beta[a - 1] += 1.0
            n_obs += 1

            mu_star = best[t - 1]
            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if steps is not None:
                    steps.append(StepOutcome(
                        t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
    return pseudo, realized, comp_sum, reward_sum


_KERNELS = {
    Ucb1Policy: _ucb1_segment,
    DucbPolicy: _ducb_segment,
    SwucbPolicy: _swucb_segment,
    EpsGreedyPolicy: _eps_greedy_segment,
    ThompsonPolicy: _thompson_segment,
}


def incentive_step(
    policy: Policy, env, t: int, model: DriftModel, rng: Random
) -> StepOutcome:
    """Execute the single incentivized step ``t``, updating ``policy`` in place."""
    recorder = CurveRecorder(steps=True)
    run_segment(policy, env, t, t, model, rng, curves=recorder)
    return recorder.steps[0]


def run_incentivized(
    env,
    policy: Policy,
    model: DriftModel,
    rng: Random,
    totals: RunTotals | None = None,
    curves: CurveRecorder | None = None,
) -> RunTotals:
    """Full-horizon incentivized run (no restarts)."""
    return run_segment(policy, env, 1, env.schedule.T, model, rng, totals, curves)
