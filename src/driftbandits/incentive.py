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
built-in policies through two fused kernels: one for the policies whose
estimate is a reward sum over a count (UCB1, DUCB, SWUCB and eps-greedy) and
one for Thompson.  They inline the policy and drift methods and the
``random.Random`` draws they make (``randrange``, ``betavariate``,
``gammavariate``), take the run's :class:`Totals` and return them updated,
and append to a :class:`CurveRecorder` only when one is supplied.  The
sample-mean kernel reads each step's count term (the UCB index's log term,
eps-greedy's explore probability) from one table per process
(``_count_terms``), as does ``lockstep.run_block``, which runs many
replications of such a config at once, bit-identical to the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf, log, sqrt
from random import LOG4, SG_MAGICCONST, Random
from typing import NamedTuple

from .policy import _CLASSES, DucbPolicy, EpsGreedyPolicy, Policy, SampleMeanPolicy, SwucbPolicy

__all__ = [
    "DriftModel",
    "StepOutcome",
    "Totals",
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
            if self.l * self.cap == inf:  # the drift never exceeds l * cap
                raise ValueError(f"l * cap must be finite, got l={self.l}, cap={self.cap}")

    def apply(self, chi: float) -> float:
        """Drift ``f(chi)`` caused by paying compensation ``chi``."""
        if chi != chi or chi < 0.0:
            raise _bad_compensation(chi)
        if self.kind == "linear":
            return self.l * chi
        return self.l * (chi if chi < self.cap else self.cap)


class StepOutcome(NamedTuple):
    """Full record of one incentivized step, in ``trace.csv`` column order.

    The ``cum_*`` fields are the run's :class:`Totals` after this step.
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


class Totals(NamedTuple):
    """Sums over a (partial) run, named as the summary metrics."""

    pseudo_regret: float = 0.0
    realized_regret: float = 0.0
    compensation: float = 0.0
    true_reward: float = 0.0


class CurveRecorder:
    """The per-step sink: one list per :class:`Totals` field, under its name.

    Each list holds that total after every step.  With ``steps=True`` it
    also keeps one :class:`StepOutcome` per step, which is what a trace
    exports.
    """

    __slots__ = (*Totals._fields, "steps")

    def __init__(self, steps: bool = False):
        self.pseudo_regret: list[float] = []
        self.realized_regret: list[float] = []
        self.compensation: list[float] = []
        self.true_reward: list[float] = []
        self.steps: list[StepOutcome] | None = [] if steps else None


def run_segment(
    policy: Policy,
    env,
    t_start: int,
    t_end: int,
    model: DriftModel,
    rng: Random,
    totals: Totals = Totals(),
    curves: CurveRecorder | None = None,
    batch: int = 1,
) -> Totals:
    """Run incentivized steps ``t_start..t_end`` (inclusive), mutating ``policy``.

    Returns ``totals`` plus the sums over these steps.  During the policy's
    forced round-robin no greedy arm exists, so no compensation is paid and
    no drift occurs.  Each step consumes the policy's recommendation draws
    (if any), exactly one uniform for the Bernoulli reward, then any update
    draws, in that order.  ``batch`` is the restart batch recorded in the
    step records.

    Only the built-in policy classes, ``DriftModel`` itself and
    ``random.Random`` itself have a step kernel; any other type, a subclass
    included, is refused with a ``TypeError`` rather than run as its base
    class.
    """
    kernel = _KERNELS.get(type(policy))
    if kernel is None:
        raise TypeError(f"no step kernel for policy type {type(policy).__name__}")
    if type(model) is not DriftModel:
        raise TypeError(f"no step kernel for drift type {type(model).__name__}")
    if type(rng) is not Random:
        raise TypeError(f"no step kernel for rng type {type(rng).__name__}")
    sched = env.schedule
    if not (1 <= t_start and t_end <= sched.T):
        raise ValueError(f"steps [{t_start}, {t_end}] outside horizon [1, {sched.T}]")
    # Linear drift is the saturating form with an infinite cap: for every
    # chi that passes the check, ``chi if chi < inf else inf`` is ``chi``.
    cap = model.cap if model.kind == "saturating" else inf
    rows, best = sched.rows, sched.best_mean
    if t_start > 1 or t_end < sched.T:  # a whole-horizon run zips the views uncopied
        rows, best = rows[t_start - 1:t_end], best[t_start - 1:t_end]
    if kernel is _thompson_segment:
        steps = zip(rows, best)
    else:  # each step's count term, from the table of the policy's counts
        steps = zip(rows, best, _count_terms(policy, policy.K, policy.t,
                                             getattr(policy, "disc_total", 0.0),
                                             t_end - t_start + 1))
    return kernel(policy, steps, t_start, model.l, cap, rng, totals, curves, batch)


# The count terms of the sample-mean kinds depend only on the observation
# count n and the policy's constants, so each is a table over the counts,
# computed with the policies' float expressions: the log term of the
# UCB-family index (UCB1's ``2 ln n``, DUCB's ``xi ln n(gamma)``, SWUCB's
# ``xi ln min(n, tau)``) and eps-greedy's explore probability
# ``eps_c K / n``.  A process holds one table, keyed by the kind, the start
# count, DUCB's total and the constants the kind reads, and serves it to any
# segment no longer than it, so every replication and restart batch of a
# config shares it, as does ``lockstep.run_block``.

_held = None, None  # (key, table) of the one count-term table a process holds


def _count_terms(p, K: int, n: int, total: float, steps: int) -> list:
    """The count term of policy (or ``PolicyParams``) ``p`` at each of the
    ``steps`` counts from ``n``, DUCB's discounted count running on from
    ``total``; the held table if it starts there and is long enough.  Where
    the policy's ``log`` raises (at count 0, or a DUCB total of 0 or less)
    the log term is ``-inf``, whose square root raises the same
    ``ValueError`` at the first arm with pulls; below K, in the round-robin,
    where eps-greedy draws no explore test, its term is ``-1.0``."""
    global _held
    kind = p.kind
    consts = ((p.xi, p.gamma) if kind == "ducb" else (p.xi, p.tau) if kind == "swucb"
              else (p.eps_c, K) if kind == "eps_greedy" else ())
    key = (kind, n, total, *consts)
    if _held[0] == key and len(_held[1]) >= steps:
        return _held[1]
    _held = None, None  # drop the old table before building the next
    if kind == "ducb":
        xi, gamma = consts
        table = []
        for _ in range(steps):
            table.append(-inf if total <= 0.0 else xi * log(total))
            total = gamma * total + 1.0
    elif kind == "swucb":
        xi, tau = consts
        full = max(n, min(n + steps, tau))  # the window is full from count tau on
        table = [xi * log(k) if k else -inf for k in range(n, full)]
        table += [xi * log(tau)] * (n + steps - full)
    elif kind == "eps_greedy":
        c = p.eps_c * K  # the policy's eps_c * K / t is (eps_c * K) / t
        table = [c / k if k >= K else -1.0 for k in range(n, n + steps)]
    else:
        table = [2.0 * log(k) if k else -inf for k in range(n, n + steps)]
    _held = key, table
    return table


# ---------------------------------------------------------------------------
# Fused step kernels.
#
# Each kernel is the step loop of its policy classes with the policy's
# ``recommend``/``greedy_arm``/``estimate``/``observe`` and
# ``DriftModel.apply`` inlined: the statistics live in local variables (the
# per-arm lists are the policy's own, updated in place; scalars are written
# back on exit, also when a check raises), and one pass over the arms finds
# both the index argmax (ties to the lowest arm, starting from -inf) and the
# greedy argmax (ties to the lowest arm, starting from the first arm's
# estimate); both kernels keep the arms 0-based and add 1 in a step record.
# The sample-mean kernel (the kinds of ``lockstep.LOCKSTEP_KINDS``) branches
# on the kind only where ``lockstep.run_block`` does: at the pick, where
# eps-greedy scans for the greedy arm alone and then draws its explore test
# and explored arm; in DUCB's factor 2 on the radius; and in the update
# (DUCB's discounting; SWUCB's window, whose counts are ints).  Each step
# brings its count term from the table above.  Eps-greedy updates as UCB1.
# The stdlib draws are inlined too, as CPython's ``random.py`` writes them:
# ``randrange(K)`` is ``getrandbits(K.bit_length())`` until below K, and
# ``betavariate(a, b)`` is ``y = gammavariate(a, 1.0)``, then
# ``y / (y + gammavariate(b, 1.0))`` unless y is 0.  A shape above 1 runs
# Cheng's (1977) rejection loop on per-arm cached constants (the pulled
# arm's are rewritten in place after a step, as is its posterior mean), a
# shape of 1 is ``-log(1.0 - random())``, and a shape below 1 (only a
# prior) still calls ``gammavariate``.  The scale is 1.0, and ``x * 1.0`` is
# ``x``.
# Any edit here must keep the draw order and every float expression of the
# loop over the public methods; tests/test_kernels.py checks bit-identity
# against that loop, whose policies call the stdlib methods.
#
# Signature: (policy, steps, t_start, l, cap, rng, acc, curves, batch), where
# ``steps`` yields each step's ``(means row, best mean)`` from step
# ``t_start`` on, to the sample-mean kernel with the step's count term as a
# third item, and ``acc`` is the run's :class:`Totals` so far; returns the
# updated :class:`Totals`.  The step number is counted only for the records.


def _bad_compensation(chi: float) -> ValueError:
    return ValueError(f"compensation must be >= 0, got {chi}")


def _bad_reward(r: float) -> ValueError:
    return ValueError(f"reward must be finite and nonnegative, got {r}")


def _mean_segment(pol, steps, t_start, l, cap, rng, acc, curves, batch):
    K = pol.K
    ducb, swucb = type(pol) is DucbPolicy, type(pol) is SwucbPolicy
    eps = type(pol) is EpsGreedyPolicy
    n_obs = pol.t
    cnt, tot = pol.count, pol.total
    if ducb:
        gamma = pol.gamma
        n_disc = pol.disc_total
    elif swucb:
        tau = pol.tau
        window = pol.window
        push, pop = window.append, window.popleft
    if eps:
        getrandbits = rng.getrandbits
        k = K.bit_length()
        rest = range(1, K)
    # SWUCB's window counts are ints, the other counts floats
    zero, one = (0, 1) if swucb else (0.0, 1.0)
    uniform = rng.random
    arms = range(K)
    pseudo, realized, comp_sum, reward_sum = acc
    t = t_start - 1
    if curves is not None:
        app_p = curves.pseudo_regret.append
        app_r = curves.realized_regret.append
        app_c = curves.compensation.append
        app_w = curves.true_reward.append
        records = curves.steps
    try:
        # the arms a (recommended) and g (greedy) are 0-based until a record
        for row, mu_star, c in steps:
            if n_obs < K:
                a = g = n_obs
                chi = delta = 0.0
            else:
                n = cnt[0]
                g, ge = 0, (tot[0] / n if n > zero else 0.0)
                if eps:
                    for i in rest:
                        n = cnt[i]
                        e = tot[i] / n if n > zero else 0.0
                        if e > ge:
                            g, ge = i, e
                    if c >= 1.0 or uniform() < c:
                        # randrange(K): k-bit draws until one is below K
                        a = getrandbits(k)
                        while a >= K:
                            a = getrandbits(k)
                        n = cnt[a]
                        ae = tot[a] / n if n > zero else 0.0
                    else:
                        a, ae = g, ge
                else:
                    a, av, ae = 0, -inf, ge
                    for i in arms:
                        n = cnt[i]
                        if n > zero:
                            e = tot[i] / n
                            v = e + 2.0 * sqrt(c / n) if ducb else e + sqrt(c / n)
                        else:
                            e, v = 0.0, inf
                        if v > av:
                            a, av, ae = i, v, e
                        if e > ge:
                            g, ge = i, e
                if a != g:
                    chi = ge - ae
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = row[a]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            if swucb:
                if len(window) == tau:
                    old_i, old_r = pop()
                    cnt[old_i] -= 1
                    tot[old_i] -= old_r
                push((a, r))
            elif ducb:
                for i in arms:
                    cnt[i] *= gamma
                    tot[i] *= gamma
                n_disc = gamma * n_disc + 1.0
            cnt[a] += one
            tot[a] += r
            n_obs += 1

            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if records is not None:
                    t += 1
                    records.append(StepOutcome(
                        t, batch, a + 1, g + 1, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
        if ducb:
            pol.disc_total = n_disc
    return Totals(pseudo, realized, comp_sum, reward_sum)


def _cheng(s):
    """Cheng's constants ``(s, ainv, bbb, ccc)`` as ``gammavariate(s, 1.0)`` sets them."""
    if s > 1.0:
        ainv = sqrt(2.0 * s - 1.0)
        return s, ainv, s - LOG4, s + ainv
    return s, 0.0, 0.0, 0.0


def _thompson_segment(pol, steps, t_start, l, cap, rng, acc, curves, batch):
    K = pol.K
    alpha, beta = pol.alpha, pol.beta
    n_obs = pol.t
    uniform = rng.random
    gammavariate = rng.gammavariate
    # Per arm: the Cheng constants of alpha and of beta, and the posterior
    # mean; only the pulled arm's entries change after a step.
    ca = [_cheng(s) for s in alpha]
    cb = [_cheng(s) for s in beta]
    mean = [ai / (ai + bi) for ai, bi in zip(alpha, beta)]
    arms = range(K)
    pseudo, realized, comp_sum, reward_sum = acc
    t = t_start - 1
    if curves is not None:
        app_p = curves.pseudo_regret.append
        app_r = curves.realized_regret.append
        app_c = curves.compensation.append
        app_w = curves.true_reward.append
        records = curves.steps
    try:
        # the arms a (recommended) and g (greedy) are 0-based until a record
        for row, mu_star in steps:
            if n_obs < K:
                a = g = n_obs
                chi = delta = 0.0
            else:
                g, ge = 0, mean[0]
                a, av, ae = 0, -inf, ge
                for i in arms:
                    # betavariate(alpha[i], beta[i]): y ~ Gamma(alpha), and
                    # only when y is nonzero a second draw w ~ Gamma(beta).
                    s, ainv, bbb, ccc = ca[i]
                    if s > 1.0:
                        while True:
                            u1 = uniform()
                            if not 1e-7 < u1 < 0.9999999:
                                continue
                            u2 = 1.0 - uniform()
                            v = log(u1 / (1.0 - u1)) / ainv
                            y = s * exp(v)
                            z = u1 * u1 * u2
                            q = bbb + ccc * v - y
                            if q + SG_MAGICCONST - 4.5 * z >= 0.0 or q >= log(z):
                                break
                    elif s == 1.0:
                        y = -log(1.0 - uniform())
                    else:
                        y = gammavariate(s, 1.0)
                    if y:
                        s, ainv, bbb, ccc = cb[i]
                        if s > 1.0:
                            while True:
                                u1 = uniform()
                                if not 1e-7 < u1 < 0.9999999:
                                    continue
                                u2 = 1.0 - uniform()
                                v = log(u1 / (1.0 - u1)) / ainv
                                w = s * exp(v)
                                z = u1 * u1 * u2
                                q = bbb + ccc * v - w
                                if q + SG_MAGICCONST - 4.5 * z >= 0.0 or q >= log(z):
                                    break
                        elif s == 1.0:
                            w = -log(1.0 - uniform())
                        else:
                            w = gammavariate(s, 1.0)
                        v = y / (y + w)
                    else:
                        v = 0.0
                    e = mean[i]
                    if v > av:
                        a, av, ae = i, v, e
                    if e > ge:
                        g, ge = i, e
                if a != g:
                    chi = ge - ae
                    if chi != chi or chi < 0.0:
                        raise _bad_compensation(chi)
                    delta = l * (chi if chi < cap else cap)
                else:
                    chi = delta = 0.0
            mu_a = row[a]
            x = 1.0 if uniform() < mu_a else 0.0
            r = x + delta
            if not 0.0 <= r < inf:
                raise _bad_reward(r)
            # The pulled arm's new shape s is at least 1 (a prior of at most
            # 2**-53 plus 1.0 is exactly 1.0), so sqrt(2s - 1) is defined;
            # the draw tests s, and never reads the constants of a shape of 1.
            if uniform() < (r if r < 1.0 else 1.0):
                alpha[a] = s = alpha[a] + 1.0
                mean[a] = s / (s + beta[a])
                consts = ca
            else:
                beta[a] = s = beta[a] + 1.0
                mean[a] = alpha[a] / (alpha[a] + s)
                consts = cb
            ainv = sqrt(2.0 * s - 1.0)
            consts[a] = s, ainv, s - LOG4, s + ainv
            n_obs += 1

            pseudo += mu_star - mu_a
            realized += mu_star - x
            comp_sum += chi
            reward_sum += x
            if curves is not None:
                app_p(pseudo)
                app_r(realized)
                app_c(comp_sum)
                app_w(reward_sum)
                if records is not None:
                    t += 1
                    records.append(StepOutcome(
                        t, batch, a + 1, g + 1, chi, delta, x, r, pseudo, realized, comp_sum
                    ))
    finally:
        pol.t = n_obs
    return Totals(pseudo, realized, comp_sum, reward_sum)


# policy class -> its kernel, looked up by exact type
_KERNELS = {cls: _mean_segment if issubclass(cls, SampleMeanPolicy) else _thompson_segment
            for cls in _CLASSES.values()}


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
    curves: CurveRecorder | None = None,
) -> Totals:
    """Full-horizon incentivized run (no restarts); returns its totals."""
    return run_segment(policy, env, 1, env.schedule.T, model, rng, curves=curves)
