"""The incentivized step loop through the public policy and drift methods.

This is the oracle the fused kernels of ``driftbandits.incentive`` are tested
against: it calls ``recommend``/``greedy_arm``/``estimate``/``observe`` and
``DriftModel.apply`` once per step, so it runs any policy or drift type,
subclasses included.  It takes ``run_segment``'s arguments, returns the same
totals and writes the same curves and step records.  ``rep_order_fold`` is
the oracle of the curve fold.
"""

import numpy as np

from driftbandits.incentive import StepOutcome, Totals


def rep_order_fold(curves):
    """The (2, 4, T) sum and sum of squares of per-rep (4, T) ``curves``,
    added one rep after another from zero."""
    out = np.zeros((2, *np.shape(curves[0])))
    for c in curves:
        out[0] += c
        out[1] += np.square(c)
    return out


def reference_segment(
    policy, env, t_start, t_end, model, rng, totals=Totals(), curves=None, batch=1
) -> Totals:
    sched = env.schedule
    rows = sched.rows
    best = sched.best_mean
    pseudo, realized, comp_sum, reward_sum = totals
    for t in range(t_start, t_end + 1):
        a = policy.recommend(rng)
        if policy.t >= policy.K:
            g = policy.greedy_arm()
            if a != g:
                chi = policy.estimate(g) - policy.estimate(a)
                delta = model.apply(chi)
            else:
                chi = delta = 0.0
        else:
            g = a
            chi = delta = 0.0
        mu_a = rows[t - 1][a - 1]
        x = 1.0 if rng.random() < mu_a else 0.0
        r = x + delta
        policy.observe(a, r, rng)

        mu_star = best[t - 1]
        pseudo += mu_star - mu_a
        realized += mu_star - x
        comp_sum += chi
        reward_sum += x
        if curves is not None:
            curves.pseudo_regret.append(pseudo)
            curves.realized_regret.append(realized)
            curves.compensation.append(comp_sum)
            curves.true_reward.append(reward_sum)
            if curves.steps is not None:
                curves.steps.append(StepOutcome(
                    t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                ))

    return Totals(pseudo, realized, comp_sum, reward_sum)
