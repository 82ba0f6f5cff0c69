"""The incentivized step loop through the public policy and drift methods.

This is the oracle the fused kernels of ``driftbandits.incentive`` are tested
against: it calls ``recommend``/``greedy_arm``/``estimate``/``observe`` and
``DriftModel.apply`` once per step, so it runs any policy or drift type,
subclasses included.  It takes ``run_segment``'s arguments and writes the
same totals, curves and step records.
"""

from driftbandits.incentive import RunTotals, StepOutcome


def reference_segment(
    policy, env, t_start, t_end, model, rng, totals=None, curves=None, batch=1
) -> RunTotals:
    sched = env.schedule
    if totals is None:
        totals = RunTotals()
    rows = sched.rows
    best = sched.best_mean
    pseudo = totals.pseudo_regret
    realized = totals.realized_regret
    comp_sum = totals.compensation
    reward_sum = totals.true_reward
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
            curves.cum_pseudo.append(pseudo)
            curves.cum_realized.append(realized)
            curves.cum_comp.append(comp_sum)
            curves.cum_reward.append(reward_sum)
            if curves.steps is not None:
                curves.steps.append(StepOutcome(
                    t, batch, a, g, chi, delta, x, r, pseudo, realized, comp_sum
                ))

    totals.pseudo_regret = pseudo
    totals.realized_regret = realized
    totals.compensation = comp_sum
    totals.true_reward = reward_sum
    return totals
