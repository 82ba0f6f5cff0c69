"""Fused step kernels against the reference step loop.

``run_segment`` steps the built-in policies through fused kernels unless a
trace is requested; passing ``trace=[]`` forces the reference loop.  The two
must agree bit for bit: totals, curves and the policy state.
"""

import math
import random

import pytest

from driftbandits.env import make_flip_env, make_sinusoidal_env
from driftbandits.harness import tuned_gamma, tuned_tau
from driftbandits.incentive import CurveRecorder, DriftModel, RunTotals, run_segment
from driftbandits.policy import POLICY_KINDS, PolicyParams, make_policy
from driftbandits.restart import batch_bounds, batch_size

T = 3000


def params_for(kind: str) -> PolicyParams:
    return PolicyParams(
        kind=kind,
        gamma=tuned_gamma(3, T, 15.0) if kind == "ducb" else None,
        tau=tuned_tau(3, T, 1.0) if kind == "swucb" else None,
        eps_c=1.0,
    )


ENVS = {
    "flip_b3": (make_flip_env(T, 4, 0.99, 0.01), T),
    "sinusoidal_restarts": (
        make_sinusoidal_env(T, 6.0, 0.3, 1.0),
        batch_size(T, 6.0, 2, 1.0),
    ),
}
MODELS = {
    "linear": DriftModel("linear", 0.4),
    "saturating": DriftModel("saturating", 0.8, cap=0.05),
}


def run(kind, env, sigma, model, seed, reference, with_curves):
    """Run every restart batch through ``run_segment``; per-batch policy states."""
    rng = random.Random(seed)
    totals = RunTotals()
    curves = CurveRecorder() if with_curves else None
    states = []
    for start, stop in batch_bounds(env.schedule.T, sigma):
        policy = make_policy(params_for(kind), env.schedule.K)
        trace = [] if reference else None
        run_segment(policy, env, start, stop, model, rng, totals, trace, curves)
        states.append(policy.state_json())
    return totals, curves, states, rng.random()


def as_tuple(totals):
    return (totals.pseudo_regret, totals.realized_regret, totals.compensation,
            totals.true_reward)


@pytest.mark.parametrize("with_curves", [False, True], ids=["summary", "curves"])
@pytest.mark.parametrize("model_name", list(MODELS))
@pytest.mark.parametrize("env_name", list(ENVS))
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_kernel_matches_reference(kind, env_name, model_name, with_curves):
    env, sigma = ENVS[env_name]
    model = MODELS[model_name]
    fast = run(kind, env, sigma, model, 17, False, with_curves)
    ref = run(kind, env, sigma, model, 17, True, with_curves)
    assert as_tuple(fast[0]) == as_tuple(ref[0])
    assert fast[2] == ref[2]  # policy state after every batch
    assert fast[3] == ref[3]  # same number of draws consumed
    if with_curves:
        for name in ("cum_pseudo", "cum_realized", "cum_comp", "cum_reward"):
            assert getattr(fast[1], name) == getattr(ref[1], name)
    assert as_tuple(fast[0])[2] > 0.0  # compensation was paid


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_kernel_resumes_a_reference_run(kind):
    env, _ = ENVS["flip_b3"]
    model = MODELS["saturating"]
    k = 1234
    results = []
    for switch in (None, k):
        rng = random.Random(3)
        policy = make_policy(params_for(kind), 2)
        totals = RunTotals()
        curves = CurveRecorder()
        if switch is None:
            run_segment(policy, env, 1, T, model, rng, totals, [], curves)
        else:
            run_segment(policy, env, 1, k, model, rng, totals, [], curves)
            run_segment(policy, env, k + 1, T, model, rng, totals, None, curves)
        results.append(
            (as_tuple(totals), curves.cum_comp, policy.state_json(), rng.random())
        )
    assert results[0] == results[1]


def ucb1_in_state(count, total):
    """A UCB1 policy whose index picks arm 2 while the greedy arm is arm 1."""
    policy = make_policy(PolicyParams(kind="ucb1"), 2)
    policy.count = list(count)
    policy.total = list(total)
    policy.t = int(sum(count))
    return policy


@pytest.mark.parametrize(
    "count, total, l, message",
    [
        ((1.0, 1.0), (math.nan, 0.5), 0.5, "compensation must be"),
        # chi = 1.5, so l * chi overflows to an infinite reward
        ((1000.0, 1.0), (2000.0, 0.5), 1.5e308, "reward must be finite"),
    ],
    ids=["nan_compensation", "infinite_reward"],
)
def test_kernel_raises_what_the_reference_raises(count, total, l, message):
    env, _ = ENVS["flip_b3"]
    outcomes = []
    for trace in (None, []):
        policy = ucb1_in_state(count, total)
        rng = random.Random(9)
        with pytest.raises(ValueError, match=message) as info:
            run_segment(policy, env, 1, T, DriftModel("linear", l), rng, trace=trace)
        outcomes.append((str(info.value), policy.state_json(), rng.random()))
    assert outcomes[0] == outcomes[1]


def test_subclassed_drift_model_is_honoured():
    class NoDrift(DriftModel):
        def apply(self, chi):
            super().apply(chi)
            return 0.0

    env, _ = ENVS["flip_b3"]
    totals = []
    for model in (NoDrift("linear", 0.9), DriftModel("linear", 0.0)):
        policy = make_policy(params_for("ucb1"), 2)
        totals.append(as_tuple(run_segment(policy, env, 1, T, model, random.Random(1))))
    assert totals[0] == totals[1]
