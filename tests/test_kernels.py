"""Fused step kernels against the reference step loop.

``run_segment`` steps the built-in policies through fused kernels, which
inline the policy and drift methods; ``reference_loop.reference_segment``
calls those methods once per step.  The two must agree bit for bit: totals,
curves, step records, the policy state and the random draws consumed.
"""

import math
import random

import pytest

from driftbandits.env import make_flip_env, make_sinusoidal_env
from driftbandits.harness import tuned_gamma, tuned_tau
from driftbandits.incentive import CurveRecorder, DriftModel, Totals, run_segment
from driftbandits.policy import POLICY_KINDS, PolicyParams, Ucb1Policy, make_policy
from driftbandits.restart import batch_bounds, batch_size
from reference_loop import reference_segment

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


def run(kind, env, sigma, model, seed, segment, mode):
    """Run every restart batch through ``segment``; per-batch policy states."""
    rng = random.Random(seed)
    totals = Totals()
    curves = None if mode == "summary" else CurveRecorder(steps=mode == "steps")
    states = []
    for j, (start, stop) in enumerate(batch_bounds(env.schedule.T, sigma), start=1):
        policy = make_policy(params_for(kind), env.schedule.K)
        totals = segment(policy, env, start, stop, model, rng, totals, curves, j)
        states.append(policy.state_json())
    return totals, curves, states, rng.random()


@pytest.mark.parametrize("mode", ["summary", "curves", "steps"])
@pytest.mark.parametrize("model_name", list(MODELS))
@pytest.mark.parametrize("env_name", list(ENVS))
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_kernel_matches_reference(kind, env_name, model_name, mode):
    env, sigma = ENVS[env_name]
    model = MODELS[model_name]
    fast = run(kind, env, sigma, model, 17, run_segment, mode)
    ref = run(kind, env, sigma, model, 17, reference_segment, mode)
    assert type(fast[0]) is type(ref[0]) is Totals
    assert fast[0] == ref[0]
    assert fast[2] == ref[2]  # policy state after every batch
    assert fast[3] == ref[3]  # same number of draws consumed
    if mode != "summary":
        for name in Totals._fields:
            assert getattr(fast[1], name) == getattr(ref[1], name)
        assert fast[1].steps == ref[1].steps
    if mode == "steps":
        firsts = fast[1].steps[::sigma]  # the first step of every batch
        assert [o.batch for o in firsts] == list(range(1, len(firsts) + 1))
        assert len(fast[1].steps) == T
    assert fast[0].compensation > 0.0  # compensation was paid


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_kernel_resumes_a_reference_run(kind):
    env, _ = ENVS["flip_b3"]
    model = MODELS["saturating"]
    k = 1234
    results = []
    for switch in (None, k):
        rng = random.Random(3)
        policy = make_policy(params_for(kind), 2)
        curves = CurveRecorder()
        if switch is None:
            totals = reference_segment(policy, env, 1, T, model, rng, Totals(), curves)
        else:
            totals = reference_segment(policy, env, 1, k, model, rng, Totals(), curves)
            totals = run_segment(policy, env, k + 1, T, model, rng, totals, curves)
        results.append(
            (totals, curves.compensation, policy.state_json(), rng.random())
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
    for segment in (run_segment, reference_segment):
        policy = ucb1_in_state(count, total)
        rng = random.Random(9)
        with pytest.raises(ValueError, match=message) as info:
            segment(policy, env, 1, T, DriftModel("linear", l), rng)
        outcomes.append((str(info.value), policy.state_json(), rng.random()))
    assert outcomes[0] == outcomes[1]


def test_types_without_a_kernel_are_refused():
    class QuietUcb1(Ucb1Policy):
        def recommend(self, rng):
            return 1

    class NoDrift(DriftModel):
        def apply(self, chi):
            return 0.0

    env, _ = ENVS["flip_b3"]
    ucb1 = make_policy(params_for("ucb1"), 2)
    cases = [
        (QuietUcb1(2), MODELS["linear"], "policy type QuietUcb1"),
        (ucb1, NoDrift("linear", 0.4), "drift type NoDrift"),
    ]
    for policy, model, message in cases:
        fresh = policy.state_json()
        rng = random.Random(1)
        with pytest.raises(TypeError, match=message):
            run_segment(policy, env, 1, T, model, rng)
        assert policy.state_json() == fresh  # refused before any step
        assert rng.random() == random.Random(1).random()
