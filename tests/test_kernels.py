"""Fused step kernels against the reference step loop, and the lockstep
block engine against the kernels.

``run_segment`` steps the built-in policies through fused kernels, which
inline the policy and drift methods; ``reference_loop.reference_segment``
calls those methods once per step.  The two must agree bit for bit: totals,
curves, step records, the policy state and the random draws consumed.
``run_block`` steps many replications of a UCB-family or eps-greedy config
at once and must give every replication the kernels' totals and curves, bit
for bit, and leave every stream where the kernels leave it.
"""

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest

import driftbandits.incentive as incentive
import driftbandits.lockstep as lockstep
from driftbandits.env import Environment, MeanSchedule, make_flip_env, make_sinusoidal_env
from driftbandits.harness import tuned_gamma, tuned_tau
from driftbandits.incentive import CurveRecorder, DriftModel, Totals, run_segment
from driftbandits.lockstep import LANE_BYTES, LOCKSTEP_KINDS, _doubles, capacity, run_block
from driftbandits.policy import (
    POLICY_KINDS,
    PolicyParams,
    ThompsonPolicy,
    Ucb1Policy,
    make_policy,
)
from driftbandits.restart import batch_bounds, batch_size
from driftbandits.seeding import make_rng
from reference_loop import reference_segment, rep_order_fold

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


def run(params, env, sigma, model, seed, segment, mode):
    """Run every restart batch through ``segment``; per-batch policy states."""
    rng = random.Random(seed)
    totals = Totals()
    curves = None if mode == "summary" else CurveRecorder(steps=mode == "steps")
    states = []
    for j, (start, stop) in enumerate(batch_bounds(env.schedule.T, sigma), start=1):
        policy = make_policy(params, env.schedule.K)
        totals = segment(policy, env, start, stop, model, rng, totals, curves, j)
        states.append(repr(vars(policy)))
    return totals, curves, states, rng.random()


@pytest.mark.parametrize("mode", ["summary", "curves", "steps"])
@pytest.mark.parametrize("model_name", list(MODELS))
@pytest.mark.parametrize("env_name", list(ENVS))
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_kernel_matches_reference(kind, env_name, model_name, mode):
    env, sigma = ENVS[env_name]
    model = MODELS[model_name]
    fast = run(params_for(kind), env, sigma, model, 17, run_segment, mode)
    ref = run(params_for(kind), env, sigma, model, 17, reference_segment, mode)
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
            (totals, curves.compensation, repr(vars(policy)), rng.random())
        )
    assert results[0] == results[1]


def ducb_in_state(t, disc_total):
    """The DUCB state of tests/test_policy.py at gamma = 0.5 and count ``t``,
    with a hand-set ``disc_total`` (at t = 4 the gamma-recursion gives 1.875)."""
    policy = make_policy(PolicyParams(kind="ducb", gamma=0.5), 2)
    if t:
        policy.count = [1.75, 1.0]
        policy.total = [1.25, 0.1]
    policy.disc_total = disc_total
    policy.t = t
    return policy


def ucb1_pinned():
    """A two-arm UCB1 at t = 2 * 10**12 whose index keeps to arm 1, as
    tests/test_harness.py's ``ucb1_pinned_to(1)``."""
    policy = make_policy(PolicyParams(kind="ucb1"), 2)
    policy.count = [1e12, 1e12]
    policy.total = [1e12, 0.0]
    policy.t = 2 * 10**12
    return policy


def eps_greedy_in_state(t):
    """A two-arm eps-greedy at count ``t``, 1 (inside its round-robin) or 7,
    where its explore probability 2 / t is below 1 and the test is drawn."""
    policy = make_policy(params_for("eps_greedy"), 2)
    policy.count = [4.0, 3.0] if t == 7 else [1.0, 0.0]
    policy.total = [2.5, 1.0] if t == 7 else [1.0, 0.0]
    policy.t = t
    return policy


def thompson_in_state(alpha, beta):
    """A two-arm Thompson past its round-robin, with arm 1's posterior hand-set."""
    policy = make_policy(PolicyParams(kind="thompson"), 2)
    policy.alpha = [alpha, 2.0]
    policy.beta = [beta, 2.0]
    policy.t = 2
    return policy


# random.Random(0)'s double number 912,565 (0-based) is 6.08e-8, outside the
# (1e-7, 1 - 1e-7) interval Cheng's gamma draw keeps.  A double falls outside
# it with probability 2e-7, too rarely for a seeded run to rely on, so a
# Thompson state here starts its stream where its first Cheng draw takes it.
REJECTED_DOUBLE = 912_565


def stream_at(n):
    """``random.Random(0)`` with its first ``n`` doubles skipped."""
    rng = random.Random(0)
    rng.getrandbits(64 * n)  # two 32-bit words, as random() takes
    return rng


HAND_SET = {
    "ducb_off_the_recursion": lambda: ducb_in_state(4, 2.75),
    "ducb_fresh_count_with_a_total": lambda: ducb_in_state(0, 1e6),
    # the policy's log(-1.0) raises at the first index; the kernel raises too
    "ducb_negative_total": lambda: ducb_in_state(4, -1.0),
    "ucb1_at_t_2e12": ucb1_pinned,
    "eps_greedy_past_the_round_robin": lambda: eps_greedy_in_state(7),
    "eps_greedy_inside_the_round_robin": lambda: eps_greedy_in_state(1),
    # arm 1's alpha draw (shape 2) rejects its first u1
    "thompson_alpha_draw_rejects": lambda: thompson_in_state(2.0, 1.0),
    # arm 1's shape-1 alpha draw takes one double, then its beta draw rejects
    "thompson_beta_draw_rejects": lambda: thompson_in_state(1.0, 3.0),
}
CHENG_REJECTS = {"thompson_alpha_draw_rejects": REJECTED_DOUBLE,
                 "thompson_beta_draw_rejects": REJECTED_DOUBLE - 1}


@pytest.mark.parametrize("state", list(HAND_SET))
def test_kernel_matches_reference_from_a_hand_set_state(state):
    env, _ = ENVS["flip_b3"]
    start = CHENG_REJECTS.get(state)
    if start is not None:  # the case still reaches Cheng's rejection branch
        assert not 1e-7 < stream_at(REJECTED_DOUBLE).random() < 0.9999999
    outcomes = []
    for segment in (run_segment, reference_segment):
        policy = HAND_SET[state]()
        rng = random.Random(5) if start is None else stream_at(start)
        curves = CurveRecorder(steps=True)
        try:
            out = segment(policy, env, 1, T, MODELS["linear"], rng, Totals(), curves)
        except ValueError as exc:
            out = str(exc)
        outcomes.append((out, curves.steps, repr(vars(policy)), rng.random()))
    assert outcomes[0] == outcomes[1]
    assert (type(outcomes[0][0]) is str) == (state == "ducb_negative_total")


def test_one_count_term_table_serves_every_state():
    env, sigma = ENVS["sinusoidal_restarts"]
    params = params_for("eps_greedy")  # eps_c * K = 2.0
    fresh = [2.0 / k if k >= 2 else -1.0 for k in range(T)]
    run_block(params, env, MODELS["linear"], [random.Random(1)], T)
    held = incentive._held
    assert held[1] == fresh
    for batch in (T, sigma):  # the kernel reads the block's table; restart batches a prefix
        run(params, env, batch, MODELS["linear"], 1, run_segment, "summary")
        assert incentive._held is held
    # a hand-set count needs its own counts' table, which replaces the held one
    run_segment(eps_greedy_in_state(7), env, 1, 10, MODELS["linear"], random.Random(1))
    assert incentive._held[1] == fresh[7:17]
    run(params, env, sigma, MODELS["linear"], 1, run_segment, "summary")
    assert incentive._held[1] == fresh[:sigma]  # a fresh run rebuilds a batch's table
    run(params_for("swucb"), env, sigma, MODELS["linear"], 1, run_segment, "summary")
    assert incentive._held[0][0] == "swucb"  # one table at a time
    assert len(incentive._held[1]) == sigma


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
        outcomes.append((str(info.value), repr(vars(policy)), rng.random()))
    assert outcomes[0] == outcomes[1]


def test_types_without_a_kernel_are_refused():
    class QuietUcb1(Ucb1Policy):
        def recommend(self, rng):
            return 1

    class NoDrift(DriftModel):
        def apply(self, chi):
            return 0.0

    class OwnRandom(random.Random):  # randrange stops using getrandbits
        def random(self):
            return super().random()

    class OwnBeta(random.Random):
        def betavariate(self, alpha, beta):
            return 0.5

    env, _ = ENVS["flip_b3"]
    ucb1 = make_policy(params_for("ucb1"), 2)
    cases = [
        (QuietUcb1(2), MODELS["linear"], random.Random, "policy type QuietUcb1"),
        (ucb1, NoDrift("linear", 0.4), random.Random, "drift type NoDrift"),
        (make_policy(params_for("eps_greedy"), 2), MODELS["linear"], OwnRandom,
         "rng type OwnRandom"),
        (make_policy(params_for("thompson"), 2), MODELS["linear"], OwnBeta,
         "rng type OwnBeta"),
    ]
    for policy, model, rng_type, message in cases:
        fresh = repr(vars(policy))
        rng = rng_type(1)
        with pytest.raises(TypeError, match=message):
            run_segment(policy, env, 1, T, model, rng)
        assert repr(vars(policy)) == fresh  # refused before any step
        assert rng.getstate() == random.Random(1).getstate()


# ---------------------------------------------------------------------------
# The inlined stdlib draws against the stdlib methods the oracle calls.


def assert_kernel_matches_reference(params, env, sigma, model, seed):
    fast = run(params, env, sigma, model, seed, run_segment, "steps")
    ref = run(params, env, sigma, model, seed, reference_segment, "steps")
    assert fast[0] == ref[0]
    assert fast[1].steps == ref[1].steps
    assert fast[2] == ref[2]  # policy state after every batch
    assert fast[3] == ref[3]  # then the same next draw


def multi_arm_env(K: int) -> Environment:
    """Means drifting at a different speed on each of ``K`` arms."""
    t = np.arange(1, T + 1)[:, None] / T
    means = 0.5 + 0.4 * np.sin(2.0 * math.pi * t * np.arange(1, K + 1))
    return Environment(MeanSchedule(means))


PRIORS = {
    "below_one": (0.3, 0.7),
    "below_and_above_one": (0.5, 2.5),
    "one_and_above_one": (1.0, 2.5),
    # 1e-20 + 1.0 == 1.0: an arm's first success or failure gives a shape
    # of exactly 1, which must still draw as a shape of 1, not by Cheng
    "updated_to_one": (1e-20, 1e-20),
    "non_integer": (1.7, 3.2),
    "large": (1e6, 3.7),
    "limit": (1e300, 1e300),
}


@pytest.mark.parametrize("sigma", [T, 90], ids=["one_batch", "restarts"])
@pytest.mark.parametrize("prior", list(PRIORS))
def test_thompson_kernel_matches_betavariate(prior, sigma):
    prior_a, prior_b = PRIORS[prior]
    params = PolicyParams(kind="thompson", prior_a=prior_a, prior_b=prior_b)
    env, _ = ENVS["sinusoidal_restarts"]
    assert_kernel_matches_reference(params, env, sigma, MODELS["linear"], 23)


@pytest.mark.parametrize("K", [3, 5, 8])
@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_kernel_matches_reference_on_more_arms(kind, K):
    # eps_c = 20 explores on most steps: many randrange draws, and at these K
    # getrandbits rejects a different share of them than at K = 2
    params = dataclasses.replace(params_for(kind), eps_c=20.0, prior_a=0.8, prior_b=1.5)
    assert_kernel_matches_reference(params, multi_arm_env(K), 250, MODELS["saturating"], 29)


def eps_greedy_edge(eps_c: float, K: int, eps: float):
    """An eps-greedy case at ``eps_c`` on K arms, reaching ``eps_c * K / n == eps``."""
    return PolicyParams(kind="eps_greedy", eps_c=eps_c), K, lambda p: p.eps_c * p.K / p.t == eps


# (params, K, a predicate on the policy that some step reaches)
EDGES = {
    # gamma = 1e-200 sends an arm's discounted count to 0.0 after two steps
    # without a pull
    "ducb_count_underflows_to_zero": (PolicyParams(kind="ducb", gamma=1e-200), 2,
                                      lambda p: 0.0 in p.count),
    "swucb_arm_leaves_the_window": (PolicyParams(kind="swucb", tau=3), 2,
                                    lambda p: 0 in p.count),
    # eps_c * K overflows to inf: every step after the round-robin explores,
    # with no explore draw
    **{f"eps_greedy_eps_inf-K{K}": eps_greedy_edge(1e308, K, math.inf) for K in (2, 3)},
    # eps rounds to 0.0: the explore uniform is drawn and never passes
    **{f"eps_greedy_eps_zero-K{K}": eps_greedy_edge(5e-324, K, 0.0) for K in (2, 3)},
}


@pytest.mark.parametrize("edge", list(EDGES))
def test_kernel_matches_reference_at_an_edge(edge):
    params, K, reached = EDGES[edge]
    env = ENVS["flip_b3"][0] if K == 2 else multi_arm_env(K)
    assert any(states_seen(params, env, 17, reached))
    assert_kernel_matches_reference(params, env, T, MODELS["linear"], 17)


def test_thompson_kernel_skips_the_beta_draw_after_a_zero_gamma():
    # MT19937 tempering maps a zero word to zero, so a state whose next two
    # words are 0 makes random() return exactly 0.0: Gamma(1) is then -0.0,
    # and betavariate returns 0.0 without drawing Gamma(beta).
    words = list(random.Random(5).getstate()[1])
    words[100] = words[101] = 0
    words[-1] = 100  # the index of the next word
    state = (3, tuple(words), None)
    probe = random.Random()
    probe.setstate(state)
    assert probe.betavariate(1.0, 2.0) == 0.0
    after_one = random.Random()
    after_one.setstate(state)
    assert after_one.random() == 0.0
    assert probe.getstate() == after_one.getstate()  # no second draw

    env, _ = ENVS["flip_b3"]
    outcomes = []
    for segment in (run_segment, reference_segment):
        policy = ThompsonPolicy(2, PolicyParams(kind="thompson"))
        policy.alpha, policy.beta, policy.t = [1.0, 3.0], [2.0, 2.0], 2
        rng = random.Random()
        rng.setstate(state)
        recorder = CurveRecorder(steps=True)
        segment(policy, env, 3, 40, MODELS["linear"], rng, Totals(), recorder)
        outcomes.append((recorder.steps, repr(vars(policy)), rng.random()))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# The lockstep block engine against the kernels, rep by rep.

BLOCK_SEEDS = (17, 18, 19, 20, 21)
SIGMAS = {"one_batch": T, "restarts": ENVS["sinusoidal_restarts"][1]}


def kernel_reps(params, env, sigma, model, seeds, curves):
    """Each seed's run on the kernels: its totals, its curve recorder and the
    next double its stream draws after the run."""
    mode = "curves" if curves else "summary"
    runs = (run(params, env, sigma, model, seed, run_segment, mode) for seed in seeds)
    return [(totals, recorder, after) for totals, recorder, _, after in runs]


def assert_block_matches_kernels(params, env, sigma, model, seeds, curves):
    """The block's totals are each rep's kernel totals; its folded curves are
    the rep-order fold of the kernel curves, and a 1-rep block's are that
    rep's kernel curves, every point.  Each stream is left where the kernels
    leave it: its next double is theirs."""
    rngs = [random.Random(seed) for seed in seeds]
    totals, block_curves = run_block(params, env, model, rngs, sigma, curves)
    kernel_curves = []
    for i, (ref, recorder, after) in enumerate(kernel_reps(params, env, sigma, model, seeds,
                                                           curves)):
        assert tuple(totals[:, i].tolist()) == ref
        assert rngs[i].random() == after
        if curves:
            kernel_curves.append(np.array([getattr(recorder, name) for name in Totals._fields]))
            _, one = run_block(params, env, model, [random.Random(seeds[i])], sigma, True)
            assert one[0].tolist() == kernel_curves[-1].tolist()
    if curves:
        assert block_curves.tolist() == rep_order_fold(kernel_curves).tolist()
    else:
        assert block_curves is None
    return totals


def assert_draws_continue(rngs, sizes):
    """``_doubles`` over ``sizes`` gives each stream's next ``random()``
    doubles and leaves the stream just past them."""
    refs = [random.Random() for _ in rngs]
    for ref, rng in zip(refs, rngs):
        ref.setstate(rng.getstate())
    drawn = np.concatenate([_doubles(rngs, n) for n in sizes], axis=1)
    assert drawn.tolist() == [[ref.random() for _ in range(sum(sizes))] for ref in refs]
    assert [rng.getstate() for rng in rngs] == [ref.getstate() for ref in refs]


def advanced(rng, words):
    for _ in range(words):
        rng.getrandbits(32)
    return rng


@pytest.mark.parametrize("rep", [0, 1, 2, 63, 10**6])
def test_loaded_stream_continues_random(rep):
    # 10,000 doubles across twist boundaries, also from odd word positions
    rng = advanced(make_rng(20240601, rep), rep % 3)
    assert_draws_continue([rng], (1, 311, 312, 313, 624, 2000, 6439))


@pytest.mark.parametrize("words", [0, 1, 623, 624, 625])
def test_streams_draw_every_stream_at_once(words):
    assert_draws_continue([advanced(make_rng(7, rep), words) for rep in range(6)],
                          (5, 700, 295))


def test_streams_at_different_positions_draw_their_own_doubles():
    words = (0, 1, 311, 624, 625, 1249)
    assert_draws_continue([advanced(make_rng(7, rep), w) for rep, w in enumerate(words)],
                          (5, 700, 295))


@pytest.mark.parametrize("curves", [False, True], ids=["summary", "curves"])
@pytest.mark.parametrize("restart", list(SIGMAS))
@pytest.mark.parametrize("model_name", list(MODELS))
@pytest.mark.parametrize("env_name", list(ENVS))
@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_block_matches_the_kernels(kind, env_name, model_name, restart, curves):
    env, _ = ENVS[env_name]
    totals = assert_block_matches_kernels(
        params_for(kind), env, SIGMAS[restart], MODELS[model_name], BLOCK_SEEDS, curves
    )
    assert (totals[2] > 0.0).all()  # compensation was paid in every rep


def states_seen(params, env, seed, state):
    """``state(policy)`` after every post-round-robin step of one kernel run."""
    rng = random.Random(seed)
    policy = make_policy(params, env.schedule.K)
    totals, seen = Totals(), []
    for t in range(1, env.schedule.T + 1):
        totals = run_segment(policy, env, t, t, MODELS["linear"], rng, totals)
        if policy.ready:
            seen.append(state(policy))
    return seen


@pytest.mark.parametrize("K", [3, 5, 8])
@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_block_matches_the_kernels_on_more_arms(kind, K):
    # eps_c = 20 explores on most steps of a 250-step batch: many randrange
    # draws, and at these K getrandbits rejects a different share of them
    params = dataclasses.replace(params_for(kind), eps_c=20.0)
    for sigma, curves in ((T, False), (250, True)):
        assert_block_matches_kernels(params, multi_arm_env(K), sigma, MODELS["saturating"],
                                     BLOCK_SEEDS, curves)


@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_block_draws_across_chunks(kind):
    # 40 reps without restarts step 2^14 // 40 = 409 steps a chunk, so each
    # stream is drawn, stepped and summed over 8 chunks, the last one shorter
    env, _ = ENVS["flip_b3"]
    assert_block_matches_kernels(params_for(kind), env, T, MODELS["linear"],
                                 tuple(range(40)), True)


@pytest.mark.parametrize("curves", [False, True], ids=["summary", "curves"])
@pytest.mark.parametrize("kind", LOCKSTEP_KINDS)
def test_restart_block_draws_and_sums_across_chunks(kind, curves, monkeypatch):
    # a cap of 900 lane-steps per rep cuts a 5-rep restart block of T = 3000
    # into at least 4 chunks of draws and of sums, whatever the T / 16 rule does
    env, sigma = ENVS["sinusoidal_restarts"]
    monkeypatch.setattr(lockstep, "_CHUNK_DOUBLES", 900 * len(BLOCK_SEEDS))
    chunks = []  # the streams drawn for, per chunk
    for name in ("_doubles", "_eps_draws"):
        def spy(rngs, *args, real=getattr(lockstep, name)):
            chunks.append(len(rngs))
            return real(rngs, *args)

        monkeypatch.setattr(lockstep, name, spy)
    assert_block_matches_kernels(params_for(kind), env, sigma, MODELS["linear"], BLOCK_SEEDS,
                                 curves)
    assert chunks.count(len(BLOCK_SEEDS)) >= 3


def test_block_matches_a_ducb_count_underflowing_to_zero():
    # gamma = 1e-200 sends an arm's discounted count to 0.0 after two steps
    # without a pull: the kernels' ``n > 0.0`` branch.
    params = PolicyParams(kind="ducb", gamma=1e-200)
    env, _ = ENVS["flip_b3"]
    assert any(states_seen(params, env, 17, lambda p: 0.0 in p.count))
    assert_block_matches_kernels(params, env, T, MODELS["linear"], BLOCK_SEEDS, True)


def test_block_matches_a_swucb_arm_that_left_the_window():
    params = PolicyParams(kind="swucb", tau=3)
    env, _ = ENVS["flip_b3"]
    assert any(states_seen(params, env, 17, lambda p: 0 in p.count))
    assert_block_matches_kernels(params, env, T, MODELS["saturating"], BLOCK_SEEDS, True)


@pytest.mark.parametrize("sigma", [T, 7], ids=["one_batch", "restarts"])
@pytest.mark.parametrize("tau", [1, 2])
def test_block_matches_a_swucb_window_shorter_than_the_round_robin(tau, sigma):
    # on 3 arms, pulls leave the window before every arm has been pulled once
    assert_block_matches_kernels(PolicyParams(kind="swucb", tau=tau), multi_arm_env(3), sigma,
                                 MODELS["linear"], BLOCK_SEEDS, True)


def test_block_matches_a_swucb_window_longer_than_the_run():
    params = PolicyParams(kind="swucb", tau=10**12)
    env, _ = ENVS["flip_b3"]
    assert_block_matches_kernels(params, env, T, MODELS["linear"], BLOCK_SEEDS, False)


# Restart batches as lanes, at 1 to 8 reps: (params, sigma, drift model, curves).
LANE_CASES = {
    "every_lane_round_robin": (params_for("ucb1"), 1, "linear", True),
    "sigma_K": (params_for("ducb"), 2, "saturating", False),
    "one_step_last_batch": (params_for("swucb"), T - 1, "linear", True),
    "T_not_a_multiple_of_sigma": (params_for("ucb1"), 7, "saturating", True),
    "ducb_count_underflows_in_a_batch": (PolicyParams(kind="ducb", gamma=1e-200), 60,
                                         "linear", True),
    "swucb_window_longer_than_a_batch": (PolicyParams(kind="swucb", tau=400), 90,
                                         "saturating", False),
    "swucb_window_shorter_than_a_batch": (PolicyParams(kind="swucb", tau=3), 90,
                                          "linear", True),
    # eps = 100 * 2 / n >= 1 at every local step n < 90: no explore test,
    # a randrange on every step after the round-robin
    "eps_greedy_always_explores": (PolicyParams(kind="eps_greedy", eps_c=100.0), 90,
                                   "saturating", True),
    # eps = 0.01 * 2 / n: an explore test on every step, and few explore
    "eps_greedy_rarely_explores": (PolicyParams(kind="eps_greedy", eps_c=0.01), 400,
                                   "linear", False),
    "eps_greedy_T_not_a_multiple_of_sigma": (params_for("eps_greedy"), 7, "linear", True),
}


@pytest.mark.parametrize("reps", [1, 3, 8])
@pytest.mark.parametrize("case", list(LANE_CASES))
def test_lane_block_matches_the_kernels(case, reps):
    params, sigma, model_name, curves = LANE_CASES[case]
    env, _ = ENVS["sinusoidal_restarts"]
    assert_block_matches_kernels(params, env, sigma, MODELS[model_name], BLOCK_SEEDS[:reps],
                                 curves)


def test_lane_block_meets_a_ducb_count_underflowing_inside_a_batch():
    params = PolicyParams(kind="ducb", gamma=1e-200)
    env, _ = ENVS["sinusoidal_restarts"]
    batch = list(batch_bounds(T, 60))[1]
    rng = random.Random(17)
    for _ in range(batch[0] - 1):  # batch 2 reads the stream from its first step
        rng.random()
    policy = make_policy(params, env.schedule.K)
    counts = []
    for t in range(batch[0], batch[1] + 1):
        run_segment(policy, env, t, t, MODELS["linear"], rng)
        counts.append(list(policy.count))
    assert any(0.0 in c for c in counts)


def test_lane_block_memory_is_bounded_by_its_stored_outputs():
    # the drift-restart UCB1 cell: 8 reps of 27 batches at T = 5000
    env = make_sinusoidal_env(5000, 24.0, 0.3, 1.0)
    params = PolicyParams(kind="ucb1")
    sigma = batch_size(5000, 24.0, 2, 3.0)
    run_block(params, env, MODELS["linear"], [make_rng(20240601, rep) for rep in range(8)],
              sigma)  # warm caches
    rngs = [make_rng(20240601, rep) for rep in range(8)]  # fresh streams
    tracemalloc.start()
    try:
        run_block(params, env, MODELS["linear"], rngs, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = 8 * 27 * sigma * (2 + 1 + 8)  # K wins, the arm and its compensation
    assert capacity(params, 5000, 2, sigma) == (1, LANE_BYTES // (stored // 8))
    assert stored < peak <= 2**20


def test_block_reports_a_failed_step_check():
    # l = 1e300 overflows a drifted reward to inf, which the kernels refuse
    env, _ = ENVS["flip_b3"]
    model = DriftModel("linear", 1e300)
    params = params_for("swucb")
    with pytest.raises(ValueError, match="reward must be finite"):
        kernel_reps(params, env, T, model, BLOCK_SEEDS[:1], False)
    rngs = [random.Random(seed) for seed in BLOCK_SEEDS]
    assert run_block(params, env, model, rngs, T) is None
