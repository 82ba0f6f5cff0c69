import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbandits.policy import (
    POLICY_KINDS,
    PolicyParams,
    make_policy,
)


def params_for(kind, **overrides):
    base = {
        "ucb1": {},
        "ducb": {"gamma": 0.9},
        "swucb": {"tau": 50},
        "eps_greedy": {},
        "thompson": {},
    }[kind]
    base.update(overrides)
    return PolicyParams(kind=kind, **base)


class TestInit:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_first_k_recommendations_are_round_robin(self, kind):
        K = 3
        pol = make_policy(params_for(kind), K)
        rng = random.Random(0)
        seen = []
        for _ in range(K):
            a = pol.recommend(rng)
            seen.append(a)
            pol.observe(a, 1.0, rng)
        assert seen == [1, 2, 3]
        assert pol.ready

    def test_thompson_uniform_prior(self):
        pol = make_policy(PolicyParams(kind="thompson", prior_a=1.0, prior_b=1.0), 3)
        assert pol.alpha == [1.0, 1.0, 1.0]
        assert pol.beta == [1.0, 1.0, 1.0]

    def test_swucb_starts_empty(self):
        pol = make_policy(params_for("swucb", tau=5), 2)
        assert len(pol.window) == 0
        assert pol.win_count == [0, 0]

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_rejects_single_arm(self, kind):
        with pytest.raises(ValueError):
            make_policy(params_for(kind), 1)


class TestParamValidation:
    def test_xi_below_half_rejected(self):
        with pytest.raises(ValueError):
            PolicyParams(kind="ducb", gamma=0.9, xi=0.4)

    def test_xi_exactly_half_allowed(self):
        PolicyParams(kind="ducb", gamma=1.0, xi=0.5)

    @pytest.mark.parametrize(
        "kw",
        [{"gamma": 0.0}, {"gamma": 1.5}, {"tau": 0}, {"tau": 2.5},
         {"eps_c": 0.0}, {"prior_a": 0.0}, {"prior_b": -1.0},
         {"xi": math.nan}, {"xi": math.inf}, {"eps_c": math.nan},
         {"prior_a": math.inf}, {"prior_b": math.inf}, {"prior_a": 1e308}],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            PolicyParams(kind="ducb" if "gamma" in kw else "swucb", **kw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PolicyParams(kind="lin_ucb")


class TestDucb:
    def test_discounted_stats_after_three_pulls(self):
        # gamma=0.5, rewards 1,0,1 on arm 1: N = .25+.5+1, sum = .25+0+1
        pol = make_policy(params_for("ducb", gamma=0.5, xi=0.6), 2)
        for r in (1.0, 0.0, 1.0):
            pol.observe(1, r)
        assert pol.disc_count[0] == pytest.approx(1.75, abs=1e-12)
        assert pol.disc_sum[0] == pytest.approx(1.25, abs=1e-12)
        assert pol.estimate(1) == pytest.approx(1.25 / 1.75, abs=1e-12)

    def test_recommend_prefers_higher_index(self):
        pol = make_policy(params_for("ducb", gamma=0.5, xi=0.6), 2)
        pol.disc_count = [1.75, 1.0]
        pol.disc_sum = [1.25, 0.1]
        pol.disc_total = 2.75
        pol.t = 4
        # oracle: evaluate both upper confidence bounds directly
        n = 2.75
        idx = [
            pol.disc_sum[i] / pol.disc_count[i]
            + 2.0 * math.sqrt(0.6 * math.log(n) / pol.disc_count[i])
            for i in range(2)
        ]
        assert idx[0] > idx[1]
        assert pol.recommend(random.Random(0)) == 1

    def test_unpulled_arm_gets_infinite_index(self):
        pol = make_policy(params_for("ducb", gamma=0.9), 3)
        for arm in (1, 2, 3):
            pol.observe(arm, 1.0)
        pol.disc_count[1] = 0.0  # decayed to nothing
        assert pol.recommend(random.Random(0)) == 2

    @given(
        gamma=st.floats(0.01, 0.999),
        pulls=st.lists(st.tuples(st.integers(1, 3), st.floats(0.0, 1.0)),
                       min_size=1, max_size=200),
    )
    @settings(max_examples=100, deadline=None)
    def test_discounted_total_bound(self, gamma, pulls):
        # n_t(gamma) <= min(t, 1/(1-gamma)) at every step
        pol = make_policy(params_for("ducb", gamma=gamma), 3)
        for t, (arm, reward) in enumerate(pulls, start=1):
            pol.observe(arm, reward)
            bound = min(t, 1.0 / (1.0 - gamma))
            assert pol.disc_total <= bound + 1e-9
            assert pol.disc_total == pytest.approx(sum(pol.disc_count), abs=1e-9)

    def test_incremental_matches_definitional_sum(self):
        gamma, K = 0.93, 2
        pol = make_policy(params_for("ducb", gamma=gamma), K)
        rng = random.Random(7)
        history = []
        for t in range(1, 500):
            arm = rng.randint(1, K)
            reward = rng.random()
            pol.observe(arm, reward)
            history.append((arm, reward))
            if t % 37 == 0:
                for a in range(1, K + 1):
                    n_def = sum(
                        gamma ** (t - s) for s, (aa, _) in enumerate(history, 1) if aa == a
                    )
                    s_def = sum(
                        gamma ** (t - s) * r
                        for s, (aa, r) in enumerate(history, 1)
                        if aa == a
                    )
                    assert abs(pol.disc_count[a - 1] - n_def) < 1e-9
                    assert abs(pol.disc_sum[a - 1] - s_def) < 1e-9


class TestSwucb:
    def test_window_keeps_last_tau(self):
        pol = make_policy(params_for("swucb", tau=2), 2)
        for r in (1.0, 0.0, 1.0):
            pol.observe(1, r)
        assert pol.win_count[0] == 2
        assert pol.estimate(1) == 0.5

    def test_counters_match_window_recomputation(self):
        pol = make_policy(params_for("swucb", tau=7), 3)
        rng = random.Random(5)
        for _ in range(300):
            arm = rng.randint(1, 3)
            pol.observe(arm, float(rng.random() < 0.5))
            for a in range(3):
                items = [r for (i, r) in pol.window if i == a]
                assert pol.win_count[a] == len(items)
                assert pol.win_sum[a] == pytest.approx(sum(items), abs=1e-9)

    def test_window_sums_exact_for_binary_rewards(self):
        pol = make_policy(params_for("swucb", tau=11), 2)
        rng = random.Random(9)
        for _ in range(500):
            arm = rng.randint(1, 2)
            pol.observe(arm, float(rng.random() < 0.3))
        for a in range(2):
            assert pol.win_sum[a] == sum(r for (i, r) in pol.window if i == a)


class TestThompson:
    def test_success_update(self):
        pol = make_policy(params_for("thompson"), 2)
        pol.observe(1, 1.0, random.Random(0))
        assert (pol.alpha[0], pol.beta[0]) == (2.0, 1.0)

    def test_failure_update(self):
        pol = make_policy(params_for("thompson"), 2)
        pol.observe(1, 0.0, random.Random(0))
        assert (pol.alpha[0], pol.beta[0]) == (1.0, 2.0)

    def test_reward_above_one_clipped(self):
        pol = make_policy(params_for("thompson"), 2)
        pol.observe(1, 1.7, random.Random(0))  # clip to 1 -> certain success
        assert (pol.alpha[0], pol.beta[0]) == (2.0, 1.0)

    def test_posterior_counts_track_observations(self):
        pol = make_policy(params_for("thompson"), 3)
        rng = random.Random(3)
        pulls = [rng.randint(1, 3) for _ in range(200)]
        for arm in pulls:
            pol.observe(arm, rng.random(), rng)
        for a in range(1, 4):
            assert pol.alpha[a - 1] + pol.beta[a - 1] - 2.0 == pulls.count(a)

    def test_update_requires_rng(self):
        pol = make_policy(params_for("thompson"), 2)
        with pytest.raises(ValueError):
            pol.observe(1, 1.0)


class TestEpsGreedy:
    def test_full_exploration_is_uniform(self):
        # eps_c large enough that eps_t == 1: empirical frequency 1/K +- 0.01
        K = 4
        pol = make_policy(params_for("eps_greedy", eps_c=10_000.0), K)
        rng = random.Random(42)
        for arm in range(1, K + 1):
            pol.observe(arm, 1.0)
        n = 100_000
        counts = [0] * K
        for _ in range(n):
            counts[pol.recommend(rng) - 1] += 1
        for c in counts:
            assert abs(c / n - 1 / K) < 0.01

    def test_greedy_branch_when_schedule_decayed(self):
        pol = make_policy(params_for("eps_greedy", eps_c=0.001), 2)
        pol.count = [50.0, 50.0]
        pol.total = [45.0, 5.0]
        pol.t = 100
        rng = random.Random(1)
        picks = {pol.recommend(rng) for _ in range(50)}
        assert 1 in picks  # greedy arm dominates at tiny epsilon


class TestGreedyAndEstimates:
    def test_plain_means(self):
        pol = make_policy(params_for("ucb1"), 2)
        pol.count = [10.0, 10.0]
        pol.total = [8.0, 6.0]
        pol.t = 20
        assert pol.greedy_arm() == 1
        assert pol.estimate(1) == 0.8

    def test_ducb_uses_discounted_mean(self):
        pol = make_policy(params_for("ducb", gamma=0.5), 2)
        pol.disc_count = [1.75, 1.0]
        pol.disc_sum = [1.25, 0.1]
        pol.disc_total = 2.75
        pol.t = 4
        assert pol.greedy_arm() == 1

    def test_thompson_posterior_mean(self):
        pol = make_policy(params_for("thompson"), 2)
        pol.alpha = [2.0, 1.0]
        pol.beta = [1.0, 2.0]
        pol.t = 2
        assert pol.greedy_arm() == 1
        assert pol.estimate(1) == pytest.approx(2 / 3)
        assert pol.estimate(2) == pytest.approx(1 / 3)

    def test_tie_breaks_to_lowest(self):
        pol = make_policy(params_for("ucb1"), 3)
        pol.count = [5.0, 5.0, 5.0]
        pol.total = [2.0, 2.0, 1.0]
        pol.t = 15
        assert pol.greedy_arm() == 1

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_greedy_before_init_raises(self, kind):
        pol = make_policy(params_for(kind), 2)
        with pytest.raises(RuntimeError):
            pol.greedy_arm()

    def test_greedy_invariant_under_reward_shift(self):
        shift = 0.25
        base = make_policy(params_for("ucb1"), 3)
        shifted = make_policy(params_for("ucb1"), 3)
        rng = random.Random(17)
        for _ in range(120):
            arm = rng.randint(1, 3)
            r = rng.choice([0.1, 0.4, 0.7])
            base.observe(arm, r)
            shifted.observe(arm, r + shift)
            if base.ready:
                assert base.greedy_arm() == shifted.greedy_arm()


class TestObserveValidation:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_nan_and_negative_rejected(self, kind):
        pol = make_policy(params_for(kind), 2)
        rng = random.Random(0)
        with pytest.raises(ValueError):
            pol.observe(1, float("nan"), rng)
        with pytest.raises(ValueError):
            pol.observe(1, math.inf, rng)
        with pytest.raises(ValueError):
            pol.observe(1, -0.5, rng)
        with pytest.raises(ValueError):
            pol.observe(5, 0.5, rng)


def run_sequence(pol, means, T, seed):
    """Plain bandit loop (no incentives); returns the arm sequence."""
    rng = random.Random(seed)
    arms = []
    for _ in range(T):
        a = pol.recommend(rng)
        r = 1.0 if rng.random() < means[a - 1] else 0.0
        pol.observe(a, r, rng)
        arms.append(a)
    return arms


class TestUcb1Reductions:
    def test_ducb_gamma_one_matches_ucb1(self):
        rng = random.Random(99)
        for _ in range(10):
            K = rng.randint(2, 4)
            means = [rng.random() for _ in range(K)]
            seed = rng.getrandbits(32)
            a1 = run_sequence(make_policy(PolicyParams(kind="ucb1"), K), means, 2000, seed)
            a2 = run_sequence(
                make_policy(PolicyParams(kind="ducb", gamma=1.0, xi=0.5), K),
                means, 2000, seed,
            )
            assert a1 == a2

    def test_swucb_full_window_matches_ucb1(self):
        rng = random.Random(7)
        for _ in range(10):
            K = rng.randint(2, 4)
            means = [rng.random() for _ in range(K)]
            seed = rng.getrandbits(32)
            a1 = run_sequence(make_policy(PolicyParams(kind="ucb1"), K), means, 2000, seed)
            a2 = run_sequence(
                make_policy(PolicyParams(kind="swucb", tau=2000, xi=2.0), K),
                means, 2000, seed,
            )
            assert a1 == a2


class TestStateDump:
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_json_shape_and_field_order(self, kind):
        pol = make_policy(params_for(kind), 2)
        rng = random.Random(0)
        for arm in (1, 2):
            pol.observe(arm, 1.0, rng)
        blob = pol.state_json()
        assert list(json.loads(blob).keys()) == ["kind", "t", "per_arm"]
        d = json.loads(blob)
        assert d["kind"] == kind
        assert d["t"] == 2
        assert len(d["per_arm"]) == 2
