import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbandits.env import (
    DriftingEnvironment,
    MeanSchedule,
    make_flip_env,
    make_sinusoidal_env,
    mean_at,
    optimal_arm_at,
    sample_reward,
    schedule_from_csv,
    schedule_to_csv,
    variation_of,
)


class TestFlipEnv:
    def test_three_segments_5000(self):
        env = make_flip_env(5000, 3, 0.99, 0.01)
        assert env.breakpoints == (1666, 3333)
        assert env.beta == 2

    def test_single_segment_is_stationary(self):
        env = make_flip_env(5000, 1, 0.99, 0.01)
        assert env.breakpoints == ()
        assert env.beta == 0
        assert variation_of(env) == 0.0

    def test_t12_p4_pattern(self):
        env = make_flip_env(12, 4, 0.9, 0.1)
        assert env.breakpoints == (3, 6, 9)
        arm1 = [mean_at(env, t, 1) for t in range(1, 13)]
        assert arm1 == [0.9] * 3 + [0.1] * 3 + [0.9] * 3 + [0.1] * 3

    @pytest.mark.parametrize(
        "T,p,hi,lo",
        [(100, 0, 0.9, 0.1), (100, -2, 0.9, 0.1), (3, 4, 0.9, 0.1),
         (100, 2, 1.2, 0.1), (100, 2, 0.9, -0.1), (100, 2, 0.5, 0.5),
         (100, 2, 0.1, 0.9)],
    )
    def test_rejects_bad_parameters(self, T, p, hi, lo):
        with pytest.raises(ValueError):
            make_flip_env(T, p, hi, lo)

    def test_variation_identity_exact(self):
        env = make_flip_env(5000, 3, 0.99, 0.01)
        assert variation_of(env) == 2 * (0.99 - 0.01)

    @given(
        T=st.integers(20, 400),
        p=st.integers(1, 9),
        hi=st.floats(0.55, 1.0),
        lo=st.floats(0.0, 0.45),
    )
    @settings(max_examples=60, deadline=None)
    def test_variation_equals_beta_times_gap(self, T, p, hi, lo):
        if T < 2 * p:  # keep breakpoints strictly inside (1, T)
            return
        env = make_flip_env(T, p, hi, lo)
        assert env.beta == p - 1
        assert variation_of(env) == env.beta * (hi - lo)
        assert np.all(env.schedule.means >= 0.0)
        assert np.all(env.schedule.means <= 1.0)


class TestSinusoidalEnv:
    def test_full_horizon_budget_nearly_exhausted(self):
        env = make_sinusoidal_env(5000, 3.0, 0.3, 1.0)
        assert 2.85 <= env.measured_variation <= 3.0

    def test_variation_spent_in_first_third(self):
        env = make_sinusoidal_env(5000, 3.0, 0.3, 1.0 / 3.0)
        m = env.schedule.means
        assert np.all(m[1667:] == m[1666])
        active = MeanSchedule(m[:1667].copy())
        assert variation_of(active) == variation_of(env.schedule)

    def test_zero_budget_is_constant(self):
        env = make_sinusoidal_env(100, 0.0, 0.3, 1.0)
        assert env.measured_variation == 0.0
        assert np.all(env.schedule.means == 0.5)

    def test_rejects_unreachable_budget(self):
        # needed period count V/(4A) falls below a quarter period
        with pytest.raises(ValueError):
            make_sinusoidal_env(5000, 0.2, 0.3, 1.0)

    def test_rejects_inadmissible_budget(self):
        with pytest.raises(ValueError):
            make_sinusoidal_env(10, 8.0, 0.3, 1.0)

    @pytest.mark.parametrize("budget", [1.0, 3.0, 7.5, 12.0, 24.0])
    @pytest.mark.parametrize("rho", [0.25, 1.0 / 3.0, 1.0])
    def test_budget_never_exceeded(self, budget, rho):
        env = make_sinusoidal_env(5000, budget, 0.3, rho)
        assert env.measured_variation <= budget
        assert env.measured_variation >= 0.95 * budget

    def test_antiphase_arms_centered(self):
        env = make_sinusoidal_env(1000, 2.0, 0.4, 1.0)
        m = env.schedule.means
        assert np.allclose(m[:, 0] + m[:, 1], 1.0)
        assert m.min() >= 0.1 - 1e-12 and m.max() <= 0.9 + 1e-12


class TestQueries:
    def test_mean_at_flip_start(self):
        env = make_flip_env(5000, 3, 0.99, 0.01)
        assert mean_at(env, 1, 1) == 0.99
        assert mean_at(env, 1, 2) == 0.01

    def test_optimal_arm_flips_after_breakpoint(self):
        env = make_flip_env(5000, 3, 0.99, 0.01)
        assert optimal_arm_at(env, 1666) == 1
        assert optimal_arm_at(env, 1667) == 2

    def test_tie_breaks_to_lowest_arm(self):
        sched = MeanSchedule.constant([0.5, 0.5], 10)
        assert optimal_arm_at(sched, 1) == 1

    def test_out_of_range_rejected(self):
        env = make_flip_env(100, 2, 0.9, 0.1)
        for t, arm in [(0, 1), (101, 1), (1, 0), (1, 3)]:
            with pytest.raises(ValueError):
                mean_at(env, t, arm)
        with pytest.raises(ValueError):
            optimal_arm_at(env, 0)

    def test_argmax_invariant_under_common_shift(self):
        base = np.random.default_rng(3).uniform(0.05, 0.6, size=(50, 3))
        shifted = base + 0.35
        s1, s2 = MeanSchedule(base), MeanSchedule(shifted)
        for t in range(1, 51):
            assert optimal_arm_at(s1, t) == optimal_arm_at(s2, t)


class TestSampling:
    def test_degenerate_probabilities(self):
        rng = random.Random(0)
        certain = MeanSchedule.constant([1.0, 0.0], 10)
        for t in range(1, 11):
            assert sample_reward(certain, t, 1, rng).value == 1.0
            assert sample_reward(certain, t, 2, rng).value == 0.0

    def test_monte_carlo_mean_half(self):
        # oracle: Bernoulli(0.5) empirical mean over 1e5 draws
        sched = MeanSchedule.constant([0.5, 0.5], 1)
        rng = random.Random(123)
        n = 100_000
        total = sum(sample_reward(sched, 1, 1, rng).value for _ in range(n))
        assert abs(total / n - 0.5) < 0.01

    def test_bit_exact_determinism(self):
        sched = MeanSchedule.constant([0.37, 0.61], 100)
        draws1 = [sample_reward(sched, t, 1 + t % 2, random.Random(t)).value
                  for t in range(1, 101)]
        draws2 = [sample_reward(sched, t, 1 + t % 2, random.Random(t)).value
                  for t in range(1, 101)]
        assert draws1 == draws2


class TestVariation:
    def test_constant_schedule(self):
        assert variation_of(MeanSchedule.constant([0.2, 0.8], 50)) == 0.0

    def test_single_jump(self):
        means = np.full((10, 2), 0.4)
        means[5:, 0] = 0.9
        assert variation_of(MeanSchedule(means)) == 0.5

    def test_cached_value_is_the_exact_sum(self):
        env = make_sinusoidal_env(2000, 3.0, 0.25, 1.0)
        step_sup = np.abs(np.diff(env.schedule.means, axis=0)).max(axis=1)
        exact = math.fsum(step_sup.tolist())
        assert env.schedule._cache["variation"] == exact
        assert variation_of(env) == exact

    def test_budget_invariant_holds_for_generated(self):
        for budget in (1.5, 3.0, 6.0):
            env = make_sinusoidal_env(2000, budget, 0.25, 1.0)
            assert isinstance(env, DriftingEnvironment)
            assert variation_of(env) <= env.budget


class TestScheduleCsv:
    def test_round_trip_exact(self, tmp_path):
        env = make_sinusoidal_env(300, 2.0, 0.3, 0.5)
        path = tmp_path / "sched.csv"
        schedule_to_csv(env, path)
        back = schedule_from_csv(path)
        assert back.T == env.schedule.T and back.K == env.schedule.K
        assert np.array_equal(back.means, env.schedule.means)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,1,0.5\n")
        with pytest.raises(ValueError):
            schedule_from_csv(path)


def test_means_are_read_only():
    env = make_flip_env(100, 2, 0.9, 0.1)
    with pytest.raises(ValueError):
        env.schedule.means[0, 0] = 0.3


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        MeanSchedule(np.array([[0.5, 1.5]]))
    with pytest.raises(ValueError):
        MeanSchedule(np.array([[0.5, np.nan]]))
    with pytest.raises(ValueError):
        MeanSchedule(np.zeros((0, 2)))
