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
    variation_of,
)
from driftbandits.incentive import CurveRecorder, DriftModel, run_segment
from driftbandits.policy import PolicyParams, make_policy


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
        arm1 = [row[0] for row in env.schedule.rows]
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

    def test_rejects_unspendable_budget(self):
        # an arm moves at most 2 * amplitude per step; a denormal amplitude
        # once overflowed the half-cycle count
        for amplitude in (1e-3, 5e-324):
            with pytest.raises(ValueError, match="unreachable"):
                make_sinusoidal_env(60, 3.0, amplitude, 1.0)

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
        assert env.schedule.rows[0] == (0.99, 0.01)

    def test_optimal_arm_flips_after_breakpoint(self):
        env = make_flip_env(5000, 3, 0.99, 0.01)
        assert env.schedule.rows[1666 - 1] == (0.99, 0.01)
        assert env.schedule.rows[1667 - 1] == (0.01, 0.99)


def step_records(sched, seed):
    """Run eps-greedy over the schedule; the step records of every draw."""
    env = type("E", (), {"schedule": sched})()
    curves = CurveRecorder(steps=True)
    policy = make_policy(PolicyParams(kind="eps_greedy"), sched.K)
    run_segment(policy, env, 1, sched.T, DriftModel(), random.Random(seed),
                curves=curves)
    return curves.steps


class TestSampling:
    """The Bernoulli reward the step engine draws from a schedule."""

    def test_degenerate_probabilities(self):
        sched = MeanSchedule(np.tile([1.0, 0.0], (200, 1)))
        steps = step_records(sched, 0)
        assert {o.recommended for o in steps} == {1, 2}
        for o in steps:
            assert o.true_reward == (1.0 if o.recommended == 1 else 0.0)

    def test_monte_carlo_mean_half(self):
        # oracle: Bernoulli(0.5) empirical mean over 1e5 draws
        n = 100_000
        steps = step_records(MeanSchedule(np.full((n, 2), 0.5)), 123)
        assert abs(sum(o.true_reward for o in steps) / n - 0.5) < 0.01

    def test_bit_exact_determinism(self):
        sched = MeanSchedule(np.tile([0.37, 0.61], (100, 1)))
        draws1 = [o.true_reward for o in step_records(sched, 7)]
        draws2 = [o.true_reward for o in step_records(sched, 7)]
        assert draws1 == draws2


class TestVariation:
    def test_constant_schedule(self):
        assert variation_of(MeanSchedule(np.tile([0.2, 0.8], (50, 1)))) == 0.0

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
