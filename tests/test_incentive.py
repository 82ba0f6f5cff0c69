import math
import random

import numpy as np
import pytest

from driftbandits.env import MeanSchedule, make_flip_env
from driftbandits.incentive import (
    CurveRecorder,
    DriftModel,
    incentive_step,
    run_incentivized,
    run_segment,
)
from driftbandits.policy import PolicyParams, make_policy


class TestDriftApply:
    def test_linear(self):
        assert DriftModel("linear", 0.5).apply(0.2) == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "model",
        [DriftModel("linear", 0.7), DriftModel("saturating", 1.0, cap=0.05)],
    )
    def test_zero_compensation_zero_drift(self, model):
        assert model.apply(0.0) == 0.0

    def test_saturating_caps(self):
        model = DriftModel("saturating", 1.0, cap=0.05)
        assert model.apply(0.2) == pytest.approx(0.05)
        assert model.apply(0.01) == pytest.approx(0.01)

    def test_negative_compensation_rejected(self):
        with pytest.raises(ValueError):
            DriftModel("linear", 0.5).apply(-0.1)

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            DriftModel("linear", -1.0)
        with pytest.raises(ValueError):
            DriftModel("saturating", 1.0, cap=None)
        with pytest.raises(ValueError):
            DriftModel("quadratic", 1.0)
        for l, cap in ((math.inf, None), (math.nan, None), (1.0, math.inf),
                       (1.0, math.nan)):
            with pytest.raises(ValueError):
                DriftModel("saturating" if cap is not None else "linear", l, cap)

    @pytest.mark.parametrize(
        "model",
        [DriftModel("linear", 0.8), DriftModel("saturating", 0.8, cap=0.3)],
    )
    def test_nondecreasing_and_lipschitz_on_grid(self, model):
        grid = [i / 100 for i in range(101)]
        vals = [model.apply(x) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for x, fx in zip(grid, vals):
            for y, fy in zip(grid, vals):
                assert abs(fx - fy) <= model.l * abs(x - y) + 1e-12


def certain_env(T=10):
    return type("E", (), {"schedule": MeanSchedule(np.ones((T, 2)))})()


class TestIncentiveStep:
    def make_disagreeing_policy(self):
        # UCB1 state where the index picks arm 2 but the greedy arm is 1:
        # arm 1 well-sampled at mean .8, arm 2 barely sampled at mean .6
        pol = make_policy(PolicyParams(kind="ucb1"), 2)
        pol.count = [10.0, 1.0]
        pol.total = [8.0, 0.6]
        pol.t = 11
        return pol

    def test_compensated_step_composition(self):
        pol = self.make_disagreeing_policy()
        env = certain_env()
        out = incentive_step(pol, env, 1, DriftModel("linear", 0.5), random.Random(0))
        assert out.recommended == 2
        assert out.greedy == 1
        assert out.compensation == pytest.approx(0.2)
        assert out.drift == pytest.approx(0.1)
        assert out.true_reward == 1.0
        assert out.observed_reward == pytest.approx(1.1)

    def test_biased_feedback_enters_statistics(self):
        pol = self.make_disagreeing_policy()
        env = certain_env()
        incentive_step(pol, env, 1, DriftModel("linear", 0.5), random.Random(0))
        assert pol.total[1] == pytest.approx(0.6 + 1.1)

    def test_agreeing_step_pays_nothing(self):
        pol = make_policy(PolicyParams(kind="ucb1"), 2)
        pol.count = [50.0, 50.0]
        pol.total = [50.0, 5.0]
        pol.t = 100
        env = certain_env()
        out = incentive_step(pol, env, 1, DriftModel("linear", 0.5), random.Random(0))
        assert out.recommended == out.greedy == 1
        assert out.compensation == 0.0
        assert out.observed_reward == out.true_reward

    def test_round_robin_steps_pay_nothing(self):
        pol = make_policy(PolicyParams(kind="ucb1"), 2)
        env = certain_env()
        for t in (1, 2):
            out = incentive_step(pol, env, t, DriftModel("linear", 0.9), random.Random(t))
            assert out.compensation == 0.0
            assert out.drift == 0.0
            assert out.greedy == out.recommended == t


class TestRunInvariants:
    @pytest.mark.parametrize("kind", ["ucb1", "ducb", "swucb", "eps_greedy", "thompson"])
    def test_step_algebra_and_nonnegative_compensation(self, kind):
        env = make_flip_env(800, 2, 0.9, 0.1)
        params = {"ducb": {"gamma": 0.99}, "swucb": {"tau": 60}}.get(kind, {})
        pol = make_policy(PolicyParams(kind=kind, **params), 2)
        model = DriftModel("linear", 0.3)
        curves = CurveRecorder(steps=True)
        run_incentivized(env, pol, model, random.Random(5), curves=curves)
        trace = curves.steps
        assert len(trace) == 800
        for o in trace:
            assert o.compensation >= 0.0
            assert o.observed_reward == o.true_reward + o.drift
            assert o.drift == model.apply(o.compensation)
            if o.recommended == o.greedy:
                assert o.compensation == 0.0 and o.drift == 0.0

    def test_zero_lipschitz_means_unbiased_feedback(self):
        env = make_flip_env(1000, 3, 0.95, 0.05)
        pol = make_policy(PolicyParams(kind="ducb", gamma=0.995), 2)
        curves = CurveRecorder(steps=True)
        run_incentivized(
            env, pol, DriftModel("linear", 0.0), random.Random(11), curves=curves
        )
        trace = curves.steps
        assert all(o.observed_reward == o.true_reward for o in trace)
        assert any(o.compensation > 0 for o in trace)  # payments still occur

    def test_totals_match_trace_sums(self):
        env = make_flip_env(500, 2, 0.9, 0.1)
        pol = make_policy(PolicyParams(kind="swucb", tau=40), 2)
        curves = CurveRecorder(steps=True)
        totals = run_incentivized(
            env, pol, DriftModel("linear", 0.2), random.Random(3), curves=curves
        )
        trace = curves.steps
        assert totals.compensation == pytest.approx(
            sum(o.compensation for o in trace), abs=1e-12
        )
        assert totals.true_reward == pytest.approx(
            sum(o.true_reward for o in trace), abs=1e-12
        )

    def test_segment_bounds_checked(self):
        env = make_flip_env(100, 2, 0.9, 0.1)
        pol = make_policy(PolicyParams(kind="ucb1"), 2)
        with pytest.raises(ValueError):
            run_segment(pol, env, 0, 10, DriftModel(), random.Random(0))
        with pytest.raises(ValueError):
            run_segment(pol, env, 1, 101, DriftModel(), random.Random(0))


class TestDriftBounds:
    def test_ducb_per_step_and_cumulative_bounds(self):
        # every compensated step obeys delta <= l*(c(a) - c(g)); cumulative
        # per-arm drift obeys the discounted bound with the policy's own radii
        env = make_flip_env(2000, 2, 0.99, 0.01)
        l = 0.4
        xi = 0.6
        pol = make_policy(PolicyParams(kind="ducb", gamma=0.999, xi=xi), 2)
        model = DriftModel("linear", l)
        rng = random.Random(21)
        cum_drift = [0.0, 0.0]
        compensated = 0
        for t in range(1, 2001):
            if pol.ready:
                radii = [pol.radius(a) for a in (1, 2)]
            out = incentive_step(pol, env, t, model, rng)
            if out.compensation > 0.0:
                compensated += 1
                gap = radii[out.recommended - 1] - radii[out.greedy - 1]
                assert out.drift <= l * gap + 1e-12
            cum_drift[out.recommended - 1] += out.drift
            for a in (1, 2):
                bound = (
                    2.0 * l * pol.raw_count[a - 1]
                    * math.sqrt(xi * math.log(pol.disc_total))
                )
                assert cum_drift[a - 1] <= bound + 1e-9
        assert compensated > 0

    def test_swucb_per_step_and_cumulative_bounds(self):
        env = make_flip_env(2000, 2, 0.99, 0.01)
        l, xi, tau = 0.4, 0.6, 150
        pol = make_policy(PolicyParams(kind="swucb", tau=tau, xi=xi), 2)
        model = DriftModel("linear", l)
        rng = random.Random(22)
        cum_drift = [0.0, 0.0]
        compensated = 0
        for t in range(1, 2001):
            if pol.ready:
                radii = [pol.radius(a) for a in (1, 2)]
            out = incentive_step(pol, env, t, model, rng)
            if out.compensation > 0.0:
                compensated += 1
                gap = radii[out.recommended - 1] - radii[out.greedy - 1]
                assert out.drift <= l * gap + 1e-12
            cum_drift[out.recommended - 1] += out.drift
            for a in (1, 2):
                bound = (
                    l * pol.raw_count[a - 1]
                    * math.sqrt(xi * math.log(min(pol.t, tau)))
                )
                assert cum_drift[a - 1] <= bound + 1e-9
        assert compensated > 0
