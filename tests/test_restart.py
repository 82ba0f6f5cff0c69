import math
import random

import pytest

from driftbandits.env import make_flip_env, make_sinusoidal_env
from driftbandits.incentive import CurveRecorder, DriftModel, run_incentivized
from driftbandits.policy import PolicyParams, make_policy
from driftbandits.restart import (
    RestartParams,
    batch_bounds,
    batch_size,
    batch_size_exact,
    run_restarting,
)


class TestBatchSize:
    def test_reference_instance(self):
        # (5000/3)^(2/3) * (2 ln 5000)^(1/3) = 361.8...
        assert batch_size(5000, 3.0, 2, 1.0) == 361

    def test_small_instance(self):
        # 2^(2/3) * (2 ln 100)^(1/3) = 3.32...
        assert batch_size(100, 50.0, 2, 1.0) == 3

    def test_lambda_scaling_is_exact_exponent_algebra(self):
        base = batch_size_exact(5000, 3.0, 2, 1.0)
        scaled = batch_size_exact(5000, 3.0, 2, 8.0)
        assert scaled == pytest.approx(4.0 * base, rel=1e-12)

    def test_budget_range_enforced(self):
        with pytest.raises(ValueError):
            batch_size(100, 0.1, 2, 1.0)  # below 1/K
        with pytest.raises(ValueError):
            batch_size(100, 51.0, 2, 1.0)  # above T/K
        batch_size(100, 0.5, 2, 1.0)
        batch_size(100, 50.0, 2, 1.0)

    def test_monotone_in_budget_and_horizon(self):
        budgets = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        sig = [batch_size(2000, v, 2, 1.0) for v in budgets]
        assert all(a >= b for a, b in zip(sig, sig[1:]))
        horizons = [100, 400, 1600, 6400, 25600]
        sig = [batch_size(T, 3.0, 2, 1.0) for T in horizons]
        assert all(a <= b for a, b in zip(sig, sig[1:]))

    def test_clamped_into_horizon(self):
        assert 1 <= batch_size(2, 1.0, 2, 1e-6)
        assert batch_size(10, 0.5, 2, 100.0) <= 10
        assert batch_size(10, 0.5, 2, 1e308) == 10  # the formula value is inf

    def test_restart_params_validated(self):
        with pytest.raises(ValueError):
            RestartParams(sigma=0)
        with pytest.raises(ValueError):
            RestartParams(sigma=10, lam=0.0)


class TestBatchBounds:
    def test_truncated_last_batch(self):
        assert batch_bounds(10, 4) == [(1, 4), (5, 8), (9, 10)]

    def test_single_batch_when_sigma_covers_horizon(self):
        assert batch_bounds(10, 10) == [(1, 10)]
        assert batch_bounds(10, 99) == [(1, 10)]

    @pytest.mark.parametrize("T,sigma", [(10, 4), (100, 7), (5000, 361), (5, 1)])
    def test_disjoint_cover(self, T, sigma):
        bounds = batch_bounds(T, sigma)
        assert len(bounds) == math.ceil(T / sigma)
        steps = [t for lo, hi in bounds for t in range(lo, hi + 1)]
        assert steps == list(range(1, T + 1))


class TestRunRestarting:
    def test_three_batches_three_roundrobins(self):
        env = make_flip_env(10, 2, 0.9, 0.1)
        curves = CurveRecorder(steps=True)
        run_restarting(
            env,
            4,
            PolicyParams(kind="ucb1"),
            DriftModel("linear", 0.1),
            random.Random(0),
            curves=curves,
        )
        trace = curves.steps
        assert [o.batch for o in trace] == [1] * 4 + [2] * 4 + [3] * 2
        # each batch restarts the forced round-robin
        for start in (0, 4, 8):
            assert (trace[start].recommended, trace[start + 1].recommended) == (1, 2)

    def test_sigma_at_horizon_equals_plain_run(self):
        env = make_sinusoidal_env(600, 2.0, 0.3, 1.0)
        model = DriftModel("linear", 0.2)
        params = PolicyParams(kind="swucb", tau=60)

        curves_restart = CurveRecorder(steps=True)
        totals_restart = run_restarting(
            env, 600, params, model,
            random.Random(77), curves=curves_restart,
        )
        curves_plain = CurveRecorder(steps=True)
        totals_plain = run_incentivized(
            env, make_policy(params, 2), model, random.Random(77), curves=curves_plain
        )
        assert totals_restart.pseudo_regret == totals_plain.pseudo_regret
        assert totals_restart.compensation == totals_plain.compensation
        assert curves_restart.steps == curves_plain.steps  # every field, batch 1

    def test_fourteen_batches_at_reference_sigma(self):
        env = make_sinusoidal_env(5000, 3.0, 0.3, 1.0)
        curves = CurveRecorder(steps=True)
        run_restarting(
            env,
            361,
            PolicyParams(kind="ucb1"),
            DriftModel("linear", 0.1),
            random.Random(1),
            curves=curves,
        )
        trace = curves.steps
        assert trace[-1].batch == 14 == math.ceil(5000 / 361)
        starts = [o for o in trace if (o.t - 1) % 361 == 0]
        nexts = [o for o in trace if (o.t - 2) % 361 == 0]
        assert all(o.recommended == 1 for o in starts)
        assert all(o.recommended == 2 for o in nexts)
        # round-robin steps never pay compensation
        assert all(o.compensation == 0.0 for o in starts + nexts)

    def test_restart_wipes_statistics(self):
        env = make_flip_env(20, 2, 0.9, 0.1)
        seen = []
        fresh_dump = repr(vars(make_policy(PolicyParams(kind="ucb1"), 2)))

        from driftbandits import restart as restart_mod

        orig = restart_mod.make_policy

        def spying_factory(params, K):
            pol = orig(params, K)
            assert repr(vars(pol)) == fresh_dump  # every batch starts clean
            seen.append(pol)
            return pol

        restart_mod.make_policy = spying_factory
        try:
            run_restarting(
                env,
                5,
                PolicyParams(kind="ucb1"),
                DriftModel("linear", 0.0),
                random.Random(0),
            )
        finally:
            restart_mod.make_policy = orig
        assert len(seen) == 4
        assert all(pol.t == 5 for pol in seen)  # stats stay batch-local
