import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import pickle
import tracemalloc
import weakref
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import driftbandits.harness as harness
import driftbandits.lockstep as lockstep
from driftbandits.harness import (
    _SCHEMA,
    CURVE_BLOCK,
    DEFAULT_SEED,
    LOCKSTEP_SIZES,
    ConfigError,
    EnvSpec,
    ExperimentConfig,
    TRACE_HEADER,
    build_env,
    fit_loglog,
    flip_config,
    preset_policy,
    run_experiment,
    run_experiments,
    run_replication,
    scaling_probe,
    sinusoidal_config,
    sweep,
    tuned_gamma,
    tuned_tau,
    write_summary_json,
)
from driftbandits.incentive import DriftModel, run_segment
from driftbandits.lockstep import (
    LANE_BYTES,
    LOCKSTEP_KINDS,
    LOCKSTEP_MIN,
    capacity,
)
from driftbandits.policy import POLICY_KINDS, PolicyParams, Ucb1Policy
from driftbandits.restart import RestartParams
from driftbandits.seeding import make_rng, rep_seed
from reference_loop import rep_order_fold


def small_config(**overrides):
    base = dict(
        env=EnvSpec(kind="flip", T=300, segments=2, hi=0.9, lo=0.1),
        policy=PolicyParams(kind="ducb", gamma_c=15.0),
        drift=DriftModel("linear", 0.2),
        restart=None,
        reps=6,
        base_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def ucb1_pinned_to(arm):
    """A two-arm UCB1 whose statistics make it recommend ``arm`` for a long time."""
    policy = Ucb1Policy(2)
    policy.count = [1e12, 1e12]
    policy.total = [1e12 if a == arm else 0.0 for a in (1, 2)]
    policy.t = 2 * 10**12
    return policy


def no_build(spec):
    raise AssertionError("an environment was built")


class TestTuning:
    def test_tuned_gamma_reference_value(self):
        g = tuned_gamma(1, 5000, 15.0)
        assert g == pytest.approx(1.0 - math.sqrt(1 / 5000) / 15.0, abs=1e-12)
        assert g == pytest.approx(0.9990572, abs=1e-7)

    def test_tuned_tau_reference_value(self):
        assert tuned_tau(1, 5000, 1.0) == 206

    def test_gamma_approaches_one_for_large_constant(self):
        g = tuned_gamma(1, 5000, 1e9)
        assert g < 1.0
        assert 1.0 - g < 1e-10

    def test_clamping(self):
        assert 0.0 < tuned_gamma(4999, 5000, 1e-6) < 1.0
        assert tuned_tau(4999, 5000, 1e-9) == 1
        assert tuned_tau(1, 100, 1e9) == 100
        assert tuned_tau(1, 100, 1e308) == 100  # the formula value is inf

    def test_preconditions(self):
        with pytest.raises(ValueError):
            tuned_gamma(0, 5000, 15.0)
        with pytest.raises(ValueError):
            tuned_tau(1, 1, 1.0)


class TestConfig:
    def test_round_trip_identity(self):
        configs = [
            small_config(),
            small_config(
                env=EnvSpec(kind="sinusoidal", T=400, budget=2.0, amplitude=0.3,
                            active_fraction=0.5),
                policy=PolicyParams(kind="thompson", prior_a=2.0, prior_b=3.0),
                restart=RestartParams(sigma=100, lam=2.0),
            ),
            small_config(policy=PolicyParams(kind="swucb", tau=25), trace=True),
            # built in code, stored as parsed: ints given for float keys, and a
            # key the kind does not list (which takes its default)
            ExperimentConfig(EnvSpec("flip", 400, hi=1, lo=0), PolicyParams(kind="ucb1"),
                             DriftModel("linear", 0)),
            small_config(policy=PolicyParams(kind="ucb1", xi=0.7)),
        ]
        # every env kind x policy kind x drift kind x restart setting
        for sections in itertools.product(
            [{"kind": "flip", "T": 300, "segments": 3},
             {"kind": "sinusoidal", "T": 400}],
            [{"kind": "ucb1"}, {"kind": "ducb", "xi": 0.7, "gamma_c": 15.0},
             {"kind": "swucb", "tau": 25}, {"kind": "eps_greedy", "eps_c": 2.0},
             {"kind": "thompson", "prior_a": 2.0}],
            [{"kind": "linear", "l": 0.3},
             {"kind": "saturating", "l": 0.8, "cap": 0.05}],
            [None, {"sigma": 100}, {"lam": 2.0}],
        ):
            d = dict(zip(("env", "policy", "drift", "restart"), sections))
            config = ExperimentConfig.from_dict(d)
            written = config.to_dict()
            for name, given in d.items():
                for key, value in (given or {}).items():
                    assert written[name][key] == value, (name, key)
            configs.append(config)
        for config in configs:
            again = ExperimentConfig.from_json(config.to_json())
            assert again == config
            assert again.to_json() == config.to_json()

    @pytest.mark.parametrize(
        "policy",
        [
            {"kind": "ducb", "gamma_c": 0.0},
            {"kind": "ducb", "gamma_c": -15.0},
            {"kind": "swucb", "tau_c": 0.0},
            {"kind": "swucb", "tau_c": -1.0},
        ],
    )
    def test_non_positive_tuning_constant_named(self, policy):
        d = small_config().to_dict()
        d["policy"] = policy
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(d)
        name = next(k for k in policy if k != "kind")
        assert err.value.key == "policy"
        assert f"{name} must be positive" in str(err.value)

    def test_reps_zero_names_key(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(small_config().to_dict() | {"reps": 0})
        assert "reps" in str(err.value)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_reps_below_one_refused_however_built(self, reps):
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(small_config(), reps=reps)
        assert err.value.key == "reps"
        with pytest.raises(ConfigError) as err:
            scaling_probe("flip", [100, 200, 400], reps=reps)
        assert err.value.key == "reps"

    @pytest.mark.parametrize("policy", [{"kind": "ducb", "gamma_c": 15},
                                        {"kind": "swucb", "tau_c": 1.0}])
    def test_short_horizon_with_tuning_constant_named(self, policy):
        config = ExperimentConfig.from_dict(
            {"env": {"kind": "flip", "T": 1, "segments": 1}, "policy": policy}
        )
        with pytest.raises(ConfigError) as err:
            config.resolve()
        assert err.value.key == "env.T"

    def test_unknown_keys_named(self):
        # each key is valid for another kind of the same section
        for section, fields, foreign in (
            ("env", {"kind": "flip", "T": 300}, "budget"),
            ("policy", {"kind": "ucb1"}, "xi"),
            ("policy", {"kind": "ducb", "gamma_c": 15.0}, "tau"),
            ("policy", {"kind": "swucb", "tau_c": 1.0}, "gamma_c"),
            ("policy", {"kind": "eps_greedy"}, "prior_a"),
            ("policy", {"kind": "thompson"}, "eps_c"),
        ):
            d = small_config().to_dict()
            d[section] = {**fields, foreign: 1.0}
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict(d)
            assert err.value.key == f"{section}.{foreign}"

    def test_config_error_survives_pickle(self):
        err = pickle.loads(pickle.dumps(ConfigError("drift.l", "x")))
        assert (type(err), err.key, str(err)) == (ConfigError, "drift.l", "drift.l: x")

    def test_type_mismatch_named(self):
        d = small_config().to_dict()
        d["env"]["T"] = "big"
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(d)
        assert "env.T" in str(err.value)

    @pytest.mark.parametrize(
        "section, fields",
        [
            ("policy", {"kind": "ducb", "gamma_c": 15.0, "xi": math.nan}),
            ("policy", {"kind": "ducb", "gamma_c": math.inf}),
            ("policy", {"kind": "eps_greedy", "eps_c": math.nan}),
            ("policy", {"kind": "thompson", "prior_a": math.inf}),
            ("drift", {"kind": "linear", "l": math.inf}),
            ("drift", {"kind": "saturating", "l": 0.4, "cap": math.nan}),
            ("drift", {"kind": "saturating", "l": 0.4, "cap": math.inf}),
            ("env", {"kind": "flip", "T": 300, "hi": math.nan}),
            ("restart", {"lam": math.inf}),
        ],
    )
    def test_non_finite_numbers_named(self, section, fields):
        d = small_config().to_dict()
        d[section] = fields
        bad = next(k for k, v in fields.items()
                   if isinstance(v, float) and not math.isfinite(v))
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(d)
        assert err.value.key == f"{section}.{bad}"

    def test_policy_requires_tuning_or_explicit(self):
        for kind, key in (("ducb", "policy.gamma"), ("swucb", "policy.tau")):
            d = small_config().to_dict()
            d["policy"] = {"kind": kind}
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict(d)
            assert err.value.key == key
            # the same refusal holds for a config built in code
            with pytest.raises(ConfigError) as err:
                small_config(policy=PolicyParams(kind=kind))
            assert err.value.key == key

    @pytest.mark.parametrize("key, built, parsed", [
        ("policy.tau", {"policy": PolicyParams(kind="swucb", tau=50.0)},
         {"policy": {"kind": "swucb", "tau": 50.0}}),
        ("restart.sigma", {"restart": RestartParams(sigma=40.0)}, {"restart": {"sigma": 40.0}}),
        ("env.T", {"env": EnvSpec(kind="flip", T=400.0)}, {"env": {"kind": "flip", "T": 400.0}}),
        ("env.segments", {"env": EnvSpec(kind="flip", T=400, segments=2.0)},
         {"env": {"kind": "flip", "T": 400, "segments": 2.0}}),
        ("reps", {"reps": 3.0}, {"reps": 3.0}),
        ("env.kind", {"env": EnvSpec(kind="bogus", T=400)},
         {"env": {"kind": "bogus", "T": 400}}),
    ])
    def test_code_built_config_is_refused_as_a_parsed_one(self, key, built, parsed,
                                                          monkeypatch):
        monkeypatch.setattr(harness, "build_env", no_build)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**({"env": EnvSpec(kind="flip", T=400),
                                 "policy": PolicyParams(kind="ucb1")} | built))
        assert err.value.key == key
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"env": {"kind": "flip", "T": 400},
                                        "policy": {"kind": "ucb1"}} | parsed)
        assert err.value.key == key

    def test_code_built_config_runs_on_defaults(self):
        config = ExperimentConfig(EnvSpec(kind="flip", T=100), PolicyParams(kind="ucb1"),
                                  DriftModel(), None, 2, 0)
        summary = run_experiment(config)
        assert all(math.isfinite(v) for v in summary.mean.values())

    @pytest.mark.parametrize("d, built", [
        ({"env": {"kind": "flip", "T": 100}, "policy": {"kind": "ucb1"}},
         ExperimentConfig(EnvSpec(kind="flip", T=100), PolicyParams(kind="ucb1"))),
        ({"env": {"kind": "sinusoidal", "T": 100}, "restart": {},
          "policy": {"kind": "ducb", "gamma_c": 15.0}},
         ExperimentConfig(EnvSpec(kind="sinusoidal", T=100),
                          PolicyParams(kind="ducb", gamma_c=15.0),
                          restart=RestartParams())),
    ])
    def test_minimal_dict_takes_the_dataclass_defaults(self, d, built):
        assert ExperimentConfig.from_dict(d) == built

    def test_saturating_drift_without_cap_named(self):
        d = small_config().to_dict()
        d["drift"] = {"kind": "saturating", "l": 0.4}
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(d)
        assert err.value.key == "drift.cap"
        with pytest.raises(ConfigError) as err:
            small_config().with_overrides({"drift.kind": "saturating"})
        assert err.value.key == "drift.cap"

    def test_overrides_switch_a_section_kind(self):
        config = small_config(policy=PolicyParams(kind="thompson", prior_a=2.0))
        new = config.with_overrides({"policy.kind": "ucb1"})
        assert new.policy == PolicyParams(kind="ucb1")
        new = config.with_overrides({"env.kind": "sinusoidal", "env.budget": 2.0})
        assert new.env == EnvSpec(kind="sinusoidal", T=300, budget=2.0)
        # a key the new kind lacks is still refused when it is named
        with pytest.raises(ConfigError) as err:
            config.with_overrides({"policy.kind": "ucb1", "policy.prior_a": 2.0})
        assert err.value.key == "policy.prior_a"

    def test_overrides_nested_and_restart_creation(self):
        config = small_config()
        new = config.with_overrides({"env.T": 500, "reps": 2, "restart.sigma": 100})
        assert new.env.T == 500
        assert new.reps == 2
        assert new.restart.sigma == 100 and new.restart.lam == 1.0

    def test_overrides_unknown_key_rejected(self):
        for dotted in ("policy.window", "foo.bar", "reps.deep", "env.T.x"):
            with pytest.raises(ConfigError) as err:
                small_config().with_overrides({dotted: 1})
            assert err.value.key == dotted

    def test_resolve_fills_tuned_parameters(self):
        r = small_config().resolve()
        assert r.gamma == pytest.approx(tuned_gamma(1, 300, 15.0))
        assert r.tau is None and r.sigma is None
        assert r.beta_T == 1
        assert r.variation == 0.8

    def test_resolve_derives_sigma_from_budget(self):
        config = small_config(
            env=EnvSpec(kind="sinusoidal", T=5000, budget=3.0, amplitude=0.3,
                        active_fraction=1.0),
            policy=PolicyParams(kind="ucb1"),
            restart=RestartParams(sigma=None, lam=1.0),
        )
        assert config.resolve().sigma == 361

    def test_resolve_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            small_config(restart=RestartParams(sigma=301, lam=1.0)).resolve()


class TestReplication:
    def test_bit_identical_reruns(self):
        config = small_config()
        a = run_replication(config, 3)
        b = run_replication(config, 3)
        assert (a.pseudo_regret, a.realized_regret, a.compensation) == (
            b.pseudo_regret,
            b.realized_regret,
            b.compensation,
        )

    def test_distinct_reps_have_distinct_streams(self):
        config = small_config()
        assert rep_seed(config.base_seed, 0) != rep_seed(config.base_seed, 1)
        a = run_replication(config, 0)
        b = run_replication(config, 1)
        assert a.realized_regret != b.realized_regret

    def test_oracle_policy_has_zero_pseudo_regret(self):
        # arm 1 is optimal throughout the stationary env, and this UCB1 state
        # (mean 1 vs 0 over 1e12 pulls each) recommends it at every step
        policy = ucb1_pinned_to(1)
        env = build_env(EnvSpec(kind="flip", T=200, segments=1, hi=0.9, lo=0.1))
        totals = run_segment(
            policy, env, 1, 200, DriftModel("linear", 0.5), make_rng(0, 0)
        )
        assert policy.count[1] == 1e12  # arm 2 was never recommended
        assert totals.pseudo_regret == 0.0

    def test_single_bad_pull_costs_the_gap(self):
        policy = ucb1_pinned_to(2)
        env = build_env(EnvSpec(kind="flip", T=10, segments=2, hi=0.99, lo=0.01))
        totals = run_segment(policy, env, 1, 1, DriftModel(), make_rng(0, 0))
        assert policy.count[1] == 1e12 + 1  # arm 2 was recommended
        assert totals.pseudo_regret == pytest.approx(0.98)

    def test_curves_are_cumulative_and_monotone(self):
        res = run_replication(small_config(), 0, collect_curves=True)
        cp = res.curves["pseudo_regret"]
        cc = res.curves["compensation"]
        assert cp.shape == (300,)
        assert np.all(np.diff(cp) >= 0)
        assert np.all(np.diff(cc) >= 0)
        assert cp[-1] == pytest.approx(res.pseudo_regret)
        assert cc[-1] == pytest.approx(res.compensation)


class TestExperiment:
    def test_single_rep_summary_equals_replication(self):
        config = small_config(reps=1)
        summary = run_experiment(config)
        rep = run_replication(config, 0)
        assert summary.mean["pseudo_regret"] == rep.pseudo_regret
        assert summary.mean["compensation"] == rep.compensation
        assert summary.stderr["pseudo_regret"] == 0.0

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        config = small_config(reps=10)
        s1 = run_experiment(config, workers=1)
        s2 = run_experiment(config, workers=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_summary_json(s1, p1)
        write_summary_json(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(
            s1.rep_values["pseudo_regret"], s2.rep_values["pseudo_regret"]
        )

    def test_summary_json_schema(self, tmp_path):
        summary = run_experiment(small_config(reps=2))
        path = tmp_path / "summary.json"
        write_summary_json(summary, path)
        d = json.loads(path.read_text())
        assert set(d) == {"config", "resolved", "reps", "metrics"}
        assert set(d["metrics"]) == {
            "pseudo_regret", "realized_regret", "compensation", "true_reward"
        }
        for block in d["metrics"].values():
            assert set(block) == {"mean", "stderr"}
        assert d["resolved"]["gamma"] is not None
        assert d["resolved"]["seed_scheme"].startswith("splitmix64")

    def test_realized_and_pseudo_regret_agree(self):
        config = small_config(
            env=EnvSpec(kind="flip", T=300, segments=2, hi=0.9, lo=0.1),
            policy=PolicyParams(kind="ucb1"),
            reps=500,
        )
        s = run_experiment(config, workers=2)
        gap = abs(s.mean["realized_regret"] - s.mean["pseudo_regret"])
        assert gap <= 3.0 * s.stderr["realized_regret"]

    def test_stationary_ucb1_grows_logarithmically(self):
        # Squaring the horizon must grow drift-free UCB1 regret like the
        # extra log factor, nowhere near the sqrt(T) ~ 11.8x or linear ~ 140x
        # ratios.  Empirically regret ~ 3.14 ln T - 7.9 on this instance, so
        # the ratio sits near 3.2 at feasible horizons (it only approaches 2
        # once T >> 10^3, far past unit-test budgets).
        def mean_regret(T):
            config = small_config(
                env=EnvSpec(kind="flip", T=T, segments=1, hi=0.9, lo=0.1),
                policy=PolicyParams(kind="ucb1"),
                drift=DriftModel("linear", 0.0),
                reps=500,
            )
            return run_experiment(config, workers=2).mean["pseudo_regret"]

        r140, r19600 = mean_regret(140), mean_regret(140 * 140)
        assert r19600 / r140 <= 3.5

    def test_untraced_run_writes_no_trace(self, tmp_path):
        run_experiment(small_config(reps=2), trace_path=tmp_path / "trace.csv")
        assert list(tmp_path.iterdir()) == []

    def test_trace_csv_schema_and_monotone_columns(self, tmp_path):
        config = small_config(reps=2, trace=True)
        path = tmp_path / "trace.csv"
        run_experiment(config, trace_path=path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == TRACE_HEADER.split(",")
            rows = list(reader)
        assert len(rows) == 2 * 300
        by_rep = {}
        for row in rows:
            by_rep.setdefault(row[0], []).append(row)
        for rep_rows in by_rep.values():
            cum_p = [float(r[9]) for r in rep_rows]
            cum_c = [float(r[11]) for r in rep_rows]
            assert all(b >= a for a, b in zip(cum_p, cum_p[1:]))
            assert all(b >= a for a, b in zip(cum_c, cum_c[1:]))


def summary_facts(summary):
    """Everything a summary reports, in comparable form."""
    curves = None
    if summary.curve_mean is not None:
        curves = {k: (summary.curve_mean[k].tolist(), summary.curve_stderr[k].tolist())
                  for k in summary.curve_mean}
    return (json.dumps(summary.to_json_dict(), sort_keys=True),
            {k: v.tolist() for k, v in summary.rep_values.items()}, curves)


def scalar_only(monkeypatch):
    """Run every block on the scalar kernels."""
    monkeypatch.setattr(lockstep, "LOCKSTEP_MIN", 10**9)


def plan(config, workers=1, curves=False):
    """``config``'s blocks on ``workers`` processes: (range, lockstep) pairs."""
    return harness._plan(config, config.resolve(), workers, curves)


class TestLockstep:
    """Lockstep blocks give every replication its scalar-kernel numbers."""

    @pytest.mark.parametrize("offset", [-1, 0, 5], ids=["below", "at", "above"])
    @pytest.mark.parametrize("kind", ["ucb1", "ducb", "swucb", "eps_greedy"])
    def test_block_sizes_around_the_crossover(self, kind, offset, monkeypatch):
        reps = LOCKSTEP_MIN + offset
        config = small_config(policy=preset_policy(kind), reps=reps)
        assert plan(config, curves=True) == [(range(reps), offset >= 0)]
        lockstep = summary_facts(run_experiment(config, collect_curves=True))
        scalar_only(monkeypatch)
        assert lockstep == summary_facts(run_experiment(config, collect_curves=True))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("curves", [False, True])
    def test_reps_not_a_multiple_of_the_block_size(self, curves, workers, monkeypatch):
        # blocks of at most 25 reps, split over the pool from 2 * 21 reps
        monkeypatch.setattr(harness, "LOCKSTEP_SIZES", (21, 25))
        monkeypatch.setattr(harness, "CURVE_BLOCK", 25)
        config = small_config(
            env=EnvSpec(kind="sinusoidal", T=400, budget=4.0), policy=preset_policy("ucb1"),
            restart=RestartParams(sigma=90), reps=4 * LOCKSTEP_MIN + 7)
        blocks = plan(config, workers, curves)
        assert len(blocks) >= workers and all(lock for _, lock in blocks)
        sizes = sorted({len(r) for r, _ in blocks})
        assert len(sizes) == 2 and sizes[0] >= LOCKSTEP_MIN
        lockstep = summary_facts(run_experiment(config, workers, collect_curves=curves))
        scalar_only(monkeypatch)
        assert lockstep == summary_facts(run_experiment(config, workers, collect_curves=curves))

    def test_block_with_a_failed_check_reruns_on_the_kernels(self, monkeypatch):
        config = small_config(policy=preset_policy("swucb"), reps=LOCKSTEP_MIN + 1)
        expected = summary_facts(run_experiment(config, collect_curves=True))
        calls = []
        original = harness.run_replication
        monkeypatch.setattr(harness, "run_block", lambda *args: None)
        monkeypatch.setattr(harness, "run_replication",
                            lambda *a: calls.append(a[1]) or original(*a))
        assert summary_facts(run_experiment(config, collect_curves=True)) == expected
        assert calls == list(range(config.reps))  # the whole block reran

    def test_traced_run_folds_as_the_block_does(self, tmp_path):
        # untraced, the reps are one lockstep block; traced, the trace source
        # runs them on the kernels one at a time
        config = small_config(policy=preset_policy("swucb"), reps=LOCKSTEP_MIN)
        assert plan(config, curves=True) == [(range(config.reps), True)]
        assert plan(dataclasses.replace(config, trace=True), curves=True) == [
            (range(config.reps), False)]
        block = run_experiment(config, collect_curves=True)
        traced = run_experiment(dataclasses.replace(config, trace=True), collect_curves=True,
                                trace_path=tmp_path / "trace.csv")
        assert summary_facts(traced)[1:] == summary_facts(block)[1:]
        assert traced.to_json_dict()["metrics"] == block.to_json_dict()["metrics"]

    def test_restart_batches_make_a_few_reps_one_block(self, monkeypatch):
        # drift-restart's UCB1 cell: 8 reps, 27 batches each, so 216 lanes
        sizes = []
        original = harness.run_block
        monkeypatch.setattr(harness, "run_block",
                            lambda *args: sizes.append(len(args[3])) or original(*args))
        run_experiment(sinusoidal_config(24.0, PolicyParams(kind="ucb1"), reps=8, lam=3.0))
        assert sizes == [8]
        # 12 reps without restarts are 12 lanes: the scalar kernels run them
        run_experiment(flip_config(3, PolicyParams(kind="ucb1"), reps=12))
        assert sizes == [8]

    def test_eps_greedy_restart_batches_are_lanes(self, monkeypatch):
        # drift-restart's eps-greedy cell: 8 reps, 90 batches each, so 720 lanes
        sizes = []
        original = harness.run_block
        monkeypatch.setattr(harness, "run_block",
                            lambda *args: sizes.append(len(args[3])) or original(*args))
        config = sinusoidal_config(24.0, PolicyParams(kind="eps_greedy", eps_c=1.0), reps=8,
                                   lam=0.5)
        resolved = config.resolve()
        assert -(-resolved.T // resolved.sigma) == 90
        lanes = summary_facts(run_experiment(config))
        assert sizes == [8]
        scalar_only(monkeypatch)
        assert summary_facts(run_experiment(config)) == lanes

    def test_drift_overflow_in_a_block_is_refused_as_on_the_kernels(self):
        config = small_config(env=EnvSpec(kind="flip", T=5000, segments=4),
                              policy=preset_policy("swucb"),
                              drift=DriftModel("linear", 1e300), reps=LOCKSTEP_MIN)
        with pytest.raises(ConfigError, match="drift.l: drift overflows at run time"):
            run_experiment(config)


class TestPoolPlan:
    def test_large_request_clamped_to_cpus(self, pools):
        config = small_config(policy=PolicyParams(kind="thompson"), reps=100)
        assert summary_facts(run_experiment(config, workers=10**9)) == summary_facts(
            run_experiment(config, workers=2))
        assert [size for size, _ in pools] == [2, 2]
        blocks = plan(config, 2)  # about four blocks per worker
        assert len(blocks) == 8 and not any(lock for _, lock in blocks)
        assert [rep for r, _ in blocks for rep in r] == list(range(100))

    def test_pool_never_exceeds_chunks(self, pools, monkeypatch):
        monkeypatch.setattr(harness, "_cpu_count", lambda: 16)
        for reps in (3, 1):
            run_experiment(small_config(policy=PolicyParams(kind="thompson"), reps=reps),
                           workers=8)
        # one block per rep; a single block runs in-process
        assert [size for size, _ in pools] == [3]

    def test_one_cpu_runs_in_process(self, pools, monkeypatch):
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        run_experiment(small_config(reps=50), workers=4, collect_curves=True)
        assert pools == []

    def test_lockstep_run_is_one_block_until_it_pays_to_split(self):
        # reproduce fig2's cells: 64 reps with curves on 2 workers
        fig2 = flip_config(1, preset_policy("ucb1"), reps=64)
        assert plan(fig2, 2, True) == [(range(64), True)]
        blocks = plan(dataclasses.replace(fig2, reps=2000), 2)
        assert [(len(r), lock) for r, lock in blocks] == [(250, True)] * 8
        assert [rep for r, _ in blocks for rep in r] == list(range(2000))
        # drift-restart's UCB1 cell: 8 reps of 27 restart batches on 1 worker,
        # so one rep already brings 20 lanes
        config = sinusoidal_config(24.0, PolicyParams(kind="ucb1"), reps=8, lam=3.0)
        resolved = config.resolve()
        assert -(-resolved.T // resolved.sigma) == 27
        assert capacity(resolved.policy_params, resolved.T, resolved.K, resolved.sigma)[0] == 1
        assert plan(config) == [(range(8), True)]

    def test_restart_blocks_are_cut_by_their_stored_bytes(self):
        # table 3's UCB1 cells at 2000 reps: no block stores more than LANE_BYTES
        for budget in (3.0, 24.0):
            config = sinusoidal_config(budget, PolicyParams(kind="ucb1"), lam=3.0)
            resolved = config.resolve()
            most = capacity(resolved.policy_params, resolved.T, resolved.K, resolved.sigma)[1]
            assert most == {3.0: 144, 24.0: 150}[budget]  # 7 x 752, 27 x 188 lane-steps
            for curves in (False, True):
                blocks = plan(config, 2, curves)
                assert len(blocks) >= 2 and all(lock for _, lock in blocks)
                assert max(len(r) for r, _ in blocks) <= most
                assert max(len(r) for r, _ in blocks) <= (
                    CURVE_BLOCK if curves else LOCKSTEP_SIZES[1])
                assert [rep for r, _ in blocks for rep in r] == list(range(2000))

    def test_lockstep_below_the_crossover_keeps_the_scalar_plan(self, monkeypatch):
        def scalar_plan(config, workers):
            return plan(dataclasses.replace(config, policy=PolicyParams(kind="thompson")),
                        workers)

        below = small_config(policy=preset_policy("ucb1"), reps=LOCKSTEP_MIN - 1)
        assert plan(below, 2) == scalar_plan(below, 2)
        # abrupt-ucb's cells: 12 reps without restarts are 12 lanes
        abrupt = flip_config(3, preset_policy("ucb1"), reps=12)
        assert plan(abrupt) == scalar_plan(abrupt, 1)
        # a run whose one replication stores more than LANE_BYTES has no lockstep plan
        restart = sinusoidal_config(24.0, PolicyParams(kind="ucb1"), reps=40, lam=3.0)
        monkeypatch.setattr(lockstep, "LANE_BYTES", 1)
        assert plan(restart, 2) == scalar_plan(restart, 2)

    def test_workers_clamped_to_the_cpu_affinity(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool with one CPU allowed")

        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        config = small_config(policy=PolicyParams(kind="thompson"), reps=8)
        assert len(plan(config, 2)) >= 2  # two CPUs would start a pool
        run_experiment(config, workers=2)
        monkeypatch.delattr(harness.os, "sched_getaffinity")
        with pytest.raises(AssertionError, match="started a pool"):
            run_experiment(config, workers=2)

    def test_parent_memory_does_not_grow_with_reps(self, monkeypatch):
        # Thompson runs on the scalar kernels in blocks of at most
        # CURVE_BLOCK reps, each folded into a (2, 4, T) sum where it is made.
        # Per rep the parent keeps the (4, reps) totals of the summary (32 B)
        # and std's temporaries of them; one kept T = 100 curve per rep would
        # add 4 * 100 * 8 = 3.2 kB.
        class UntracedPool(harness.ProcessPoolExecutor):  # trace the parent only
            def __init__(self, max_workers):
                super().__init__(max_workers, initializer=tracemalloc.stop)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", UntracedPool)

        def peak(reps):
            config = small_config(env=EnvSpec(kind="flip", T=100),
                                  policy=PolicyParams(kind="thompson"), reps=reps)
            tracemalloc.start()
            try:
                run_experiment(config, workers=2, collect_curves=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(512)  # the pool's and the imports' one-time allocations
        small, large = peak(512), peak(2048)
        assert (large - small) / (2048 - 512) <= 128  # bytes per rep

    def test_benchmark_cells_keep_their_plans(self):
        # perfbench's cells at their own reps, workers and curve setting: a
        # change that moves benchmark traffic between engines shows here
        from perfbench.workloads import WORKLOADS

        cells = {  # (blocks, reps per block, in lockstep, restart batches per rep)
            **{("abrupt-ucb", kind): (4, 3, False, 1) for kind in ("ucb1", "swucb", "ducb")},
            ("drift-restart", "ucb1"): (1, 8, True, 27),
            ("drift-restart", "eps_greedy"): (1, 8, True, 90),
            ("drift-restart", "thompson"): (4, 2, False, 56),
            **{("reproduce-curves", kind): (1, 64, True, 1) for kind in ("ucb1", "ducb", "swucb")},
        }
        for name, workload in WORKLOADS.items():
            workers = min(workload.workers, harness._cpu_count())
            for cell in workload.cells:
                config = ExperimentConfig.from_dict(
                    workload.config(cell, workload.reps, DEFAULT_SEED))
                resolved = config.resolve()
                n, size, lock, batches = cells.pop((name, cell))
                blocks = harness._plan(config, resolved, workers, workload.via_cli)
                assert [(len(r), on) for r, on in blocks] == [(size, lock)] * n, (name, cell)
                assert -(-resolved.T // (resolved.sigma or resolved.T)) == batches, (name, cell)
        assert not cells  # every cell is still benchmarked

    def test_run_experiment_rejects_fewer_than_one_worker(self):
        with pytest.raises(ConfigError) as err:
            run_experiment(small_config(), workers=0)
        assert err.value.key == "workers"


def stored_bytes(resolved):
    """The bytes a lockstep replication stores at K = 2, as README's "Block
    sizes" counts them: with restarts 11 B per lane-step (12 B for
    eps-greedy, which keeps the arm it explores too), and 16 B per slot of a
    SWUCB window shorter than a batch."""
    sigma = resolved.sigma or resolved.T
    batches = -(-resolved.T // sigma)
    ring = 16 * resolved.tau if resolved.tau is not None and resolved.tau < sigma else 0
    step = 12 if resolved.policy_params.kind == "eps_greedy" else 11
    return batches * (step * sigma * (batches > 1) + ring)


PLAN_CONFIGS = st.builds(
    lambda kind, env, restart, reps: ExperimentConfig(
        env=env, policy=preset_policy(kind), restart=restart, reps=reps),
    st.sampled_from(["ucb1", "ducb", "swucb", "eps_greedy", "thompson"]),
    st.sampled_from([EnvSpec(kind="flip", T=5000), EnvSpec(kind="flip", T=300, segments=4),
                     EnvSpec(kind="sinusoidal", T=5000, budget=3.0),
                     EnvSpec(kind="sinusoidal", T=5000, budget=24.0)]),
    st.sampled_from([None, RestartParams(lam=3.0), RestartParams(sigma=7),
                     RestartParams(sigma=250)]),
    st.integers(1, 40) | st.integers(1, 7000),
)


@given(PLAN_CONFIGS, st.integers(1, 8), st.booleans())
# 7 batches a rep, so that 3 reps reach 20 lanes and 2 do not
@example(sinusoidal_config(3.0, PolicyParams(kind="ucb1"), reps=2, lam=3.0), 1, False)
@settings(max_examples=300, deadline=None)
def test_plan_partitions_the_reps_and_flags_exactly_the_lockstep_blocks(config, workers, curves):
    resolved = config.resolve()
    blocks = harness._plan(config, resolved, workers, curves)
    starts, stops = ([getattr(r, end) for r, _ in blocks] for end in ("start", "stop"))
    assert starts == [0, *stops[:-1]] and stops[-1] == config.reps
    assert all(len(r) > 0 and r.step == 1 for r, _ in blocks)
    if curves:  # cut by the config alone
        assert blocks == harness._plan(config, resolved, 1, True)
    least, most = capacity(resolved.policy_params, resolved.T, resolved.K,
                           resolved.sigma or resolved.T)
    assert [lock for _, lock in blocks] == [least <= len(r) <= most for r, _ in blocks]
    lanes = -(-resolved.T // (resolved.sigma or resolved.T))
    for r, lock in blocks:
        if lock:
            assert config.policy.kind in LOCKSTEP_KINDS
            assert len(r) * lanes >= LOCKSTEP_MIN
            assert len(r) * stored_bytes(resolved) <= LANE_BYTES
    if config.policy.kind in LOCKSTEP_KINDS:  # one lane minimum for every kind
        assert least == -(-LOCKSTEP_MIN // lanes)


class TestSharedPool:
    """Blocks fold their curves where they are made, and every config shares one pool."""

    @pytest.mark.parametrize("kind", ["ucb1", "ducb", "swucb", "eps_greedy", "thompson"])
    def test_block_fold_is_the_rep_by_rep_fold(self, kind):
        config = small_config(policy=preset_policy(kind), reps=LOCKSTEP_MIN + 3)
        reps = range(2, config.reps)  # a lockstep block for the UCB family
        block = harness._run_reps(config, reps, kind in LOCKSTEP_KINDS, True)
        kernel = [np.array([run_replication(config, rep, collect_curves=True).curves[name]
                            for name in harness.METRIC_NAMES]) for rep in reps]
        assert block.start == 2
        assert block.curves.tolist() == rep_order_fold(kernel).tolist()

    def test_traced_block_folds_in_rep_order(self):
        config = small_config(policy=preset_policy("swucb"), reps=3, trace=True)
        rows = io.StringIO()
        block = harness._scalar_block(config, range(config.reps), True, csv.writer(rows))
        kernel = [run_replication(config, rep, collect_curves=True).curves
                  for rep in range(config.reps)]
        assert block.curves.tolist() == rep_order_fold(
            [np.array([c[name] for name in harness.METRIC_NAMES]) for c in kernel]).tolist()
        reps = [int(row[0]) for row in csv.reader(io.StringIO(rows.getvalue()))]
        assert reps == [rep for rep in range(config.reps) for _ in range(config.env.T)]

    @pytest.mark.parametrize("kind", ["ucb1", "ducb", "swucb"])
    def test_curve_blocks_depend_on_reps_alone(self, kind, monkeypatch):
        config = small_config(env=EnvSpec(kind="flip", T=200), policy=preset_policy(kind),
                              reps=300)
        for workers in (1, 2, 3):
            assert plan(config, workers, True) == [
                (range(0, 100), True), (range(100, 200), True), (range(200, 300), True)]
        facts = [summary_facts(run_experiment(config, workers, collect_curves=True))
                 for workers in (1, 2, 3)]
        scalar_only(monkeypatch)
        facts.append(summary_facts(run_experiment(config, 2, collect_curves=True)))
        assert all(f == facts[0] for f in facts)

    def test_a_process_holds_one_environment(self):
        specs = [EnvSpec(kind="flip", T=200, segments=segments) for segments in (1, 2, 3)]
        first = weakref.ref(build_env(specs[0]))
        list(run_experiments([small_config(env=spec, reps=2) for spec in specs]))
        assert first() is None

    def test_summaries_come_in_config_order(self):
        configs = [small_config(policy=preset_policy(kind), reps=reps)
                   for kind, reps in (("ucb1", 30), ("thompson", 5), ("ducb", 64))]
        for curves in (False, True):
            alone = [summary_facts(run_experiment(c, collect_curves=curves)) for c in configs]
            for workers in (1, 2):
                together = run_experiments(configs, workers, collect_curves=curves)
                assert [summary_facts(s) for s in together] == alone

    def test_every_config_is_validated_before_any_runs(self, monkeypatch, tmp_path):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "_run_reps", no_pool)
        bad = small_config(env=EnvSpec(kind="flip", T=3, segments=2))
        with pytest.raises(ConfigError, match="env: T=3 is too short"):
            run_experiments([small_config(), bad], workers=2)
        with pytest.raises(ConfigError, match="trace"):
            run_experiments([small_config(trace=True)])
        # a traced config runs alone, even given a trace path
        path = tmp_path / "trace.csv"
        with pytest.raises(ConfigError) as err:
            run_experiments([small_config(trace=True), small_config()], trace_path=path)
        assert err.value.key == "trace"
        assert not path.exists()

    def test_sweep_and_scaling_are_worker_invariant(self):
        config = small_config(reps=70)
        one, two = (sweep(config, values=[10.0, 15.0], workers=w) for w in (1, 2))
        assert one.points == two.points
        assert summary_facts(one.best_summary) == summary_facts(two.best_summary)
        one, two = (scaling_probe("flip", [100, 200, 400], reps=40, workers=w)
                    for w in (1, 2))
        assert one == two


class TestMemoryLimit:
    """Configs too large to hold are refused by ``resolve`` before anything is built."""

    @given(st.integers(1, 10**12), st.integers(1, 10**12), st.sampled_from(["flip", "sinusoidal"]))
    @settings(max_examples=200, deadline=None)
    def test_huge_sizes_are_refused_before_any_allocation(self, T, reps, kind):
        # small_config runs DUCB, which holds a count-term table too
        steps = (harness.STEP_BYTES[kind] + harness.TABLE_BYTES) * T
        totals = harness.REP_BYTES * reps
        assume(steps + totals > harness.MEMORY_LIMIT)
        config = small_config(env=EnvSpec(kind=kind, T=T), reps=reps)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                config.resolve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.key == ("env.T" if steps >= totals else "reps")
        assert peak < 64 * 1024

    def test_limit_is_inclusive(self, monkeypatch):
        config = small_config()  # T = 300, 6 reps of DUCB, which has a lockstep engine
        need = ((harness.STEP_BYTES["flip"] + harness.TABLE_BYTES) * 300
                + harness.REP_BYTES * 6 + LANE_BYTES)
        monkeypatch.setattr(harness, "MEMORY_LIMIT", need)
        config.resolve()
        monkeypatch.setattr(harness, "MEMORY_LIMIT", need - 1)
        with pytest.raises(ConfigError, match="env.T: T=300 and reps=6 need about"):
            config.resolve()
        with pytest.raises(ConfigError, match="env.T: T=300 and reps=6 with curves need about"):
            run_experiment(config, collect_curves=True)
        monkeypatch.setattr(harness, "MEMORY_LIMIT", need + harness.CURVE_BYTES * 300)
        run_experiment(config, collect_curves=True)

    def test_each_environment_family_is_charged_its_own_peak(self):
        # a flip schedule peaks at 152 B per step while its views are built,
        # a sinusoidal one at 208 B: the flip limit lies past the sinusoidal one
        policy = PolicyParams(kind="thompson")  # no lockstep block to count
        flip_T = (harness.MEMORY_LIMIT - harness.REP_BYTES) // harness.STEP_BYTES["flip"]
        sin_T = (harness.MEMORY_LIMIT - harness.REP_BYTES) // harness.STEP_BYTES["sinusoidal"]
        assert 7_000_000 < flip_T < 7_100_000 and 5_100_000 < sin_T < 5_200_000
        for kind, limit in (("flip", flip_T), ("sinusoidal", sin_T)):
            harness._check_memory(small_config(env=EnvSpec(kind=kind, T=limit), policy=policy,
                                               reps=1))
            with pytest.raises(ConfigError, match="env.T"):
                harness._check_memory(small_config(env=EnvSpec(kind=kind, T=limit + 1),
                                                   policy=policy, reps=1))
        # a flip horizon the sinusoidal charge would refuse
        flip = small_config(env=EnvSpec(kind="flip", T=sin_T + 1), policy=policy, reps=1)
        harness._check_memory(flip)
        with pytest.raises(ConfigError, match="env.T"):
            harness._check_memory(dataclasses.replace(
                flip, env=EnvSpec(kind="sinusoidal", T=sin_T + 1)))

    def test_sample_mean_kinds_are_charged_a_table_and_a_block(self):
        # each kind of LOCKSTEP_KINDS holds a count-term table (TABLE_BYTES per
        # step) and one lockstep block (LANE_BYTES); Thompson holds neither
        step = harness.STEP_BYTES["flip"] + harness.TABLE_BYTES
        T = (harness.MEMORY_LIMIT - harness.REP_BYTES - LANE_BYTES) // step
        for kind in POLICY_KINDS:
            policy = PolicyParams(kind=kind, gamma=0.99, tau=100)
            harness._check_memory(small_config(env=EnvSpec(kind="flip", T=T), policy=policy,
                                               reps=1))
            longer = small_config(env=EnvSpec(kind="flip", T=T + 1), policy=policy, reps=1)
            if kind in LOCKSTEP_KINDS:
                with pytest.raises(ConfigError, match="env.T"):
                    harness._check_memory(longer)
            else:
                assert kind == "thompson"
                harness._check_memory(longer)

    def test_traced_runs_are_charged_their_step_records(self):
        # a traced replication holds every step's record and its curve lists
        config = small_config(env=EnvSpec(kind="flip", T=3_000_000),
                              policy=preset_policy("ucb1"), reps=1)
        harness._check_memory(config)
        with pytest.raises(ConfigError, match="env.T: T=3000000 and reps=1 traced need about"):
            harness._check_memory(dataclasses.replace(config, trace=True))

    def test_a_traced_run_holds_one_replications_records(self, tmp_path):
        # each replication's records are dropped before the next one's are made
        def peak(reps):
            config = small_config(env=EnvSpec(kind="flip", T=20_000), reps=reps, trace=True)
            config.resolve()  # the environment, built untraced
            tracemalloc.start()
            try:
                run_experiment(config, trace_path=tmp_path / "trace.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(3) < 1.25 * peak(1)

    def test_every_preset_fits(self):
        from driftbandits.cli import REPRODUCE_PRESETS

        for presets in REPRODUCE_PRESETS.values():
            for _, _, config in presets:
                need = (harness.STEP_BYTES[config.env.kind] * config.env.T
                        + harness.REP_BYTES * config.reps)
                assert need <= harness.MEMORY_LIMIT / 100

    def test_every_preset_is_admitted_with_its_curves_and_blocks(self):
        from driftbandits.cli import FIGURE_CURVES, REPRODUCE_PRESETS

        for target, presets in REPRODUCE_PRESETS.items():
            for _, _, config in presets:
                harness._check_memory(config, target in FIGURE_CURVES)

    def test_curves_count_against_the_limit_before_anything_is_built(self):
        # fig2 at T = 4e6: its schedule (0.78 GiB) alone fits, but not with its curves
        config = small_config(env=EnvSpec(kind="flip", T=4_000_000), reps=100)
        harness._check_memory(config)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as err:
                run_experiment(config, collect_curves=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.key == "env.T"
        assert "with curves" in err.value.message
        assert peak < 64 * 1024


class TestWorkLimit:
    """Commands of more than WORK_LIMIT steps are refused before anything is built."""

    @pytest.mark.parametrize("T, reps", [(10**6, 10**7), (5 * 10**6, 10**6)])
    def test_months_of_work_are_refused(self, T, reps, monkeypatch):
        config = small_config(env=EnvSpec(kind="flip", T=T), policy=preset_policy("ucb1"),
                              reps=reps)
        harness._check_memory(config)  # the memory limit admits it
        monkeypatch.setattr(harness, "build_env", no_build)
        for run in (run_experiment, lambda c: run_experiments([c])):
            with pytest.raises(ConfigError) as err:
                run(config)
            assert err.value.key == "reps"
            assert "over the 1e+10-step limit" in err.value.message

    def test_limit_is_inclusive_over_a_commands_configs(self, monkeypatch):
        at = small_config(env=EnvSpec(kind="flip", T=10**4), reps=10**6)
        assert at.reps * at.env.T == harness.WORK_LIMIT
        harness._validate([at], 1, False)
        monkeypatch.setattr(harness, "build_env", no_build)
        one_step = small_config(env=EnvSpec(kind="flip", T=1, segments=1), reps=1)
        over = small_config(env=EnvSpec(kind="flip", T=3541), reps=2_824_061)  # 1e10 + 1
        for configs in ([at, one_step], [over]):
            with pytest.raises(ConfigError) as err:
                harness._validate(configs, 1, False)
            assert err.value.key == "reps"

    def test_every_reproduce_target_fits(self):
        from driftbandits.cli import REPRODUCE_PRESETS

        work = {target: sum(c.reps * c.env.T for _, _, c in presets)
                for target, presets in REPRODUCE_PRESETS.items()}
        assert max(work.values()) == work["table3"] == 210_000_000


# Multi-config commands past either limit are refused before anything is
# built.  A case is (horizon range, reps range, the key named, a word of the
# refusal).  T >= 8e6 puts every preset's step charge over MEMORY_LIMIT
# (153 B * 8e6 > 2^30) while 1e4 reps' totals stay far below it: env.T. 4e7
# reps' totals (32 B each) are over it and outweigh a step charge of at most
# 896 B * 1000: reps.  The work case sets reps just past WORK_LIMIT over
# horizons of 1000 to 1e6: about 1e7 reps at most and 5.6e8 B of steps, both
# inside MEMORY_LIMIT.
LIMIT_CASES = {
    "memory_T": ((8 * 10**6, 10**12), (1, 10**4), "env.T", "GiB"),
    "memory_reps": ((12, 1000), (4 * 10**7, 10**12), "reps", "GiB"),
    "work": ((1000, 10**6), None, "reps", "step limit"),
}


@given(data=st.data())
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_multi_config_commands_are_refused_past_either_limit(data, tmp_path):
    from driftbandits.cli import REPRODUCE_PRESETS, main

    (lo, hi), reps_range, key, word = LIMIT_CASES[data.draw(st.sampled_from(sorted(LIMIT_CASES)))]
    command = data.draw(st.sampled_from(["sweep", "scaling", "reproduce"]))
    if command == "scaling":
        family = data.draw(st.sampled_from(["flip", "sinusoidal"]))
        kind = data.draw(st.sampled_from(POLICY_KINDS))
        horizons = sorted(data.draw(st.sets(st.integers(lo, hi), min_size=3, max_size=4)))
        steps = sum(horizons)
    else:
        T = data.draw(st.integers(lo, hi))
        if command == "sweep":
            values = data.draw(st.lists(st.floats(1.0, 40.0), min_size=1, max_size=3))
            steps = T * len(values)
        else:
            target = data.draw(st.sampled_from(sorted(REPRODUCE_PRESETS)))
            steps = T * len(REPRODUCE_PRESETS[target])
    if reps_range is None:
        reps = harness.WORK_LIMIT // steps + data.draw(st.integers(1, 1000))
    else:
        reps = data.draw(st.integers(*reps_range))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(harness, "build_env", no_build)
        tracemalloc.start()
        try:
            if command == "reproduce":
                code = main(["reproduce", target, "--set", f"env.T={T}", "--set", f"reps={reps}",
                             "--out", str(tmp_path)])
            else:
                with pytest.raises(ConfigError) as exc:
                    if command == "sweep":
                        sweep(small_config(env=EnvSpec(kind="flip", T=T), reps=reps), values)
                    else:
                        scaling_probe(family, horizons, policy_kind=kind, reps=reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 256 * 1024  # no schedule, curve or totals array was made
    if command == "reproduce":
        assert code == 2
        assert err.getvalue().startswith(f"config error: {key}: ")
        assert word in err.getvalue()
    else:
        assert exc.value.key == key
        assert word in exc.value.message


class TestSweep:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(small_config(reps=2), values=[])

    def test_single_point_grid_returns_it(self):
        res = sweep(small_config(reps=2), values=[15.0])
        assert res.best.value == 15.0
        assert len(res.points) == 1

    def test_dominated_point_never_wins(self):
        config = small_config(reps=4)
        lean = sweep(config, values=[15.0])
        # gamma_c=1e-4 clamps gamma to ~0: a uselessly forgetful policy
        padded = sweep(config, values=[15.0, 1e-4])
        assert padded.best.value == lean.best.value == 15.0
        assert padded.points[1].pseudo_regret > padded.points[0].pseudo_regret

    def test_swucb_sweeps_tau_constant(self):
        config = small_config(policy=PolicyParams(kind="swucb", tau_c=1.0), reps=2)
        res = sweep(config, values=[0.9, 1.0])
        assert res.param == "tau_c"
        assert len(res.points) == 2

    def test_sweep_rejects_untunable_policies(self):
        with pytest.raises(ConfigError) as err:
            sweep(small_config(policy=PolicyParams(kind="ucb1")), values=[1.0])
        assert err.value.key == "policy.kind"


class TestScaling:
    def test_synthetic_half_power(self):
        Ts = [1000, 2000, 4000, 8000]
        ys = [3.7 * t**0.5 for t in Ts]
        assert fit_loglog(Ts, ys) == pytest.approx(0.5, abs=1e-6)

    def test_synthetic_two_thirds_power(self):
        Ts = [1000, 3000, 9000]
        ys = [0.9 * t ** (2 / 3) for t in Ts]
        assert fit_loglog(Ts, ys) == pytest.approx(2 / 3, abs=1e-6)

    def test_degenerate_fits_flagged(self):
        with pytest.raises(ValueError):
            fit_loglog([100, 200], [1.0, 0.0])
        with pytest.raises(ValueError):
            fit_loglog([100], [1.0])
        with pytest.raises(ValueError):
            fit_loglog([100, 100, 100], [1.0, 2.0, 3.0])

    def test_probe_requires_three_horizons(self):
        for horizons in ([100, 200], [100, 100, 100], [100, 200, 200],
                         [100, 100, 200, 400]):
            with pytest.raises(ConfigError, match="horizons"):
                scaling_probe("flip", horizons, reps=1)

    def test_probe_runs_small(self):
        report = scaling_probe(
            "flip", [200, 400, 800], policy_kind="ducb", reps=3, base_seed=1,
            workers=2,
        )
        assert len(report.horizons) == 3
        assert math.isfinite(report.regret_slope)


# Config dicts from the schema table: every section and kind, with keys left
# out or set to None, zero, negative, tiny, huge or ordinary numbers.
NUMBERS = st.one_of(
    st.sampled_from([None, 0, 0.0, -1, -0.5, 5e-324, 1e-300, 1e300, 1e308]),
    st.integers(-3, 70),
    st.floats(-2.0, 1e6),
)


def config_section(name, **fixed):
    kinds = _SCHEMA[name][1]

    def build(kind):
        keys = {k: fixed.get(k, NUMBERS) for k in kinds[kind]}
        head = {} if kind is None else {"kind": st.just(kind)}
        return st.fixed_dictionaries(head, optional=keys)

    return st.sampled_from(list(kinds)).flatmap(build)


CONFIG_DICTS = st.fixed_dictionaries(
    {
        "env": config_section("env", T=st.integers(-1, 60)),
        "policy": config_section("policy"),
        "reps": st.integers(-1, 3),
    },
    optional={
        "drift": st.none() | config_section("drift"),
        "restart": st.none() | config_section("restart"),
        "base_seed": st.integers(0, 2**64 - 1),
    },
)


@given(CONFIG_DICTS)
@example({"env": {"kind": "flip", "T": 1, "segments": 1}, "reps": 1,
          "policy": {"kind": "ducb", "gamma_c": 15}})
@example({"env": {"kind": "flip", "T": 1, "segments": 1}, "reps": 1,
          "policy": {"kind": "swucb", "tau_c": 15}})
@example({"env": {"kind": "sinusoidal", "T": 6, "amplitude": 5e-324}, "reps": 1,
          "policy": {"kind": "ucb1"}})
@example({"env": {"kind": "flip", "T": 20}, "reps": 1,
          "policy": {"kind": "thompson", "prior_a": 1e308}})
@example({"env": {"kind": "flip", "T": 5000, "segments": 4}, "reps": 3,
          "policy": {"kind": "eps_greedy"}, "drift": {"kind": "linear", "l": 1e300}})
@example({"env": {"kind": "flip", "T": 500, "segments": 4}, "reps": 3,
          "policy": {"kind": "eps_greedy"},
          "drift": {"kind": "saturating", "l": 1e308, "cap": 1e10}})
@settings(max_examples=200, deadline=timedelta(seconds=5))
def test_config_dict_is_refused_or_runs_finite(d):
    try:
        summary = run_experiment(ExperimentConfig.from_dict(d))
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in summary.mean.values())


# UCB-family and eps-greedy configs with enough reps for a lockstep block: both
# env families and drift kinds, restarts on and off, and extreme gamma, tau,
# xi, eps_c, l, cap and lam.
POSITIVE = st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 1.0, 2.0, 1e10, 1e300, 1e308])
XIS = st.sampled_from([0.5, 0.6, 1.0, 2.0, 1e10, 1e300, 1e308])
GAMMAS = st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 0.99, 1.0 - 1e-12, 1.0])
TAUS = st.sampled_from([1, 2, 3, 10**9]) | st.integers(1, 400)
EPS_CS = st.sampled_from([5e-324, 1e-300, 0.01, 0.5, 1.0, 5.0, 20.0, 1e10, 1e300, 1e308])


def tuned(kind, explicit, values, constant):
    return st.one_of(*(st.fixed_dictionaries({"kind": st.just(kind), "xi": XIS, key: v})
                       for key, v in ((explicit, values), (constant, POSITIVE))))


def engine_configs(reps, restart):
    """UCB-family and eps-greedy config dicts with ``reps`` replications and
    ``restart`` sections."""
    return st.fixed_dictionaries(
        {
            "env": st.one_of(
                st.fixed_dictionaries({"kind": st.just("flip"), "T": st.integers(2, 300)},
                                      optional={"segments": st.integers(1, 4)}),
                st.fixed_dictionaries({"kind": st.just("sinusoidal"), "T": st.integers(2, 300)},
                                      optional={"budget": st.floats(0.25, 10.0)}),
            ),
            "policy": st.one_of(st.just({"kind": "ucb1"}),
                                tuned("ducb", "gamma", GAMMAS, "gamma_c"),
                                tuned("swucb", "tau", TAUS, "tau_c"),
                                st.fixed_dictionaries({"kind": st.just("eps_greedy"),
                                                       "eps_c": EPS_CS})),
            "drift": st.one_of(
                st.fixed_dictionaries({"kind": st.just("linear"),
                                       "l": st.just(0.0) | POSITIVE}),
                st.fixed_dictionaries({"kind": st.just("saturating"), "l": POSITIVE,
                                       "cap": POSITIVE}),
            ),
            "restart": restart,
            "reps": reps,
            "base_seed": st.integers(0, 2**64 - 1),
        }
    )


RESTARTS = st.fixed_dictionaries({}, optional={"sigma": st.integers(1, 300), "lam": POSITIVE})
LOCKSTEP_CONFIGS = engine_configs(st.integers(LOCKSTEP_MIN, LOCKSTEP_MIN + 24),
                                  st.none() | RESTARTS)
# Restart batches are lanes, so a handful of reps already fills a lockstep block.
LANE_CONFIGS = engine_configs(st.integers(1, 8), RESTARTS)


def assert_engines_agree(d, curves):
    """The summary, or the refused key, is the same on both engines."""
    def outcome():
        try:
            return summary_facts(
                run_experiment(ExperimentConfig.from_dict(d), collect_curves=curves))
        except ConfigError as exc:
            return exc.key

    lockstep = outcome()
    with pytest.MonkeyPatch.context() as mp:
        scalar_only(mp)
        assert outcome() == lockstep


@given(LOCKSTEP_CONFIGS, st.booleans())
@example({"env": {"kind": "flip", "T": 4}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "swucb", "tau_c": 1e308}}, False)
@example({"env": {"kind": "flip", "T": 4}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "ucb1"}, "restart": {"lam": 1e308}}, False)
@example({"env": {"kind": "flip", "T": 300, "segments": 4}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "ducb", "gamma": 1e-300},
          "drift": {"kind": "linear", "l": 1e308}}, True)
@example({"env": {"kind": "flip", "T": 6}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "ducb", "xi": 1e300, "gamma": 1e-9},
          "drift": {"kind": "saturating", "l": 1e300, "cap": 1e-9}}, True)
@example({"env": {"kind": "flip", "T": 8}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "swucb", "tau_c": 5e-324},
          "drift": {"kind": "saturating", "l": 1e308, "cap": 0.5}}, False)
# eps-greedy exploring on every step (eps_c * K overflows to inf), with a
# drift overflow, and one whose explore tests never pass (eps = 0.0)
@example({"env": {"kind": "flip", "T": 300, "segments": 4}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "eps_greedy", "eps_c": 1e308},
          "drift": {"kind": "linear", "l": 1e308}}, True)
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": LOCKSTEP_MIN,
          "policy": {"kind": "eps_greedy", "eps_c": 5e-324}}, False)
@settings(max_examples=500, deadline=None)
def test_lockstep_and_scalar_engines_agree(d, curves):
    assert_engines_agree(d, curves)


@given(LANE_CONFIGS, st.booleans())
# every lane in pure round-robin
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": 1,
          "policy": {"kind": "ucb1"}, "restart": {"sigma": 1}}, True)
# sigma = K: the same, for a policy with a tuned constant
@example({"env": {"kind": "flip", "T": 300}, "reps": 3,
          "policy": {"kind": "ducb", "gamma_c": 15.0}, "restart": {"sigma": 2}}, False)
# sigma = T - 1 leaves a 1-step last batch (2 lanes per rep)
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": LOCKSTEP_MIN // 2,
          "policy": {"kind": "swucb", "tau_c": 1.0}, "restart": {"sigma": 299}}, True)
# T not a multiple of sigma, saturating drift
@example({"env": {"kind": "flip", "T": 300, "segments": 4}, "reps": 5,
          "policy": {"kind": "ucb1"}, "restart": {"sigma": 7},
          "drift": {"kind": "saturating", "l": 0.8, "cap": 0.05}}, True)
# a DUCB discounted count that underflows to 0 inside a batch
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": 4,
          "policy": {"kind": "ducb", "gamma": 1e-200}, "restart": {"sigma": 60}}, True)
# a SWUCB window longer than a batch, and one shorter
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": 5,
          "policy": {"kind": "swucb", "tau": 250}, "restart": {"sigma": 90}}, False)
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": 5,
          "policy": {"kind": "swucb", "tau": 3}, "restart": {"sigma": 90}}, True)
# a drift overflow inside a lane
@example({"env": {"kind": "flip", "T": 300, "segments": 4}, "reps": 8,
          "policy": {"kind": "swucb", "tau_c": 1.0}, "restart": {"sigma": 50},
          "drift": {"kind": "linear", "l": 1e300}}, False)
# eps-greedy lanes: round-robin and always-explore steps in every batch
@example({"env": {"kind": "sinusoidal", "T": 300}, "reps": 2,
          "policy": {"kind": "eps_greedy", "eps_c": 5.0}, "restart": {"sigma": 30}}, True)
@settings(max_examples=300, deadline=None)
def test_lane_and_scalar_engines_agree(d, curves):
    assert_engines_agree(d, curves)
