"""Per-layer metrics: from the traced run's spans and from microbenchmarks.

Layers are named after the driftbandits modules.  Policy calls are far too
cheap for a span each, so their cost comes from a replay microbenchmark of
the public ``recommend``/``observe``/``greedy_arm`` methods at the workload's
horizon.  The environment build and the curve-append cost are likewise timed
directly through the public constructors and ``run_incentivized``.
"""

from __future__ import annotations

import random
import statistics
from collections import defaultdict
from time import perf_counter, perf_counter_ns

import driftbandits.env as env_mod
import driftbandits.harness as harness
import driftbandits.incentive as incentive
import driftbandits.policy as policy_mod
from driftbandits.seeding import make_rng

from .tracer import self_time
from .workloads import WORKLOADS, Workload

POLICY_KINDS = policy_mod.POLICY_KINDS

# Policy parameters of the replay microbenchmark: the workloads' presets
# (cells are named after their policy kind).
POLICY_PRESETS = {cell: config["policy"] for w in WORKLOADS.values()
                  for cell, config in w.cells.items()}

_ALL = tuple(WORKLOADS)
_UCB = ("abrupt-ucb", "reproduce-curves")
_SUMMARY = ("abrupt-ucb", "drift-restart")


def _policy_moves(kind: str) -> tuple:
    return _UCB if kind in ("ucb1", "ducb", "swucb") else ("drift-restart",)


# Per-layer metric -> (unit, better, end-to-end metric it should move, on
# which workloads).  On every other workload the prediction is no change.
LAYER_METRICS = {
    "env.build_ms": ("ms", "lower", "setup_s", _ALL),
    "env.views_ms": ("ms", "lower", "setup_s", _ALL),
    "env.variation_ms": ("ms", "lower", "setup_s", _ALL),
    **{
        f"policy.{kind}.{call}_us": ("us", "lower", "steps_per_s", _policy_moves(kind))
        for kind in POLICY_KINDS
        for call in ("recommend", "observe", "greedy")
    },
    "incentive.step_us": ("us", "lower", "steps_per_s", _SUMMARY),
    "incentive.self_us": ("us", "lower", "steps_per_s", _SUMMARY),
    "incentive.comp_frac": ("frac", "lower", "steps_per_s", _SUMMARY),
    "incentive.curve_append_us": ("us", "lower", "wall_s", ("reproduce-curves",)),
    "restart.batches": ("count", "lower", "steps_per_s", ("drift-restart",)),
    "restart.rebuild_us": ("us", "lower", "steps_per_s", ("drift-restart",)),
    "restart.rep_ms": ("ms", "lower", "steps_per_s", ("drift-restart",)),
    "harness.resolve_ms": ("ms", "lower", "setup_s", _ALL),
    "harness.resolve_calls": ("count", "lower", "setup_s", _ALL),
    "harness.rep_ms_p50": ("ms", "lower", "wall_s", ("reproduce-curves",)),
    "harness.rep_ms_p95": ("ms", "lower", "wall_s", ("reproduce-curves",)),
    "harness.pool_eff": ("frac", "higher", "wall_s", ("reproduce-curves",)),
    "harness.pool_chunks": ("count", "lower", "wall_s", ("reproduce-curves",)),
    "harness.curve_mb": ("MB", "lower", "peak_rss_mb", ("reproduce-curves",)),
    "harness.aggregate_ms": ("ms", "lower", "wall_s", ("reproduce-curves",)),
    "seeding.make_rng_us": ("us", "lower", "steps_per_s", _ALL),
    "cli.main_s": ("s", "lower", "wall_s", ("reproduce-curves",)),
    "cli.write_ms": ("ms", "lower", "wall_s", ("reproduce-curves",)),
    "cli.out_bytes": ("bytes", "lower", "wall_s", ("reproduce-curves",)),
    "trace.overhead_s": ("s", "lower", "wall_s", ()),
}


class Samples:
    """A metric's value plus the samples it summarizes (for the report)."""

    def __init__(self, value: float, samples=()):
        self.value = float(value)
        self.samples = sorted(samples)

    @classmethod
    def median_of(cls, samples) -> "Samples":
        samples = list(samples)
        return cls(statistics.median(samples) if samples else 0.0, samples)


def tail(samples: list) -> tuple | None:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = (p, samples[min(n - 1, int(p / 100.0 * n))])
    return best


# -- microbenchmarks ------------------------------------------------------


def _build_env(spec: dict):
    if spec["kind"] == "flip":
        return env_mod.make_flip_env(spec["T"], spec["segments"], spec["hi"], spec["lo"])
    return env_mod.make_sinusoidal_env(
        spec["T"], spec["budget"], spec["amplitude"], spec["active_fraction"]
    )


def env_bench(w: Workload, repeats: int = 5) -> dict:
    """Build, first-view and variation times of the workload's environments."""
    specs = []
    for config in w.cells.values():
        if config["env"] not in specs:
            specs.append(config["env"])
    build, views, variation = [], [], []
    for _ in range(repeats):
        b = v = var = 0.0
        for spec in specs:
            t0 = perf_counter()
            env = _build_env(spec)
            t1 = perf_counter()
            env.schedule.rows
            env.schedule.best_mean
            t2 = perf_counter()
            env_mod.variation_of(env)
            t3 = perf_counter()
            b, v, var = b + t1 - t0, v + t2 - t1, var + t3 - t2
        build.append(b * 1e3)
        views.append(v * 1e3)
        variation.append(var * 1e3)
    return {
        "env.build_ms": Samples.median_of(build),
        "env.views_ms": Samples.median_of(views),
        "env.variation_ms": Samples.median_of(variation),
    }


def _resolved(w: Workload, policy: dict):
    first = next(iter(w.cells.values()))
    config = harness.ExperimentConfig.from_dict(
        {**first, "policy": policy, "restart": None, "reps": 1, "base_seed": 0}
    )
    return config.resolve(), harness.build_env(config.env)


def _timer_overhead_ns() -> float:
    laps = []
    for _ in range(2000):
        t0 = perf_counter_ns()
        laps.append(perf_counter_ns() - t0)
    return statistics.median(laps)


def policy_bench(w: Workload, seed: int, repeats: int = 3) -> dict:
    """Per-call cost of each policy kind, replayed on the workload's first env.

    Rewards are Bernoulli draws of the recommended arm's mean, from a stream
    separate from the policy's own.  The value is the per-call mean less the
    timer's own cost, taken as the median over ``repeats`` replays.
    """
    overhead = _timer_overhead_ns()
    out = {}
    for kind in POLICY_KINDS:
        resolved, envobj = _resolved(w, POLICY_PRESETS[kind])
        rows, T, K = envobj.schedule.rows, envobj.T, envobj.K
        per = {"recommend": [], "observe": [], "greedy": []}
        means = {"recommend": [], "observe": [], "greedy": []}
        for r in range(repeats):
            pol = policy_mod.make_policy(resolved.policy_params, K)
            rng = make_rng(seed, r)
            draws = random.Random(seed * 31 + r)
            rec, obs, gre = [], [], []
            for t in range(T):
                a0 = perf_counter_ns()
                a = pol.recommend(rng)
                a1 = perf_counter_ns()
                x = 1.0 if draws.random() < rows[t][a - 1] else 0.0
                b0 = perf_counter_ns()
                pol.observe(a, x, rng)
                b1 = perf_counter_ns()
                rec.append(a1 - a0)
                obs.append(b1 - b0)
                if pol.ready:
                    g0 = perf_counter_ns()
                    pol.greedy_arm()
                    gre.append(perf_counter_ns() - g0)
            for name, laps in (("recommend", rec), ("observe", obs), ("greedy", gre)):
                per[name].extend(laps)
                means[name].append((statistics.fmean(laps) - overhead) / 1e3)
        for name in per:
            samples = [(v - overhead) / 1e3 for v in per[name]]
            out[f"policy.{kind}.{name}_us"] = Samples(statistics.median(means[name]), samples)
    return out


def curve_append_bench(w: Workload, seed: int, pairs: int = 7) -> Samples:
    """Extra µs per step of a ucb1 run that records cumulative curves.

    Runs with and without a ``CurveRecorder`` alternate; the value is the
    difference of each side's fastest run, since host noise only adds time.
    """
    resolved, envobj = _resolved(w, POLICY_PRESETS["ucb1"])
    times = {True: [], False: []}
    for i in range(pairs):
        for with_curves in ((True, False) if i % 2 == 0 else (False, True)):
            pol = policy_mod.make_policy(resolved.policy_params, envobj.K)
            curves = incentive.CurveRecorder() if with_curves else None
            t0 = perf_counter()
            incentive.run_incentivized(envobj, pol, resolved.drift_model,
                                       make_rng(seed, i), curves=curves)
            times[with_curves].append(perf_counter() - t0)
    per_step = 1e6 / envobj.T
    return Samples((min(times[True]) - min(times[False])) * per_step,
                   [(a - b) * per_step for a, b in zip(times[True], times[False])])


# -- exact counts ---------------------------------------------------------


def count_steps(w: Workload, base_seed: int, reps: int) -> dict:
    """Per cell, over ``reps`` replications: steps, post-round-robin steps,
    compensated steps (recommendation != greedy arm) and restart batches.

    Uses ``run_replication(collect_trace=True)``; deterministic for a seed.
    """
    out = {}
    for cell in w.cells:
        config = harness.ExperimentConfig.from_dict(w.config(cell, reps, base_seed))
        K = config.resolve().K
        steps = post_rr = compensated = batches = 0
        for rep in range(reps):
            trace = harness.run_replication(config, rep, collect_trace=True).trace
            lengths = defaultdict(int)
            for o in trace:
                lengths[o.batch] += 1
                compensated += o.recommended != o.greedy
            steps += len(trace)
            post_rr += sum(max(0, n - K) for n in lengths.values())
            batches += len(lengths)
        out[cell] = {"steps": steps, "post_rr_steps": post_rr,
                     "compensated_steps": compensated, "batches": batches}
    return out


# -- span analysis --------------------------------------------------------


def _dur(span, scale=1.0) -> float:
    return (span[3] - span[2]) * scale


def span_metrics(w: Workload, spans: list) -> tuple[dict, dict, dict]:
    """Layer metrics, per-cell detail and per-cell exact counts from spans.

    Counts are per iteration and taken from the first traced iteration;
    every traced iteration runs the same configs, so they repeat exactly.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append(s)
    first = min((s[6] for s in spans), default=0)
    reps = by_name["harness.run_replication"]
    segments = by_name["incentive.run_segment"]
    restart_ids = {s[0] for s in by_name["restart.run_restarting"]}

    m = {}
    m["harness.resolve_ms"] = Samples.median_of(
        _dur(s, 1e3) for s in by_name["harness.resolve"])
    rep_ms = Samples.median_of(_dur(s, 1e3) for s in reps)
    m["harness.rep_ms_p50"] = rep_ms
    m["harness.rep_ms_p95"] = Samples(
        rep_ms.samples[int(0.95 * (len(reps) - 1))] if reps else 0.0, rep_ms.samples)
    busy = capacity = 0.0
    aggregate = []
    for exp in by_name["harness.run_experiment"]:
        kids = [c for c in children[exp[0]] if c[1] == "harness.run_replication"]
        busy += sum(_dur(c) for c in kids)
        capacity += exp[7]["workers"] * _dur(exp)
        if kids:
            aggregate.append((exp[3] - max(c[3] for c in kids)) * 1e3)
    m["harness.pool_eff"] = Samples(busy / capacity if capacity else 0.0)
    m["harness.aggregate_ms"] = Samples.median_of(aggregate)
    m["seeding.make_rng_us"] = Samples.median_of(
        _dur(s, 1e6) for s in by_name["seeding.make_rng"])

    steps = sum(s[7]["steps"] for s in segments)
    m["incentive.step_us"] = Samples(
        sum(_dur(s) for s in segments) / steps * 1e6 if steps else 0.0,
        [_dur(s, 1e6) / s[7]["steps"] for s in segments])
    m["restart.rebuild_us"] = Samples.median_of(
        _dur(s, 1e6) for s in by_name["policy.make_policy"] if s[4] in restart_ids)
    m["restart.rep_ms"] = Samples.median_of(
        _dur(s, 1e3) for s in by_name["restart.run_restarting"])
    mains = by_name["cli.main"]
    m["cli.main_s"] = Samples.median_of(_dur(s) for s in mains)
    m["cli.write_ms"] = Samples.median_of(
        self_time(s, [c for c in children[s[0]] if c[1] == "harness.run_experiment"]) * 1e3
        for s in mains)

    counts = {cell: {"resolve_calls": 0, "pool_chunks": 0, "restart_batches": 0,
                     "curve_bytes": 0} for cell in w.cells}
    for s in spans:
        if s[6] != first or s[5] not in counts:
            continue
        c = counts[s[5]]
        if s[1] == "harness.resolve":
            c["resolve_calls"] += 1
        elif s[1] == "harness.pool_submit":
            c["pool_chunks"] += 1
        elif s[1] == "incentive.run_segment" and s[4] in restart_ids:
            c["restart_batches"] += 1
        elif s[1] == "harness.run_replication":
            c["curve_bytes"] += s[7]["curve_bytes"]
    for name, key, scale in (("harness.resolve_calls", "resolve_calls", 1),
                             ("harness.pool_chunks", "pool_chunks", 1),
                             ("restart.batches", "restart_batches", 1),
                             ("harness.curve_mb", "curve_bytes", 1e-6)):
        m[name] = Samples(sum(c[key] for c in counts.values()) * scale)

    detail = {"harness.rep_count": Samples(len(reps))}
    for cell in w.cells:
        mine = [s for s in segments if s[5] == cell]
        n = sum(s[7]["steps"] for s in mine)
        if n:
            detail[f"incentive.{cell}.step_us"] = Samples(
                sum(_dur(s) for s in mine) / n * 1e6,
                [_dur(s, 1e6) / s[7]["steps"] for s in mine])
        rep_spans = [s for s in by_name["restart.run_restarting"] if s[5] == cell]
        if rep_spans:
            detail[f"restart.{cell}.rep_ms"] = Samples.median_of(
                _dur(s, 1e3) for s in rep_spans)
            detail[f"restart.{cell}.batches"] = Samples(counts[cell]["restart_batches"])
    return m, detail, counts
