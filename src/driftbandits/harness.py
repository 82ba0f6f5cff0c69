"""Seeded multi-replication experiment runner.

A fully serializable :class:`ExperimentConfig` names the environment
(:class:`EnvSpec`), the policy (:class:`PolicyParams`, with either explicit
``gamma``/``tau`` or the tuning constants ``gamma_c``/``tau_c`` that resolve
them from the horizon and breakpoint count), the drift model
(:class:`DriftModel`), and an optional restart schedule
(:class:`RestartParams`).  Replication ``i`` draws from a private stream
seeded by a 64-bit mix of ``(base_seed, i)``, so results are
bit-reproducible and independent of both worker count and execution order;
aggregation reduces over rep-indexed arrays with a fixed order.

Metrics per replication, named as the fields of :class:`Totals` and its curves:

* ``pseudo_regret``   ``sum_t (mu*_t - mu_t(a_t))``  (headline, low variance)
* ``realized_regret`` ``sum_t (mu*_t - X_t(a_t))``
* ``compensation``    ``sum_t chi_t``
* ``true_reward``     ``sum_t X_t(a_t)``
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .env import make_flip_env, make_sinusoidal_env, variation_of
from .incentive import CurveRecorder, DriftModel, Totals, run_incentivized
from .policy import PolicyParams, make_policy
from .restart import RestartParams, batch_size, run_restarting
from .seeding import make_rng, rep_seed

__all__ = [
    "ConfigError",
    "EnvSpec",
    "ExperimentConfig",
    "Resolved",
    "ReplicationResult",
    "ExperimentSummary",
    "GapDiagnostic",
    "ScalingReport",
    "SweepResult",
    "tuned_gamma",
    "tuned_tau",
    "build_env",
    "run_replication",
    "pool_plan",
    "run_experiment",
    "write_summary_json",
    "sweep",
    "fit_loglog",
    "scaling_probe",
    "gap_diagnostic",
    "GAMMA_C_GRID",
    "TAU_C_GRID",
    "TRACE_HEADER",
]

GAMMA_C_GRID = (10.0, 15.0, 20.0, 25.0, 30.0, 40.0)
TAU_C_GRID = (0.9, 0.95, 1.0, 2.0)

# Per-replication metrics: the run totals, and the per-step curves of them.
METRIC_NAMES = Totals._fields

TRACE_HEADER = (
    "rep,t,batch,arm,greedy,comp,drift,true_reward,obs_reward,"
    "cum_pseudo_regret,cum_realized_regret,cum_comp"
)


class ConfigError(ValueError):
    """Invalid configuration; ``key`` is the dotted path of the offender."""

    def __init__(self, key: str, message: str):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")

    def __reduce__(self):  # crosses the process pool intact
        return type(self), (self.key, self.message)


# ---------------------------------------------------------------------------
# parameter tuning formulas


def tuned_gamma(beta_T: int, T: int, gamma_c: float) -> float:
    """Discount ``1 - (1/gamma_c) * sqrt(beta_T / T)``, clamped into (0, 1)."""
    if beta_T < 1:
        raise ValueError("beta_T must be >= 1 (use 1 when there are no breakpoints)")
    if T < 2:
        raise ValueError("T must be >= 2")
    if gamma_c <= 0:
        raise ValueError("gamma_c must be positive")
    g = 1.0 - math.sqrt(beta_T / T) / gamma_c
    return min(max(g, 1e-9), 1.0 - 1e-12)


def tuned_tau(beta_T: int, T: int, tau_c: float) -> int:
    """Window ``floor(tau_c * sqrt(T ln T / beta_T))``, clamped into [1, T]."""
    if beta_T < 1:
        raise ValueError("beta_T must be >= 1 (use 1 when there are no breakpoints)")
    if T < 2:
        raise ValueError("T must be >= 2")
    if tau_c <= 0:
        raise ValueError("tau_c must be positive")
    tau = math.floor(tau_c * math.sqrt(T * math.log(T) / beta_T))
    return max(1, min(tau, T))


# ---------------------------------------------------------------------------
# configuration schema


_REQUIRED = object()  # schema default of a key that must be present


def _get(d: dict, path: str, key: str, kind, default=_REQUIRED):
    where = f"{path}.{key}" if path else key
    if key not in d or d[key] is None:
        if default is _REQUIRED:
            raise ConfigError(where, "missing required key")
        return default
    v = d[key]
    if kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(where, f"expected a number, got {v!r}")
        if not math.isfinite(v):
            raise ConfigError(where, f"expected a finite number, got {v!r}")
        return float(v)
    if kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(where, f"expected an integer, got {v!r}")
        return v
    if kind is bool:
        if not isinstance(v, bool):
            raise ConfigError(where, f"expected a boolean, got {v!r}")
        return v
    if kind is str:
        if not isinstance(v, str):
            raise ConfigError(where, f"expected a string, got {v!r}")
        return v
    raise AssertionError(kind)


@dataclass(frozen=True)
class EnvSpec:
    """Which environment generator to run and its parameters."""

    kind: str  # "flip" | "sinusoidal"
    T: int
    segments: int | None = None  # flip: number of stationary segments
    hi: float | None = None
    lo: float | None = None
    budget: float | None = None  # sinusoidal: variation budget V_T
    amplitude: float | None = None
    active_fraction: float | None = None

    @property
    def beta_T(self) -> int:
        """Breakpoint count (at least 1, for the tuning formulas)."""
        if self.kind == "flip":
            return max(1, self.segments - 1)
        return 1


# Config sections: section -> (type, default kind, kind -> key -> (type,
# default)).  A section without kinds has the single kind ``None``.  A key is
# accepted exactly when it is listed for the section's kind, and it is
# written back out exactly then.
_SCHEMA = {
    "env": (EnvSpec, _REQUIRED, {
        "flip": {"T": (int, _REQUIRED), "segments": (int, 2),
                 "hi": (float, 0.99), "lo": (float, 0.01)},
        "sinusoidal": {"T": (int, _REQUIRED), "budget": (float, 3.0),
                       "amplitude": (float, 0.3), "active_fraction": (float, 1.0)},
    }),
    "policy": (PolicyParams, _REQUIRED, {
        "ucb1": {},
        "ducb": {"xi": (float, 0.6), "gamma": (float, None), "gamma_c": (float, None)},
        "swucb": {"xi": (float, 0.6), "tau": (int, None), "tau_c": (float, None)},
        "eps_greedy": {"eps_c": (float, 5.0)},
        "thompson": {"prior_a": (float, 1.0), "prior_b": (float, 1.0)},
    }),
    "drift": (DriftModel, "linear", {
        "linear": {"l": (float, 0.0)},
        "saturating": {"l": (float, 0.0), "cap": (float, _REQUIRED)},
    }),
    "restart": (RestartParams, None, {
        None: {"sigma": (int, None), "lam": (float, 1.0)},
    }),
}


def _parse_section(section: str, d):
    cls, default_kind, kinds = _SCHEMA[section]
    if not isinstance(d, dict):
        raise ConfigError(section, "expected an object")
    fields = {}
    kind = None
    if default_kind is not None:
        kind = fields["kind"] = _get(d, section, "kind", str, default_kind)
        if kind not in kinds:
            raise ConfigError(f"{section}.kind", f"unknown {section} kind {kind!r}")
    keys = kinds[kind]
    for k in d:
        if k not in keys and k not in fields:  # fields holds "kind" at most
            raise ConfigError(f"{section}.{k}", "unknown key")
    for k, (kind_of, default) in keys.items():
        fields[k] = _get(d, section, k, kind_of, default)
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from exc


def _dump_section(section: str, obj) -> dict:
    kinds = _SCHEMA[section][2]
    kind = getattr(obj, "kind", None)
    out = {} if kind is None else {"kind": kind}
    out.update((k, getattr(obj, k)) for k in kinds[kind])
    return out


@lru_cache(maxsize=64)
def build_env(spec: EnvSpec):
    """Construct (and memoize per process) the immutable environment."""
    try:
        if spec.kind == "flip":
            return make_flip_env(spec.T, spec.segments, spec.hi, spec.lo)
        return make_sinusoidal_env(
            spec.T, spec.budget, spec.amplitude, spec.active_fraction
        )
    except ValueError as exc:
        raise ConfigError("env", str(exc)) from exc


@dataclass(frozen=True)
class Resolved:
    """Concrete run parameters after applying the tuning formulas."""

    T: int
    K: int
    beta_T: int
    variation: float
    gamma: float | None
    tau: int | None
    sigma: int | None
    lam: float | None
    policy_params: PolicyParams = field(compare=False)
    drift_model: DriftModel = field(compare=False)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, losslessly serializable description of one experiment."""

    env: EnvSpec
    policy: PolicyParams
    drift: DriftModel
    restart: RestartParams | None
    reps: int
    base_seed: int
    trace: bool = False

    def __post_init__(self):
        if self.reps < 1:
            raise ConfigError("reps", f"must be >= 1, got {self.reps}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("", "config must be a JSON object")
        for k in d:
            if k not in _SCHEMA and k not in ("reps", "base_seed", "trace"):
                raise ConfigError(k, "unknown key")
        for k in ("env", "policy"):
            if k not in d:
                raise ConfigError(k, "missing required key")
        env = _parse_section("env", d["env"])
        policy = _parse_section("policy", d["policy"])
        if policy.kind == "ducb" and policy.gamma is None and policy.gamma_c is None:
            raise ConfigError("policy.gamma", "ducb needs gamma or gamma_c")
        if policy.kind == "swucb" and policy.tau is None and policy.tau_c is None:
            raise ConfigError("policy.tau", "swucb needs tau or tau_c")
        drift, restart = d.get("drift"), d.get("restart")
        drift = DriftModel() if drift is None else _parse_section("drift", drift)
        restart = None if restart is None else _parse_section("restart", restart)
        reps = _get(d, "", "reps", int, 1)
        base_seed = _get(d, "", "base_seed", int, 0)
        trace = _get(d, "", "trace", bool, False)
        return cls(env, policy, drift, restart, reps, base_seed, trace)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return {
            "env": _dump_section("env", self.env),
            "policy": _dump_section("policy", self.policy),
            "drift": _dump_section("drift", self.drift),
            "restart": _dump_section("restart", self.restart) if self.restart else None,
            "reps": self.reps,
            "base_seed": self.base_seed,
            "trace": self.trace,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def with_overrides(self, assignments: dict) -> "ExperimentConfig":
        """New config with dotted-path keys replaced, then fully revalidated.

        Unknown keys and type mismatches surface as :class:`ConfigError`
        through the re-parse, with the offending dotted path in the message.
        """
        d = self.to_dict()
        for dotted, value in assignments.items():
            parts = dotted.split(".")
            node = d
            for p in parts[:-1]:
                if not isinstance(node, dict):
                    raise ConfigError(dotted, "unknown key")
                nxt = node.get(p)
                if nxt is None:
                    nxt = node[p] = {}
                node = nxt
            if not isinstance(node, dict):
                raise ConfigError(dotted, "unknown key")
            node[parts[-1]] = value
        return ExperimentConfig.from_dict(d)

    def resolve(self) -> Resolved:
        """Apply tuning formulas and environment measurements."""
        envobj = build_env(self.env)
        T, K = envobj.T, envobj.K
        beta = self.env.beta_T
        gamma = tau = None
        p = self.policy
        tuned = (p.kind == "ducb" and p.gamma is None) or (
            p.kind == "swucb" and p.tau is None
        )
        if tuned and T < 2:
            raise ConfigError("env.T", f"a tuning constant needs T >= 2, got {T}")
        if p.kind == "ducb":
            gamma = p.gamma if p.gamma is not None else tuned_gamma(beta, T, p.gamma_c)
        elif p.kind == "swucb":
            tau = p.tau if p.tau is not None else tuned_tau(beta, T, p.tau_c)
        sigma = lam = None
        if self.restart is not None:
            sigma, lam = self.restart.sigma, self.restart.lam
            if sigma is None:
                budget = variation_of(envobj) if envobj.budget is None else envobj.budget
                try:
                    sigma = batch_size(T, budget, K, lam)
                except ValueError as exc:
                    raise ConfigError("restart.sigma", str(exc)) from exc
            elif sigma > T:
                raise ConfigError("restart.sigma", f"must lie in [1, {T}]")
        return Resolved(
            T=T,
            K=K,
            beta_T=beta,
            variation=variation_of(envobj),
            gamma=gamma,
            tau=tau,
            sigma=sigma,
            lam=lam,
            policy_params=replace(p, gamma=gamma, tau=tau),
            drift_model=self.drift,
        )


# ---------------------------------------------------------------------------
# replication execution


@dataclass
class ReplicationResult:
    """One replication's :class:`Totals`, plus optional curves and step records."""

    pseudo_regret: float
    realized_regret: float
    compensation: float
    true_reward: float
    curves: dict | None = None
    trace: list | None = None


def run_replication(
    config: ExperimentConfig,
    rep_index: int,
    collect_curves: bool = False,
    collect_trace: bool = False,
) -> ReplicationResult:
    """Execute one replication under its private deterministic stream."""
    resolved = config.resolve()
    envobj = build_env(config.env)
    rng = make_rng(config.base_seed, rep_index)
    recorder = (
        CurveRecorder(steps=collect_trace) if collect_curves or collect_trace else None
    )
    try:
        if resolved.sigma is not None:
            totals = run_restarting(envobj, resolved.sigma, resolved.policy_params,
                                    resolved.drift_model, rng, curves=recorder)
        else:
            policy = make_policy(resolved.policy_params, resolved.K)
            totals = run_incentivized(envobj, policy, resolved.drift_model, rng,
                                      curves=recorder)
    except ValueError as exc:
        # True rewards are 0 or 1, so a step check only fails once the drift
        # term l * chi (or a sum of drifted rewards) has left the float range.
        raise ConfigError("drift.l", f"drift overflows at run time ({exc})") from exc
    curves = None
    if collect_curves:
        curves = {name: np.asarray(getattr(recorder, name)) for name in METRIC_NAMES}
    return ReplicationResult(*totals, curves, recorder.steps if collect_trace else None)


def _run_chunk(config: ExperimentConfig, rep_indices: list, collect_curves: bool):
    return [run_replication(config, rep, collect_curves) for rep in rep_indices]


@dataclass
class ExperimentSummary:
    """Aggregate over replications, plus what produced it."""

    config: ExperimentConfig
    resolved: Resolved
    reps: int
    mean: dict
    stderr: dict
    rep_values: dict  # metric -> np.ndarray indexed by replication
    curve_mean: dict | None = None
    curve_stderr: dict | None = None

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "resolved": {
                "T": self.resolved.T,
                "K": self.resolved.K,
                "beta_T": self.resolved.beta_T,
                "variation": self.resolved.variation,
                "gamma": self.resolved.gamma,
                "tau": self.resolved.tau,
                "sigma": self.resolved.sigma,
                "lam": self.resolved.lam,
                "base_seed": self.config.base_seed,
                "seed_scheme": "splitmix64(splitmix64(base_seed) xor (rep+1))",
                "first_rep_seed": rep_seed(self.config.base_seed, 0),
            },
            "reps": self.reps,
            "metrics": {
                name: {"mean": self.mean[name], "stderr": self.stderr[name]}
                for name in METRIC_NAMES
            },
        }


def _stderr(values: np.ndarray) -> float:
    n = values.size
    if n < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(n))


def pool_plan(
    reps: int, workers: int, cpus: int, collect_curves: bool
) -> tuple[int, list]:
    """Pool size and the rep-index chunks it runs, in submission order.

    ``workers`` is clamped to ``cpus`` before sizing the chunks, and the pool
    to the number of chunks, so a large request starts no more processes
    than can run at once.  A pool size of 1 means: run in-process.
    """
    workers = min(workers, cpus)
    chunk = max(1, math.ceil(reps / (workers * 4)))
    if collect_curves:
        chunk = min(chunk, 64)
    ranges = [list(range(i, min(i + chunk, reps))) for i in range(0, reps, chunk)]
    return max(1, min(workers, len(ranges))), ranges


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    collect_curves: bool = False,
    trace_path=None,
) -> ExperimentSummary:
    """Run all replications and aggregate.

    The reduction is over arrays indexed by replication, with chunks
    consumed in submission order, so the result is identical for any
    ``workers`` value.  When ``config.trace`` is on, replications run
    serially and stream rows to the trace CSV at ``trace_path``; a traced
    config without a ``trace_path`` is refused.
    """
    if workers < 1:
        raise ConfigError("workers", f"must be >= 1, got {workers}")
    if config.trace and trace_path is None:
        raise ConfigError("trace", "needs a trace path; only `run` writes trace.csv")
    resolved = config.resolve()  # validate before spawning anything
    reps = config.reps
    pool, ranges = pool_plan(reps, workers, os.cpu_count() or 1, collect_curves)
    values = {name: np.empty(reps) for name in METRIC_NAMES}
    curve_sum = curve_sumsq = None
    with ExitStack() as stack:
        if config.trace:
            writer = csv.writer(stack.enter_context(open(trace_path, "w", newline="")))
            writer.writerow(TRACE_HEADER.split(","))
        if config.trace or pool == 1:
            results = (
                run_replication(config, rep, collect_curves, config.trace)
                for rep in range(reps)
            )
        else:
            ex = stack.enter_context(ProcessPoolExecutor(max_workers=pool))
            futures = [ex.submit(_run_chunk, config, r, collect_curves) for r in ranges]
            # submission order => deterministic reduction
            results = (res for fut in futures for res in fut.result())
        for rep, res in enumerate(results):
            for name in METRIC_NAMES:
                values[name][rep] = getattr(res, name)
            if collect_curves:
                if curve_sum is None:
                    curve_sum = {k: np.zeros_like(res.curves[k]) for k in METRIC_NAMES}
                    curve_sumsq = {k: np.zeros_like(res.curves[k]) for k in METRIC_NAMES}
                for k in METRIC_NAMES:
                    curve_sum[k] += res.curves[k]
                    curve_sumsq[k] += res.curves[k] ** 2
            if config.trace:
                writer.writerows((rep, *step) for step in res.trace)

    mean = {name: float(np.mean(values[name])) for name in METRIC_NAMES}
    stderr = {name: _stderr(values[name]) for name in METRIC_NAMES}
    curve_mean = curve_stderr = None
    if collect_curves and curve_sum is not None:
        curve_mean, curve_stderr = {}, {}
        for k in METRIC_NAMES:
            m = curve_sum[k] / reps
            curve_mean[k] = m
            if reps > 1:
                var = np.maximum(curve_sumsq[k] / reps - m**2, 0.0) * reps / (reps - 1)
                curve_stderr[k] = np.sqrt(var / reps)
            else:
                curve_stderr[k] = np.zeros_like(m)
    return ExperimentSummary(
        config, resolved, reps, mean, stderr, values, curve_mean, curve_stderr
    )


def write_summary_json(summary: ExperimentSummary, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweeps, scaling probes, diagnostics


@dataclass
class SweepPoint:
    value: float
    pseudo_regret: float
    compensation: float


@dataclass
class SweepResult:
    param: str  # "gamma_c" | "tau_c"
    points: list
    best: SweepPoint
    best_summary: ExperimentSummary


def sweep(config: ExperimentConfig, values=None, workers: int = 1) -> SweepResult:
    """Grid the tuning constant of the config's policy; argmin mean regret.

    The argmin is strict-first over the given order, so adding a dominated
    point never changes the winner.
    """
    kind = config.policy.kind
    if kind == "ducb":
        explicit, param, grid = "gamma", "gamma_c", GAMMA_C_GRID
    elif kind == "swucb":
        explicit, param, grid = "tau", "tau_c", TAU_C_GRID
    else:
        raise ConfigError("policy.kind", f"sweep tunes ducb or swucb, not {kind!r}")
    values = grid if values is None else tuple(values)
    if not values:
        raise ConfigError("sweep", "grid must be nonempty")
    trials = [  # every grid point is validated before the first one runs
        config.with_overrides({f"policy.{explicit}": None, f"policy.{param}": v})
        for v in values
    ]
    points = []
    best = best_summary = None
    for v, trial in zip(values, trials):
        summary = run_experiment(trial, workers=workers)
        point = SweepPoint(
            float(v), summary.mean["pseudo_regret"], summary.mean["compensation"]
        )
        points.append(point)
        if best is None or point.pseudo_regret < best.pseudo_regret:
            best, best_summary = point, summary
    return SweepResult(param, points, best, best_summary)


def fit_loglog(xs, ys) -> float:
    """Least-squares slope of ``ln y`` against ``ln x``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or np.unique(xs).size < 2:
        raise ValueError("need at least two points with distinct x")
    if (xs <= 0).any() or (ys <= 0).any() or not np.isfinite(ys).all():
        raise ValueError("degenerate fit: all points must be positive and finite")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


@dataclass
class ScalingReport:
    family: str
    policy: str
    horizons: list
    regret_means: list
    compensation_means: list
    regret_slope: float
    compensation_slope: float


def scaling_probe(
    family: str,
    horizons,
    policy_kind: str = "ducb",
    reps: int = 200,
    base_seed: int = 0,
    drift_l: float = 0.4,
    workers: int = 1,
) -> ScalingReport:
    """Fit the log-log growth of mean regret/compensation against T.

    ``family="flip"`` runs the single-breakpoint abrupt environment with the
    policy's tuning formula applied at each horizon; ``family="sinusoidal"``
    runs the restarting scheduler on drift with variation budget 3.
    """
    horizons = sorted(int(t) for t in horizons)
    if len(horizons) < 3 or len(set(horizons)) < len(horizons):
        raise ConfigError("horizons", f"need 3 or more, all distinct, got {horizons}")
    regret_means, comp_means = [], []
    for T in horizons:
        if family == "flip":
            envspec = EnvSpec(kind="flip", T=T, segments=2, hi=0.99, lo=0.01)
            restart = None
        elif family == "sinusoidal":
            envspec = EnvSpec(
                kind="sinusoidal", T=T, budget=3.0, amplitude=0.3, active_fraction=1.0
            )
            restart = RestartParams(sigma=None, lam=1.0)
        else:
            raise ValueError(f"unknown scaling family {family!r}")
        if policy_kind == "ducb":
            pol = PolicyParams(kind="ducb", gamma_c=15.0)
        elif policy_kind == "swucb":
            pol = PolicyParams(kind="swucb", tau_c=1.0)
        else:
            pol = PolicyParams(kind=policy_kind)
        config = ExperimentConfig(
            env=envspec,
            policy=pol,
            drift=DriftModel("linear", drift_l),
            restart=restart,
            reps=reps,
            base_seed=base_seed,
        )
        summary = run_experiment(config, workers=workers)
        regret_means.append(summary.mean["pseudo_regret"])
        comp_means.append(summary.mean["compensation"])
    return ScalingReport(
        family,
        policy_kind,
        horizons,
        regret_means,
        comp_means,
        fit_loglog(horizons, regret_means),
        fit_loglog(horizons, comp_means),
    )


@dataclass
class GapDiagnostic:
    """Measured batch gaps and near-tie counts of a schedule."""

    sigma: int
    epsilon: float
    delta: np.ndarray  # (batches, K) average per-batch gaps
    m_hat: float
    near_tie_count: int
    alpha: float


def gap_diagnostic(envobj, sigma: int, epsilon: float) -> GapDiagnostic:
    """Batch-average gaps, their floor, and the near-tie growth exponent.

    ``delta[j, a]`` averages ``mu*_t - mu_t(a)`` over batch ``j`` (always
    dividing by ``sigma``, also for a truncated final batch).  ``m_hat`` is
    the smallest batch gap after excluding each batch's best arm.  The
    near-tie count tallies ordered pairs with ``mu_t(a) - mu_t(b) <= eps``;
    ``alpha`` is the least exponent with ``count <= T**alpha``.
    """
    if sigma < 1:
        raise ValueError("sigma must be >= 1")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    sched = envobj.schedule if hasattr(envobj, "schedule") else envobj
    means = sched.means
    T, K = means.shape
    best = means.max(axis=1)
    gaps = best[:, None] - means  # (T, K), >= 0
    m = math.ceil(T / sigma)
    delta = np.empty((m, K))
    for j in range(m):
        seg = gaps[j * sigma : min(T, (j + 1) * sigma)]
        for a in range(K):
            delta[j, a] = math.fsum(seg[:, a].tolist()) / sigma
    # smallest gap among arms other than each batch's best one
    m_hat = math.inf
    for j in range(m):
        drop = int(np.argmin(delta[j]))
        rest = [delta[j, a] for a in range(K) if a != drop]
        m_hat = min(m_hat, min(rest))
    count = 0
    for a in range(K):
        for b in range(K):
            if a != b:
                count += int(np.count_nonzero(means[:, a] - means[:, b] <= epsilon))
    if count == 0:
        alpha = 0.0
    elif T == 1:
        alpha = 1.0
    else:
        alpha = max(0.0, math.log(count) / math.log(T))
    return GapDiagnostic(sigma, epsilon, delta, float(m_hat), count, alpha)
