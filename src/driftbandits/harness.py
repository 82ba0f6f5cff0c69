"""Seeded multi-replication experiment runner.

A fully serializable :class:`ExperimentConfig` names the environment
(:class:`EnvSpec`), the policy (:class:`PolicyParams`), the drift model
(:class:`DriftModel`) and an optional restart schedule (:class:`RestartParams`);
every default lives on these dataclasses.  DUCB/SWUCB take an explicit
``gamma``/``tau`` or a constant that ``_TUNING`` turns into one from the horizon
and breakpoint count.  The preset experiments (``flip_config``,
``sinusoidal_config``) live here too.  Replication ``i`` draws from a private
stream seeded by a 64-bit mix of ``(base_seed, i)``, so results are
bit-reproducible and independent of both worker count and execution order.
Every engine hands the fold one unit, a ``Block`` of reps: their (4, n)
totals and, with curves, the (2, 4, T) sum and sum of squares of their
curves, added in rep order where the block is made.  ``run_experiments``
runs the blocks of any number of configs, on one process pool at most.

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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .env import make_flip_env, make_sinusoidal_env, variation_of
from .incentive import CurveRecorder, DriftModel, Totals, run_incentivized
from .lockstep import LANE_BYTES, LOCKSTEP_KINDS, capacity, run_block
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
    "ScalingReport",
    "SweepResult",
    "tuned_gamma",
    "tuned_tau",
    "build_env",
    "run_replication",
    "run_experiment",
    "run_experiments",
    "write_summary_json",
    "sweep",
    "fit_loglog",
    "scaling_probe",
    "GAMMA_C_GRID",
    "TAU_C_GRID",
    "TRACE_HEADER",
    "DEFAULT_DRIFT_L",
    "DEFAULT_SEED",
    "FIG2_TUNING",
    "flip_config",
    "sinusoidal_config",
    "preset_policy",
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


def _check_tuning(beta_T: int, T: int, constant: float, name: str) -> None:
    if beta_T < 1:
        raise ValueError("beta_T must be >= 1 (use 1 when there are no breakpoints)")
    if T < 2:
        raise ValueError("T must be >= 2")
    if constant <= 0:
        raise ValueError(f"{name} must be positive")


def tuned_gamma(beta_T: int, T: int, gamma_c: float) -> float:
    """Discount ``1 - (1/gamma_c) * sqrt(beta_T / T)``, clamped into (0, 1)."""
    _check_tuning(beta_T, T, gamma_c, "gamma_c")
    g = 1.0 - math.sqrt(beta_T / T) / gamma_c
    return min(max(g, 1e-9), 1.0 - 1e-12)


def tuned_tau(beta_T: int, T: int, tau_c: float) -> int:
    """Window ``floor(tau_c * sqrt(T ln T / beta_T))``, clamped into [1, T]."""
    _check_tuning(beta_T, T, tau_c, "tau_c")
    # clamp before the floor: a huge tau_c makes the product inf
    return max(1, math.floor(min(tau_c * math.sqrt(T * math.log(T) / beta_T), T)))


# ---------------------------------------------------------------------------
# configuration schema


_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean", str: "a string",
               dict: "an object"}


def _get(d: dict, path: str, key: str, kind, default=MISSING):
    where = f"{path}.{key}" if path else key
    if key not in d or d[key] is None:
        if default is MISSING:
            raise ConfigError(where, "missing required key")
        return default
    v = d[key]
    # bool is an int subclass, so it is accepted only where a bool is asked for
    if isinstance(v, bool) != (kind is bool) or not isinstance(
        v, (int, float) if kind is float else kind
    ):
        raise ConfigError(where, f"expected {_TYPE_NAMES[kind]}, got {v!r}")
    if kind is float:
        if not math.isfinite(v):
            raise ConfigError(where, f"expected a finite number, got {v!r}")
        return float(v)
    return v


@dataclass(frozen=True)
class EnvSpec:
    """Which environment generator to run and its parameters."""

    kind: str  # "flip" | "sinusoidal"
    T: int
    segments: int = 2  # flip: number of stationary segments
    hi: float = 0.99
    lo: float = 0.01
    budget: float = 3.0  # sinusoidal: variation budget V_T
    amplitude: float = 0.3
    active_fraction: float = 1.0


# Config sections: section -> (type, kind -> key -> type).  A section without
# kinds has the single kind ``None``; a missing ``kind`` takes the type's
# default.  A key is accepted exactly when it is listed for the section's
# kind, and it is written back out exactly then.  An absent key takes its
# field's default, and is required when the field has none.  The env keys
# are listed in the order their generator takes them.
_SCHEMA = {
    "env": (EnvSpec, {
        "flip": {"T": int, "segments": int, "hi": float, "lo": float},
        "sinusoidal": {"T": int, "budget": float, "amplitude": float,
                       "active_fraction": float},
    }),
    "policy": (PolicyParams, {
        "ucb1": {},
        "ducb": {"xi": float, "gamma": float, "gamma_c": float},
        "swucb": {"xi": float, "tau": int, "tau_c": float},
        "eps_greedy": {"eps_c": float},
        "thompson": {"prior_a": float, "prior_b": float},
    }),
    "drift": (DriftModel, {
        "linear": {"l": float},
        "saturating": {"l": float, "cap": float},
    }),
    "restart": (RestartParams, {
        None: {"sigma": int, "lam": float},
    }),
}

# Top-level config keys -> type, in ExperimentConfig field order.
_TOP_KEYS = {**dict.fromkeys(_SCHEMA, dict), "reps": int, "base_seed": int, "trace": bool}

# Tuned policy kinds: kind -> (explicit key, tuning-constant key, the formula
# that turns the constant into the explicit value, the sweep grid).
_TUNING = {
    "ducb": ("gamma", "gamma_c", tuned_gamma, GAMMA_C_GRID),
    "swucb": ("tau", "tau_c", tuned_tau, TAU_C_GRID),
}

# Keys a kind cannot run without, any one of a group will do: a tuned kind
# needs its explicit key or its constant.
_NEEDS = {**{kind: tuning[:2] for kind, tuning in _TUNING.items()}, "saturating": ("cap",)}


def _check_needs(section: str, kind, value_of) -> None:
    group = _NEEDS.get(kind)
    if group and all(value_of(k) is None for k in group):
        raise ConfigError(f"{section}.{group[0]}", f"{kind} needs {' or '.join(group)}")


def _parse_section(section: str, d: dict):
    cls, kinds = _SCHEMA[section]
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    kind = None
    if "kind" in defaults:
        kind = values["kind"] = _get(d, section, "kind", str, defaults["kind"])
        if kind not in kinds:
            raise ConfigError(f"{section}.kind", f"unknown {section} kind {kind!r}")
    keys = kinds[kind]
    for k in d:
        if k not in keys and k not in values:  # values holds "kind" at most
            raise ConfigError(f"{section}.{k}", "unknown key")
    for k, kind_of in keys.items():
        values[k] = _get(d, section, k, kind_of, defaults[k])
    _check_needs(section, kind, values.get)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from exc


def _dump_section(section: str, obj) -> dict:
    kinds = _SCHEMA[section][1]
    kind = getattr(obj, "kind", None)
    out = {} if kind is None else {"kind": kind}
    out.update((k, getattr(obj, k)) for k in kinds.get(kind, ()))
    return out


_held_env = None, None  # (spec, environment) of the one environment a process holds


def build_env(spec: EnvSpec):
    """The immutable environment of ``spec``.  A process holds the last one
    it built and drops it before building another, so a command holds one
    schedule at a time, as ``_check_memory`` charges it."""
    global _held_env
    if _held_env[0] != spec:
        _held_env = None, None  # drop the old schedule before building the next
        try:
            make = make_flip_env if spec.kind == "flip" else make_sinusoidal_env
            _held_env = spec, make(*(getattr(spec, k) for k in _SCHEMA["env"][1][spec.kind]))
        except ValueError as exc:
            raise ConfigError("env", str(exc)) from exc
    return _held_env[1]


@dataclass(frozen=True)
class Resolved:
    """Concrete run parameters after applying the tuning formulas."""

    # summary.json records the compared fields

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


# What a run holds at once: the schedule and its per-step views at their
# peak while ``build_env`` makes them, per environment family at K = 2 (a
# flip schedule 152 B per step, of which it holds 32 once built, since a run
# of equal rows is one object; a sinusoidal one 208 B; a kernel segment
# shorter than the horizon copies its steps' views, 16 B per step, and
# stays below that peak), the (4, reps) totals (32 B per rep), for a kind
# with a lockstep engine one block's stored step outputs (at most
# LANE_BYTES), and with curves 320 B per step (a kernel replication's curve
# lists and arrays, a block's and the fold's (2, 4, T) sums, and the mean
# and stderr curves).  All measured with tracemalloc at T = 100,000 and
# 200,000.  The kinds of LOCKSTEP_KINDS also hold a count-term table
# (``incentive._count_terms``, up to 32 B per step), which outlives its run
# and so may be held while the next schedule is built: a UCB1, DUCB or
# eps-greedy kernel rep at T = 200,000 peaks at 184 B per step (flip) and
# 240 B (sinusoidal) with a table held and at 152 and 208 B without, and at
# 353 and 481 B with curves (321 and 449 B without a table), hence
# TABLE_BYTES.  A traced replication holds its step records and curve lists
# until its rows are written: at most 334 B per step at its peak over an
# untraced one, on either family, hence TRACE_BYTES.
# A config that needs more than MEMORY_LIMIT bytes is refused, naming the
# larger of its per-step and per-rep terms; the limit is fixed, so the
# refusal is the same on every host.
STEP_BYTES = {"flip": 153, "sinusoidal": 209}
REP_BYTES, CURVE_BYTES, TABLE_BYTES, TRACE_BYTES = 32, 320, 32, 335
MEMORY_LIMIT = 2**30
# A command whose configs take more than WORK_LIMIT steps in all (reps * T,
# summed over them) is refused naming ``reps``, also fixed for every host; the
# largest built-in target, ``reproduce table3``, takes 2.1e8.
WORK_LIMIT = 10**10


def _check_memory(config, collect_curves: bool = False) -> None:
    T, reps = config.env.T, config.reps
    # the sample-mean kinds hold a count-term table and one lockstep block
    table, blocks = (TABLE_BYTES, LANE_BYTES) if config.policy.kind in LOCKSTEP_KINDS else (0, 0)
    steps = (STEP_BYTES[config.env.kind] + table + (CURVE_BYTES if collect_curves else 0)
             + (TRACE_BYTES if config.trace else 0)) * T
    totals = REP_BYTES * reps
    if steps + totals + blocks > MEMORY_LIMIT:
        raise ConfigError(
            "env.T" if steps >= totals else "reps",
            f"T={T} and reps={reps}{' with curves' if collect_curves else ''}"
            f"{' traced' if config.trace else ''} need about "
            f"{(steps + totals + blocks) / 2**30:.3g} GiB, "
            f"over the {MEMORY_LIMIT / 2**30:g} GiB limit")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, losslessly serializable description of one experiment."""

    env: EnvSpec
    policy: PolicyParams
    drift: DriftModel = DriftModel()
    restart: RestartParams | None = None
    reps: int = 1
    base_seed: int = 0
    trace: bool = False

    def __post_init__(self):
        # A config built in code meets the parser's checks and is stored as its
        # parsed twin is: each value as its type, each section written out and parsed back.
        for k, kind_of in _TOP_KEYS.items():
            v = getattr(self, k)
            if kind_of is not dict:
                v = _get({k: v}, "", k, kind_of)
            elif v is not None or k != "restart":  # only restart is optional
                if not isinstance(v, _SCHEMA[k][0]):
                    raise ConfigError(k, f"expected {_SCHEMA[k][0].__name__}, got {v!r}")
                v = _parse_section(k, _dump_section(k, v))
            object.__setattr__(self, k, v)
        if self.reps < 1:
            raise ConfigError("reps", f"must be >= 1, got {self.reps}")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError("config", "must be a JSON object")
        for k in d:
            if k not in _TOP_KEYS:
                raise ConfigError(k, "unknown key")
        defaults = {f.name: f.default for f in fields(cls)}
        values = {k: _get(d, "", k, kind_of, defaults[k]) for k, kind_of in _TOP_KEYS.items()}
        for section in _SCHEMA:
            if isinstance(values[section], dict):
                values[section] = _parse_section(section, values[section])
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in _TOP_KEYS}
        for section in _SCHEMA:
            if d[section] is not None:
                d[section] = _dump_section(section, d[section])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def with_overrides(self, assignments: dict) -> "ExperimentConfig":
        """New config with ``key`` or ``section.key`` values replaced, revalidated.

        An override of a section's ``kind`` keeps only the old keys that the
        new kind accepts.  Any other path is refused by name, and unknown keys
        and type mismatches surface as :class:`ConfigError` through the re-parse.
        """
        d = self.to_dict()
        for section, (_, kinds) in _SCHEMA.items():
            kind = assignments.get(f"{section}.kind")
            if isinstance(kind, str) and kind in kinds:
                d[section] = {k: v for k, v in d[section].items() if k in kinds[kind]}
        for dotted, value in assignments.items():
            section, dot, key = dotted.partition(".")
            if not dot:
                d[dotted] = value
            elif (section in _SCHEMA and "." not in key
                  and isinstance(d[section], (dict, type(None)))):
                d[section] = {**(d[section] or {}), key: value}
            else:
                raise ConfigError(dotted, "unknown key")
        return ExperimentConfig.from_dict(d)

    def resolve(self) -> Resolved:
        """Apply tuning formulas and environment measurements."""
        _check_memory(self)
        envobj = build_env(self.env)
        T, K = envobj.T, envobj.K
        beta = max(1, envobj.beta)  # the tuning formulas need at least 1
        p = self.policy
        tuned = {"gamma": None, "tau": None}
        if p.kind in _TUNING:
            explicit, constant, formula, _ = _TUNING[p.kind]
            value = getattr(p, explicit)
            if value is None:
                if T < 2:
                    raise ConfigError("env.T", f"a tuning constant needs T >= 2, got {T}")
                value = formula(beta, T, getattr(p, constant))
            tuned[explicit] = value
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
            gamma=tuned["gamma"],
            tau=tuned["tau"],
            sigma=sigma,
            lam=lam,
            policy_params=replace(p, **tuned),
            drift_model=self.drift,
        )


# ---------------------------------------------------------------------------
# preset experiments

# Default linear drift slope for the preset experiments.  The reference
# results do not pin the drift function; this value was calibrated against
# the reference tables and sits inside the sensitivity band swept by
# tests/test_acceptance.py.
DEFAULT_DRIFT_L = 0.4

DEFAULT_SEED = 20240601

# Tuning constants of the reference table's single-breakpoint row, run by
# ``reproduce fig2`` and the scaling probe.
FIG2_TUNING = {"gamma_c": 15.0, "tau_c": 1.0}


def preset_policy(kind: str, tuning: dict = FIG2_TUNING) -> PolicyParams:
    """Policy ``kind``; a tuned kind takes its tuning constant from ``tuning``."""
    constant = _TUNING[kind][1] if kind in _TUNING else None
    return PolicyParams(kind=kind, **({constant: tuning[constant]} if constant else {}))


def flip_config(
    beta: int,
    policy: PolicyParams,
    T: int = 5000,
    reps: int = 100,
    base_seed: int = DEFAULT_SEED,
    drift_l: float = DEFAULT_DRIFT_L,
) -> ExperimentConfig:
    """Preset abrupt-environment experiment with ``beta`` breakpoints."""
    return ExperimentConfig(
        env=EnvSpec(kind="flip", T=T, segments=beta + 1),
        policy=policy,
        drift=DriftModel("linear", drift_l),
        restart=None,
        reps=reps,
        base_seed=base_seed,
    )


def sinusoidal_config(
    budget: float,
    policy: PolicyParams,
    T: int = 5000,
    reps: int = 2000,
    base_seed: int = DEFAULT_SEED,
    drift_l: float = DEFAULT_DRIFT_L,
    lam: float = 1.0,
) -> ExperimentConfig:
    """Preset drifting-environment experiment under the restart scheduler."""
    return ExperimentConfig(
        env=EnvSpec(kind="sinusoidal", T=T, budget=budget),
        policy=policy,
        drift=DriftModel("linear", drift_l),
        restart=RestartParams(sigma=None, lam=lam),
        reps=reps,
        base_seed=base_seed,
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
                                    config.drift, rng, curves=recorder)
        else:
            policy = make_policy(resolved.policy_params, resolved.K)
            totals = run_incentivized(envobj, policy, config.drift, rng, curves=recorder)
    except ValueError as exc:
        # True rewards are 0 or 1, so a step check only fails once the drift
        # term l * chi (or a sum of drifted rewards) has left the float range.
        raise ConfigError("drift.l", f"drift overflows at run time ({exc})") from exc
    curves = None
    if collect_curves:
        curves = {name: np.asarray(getattr(recorder, name)) for name in METRIC_NAMES}
    return ReplicationResult(*totals, curves, recorder.steps if collect_trace else None)


class Block(NamedTuple):
    """The replications ``start, start + 1, ...``: their (4, n) totals, one row
    per metric name, and with curves the (2, 4, T) sum and sum of squares of
    their curves, each replication added in rep order; else ``None``."""

    start: int
    values: np.ndarray
    curves: np.ndarray | None


def _scalar_block(config: ExperimentConfig, reps: range, collect_curves: bool,
                  writer=None) -> Block:
    """The replications ``reps`` on the scalar kernels, each written and folded
    into one block as it finishes; with a trace CSV ``writer``, after writing
    its rows."""
    values = np.empty((len(METRIC_NAMES), len(reps)))
    curves = None
    if collect_curves:
        curves = np.zeros((2, len(METRIC_NAMES), build_env(config.env).T))
    for i, rep in enumerate(reps):
        res = run_replication(config, rep, collect_curves, writer is not None)
        if writer is not None:
            writer.writerows((rep, *step) for step in res.trace)
        values[:, i] = [getattr(res, name) for name in METRIC_NAMES]
        if collect_curves:
            with np.errstate(over="raise"):
                for k, name in enumerate(METRIC_NAMES):
                    curves[0, k] += res.curves[name]
                    curves[1, k] += np.square(res.curves[name])
        del res  # before the next replication records its steps
    return Block(reps.start, values, curves)


def _run_reps(config: ExperimentConfig, reps: range, lockstep: bool,
              collect_curves: bool, writer=None) -> Block:
    """The replications ``reps`` as one block, in lockstep if ``lockstep``
    says so (``_plan``); a lockstep block whose step check fails reruns on
    the scalar kernels, which raise as they always do, and write to ``writer``."""
    if lockstep:
        resolved = config.resolve()
        rngs = [make_rng(config.base_seed, rep) for rep in reps]
        out = run_block(resolved.policy_params, build_env(config.env), config.drift,
                        rngs, resolved.sigma or resolved.T, collect_curves)
        if out is not None:
            return Block(reps.start, *out)
    return _scalar_block(config, reps, collect_curves, writer)


@dataclass
class ExperimentSummary:
    """Aggregate over replications, plus what produced it."""

    config: ExperimentConfig
    resolved: Resolved
    mean: dict
    stderr: dict
    rep_values: dict  # metric -> np.ndarray indexed by replication
    curve_mean: dict | None = None
    curve_stderr: dict | None = None

    @property
    def reps(self) -> int:
        return self.config.reps

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "resolved": {
                **{f.name: getattr(self.resolved, f.name)
                   for f in fields(Resolved) if f.compare},
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


# Block sizes, measured on 2 cores (README "Timing the engines").  A run with
# curves is cut by its config alone into blocks of at most CURVE_BLOCK reps
# (and of at most the most a lockstep block holds), so its float additions
# are the same at any worker count and on either engine.  A summary-only run
# that fits a lockstep block is split over the pool only when every piece
# gets at least the split size, and cut into blocks of at most the largest
# block and of at most the most a lockstep block holds.
LOCKSTEP_SIZES = (64, 256)  # summaries only, in reps: (split, largest)
CURVE_BLOCK = 128


def _plan(config: ExperimentConfig, resolved: Resolved, workers: int,
          collect_curves: bool) -> list:
    """The rep ranges of ``config`` on up to ``workers`` processes, one block
    each, and whether each runs in lockstep.

    Blocks are near-equal.  A block runs in lockstep exactly when its size
    lies within ``lockstep.capacity``'s ``[least, most]``.  Without curves a
    lockstep run gets a few large blocks, as many for each process, and any
    other run about four blocks per process.  A traced run is one scalar block.
    """
    reps = config.reps
    if config.trace:
        return [(range(reps), False)]
    least, most = capacity(resolved.policy_params, resolved.T, resolved.K,
                           resolved.sigma or resolved.T)
    fit = min(reps, most)  # the most reps one lockstep block of this run holds
    if collect_curves:  # no lockstep block at all (fit = 0): CURVE_BLOCK alone
        blocks = math.ceil(reps / min(CURVE_BLOCK, fit or reps))
    elif least <= fit:
        split, largest = LOCKSTEP_SIZES
        pool = max(1, min(workers, reps // split))
        blocks = pool * math.ceil(math.ceil(reps / min(largest, fit)) / pool)
    else:  # about four per worker
        blocks = math.ceil(reps / math.ceil(reps / (workers * 4)))
    cuts = [reps * i // blocks for i in range(blocks + 1)]
    return [(range(a, b), least <= b - a <= most) for a, b in zip(cuts, cuts[1:])]


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _validate(configs: list, workers: int, collect_curves: bool, trace_path=None) -> list:
    """Every config's :class:`Resolved`, or the first refusal."""
    if workers < 1:
        raise ConfigError("workers", f"must be >= 1, got {workers}")
    for config in configs:
        if config.trace and (trace_path is None or len(configs) > 1):
            raise ConfigError("trace", "runs alone with a trace path; only `run` writes it")
        _check_memory(config, collect_curves)  # before resolve() builds the schedule
    work = sum(config.reps * config.env.T for config in configs)
    if work > WORK_LIMIT:
        raise ConfigError("reps", f"reps * T sums to {work:.3g} steps, "
                                  f"over the {WORK_LIMIT:.0e}-step limit")
    return [config.resolve() for config in configs]


def _fold(config: ExperimentConfig, resolved: Resolved, blocks,
          collect_curves: bool) -> ExperimentSummary:
    """The summary of ``config`` from its blocks, added in the order given."""
    reps = config.reps
    values = np.empty((len(METRIC_NAMES), reps))
    if collect_curves:
        curves = np.zeros((2, len(METRIC_NAMES), resolved.T))  # sum, sum of squares
    try:  # huge drift can make compensations that overflow their sums or squares
        with np.errstate(over="raise"):
            for block in blocks:
                n = block.values.shape[1]
                values[:, block.start:block.start + n] = block.values
                if collect_curves:
                    curves += block.curves
                del block  # before the next block is made or received
            if not np.isfinite(values).all():  # a compensation summed past the float range
                raise ConfigError("drift.l", "drift overflows a replication total")
            mean, stderr = values.mean(axis=1), np.zeros(len(METRIC_NAMES))
            if reps > 1:
                stderr = values.std(axis=1, ddof=1) / math.sqrt(reps)
            curve_mean = curve_stderr = None
            if collect_curves:
                curve_sum, curve_sumsq = curves
                curve_mean, curve_stderr = curve_sum / reps, np.zeros_like(curve_sum)
                if reps > 1:
                    var = (np.maximum(curve_sumsq / reps - curve_mean**2, 0.0)
                           * reps / (reps - 1))
                    curve_stderr = np.sqrt(var / reps)
    except FloatingPointError as exc:
        raise ConfigError("drift.l", f"drift overflows the summary statistics ({exc})") from None

    def by_name(rows):  # metric name -> row; curve rows stay views of one array
        return None if rows is None else dict(zip(METRIC_NAMES, rows))

    return ExperimentSummary(config, resolved, by_name(mean.tolist()), by_name(stderr.tolist()),
                             by_name(values), by_name(curve_mean), by_name(curve_stderr))


def run_experiments(configs, workers: int = 1, collect_curves: bool = False, trace_path=None):
    """Run every config's replications; an iterator of their summaries, in order.

    Every config is validated before anything runs.  Each config's blocks
    (``_plan``) run in-process, or all of them on one process pool of
    ``min(workers, CPUs, blocks)`` processes, submitted in config order.
    Each summary is yielded as soon as its blocks are folded, in block
    order, so it is identical for any ``workers`` value.  Consume the
    iterator to the end, or close it, to shut the pool down.  A traced
    config runs alone, in-process, streaming rows to the CSV at ``trace_path``.
    """
    configs = list(configs)
    resolved = _validate(configs, workers, collect_curves, trace_path)
    workers = min(workers, _cpu_count())
    plans = [_plan(config, res, workers, collect_curves)
             for config, res in zip(configs, resolved)]
    pool = min(workers, sum(map(len, plans)))
    return _run_plans(configs, resolved, plans, pool, collect_curves, trace_path)


def _run_plans(configs, resolved, plans, pool, collect_curves, trace_path=None):
    """The summaries of ``run_experiments``, on ``pool`` processes."""
    with ExitStack() as stack:
        writer = None
        if any(config.trace for config in configs):  # the one config, by _validate
            writer = csv.writer(stack.enter_context(open(trace_path, "w", newline="")))
            writer.writerow(TRACE_HEADER.split(","))
        if pool > 1:
            ex = ProcessPoolExecutor(max_workers=pool)
            # an early exit cancels the blocks not yet started
            stack.callback(ex.shutdown, wait=True, cancel_futures=True)
            futures = deque(ex.submit(_run_reps, config, r, lock, collect_curves)
                            for config, plan in zip(configs, plans) for r, lock in plan)
        for config, res, plan in zip(configs, resolved, plans):
            if pool > 1:  # in submission order, each dropped once read
                blocks = (futures.popleft().result() for _ in plan)
            else:
                blocks = (_run_reps(config, r, lock, collect_curves, writer) for r, lock in plan)
            yield _fold(config, res, blocks, collect_curves)


def run_experiment(config: ExperimentConfig, workers: int = 1, collect_curves: bool = False,
                   trace_path=None) -> ExperimentSummary:
    """Run all replications and aggregate: ``run_experiments`` on one config."""
    (summary,) = run_experiments([config], workers, collect_curves, trace_path)
    return summary


def write_summary_json(summary: ExperimentSummary, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
        fh.write("\n")


# ---------------------------------------------------------------------------
# sweeps and scaling probes


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
    if kind not in _TUNING:
        raise ConfigError("policy.kind", f"sweep tunes {' or '.join(_TUNING)}, not {kind!r}")
    explicit, param, _, grid = _TUNING[kind]
    values = grid if values is None else tuple(values)
    if not values:
        raise ConfigError("sweep", "grid must be nonempty")
    trials = [
        config.with_overrides({f"policy.{explicit}": None, f"policy.{param}": v})
        for v in values
    ]
    points = []
    best = best_summary = None
    for v, summary in zip(values, list(run_experiments(trials, workers))):
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
    workers: int = 1,
) -> ScalingReport:
    """Fit the log-log growth of mean regret/compensation against T.

    ``family="flip"`` runs the single-breakpoint abrupt environment, a tuned
    policy with the ``FIG2_TUNING`` constant at each horizon;
    ``family="sinusoidal"`` runs the restarting scheduler on budget 3.
    """
    horizons = sorted(int(t) for t in horizons)
    if len(horizons) < 3 or len(set(horizons)) < len(horizons):
        raise ConfigError("horizons", f"need 3 or more, all distinct, got {horizons}")
    presets = {"flip": (flip_config, 1), "sinusoidal": (sinusoidal_config, 3.0)}
    if family not in presets:
        raise ValueError(f"unknown scaling family {family!r}")
    preset, size = presets[family]
    configs = [preset(size, preset_policy(policy_kind), T=T, reps=reps, base_seed=base_seed)
               for T in horizons]
    summaries = list(run_experiments(configs, workers))
    regret_means = [summary.mean["pseudo_regret"] for summary in summaries]
    comp_means = [summary.mean["compensation"] for summary in summaries]
    return ScalingReport(
        family,
        policy_kind,
        horizons,
        regret_means,
        comp_means,
        fit_loglog(horizons, regret_means),
        fit_loglog(horizons, comp_means),
    )
