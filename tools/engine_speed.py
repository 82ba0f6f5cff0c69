"""Time the step engines and print README's engine tables as markdown.

    PYTHONPATH=src:. python3 tools/engine_speed.py crossover|split|block|kernel [flags]

crossover  Kernel time over block time: the same R replications in-process
           on the scalar kernels (``harness._scalar_block``) and as one
           lockstep block (``lockstep.run_block``), per environment,
           lockstep policy and output (summary or curves).  Above 1 the
           block is faster.  With restarts a block's lanes are its
           (replication, batch) pairs, so R counts replications, not lanes.
split      In-process time over pool time: N summary-only replications as
           ``harness._plan`` cuts them for one worker, against the same reps
           as 2 near-equal blocks on a pool of 2 processes, pool start-up
           included.  Above 1 the pool is faster.
block      Milliseconds per replication of one lockstep block of R reps, per
           environment, lockstep policy and output (summary or curves).
kernel     ``run_segment`` microseconds per step: one replication through
           ``restart.run_restarting``, per policy and environment, each
           sample building its own count-term table.

Every sample comes from one timer (``rounds``): each round runs every cell
of a table, or of a row, once, in reverse order on odd rounds, so two cells
take turns going first.  A sample is the ``perf_counter`` seconds of one run
taken inside ``HostSpeed.timed`` and multiplied by the speed factor it
returns, as perfbench scales its own samples (perfbench/hostspeed.py); a
ratio is taken within a round.  Each cell is the median [first quartile,
third quartile] over the rounds.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from time import perf_counter

import numpy as np

from driftbandits import harness, incentive
from driftbandits.cli import TABLE3_PRESETS
from driftbandits.harness import flip_config, preset_policy, sinusoidal_config
from driftbandits.lockstep import LOCKSTEP_KINDS, capacity, run_block
from driftbandits.policy import POLICY_KINDS
from driftbandits.restart import run_restarting
from perfbench.hostspeed import HostSpeed

TABLE3 = {pol.kind: (pol, lam) for pol, lam in TABLE3_PRESETS.values()}


def _table3(kind: str, T: int) -> harness.ExperimentConfig:
    pol, lam = TABLE3.get(kind, (preset_policy(kind), 1.0))
    return sinusoidal_config(24.0, pol, T=T, lam=lam)


# environment -> (label, config of a policy kind at horizon T).  Every kind
# is tuned as fig2; table3_v24 takes table 3's policy and lam for the kinds
# table 3 runs, and lam = 1 for the others.
ENVS = {
    "flip_b1": ("flip beta=1", lambda kind, T: flip_config(1, preset_policy(kind), T=T)),
    "flip_b3": ("flip beta=3", lambda kind, T: flip_config(3, preset_policy(kind), T=T)),
    "sinusoidal_v24": ("sinusoidal V_T=24",
                       lambda kind, T: sinusoidal_config(24.0, preset_policy(kind), T=T)),
    "table3_v24": ("sinusoidal V_T=24, table 3", _table3),
}

# table -> (corner, column prefix, default environments, default kinds, the
# kinds it can time, default replication counts, default rounds); kernel's
# columns are its environments
UCB = "ucb1,ducb,swucb"
TABLES = {
    "crossover": ("env, policy, output: kernel/block", "R", "flip_b1,sinusoidal_v24",
                  ",".join(LOCKSTEP_KINDS), LOCKSTEP_KINDS, "8,12,16,20,24,32,48", 5),
    "split": ("env, policy: in-process/pool", "N", "flip_b1", UCB, POLICY_KINDS,
              "40,64,96,128,192,256,512,1024", 5),
    "block": ("env, policy, output: ms per rep", "R", "flip_b1", UCB, LOCKSTEP_KINDS,
              "64,100,128,150,256", 5),
    "kernel": ("policy: us/step", None, "flip_b3,table3_v24", ",".join(POLICY_KINDS),
               POLICY_KINDS, None, 15),
}


def _seconds(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def rounds(cells: list, n: int, host, before=lambda: None) -> list:
    """Per cell, its ``n`` host-scaled samples in seconds: ``n`` rounds of
    every cell once, in reverse order on odd rounds, each sample after an
    untimed call of ``before``."""
    samples = [[] for _ in cells]
    order = list(range(len(cells)))
    for i in range(n):
        for c in (order if i % 2 == 0 else order[::-1]):
            before()
            seconds, factor = host.timed(lambda: _seconds(cells[c]))
            samples[c].append(seconds * factor)
    return samples


def ratios(cells: list, n: int, host) -> list:
    """Per round, the first cell's time over the second's."""
    return [a / b for a, b in zip(*rounds(cells, n, host))]


def spread(values: list, digits: int = 2) -> str:
    """``median [q1, q3]`` of ``values``."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def _block(config: harness.ExperimentConfig, R: int, curves: bool):
    """A function that runs the first R replications of ``config`` as one
    lockstep block."""
    resolved = config.resolve()
    env = harness.build_env(config.env)

    def block():
        rngs = [harness.make_rng(config.base_seed, rep) for rep in range(R)]
        if run_block(resolved.policy_params, env, config.drift, rngs,
                     resolved.sigma or resolved.T, curves) is None:
            raise RuntimeError(f"a step check failed in {config}")

    return block


def _split(config: harness.ExperimentConfig) -> list:
    """Functions that run ``config`` in-process and as 2 blocks on a pool of 2."""
    resolved = config.resolve()
    least, most = capacity(resolved.policy_params, resolved.T, resolved.K,
                           resolved.sigma or resolved.T)
    half = config.reps // 2
    halves = [(r, least <= len(r) <= most) for r in (range(half), range(half, config.reps))]
    alone = harness._plan(config, resolved, 1, False)

    def run(plan, pool):
        for _ in harness._run_plans([config], [resolved], [plan], pool, False):
            pass

    return [lambda: run(alone, 1), lambda: run(halves, 2)]


def _kernel(config: harness.ExperimentConfig):
    """A function that runs the first replication of ``config`` on the kernels."""
    resolved = config.resolve()
    env = harness.build_env(config.env)
    sigma = resolved.sigma or resolved.T
    return lambda: run_restarting(env, sigma, resolved.policy_params, config.drift,
                                  harness.make_rng(config.base_seed, 0))


def _drop_table():
    """Drop the count-term table the process holds, so that a kernel sample
    builds its own, whichever cell ran before it."""
    incentive._held = None, None


def table_rows(args, host):
    """The (label, cells) rows of ``args.table``."""
    if args.table == "kernel":
        cells = {(k, e): _kernel(ENVS[e][1](k, args.T)) for k in args.kinds for e in args.envs}
        us = dict(zip(cells, rounds(list(cells.values()), args.rounds, host, _drop_table)))
        for k in args.kinds:
            yield k, [spread(np.array(us[k, e]) / args.T * 1e6, 3) for e in args.envs]
        return
    for env in args.envs:
        for kind in args.kinds:
            label, config = f"{ENVS[env][0]} {kind}", ENVS[env][1](kind, args.T)
            if args.table == "split":
                yield label, [spread(ratios(_split(replace(config, reps=n)), args.rounds, host))
                              for n in args.reps]
                continue
            for curves in (False, True):
                row = f"{label} {'curves' if curves else 'summary'}"
                if args.table == "crossover":
                    yield row, [spread(ratios(
                        [lambda: harness._scalar_block(config, range(R), curves),
                         _block(config, R, curves)], args.rounds, host)) for R in args.reps]
                else:
                    blocks = rounds([_block(config, R, curves) for R in args.reps],
                                    args.rounds, host)
                    yield row, [spread(np.array(s) / R * 1e3) for s, R in zip(blocks, args.reps)]


def _names(allowed):
    def parse(text: str) -> list:
        names = text.split(",")
        unknown = [name for name in names if name not in allowed]
        if unknown:
            raise argparse.ArgumentTypeError(f"unknown {', '.join(unknown)}; "
                                             f"choose from {', '.join(allowed)}")
        return names
    return parse


def _counts(text: str) -> list:
    return [int(n) for n in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    tables = parser.add_subparsers(dest="table", required=True)
    for name, (_, prefix, envs, kinds, timed, reps, n) in TABLES.items():
        sub = tables.add_parser(name)
        sub.add_argument("--envs", type=_names(ENVS), default=envs,
                         help="comma-separated environments")
        sub.add_argument("--kinds", type=_names(timed), default=kinds,
                         help="comma-separated policies")
        if reps:
            sub.add_argument("--reps", type=_counts, default=reps,
                             help=f"comma-separated replication counts {prefix}")
        sub.add_argument("--rounds", type=int, default=n, help="runs of each cell")
        sub.add_argument("--T", type=int, default=5000, help="horizon")
    args = parser.parse_args(argv)
    corner, prefix = TABLES[args.table][:2]
    if args.table == "split" and min(args.reps) < 2:
        parser.error("split --reps: every N must be at least 2, to split into 2 blocks")
    columns = ([f"{prefix}={r}" for r in args.reps] if prefix
               else [ENVS[env][0] for env in args.envs])
    print(f"| {corner} | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for label, cells in table_rows(args, HostSpeed()):
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
