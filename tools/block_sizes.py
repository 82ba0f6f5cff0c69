"""Re-measure README's block-size tables: the split size and the largest block.

Split size: for each UCB-family policy and replication count N, the wall
seconds of N summary-only replications (flip beta=1, tuned as ``fig2``) run
in-process as ``harness._plan`` cuts them for one worker, against the same
reps cut into 2 near-equal blocks on a pool of 2 processes, pool start-up
included.  Each round times the two back to back, alternating which runs
first, and takes the ratio in-process/pool; each cell prints the median
[first quartile, third quartile] of those per-round ratios.  A ratio above
1 means the pool is faster.

Largest block: the serial CPU milliseconds per replication of one lockstep
block (``lockstep.run_block``) of R replications.  Each round runs every R
once, in reverse order on odd rounds; each cell prints the median [first
quartile, third quartile] over the rounds.

    PYTHONPATH=src python3 tools/block_sizes.py [--reps 40,64,128] [--sizes 64,128,256]
"""

from __future__ import annotations

import argparse
import time

from driftbandits import harness
from driftbandits.harness import flip_config, preset_policy
from driftbandits.lockstep import capacity, run_block
from lockstep_crossover import spread


def _seconds(fn, clock=time.perf_counter) -> float:
    start = clock()
    fn()
    return clock() - start


def split_ratios(config: harness.ExperimentConfig, rounds: int) -> list:
    """Per round, the wall seconds of ``config`` in-process over those as 2
    blocks on a pool of 2."""
    resolved = config.resolve()
    least, most = capacity(resolved.policy_params, resolved.T, resolved.K,
                           resolved.sigma or resolved.T)
    half = config.reps // 2
    halves = [(r, least <= len(r) <= most) for r in (range(half), range(half, config.reps))]

    def run(plan, pool):
        for _ in harness._run_plans([config], [resolved], [plan], pool, False):
            pass

    alone = harness._plan(config, resolved, 1, False)
    out = []
    for i in range(rounds):
        if i % 2 == 0:
            alone_s, pool_s = _seconds(lambda: run(alone, 1)), _seconds(lambda: run(halves, 2))
        else:
            pool_s, alone_s = _seconds(lambda: run(halves, 2)), _seconds(lambda: run(alone, 1))
        out.append(alone_s / pool_s)
    return out


def rep_ms(config: harness.ExperimentConfig, R: int):
    """A function that runs one lockstep block of R replications and returns
    its CPU milliseconds per replication."""
    resolved = config.resolve()
    env = harness.build_env(config.env)

    def block():
        rngs = [harness.make_rng(config.base_seed, rep) for rep in range(R)]
        if run_block(resolved.policy_params, env, config.drift, rngs,
                     resolved.sigma or resolved.T) is None:
            raise RuntimeError(f"a step check failed in {config}")

    return lambda: _seconds(block, time.process_time) / R * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", default="40,64,96,128,192,256,512,1024",
                        help="comma-separated replication counts N of the split table")
    parser.add_argument("--sizes", default="64,100,128,150,256",
                        help="comma-separated block sizes R of the per-rep cost table")
    parser.add_argument("--kinds", default="ucb1,ducb,swucb", help="comma-separated policies")
    parser.add_argument("--rounds", type=int, default=5, help="runs of each cell")
    parser.add_argument("--T", type=int, default=5000, help="horizon")
    args = parser.parse_args(argv)
    counts = [int(n) for n in args.reps.split(",")]
    sizes = [int(r) for r in args.sizes.split(",")]
    kinds = args.kinds.split(",")
    if min(counts) < 2:
        parser.error("--reps: every N must be at least 2, to split into 2 blocks")
    print("| policy, in-process/pool | " + " | ".join(f"N={n}" for n in counts) + " |")
    print("|---" * (len(counts) + 1) + "|")
    for kind in kinds:
        cells = []
        for n in counts:
            config = flip_config(1, preset_policy(kind), T=args.T, reps=n)
            cells.append(spread(split_ratios(config, args.rounds)))
        print(f"| {kind} | " + " | ".join(cells) + " |", flush=True)
    print()
    print("| policy, ms per rep | " + " | ".join(f"R={r}" for r in sizes) + " |")
    print("|---" * (len(sizes) + 1) + "|")
    for kind in kinds:
        config = flip_config(1, preset_policy(kind), T=args.T)
        blocks = {R: rep_ms(config, R) for R in sizes}
        ms = {R: [] for R in sizes}
        for i in range(args.rounds):
            for R in (sizes if i % 2 == 0 else reversed(sizes)):
                ms[R].append(blocks[R]())
        cells = [spread(ms[R]) for R in sizes]
        print(f"| {kind} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
