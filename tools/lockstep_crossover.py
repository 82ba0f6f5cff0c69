"""Re-measure README's lockstep crossover table: kernel time over block time.

For each environment (flip beta=1 tuned as ``fig2``; sinusoidal V_T=24 with
restarts), policy with a lockstep engine, output (summary or curves) and
replication count R, it times the same R replications on the scalar kernels
(``harness._scalar_block``) and as one lockstep block (``lockstep.run_block``),
in-process.  Each round times the two engines back to back, alternating
which runs first, and takes the ratio of their CPU times; each cell of the
markdown table is the median [first quartile, third quartile] of those
per-round ratios.  Pairing the runs keeps the host's drift between
invocations out of the ratio.  A ratio above 1 means the block is faster.
With restarts a block's lanes are its (replication, batch) pairs, so R
counts replications, not lanes.

    PYTHONPATH=src python3 tools/lockstep_crossover.py [--reps 8,12,16] [--rounds 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from driftbandits import harness
from driftbandits.harness import flip_config, preset_policy, sinusoidal_config
from driftbandits.lockstep import LOCKSTEP_KINDS, run_block

ENVS = {
    "flip": lambda kind, T: flip_config(1, preset_policy(kind), T=T),
    "sinusoidal": lambda kind, T: sinusoidal_config(24.0, preset_policy(kind), T=T),
}


def _cpu(fn) -> float:
    start = time.process_time()
    fn()
    return time.process_time() - start


def ratios(config: harness.ExperimentConfig, R: int, curves: bool, rounds: int) -> list:
    """Per round, kernel CPU time over block CPU time for R replications."""
    resolved = config.resolve()
    env = harness.build_env(config.env)
    sigma = resolved.sigma or resolved.T
    reps = range(R)

    def kernels():
        harness._scalar_block(config, reps, curves)

    def block():
        rngs = [harness.make_rng(config.base_seed, rep) for rep in reps]
        if run_block(resolved.policy_params, env, config.drift, rngs, sigma, curves) is None:
            raise RuntimeError(f"a step check failed in {config}")

    out = []
    for i in range(rounds):
        if i % 2 == 0:
            kernel_s, block_s = _cpu(kernels), _cpu(block)
        else:
            block_s, kernel_s = _cpu(block), _cpu(kernels)
        out.append(kernel_s / block_s)
    return out


def spread(values: list, digits: int = 2) -> str:
    """``median [q1, q3]`` of ``values``."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return f"{median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", default="8,12,16,20,24,32,48",
                        help="comma-separated replication counts")
    parser.add_argument("--rounds", type=int, default=5, help="paired runs per cell")
    parser.add_argument("--T", type=int, default=5000, help="horizon")
    parser.add_argument("--env", choices=tuple(ENVS), action="append",
                        help="environment family (default: both)")
    args = parser.parse_args(argv)
    counts = [int(r) for r in args.reps.split(",")]
    print("| env, policy, output | " + " | ".join(f"R={r}" for r in counts) + " |")
    print("|---" * (len(counts) + 1) + "|")
    for env in args.env or ENVS:
        for kind in LOCKSTEP_KINDS:
            config = ENVS[env](kind, args.T)
            for curves in (False, True):
                cells = [spread(ratios(config, R, curves, args.rounds)) for R in counts]
                name = f"{env} {kind} {'curves' if curves else 'summary'}"
                print(f"| {name} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
