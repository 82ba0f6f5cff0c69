"""Time the scalar step kernels: ``run_segment`` microseconds per step, per policy.

For each policy kind and environment it runs one replication through
``restart.run_restarting``, one ``run_segment`` call per restart batch, and
prints the CPU time per step as a markdown table, each cell the median
[first quartile, third quartile] over the rounds.
The environments are flip beta=3 without restarts, with every kind tuned as
``fig2``, and sinusoidal V_T=24 restarting as table 3 does, with table 3's
policy and lam for UCB1, eps-greedy and Thompson, and lam = 1 for DUCB and
SWUCB.  Each round runs every cell once, in reverse order on odd rounds.

    PYTHONPATH=src python3 tools/kernel_speed.py [--rounds 15] [--T 5000]
"""

from __future__ import annotations

import argparse
import time

from driftbandits import harness
from driftbandits.cli import TABLE3_PRESETS
from driftbandits.harness import flip_config, preset_policy, sinusoidal_config
from driftbandits.policy import POLICY_KINDS
from driftbandits.restart import run_restarting
from lockstep_crossover import spread

TABLE3 = {pol.kind: (pol, lam) for pol, lam in TABLE3_PRESETS.values()}


def _sinusoidal(kind: str, T: int) -> harness.ExperimentConfig:
    pol, lam = TABLE3.get(kind, (preset_policy(kind), 1.0))
    return sinusoidal_config(24.0, pol, T=T, lam=lam)


ENVS = {
    "flip": ("flip beta=3", lambda kind, T: flip_config(3, preset_policy(kind), T=T)),
    "sinusoidal": ("sinusoidal V_T=24", _sinusoidal),
}


def cell(config: harness.ExperimentConfig):
    """A function that runs ``config``'s first replication and returns its CPU seconds."""
    resolved = config.resolve()
    env = harness.build_env(config.env)
    sigma = resolved.sigma or resolved.T

    def run() -> float:
        rng = harness.make_rng(config.base_seed, 0)
        start = time.process_time()
        run_restarting(env, sigma, resolved.policy_params, config.drift, rng)
        return time.process_time() - start

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--envs", default=",".join(ENVS),
                        help="comma-separated environments: " + ", ".join(ENVS))
    parser.add_argument("--kinds", default=",".join(POLICY_KINDS),
                        help="comma-separated policies")
    parser.add_argument("--rounds", type=int, default=15, help="runs of each cell")
    parser.add_argument("--T", type=int, default=5000, help="horizon")
    args = parser.parse_args(argv)
    envs, kinds = args.envs.split(","), args.kinds.split(",")
    for env in envs:
        if env not in ENVS:
            parser.error(f"--envs: unknown environment {env!r}")
    cells = {(kind, env): cell(ENVS[env][1](kind, args.T)) for kind in kinds for env in envs}
    times = {key: [] for key in cells}
    for i in range(args.rounds):
        for key in (list(cells) if i % 2 == 0 else reversed(list(cells))):
            times[key].append(cells[key]() / args.T * 1e6)
    print("| policy, us/step | " + " | ".join(ENVS[env][0] for env in envs) + " |")
    print("|---" * (len(envs) + 1) + "|")
    for kind in kinds:
        row = [spread(times[kind, env], 3) for env in envs]
        print(f"| {kind} | " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
