"""Time the library's set-up in a fresh interpreter.

Reads a JSON job from standard input: ``src`` (the directory holding the
``driftbandits`` package), ``modules`` to import and ``configs`` (config
dicts).  Times importing the modules, parsing and resolving every config and
building each environment's per-step views, i.e. everything before the first
simulated step, and prints ``{"setup_s": seconds}``.
"""

import importlib
import json
import sys
from time import perf_counter


def main() -> None:
    job = json.loads(sys.stdin.read())
    start = perf_counter()
    sys.path.insert(0, job["src"])
    for name in job["modules"]:
        importlib.import_module(name)
    harness = importlib.import_module("driftbandits.harness")
    for d in job["configs"]:
        config = harness.ExperimentConfig.from_dict(d)
        config.resolve()
        schedule = harness.build_env(config.env).schedule
        schedule.rows
        schedule.best_mean
    print(json.dumps({"setup_s": perf_counter() - start}))


if __name__ == "__main__":
    main()
