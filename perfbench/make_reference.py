"""Record perfbench/reference.json from this program's own output.

    python3 perfbench/make_reference.py

For every workload cell, runs ``run_experiment`` at the default seed and
records the mean and stderr of each summary metric over ``REFERENCE_REPS``
replications, plus the sha256 of the cell's summary.json at ``IDENTITY_REPS``
replications.  The benchmark gates
each cell's means against these values, so they must come from a commit
whose output is trusted; rerun this only when a change moves the random
stream on purpose, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import driftbandits.harness as harness  # noqa: E402

from perfbench import workloads  # noqa: E402

REFERENCE_REPS = 1000


def main() -> int:
    cells = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for w in workloads.WORKLOADS.values():
            for cell in w.cells:
                config = harness.ExperimentConfig.from_dict(
                    w.config(cell, REFERENCE_REPS, workloads.DEFAULT_SEED))
                summary = harness.run_experiment(config, workers=workloads.nproc())
                cells[f"{w.name}/{cell}"] = {
                    "config": w.cells[cell],
                    **{name: {"mean": summary.mean[name], "stderr": summary.stderr[name]}
                       for name in summary.mean},
                    "summary_sha256": workloads.summary_sha256(
                        w, cell, workloads.IDENTITY_REPS, workloads.DEFAULT_SEED, Path(tmp)),
                }
                print(f"{w.name}/{cell}: pseudo_regret {summary.mean['pseudo_regret']:.3f} "
                      f"compensation {summary.mean['compensation']:.3f}", flush=True)
    reference = {"seed": workloads.DEFAULT_SEED, "reps": REFERENCE_REPS,
                 "identity_reps": workloads.IDENTITY_REPS, "cells": cells}
    with open(ROOT / "perfbench" / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
