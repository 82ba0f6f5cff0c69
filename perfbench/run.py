"""driftbandits benchmark: runs workloads, checks their outputs, prints metrics.

    python3 perfbench/run.py                  # every workload, untraced and traced
    python3 perfbench/run.py --workload abrupt-ucb --seed 3 --seconds 30 --trace 0

A run repeats the workload's cells (one *iteration*) until ``--seconds`` have
passed, each iteration on a fresh base seed drawn from ``--seed``, and checks
every cell against perfbench/reference.json.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` splits the time between an untraced and a
traced half and reports the per-layer metrics.  Every metric is printed with
its unit and sample count; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details
(versions, exact counts, summary hashes, spans) go under .perfbench_out/.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
driftbandits sources are missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 30


def import_library() -> None:
    """Put ``src/`` first on the path and check driftbandits comes from it."""
    if not (SRC / "driftbandits" / "__init__.py").is_file():
        print(f"perfbench: no driftbandits package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(ROOT), os.environ.get("PYTHONPATH")) if p)
    import driftbandits

    if not Path(driftbandits.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: driftbandits imported from {driftbandits.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of them")
    parser.add_argument("--seed", type=int,
                        help="default: the seed the reference was recorded at")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    from perfbench import bench, workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if args.workload is None:
        return bench.run_all(seed, args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return bench.run_one(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
