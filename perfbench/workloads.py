"""The benchmark's workloads, the cells they run, and the check on each cell.

Every workload is a closed loop with one client: its cells run one after
another, each starting when the previous ``run_experiment`` (or ``cli.main``)
has returned.  One run of all of a workload's cells is an *iteration*; the
library receives only the configs generated here, whose ``base_seed`` comes
from the benchmark's ``--seed``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import driftbandits.cli as cli
import driftbandits.harness as harness

# Seed at which the reference in reference.json was recorded.
DEFAULT_SEED = 20240601
# A cell fails when, pooled over every iteration of a run, its mean lies
# more than GATE_K combined standard errors from the reference.  Pooling gives
# a few hundred replications, so the deviation is close to normal; a series
# of a hundred runs gates a few hundred pooled means, and P(|Z| > 5) = 5.7e-7
# for each.
GATE_K = 5.0
GATED_METRICS = ("pseudo_regret", "compensation")
# Replications per cell in the identity probe, whose summary.json hash is
# compared against the reference byte for byte.
IDENTITY_REPS = 4

_FLIP = {"kind": "flip", "T": 5000, "hi": 0.99, "lo": 0.01}
_DRIFT = {"kind": "linear", "l": cli.DEFAULT_DRIFT_L}


def _flip_cell(segments: int, policy: dict) -> dict:
    return {
        "env": {**_FLIP, "segments": segments},
        "policy": policy,
        "drift": _DRIFT,
        "restart": None,
        "trace": False,
    }


def _sine_cell(policy: dict, lam: float) -> dict:
    return {
        "env": {"kind": "sinusoidal", "T": 5000, "budget": 24.0, "amplitude": 0.3,
                "active_fraction": 1.0},
        "policy": policy,
        "drift": _DRIFT,
        "restart": {"sigma": None, "lam": lam},
        "trace": False,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    cells: dict  # cell id -> config dict without "reps" and "base_seed"
    reps: int  # replications per cell in one iteration
    via_cli: bool  # True: cells run through ``cli.main reproduce fig2``

    def config(self, cell: str, reps: int, base_seed: int) -> dict:
        return {**self.cells[cell], "reps": reps, "base_seed": base_seed}

    @property
    def workers(self) -> int:
        return min(2, nproc()) if self.via_cli else 1


WORKLOADS = {
    w.name: w
    for w in (
        # Flip env, beta = 3: time goes to the UCB-family index and update
        # rules and the incentive loop; restart, curves, pool, CLI bypassed.
        Workload(
            "abrupt-ucb",
            {
                "ucb1": _flip_cell(4, {"kind": "ucb1"}),
                "swucb": _flip_cell(4, {"kind": "swucb", "tau_c": 1.0}),
                "ducb": _flip_cell(4, {"kind": "ducb", "gamma_c": 15.0}),
            },
            reps=12,
            via_cli=False,
        ),
        # Sinusoidal env, V_T = 24, table-3 presets: restart rebuilds the
        # policy every batch and the random-draw path dominates.
        Workload(
            "drift-restart",
            {
                "ucb1": _sine_cell({"kind": "ucb1"}, 3.0),
                "eps_greedy": _sine_cell({"kind": "eps_greedy", "eps_c": 1.0}, 0.5),
                "thompson": _sine_cell({"kind": "thompson"}, 1.0),
            },
            reps=8,
            via_cli=False,
        ),
        # ``reproduce fig2`` in-process: curves, the process pool, the curve
        # fold and the CSV/SVG writers.  These configs are what the CLI builds
        # for fig2; the benchmark's tests check that they match its outputs.
        Workload(
            "reproduce-curves",
            {
                "ucb1": _flip_cell(2, {"kind": "ucb1"}),
                "ducb": _flip_cell(2, {"kind": "ducb", "gamma_c": 15.0}),
                "swucb": _flip_cell(2, {"kind": "swucb", "tau_c": 1.0}),
            },
            reps=64,
            via_cli=True,
        ),
    )
}


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def iteration_seeds(workload: str, seed: int):
    """Base seeds of successive iterations, fixed by ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.getrandbits(31)


@dataclass
class CellResult:
    cell: str
    reps: int
    mean: dict | None = None  # metric -> value
    stderr: dict | None = None
    error: str | None = None  # set when the cell failed


@dataclass
class Iteration:
    base_seed: int
    wall_s: float
    cells: list  # CellResult per cell, in run order
    out_bytes: int = 0


def run_iteration(w: Workload, base_seed: int, reps: int, outdir: Path) -> Iteration:
    """Run every cell of ``w`` once, timed from the first start to the outputs."""
    if w.via_cli:
        return _run_cli_iteration(w, base_seed, reps, outdir)
    results = []
    start = perf_counter()
    for cell in w.cells:
        try:
            config = harness.ExperimentConfig.from_dict(w.config(cell, reps, base_seed))
            summary = harness.run_experiment(config, workers=w.workers)
            results.append(CellResult(cell, reps, dict(summary.mean), dict(summary.stderr)))
        except Exception as exc:  # noqa: BLE001 - a raising cell is a failed cell
            results.append(CellResult(cell, reps, error=f"{type(exc).__name__}: {exc}"))
    return Iteration(base_seed, perf_counter() - start, results)


def _run_cli_iteration(w: Workload, base_seed: int, reps: int, outdir: Path) -> Iteration:
    argv = ["reproduce", "fig2", "--set", f"reps={reps}", "--seed", str(base_seed),
            "--workers", str(w.workers), "--out", str(outdir)]
    captured = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        code = cli.main(argv)
    wall = perf_counter() - start
    if code != 0:
        error = f"cli.main exited {code}: {captured.getvalue().strip()}"
        return Iteration(base_seed, wall, [CellResult(c, reps, error=error) for c in w.cells])
    out_bytes = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return Iteration(base_seed, wall, [_read_curve_cell(outdir, c, reps) for c in w.cells],
                     out_bytes)


def _read_curve_cell(outdir: Path, cell: str, reps: int) -> CellResult:
    """Mean and stderr at T from the cell's fig2 CSVs; every row must be finite."""
    mean, stderr = {}, {}
    try:
        for metric, csv_name in (("pseudo_regret", "regret"),
                                 ("compensation", "compensation")):
            with open(outdir / f"fig2_{cell}_{csv_name}.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            values = [float(v) for row in rows for v in row[1:]]
            if not rows or not all(math.isfinite(v) for v in values):
                return CellResult(cell, reps, error=f"fig2_{cell}_{csv_name}.csv: "
                                  "empty or non-finite")
            mean[metric], stderr[metric] = float(rows[-1][1]), float(rows[-1][2])
        for svg in ("regret", "compensation"):
            if (outdir / f"fig2_{svg}.svg").stat().st_size == 0:
                return CellResult(cell, reps, error=f"fig2_{svg}.svg is empty")
    except (OSError, ValueError, IndexError) as exc:
        return CellResult(cell, reps, error=f"{type(exc).__name__}: {exc}")
    return CellResult(cell, reps, mean, stderr)


def load_reference(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cell_error(result: CellResult) -> str | None:
    """Why one run of a cell failed outright (raised, or non-finite output)."""
    if result.error is not None:
        return result.error
    for name in result.mean:
        if not (math.isfinite(result.mean[name]) and math.isfinite(result.stderr[name])):
            return f"{name} is not finite"
    return None


def pooled(results: list, name: str) -> tuple[float, float]:
    """Mean and stderr of ``name`` over the replications of all ``results``."""
    n = sum(r.reps for r in results)
    mean = sum(r.reps * r.mean[name] for r in results) / n
    ss = sum((r.reps - 1) * r.reps * r.stderr[name] ** 2
             + r.reps * (r.mean[name] - mean) ** 2 for r in results)
    return mean, math.sqrt(ss / (n - 1) / n)


def gate(w: Workload, cell: str, results: list, reference: dict) -> str | None:
    """Why the pooled runs of ``cell`` disagree with the reference, or ``None``."""
    ref = reference["cells"].get(f"{w.name}/{cell}")
    if ref is None or ref["config"] != w.cells[cell]:
        return "no reference recorded for this cell config"
    for name in GATED_METRICS:
        mean, stderr = pooled(results, name)
        se = math.hypot(stderr, ref[name]["stderr"])
        dev = abs(mean - ref[name]["mean"])
        if dev > GATE_K * se:
            return (f"{name} mean {mean:.4f} over {sum(r.reps for r in results)} reps is "
                    f"{dev / se:.1f} stderr from the reference {ref[name]['mean']:.4f}")
    return None


def summary_sha256(w: Workload, cell: str, reps: int, base_seed: int, tmp: Path) -> str:
    """sha256 of the cell's summary.json as ``write_summary_json`` writes it."""
    config = harness.ExperimentConfig.from_dict(w.config(cell, reps, base_seed))
    summary = harness.run_experiment(config, workers=1, collect_curves=w.via_cli)
    path = tmp / "summary.json"
    harness.write_summary_json(summary, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def identity_probe(w: Workload, reference: dict, tmp: Path) -> dict:
    """Per cell: summary.json hash at the reference seed and whether it matches."""
    out = {}
    for cell in w.cells:
        digest = summary_sha256(w, cell, IDENTITY_REPS, DEFAULT_SEED, tmp)
        ref = reference["cells"].get(f"{w.name}/{cell}", {})
        out[cell] = {"sha256": digest,
                     "matches_reference": digest == ref.get("summary_sha256")}
    return out
