"""Runs one workload untraced or traced, checks it and reports its metrics.

``run.py`` is the entry point; it locates the library before this module is
imported.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from perfbench import layers, workloads
from perfbench.hostspeed import HostSpeed
from perfbench.layers import Samples
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = ROOT / "perfbench" / "reference.json"
SETUP_PROBES = 9  # fresh interpreters per run
MIN_ITERATIONS = 3
COUNT_REPS = 4  # replications per cell in the step-count pass

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB", "pass_frac": "frac"}


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _info(w, seed: int) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": workloads.nproc(),
        "workers": w.workers,
        "git_revision": _git_revision(),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def measure(w, seeds, reps: int, seconds: float, tmp: Path, tracer=None, host=None,
            between=None, min_iterations: int = MIN_ITERATIONS) -> tuple[list, list]:
    """Run iterations until ``seconds`` have passed.

    Before each iteration, ``between(elapsed)`` is called.  Returns the
    iterations and, when ``host`` is given, each one's speed factor (see
    hostspeed.py); without ``host`` the factors are empty.
    """
    iterations, factors = [], []
    start = perf_counter()
    while len(iterations) < min_iterations or perf_counter() - start < seconds:
        outdir = tmp / f"it{len(iterations)}"
        if tracer is not None:
            tracer.iteration = len(iterations)
        if between is not None:
            between(perf_counter() - start)
        base_seed = next(seeds)
        if host is None:
            iterations.append(workloads.run_iteration(w, base_seed, reps, outdir))
        else:
            it, k = host.timed(lambda: workloads.run_iteration(w, base_seed, reps, outdir))
            iterations.append(it)
            factors.append(k)
        shutil.rmtree(outdir, ignore_errors=True)
    return iterations, factors


def check(w, iterations: list, reference: dict) -> tuple[list, int]:
    """Failure messages and the number of failed cell runs.

    A run of a cell fails when it raised or gave non-finite output; all runs
    of a cell fail together when their pooled means miss the reference.
    """
    messages, failed = [], 0
    good = {cell: [] for cell in w.cells}
    for it in iterations:
        for result in it.cells:
            why = workloads.cell_error(result)
            if why is None:
                good[result.cell].append(result)
            else:
                messages.append(f"base_seed {it.base_seed} cell {result.cell}: {why}")
                failed += 1
    for cell, results in good.items():
        why = workloads.gate(w, cell, results, reference) if results else None
        if why is not None:
            messages.append(f"cell {cell}, {len(results)} runs: {why}")
            failed += len(results)
    return messages, failed


def setup_time(w, base_seed: int) -> float:
    """Set-up seconds of one fresh interpreter (see setup_probe.py)."""
    modules = ["driftbandits", "driftbandits.cli"] if w.via_cli else ["driftbandits"]
    job = json.dumps({"src": str(SRC), "modules": modules,
                      "configs": [w.config(c, w.reps, base_seed) for c in w.cells]})
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py")],
                          input=job, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(w, seed: int, seconds: float, reference: dict, tmp: Path):
    """``--trace 0``: the end-to-end metrics, plus the raw timings as detail."""
    host = HostSpeed()
    first_seed = next(workloads.iteration_seeds(w.name, seed))
    setup = []  # (seconds, speed factor) per probe

    def probe_when_due(elapsed: float) -> None:
        # Spread evenly through the run, so the probes are not confined to
        # one phase of the host's speed.
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(host.timed(lambda: setup_time(w, first_seed)))

    iterations, factors = measure(w, workloads.iteration_seeds(w.name, seed), w.reps,
                                  seconds, tmp, host=host, between=probe_when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(host.timed(lambda: setup_time(w, first_seed)))
    # The children are pool workers and set-up probes; a probe holds a subset
    # of what this process holds, so the pool workers or this process set it.
    peak = _peak_rss_mb()
    steps = sum(w.reps * config["env"]["T"] for config in w.cells.values())
    attempted = sum(len(it.cells) for it in iterations)
    failures, failed = check(w, iterations, reference)
    # Medians of samples each scaled by its own speed factor: see hostspeed.py.
    walls = [it.wall_s * k for it, k in zip(iterations, factors)]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": Samples.median_of(t * k for t, k in setup),
        "wall_s": Samples(wall, walls),
        "steps_per_s": Samples(steps / wall, [steps / t for t in walls]),
        "peak_rss_mb": Samples(peak),
        "pass_frac": Samples((attempted - failed) / attempted),
    }
    raw = {
        "host.speed_factor": Samples.median_of(factors + [k for _, k in setup]),
        "raw.setup_s": Samples.median_of(t for t, _ in setup),
        "raw.wall_s": Samples.median_of(it.wall_s for it in iterations),
    }
    return metrics, raw, {}, iterations, failures, failed


def per_layer(w, seed: int, seconds: float, reference: dict, tmp: Path,
              reps: int | None = None, min_iterations: int = MIN_ITERATIONS,
              out: Path = OUT):
    """``--trace 1``: half the time untraced, half traced, then the layer metrics.

    The spans are written under ``out``.
    """
    reps = reps or w.reps
    seeds = workloads.iteration_seeds(w.name, seed)
    untraced, _ = measure(w, seeds, reps, seconds / 2, tmp, min_iterations=min_iterations)
    with Tracer(tmp / "workers") as tracer:
        traced, _ = measure(w, seeds, reps, seconds / 2, tmp, tracer=tracer,
                            min_iterations=min_iterations)
    failures, failed = check(w, untraced + traced, reference)
    out.mkdir(exist_ok=True)
    tracer.write(out / f"{w.name}-seed{seed}-spans.jsonl")

    metrics, detail, span_counts = layers.span_metrics(w, tracer.spans)
    metrics.update(layers.env_bench(w))
    metrics.update(layers.policy_bench(w, seed))
    metrics["incentive.curve_append_us"] = layers.curve_append_bench(w, seed)
    first_seed = next(workloads.iteration_seeds(w.name, seed))
    step_counts = layers.count_steps(w, first_seed, COUNT_REPS)
    post_rr = sum(c["post_rr_steps"] for c in step_counts.values())
    metrics["incentive.comp_frac"] = Samples(
        sum(c["compensated_steps"] for c in step_counts.values()) / post_rr)
    # Cells are named after their policy kind and run equal step counts.
    policy_us = statistics.fmean(
        sum(metrics[f"policy.{cell}.{call}_us"].value
            for call in ("recommend", "observe", "greedy"))
        for cell in w.cells)
    metrics["incentive.self_us"] = Samples(metrics["incentive.step_us"].value - policy_us)
    metrics["cli.out_bytes"] = Samples(traced[0].out_bytes)
    metrics["trace.overhead_s"] = Samples(
        min(it.wall_s for it in traced) - min(it.wall_s for it in untraced))
    for cell, c in step_counts.items():
        detail[f"incentive.{cell}.comp_frac"] = Samples(
            c["compensated_steps"] / c["post_rr_steps"])
    counts = {cell: {"iteration": {"steps": reps * w.cells[cell]["env"]["T"],
                                   **span_counts[cell]},
                     "count_pass": {"reps": COUNT_REPS, **step_counts[cell]}}
              for cell in w.cells}
    return metrics, detail, counts, untraced + traced, failures, failed


def _record(s) -> dict:
    out = {"value": s.value, "n": len(s.samples)}
    if len(s.samples) <= 64:
        out["samples"] = s.samples
    return out


def _detail_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_frac", "frac"),
                         ("_factor", "x")):
        if name.endswith(suffix):
            return unit
    return "count"


def _print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, s in metrics.items():
        line = f"  {name:<30} {s.value:>14.6g} {units.get(name, ''):<6}"
        if len(s.samples) > 1:
            line += f" n={len(s.samples)} median={statistics.median(s.samples):.6g}"
            t = layers.tail(s.samples)
            line += (f" p{t[0]:g}={t[1]:.6g}" if t
                     else " (no percentile has 10 samples beyond it)")
        else:
            line += " n=1"
        print(line)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    w = workloads.WORKLOADS[workload]
    reference = workloads.load_reference(REFERENCE)
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        info = _info(w, seed)
        phase = per_layer if trace else end_to_end
        metrics, detail, counts, iterations, failures, failed = phase(
            w, seed, seconds, reference, tmp)
        identity = workloads.identity_probe(w, reference, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = {**END_TO_END_UNITS, **{k: v[0] for k, v in layers.LAYER_METRICS.items()},
             **{k: _detail_unit(k) for k in detail}}
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          + " ".join(f"{k}={v}" for k, v in info.items() if k not in ("workload", "seed")))
    _print_metrics("metrics:", metrics, units)
    if detail:
        _print_metrics("detail:", detail, units)
    for cell, c in counts.items():
        print(f"counts {cell}: {json.dumps(c, sort_keys=True)}")
    for cell, ident in identity.items():
        print(f"identity {cell}: summary.json sha256 {ident['sha256'][:16]} "
              f"matches reference: {ident['matches_reference']}")
    attempted = sum(len(it.cells) for it in iterations)
    for why in failures:
        print(f"FAILED {why}")
    print(f"cell runs attempted {attempted}, failed {failed}")

    record = {"info": info, "counts": counts, "identity": identity, "failures": failures,
              "iterations": [{"base_seed": it.base_seed, "wall_s": it.wall_s}
                             for it in iterations],
              "metrics": {k: _record(v) for k, v in metrics.items()},
              "detail": {k: _record(v) for k, v in detail.items()}}
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v.value, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = max(status, proc.returncode)
            last = proc.stdout.strip().splitlines()[-1:]
            if not (last and last[0].startswith("{")):
                # Died without a result line (an uncaught exception, say).
                status = max(status, 1)
                print(f"perfbench: {workload} trace {trace} exited {proc.returncode} "
                      "without a result", file=sys.stderr)
                continue
            result = json.loads(last[0])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status
