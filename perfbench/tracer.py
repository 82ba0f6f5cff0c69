"""Spans around the library's public calls, recorded from outside the library.

A :class:`Tracer` swaps timing wrappers into the driftbandits modules for the
duration of a ``with`` block and restores the originals on exit.  Each span
is a tuple ``(id, name, start, end, parent, cell, iteration, info)``; times
come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from pool
workers share the parent's clock).  Spans stay in memory; pool workers append
theirs to one file per worker, which the parent reads back on exit.

The wrappers cost about a microsecond per call, so they sit only around
calls made at most once per restart batch, never around per-step calls.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

import driftbandits.cli as cli
import driftbandits.harness as harness
import driftbandits.incentive as incentive
import driftbandits.restart as restart

_ORIGINAL = "__perfbench_original__"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _experiment_info(args, kwargs, result):
    return {"workers": _arg(args, kwargs, 1, "workers", 1)}


def _replication_info(args, kwargs, result):
    curves = result.curves or {}
    return {
        "rep": _arg(args, kwargs, 1, "rep_index"),
        "curve_bytes": sum(int(a.nbytes) for a in curves.values()),
    }


def _segment_info(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 3, "t_end") - _arg(args, kwargs, 2, "t_start") + 1}


# (module or class, attribute, span name, info function)
TARGETS = (
    (cli, "main", "cli.main", None),
    (cli, "run_experiment", "harness.run_experiment", _experiment_info),
    (harness, "run_experiment", "harness.run_experiment", _experiment_info),
    (harness, "run_replication", "harness.run_replication", _replication_info),
    (harness.ExperimentConfig, "resolve", "harness.resolve", None),
    (harness, "make_rng", "seeding.make_rng", None),
    (harness, "make_policy", "policy.make_policy", None),
    (restart, "make_policy", "policy.make_policy", None),
    (harness, "run_incentivized", "incentive.run_incentivized", None),
    (harness, "run_restarting", "restart.run_restarting", None),
    (incentive, "run_segment", "incentive.run_segment", _segment_info),
    (restart, "run_segment", "incentive.run_segment", _segment_info),
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, child_dir: Path, root_parent=None, cell=None, iteration=0):
        self.child_dir = Path(child_dir)
        self.root_parent = root_parent  # parent of spans opened with an empty stack
        self.cell = cell
        self.iteration = iteration
        self.spans: list[tuple] = []
        self._stack: list[str] = []
        self._pid = os.getpid()
        self._count = 0
        self._in_worker = root_parent is not None
        self._saved: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.child_dir.mkdir(parents=True, exist_ok=True)
        for owner, attr, name, info in TARGETS:
            current = getattr(owner, attr)
            original = getattr(current, _ORIGINAL, current)
            self._saved.append((owner, attr, current))
            setattr(owner, attr, self._wrap(name, original, info))
        self._saved.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness.ProcessPoolExecutor = self._pool_class()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, current in reversed(self._saved):
            setattr(owner, attr, current)
        self._saved.clear()
        self.collect_workers()

    def _wrap(self, name, fn, info):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "harness.run_experiment":
                # Workload cells are named after their policy kind.
                tracer.cell = args[0].policy.kind
            tracer._count += 1
            sid = f"{tracer._pid}:{tracer._count}"
            stack = tracer._stack
            parent = stack[-1] if stack else tracer.root_parent
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            extra = info(args, kwargs, result) if info else None
            tracer.spans.append(
                (sid, name, start, end, parent, tracer.cell, tracer.iteration, extra)
            )
            if tracer._in_worker and not stack:
                tracer._flush()
            return result

        setattr(wrapper, _ORIGINAL, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Pool whose workers trace into files and whose submits are counted."""

            def __init__(self, max_workers=None, *args, **kwargs):
                parent = tracer._stack[-1] if tracer._stack else None
                kwargs["initializer"] = _worker_init
                kwargs["initargs"] = (
                    str(tracer.child_dir), parent, tracer.cell, tracer.iteration
                )
                super().__init__(max_workers, *args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                now = perf_counter()
                parent = tracer._stack[-1] if tracer._stack else None
                tracer._count += 1
                tracer.spans.append(
                    (f"{tracer._pid}:{tracer._count}", "harness.pool_submit", now, now,
                     parent, tracer.cell, tracer.iteration, None)
                )
                return super().submit(fn, *args, **kwargs)

        return TracedPool

    # -- worker side ------------------------------------------------------

    def _flush(self) -> None:
        path = self.child_dir / f"worker-{self._pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans.clear()

    def collect_workers(self) -> None:
        """Move the spans pool workers wrote into ``self.spans``."""
        for path in sorted(self.child_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "name", "start", "end", "parent", "cell", "iteration", "info")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _worker_init(child_dir, parent, cell, iteration) -> None:
    """Pool-worker initializer: trace this process's calls into ``child_dir``.

    Under ``fork`` the worker inherits the parent's wrappers; entering a new
    tracer rewraps the originals, so inherited spans are never recorded twice.
    """
    tracer = Tracer(Path(child_dir), root_parent=parent, cell=cell, iteration=iteration)
    tracer.__enter__()


def self_time(span: tuple, children: list) -> float:
    """Duration of ``span`` not covered by any of ``children`` (clipped to it)."""
    start, end = span[2], span[3]
    covered = 0.0
    cursor = start
    for c_start, c_end in sorted((max(c[2], start), min(c[3], end)) for c in children):
        if c_end <= cursor:
            continue
        covered += c_end - max(c_start, cursor)
        cursor = c_end
    return (end - start) - covered
