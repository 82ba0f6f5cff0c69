"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run

run.import_library()

import driftbandits.cli as cli  # noqa: E402
import driftbandits.harness as harness  # noqa: E402

from perfbench import bench, layers, workloads  # noqa: E402

ROOT = run.ROOT


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference(bench.REFERENCE)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in layers.LAYER_METRICS.items()
    }
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_reference_covers_every_cell(reference):
    for w in workloads.WORKLOADS.values():
        for cell, config in w.cells.items():
            assert reference["cells"][f"{w.name}/{cell}"]["config"] == config


def test_pooled_matches_the_replications_it_summarizes():
    values = np.random.default_rng(3).exponential(50.0, size=36)
    results = [
        workloads.CellResult("ucb1", 12, {"m": float(part.mean())},
                             {"m": float(part.std(ddof=1) / math.sqrt(12))})
        for part in values.reshape(3, 12)
    ]
    mean, stderr = workloads.pooled(results, "m")
    assert mean == pytest.approx(values.mean(), rel=1e-12)
    assert stderr == pytest.approx(values.std(ddof=1) / 6.0, rel=1e-12)


def test_gate(reference):
    w = workloads.WORKLOADS["abrupt-ucb"]
    ref = reference["cells"]["abrupt-ucb/ucb1"]

    def result(shift=0.0, **extra):
        mean = {m: ref[m]["mean"] for m in workloads.GATED_METRICS}
        mean["compensation"] += shift
        stderr = {m: ref[m]["stderr"] * 5 for m in workloads.GATED_METRICS}
        return workloads.CellResult("ucb1", 12, {**mean, **extra}, stderr)

    assert workloads.gate(w, "ucb1", [result(), result()], reference) is None
    far = result(shift=50 * ref["compensation"]["stderr"])
    assert "compensation" in workloads.gate(w, "ucb1", [far, far], reference)
    assert workloads.cell_error(result()) is None
    nan = result()
    nan.mean["pseudo_regret"] = math.nan
    assert "not finite" in workloads.cell_error(nan)
    failed = workloads.CellResult("ucb1", 12, error="ValueError: boom")
    assert workloads.cell_error(failed) == "ValueError: boom"


def test_exact_counts_repeat_at_one_seed(reference, tmp_path):
    for w in workloads.WORKLOADS.values():
        runs = [
            bench.per_layer(w, 7, 0.0, reference, tmp_path, reps=3, min_iterations=1,
                            out=tmp_path)
            for _ in range(2)
        ]
        counts = [r[2] for r in runs]
        assert counts[0] == counts[1]
        assert set(counts[0]) == set(w.cells)
        assert all(c["count_pass"]["compensated_steps"] > 0 for c in counts[0].values())
        assert set(runs[0][0]) == set(layers.LAYER_METRICS)


def test_worker_invariance(tmp_path):
    w = workloads.WORKLOADS["reproduce-curves"]
    config = harness.ExperimentConfig.from_dict(w.config("swucb", 6, 11))
    summaries = []
    for workers in (1, 2):
        summary = harness.run_experiment(config, workers=workers, collect_curves=True)
        path = tmp_path / f"summary-{workers}.json"
        harness.write_summary_json(summary, path)
        summaries.append((path.read_bytes(), summary.curve_mean))
    assert summaries[0][0] == summaries[1][0]
    for name, curve in summaries[0][1].items():
        assert (curve == summaries[1][1][name]).all()


def test_cli_cells_match_workload_configs(tmp_path):
    w = workloads.WORKLOADS["reproduce-curves"]
    assert cli.main(["reproduce", "fig2", "--set", "reps=3", "--seed", "5",
                     "--out", str(tmp_path)]) == 0
    for cell in w.cells:
        produced = workloads._read_curve_cell(tmp_path, cell, 3)
        assert produced.error is None
        config = harness.ExperimentConfig.from_dict(w.config(cell, 3, 5))
        summary = harness.run_experiment(config)
        for metric in workloads.GATED_METRICS:
            assert produced.mean[metric] == pytest.approx(summary.mean[metric], rel=1e-12)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "abrupt-ucb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_all_survives_a_child_without_a_result(monkeypatch, capsys):
    def crashed(*args, **kwargs):
        return subprocess.CompletedProcess(args, 1, stdout="Traceback ...\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", crashed)
    assert bench.run_all(1, 1.0) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
