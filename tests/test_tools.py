"""The measuring scripts under tools/ still run against the engines they time,
and perfbench's tracer still finds the names it patches."""

import importlib.util
from pathlib import Path

import pytest

from driftbandits import harness

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    ("lockstep_crossover", ["--reps", "8,20", "--env", "flip"], 8),
    ("block_sizes", ["--reps", "4,40", "--sizes", "8,20", "--kinds", "ucb1,ducb"], 4),
    ("kernel_speed", ["--envs", "flip,sinusoidal"], 5),
])
def test_tool_prints_its_tables(name, argv, rows, capsys):
    assert load(name).main([*argv, "--T", "200", "--rounds", "1"]) == 0
    # a header row names its columns "R=..." or "N=..."
    body = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("| ") and "=" not in ln]
    assert len(body) == rows
    assert all(ln.count("|") == len(argv[1].split(",")) + 2 for ln in body)


@pytest.mark.parametrize("restarts", [False, True], ids=["no_restarts", "restarts"])
def test_tracer_patches_names_that_exist_and_restores_them(restarts, tmp_path):
    tracer = load("tracer", ROOT / "perfbench")
    patched = [(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    patched.append((harness, "ProcessPoolExecutor"))
    assert [(owner, attr) for owner, attr in patched if not hasattr(owner, attr)] == []
    originals = [getattr(owner, attr) for owner, attr in patched]
    policy = harness.preset_policy("ucb1")
    config = (harness.sinusoidal_config(3.0, policy, T=200, reps=2) if restarts
              else harness.flip_config(1, policy, T=200, reps=2))
    with tracer.Tracer(tmp_path) as traced:
        harness.run_experiment(config)
    names = {span[1] for span in traced.spans}
    engine = "restart.run_restarting" if restarts else "incentive.run_incentivized"
    assert {"harness.run_experiment", "harness.run_replication", "harness.resolve",
            "seeding.make_rng", "incentive.run_segment", engine} <= names
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(patched, originals))
