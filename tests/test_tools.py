"""The measuring scripts under tools/ still run against the engines they time."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    ("lockstep_crossover", ["--reps", "8,20", "--env", "flip"], 6),
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
