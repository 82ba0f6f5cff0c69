"""tools/engine_speed.py still runs against the engines it times, and
perfbench's tracer still finds the names it patches."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from driftbandits import harness, incentive

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load(name, folder=TOOLS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, rows, columns", [
    (["crossover", "--reps", "8,20", "--envs", "flip_b1"], 8, 2),
    (["split", "--reps", "4,40", "--kinds", "ucb1,ducb"], 2, 2),
    (["block", "--reps", "8,20", "--kinds", "ucb1,ducb"], 4, 2),
    (["kernel", "--envs", "flip_b3,table3_v24"], 5, 2),
], ids=["crossover", "split", "block", "kernel"])
def test_engine_speed_prints_its_tables(argv, rows, columns, capsys):
    assert load("engine_speed").main([*argv, "--T", "200", "--rounds", "1"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("| ")]
    assert len(lines) == 1 + rows  # the header and one line per row
    assert all(ln.count("|") == columns + 2 for ln in lines)


def test_rounds_alternate_the_first_cell_and_scale_each_sample_by_its_own_factor():
    ran, taken, factors = [], [], iter([1.0, 2.0, 3.0, 5.0, 7.0, 11.0])

    class Host:
        def timed(self, work):
            taken.append(work())
            return taken[-1], next(factors)

    cells = [lambda: ran.append("a"), lambda: ran.append("b")]
    samples = load("engine_speed").rounds(cells, 3, Host())
    assert ran == ["a", "b", "b", "a", "a", "b"]
    assert samples == [[taken[0] * 1.0, taken[3] * 5.0, taken[4] * 7.0],
                       [taken[1] * 2.0, taken[2] * 3.0, taken[5] * 11.0]]


def test_kernel_samples_each_build_their_own_count_term_table(monkeypatch):
    tool, held = load("engine_speed"), []

    def run_restarting(*args, **kwargs):
        held.append(incentive._held)
        return real(*args, **kwargs)

    real = tool.run_restarting
    monkeypatch.setattr(tool, "run_restarting", run_restarting)
    # without the drop, each cell would find the other kind's table held
    assert tool.main(["kernel", "--kinds", "ucb1,eps_greedy", "--envs", "flip_b3",
                      "--T", "200", "--rounds", "2"]) == 0
    assert held == [(None, None)] * 4


@pytest.mark.parametrize("restarts, traced", [(False, False), (True, False), (False, True)],
                         ids=["no_restarts", "restarts", "traced"])
def test_tracer_patches_names_that_exist_and_restores_them(restarts, traced, tmp_path):
    tracer = load("tracer", ROOT / "perfbench")
    patched = [(owner, attr) for owner, attr, _, _ in tracer.TARGETS]
    patched.append((harness, "ProcessPoolExecutor"))
    assert [(owner, attr) for owner, attr in patched if not hasattr(owner, attr)] == []
    originals = [getattr(owner, attr) for owner, attr in patched]
    policy = harness.preset_policy("ucb1")
    config = (harness.sinusoidal_config(3.0, policy, T=200, reps=2) if restarts
              else harness.flip_config(1, policy, T=200, reps=2))
    trace_path = tmp_path / "trace.csv" if traced else None
    with tracer.Tracer(tmp_path) as spans:
        harness.run_experiment(replace(config, trace=traced), trace_path=trace_path)
    assert trace_path is None or trace_path.exists()
    names = {span[1] for span in spans.spans}
    engine = "restart.run_restarting" if restarts else "incentive.run_incentivized"
    assert {"harness.run_experiment", "harness.run_replication", "harness.resolve",
            "seeding.make_rng", "incentive.run_segment", engine} <= names
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(patched, originals))
