import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftbandits
from driftbandits.cli import main


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "env": {"kind": "flip", "T": 150, "segments": 2, "hi": 0.9, "lo": 0.1},
        "policy": {"kind": "ducb", "gamma_c": 15.0},
        "drift": {"kind": "linear", "l": 0.2},
        "restart": None,
        "reps": 3,
        "base_seed": 5,
        "trace": False,
    }))
    return path


def test_run_writes_summary(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
    d = json.loads((out / "summary.json").read_text())
    assert "pseudo_regret" in d["metrics"]
    assert "compensation" in d["metrics"]
    assert d["reps"] == 3


def test_run_is_byte_deterministic(tiny_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main([
            "run", "--config", str(tiny_config), "--out", str(out),
            "--set", "reps=1", "--set", "base_seed=7",
        ])
        assert code == 0
        outs.append((out / "summary.json").read_bytes())
    assert outs[0] == outs[1]


def test_run_worker_count_invariant(tiny_config, tmp_path):
    blobs = []
    for name, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / name
        assert main(["run", "--config", str(tiny_config), "--out", str(out),
                     "--workers", workers]) == 0
        blobs.append((out / "summary.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_run_emits_trace_when_enabled(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_config), "--out", str(out),
                 "--set", "trace=true", "--set", "reps=1"]) == 0
    with open(out / "trace.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["rep", "t", "batch", "arm", "greedy", "comp", "drift",
                      "true_reward", "obs_reward", "cum_pseudo_regret",
                      "cum_realized_regret", "cum_comp"]


def test_invalid_reps_exits_2_and_names_key(tiny_config, tmp_path, capsys):
    code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                 "--set", "reps=0"])
    assert code == 2
    assert "reps" in capsys.readouterr().err


def test_unknown_override_key_exits_2(tiny_config, tmp_path, capsys):
    code = main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
                 "--set", "policy.window=9"])
    assert code == 2
    assert "policy.window" in capsys.readouterr().err


def test_infinite_prior_exits_2_and_names_key(tmp_path):
    # json reads Infinity; an infinite Beta prior once made betavariate spin
    path = tmp_path / "config.json"
    path.write_text('{"env": {"kind": "flip", "T": 150}, "reps": 1, '
                    '"policy": {"kind": "thompson", "prior_a": Infinity}}')
    src = str(Path(driftbandits.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "driftbandits.cli", "run", "--config", str(path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2
    assert "policy.prior_a" in proc.stderr


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tiny_config, tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o"),
              "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_scaling_reps_below_one_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scaling", "--family", "flip", "--horizons", "100,200,400",
              "--reps", "0", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--reps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["run", "--set", "policy.gamma_c=0"], "gamma_c"),
        (["run", "--set", "policy.gamma_c=-15"], "gamma_c"),
        (["run", "--set", 'policy={"kind": "swucb", "tau_c": -1}'], "tau_c"),
        (["sweep", "--grid", "15,-1"], "gamma_c"),
    ],
)
def test_non_positive_tuning_constant_exits_2(tiny_config, tmp_path, capsys,
                                              argv, name):
    code = main([*argv, "--config", str(tiny_config), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{name} must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ['{"kind": "ducb", "gamma_c": 15}',
                                    '{"kind": "swucb", "tau_c": 1.0}'])
def test_short_horizon_with_tuning_constant_exits_2(tmp_path, capsys, policy):
    path = tmp_path / "config.json"
    path.write_text('{"env": {"kind": "flip", "T": 1, "segments": 1}, '
                    f'"policy": {policy}}}')
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "env.T" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["scaling", "--family", "flip", "--horizons", "100,abc,300"], "--horizons"),
        (["sweep", "--config", "unused.json", "--grid", "10,abc"], "--grid"),
        (["sweep", "--config", "unused.json", "--grid", ","], "--grid"),
    ],
)
def test_malformed_number_lists_exit_2(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_reproduce_target_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "table9"])
    assert exc.value.code == 2


def test_scaling_needs_three_horizons(tmp_path, capsys):
    code = main(["scaling", "--family", "flip", "--horizons", "100,200",
                 "--out", str(tmp_path / "o"), "--reps", "1"])
    assert code == 2
    assert "horizons" in capsys.readouterr().err


def test_scaling_writes_report(tmp_path):
    out = tmp_path / "o"
    code = main(["scaling", "--family", "flip", "--policy", "ducb",
                 "--horizons", "100,200,400", "--reps", "2",
                 "--out", str(out), "--workers", "2"])
    assert code == 0
    line = (out / "scaling_report.txt").read_text()
    assert "regret_slope=" in line
    with open(out / "scaling_points.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["T", "pseudo_regret", "compensation"]
    assert len(rows) == 4


def test_sweep_writes_table_and_best(tiny_config, tmp_path):
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(tiny_config), "--grid", "10,15",
                 "--out", str(out), "--set", "reps=2"])
    assert code == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma_c", "pseudo_regret", "compensation"]
    assert len(rows) == 3
    assert (out / "best_summary.json").exists()


def test_reproduce_table2_smoke(tmp_path):
    out = tmp_path / "o"
    code = main(["reproduce", "table2", "--set", "reps=2", "--set", "env.T=400",
                 "--out", str(out), "--workers", "2"])
    assert code == 0
    with open(out / "table2_comparison.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["beta", "metric", "produced", "reference", "rel_dev"]
    assert len(rows) == 1 + 7 * 3 * 2  # 7 rows x 3 policies x {R, C}


def test_reproduce_fig4_smoke(tmp_path):
    out = tmp_path / "o"
    code = main(["reproduce", "fig4", "--set", "reps=2", "--set", "env.T=500",
                 "--out", str(out)])
    assert code == 0
    for label in ("ucb1", "eps_greedy", "thompson"):
        path = out / f"fig4_{label}_reward.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "mean_metric", "stderr"]
        assert len(rows) == 1 + 500
        totals = [float(r[1]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(totals, totals[1:]))  # cumulative reward
    assert (out / "fig4_reward.svg").read_text().startswith("<svg")


def test_reproduce_outputs_are_idempotent(tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["reproduce", "fig2", "--set", "reps=2", "--set", "env.T=300",
                     "--out", str(out)]) == 0
        blobs.append((out / "fig2_ducb_regret.csv").read_bytes())
    assert blobs[0] == blobs[1]
