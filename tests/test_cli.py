import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftbandits
import driftbandits.cli as cli
from driftbandits.cli import _write_curve_csv, main
from driftbandits.harness import LOCKSTEP_SIZES
from driftbandits.lockstep import LOCKSTEP_MIN


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


@pytest.mark.parametrize("text, argv, key", [
    ("{", [], "config"),
    ("[1]", [], "config"),
    ('{"env": {"kind": "flip", "T": 150}, "policy": {"kind": "ucb1"}, "bogus": 1}', [],
     "bogus"),
    (None, ["--set", "reps"], "reps"),
    (None, ["--set", "=3"], "=3"),
], ids=["invalid_json", "not_an_object", "unknown_top_level_key", "set_without_equals",
        "set_with_an_empty_key"])
def test_whole_document_and_set_refusals_exit_2_and_name_the_key(tiny_config, tmp_path, capsys,
                                                                 text, argv, key):
    path = tiny_config
    if text is not None:
        path = tmp_path / "document.json"
        path.write_text(text)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o"), *argv])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


def test_unknown_reproduce_target_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "table9"])
    assert exc.value.code == 2


def test_scaling_needs_three_horizons(tmp_path, capsys):
    for horizons in ("100,200", "100,100,100", "100,100,200,400"):  # all distinct
        code = main(["scaling", "--family", "flip", "--policy", "ucb1",
                     "--horizons", horizons, "--out", str(tmp_path / "o"),
                     "--reps", "1"])
        assert code == 2
        assert "horizons" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "reproduce"])
def test_traced_config_without_a_trace_file_exits_2(tiny_config, tmp_path, capsys,
                                                     command):
    # only `run` writes trace.csv; the others refuse a traced config
    # rather than run it untraced
    head = (["sweep", "--config", str(tiny_config), "--grid", "10,15"]
            if command == "sweep" else ["reproduce", "fig2"])
    code = main([*head, "--set", "trace=true", "--set", "reps=1",
                 "--set", "env.T=100", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error: trace:" in capsys.readouterr().err


def test_flip_too_short_for_its_segments_exits_2(tmp_path, capsys):
    # floor(T / segments) = 1 would put a breakpoint at step 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"env": {"kind": "flip", "T": 3, "segments": 2},
                                "policy": {"kind": "ucb1"}}))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: env: T=3 is too short for 2 segments" in err


# name -> (config, refusal, the pools it starts on two CPUs at --workers 2)
DRIFT_OVERFLOW = {
    # a drifted reward l * chi overflows to inf at run time
    "linear": ({"env": {"kind": "flip", "T": 5000, "segments": 4},
                "policy": {"kind": "eps_greedy"},
                "drift": {"kind": "linear", "l": 1e300}, "reps": 3},
               "drift.l: drift overflows at run time", [2]),
    # the drift bound l * cap is itself inf
    "saturating": ({"env": {"kind": "flip", "T": 500, "segments": 4},
                    "policy": {"kind": "eps_greedy"},
                    "drift": {"kind": "saturating", "l": 1e308, "cap": 1e10},
                    "reps": 3},
                   "drift: l * cap must be finite", []),
    # the same two on UCB-family policies, at rep counts that fill lockstep
    # blocks: the linear row runs two blocks of 64 reps on a pool of 2 when
    # workers=2; the saturating row is refused as its config is parsed, so
    # it reaches no block and starts no pool
    "linear_lockstep": ({"env": {"kind": "flip", "T": 5000, "segments": 4},
                         "policy": {"kind": "swucb", "tau_c": 1.0},
                         "drift": {"kind": "linear", "l": 1e300},
                         "reps": 2 * LOCKSTEP_SIZES[0]},
                        "drift.l: drift overflows at run time", [2]),
    "saturating_lockstep": ({"env": {"kind": "flip", "T": 500, "segments": 4},
                             "policy": {"kind": "ucb1"},
                             "drift": {"kind": "saturating", "l": 1e308, "cap": 1e10},
                             "reps": LOCKSTEP_MIN},
                            "drift: l * cap must be finite", []),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("drift", list(DRIFT_OVERFLOW))
def test_drift_overflow_exits_2_and_names_key(tmp_path, capsys, pools, drift, workers):
    config, message, sizes = DRIFT_OVERFLOW[drift]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--workers", workers])
    assert code == 2
    assert message in capsys.readouterr().err
    assert [size for size, _ in pools] == (sizes if workers == "2" else [])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers, sizes", [("1", []), ("2", [2])])
def test_reproduce_runs_every_config_on_one_pool(tmp_path, pools, workers, sizes):
    assert main(["reproduce", "fig2", "--set", "reps=2", "--set", "env.T=300",
                 "--workers", workers, "--out", str(tmp_path)]) == 0
    assert [size for size, _ in pools] == sizes  # three configs, one block each
    assert multiprocessing.active_children() == []


def test_refusal_inside_a_shared_pool_exits_2_and_stops_the_workers(tmp_path, capsys, pools):
    code = main(["reproduce", "fig2", "--set", f"reps={LOCKSTEP_MIN}",
                 "--set", "drift.l=1e300", "--workers", "2", "--out", str(tmp_path)])
    assert code == 2
    assert "drift.l: drift overflows at run time" in capsys.readouterr().err
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


def test_error_while_writing_exits_1_and_stops_the_workers(tmp_path, capsys, pools,
                                                           monkeypatch):
    def full_disk(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "_write_curve_csv", full_disk)
    code = main(["reproduce", "fig2", "--set", "reps=2", "--set", "env.T=300",
                 "--workers", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "No space left on device" in capsys.readouterr().err
    assert len(pools) == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("key, value", [("env.T", 10**13), ("reps", 10**12)])
def test_sizes_too_large_to_hold_exit_2_and_name_the_key(tmp_path, capsys, key, value):
    code = main(["run", "--config", str(CONFIGS / "flip_b1.json"), "--out", str(tmp_path),
                 "--set", f"{key}={value}"])
    assert code == 2
    assert f"config error: {key}: " in capsys.readouterr().err


def test_figure_curves_too_large_to_hold_exit_2_and_name_the_key(tmp_path, capsys):
    # the schedule alone would pass at T = 4e6; with the curve sums it does not
    code = main(["reproduce", "fig2", "--set", "env.T=4000000", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error: env.T: T=4000000 and reps=100 with curves need about" in (
        capsys.readouterr().err)
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


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


def test_reproduce_fig4_at_a_horizon_whose_exact_span_overshot(tmp_path):
    # T = 5001 once refused: "variation 3.0000000000000844 exceeds the budget 3.0"
    assert main(["reproduce", "fig4", "--set", "env.T=5001", "--set", "reps=1",
                 "--out", str(tmp_path)]) == 0


def test_curve_csv_has_the_bytes_of_csv_writer(tmp_path):
    values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 5e-324,
              1.7976931348623157e308, 123456789012345.67, 0.1, 1 / 3, 2.5e16]
    mean = np.array(values * 3)
    stderr = np.array(values[::-1] * 3)
    _write_curve_csv(tmp_path / "fast.csv", mean, stderr)
    with open(tmp_path / "writer.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "mean_metric", "stderr"])
        for t, (m, s) in enumerate(zip(mean.tolist(), stderr.tolist()), start=1):
            writer.writerow([t, repr(m), repr(s)])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "writer.csv").read_bytes()


def test_reproduce_outputs_are_idempotent(tmp_path):
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["reproduce", "fig2", "--set", "reps=2", "--set", "env.T=300",
                     "--out", str(out)]) == 0
        blobs.append((out / "fig2_ducb_regret.csv").read_bytes())
    assert blobs[0] == blobs[1]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("config, kind, switched", [
    ("sinusoidal_v3.json", "policy.kind=ucb1", {"kind": "ucb1"}),
    ("flip_b1.json", "env.kind=sinusoidal",
     {"kind": "sinusoidal", "T": 5000, "budget": 3.0, "amplitude": 0.3,
      "active_fraction": 1.0}),
])
def test_set_switches_a_section_kind(tmp_path, config, kind, switched):
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / config), "--out", str(out),
                 "--set", kind, "--set", "reps=1"]) == 0
    section = kind.split(".")[0]
    d = json.loads((out / "summary.json").read_text())
    assert d["config"][section] == switched


def test_set_kind_switch_refuses_a_named_foreign_key(tmp_path, capsys):
    code = main(["run", "--config", str(CONFIGS / "sinusoidal_v3.json"),
                 "--out", str(tmp_path / "o"), "--set", "policy.kind=ucb1",
                 "--set", "policy.prior_a=2.0"])
    assert code == 2
    assert "policy.prior_a" in capsys.readouterr().err

