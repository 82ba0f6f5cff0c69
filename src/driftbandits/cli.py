"""Command-line front end.

Subcommands:

* ``run``        one experiment from a JSON config; writes ``summary.json``
* ``sweep``      grid the policy's tuning constant; writes the table + best
* ``scaling``    log-log slope of mean regret/compensation against T
* ``reproduce``  the harness presets compared against built-in reference
                 values (``table2``/``table3``) or emitted as plot data
                 (``fig2``..``fig5``)

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration/usage.
All outputs are byte-deterministic for a fixed config and seed, at any
``--workers`` setting.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import closing
from pathlib import Path

from .harness import (
    DEFAULT_DRIFT_L,  # noqa: F401 - re-exported as cli.DEFAULT_DRIFT_L
    DEFAULT_SEED,
    FIG2_TUNING,
    ConfigError,
    ExperimentConfig,
    flip_config,
    preset_policy,
    run_experiment,
    run_experiments,
    scaling_probe,
    sinusoidal_config,
    sweep,
    write_summary_json,
)
from .policy import POLICY_KINDS, PolicyParams
from .svgplot import render_lines_svg

# Reference results for the abrupt flip environment (T=5000, 100 reps),
# per breakpoint count: tuning constants and mean regret/compensation of
# UCB1 / SWUCB / DUCB under the incentivized loop.
TABLE2_REFERENCE = {
    1: {"gamma_c": 15.0, "tau_c": 1.0, "R_U": 275.2, "R_S": 135.1, "R_D": 142.7,
        "C_U": 42.1, "C_S": 53.2, "C_D": 64.2},
    2: {"gamma_c": 10.0, "tau_c": 1.0, "R_U": 364.2, "R_S": 203.5, "R_D": 205.7,
        "C_U": 42.5, "C_S": 70.7, "C_D": 92.3},
    3: {"gamma_c": 15.0, "tau_c": 1.0, "R_U": 430.4, "R_S": 239.5, "R_D": 247.1,
        "C_U": 41.6, "C_S": 81.2, "C_D": 82.8},
    4: {"gamma_c": 15.0, "tau_c": 0.95, "R_U": 394.8, "R_S": 264.1, "R_D": 259.7,
        "C_U": 41.4, "C_S": 95.1, "C_D": 89.2},
    5: {"gamma_c": 10.0, "tau_c": 1.0, "R_U": 423.7, "R_S": 288.9, "R_D": 302.4,
        "C_U": 39.8, "C_S": 100.8, "C_D": 112.3},
    6: {"gamma_c": 25.0, "tau_c": 1.0, "R_U": 481.8, "R_S": 330.1, "R_D": 279.1,
        "C_U": 38.5, "C_S": 107.9, "C_D": 67.6},
    7: {"gamma_c": 30.0, "tau_c": 0.95, "R_U": 484.2, "R_S": 339.0, "R_D": 299.7,
        "C_U": 38.6, "C_S": 117.1, "C_D": 59.2},
}

# Reference results for the budgeted sinusoidal environment (T=5000,
# 2000 reps) under the restarting scheduler, per variation budget:
# UCB1 / eps-greedy / Thompson sampling.
TABLE3_BUDGETS = (3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 24.0)
TABLE3_REFERENCE = {
    "R_U": (156.1, 175.9, 185.7, 191.4, 198.3, 207.5, 210.3),
    "C_U": (88.9, 107.4, 119.8, 127.2, 135.0, 145.6, 149.8),
    "R_eG": (143.1, 164.1, 180.2, 192.0, 202.3, 215.0, 229.0),
    "C_eG": (37.3, 52.4, 64.1, 73.6, 80.7, 88.7, 99.5),
    "R_T": (125.1, 147.2, 163.8, 177.8, 185.9, 197.8, 211.6),
    "C_T": (48.4, 69.0, 84.9, 97.5, 107.5, 118.1, 132.2),
}


def table2_policies(beta: int) -> dict:
    row = TABLE2_REFERENCE[beta]
    return {tag: preset_policy(kind, row)
            for tag, kind in (("U", "ucb1"), ("S", "swucb"), ("D", "ducb"))}


# The reference experiments never state the scheduler constant lam (the
# sub-policy's worst-case-regret constant) nor the eps-greedy schedule;
# these were calibrated once against the reference column and fixed.
TABLE3_PRESETS = {
    "U": (PolicyParams(kind="ucb1"), 3.0),
    "eG": (PolicyParams(kind="eps_greedy", eps_c=1.0), 0.5),
    "T": (PolicyParams(kind="thompson"), 1.0),
}


def _abrupt_figure(tuning: dict) -> list:
    return [(None, kind, flip_config(1, preset_policy(kind, tuning)))
            for kind in ("ucb1", "ducb", "swucb")]


_DRIFT_FIGURE = [
    (None, pol.kind, sinusoidal_config(3.0, pol, lam=lam))
    for pol, lam in TABLE3_PRESETS.values()
]

# ``reproduce`` targets: the experiments each one runs, in order, as
# (table row, label, config).  Tables label rows by policy tag, figures
# label curves by policy kind.
REPRODUCE_PRESETS = {
    "table2": [
        (beta, tag, flip_config(beta, pol))
        for beta in sorted(TABLE2_REFERENCE)
        for tag, pol in table2_policies(beta).items()
    ],
    "table3": [
        (budget, tag, sinusoidal_config(budget, pol, lam=lam))
        for budget in TABLE3_BUDGETS
        for tag, (pol, lam) in TABLE3_PRESETS.items()
    ],
    "fig2": _abrupt_figure(FIG2_TUNING),
    "fig3": _abrupt_figure({"gamma_c": 40.0, "tau_c": 1.0}),
    "fig4": _DRIFT_FIGURE,
    "fig5": _DRIFT_FIGURE,
}

# Tables: the header of the row column and the reference values per row.
REFERENCE_TABLES = {
    "table2": ("beta", TABLE2_REFERENCE),
    "table3": ("v_t", {
        budget: {key: column[i] for key, column in TABLE3_REFERENCE.items()}
        for i, budget in enumerate(TABLE3_BUDGETS)
    }),
}

# Figures: the curves each one plots, as (plot name, metric name).
_REGRET_CURVES = (("regret", "pseudo_regret"), ("compensation", "compensation"))
FIGURE_CURVES = {
    "fig2": _REGRET_CURVES,
    "fig3": _REGRET_CURVES,
    "fig4": (("reward", "true_reward"),),
    "fig5": _REGRET_CURVES,
}


def _overrides(args) -> dict:
    """The ``--set KEY=VALUE`` assignments, plus ``--seed`` as ``base_seed``."""
    out = {}
    for item in args.set or ():
        if "=" not in item:
            raise ConfigError(item, "--set expects KEY=VALUE")
        key, _, raw = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(item, "--set expects KEY=VALUE")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw  # bare strings (e.g. kind names) pass through
    if args.seed is not None:
        out["base_seed"] = args.seed
    return out


def _load_config(args) -> ExperimentConfig:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
    config = ExperimentConfig.from_json(text).with_overrides(_overrides(args))
    config.resolve()  # fail fast on semantic errors
    return config


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    config = _load_config(args)
    out = _outdir(args)
    trace_path = out / "trace.csv" if config.trace else None
    summary = run_experiment(config, workers=args.workers, trace_path=trace_path)
    write_summary_json(summary, out / "summary.json")
    m = summary.mean
    print(
        f"pseudo_regret={m['pseudo_regret']:.4f} "
        f"realized_regret={m['realized_regret']:.4f} "
        f"compensation={m['compensation']:.4f} "
        f"reps={summary.reps}"
    )
    print(f"wrote {out / 'summary.json'}")
    if trace_path is not None:
        print(f"wrote {trace_path}")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    result = sweep(config, values=args.grid, workers=args.workers)
    out = _outdir(args)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([result.param, "pseudo_regret", "compensation"])
        for p in result.points:
            writer.writerow([p.value, repr(p.pseudo_regret), repr(p.compensation)])
    write_summary_json(result.best_summary, out / "best_summary.json")
    print(f"best {result.param}={result.best.value:g} "
          f"pseudo_regret={result.best.pseudo_regret:.4f}")
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_scaling(args) -> int:
    report = scaling_probe(
        args.family,
        args.horizons,
        policy_kind=args.policy,
        reps=args.reps,
        base_seed=args.seed if args.seed is not None else DEFAULT_SEED,
        workers=args.workers,
    )
    out = _outdir(args)
    line = (
        f"{report.family} {report.policy} "
        f"regret_slope={report.regret_slope:.4f} "
        f"compensation_slope={report.compensation_slope:.4f}"
    )
    with open(out / "scaling_report.txt", "w") as fh:
        fh.write(line + "\n")
    with open(out / "scaling_points.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["T", "pseudo_regret", "compensation"])
        for T, r, c in zip(report.horizons, report.regret_means, report.compensation_means):
            writer.writerow([T, repr(r), repr(c)])
    print(line)
    print(f"wrote {out / 'scaling_report.txt'}")
    return 0


def _write_curve_csv(path, mean_arr, stderr_arr) -> None:
    """The bytes ``csv.writer`` writes for these rows, in one ``write``.

    A float's repr holds no comma, quote or line break, so no field is quoted.
    """
    rows = zip(range(1, mean_arr.size + 1), mean_arr.tolist(), stderr_arr.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("t,mean_metric,stderr\r\n"
                 + "".join([f"{t},{m!r},{s!r}\r\n" for t, m, s in rows]))


def cmd_reproduce(args) -> int:
    out = _outdir(args)
    target = args.target
    overrides = _overrides(args)
    curves = FIGURE_CURVES.get(target)
    rows, series = [], {}
    presets = REPRODUCE_PRESETS[target]
    summaries = run_experiments([config.with_overrides(overrides) for _, _, config in presets],
                                workers=args.workers, collect_curves=curves is not None)
    with closing(summaries):  # an early exit shuts the pool down
        for (row, label, _), summary in zip(presets, summaries):
            if curves is None:
                reference = REFERENCE_TABLES[target][1][row]
                for metric, field in (("R", "pseudo_regret"), ("C", "compensation")):
                    key = f"{metric}_{label}"
                    ours, ref_v = summary.mean[field], reference[key]
                    dev = (ours - ref_v) / ref_v
                    rows.append([row, key, f"{ours:.4f}", ref_v, f"{dev:+.4f}"])
            else:
                for metric, key in curves:
                    mean = summary.curve_mean[key]
                    _write_curve_csv(out / f"{target}_{label}_{metric}.csv", mean,
                                     summary.curve_stderr[key])
                    series.setdefault(metric, {})[label] = (range(1, mean.size + 1, 10),
                                                            mean[::10].tolist())
    if curves is None:
        path = out / f"{target}_comparison.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([REFERENCE_TABLES[target][0], "metric", "produced",
                             "reference", "rel_dev"])
            writer.writerows(rows)
        print(f"wrote {path}")
    else:
        for metric, lines in series.items():
            render_lines_svg(lines, out / f"{target}_{metric}.svg",
                             title=f"{target} {metric}", ylabel=metric)
        print(f"wrote {target} plot data under {out}")
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _number_list(kind):
    """Argparse type: a nonempty comma-separated list of ``kind`` values."""

    def parse(text: str) -> list:
        try:
            values = [kind(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError(f"expected a value, got {text!r}")
        return values

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftbandits",
        description="Incentivized exploration experiments for non-stationary bandits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, overrides=True):
        if config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        if overrides:
            p.add_argument("--set", action="append", metavar="KEY=VALUE",
                           help="override a config key (dotted path)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel workers (at most the CPU count are started)")
        p.add_argument("--seed", type=int, default=None, help="override base_seed")

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid the policy tuning constant")
    common(p_sweep)
    p_sweep.add_argument("--grid", type=_number_list(float),
                         help="comma-separated grid values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_scaling = sub.add_parser("scaling", help="log-log growth against T")
    common(p_scaling, config=False, overrides=False)
    p_scaling.add_argument("--family", choices=("flip", "sinusoidal"), required=True)
    p_scaling.add_argument("--policy", default="ducb", choices=POLICY_KINDS)
    p_scaling.add_argument("--horizons", required=True, type=_number_list(int),
                           help="comma-separated horizon list (>= 3 values)")
    p_scaling.add_argument("--reps", type=_positive_int, default=200)
    p_scaling.set_defaults(func=cmd_scaling)

    p_rep = sub.add_parser("reproduce", help="rerun the reference experiments")
    p_rep.add_argument("target", choices=tuple(REPRODUCE_PRESETS))
    common(p_rep, config=False)
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
