"""Command-line interface: run experiments, rebuild reports, export curves."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .config import ConfigError, DatasetSpec, load_config
from .harness import build_report, emit_convergence, format_report, load_runs, run_experiment

_OUT_ROOT_ENV = "SFEKIT_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfekit",
        description="Feature-selection benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment's run matrix")
    run_p.add_argument("--config", required=True, help="experiment INI file")
    run_p.add_argument("--algo", action="append", metavar="NAME",
                       help="run only these algorithms (repeatable, comma-splittable)")
    run_p.add_argument("--dataset", action="append", metavar="NAME_OR_CSV",
                       help="configured dataset name, or a CSV path for an ad-hoc run")
    run_p.add_argument("--runs", type=int, help="repeats per (algorithm, dataset)")
    run_p.add_argument("--budget", type=int, help="fitness evaluations per run")
    run_p.add_argument("--seed", type=int, help="master seed of the run matrix")
    run_p.add_argument("--workers", type=int, help="parallel worker processes")
    run_p.add_argument("--label-col", default="-1", help="label column for ad-hoc CSV datasets")
    run_p.add_argument("--header", action="store_true",
                       help="ad-hoc CSV datasets have a header row")
    run_p.add_argument("--fixed-folds", action="store_true", default=None,
                       help="one CV split per dataset instead of per run")
    run_p.add_argument("--fold-mean", action="store_true", default=None,
                       help="score masks by the mean of per-fold accuracies")
    run_p.add_argument("--out", help=f"output directory (default: ${_OUT_ROOT_ENV} "
                                     "or ./sfekit-runs, plus the config name)")
    run_p.add_argument("--force", action="store_true",
                       help="write into a non-empty output directory")
    run_p.set_defaults(handler=_cmd_run)

    rep_p = sub.add_parser("report", help="rebuild the report from persisted runs")
    rep_p.add_argument("experiment_dir")
    rep_p.set_defaults(handler=_cmd_report)

    conv_p = sub.add_parser("converge", help="export mean convergence curves as CSV")
    conv_p.add_argument("experiment_dir")
    conv_p.add_argument("--out", required=True, help="directory for the CSV files")
    conv_p.set_defaults(handler=_cmd_converge)
    return parser


def _split_multi(values):
    out = []
    for v in values:
        out.extend(p.strip() for p in v.split(",") if p.strip())
    return out


def _apply_overrides(cfg, args):
    scalars = ("runs", "budget", "seed", "workers", "fixed_folds", "fold_mean", "out")
    updates = {key: getattr(args, key) for key in scalars if getattr(args, key) is not None}
    if args.algo:
        updates["algorithms"] = tuple(_split_multi(args.algo))
        if cfg.reference not in updates["algorithms"]:
            updates["reference"] = ""  # the report marks against its default
    if args.dataset:
        by_name = {spec.name: spec for spec in cfg.datasets}
        chosen = []
        for entry in _split_multi(args.dataset):
            if entry in by_name:
                chosen.append(by_name[entry])
            elif os.path.isfile(entry):
                try:
                    chosen.append(DatasetSpec(
                        name=os.path.splitext(os.path.basename(entry))[0],
                        path=os.path.abspath(entry),
                        label_col=args.label_col,
                        header=args.header,
                    ))
                except ConfigError as exc:
                    raise ConfigError(f"--label-col for {entry}: {exc}") from None
            else:
                raise ConfigError(
                    f"--dataset {entry!r} is neither a configured name nor a CSV file"
                )
        updates["datasets"] = tuple(chosen)
    return dataclasses.replace(cfg, **updates)


def _default_out_dir(config_path: str) -> str:
    root = os.environ.get(_OUT_ROOT_ENV, "sfekit-runs")
    stem = os.path.splitext(os.path.basename(config_path))[0]
    return os.path.join(root, stem)


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out_dir = cfg.out or _default_out_dir(args.config)
    if os.path.isdir(out_dir) and os.listdir(out_dir) and not args.force:
        print(f"error: output directory {out_dir} is not empty (use --force)",
              file=sys.stderr)
        return 2
    report = run_experiment(cfg, out_dir)
    print(format_report(report), end="")
    print(f"\nwrote {out_dir}/report.json, report.txt and raw runs")
    if report["failures"]:
        return 1
    return 0


def _cmd_report(args) -> int:
    cfg = load_config(os.path.join(args.experiment_dir, "config.ini"))
    results = load_runs(args.experiment_dir)
    report = build_report(cfg, results)
    print(format_report(report), end="")
    return 0


def _cmd_converge(args) -> int:
    written = emit_convergence(args.experiment_dir, args.out)
    if not written:
        print("no successful runs with traces found", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
