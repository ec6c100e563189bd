"""Benchmark runner: executes the run matrix, persists raw results,
aggregates report tables and exports convergence series.

`_matrix` alone decides which runs make up an experiment and where each is
stored: `run_experiment` runs exactly those and `load_runs` reads exactly
those back, so `run`, `report` and `converge` see the same runs. Every run
is seeded from (master seed, algorithm, dataset, run index) through a
stable hash, so the whole matrix is reproducible and any single run can be
replayed in isolation. A matrix that no run could complete is refused
before anything is written; a run that fails on its own is recorded and
skipped, and never takes the rest of the matrix down.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, DatasetSpec, ExperimentConfig, load_config, write_config
from .dataset import Dataset, load_csv, stratified_kfold
from .fitness import FitnessEvaluator
from .hybrid import resolve_algorithm
from .rng import derive_seed
from .stats import friedman_mean_ranks, wilcoxon_ranksum

__all__ = [
    "RunResult",
    "CellStats",
    "ExperimentReport",
    "run_experiment",
    "build_report",
    "load_runs",
    "emit_convergence",
    "format_report",
]

_SCHEMA = 1

# Run-file schema 1: the RunResult attributes each record type carries, in
# file order. Trace keys drop the "trace_" prefix. Failed runs have no trace.
_RUN_RECORDS = {
    "meta": ("algorithm", "dataset", "run_index", "seed", "fold_seed"),
    "trace": ("trace_fes", "trace_best", "trace_nsel"),
    "final": ("ok", "error", "accuracy", "n_selected", "selected_features",
              "wall_time_s", "handoff_fes"),
}


@dataclass
class RunResult:
    """Outcome of a single (algorithm, dataset, run) cell."""

    algorithm: str
    dataset: str
    run_index: int
    seed: int
    fold_seed: int
    ok: bool
    error: str = None
    accuracy: float = float("nan")
    n_selected: int = 0
    selected_features: list = field(default_factory=list)
    wall_time_s: float = 0.0
    handoff_fes: int = None
    trace_fes: list = field(default_factory=list)
    trace_best: list = field(default_factory=list)
    trace_nsel: list = field(default_factory=list)


@dataclass
class CellStats:
    n_runs: int
    n_failed: int
    worst: float
    best: float
    mean: float
    std: float
    mean_selected: float
    mean_time_s: float


@dataclass
class ExperimentReport:
    algorithms: list
    datasets: list
    reference: str
    cells: dict  # (algorithm, dataset) -> CellStats
    marks: dict  # (algorithm, dataset) -> Mark, absent for the reference
    friedman: dict  # algorithm -> mean rank, empty when not computable
    failures: list  # dicts with algorithm/dataset/run_index/seed/error


# One run of the matrix, by the identity its meta record holds.
_Run = collections.namedtuple("_Run", _RUN_RECORDS["meta"])


def _run_cell(args) -> RunResult:
    ds, cfg, run = args
    t0 = time.perf_counter()
    try:
        folds = stratified_kfold(ds, cfg.folds, run.fold_seed)
        ev = FitnessEvaluator(
            ds, folds, knn_k=cfg.knn_k, budget=cfg.budget, fold_mean=cfg.fold_mean
        )
        trace = resolve_algorithm(run.algorithm, cfg.hybrid)(ds, ev, run.seed)
    except Exception as exc:  # recorded, not fatal to the matrix
        return RunResult(
            **run._asdict(),
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            wall_time_s=time.perf_counter() - t0,
        )
    wall = time.perf_counter() - t0
    sel = np.flatnonzero(trace.final_mask)
    return RunResult(
        **run._asdict(),
        ok=True,
        accuracy=float(trace.final_fitness),
        n_selected=int(len(sel)),
        selected_features=[int(j) for j in sel],
        wall_time_s=wall,
        handoff_fes=trace.handoff_fes,
        trace_fes=list(trace.fes),
        trace_best=list(trace.best_fitness),
        trace_nsel=list(trace.n_selected),
    )


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", name)


def _matrix(cfg: ExperimentConfig, out_dir: str) -> list:
    """Every run of ``cfg`` as (run file, `_Run`), in matrix order: datasets,
    then algorithms, then runs.

    Fold seeds derive from the run seed, or from the dataset alone when
    ``fixed_folds`` is set so every run shares one split. Two datasets
    whose names map to one run file are refused.
    """
    runs, seeds, paths = [], {}, {}
    for spec in cfg.datasets:
        for algorithm in cfg.algorithms:
            for r in range(cfg.runs):
                key = (algorithm, spec.name, r)
                seed = derive_seed(cfg.seed, *key)
                if seeds.setdefault(seed, key) != key:
                    raise RuntimeError(f"run seed collision between {seeds[seed]} and {key}")
                path = os.path.join(out_dir, "runs", _safe(spec.name), _safe(algorithm),
                                    f"run_{r:04d}.jsonl")
                if paths.setdefault(path, spec.name) != spec.name:
                    raise ConfigError(f"datasets {paths[path]!r} and {spec.name!r} share "
                                      f"the run file {path}; rename one")
                if cfg.fixed_folds:
                    fold_seed = derive_seed(cfg.seed, spec.name, "folds")
                else:
                    fold_seed = derive_seed(seed, "folds")
                runs.append((path, _Run(algorithm, spec.name, r, seed, fold_seed)))
    return runs


def _record(kind: str, res: RunResult, **head) -> dict:
    return {"type": kind, **head,
            **{a.removeprefix("trace_"): getattr(res, a) for a in _RUN_RECORDS[kind]}}


def _nan_to_null(record: dict) -> dict:
    # A bare NaN is not valid JSON, so a missing value is written as null.
    return {k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in record.items()}


def _meta(cfg: ExperimentConfig, run) -> dict:
    """The meta record of ``run``, a `_Run` or `RunResult` of ``cfg``."""
    return _record("meta", run, schema=_SCHEMA) | dict(
        budget=cfg.budget, folds=cfg.folds, knn_k=cfg.knn_k, fold_mean=cfg.fold_mean)


def _persist_run(path: str, cfg: ExperimentConfig, res: RunResult) -> None:
    """Write ``res`` to a temporary file and rename it over ``path``, so a
    run file is either complete or absent."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        fh.write(json.dumps(_meta(cfg, res)) + "\n")
        if res.ok:
            fh.write(json.dumps(_record("trace", res)) + "\n")
        fh.write(json.dumps(_nan_to_null(_record("final", res))) + "\n")
    os.replace(path + ".tmp", path)


def _load_dataset(cfg: ExperimentConfig, spec: DatasetSpec) -> Dataset:
    """Load one dataset and check that its runs can split it. Each class is
    dealt round-robin to the folds, so fold sizes depend only on the class
    counts, and one split decides for every fold seed."""
    if not os.path.isfile(spec.path):
        raise ConfigError(f"dataset {spec.name!r}: file not found: {spec.path}")
    ds = load_csv(spec.path, label_col=spec.label_col, has_header=spec.has_header)
    try:
        FitnessEvaluator(ds, stratified_kfold(ds, cfg.folds, 0), knn_k=cfg.knn_k)
    except ValueError as exc:
        raise ConfigError(f"dataset {spec.name!r}: {exc}") from None
    return ds


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> ExperimentReport:
    """Execute the full run matrix and persist everything under ``out_dir``.

    The matrix and its datasets are checked before anything is written.
    Runs execute in a process pool when ``workers`` exceeds one; either way
    each run file is written as soon as the run returns, in matrix order.
    The report is then built from the persisted runs, as ``sfekit report``
    builds it, so it does not depend on scheduling.
    """
    matrix = _matrix(cfg, out_dir)
    datasets = {spec.name: _load_dataset(cfg, spec) for spec in cfg.datasets}
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file is in the way
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from None
    write_config(cfg, os.path.join(out_dir, "config.ini"))

    tasks = [(datasets[run.dataset], cfg, run) for _, run in matrix]
    pool = concurrent.futures.ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    with pool or contextlib.nullcontext():
        for (path, *_), res in zip(matrix, (pool.map if pool else map)(_run_cell, tasks)):
            _persist_run(path, cfg, res)

    report = build_report(cfg, load_runs(out_dir))
    _write_report(out_dir, report)
    return report


def build_report(cfg: ExperimentConfig, results) -> ExperimentReport:
    """Aggregate per-run results into the report tables.

    Accuracy statistics use the sample standard deviation (ddof=1, zero
    for a single run). Pairwise rank-sum marks compare each algorithm
    against the reference per dataset; Friedman mean ranks summarise mean
    accuracies across datasets and need every (algorithm, dataset) cell to
    hold at least one successful run.
    """
    reference = cfg.pick_reference()
    names = [spec.name for spec in cfg.datasets]
    by_cell = {}
    failures = []
    for res in results:
        by_cell.setdefault((res.algorithm, res.dataset), []).append(res)
        if not res.ok:
            failures.append({
                "algorithm": res.algorithm,
                "dataset": res.dataset,
                "run_index": res.run_index,
                "seed": res.seed,
                "error": res.error,
            })

    cells = {}
    accs = {}
    for (algorithm, dataset), group in by_cell.items():
        ok = [g for g in group if g.ok]
        values = np.array([g.accuracy for g in ok], dtype=np.float64)
        accs[(algorithm, dataset)] = values
        if values.size:
            std = float(values.std(ddof=1)) if values.size > 1 else 0.0
            stats = CellStats(
                n_runs=len(ok),
                n_failed=len(group) - len(ok),
                worst=float(values.min()),
                best=float(values.max()),
                mean=float(values.mean()),
                std=std,
                mean_selected=float(np.mean([g.n_selected for g in ok])),
                mean_time_s=float(np.mean([g.wall_time_s for g in ok])),
            )
        else:
            nan = float("nan")
            stats = CellStats(len(ok), len(group), nan, nan, nan, nan, nan, nan)
        cells[(algorithm, dataset)] = stats

    marks = {}
    for dataset in names:
        ref_vals = accs.get((reference, dataset), np.empty(0))
        for algorithm in cfg.algorithms:
            if algorithm == reference:
                continue
            vals = accs.get((algorithm, dataset), np.empty(0))
            if ref_vals.size >= 2 and vals.size >= 2:
                _, mark = wilcoxon_ranksum(ref_vals, vals)
                marks[(algorithm, dataset)] = mark

    friedman = {}
    if len(cfg.algorithms) >= 2:
        table = np.array(
            [[cells[(a, d)].mean if (a, d) in cells else float("nan")
              for a in cfg.algorithms] for d in names]
        )
        if np.all(np.isfinite(table)):
            ranks = friedman_mean_ranks(table, higher_better=True)
            friedman = {a: float(r) for a, r in zip(cfg.algorithms, ranks)}

    return ExperimentReport(
        algorithms=list(cfg.algorithms),
        datasets=names,
        reference=reference,
        cells=cells,
        marks=marks,
        friedman=friedman,
        failures=failures,
    )


def _report_to_json(report: ExperimentReport) -> dict:
    cells = {}
    for (algorithm, dataset), st in report.cells.items():
        entry = _nan_to_null(dataclasses.asdict(st))
        mark = report.marks.get((algorithm, dataset))
        if mark is not None:
            entry["vs_reference"] = mark.value
        cells.setdefault(algorithm, {})[dataset] = entry
    return {
        "schema": _SCHEMA,
        "algorithms": report.algorithms,
        "datasets": report.datasets,
        "reference": report.reference,
        "cells": cells,
        "friedman_mean_ranks": report.friedman,
        "failures": report.failures,
    }


def format_report(report: ExperimentReport) -> str:
    """Fixed-width text rendering of the report tables."""
    rows = [("dataset", "algorithm", "runs", "worst", "best", "mean", "std",
             "feats", "time_s", f"vs {report.reference}")]
    for dataset in report.datasets:
        for algorithm in report.algorithms:
            st = report.cells.get((algorithm, dataset))
            if st is None:
                continue
            mark = report.marks.get((algorithm, dataset))
            tag = "ref" if algorithm == report.reference else (mark.value if mark else "")
            fail = f" ({st.n_failed} failed)" if st.n_failed else ""
            rows.append((
                dataset, algorithm, f"{st.n_runs}{fail}",
                f"{st.worst:.2f}", f"{st.best:.2f}", f"{st.mean:.2f}",
                f"{st.std:.2f}", f"{st.mean_selected:.1f}",
                f"{st.mean_time_s:.2f}", tag,
            ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if report.friedman:
        lines.append("")
        lines.append("Friedman mean ranks (1 = best):")
        for algorithm in report.algorithms:
            lines.append(f"  {algorithm}: {report.friedman[algorithm]:.4f}")
    if report.failures:
        lines.append("")
        lines.append(f"{len(report.failures)} failed run(s):")
        for f in report.failures:
            lines.append(
                f"  {f['algorithm']} on {f['dataset']} run {f['run_index']} "
                f"(seed {f['seed']}): {f['error']}"
            )
    return "\n".join(lines) + "\n"


def _write_report(out_dir: str, report: ExperimentReport) -> None:
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(_report_to_json(report), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(format_report(report))


def load_runs(out_dir: str):
    """Read back the runs that the experiment's ``config.ini`` names, in
    matrix order.

    Files under ``runs/`` that the matrix does not name are ignored. A
    missing or incomplete run file, a line that is not valid JSON, a meta
    record that differs from the run that ``config.ini`` names there, or a
    trace that is not one entry per evaluation ``1..n``, is an error that
    names the file.
    """
    cfg = load_config(os.path.join(out_dir, "config.ini"))
    results = []
    for path, run in _matrix(cfg, out_dir):
        records = {}
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}: line {lineno} is not valid JSON: {exc}") from None
                records[rec.get("type")] = rec
        if "meta" not in records or "final" not in records:
            raise ValueError(f"{path}: incomplete run record")
        for key, want in _meta(cfg, run).items():
            got = records["meta"].get(key)
            if got != want:
                raise ValueError(f"{path}: meta {key} is {got!r} but config.ini gives "
                                 f"{want!r}; the file is from another experiment")
        res = RunResult(**{
            a: records[kind][a.removeprefix("trace_")]
            for kind, attrs in _RUN_RECORDS.items() if kind in records
            for a in attrs
        })
        n = len(res.trace_fes)
        if (res.trace_fes != list(range(1, n + 1))
                or len(res.trace_best) != n or len(res.trace_nsel) != n):
            raise ValueError(f"{path}: the trace must hold fes 1..{n} with one "
                             "best and one nsel value each")
        if res.accuracy is None:
            res.accuracy = float("nan")
        results.append(res)
    return results


def emit_convergence(out_dir: str, dest_dir: str) -> list:
    """Write per-(dataset, algorithm) mean convergence curves as CSV.

    Each file has one row per evaluation index: the mean best-so-far
    accuracy and the mean selected-feature count across runs. Runs that
    stopped early (an unfilled tail of the budget) are carried forward at
    their last recorded value, which is exact for best-so-far series.
    Returns the list of files written.
    """
    results = [r for r in load_runs(out_dir) if r.ok and r.trace_fes]
    groups = {}
    for res in results:
        groups.setdefault((res.dataset, res.algorithm), []).append(res)
    os.makedirs(dest_dir, exist_ok=True)
    written = []
    for (dataset, algorithm), group in sorted(groups.items()):
        horizon = max(len(r.trace_fes) for r in group)
        best = np.array([r.trace_best + r.trace_best[-1:] * (horizon - len(r.trace_best))
                         for r in group], dtype=np.float64)
        nsel = np.array([r.trace_nsel + r.trace_nsel[-1:] * (horizon - len(r.trace_nsel))
                         for r in group], dtype=np.float64)
        path = os.path.join(dest_dir, f"{_safe(dataset)}__{_safe(algorithm)}.csv")
        with open(path, "w") as fh:
            fh.write("fes,mean_best_accuracy,mean_selected\n")
            for t in range(horizon):
                fh.write(f"{t + 1},{best[:, t].mean():.10g},{nsel[:, t].mean():.10g}\n")
        written.append(path)
    return written
