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

Each record has one form, and each fact is stored once. A run file is one
JSON object: the run's meta record, as `_matrix` builds it, which is also
the identity that runs the run and checks its file, plus the values the
run decides. The report is the dict that ``report.json`` holds, with NaN in
place of null, and `format_report` renders that same dict.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .config import ConfigError, DatasetSpec, ExperimentConfig, load_config, write_config
from .dataset import Dataset, load_csv, stratified_kfold
from .fitness import FitnessEvaluator
from .hybrid import resolve_algorithm
from .stats import friedman_mean_ranks, wilcoxon_ranksum

__all__ = [
    "RunResult",
    "run_experiment",
    "build_report",
    "load_runs",
    "emit_convergence",
    "format_report",
    "derive_seed",
]

_SCHEMA = 2

_NULL = type(None)

# Run-file schema 2: the values that a run decides, each with the JSON types
# the writer gives it: a tuple of types, or a list of one item type. A bool
# does not count as an int. The file holds them beside the meta record.
_RUN_TYPES = {
    "ok": (bool,), "error": (str, _NULL), "selected_features": [int],
    "wall_time_s": (float,), "handoff_fes": (int, _NULL),
    "trace_best": [float], "trace_nsel": [int],
}


@dataclass
class RunResult:
    """Outcome of a single (algorithm, dataset, run) cell. A failed run has
    an empty trace. The trace holds one entry per evaluation, so its FE
    numbers, the final accuracy and the feature count follow from it."""

    algorithm: str
    dataset: str
    run_index: int
    seed: int
    fold_seed: int
    ok: bool
    error: str = None
    selected_features: list = field(default_factory=list)
    wall_time_s: float = 0.0
    handoff_fes: int = None
    trace_best: list = field(default_factory=list)
    trace_nsel: list = field(default_factory=list)

    @property
    def trace_fes(self) -> list:
        return list(range(1, len(self.trace_best) + 1))

    @property
    def accuracy(self) -> float:
        return self.trace_best[-1] if self.ok else math.nan

    @property
    def n_selected(self) -> int:
        return len(self.selected_features)


def _run_cell(args) -> RunResult:
    ds, hybrid, meta = args
    identity = {f.name: meta[f.name] for f in fields(RunResult) if f.name in meta}
    t0 = time.perf_counter()
    try:
        folds = stratified_kfold(ds, meta["folds"], meta["fold_seed"])
        ev = FitnessEvaluator(ds, folds, knn_k=meta["knn_k"], budget=meta["budget"],
                              fold_mean=meta["fold_mean"])
        trace = resolve_algorithm(meta["algorithm"], hybrid)(ds, ev, meta["seed"])
    except Exception as exc:  # recorded, not fatal to the matrix
        return RunResult(
            **identity,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            wall_time_s=time.perf_counter() - t0,
        )
    wall = time.perf_counter() - t0
    return RunResult(
        **identity,
        ok=True,
        selected_features=[int(j) for j in np.flatnonzero(trace.final_mask)],
        wall_time_s=wall,
        handoff_fes=trace.handoff_fes,
        trace_best=list(trace.best_fitness),
        trace_nsel=list(trace.n_selected),
    )


def _safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "-", name)


def derive_seed(*parts) -> int:
    """Derive a 64-bit seed from a tuple of labels.

    Stable across processes and platforms (unlike built-in ``hash``), so a
    run matrix keyed by (master seed, algorithm, dataset, run index) gets
    the same per-run seeds on every rerun.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _matrix(cfg: ExperimentConfig, out_dir: str) -> list:
    """Every run of ``cfg`` as (run file, meta record), in matrix order:
    datasets, then algorithms, then runs.

    The meta record, exactly as the run file holds it, is the run's
    identity: what `_run_cell` runs and what `load_runs` checks the file
    against. It holds the search settings too, so a file made under other
    ``[sfe]``, ``[pso]`` or ``[hybrid]`` values is refused. Fold seeds
    derive from the run seed, or from the dataset alone when
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
                runs.append((path, {
                    "schema": _SCHEMA, "algorithm": algorithm, "dataset": spec.name,
                    "run_index": r, "seed": seed, "fold_seed": fold_seed,
                    "budget": cfg.budget, "folds": cfg.folds, "knn_k": cfg.knn_k,
                    "fold_mean": cfg.fold_mean, "hybrid": asdict(cfg.hybrid),
                }))
    return runs


def _nan_to_null(record: dict) -> dict:
    # A bare NaN is not valid JSON, so a missing value is written as null.
    return {k: None if isinstance(v, float) and math.isnan(v) else v
            for k, v in record.items()}


def _persist_run(path: str, meta: dict, res: RunResult) -> None:
    """Write ``meta`` and what ``res`` decided as one JSON line to a
    temporary file and rename it over ``path``, so a run file is either
    complete or absent."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        fh.write(json.dumps(meta | {key: getattr(res, key) for key in _RUN_TYPES}) + "\n")
    os.replace(path + ".tmp", path)


def _load_dataset(cfg: ExperimentConfig, spec: DatasetSpec) -> Dataset:
    """Load one dataset and check that its runs can split it. Each class is
    dealt round-robin to the folds, so fold sizes depend only on the class
    counts, and one split decides for every fold seed."""
    if not os.path.isfile(spec.path):
        raise ConfigError(f"dataset {spec.name!r}: file not found: {spec.path}")
    ds = load_csv(spec.path, label_col=spec.label_col, has_header=spec.header)
    try:
        FitnessEvaluator(ds, stratified_kfold(ds, cfg.folds, 0), knn_k=cfg.knn_k)
    except ValueError as exc:
        raise ConfigError(f"dataset {spec.name!r}: {exc}") from None
    return ds


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:  # a file is in the way
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> dict:
    """Execute the full run matrix, persist everything under ``out_dir``
    and return the report, as `build_report` gives it.

    The matrix and its datasets are checked before anything is written.
    Runs execute in a process pool when ``workers`` exceeds one; either way
    each run file is written as soon as the run returns, in matrix order.
    The report is then built from the persisted runs, as ``sfekit report``
    builds it, so it does not depend on scheduling.
    """
    matrix = _matrix(cfg, out_dir)
    datasets = {spec.name: _load_dataset(cfg, spec) for spec in cfg.datasets}
    _make_out_dir(out_dir)
    write_config(cfg, os.path.join(out_dir, "config.ini"))

    tasks = [(datasets[meta["dataset"]], cfg.hybrid, meta) for _, meta in matrix]
    pool = concurrent.futures.ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    with pool or contextlib.nullcontext():
        for (path, meta), res in zip(matrix, (pool.map if pool else map)(_run_cell, tasks)):
            _persist_run(path, meta, res)

    report = build_report(cfg, load_runs(out_dir))
    _write_report(out_dir, report)
    return report


def build_report(cfg: ExperimentConfig, results) -> dict:
    """Aggregate per-run results into the report: the payload of
    ``report.json``, with NaN where the file has null.

    ``cells`` maps algorithm, then dataset, in the order the results first
    name them, to the cell's run counts and statistics, plus its rank-sum
    mark against the reference (``vs_reference``) where both cells hold at
    least two successful runs. Accuracy statistics use the sample standard
    deviation (ddof=1, zero for a single run); a cell without a successful
    run has NaN statistics. Friedman mean ranks summarise mean accuracies
    across datasets and need every (algorithm, dataset) cell to hold at
    least one successful run. ``failures`` lists the failed runs in the
    order of ``results``.
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
        cell = {"n_runs": len(ok), "n_failed": len(group) - len(ok)}
        if values.size:
            cell.update(
                worst=float(values.min()),
                best=float(values.max()),
                mean=float(values.mean()),
                std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
                mean_selected=float(np.mean([g.n_selected for g in ok])),
                mean_time_s=float(np.mean([g.wall_time_s for g in ok])),
            )
        else:
            cell.update(dict.fromkeys(
                ("worst", "best", "mean", "std", "mean_selected", "mean_time_s"), math.nan))
        cells.setdefault(algorithm, {})[dataset] = cell

    for dataset in names:
        ref_vals = accs.get((reference, dataset), np.empty(0))
        for algorithm in cfg.algorithms:
            if algorithm == reference:
                continue
            vals = accs.get((algorithm, dataset), np.empty(0))
            if ref_vals.size >= 2 and vals.size >= 2:
                _, mark = wilcoxon_ranksum(ref_vals, vals)
                cells[algorithm][dataset]["vs_reference"] = mark.value

    friedman = {}
    if len(cfg.algorithms) >= 2:
        table = np.array(
            [[cells[a][d]["mean"] if (a, d) in accs else math.nan
              for a in cfg.algorithms] for d in names]
        )
        if np.all(np.isfinite(table)):
            ranks = friedman_mean_ranks(table, higher_better=True)
            friedman = {a: float(r) for a, r in zip(cfg.algorithms, ranks)}

    return {
        "schema": _SCHEMA,
        "algorithms": list(cfg.algorithms),
        "datasets": names,
        "reference": reference,
        "cells": cells,
        "friedman_mean_ranks": friedman,
        "failures": failures,
    }


def format_report(report: dict) -> str:
    """Fixed-width text rendering of a report as `build_report` gives it."""
    reference = report["reference"]
    rows = [("dataset", "algorithm", "runs", "worst", "best", "mean", "std",
             "feats", "time_s", f"vs {reference}")]
    for dataset in report["datasets"]:
        for algorithm in report["algorithms"]:
            st = report["cells"].get(algorithm, {}).get(dataset)
            if st is None:
                continue
            tag = "ref" if algorithm == reference else st.get("vs_reference", "")
            fail = f" ({st['n_failed']} failed)" if st["n_failed"] else ""
            rows.append((
                dataset, algorithm, f"{st['n_runs']}{fail}",
                f"{st['worst']:.2f}", f"{st['best']:.2f}", f"{st['mean']:.2f}",
                f"{st['std']:.2f}", f"{st['mean_selected']:.1f}",
                f"{st['mean_time_s']:.2f}", tag,
            ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if report["friedman_mean_ranks"]:
        lines.append("")
        lines.append("Friedman mean ranks (1 = best):")
        for algorithm in report["algorithms"]:
            lines.append(f"  {algorithm}: {report['friedman_mean_ranks'][algorithm]:.4f}")
    if report["failures"]:
        lines.append("")
        lines.append(f"{len(report['failures'])} failed run(s):")
        for f in report["failures"]:
            lines.append(
                f"  {f['algorithm']} on {f['dataset']} run {f['run_index']} "
                f"(seed {f['seed']}): {f['error']}"
            )
    return "\n".join(lines) + "\n"


def _write_report(out_dir: str, report: dict) -> None:
    cells = {algorithm: {dataset: _nan_to_null(cell) for dataset, cell in row.items()}
             for algorithm, row in report["cells"].items()}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report | {"cells": cells}, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(format_report(report))


def _is_json_type(value, types) -> bool:
    """True when ``value`` has one of ``types``, or when ``types`` is a list
    of one item type and ``value`` is a list of such items. A bool is not
    an int here, as it is not in JSON."""
    if isinstance(types, list):
        return type(value) is list and set(map(type, value)) <= set(types)
    return type(value) in types


def _type_names(types) -> str:
    if isinstance(types, list):
        return f"a list of {types[0].__name__}"
    return " or ".join("null" if t is _NULL else t.__name__ for t in types)


def _first_difference(key: str, got, want):
    """(dotted key, got, want) at the first value of ``got`` that differs
    from ``want`` in value or JSON type, or None. Dicts with the same keys
    are compared key by key, so ``hybrid.pso.pop_size`` names one setting."""
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        for k in want:
            differs = _first_difference(f"{key}.{k}", got[k], want[k])
            if differs:
                return differs
        return None
    if got != want or type(got) is not type(want):
        return key, got, want
    return None


def _read_run(path: str, meta: dict) -> RunResult:
    """The run that ``path`` holds, checked against its ``meta`` record."""
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    line, _, rest = text.partition("\n")
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{path}: not a JSON object")
    if rec.get("schema", _SCHEMA) != _SCHEMA:
        raise ValueError(f"{path}: run-file schema {rec['schema']!r}; this sfekit reads "
                         f"schema {_SCHEMA} (rerun with sfekit run --force)")
    if rest:
        raise ValueError(f"{path}: holds more than one line")
    missing = [key for key in (*meta, *_RUN_TYPES) if key not in rec]
    if missing:
        raise ValueError(f"{path}: lacks {', '.join(map(repr, missing))}")
    for key, types in _RUN_TYPES.items():
        if not _is_json_type(rec[key], types):
            raise ValueError(f"{path}: {key} must be {_type_names(types)}")
    for key, want in meta.items():
        differs = _first_difference(key, rec[key], want)
        if differs:
            raise ValueError(f"{path}: meta {differs[0]} is {differs[1]!r} but config.ini "
                             f"gives {differs[2]!r}; the file is from another experiment")
    res = RunResult(**{f.name: rec[f.name] for f in fields(RunResult)})
    best, nsel, sel = res.trace_best, res.trace_nsel, res.selected_features
    if len(best) != len(nsel):
        raise ValueError(f"{path}: trace_best holds {len(best)} values but trace_nsel "
                         f"holds {len(nsel)}")
    if sel != sorted(set(sel)) or min(sel, default=0) < 0:
        raise ValueError(f"{path}: selected_features must be non-negative and strictly "
                         "increasing")
    if not res.ok and best:
        raise ValueError(f"{path}: trace_best is not empty, but the run failed")
    if res.ok and not best:
        raise ValueError(f"{path}: trace_best is empty, but the run succeeded")
    if res.ok and nsel[-1] != len(sel):
        raise ValueError(f"{path}: trace_nsel ends in {nsel[-1]} but selected_features "
                         f"lists {len(sel)}")
    return res


def load_runs(out_dir: str):
    """Read back the runs that the experiment's ``config.ini`` names, in
    matrix order.

    Files under ``runs/`` that the matrix does not name are ignored. Each
    run file holds one line: a JSON object of the run's meta record and the
    `RunResult` values that the run decided. An error names the file when
    it is missing, unreadable, not one JSON object on one line, of another
    schema, or lacks a key; when a value has another JSON type than the
    writer gives it; when a meta value differs, in value or type, from the
    one the matrix gives that run; and when its values contradict each
    other: trace lists of unequal length, selected features that are
    negative or not strictly increasing, a failed run with a trace, or a
    successful run with an empty trace or a last ``trace_nsel`` other than
    its selected-feature count.
    """
    cfg = load_config(os.path.join(out_dir, "config.ini"))
    return [_read_run(path, meta) for path, meta in _matrix(cfg, out_dir)]


def emit_convergence(out_dir: str, dest_dir: str) -> list:
    """Write per-(dataset, algorithm) mean convergence curves as CSV.

    Each file has one row per evaluation index: the mean best-so-far
    accuracy and the mean selected-feature count across runs. Runs that
    stopped early (an unfilled tail of the budget) are carried forward at
    their last recorded value, which is exact for best-so-far series.
    Returns the list of files written.
    """
    results = [r for r in load_runs(out_dir) if r.ok]
    groups = {}
    for res in results:
        groups.setdefault((res.dataset, res.algorithm), []).append(res)
    _make_out_dir(dest_dir)
    written = []
    for (dataset, algorithm), group in sorted(groups.items()):
        horizon = max(len(r.trace_best) for r in group)
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
