"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop in one process: a search run starts when
the previous one ends. One pass over a workload's fixed plan of
(algorithm, dataset, run seed) always completes; the loop then keeps
cycling through the plan until the requested seconds are used. A cycled
run must replay its first trace bit for bit. Quality metrics come from the
first pass only, so they depend on the seed and not on machine speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from sfekit import (
    FitnessEvaluator,
    HybridParams,
    RunResult,
    build_report,
    derive_seed,
    emit_convergence,
    friedman_mean_ranks,
    load_config,
    load_csv,
    load_runs,
    pso_search,
    resolve_engine,
    sfe_ec_search,
    sfe_pso_search,
    sfe_search,
    stratified_kfold,
    wilcoxon_ranksum,
)
from sfekit.cli import main as sfekit_main

import datagen
from tracing import TracedEvaluator, Tracer

FOLDS = 5
PROBE_SIZES = (5, 50, 600, 2000)
STATS_REPS = 200


@dataclass(frozen=True)
class SerialWorkload:
    """Searches driven directly through the library, one process, no pool."""

    shape: datagen.Shape
    family: str  # workloads of one family share their datasets
    budget: int
    plan: tuple  # one pass: (algorithm, dataset index, run seed)
    hybrid: HybridParams = HybridParams()
    setup_every: int = 1  # runs between two set-up samples

    @property
    def n_datasets(self) -> int:
        return max(i for _, i, _ in self.plan) + 1

    @property
    def algorithms(self) -> tuple:
        return tuple(dict.fromkeys(a for a, _, _ in self.plan))


def _plan(algorithms, datasets, first_seed):
    """One run per entry of ``datasets``, algorithms taking turns."""
    return tuple((algorithms[k % len(algorithms)], i, first_seed + k)
                 for k, i in enumerate(datasets))


SERIAL = {
    # Full 6000-FE budget on Colon-shaped data: masks of 30-80 features at
    # 0.2-0.6 ms per FE, so per-FE fixed costs carry weight. Mask sizes, and
    # so the cost per FE, differ more between datasets than between runs on
    # one dataset, so each of the nine runs gets a dataset of its own.
    "colon-search": SerialWorkload(
        datagen.COLON, "colon", 6000,
        _plan(("sfe", "sfe_pso", "sfe_ec:hillclimb"), range(9), 101),
    ),
    # BPSO on the first six of those datasets: masks of about 1000 features
    # evaluated in waves of 20, nearly all wall time in `evaluate`. 500 FEs
    # (25 waves) a run keeps six runs inside one measurement.
    "colon-swarm": SerialWorkload(
        datagen.COLON, "colon", 500, _plan(("bpso",), range(6), 201),
    ),
    # 200 x 10000: early FEs hold 2750-5000 features, whose distance blocks
    # exceed the evaluator's chunk cap and L2. The budget is cut to 150 FEs
    # (a 6000-FE run takes about 30 s) and the hybrid's trigger scaled to
    # match, so that it hands off at FE 61. Trajectories do not depend on
    # the data here (see datagen.WIDE), so one dataset is enough.
    "wide-search": SerialWorkload(
        datagen.WIDE, "wide", 150, _plan(("sfe", "sfe_pso"), [0] * 8, 301),
        hybrid=HybridParams(warmup_fes=60, stagnation_window=30), setup_every=3,
    ),
}

MATRIX_SHAPE = datagen.COLON
MATRIX_DATASETS = 3
MATRIX_INI = """\
[experiment]
algorithms = sfe, sfe_pso, sfe_ec:hillclimb
runs = 2
budget = 1500
folds = {folds}
seed = {seed}
workers = {workers}

[hybrid]
warmup_fes = 600
stagnation_window = 300
"""

# ---------------------------------------------------------------- helpers


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _median(times)


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def trace_digest(fes, best, n_selected, mask, fitness) -> str:
    """Hash of a run's output, equal across commits iff the output is."""
    h = hashlib.blake2b(digest_size=8)
    for values, dtype in ((fes, np.int64), (best, np.float64), (n_selected, np.int64),
                          (mask, np.int8), ([fitness], np.float64)):
        h.update(np.asarray(values, dtype=dtype).tobytes())
    return h.hexdigest()


def check_trace(fes, best, charged, budget, mask, fitness, ds, folds, knn_k=1,
                fold_mean=False):
    """Problems found in one run's output; an empty list means it passed.

    ``charged`` is the evaluator's FE count. Spending less than the budget
    is allowed: the hybrid leaves up to one particle wave unspent.
    """
    problems = []
    fes = np.asarray(fes, dtype=np.int64)
    best = np.asarray(best, dtype=np.float64)
    if fes.size != charged:
        problems.append(f"trace has {fes.size} entries for {charged} FEs charged")
    if charged > budget:
        problems.append(f"{charged} FEs charged against a budget of {budget}")
    if fes.size and (fes[0] < 1 or np.any(np.diff(fes) <= 0)):
        problems.append("trace FEs are not strictly increasing")
    if np.any(np.diff(best) < 0):
        problems.append("best fitness decreases")
    mask = np.asarray(mask)
    if mask.shape != (ds.n_features,) or not mask.any():
        problems.append("final mask is empty or malformed")
        return problems
    fresh = FitnessEvaluator(ds, folds, knn_k=knn_k, budget=1, fold_mean=fold_mean)
    rescored = fresh.evaluate(mask)
    if rescored != fitness:
        problems.append(f"final mask re-scores to {rescored!r}, run reported {fitness!r}")
    return problems


class SetupTimer:
    """Set-up samples: `load_csv`, `stratified_kfold`, `FitnessEvaluator`.

    This is what a user pays before a search starts, and where any future
    per-dataset precompute would land. The machine's speed drifts over
    seconds, so samples are taken between runs through the whole
    measurement and the medians are reported.
    """

    def __init__(self, items, budget):
        self.items = items  # (csv path, fold seed)
        self.budget = budget
        self.total, self.load, self.kfold = [], [], []
        self.csv_mb = float(np.mean([os.path.getsize(p) for p, _ in items])) / 1e6

    def sample(self, i):
        path, fold_seed = self.items[i % len(self.items)]
        t0 = time.perf_counter()
        ds = load_csv(path, label_col=-1)
        t1 = time.perf_counter()
        folds = stratified_kfold(ds, FOLDS, fold_seed)
        t2 = time.perf_counter()
        FitnessEvaluator(ds, folds, budget=self.budget)
        t3 = time.perf_counter()
        self.total.append(t3 - t0)
        self.load.append(t1 - t0)
        self.kfold.append(t2 - t1)
        return ds, folds

    @property
    def setup_s(self) -> float:
        return _median(self.total)

    def layers(self) -> dict:
        load = _median(self.load)
        return {
            "dataset.load_s": load,
            "dataset.load_mb_per_s": self.csv_mb / load,
            "dataset.kfold_ms": 1e3 * _median(self.kfold),
        }


def probe_eval_ms(ds, folds, reps_for):
    """Median `evaluate` time on fixed random masks of the probe sizes."""
    out = {}
    for m in PROBE_SIZES:
        m_eff = min(m, ds.n_features)
        mask = np.zeros(ds.n_features, dtype=np.int8)
        mask[np.random.default_rng(m).choice(ds.n_features, m_eff, replace=False)] = 1
        reps = reps_for(m_eff)
        ev = FitnessEvaluator(ds, folds, budget=reps + 1)
        ev.evaluate(mask)  # warm caches and allocator
        out[m] = 1e3 * _median_time(lambda: ev.evaluate(mask), reps)
    return out


def stats_ms(samples: dict, table) -> dict:
    """Median wall time (ms) of one rank-sum test and one Friedman ranking.

    ``samples`` maps algorithm to its final fitnesses; the rank-sum test
    compares the first two algorithms. A test that does not apply (fewer
    than two algorithms, or fewer than two runs each) is left out.
    """
    out = {}
    groups = [np.asarray(v, dtype=np.float64) for v in samples.values()]
    if len(groups) >= 2 and min(g.size for g in groups[:2]) >= 2:
        a, b = groups[:2]
        out["stats.ranksum_ms"] = 1e3 * _median_time(
            lambda: wilcoxon_ranksum(a, b), STATS_REPS)
    table = np.asarray(table, dtype=np.float64)
    if table.ndim == 2 and table.shape[1] >= 2 and np.all(np.isfinite(table)):
        out["stats.friedman_ms"] = 1e3 * _median_time(
            lambda: friedman_mean_ranks(table, higher_better=True), STATS_REPS)
    return out


def fitness_table(rows):
    """Mean fitness per (dataset, algorithm), as datasets x algorithms."""
    cells = {}
    for dataset, algorithm, fitness in rows:
        cells.setdefault(dataset, {}).setdefault(algorithm, []).append(fitness)
    algorithms = sorted({a for _, a, _ in rows})
    return [[float(np.mean(cells[d].get(a, [np.nan]))) for a in algorithms]
            for d in sorted(cells)]


def closed_loop(plan, seconds, execute):
    """Run the plan once, then keep cycling it until ``seconds`` have passed."""
    runs, first = [], {}
    t0 = time.perf_counter()
    while len(runs) < len(plan) or time.perf_counter() - t0 < seconds:
        item = plan[len(runs) % len(plan)]
        run = execute(item, len(runs))
        expected = first.setdefault(item, run.digest)
        if run.digest != expected:
            run.problems.append("replaying the same seed gave a different trace")
        runs.append(run)
    return runs


@dataclass
class Outcome:
    """What a workload hands back: metric values by name, runs and spans."""

    metrics: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    runs: list = field(default_factory=list)
    tracer: Tracer = field(default_factory=Tracer)
    notes: list = field(default_factory=list)


# ------------------------------------------------------- serial workloads


@dataclass
class Run:
    algorithm: str
    dataset: object
    seed: int
    wall_s: float
    budget: int
    used: int = 0
    fitness: float = float("nan")
    n_selected: int = 0
    handoff_fes: int = None
    reduced_dim: int = None
    digest: str = ""
    problems: list = field(default_factory=list)
    start: float = 0.0
    log: list = None  # traced evaluate calls: (start, end, n_sel, stage, hash)
    trace_nsel: list = None

    @property
    def ok(self) -> bool:
        return not self.problems


def _search(algorithm, ds, ev, seed, hp: HybridParams):
    if algorithm == "sfe":
        return sfe_search(ds, ev, hp.sfe, seed)
    if algorithm == "bpso":
        return pso_search(ds, ev, hp.pso, seed=seed)
    if algorithm == "sfe_pso":
        return sfe_pso_search(ds, ev, hp, seed)
    engine, floor = resolve_engine(algorithm.split(":", 1)[1], hp)
    return sfe_ec_search(ds, ev, engine, hp, seed, min_continuation_budget=floor)


def execute_search(spec: SerialWorkload, data, item, traced: bool) -> Run:
    algorithm, i, seed = item
    ds, folds = data[i]
    if traced:
        log = []
        ev = TracedEvaluator(ds, folds, budget=spec.budget, log=log)
    else:
        log = None
        ev = FitnessEvaluator(ds, folds, budget=spec.budget)
    t0 = time.perf_counter()
    try:
        trace = _search(algorithm, ds, ev, seed, spec.hybrid)
    except Exception as exc:  # a failed run is counted, not fatal
        return Run(algorithm, i, seed, time.perf_counter() - t0, spec.budget,
                   used=ev.used, problems=[f"{type(exc).__name__}: {exc}"], start=t0,
                   log=log)
    wall = time.perf_counter() - t0
    run = Run(
        algorithm, i, seed, wall, spec.budget,
        used=ev.used,
        fitness=float(trace.final_fitness),
        n_selected=int(np.count_nonzero(trace.final_mask)),
        handoff_fes=trace.handoff_fes,
        reduced_dim=(int(np.count_nonzero(trace.handoff_mask))
                     if trace.handoff_mask is not None else None),
        digest=trace_digest(trace.fes, trace.best_fitness, trace.n_selected,
                            trace.final_mask, trace.final_fitness),
        start=t0,
        log=log,
        trace_nsel=list(trace.n_selected) if traced else None,
    )
    run.problems = check_trace(trace.fes, trace.best_fitness, ev.used, spec.budget,
                               trace.final_mask, trace.final_fitness, ds, folds)
    return run


def fe_per_s(runs) -> float:
    wall = sum(r.wall_s for r in runs)
    return sum(r.used for r in runs) / wall if wall > 0 else 0.0


def run_serial(name, seed, seconds, traced, workdir, out):
    spec = SERIAL[name]
    items = []
    for i in range(spec.n_datasets):
        data_seed = derive_seed("perfbench", spec.family, seed, i)
        path = os.path.join(workdir, f"{spec.family}-{i}.csv")
        datagen.write_csv(path, *datagen.planted(spec.shape, data_seed))
        items.append((path, derive_seed("perfbench", spec.family, seed, i, "folds")))
    setup = SetupTimer(items, spec.budget)
    data = [setup.sample(i) for i in range(len(items))]
    n_plan = len(spec.plan)

    if not traced:
        def execute(item, k):
            run = execute_search(spec, data, item, False)
            if (k + 1) % spec.setup_every == 0:
                setup.sample(k)  # set-up samples spread over the measurement
            return run

        runs = closed_loop(spec.plan, seconds, execute)
        first = runs[:n_plan]
        out.runs = runs
        out.metrics = {
            "fe_per_s": fe_per_s(runs),
            "run_s.p50": _median([r.wall_s for r in first]),
            "setup_s": setup.setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "ok_rate": sum(r.ok for r in runs) / len(runs),
            "mean_fitness": _mean([r.fitness for r in first if r.ok]),
        }
        out.info["mean_selected"] = _mean([r.n_selected for r in first if r.ok])
        return

    # Each run of the first pass also runs untraced just before its traced
    # twin, so the tracing overhead compares the same runs at the same time.
    reference = []

    def execute_pair(item, k):
        if k < n_plan:
            reference.append(execute_search(spec, data, item, False))
        run = execute_search(spec, data, item, True)
        if k < n_plan and run.digest != reference[k].digest:
            run.problems.append("tracing changed the run's trace")
        return run

    tracer = out.tracer
    root = tracer.begin(f"workload {name}")
    runs = closed_loop(spec.plan, seconds, execute_pair)
    tracer.end(root)
    for k, r in enumerate(runs):
        span = tracer.add("run", r.start, r.start + r.wall_s, parent=root, run=k,
                          algorithm=r.algorithm, dataset=r.dataset, seed=r.seed)
        for t0, t1, nsel, stage, _ in r.log:
            tracer.add("fitness.evaluate", t0, t1, parent=span, run=k,
                       n_selected=nsel, stage=stage)
    out.runs = runs
    ds0, folds0 = data[0]
    big = ds0.n_instances * 600  # probe reps: fewer where one call is slow
    probes = probe_eval_ms(ds0, folds0, lambda m: 5 if ds0.n_instances * m > big else 15)
    first = runs[:n_plan]
    fits = {}
    for r in first:
        fits.setdefault(r.algorithm, []).append(r.fitness)
    # Friedman table: consecutive runs of the plan, one per algorithm, as rows.
    n_alg = len(spec.algorithms)
    table = [[r.fitness for r in first[k:k + n_alg]]
             for k in range(0, len(first) - n_alg + 1, n_alg)]
    stats = stats_ms(fits, table)
    pairs = sum(folds0.test_indices(f).size * folds0.train_indices(f).size
                for f in range(folds0.k))
    out.metrics = serial_layers(spec, runs, probes, setup, pairs, stats)
    untraced = fe_per_s(reference)
    traced_fps = fe_per_s(first)
    out.metrics.update({
        "search.mean_selected": _mean([r.n_selected for r in first if r.ok]),
        "tracing.fe_per_s_untraced": untraced,
        "tracing.fe_per_s_traced": traced_fps,
        "tracing.overhead": _median([t.wall_s / u.wall_s for t, u in zip(first, reference)])
        - 1.0,
    })
    if spec.family == "colon":
        out.metrics["sfe_vs_bpso_fe_cost"] = fe_cost_ratio(ds0, folds0)


def fe_cost_ratio(ds, folds) -> float:
    """Per-FE wall cost of a BPSO run over that of an SFE run, same data.

    Both runs are untraced: one 6000-FE `sfe` run (the colon-search budget)
    and one 200-FE `bpso` run (ten waves).
    """
    costs = {}
    for algorithm, budget in (("sfe", 6000), ("bpso", 200)):
        ev = FitnessEvaluator(ds, folds, budget=budget)
        _, wall = _timed(_search, algorithm, ds, ev, 7, HybridParams())
        costs[algorithm] = wall / ev.used
    return costs["bpso"] / costs["sfe"]


def serial_layers(spec, runs, probes, setup, pairs, stats):
    calls = [e for r in runs for e in r.log]
    durations = np.array([t1 - t0 for t0, t1, *_ in calls])
    sizes = np.array([n for _, _, n, _, _ in calls], dtype=np.float64)
    busy = float(durations.sum())
    wall = sum(r.wall_s for r in runs)
    distinct = sum(len({(stage, key) for *_, stage, key in r.log}) for r in runs)
    ops = 3.0 * pairs * sizes  # subtract, square, add per pair and feature
    m = {
        "fitness.calls": len(calls),
        "fitness.busy_s": busy,
        "fitness.share": busy / wall if wall else 0.0,
        "fitness.eval_ms.p50": 1e3 * _pct(durations, 50),
        "fitness.eval_ms.p99": 1e3 * _pct(durations, 99),
        "fitness.mask_mean": float(sizes.mean()) if sizes.size else 0.0,
        "fitness.distinct_ratio": distinct / len(calls) if calls else 0.0,
        "fitness.ops_per_fe": float(ops.mean()) if ops.size else 0.0,
        "fitness.gflops": float(ops.sum()) / busy / 1e9 if busy else 0.0,
    }
    for size, ms in probes.items():
        m[f"fitness.eval_ms.m{size}"] = ms

    def overhead_us(sel):
        busy_sel = sum(t1 - t0 for r in sel for t0, t1, *_ in r.log)
        return 1e6 * (sum(r.wall_s for r in sel) - busy_sel) / sum(r.used for r in sel)

    # Metrics of a layer the workload's algorithms never reach are left out;
    # the caller reports them as not exercised.
    sfe_runs = [r for r in runs if r.algorithm == "sfe" and r.ok]
    if sfe_runs:
        steps = accepted = fallbacks = 0
        for r in sfe_runs:
            # A candidate always differs from the incumbent in size, except
            # for the all-ones re-evaluation; a bigger one is a fallback.
            for t in range(1, len(r.trace_nsel)):
                steps += 1
                accepted += r.trace_nsel[t] != r.trace_nsel[t - 1]
                fallbacks += r.log[t][2] > r.trace_nsel[t - 1]
        m["sfe.overhead_us_per_fe"] = overhead_us(sfe_runs)
        m["sfe.accept_ratio"] = accepted / steps
        m["sfe.fallback_ratio"] = fallbacks / steps

    bpso_runs = [r for r in runs if r.algorithm == "bpso" and r.ok]
    if bpso_runs:
        pop = spec.hybrid.pso.pop_size
        waves = [r.log[k + pop - 1][1] - r.log[k][0]
                 for r in bpso_runs for k in range(0, len(r.log) - pop + 1, pop)]
        m["bpso.overhead_us_per_fe"] = overhead_us(bpso_runs)
        m["bpso.wave_ms.p50"] = 1e3 * _median(waves)

    hybrid = [r for r in runs if r.algorithm not in ("sfe", "bpso") and r.ok]
    if hybrid:
        handed = [r for r in hybrid if r.handoff_fes is not None]
        gaps, stage2 = [], 0
        for r in handed:
            s1 = [e for e in r.log if e[3] == 1]
            s2 = [e for e in r.log if e[3] == 2]
            stage2 += len(s2)
            if s1 and s2:
                gaps.append(s2[0][0] - s1[-1][1])
        m.update({
            "hybrid.handoff_rate": len(handed) / len(hybrid),
            "hybrid.handoff_fe.mean": _mean([r.handoff_fes for r in handed]),
            "hybrid.reduced_dim.mean": _mean([r.reduced_dim for r in handed]),
            "hybrid.handoff_ms": 1e3 * _mean(gaps),
            "hybrid.stage2_share": stage2 / sum(r.used for r in hybrid),
            "hybrid.unspent_fe": _mean([r.budget - r.used for r in hybrid]),
        })
    m.update(setup.layers())
    m.update(stats)
    return m


# ------------------------------------------------------------ matrix-pool


@dataclass
class Iteration:
    run_s: float
    report_s: float
    records: list  # RunResult
    problems: dict  # record index -> problems
    digests: dict  # (dataset, algorithm, run index) -> digest
    report_problems: list
    layers: dict = field(default_factory=dict)


def check_record(res: RunResult, ds, cfg) -> tuple:
    """Output check of one persisted harness run; returns (problems, digest)."""
    if not res.ok:
        return [f"run failed: {res.error}"], ""
    mask = np.zeros(ds.n_features, dtype=np.int8)
    mask[np.asarray(res.selected_features, dtype=np.int64)] = 1
    charged = res.trace_fes[-1] if res.trace_fes else 0
    folds = stratified_kfold(ds, cfg.folds, res.fold_seed)
    problems = check_trace(res.trace_fes, res.trace_best, charged, cfg.budget, mask,
                           res.accuracy, ds, folds, cfg.knn_k, cfg.fold_mean)
    digest = trace_digest(res.trace_fes, res.trace_best, res.trace_nsel, mask,
                          res.accuracy)
    return problems, digest


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return sfekit_main([str(a) for a in argv])


def matrix_iteration(k, ini, cfg, datasets, workdir, traced, tracer, root) -> Iteration:
    out_dir = os.path.join(workdir, f"exp{k}")
    span = tracer.begin("sfekit run", parent=root, run=k) if traced else None
    rc, run_s = _timed(_cli, "run", "--config", ini, "--out", out_dir)
    if traced:
        tracer.end(span, exit_code=rc)
    if rc == 2:
        raise RuntimeError(f"sfekit run rejected the benchmark's configuration ({ini})")
    records = load_runs(out_dir)
    problems, digests = {}, {}
    for j, res in enumerate(records):
        found, digest = check_record(res, datasets[res.dataset], cfg)
        if found:
            problems[j] = found
        digests[(res.dataset, res.algorithm, res.run_index)] = digest

    t0 = time.perf_counter()
    rc_report = _cli("report", out_dir)
    rc_converge = _cli("converge", out_dir, "--out", os.path.join(out_dir, "curves"))
    report_s = time.perf_counter() - t0
    if traced:
        tracer.add("sfekit report+converge", t0, t0 + report_s, parent=root, run=k)
    report_problems = []
    if rc_report or rc_converge:
        report_problems.append(f"report exited {rc_report}, converge exited {rc_converge}")
    it = Iteration(run_s, report_s, records, problems, digests, report_problems)
    if traced:
        it.layers = matrix_layers(out_dir, cfg, records, run_s, tracer, root, k)
    return it


def matrix_layers(out_dir, cfg, records, run_s, tracer, root, k):
    def span(name, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args)
        tracer.add(name, t0, time.perf_counter(), parent=root, run=k)
        return value, time.perf_counter() - t0

    loaded, load_s = span("harness.load_runs", load_runs, out_dir)
    _, report_s = span("harness.build_report", build_report, cfg, loaded)
    _, converge_s = span("harness.emit_convergence", emit_convergence, out_dir,
                         os.path.join(out_dir, "curves-direct"))
    busy = sum(r.wall_time_s for r in records)
    sizes = [os.path.getsize(os.path.join(d, f))
             for d, _, files in os.walk(os.path.join(out_dir, "runs"))
             for f in files if f.endswith(".jsonl")]
    return {
        "pool_efficiency": busy / (cfg.workers * run_s),
        "overhead_s": run_s - busy / cfg.workers,
        "jsonl_bytes_per_run": float(np.mean(sizes)),
        "load_runs_s": load_s,
        "build_report_s": report_s,
        "converge_s": converge_s,
    }


def run_matrix(seed, seconds, traced, workdir, out, workers):
    items, specs = [], []
    for i in range(MATRIX_DATASETS):
        path = os.path.join(workdir, f"m{i}.csv")
        datagen.write_csv(path, *datagen.planted(
            MATRIX_SHAPE, derive_seed("perfbench", "matrix", seed, i)))
        items.append((path, derive_seed("perfbench", "matrix", seed, i, "folds")))
        specs.append(f"[dataset:m{i}]\npath = {path}\nlabel_col = -1\n")
    ini = os.path.join(workdir, "matrix.ini")
    with open(ini, "w") as fh:
        fh.write(MATRIX_INI.format(folds=FOLDS, seed=seed, workers=workers))
        fh.write("\n" + "\n".join(specs))
    cfg = load_config(ini)
    setup = SetupTimer(items, cfg.budget)
    loaded = [setup.sample(i) for i in range(len(items))]
    datasets = {f"m{i}": ds for i, (ds, _) in enumerate(loaded)}

    tracer = out.tracer
    root = tracer.begin("workload matrix-pool") if traced else None
    reference = None
    if traced:  # one untraced matrix first, to state the tracing overhead
        reference = matrix_iteration(0, ini, cfg, datasets, workdir, False, tracer, None)
    iterations = []
    t_start = time.perf_counter()
    while not iterations or time.perf_counter() - t_start < seconds:
        k = len(iterations) + (1 if traced else 0)
        iterations.append(
            matrix_iteration(k, ini, cfg, datasets, workdir, traced, tracer, root))
        for i in range(len(items)):  # set-up samples spread over the measurement
            setup.sample(i)
    if traced:
        tracer.end(root)

    first = iterations[0]
    baseline = (reference or first).digests
    runs = []
    for it in iterations:
        for j, res in enumerate(it.records):
            problems = list(it.problems.get(j, []))
            key = (res.dataset, res.algorithm, res.run_index)
            if it.digests[key] != baseline.get(key):
                problems.append("replaying the same seed gave a different trace")
            runs.append(Run(res.algorithm, res.dataset, res.seed, res.wall_time_s,
                            cfg.budget, used=res.trace_fes[-1] if res.trace_fes else 0,
                            fitness=res.accuracy, n_selected=res.n_selected,
                            handoff_fes=res.handoff_fes, digest=it.digests[key],
                            problems=problems))
        if it.report_problems:
            runs.append(Run("report+converge", "-", 0, it.report_s, 0,
                            problems=it.report_problems))
    out.runs = runs
    charged = sum(r.used for r in runs)
    run_wall = sum(it.run_s for it in iterations)
    mean_fit = _mean([r.accuracy for r in first.records if r.ok])
    report_s = _median([it.report_s for it in iterations])
    sel = [r.n_selected for r in first.records if r.ok]
    out.info["runs_per_matrix"] = len(first.records)
    out.info["matrices"] = len(iterations)

    if not traced:
        out.metrics = {
            "fe_per_s": charged / run_wall,
            "run_s.p50": _median([r.wall_s for r in runs if r.used]),
            "setup_s": setup.setup_s,
            "peak_rss_mb": peak_rss_mb(children=True),
            "ok_rate": sum(r.ok for r in runs) / len(runs),
            "mean_fitness": mean_fit,
        }
        out.info["mean_selected"] = _mean(sel)
        out.info["report_s"] = report_s
        return

    lay = {key: _median([it.layers[key] for it in iterations]) for key in first.layers}
    ds0, folds0 = loaded[0]
    probes = probe_eval_ms(ds0, folds0, lambda m: 15)
    fits = {}
    for r in first.records:
        if r.ok and r.dataset == "m0":
            fits.setdefault(r.algorithm, []).append(r.accuracy)
    table = fitness_table([(r.dataset, r.algorithm, r.accuracy)
                           for r in first.records if r.ok])
    m = {f"fitness.eval_ms.m{size}": ms for size, ms in probes.items()}
    m.update(setup.layers())
    m.update(stats_ms(fits, table))
    m.update({
        "harness.pool_efficiency": lay["pool_efficiency"],
        "harness.overhead_s": lay["overhead_s"],
        "harness.jsonl_bytes_per_run": lay["jsonl_bytes_per_run"],
        "harness.load_runs_s": lay["load_runs_s"],
        "harness.build_report_s": lay["build_report_s"],
        "harness.converge_s": lay["converge_s"],
        "harness.report_s": report_s,
        "harness.failed_runs": sum(not r.ok for it in iterations for r in it.records),
        "search.mean_selected": _mean(sel),
    })
    untraced = (sum(r.trace_fes[-1] for r in reference.records if r.trace_fes)
                / reference.run_s)
    traced_fps = sum(r.trace_fes[-1] for r in first.records if r.trace_fes) / first.run_s
    m.update({
        "tracing.fe_per_s_untraced": untraced,
        "tracing.fe_per_s_traced": traced_fps,
        "tracing.overhead": untraced / traced_fps - 1.0,
    })
    out.metrics = m
    out.notes.append(
        "fitness counters (calls, busy, share, eval_ms.p50/p99, mask_mean, distinct_ratio, "
        "ops, gflops), sfe, bpso and hybrid: the harness builds its evaluators inside "
        "its worker processes, so these come from the serial workloads; the "
        "fitness.eval_ms.m* probes run here on the first matrix dataset")
