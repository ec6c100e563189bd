"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single
``[PASS]``/``[FAIL]`` line; run ``pytest -s tests/test_acceptance.py`` to
see the lines as they complete. The two Colon benchmark checks need the
62x2000 microarray CSV on disk (``SFEKIT_COLON_CSV`` or ``data/colon.csv``)
and skip with a note when it is absent.
"""

import json
import os
import time

import numpy as np
import pytest
import scipy.spatial.distance

from sfekit import (
    DatasetSpec,
    ExperimentConfig,
    FitnessEvaluator,
    HybridParams,
    Mark,
    PsoParams,
    SfeParams,
    friedman_mean_ranks,
    load_csv,
    pso_search,
    run_experiment,
    sfe_pso_search,
    sfe_search,
    stratified_kfold,
    wilcoxon_ranksum,
)
from sfekit.sfe import compute_un, non_selection, selection, ur_schedule

from util import (
    blob_dataset,
    constant_dataset,
    keyed_dataset,
    mask_from_one_based,
    oracle_exact_p,
    strip_timing,
    write_dataset_csv,
)


def criterion(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}{tail}"
    print(line)
    assert ok, line


class PresetDraws:
    """Generator double replaying fixed integer draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws)

    def integers(self, low, high, size=None):
        assert low == 0 and size == self.draws.size
        assert np.all(self.draws < high)
        return self.draws.copy()

    def random(self, shape=None):  # pragma: no cover
        raise AssertionError("unexpected uniform draw")


# -------------------------------------------------------------- criterion 1

def test_criterion_1_operator_worked_examples():
    t0 = time.perf_counter()
    x = mask_from_one_based([3, 6, 8, 9, 10, 13, 16, 17, 20], 20)
    out = non_selection(x, 6, PresetDraws([2, 6, 8, 6, 2, 5]))
    cleared = set(np.flatnonzero(x).tolist()) - set(np.flatnonzero(out).tolist())
    cleared_1b = {j + 1 for j in cleared}

    sel_in = mask_from_one_based([6, 9, 10], 20)
    assert int((sel_in == 0).sum()) == 17
    sel_out = selection(sel_in, 1, PresetDraws([12]))
    turned_on = set(np.flatnonzero(sel_out).tolist()) - set(np.flatnonzero(sel_in).tolist())
    turned_on_1b = {j + 1 for j in turned_on}

    elapsed = time.perf_counter() - t0
    ok = cleared_1b == {8, 13, 16, 20} and turned_on_1b == {16} and elapsed < 1.0
    criterion(1, "operator worked examples reproduce exactly", ok,
              f"cleared {sorted(cleared_1b)}, selected {sorted(turned_on_1b)}, "
              f"{elapsed:.3f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_schedule_endpoints():
    p = SfeParams()
    start = ur_schedule(p, 0, 6000)
    end = ur_schedule(p, 6000, 6000)
    un_high = compute_un(0.3, 20)
    un_low = compute_un(0.1, 20)
    ok = start == 0.3 and end == 0.001 and un_high == 6 and un_low == 2
    criterion(2, "clearing-rate schedule endpoints and batch sizes are exact", ok,
              f"ur(0)={start}, ur(max)={end}, un={un_high},{un_low}")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_monotone_traces_within_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)
    violations = []
    for i in range(100):
        n = int(rng.integers(18, 61))
        d = int(rng.integers(5, 41))
        budget = int(rng.integers(30, 121))
        ds = blob_dataset(n, d, seed=1000 + i)
        folds = stratified_kfold(ds, 3, seed=i)
        ev = FitnessEvaluator(ds, folds, budget=budget)
        algo = ("sfe", "bpso", "sfe_pso")[i % 3]
        if algo == "sfe":
            trace = sfe_search(ds, ev, SfeParams(), seed=i)
        elif algo == "bpso":
            trace = pso_search(ds, ev, PsoParams(pop_size=5), seed=i)
        else:
            params = HybridParams(warmup_fes=20, stagnation_window=8,
                                  pso=PsoParams(pop_size=5))
            trace = sfe_pso_search(ds, ev, params, seed=i)
        series = trace.best_fitness
        if any(a > b for a, b in zip(series, series[1:])):
            violations.append((i, algo, "decreasing best series"))
        if ev.used > budget or (trace.fes and trace.fes[-1] > budget):
            violations.append((i, algo, "spent past the budget"))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 120.0
    criterion(3, "100 randomized runs stay monotone and on budget", ok,
              f"{len(violations)} violations, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

def oracle_cv_accuracy(ds, folds, mask):
    """Independent pooled CV accuracy: scipy distances, argmin neighbor."""
    sel = np.flatnonzero(mask)
    correct = 0
    for f in range(folds.k):
        tr = folds.train_indices(f)
        te = folds.test_indices(f)
        dists = scipy.spatial.distance.cdist(ds.X[np.ix_(te, sel)],
                                             ds.X[np.ix_(tr, sel)])
        pred = ds.y[tr][dists.argmin(axis=1)]
        correct += int((pred == ds.y[te]).sum())
    return 100.0 * correct / ds.n_instances


def test_criterion_4_planted_feature_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    keys = np.sort(rng.choice(1000, size=10, replace=False))
    ds = keyed_dataset(100, 1000, key_cols=keys, seed=42)

    # oracle: every sampled mask containing all ten planted columns is
    # perfect, including the extremes
    folds = stratified_kfold(ds, 5, seed=7)
    probes = [mask_from_one_based(keys + 1, 1000), np.ones(1000, dtype=np.int8)]
    for _ in range(20):
        extra = rng.choice(1000, size=int(rng.integers(0, 400)), replace=False)
        m = np.zeros(1000, dtype=np.int8)
        m[keys] = 1
        m[extra] = 1
        probes.append(m)
    oracle_ok = all(oracle_cv_accuracy(ds, folds, m) == 100.0 for m in probes)

    hits = 0
    finals = []
    for seed in range(10):
        run_folds = stratified_kfold(ds, 5, seed=100 + seed)
        ev = FitnessEvaluator(ds, run_folds, budget=3000)
        trace = sfe_search(ds, ev, SfeParams(), seed=seed)
        n_sel = int(trace.final_mask.sum())
        finals.append((trace.final_fitness, n_sel))
        if trace.final_fitness == 100.0 and n_sel <= 50:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = oracle_ok and hits >= 8 and elapsed < 300.0
    criterion(4, "planted features recovered from 1000 columns", ok,
              f"oracle perfect={oracle_ok}, {hits}/10 seeds, "
              f"finals={finals[:3]}..., {elapsed:.1f}s")


# ---------------------------------------------------------- criteria 5 + 6

def _colon_location():
    default = os.path.join(os.path.dirname(__file__), os.pardir, "data", "colon.csv")
    path = os.environ.get("SFEKIT_COLON_CSV", default)
    return path if os.path.isfile(path) else None


@pytest.fixture(scope="module")
def colon_runs():
    path = _colon_location()
    if path is None:
        pytest.skip("Colon CSV not found; set SFEKIT_COLON_CSV or add data/colon.csv "
                    "(62 rows x 2000 gene columns, label in the last column)")
    label_col = os.environ.get("SFEKIT_COLON_LABEL", "-1")
    try:
        label_col = int(label_col)
    except ValueError:
        pass
    header = os.environ.get("SFEKIT_COLON_HEADER", "0").lower() in ("1", "true", "yes", "on")
    ds = load_csv(path, label_col=label_col, has_header=header)
    assert (ds.n_instances, ds.n_features) == (62, 2000), \
        f"expected the 62x2000 Colon matrix, got {ds.n_instances}x{ds.n_features}"

    stats = {}
    setups = {
        "sfe": lambda d, ev, s: sfe_search(d, ev, SfeParams(), seed=s),
        "sfe_pso": lambda d, ev, s: sfe_pso_search(d, ev, HybridParams(), seed=s),
        "bpso": lambda d, ev, s: pso_search(d, ev, PsoParams(), seed=s),
    }
    for name, run in setups.items():
        accs, nsels, wall = [], [], 0.0
        for r in range(10):
            folds = stratified_kfold(ds, 5, seed=r)
            ev = FitnessEvaluator(ds, folds, budget=6000)
            t0 = time.perf_counter()
            trace = run(ds, ev, 1000 + r)
            wall += time.perf_counter() - t0
            accs.append(trace.final_fitness)
            nsels.append(int(trace.final_mask.sum()))
        stats[name] = (float(np.mean(accs)), float(np.mean(nsels)), wall)
    return stats


def test_criterion_5_colon_benchmark_means(colon_runs):
    sfe_acc, sfe_nsel, _ = colon_runs["sfe"]
    hyb_acc, _, _ = colon_runs["sfe_pso"]
    pso_acc, pso_nsel, _ = colon_runs["bpso"]
    ok = (abs(sfe_acc - 96.44) <= 6.0 and sfe_nsel <= 40.0
          and abs(hyb_acc - 96.51) <= 6.0
          and abs(pso_acc - 82.84) <= 6.0 and pso_nsel > 800.0)
    criterion(5, "colon benchmark means land in the expected bands", ok,
              f"sfe {sfe_acc:.2f}/{sfe_nsel:.1f} feats, hybrid {hyb_acc:.2f}, "
              f"bpso {pso_acc:.2f}/{pso_nsel:.1f} feats")


def test_criterion_6_single_agent_is_faster_than_swarm(colon_runs):
    _, _, sfe_wall = colon_runs["sfe"]
    _, _, pso_wall = colon_runs["bpso"]
    ok = sfe_wall < 0.5 * pso_wall
    criterion(6, "single-agent wall time under half the swarm's", ok,
              f"{sfe_wall:.1f}s vs {pso_wall:.1f}s")


# -------------------------------------------------------------- criterion 7

def mark_oracle(p, a, b, alpha=0.05):
    if p >= alpha:
        return Mark.APPROX
    return Mark.PLUS if np.mean(a) > np.mean(b) else Mark.MINUS


def test_criterion_7_statistics_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    p_fail = mark_fail = 0
    pairs = [(n1, n2) for n1 in range(2, 9) for n2 in range(2, 9) if n1 + n2 <= 10]
    for n1, n2 in pairs:
        for trial in range(6):
            if trial % 2:
                a = rng.integers(0, 4, size=n1).astype(float)
                b = rng.integers(0, 4, size=n2).astype(float)
            else:
                a = np.round(rng.normal(size=n1), 3)
                b = np.round(rng.normal(0.5, size=n2), 3)
            p, mark = wilcoxon_ranksum(a, b, method="exact")
            p_ref = oracle_exact_p(a, b)
            if abs(p - p_ref) > 1e-9:
                p_fail += 1
            pooled = np.concatenate([a, b])
            degenerate = np.all(pooled == pooled[0])
            tied_means = np.mean(a) == np.mean(b)
            if not degenerate and not tied_means and mark is not mark_oracle(p_ref, a, b):
                mark_fail += 1

    tables_ok = (
        friedman_mean_ranks([[90, 80, 70, 60],
                             [85, 95, 75, 65],
                             [70, 90, 80, 60]]).tolist() == [2.0, 4 / 3, 8 / 3, 4.0]
        and friedman_mean_ranks([[50, 50, 40, 30],
                                 [60, 60, 60, 60],
                                 [10, 20, 20, 30]]).tolist() == [8 / 3, 6.5 / 3, 8 / 3, 2.5]
        and friedman_mean_ranks([[5, 10, 15, 20],
                                 [8, 6, 7, 9],
                                 [3, 3, 3, 4]],
                                higher_better=False).tolist() == [2.0, 5 / 3, 7 / 3, 4.0]
    )
    elapsed = time.perf_counter() - t0
    ok = p_fail == 0 and mark_fail == 0 and tables_ok and elapsed < 60.0
    criterion(7, "rank-sum enumeration and mean-rank tables match oracles", ok,
              f"{p_fail} p mismatches, {mark_fail} mark mismatches, "
              f"tables_ok={tables_ok}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_stagnation_handoff():
    t0 = time.perf_counter()
    ds = constant_dataset(n=20, d=10)  # flat landscape: plateau from eval 1
    params = HybridParams(warmup_fes=30, stagnation_window=10,
                          pso=PsoParams(pop_size=5))
    bad = []
    for seed in range(20):
        folds = stratified_kfold(ds, 5, seed=seed)
        ev = FitnessEvaluator(ds, folds, budget=100)
        trace = sfe_pso_search(ds, ev, params, seed=seed)
        if trace.handoff_fes != 31:
            bad.append((seed, "handoff", trace.handoff_fes))
            continue
        final = set(np.flatnonzero(trace.final_mask).tolist())
        frozen = set(np.flatnonzero(trace.handoff_mask).tolist())
        if not final <= frozen:
            bad.append((seed, "mask escape", sorted(final - frozen)))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    criterion(8, "handoff fires right after warm-up and stays in the frozen mask",
              ok, f"{len(bad)} bad seeds {bad[:3]}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_rerun_determinism(tmp_path):
    csv = tmp_path / "alpha.csv"
    write_dataset_csv(csv, blob_dataset(25, 10, seed=2))
    cfg = ExperimentConfig(
        algorithms=("sfe", "bpso", "sfe_pso"),
        datasets=(DatasetSpec(name="alpha", path=str(csv)),),
        runs=2, budget=60, folds=4, seed=3,
        hybrid=HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5)),
    )
    rep1 = run_experiment(cfg, str(tmp_path / "one"))
    rep2 = run_experiment(cfg, str(tmp_path / "two"))
    reports_equal = strip_timing(rep1) == strip_timing(rep2)

    traces_equal = True
    for algo in cfg.algorithms:
        for r in range(cfg.runs):
            rel = os.path.join("runs", "alpha", algo, f"run_{r:04d}.jsonl")
            recs1 = [strip_timing(json.loads(line))
                     for line in (tmp_path / "one" / rel).read_text().splitlines()]
            recs2 = [strip_timing(json.loads(line))
                     for line in (tmp_path / "two" / rel).read_text().splitlines()]
            if recs1 != recs2:
                traces_equal = False
    ok = reports_equal and traces_equal
    criterion(9, "identical config reruns bit-identically (timing aside)", ok,
              f"reports_equal={reports_equal}, traces_equal={traces_equal}")
