"""Property tests: budget, trace and handoff invariants of every search,
the running-best rule of `SearchTrace.offer` and the k-NN vote against
their straight-line oracles.

Each search example draws a small dataset, a budget, a share of it spent
before the search starts and the trigger settings, runs one registered
search name and checks what every run must satisfy whatever the data: the
trace has one entry per evaluation the search charged, numbered on from
the evaluator's count, the budget is spent (whole particle waves for the
swarm searches), the best-so-far series never falls, the final mask has
as many features as the last entry records, and a handoff never comes
inside the warm-up.
Custom continuation engines, also ones whose every offer is worse than
the handoff, are held to the same trace and final-mask invariants.
Early-abandoned scoring is checked against exact scoring of the same mask,
and both against a direct per-fold k-NN cross-validation on hand-built
folds, also for masks wide enough to take the certified Gram distances and
for whole swarm waves scored from the pair tensor, on data made to tie and
to cancel. `load_csv` is checked against a per-cell
`float()` reader.
"""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sfekit import (
    BudgetExhausted,
    Dataset,
    DatasetError,
    FitnessEvaluator,
    FoldAssignment,
    HybridParams,
    PsoParams,
    SearchTrace,
    load_csv,
    resolve_algorithm,
    sfe_ec_search,
    stratified_kfold,
    subset_columns,
)
from sfekit import fitness
from sfekit.fitness import _sq_dists, _vote
from sfekit.sfe import random_mask

from test_fitness import oracle_predict
from util import blob_dataset

# Every name resolve_algorithm accepts, with whether it spends the budget
# in whole particle waves.
NAMES = {
    "sfe": False,
    "bpso": True,
    "sfe_pso": True,
    "sfe_ec:pso": True,
    "sfe_ec:hillclimb": False,
}


@st.composite
def runs(draw):
    n = draw(st.integers(10, 24))
    d = draw(st.integers(1, 10))
    pop_size = draw(st.integers(2, 6))
    window = draw(st.integers(1, 12))
    budget = draw(st.integers(pop_size, 120))
    return dict(
        ds=blob_dataset(n, d, seed=draw(st.integers(0, 2**16)),
                        informative=draw(st.integers(0, d))),
        folds=draw(st.integers(2, 4)),
        budget=budget,
        used=draw(st.integers(0, budget - pop_size)),  # spent before the search starts
        params=HybridParams(
            warmup_fes=window + draw(st.integers(1, 40)),
            stagnation_window=window,
            pso=PsoParams(pop_size=pop_size),
        ),
        seed=draw(st.integers(0, 2**32)),
    )


@pytest.mark.parametrize("name", sorted(NAMES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(run=runs())
def test_budget_trace_and_handoff_invariants(name, run):
    ds, params, budget, used = run["ds"], run["params"], run["budget"], run["used"]
    folds = stratified_kfold(ds, run["folds"], seed=run["seed"])
    ev = FitnessEvaluator(ds, folds, budget=budget, used=used)
    trace = resolve_algorithm(name, params)(ds, ev, run["seed"])

    assert trace.fes == list(range(used + 1, ev.used + 1))
    if NAMES[name]:
        assert budget - params.pso.pop_size < ev.used <= budget
    else:
        assert ev.used == budget
    best = trace.best_fitness
    assert all(a <= b for a, b in zip(best, best[1:]))
    assert trace.final_fitness == best[-1]
    assert trace.final_mask.shape == (ds.n_features,) and trace.final_mask.any()
    # the final mask is the one the last trace entry counts
    assert np.count_nonzero(trace.final_mask) == trace.n_selected[-1]
    if trace.handoff_fes is not None:
        assert name not in ("sfe", "bpso")
        assert used + params.warmup_fes < trace.handoff_fes < ev.used
        # the continuation searched only the columns frozen at the handoff
        assert set(np.flatnonzero(trace.final_mask)) <= set(np.flatnonzero(trace.handoff_mask))


@st.composite
def custom_engines(draw):
    """An engine that spends a drawn share of the remaining budget on random
    reduced-space masks and returns junk: None, a random trace or a random
    mask it never scored."""
    share = draw(st.floats(0.0, 1.0))
    returns = draw(st.sampled_from(["none", "trace", "mask"]))
    mask_rng = np.random.default_rng(draw(st.integers(0, 2**32)))

    def engine(reduced_ds, ev, seed_mask, rng):
        d = reduced_ds.n_features
        for _ in range(int(share * ev.remaining_budget)):
            ev.evaluate(random_mask(d, mask_rng))
        if returns == "trace":
            n = int(mask_rng.integers(0, 5))
            return SearchTrace(start=int(mask_rng.integers(0, 10**4)),
                               best_fitness=mask_rng.uniform(0, 101, n).tolist(),
                               n_selected=mask_rng.integers(0, d + 2, n).tolist(),
                               final_mask=random_mask(d, mask_rng))
        if returns == "mask":
            return random_mask(d, mask_rng)
    return engine


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(run=runs(), engine=custom_engines())
def test_a_custom_engine_joins_under_the_running_best_rule(run, engine):
    """Whatever the engine returns, the hybrid records one entry per charged
    evaluation under the running best, and its final mask is the one the
    last entry counts and scores, inside the frozen mask."""
    ds, params, used = run["ds"], run["params"], run["used"]
    folds = stratified_kfold(ds, run["folds"], seed=run["seed"])
    ev = FitnessEvaluator(ds, folds, budget=run["budget"], used=used)
    trace = sfe_ec_search(ds, ev, engine, params, run["seed"])

    assert trace.fes == list(range(used + 1, ev.used + 1))
    best = trace.best_fitness
    assert all(a <= b for a, b in zip(best, best[1:]))
    assert trace.final_fitness == best[-1]
    assert np.count_nonzero(trace.final_mask) == trace.n_selected[-1]
    assert FitnessEvaluator(ds, folds, budget=1).evaluate(trace.final_mask) == best[-1]
    if trace.handoff_fes is not None:
        assert set(np.flatnonzero(trace.final_mask)) <= set(np.flatnonzero(trace.handoff_mask))


@st.composite
def knn_queries(draw):
    # small integer values, so distances and split votes tie often; 3 to 5 classes
    n = draw(st.integers(3, 12))
    d = draw(st.integers(1, 3))
    values = st.integers(0, 3).map(float)
    return dict(
        train=draw(arrays(np.float64, (n, d), elements=values)),
        labels=draw(arrays(np.int64, n, elements=st.integers(0, draw(st.integers(2, 4))))),
        queries=draw(arrays(np.float64, (draw(st.integers(1, 6)), d), elements=values)),
        k=draw(st.integers(2, n)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=knn_queries())
def test_knn_vote_matches_oracle(q):
    train, labels = q["train"], q["labels"]
    d2 = _sq_dists(q["queries"], train, np.empty((len(q["queries"]), len(train))))
    assert _vote(d2, labels, q["k"]).tolist() == [
        oracle_predict(train, labels, row, q["k"]) for row in q["queries"]
    ]


@st.composite
def offers(draw):
    # few distinct values, so ties with the running best are common
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 6))
    return (draw(st.lists(st.sampled_from([50.0, 62.5, 75.0, 100.0]), min_size=n, max_size=n)),
            draw(arrays(np.int8, (n, d), elements=st.integers(0, 1))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(offer=offers())
def test_offer_keeps_the_first_mask_to_reach_the_running_best(offer):
    values, masks = offer
    trace = SearchTrace()
    for fes, (value, mask) in enumerate(zip(values, masks), 1):
        trace.offer(value, mask)
        first = int(np.argmax(values[:fes]))  # argmax returns the first maximum
        assert trace.fes[-1] == fes
        assert trace.best_fitness[-1] == max(values[:fes]) == trace.final_fitness
        assert trace.n_selected[-1] == masks[first].sum()
        assert np.array_equal(trace.final_mask, masks[first])
    # the trace kept copies: changing an offered array leaves it alone
    keep = trace.final_mask.copy()
    masks[:] = 1 - masks
    assert np.array_equal(trace.final_mask, keep)


@st.composite
def thresholds(draw):
    n = draw(st.integers(10, 24))
    d = draw(st.integers(1, 8))
    ds = blob_dataset(n, d, seed=draw(st.integers(0, 2**16)), shift=1.0,
                      informative=draw(st.integers(0, d)))
    mask = draw(arrays(np.int8, d, elements=st.integers(0, 1)))
    mask[draw(st.integers(0, d - 1))] = 1
    # achievable pooled values hit the tie edge; others fall between them
    at_least = draw(st.one_of(
        st.integers(0, n).map(lambda j: 100.0 * j / n),
        st.floats(-1.0, 101.0),
    ))
    return dict(ds=ds, mask=mask, at_least=at_least, folds=draw(st.integers(2, 4)),
                knn_k=draw(st.sampled_from([1, 3])), fold_mean=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=thresholds())
def test_evaluate_at_least_agrees_with_evaluate(case):
    ds, mask, at_least = case["ds"], case["mask"], case["at_least"]
    folds = stratified_kfold(ds, case["folds"], seed=case["seed"])
    ev = FitnessEvaluator(ds, folds, knn_k=case["knn_k"], budget=2,
                          fold_mean=case["fold_mean"])
    exact = ev.evaluate(mask)
    for at in (at_least, exact):  # the drawn threshold, then an exact tie
        ev.used = 0
        got = ev.evaluate_at_least(mask, at)
        assert ev.used == 1
        if exact >= at:
            assert got == exact
        else:
            assert got < at
    ev.used = ev.budget
    with pytest.raises(BudgetExhausted):
        ev.evaluate_at_least(mask, at_least)
    assert ev._at_least == -math.inf


def per_fold_accuracy(ds, folds, mask, knn_k, fold_mean):
    """Direct per-fold k-NN cross-validation: every fold computes the
    distances from its test rows to all its training rows, then votes."""
    Xs = ds.X[:, np.flatnonzero(mask)]
    hits, sizes = [], []
    for f in range(folds.k):
        test, train = folds.test_indices(f), folds.train_indices(f)
        pred = _vote(_sq_dists(Xs[test], Xs[train], np.empty((test.size, train.size))),
                     ds.y[train], knn_k)
        hits.append(int(np.count_nonzero(pred == ds.y[test])))
        sizes.append(test.size)
    if fold_mean:
        return 100.0 * float(np.mean([h / s for h, s in zip(hits, sizes)]))
    return 100.0 * sum(hits) / ds.n_instances


@st.composite
def hand_folds(draw):
    # folds of unequal size, interleaved in index order and blind to the
    # labels, so sorting the rows by fold moves them about
    n = draw(st.integers(6, 20))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(2, 4))
    fold = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    fold[draw(st.permutations(range(n)))[:k]] = np.arange(k)  # no empty fold
    knn_k = draw(st.sampled_from([1, 3]))
    assume(knn_k <= n - np.bincount(fold).max())
    if draw(st.booleans()):  # small integers: distances and votes tie often
        X = draw(arrays(np.float64, (n, d), elements=st.integers(0, 3).map(float)))
    else:
        X = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(n, d))
    y = draw(arrays(np.int64, n, elements=st.integers(0, draw(st.integers(1, 2)))))
    mask = draw(arrays(np.int8, d, elements=st.integers(0, 1)))
    mask[draw(st.integers(0, d - 1))] = 1
    return dict(ds=Dataset(X=X, y=y),
                folds=FoldAssignment(fold_of_instance=fold, k=k), mask=mask,
                knn_k=knn_k, fold_mean=draw(st.booleans()),
                at_least=100.0 * draw(st.integers(0, n)) / n,
                columns=draw(arrays(np.int8, d, elements=st.integers(0, 1))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=hand_folds())
def test_evaluate_matches_the_direct_per_fold_kernel(case):
    ds, folds, mask, at_least = case["ds"], case["folds"], case["mask"], case["at_least"]
    columns = case["columns"] | mask  # a column subset that keeps the mask
    reduced = subset_columns(ds, columns)
    ev = FitnessEvaluator(ds, folds, knn_k=case["knn_k"], budget=4,
                          fold_mean=case["fold_mean"])
    child = ev.spawn(reduced)
    for evaluator, data, m in ((ev, ds, mask),
                               (child, reduced, mask[np.flatnonzero(columns)])):
        want = per_fold_accuracy(data, folds, m, case["knn_k"], case["fold_mean"])
        assert evaluator.evaluate(m) == want
        assert evaluator.evaluate_at_least(m, at_least) == (
            want if want >= at_least else -np.inf)


def duplicated(rng, n, d):
    return rng.normal(size=(n // 3, d))[rng.integers(0, n // 3, n)]


# Data kinds for the Gram path: exact ties under `_sq_dists` (rounded, small
# integers, duplicated rows, whose labels are drawn independently and so
# conflict), and rows far from the origin, where the Gram identity cancels.
# The offsets go on duplicated rows: two copies tie exactly under
# `_sq_dists`, while the cancellation gives them different Gram distances.
KINDS = {
    "gaussian": lambda rng, n, d: rng.normal(size=(n, d)),
    "rounded": lambda rng, n, d: np.round(rng.normal(size=(n, d)), 1),
    "integers": lambda rng, n, d: rng.integers(0, 2, (n, d)).astype(float),
    "duplicated": duplicated,
    "offset 1e4": lambda rng, n, d: duplicated(rng, n, d) + 1e4,
    "offset 1e7": lambda rng, n, d: duplicated(rng, n, d) + 1e7,
}


@st.composite
def gram_cases(draw):
    # masks on both sides of _GRAM_MIN, on hand-built unequal folds
    n = draw(st.integers(9, 30))
    k = draw(st.integers(2, 4))
    fold = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    fold[draw(st.permutations(range(n)))[:k]] = np.arange(k)  # no empty fold
    kind = draw(st.sampled_from(sorted(KINDS)))
    d = fitness._GRAM_MIN + draw(st.integers(0, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mask = np.zeros(d, np.int8)
    mask[rng.permutation(d)[:draw(st.integers(fitness._GRAM_MIN - 8, d))]] = 1
    return dict(ds=Dataset(X=KINDS[kind](rng, n, d), y=rng.integers(0, 2, n)),
                folds=FoldAssignment(fold_of_instance=fold, k=k), mask=mask, kind=kind,
                fold_mean=draw(st.booleans()), at_least=100.0 * draw(st.integers(0, n)) / n)


def test_gram_path_matches_the_direct_per_fold_kernel():
    fallbacks = dict.fromkeys(KINDS, 0)  # rows whose vote the bound left in doubt

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=gram_cases())
    def check(case):
        ds, folds, mask = case["ds"], case["folds"], case["mask"]
        want = per_fold_accuracy(ds, folds, mask, 1, case["fold_mean"])
        ev = FitnessEvaluator(ds, folds, budget=2, fold_mean=case["fold_mean"])
        calls = []

        def counting(A, B, out):
            calls.append(len(A))
            return _sq_dists(A, B, out)

        with mock.patch.object(fitness, "_sq_dists", counting):
            assert ev.evaluate(mask) == want
            at_least = case["at_least"]
            assert ev.evaluate_at_least(mask, at_least) == (want if want >= at_least else -np.inf)
        if mask.sum() >= fitness._GRAM_MIN:
            assert set(calls) <= {1}  # only the fallback, one test row at a time
            fallbacks[case["kind"]] += len(calls)

    check()
    assert fallbacks["gaussian"] == 0
    assert fallbacks["integers"] and fallbacks["offset 1e4"] and fallbacks["offset 1e7"]


@st.composite
def wave_cases(draw):
    # a wave of masks from 1 feature to all, 2 to 4 classes, hand-built folds
    n = draw(st.integers(9, 30))
    k = draw(st.integers(2, 4))
    fold = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    fold[draw(st.permutations(range(n)))[:k]] = np.arange(k)  # no empty fold
    kind = draw(st.sampled_from(sorted(KINDS)))
    d = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    masks = np.zeros((draw(st.integers(1, 6)), d), np.int8)
    for mask in masks:
        mask[rng.permutation(d)[:draw(st.integers(1, d))]] = 1
    return dict(ds=Dataset(X=KINDS[kind](rng, n, d),
                           y=rng.integers(0, draw(st.integers(2, 4)), n)),
                folds=FoldAssignment(fold_of_instance=fold, k=k), masks=masks, kind=kind,
                fold_mean=draw(st.booleans()))


def test_wave_matches_the_direct_per_fold_kernel():
    fallbacks = dict.fromkeys(KINDS, 0)  # rows whose vote the bound left in doubt

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=wave_cases())
    def check(case):
        ds, folds, masks = case["ds"], case["folds"], case["masks"]
        ev = FitnessEvaluator(ds, folds, budget=len(masks), fold_mean=case["fold_mean"])
        calls = []

        def counting(A, B, out):
            calls.append(len(A))
            return _sq_dists(A, B, out)

        with mock.patch.object(fitness, "_sq_dists", counting):
            got = ev.evaluate_wave(masks)
        assert ev._tensor and ev.used == len(masks)
        assert got == [per_fold_accuracy(ds, folds, m, 1, case["fold_mean"]) for m in masks]
        assert set(calls) <= {1}  # only the fallback, one test row at a time
        fallbacks[case["kind"]] += len(calls)

    check()
    assert fallbacks["gaussian"] == 0
    assert fallbacks["integers"] and fallbacks["duplicated"]


@st.composite
def pair_blocks(draw):
    # rows of every kind, a split like a fold's, and a subset of training rows
    kind = draw(st.sampled_from(sorted(KINDS)))
    n = draw(st.integers(6, 40))
    d = draw(st.sampled_from([1, 2, 7, fitness._GRAM_MIN, 100, 1000, fitness._GRAM_MAX]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lo = draw(st.integers(0, n - 2))
    hi = draw(st.integers(lo + 1, n - 1))
    return KINDS[kind](rng, n, d), lo, hi, rng.permutation(n - hi)[:draw(st.integers(1, n - hi))]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=pair_blocks())
def test_a_pair_distance_has_the_same_bits_in_every_block(case):
    # The Gram path's fallback recomputes one test row against a few
    # training rows; its votes equal the fold blocks' only if these bits do.
    X, lo, hi, c = case
    block = _sq_dists(X[lo:hi], X[hi:], np.empty((hi - lo, len(X) - hi)))
    transposed = _sq_dists(X[hi:], X[lo:hi], np.empty((len(X) - hi, hi - lo))).T
    for i in range(hi - lo):
        row = _sq_dists(X[lo + i : lo + i + 1], X[hi:][c], np.empty((1, c.size)))[0]
        assert row.tobytes() == block[i, c].tobytes() == transposed[i, c].tobytes()


def float_reader(path, label_col, has_header):
    """(X, y) of a well-formed CSV file, parsed one cell at a time with
    `float()`, or the `DatasetError` `load_csv` must raise for a bad cell."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = [c.strip() for c in rows.pop(0)] if has_header else None
    lbl = header.index(label_col) if header else label_col % len(rows[0])
    X, y, code = [], [], {}
    for i, row in enumerate(rows, 2 if has_header else 1):
        y.append(code.setdefault(row[lbl].strip(), len(code)))
        X.append([])
        for j, cell in enumerate(row):
            if j == lbl:
                continue
            where = f"{path}: row {i}, column {j + 1}"
            try:
                value = float(cell)
            except ValueError:
                return DatasetError(f"{where}: cannot parse {cell.strip()!r} as a number")
            if not math.isfinite(value):
                return DatasetError(f"{where}: non-finite value {cell.strip()!r}")
            X[-1].append(value)
    return np.array(X), np.array(y)


@st.composite
def csv_files(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    lbl = draw(st.integers(0, d))
    fmt = draw(st.sampled_from([repr, lambda v: "%.9g" % v]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    values = st.floats(allow_nan=False, allow_infinity=False).map(fmt)
    # labels strip to something non-empty; commas and quotes need csv quoting
    tokens = draw(st.lists(st.text('ab,é中" ', min_size=1).filter(str.strip),
                           min_size=1, max_size=3))
    rows = []
    for _ in range(n):
        row = [draw(pad) + draw(values) + draw(pad) for _ in range(d)]
        row.insert(lbl, draw(pad) + draw(st.sampled_from(tokens)) + draw(pad))
        rows.append(row)
    if draw(st.booleans()):  # one bad cell, never in the label column
        j = draw(st.integers(0, d - 1))
        rows[draw(st.integers(0, n - 1))][j + (j >= lbl)] = draw(
            st.sampled_from(["oops", "nan", "inf", ""]))
    has_header = draw(st.booleans())
    if has_header:
        rows.insert(0, [f" f{j} " for j in range(d + 1)])
        rows[0][lbl] = " cls"
    label_col = "cls" if has_header else draw(st.sampled_from([lbl, lbl - d - 1]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n",
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    for row in rows:
        writer.writerow(row)
        out.write("\n" * draw(st.integers(0, 2)))  # blank lines are skipped
    return out.getvalue(), label_col, has_header


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=csv_files())
def test_load_csv_matches_a_per_cell_float_reader(case, tmp_path):
    text, label_col, has_header = case
    path = tmp_path / "d.csv"
    path.write_text(text)
    want = float_reader(path, label_col, has_header)
    if isinstance(want, DatasetError):
        with pytest.raises(DatasetError) as got:
            load_csv(path, label_col=label_col, has_header=has_header)
        assert str(got.value) == str(want)
    else:
        ds = load_csv(path, label_col=label_col, has_header=has_header)
        assert ds.X.tobytes() == want[0].tobytes()
        assert ds.y.tolist() == want[1].tolist()
