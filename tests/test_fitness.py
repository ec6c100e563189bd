import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sfekit import (
    BudgetExhausted,
    Dataset,
    FitnessEvaluator,
    FoldAssignment,
    stratified_kfold,
    subset_columns,
)
from sfekit import fitness
from sfekit.fitness import _certified_vote, _sq_dists, _vote

from util import blob_dataset, constant_dataset, keyed_dataset


# ------------------------------------------------------------------ oracle
# Straight-line reimplementation used as ground truth: python sums, explicit
# sorts, no shared code with the package.

def oracle_predict(train_x, train_y, query, k=1):
    scored = sorted(
        (sum((float(a) - float(b)) ** 2 for a, b in zip(row, query)), i)
        for i, row in enumerate(train_x)
    )
    nearest = scored[:k]
    votes = Counter(int(train_y[i]) for _, i in nearest)
    top = max(votes.values())
    for _, i in nearest:
        if votes[int(train_y[i])] == top:
            return int(train_y[i])


def oracle_cv_accuracy(ds, fold_of, k_folds, mask, knn_k=1, fold_mean=False):
    cols = [j for j in range(ds.n_features) if mask[j]]
    correct_total = 0
    fold_accs = []
    for f in range(k_folds):
        te = [i for i in range(ds.n_instances) if fold_of[i] == f]
        tr = [i for i in range(ds.n_instances) if fold_of[i] != f]
        hits = 0
        for i in te:
            pred = oracle_predict(
                [[ds.X[t][j] for j in cols] for t in tr],
                [ds.y[t] for t in tr],
                [ds.X[i][j] for j in cols],
                knn_k,
            )
            hits += int(pred == ds.y[i])
        correct_total += hits
        fold_accs.append(hits / len(te))
    if fold_mean:
        return 100.0 * sum(fold_accs) / len(fold_accs)
    return 100.0 * correct_total / ds.n_instances


# ------------------------------------------------------- _sq_dists + _vote

def knn_predict(train_x, train_y, query, k=1):
    """The evaluator's k-NN kernel on a single query row."""
    train_x = np.asarray(train_x, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    return int(_vote(_sq_dists(query[None, :], train_x, np.empty((1, len(train_x)))),
                     np.asarray(train_y), k)[0])


def test_knn_matches_oracle_randomized():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(3, 15))
        d = int(rng.integers(1, 6))
        train = rng.integers(0, 5, size=(n, d)).astype(float)  # ints force ties
        labels = rng.integers(0, 3, size=n)
        queries = rng.integers(0, 5, size=(4, d)).astype(float)
        k = int(rng.integers(1, n + 1))
        # one call over a block of queries, as the evaluator makes per fold
        d2 = _sq_dists(queries, train, np.empty((len(queries), n)))
        assert _vote(d2, labels, k).tolist() == [
            oracle_predict(train, labels, q, k) for q in queries
        ]


def test_knn_equidistant_tie_prefers_lower_index():
    train = np.array([[0.0], [2.0]])
    labels = np.array([1, 0])
    assert knn_predict(train, labels, np.array([1.0]), k=1) == 1
    # swap rows: the other class now sits at the lower index
    assert knn_predict(train[::-1].copy(), labels[::-1].copy(), np.array([1.0]), k=1) == 0


def test_certified_vote_decides_doubtful_rows_on_exact_distances():
    train_y = np.array([0, 1, 1, 0])
    d2 = np.array([
        [1.0, 1.1, 9.0, 9.0],  # labels 0 and 1 within the bound; exact reverses them
        [9.0, 1.1, 9.0, 1.0],  # exact tie of training rows 1 and 3: row 1's label
        [1.0, 9.0, 9.0, 1.1],  # both candidates labelled 0: exact is never asked
    ])
    exact_dists = {0: [2.0, 1.5], 1: [3.0, 3.0]}
    lows, calls = [], []

    def bound(low):
        lows.append(low.tolist())
        return 0.1 * low

    def exact(i, c):
        calls.append((i, c.tolist()))
        return np.array(exact_dists[i])

    block = d2.copy()
    assert _certified_vote(block, train_y, bound, exact).tolist() == [1, 1, 0]
    assert lows == [[1.0, 1.0, 1.0]]
    assert calls == [(0, [0, 1]), (1, [1, 3])]
    np.testing.assert_array_equal(block, d2)  # the distances are left as they were


def test_knn_majority_vote_k3():
    train = np.array([[1.0], [2.0], [3.0], [10.0]])
    labels = np.array([0, 1, 1, 0])
    # neighbours of 0.0 at k=3 are rows 0,1,2 -> classes {0,1,1} -> 1
    assert knn_predict(train, labels, np.array([0.0]), k=3) == 1
    assert oracle_predict(train, labels, np.array([0.0]), k=3) == 1


def test_knn_split_vote_goes_to_nearest():
    train = np.array([[1.0], [2.0]])
    labels = np.array([1, 0])
    # k=2: one vote each; class of the nearest neighbour (row 0) wins
    assert knn_predict(train, labels, np.array([0.0]), k=2) == 1


def test_knn_exact_match_is_stable_under_duplicates():
    rng = np.random.default_rng(5)
    train = rng.normal(size=(12, 3))
    labels = rng.integers(0, 2, size=12)
    extra = np.vstack([train, train[rng.integers(0, 12, size=6)]])
    extra_labels = np.concatenate([labels, rng.integers(0, 2, size=6)])
    for i in range(12):
        q = train[i]
        assert knn_predict(train, labels, q, 1) == labels[i]
        # appended duplicates sit at higher indices and cannot displace it
        assert knn_predict(extra, extra_labels, q, 1) == labels[i]


# -------------------------------------------------------- FitnessEvaluator

def evaluator(ds, budget=50, k=5, seed=1, **kw):
    folds = stratified_kfold(ds, k, seed=seed)
    return FitnessEvaluator(ds, folds, budget=budget, **kw), folds


def test_evaluate_matches_oracle_random_masks():
    ds = blob_dataset(25, 8, seed=3)
    ev, folds = evaluator(ds, k=5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        mask = rng.integers(0, 2, ds.n_features)
        if not mask.any():
            mask[0] = 1
        got = ev.evaluate(mask)
        want = oracle_cv_accuracy(ds, folds.fold_of_instance, 5, mask)
        assert got == pytest.approx(want, abs=1e-12)


def test_evaluate_matches_oracle_k3_neighbours():
    ds = blob_dataset(24, 6, seed=8)
    folds = stratified_kfold(ds, 4, seed=2)
    ev = FitnessEvaluator(ds, folds, knn_k=3, budget=10)
    rng = np.random.default_rng(9)
    for _ in range(8):
        mask = rng.integers(0, 2, ds.n_features)
        if not mask.any():
            mask[0] = 1
        got = ev.evaluate(mask)
        want = oracle_cv_accuracy(ds, folds.fold_of_instance, 4, mask, knn_k=3)
        assert got == pytest.approx(want, abs=1e-12)


def test_pooled_vs_fold_mean_differ_on_uneven_folds():
    # 13 instances over 5 folds: fold sizes differ, so pooling and the
    # unweighted fold mean disagree in general.
    ds = blob_dataset(13, 5, seed=6, shift=1.0)
    folds = stratified_kfold(ds, 5, seed=3)
    pooled = FitnessEvaluator(ds, folds, budget=5)
    permean = FitnessEvaluator(ds, folds, budget=5, fold_mean=True)
    mask = np.ones(5, dtype=int)
    got_pooled = pooled.evaluate(mask)
    got_mean = permean.evaluate(mask)
    assert got_pooled == pytest.approx(
        oracle_cv_accuracy(ds, folds.fold_of_instance, 5, mask), abs=1e-12
    )
    assert got_mean == pytest.approx(
        oracle_cv_accuracy(ds, folds.fold_of_instance, 5, mask, fold_mean=True),
        abs=1e-12,
    )


def test_perfectly_separated_mask_scores_100():
    ds = keyed_dataset(30, 10, key_cols=[4], seed=2)
    ev, _ = evaluator(ds)
    mask = np.zeros(10, dtype=int)
    mask[4] = 1
    assert ev.evaluate(mask) == 100.0


def test_constant_feature_mask_matches_oracle():
    # All distances are exactly zero: predictions collapse to the tie rule.
    ds = constant_dataset(n=14, d=4)
    ev, folds = evaluator(ds, k=2, seed=9)
    mask = np.array([1, 0, 0, 0])
    got = ev.evaluate(mask)
    want = oracle_cv_accuracy(ds, folds.fold_of_instance, 2, mask)
    assert got == pytest.approx(want, abs=1e-12)


def test_budget_counting_and_exhaustion():
    ds = blob_dataset(15, 4, seed=1)
    ev, _ = evaluator(ds, budget=3)
    mask = np.ones(4, dtype=int)
    assert ev.remaining_budget == 3
    for expected_used in (1, 2, 3):
        ev.evaluate(mask)
        assert ev.used == expected_used
    assert ev.remaining_budget == 0
    with pytest.raises(BudgetExhausted):
        ev.evaluate(mask)
    assert ev.used == 3  # the failed call is not charged


def test_invalid_masks_do_not_consume_budget():
    ds = blob_dataset(15, 4, seed=1)
    ev, _ = evaluator(ds, budget=2)
    with pytest.raises(ValueError, match="no features"):
        ev.evaluate(np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="length"):
        ev.evaluate(np.ones(3, dtype=int))
    assert ev.used == 0


def test_evaluate_is_deterministic():
    ds = blob_dataset(20, 6, seed=7)
    ev, _ = evaluator(ds, budget=4)
    mask = np.array([1, 0, 1, 1, 0, 1])
    assert ev.evaluate(mask) == ev.evaluate(mask)


def test_spawn_continues_budget_and_preserves_fitness():
    ds = blob_dataset(22, 9, seed=5)
    ev, _ = evaluator(ds, budget=10)
    mask = np.array([1, 0, 1, 0, 1, 1, 0, 0, 1])
    direct = ev.evaluate(mask)
    reduced = subset_columns(ds, mask)
    ev2 = ev.spawn(reduced)
    assert ev2.used == 1 and ev2.budget == 10
    # the all-ones mask on the reduced view must reproduce the value exactly
    assert ev2.evaluate(np.ones(reduced.n_features, dtype=int)) == direct
    assert ev2.used == 2


def test_constructor_validation():
    ds = blob_dataset(10, 3, seed=0)
    folds = stratified_kfold(ds, 5, seed=1)
    with pytest.raises(ValueError):
        FitnessEvaluator(ds, folds, budget=0)
    with pytest.raises(ValueError):
        FitnessEvaluator(ds, folds, knn_k=0)
    for used in (-1, 6):
        with pytest.raises(ValueError, match=r"used must lie in \[0, budget\]"):
            FitnessEvaluator(ds, folds, budget=5, used=used)
    with pytest.raises(ValueError, match="smallest training split"):
        FitnessEvaluator(ds, folds, knn_k=9)
    other = blob_dataset(12, 3, seed=0)
    with pytest.raises(ValueError, match="does not match"):
        FitnessEvaluator(other, folds)


def test_empty_test_fold_is_refused():
    # k=3 with only folds 0 and 1 used: fold 2 would divide by zero
    ds = blob_dataset(12, 3, seed=0)
    folds = FoldAssignment(fold_of_instance=np.arange(12) % 2, k=3)
    for fold_mean in (False, True):
        with pytest.raises(ValueError, match="fold 2 of 3 has no test instances"):
            FitnessEvaluator(ds, folds, fold_mean=fold_mean)


def test_chunked_distances_are_exact_and_hold_one_block(monkeypatch):
    ds = blob_dataset(40, 300, seed=6)
    rng = np.random.default_rng(7)
    masks = [rng.integers(0, 2, ds.n_features) for _ in range(4)]
    # knn_k=3: k=1 masks this wide take the Gram path, not the difference blocks
    want = [evaluator(ds, knn_k=3)[0].evaluate(m) for m in masks]
    A, B = rng.random((40, 500)), rng.random((160, 500))
    whole = _sq_dists(A, B, np.empty((40, 160)))
    monkeypatch.setattr(fitness, "_CHUNK_ELEMS", 5_000)  # a few rows per block
    assert [evaluator(ds, knn_k=3)[0].evaluate(m) for m in masks] == want

    # one 1x160x500 block at a time: 640 KB of the 800 KB cap
    cap = 100_000
    monkeypatch.setattr(fitness, "_CHUNK_ELEMS", cap)
    out = np.empty((40, 160))
    tracemalloc.start()
    try:
        _sq_dists(A, B, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cap * 8
    np.testing.assert_array_equal(out, whole)


# ------------------------------------------------------- evaluate_at_least

def count_fold_votes(monkeypatch):
    """Record the number of test rows of every fold the evaluator votes on
    through `_vote`, which certified folds bypass; the masks below have
    fewer than `_GRAM_MIN` features, so every fold goes through it."""
    calls = []

    def counting(d2, *args):
        calls.append(len(d2))
        return _vote(d2, *args)

    monkeypatch.setattr(fitness, "_vote", counting)
    return calls


@pytest.mark.parametrize("fold_mean", [False, True])
def test_at_least_returns_the_exact_value_at_a_tie(monkeypatch, fold_mean):
    ds = blob_dataset(25, 6, seed=3, shift=1.0)
    ev, _ = evaluator(ds, budget=10, fold_mean=fold_mean)
    mask = np.array([1, 1, 0, 1, 0, 0])
    exact = ev.evaluate(mask)
    calls = count_fold_votes(monkeypatch)
    assert ev.evaluate_at_least(mask, exact) == exact
    assert ev.evaluate_at_least(mask, -np.inf) == exact
    assert len(calls) == 10  # both ran all five folds
    assert sum(calls) == 2 * ds.n_instances  # and voted on every row once
    assert ev.used == 3


@pytest.mark.parametrize("fold_mean", [False, True])
def test_at_least_abandons_after_the_first_fold_that_cannot_reach_it(
        monkeypatch, fold_mean):
    # only noise columns selected: the first fold misses, so 100 is out of reach
    ds = keyed_dataset(30, 6, key_cols=[0], seed=4)
    ev, _ = evaluator(ds, budget=5, fold_mean=fold_mean)
    mask = np.array([0, 1, 1, 1, 1, 1])
    exact = ev.evaluate(mask)
    assert exact < 100.0
    calls = count_fold_votes(monkeypatch)
    assert ev.evaluate_at_least(mask, 100.0) == -np.inf
    assert 1 <= len(calls) < 5
    # a threshold just above the exact value is missed by the full scoring too
    assert ev.evaluate_at_least(mask, np.nextafter(exact, np.inf)) == -np.inf
    assert ev.used == 3


def test_at_least_fold_mean_bound_is_exact(monkeypatch):
    # The first fold scores 5/6, so the best reachable value is the mean of
    # [5/6, 1, 1, 1, 1]; a threshold one ulp above it is out of reach after
    # that fold alone.
    ds = keyed_dataset(30, 6, key_cols=[0], seed=4)
    ev, _ = evaluator(ds, budget=1, seed=0, fold_mean=True)
    calls = count_fold_votes(monkeypatch)
    reachable = 100.0 * float(np.mean([5 / 6, 1.0, 1.0, 1.0, 1.0]))
    at_least = np.nextafter(reachable, np.inf)
    assert ev.evaluate_at_least(np.array([0, 1, 1, 1, 1, 1]), at_least) == -np.inf
    assert calls == [6]


def test_at_least_checks_the_mask_like_evaluate():
    ds = blob_dataset(15, 4, seed=1)
    ev, _ = evaluator(ds, budget=1)
    with pytest.raises(ValueError, match="no features"):
        ev.evaluate_at_least(np.zeros(4, dtype=int), 50.0)
    assert ev.used == 0 and ev._at_least == -np.inf


# ----------------------------------------------------------- evaluate_wave

def random_wave(rng, size, d):
    masks = rng.integers(0, 2, (size, d)).astype(np.int8)
    masks[~masks.any(axis=1), 0] = 1
    return masks


class LoggingEvaluator(FitnessEvaluator):
    """Logs (used, mask, value) for every `evaluate` call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def evaluate(self, mask) -> float:
        value = super().evaluate(mask)
        self.log.append((self.used, np.asarray(mask).tobytes(), value))
        return value


def test_a_wave_charges_every_mask_through_evaluate_in_order():
    ds = blob_dataset(24, 10, seed=2)
    masks = random_wave(np.random.default_rng(3), 6, ds.n_features)
    folds = stratified_kfold(ds, 4, seed=1)
    ev = LoggingEvaluator(ds, folds, budget=16, used=2)
    assert ev._tensor is None  # built at the first wave, not in the constructor
    values = ev.evaluate_wave(masks)
    assert ev._tensor  # the wave took the pair tensor
    want = [FitnessEvaluator(ds, folds, budget=1).evaluate(m) for m in masks]
    assert values == want
    assert ev.log == [(3 + i, m.tobytes(), v) for i, (m, v) in enumerate(zip(masks, want))]
    assert ev.used == 8 and ev._known is None
    # any nonzero entry selects its feature, as in `evaluate`
    assert ev.evaluate_wave(masks * np.random.default_rng(4).integers(1, 9, masks.shape)) == want


def test_a_bad_wave_raises_before_charging_anything():
    ds = blob_dataset(15, 4, seed=1)
    ev, _ = evaluator(ds, budget=5)
    ev.used = 2
    good = np.ones((2, 4), dtype=np.int8)
    with pytest.raises(ValueError, match="no features"):
        ev.evaluate_wave(np.vstack([good, np.zeros((1, 4), np.int8)]))
    with pytest.raises(ValueError, match="length"):
        ev.evaluate_wave(np.ones((2, 3), dtype=np.int8))
    with pytest.raises(BudgetExhausted):
        ev.evaluate_wave(np.ones((4, 4), dtype=np.int8))
    assert ev.used == 2
    assert len(ev.evaluate_wave(np.ones((3, 4), dtype=np.int8))) == 3  # exactly what is left
    assert ev.used == 5


@pytest.mark.parametrize("how", ["cap 0", "knn_k 3"])
def test_a_wave_without_the_tensor_equals_evaluate(monkeypatch, how):
    ds = blob_dataset(30, 12, seed=4, shift=1.0)
    masks = random_wave(np.random.default_rng(5), 8, ds.n_features)
    knn_k = 1
    if how == "cap 0":
        monkeypatch.setattr(fitness, "_TENSOR_ELEMS", 0)
    else:
        knn_k = 3
    ev, folds = evaluator(ds, knn_k=knn_k)
    assert ev.evaluate_wave(masks) == [evaluator(ds, knn_k=knn_k)[0].evaluate(m) for m in masks]
    assert ev._tensor is False


def test_overflowing_squared_differences_refuse_the_tensor():
    # Columns of size 1e160 square to inf; the product would then read
    # inf * 0 = NaN even for masks that leave them out.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20, 8))
    X[:, 4:] *= 1e160
    ds = Dataset(X=X, y=np.arange(20) % 2)
    masks = np.array([[1, 1, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 1, 0], [1] * 8], np.int8)
    ev, _ = evaluator(ds)
    assert ev.evaluate_wave(masks) == [evaluator(ds)[0].evaluate(m) for m in masks]
    assert ev._tensor is False
