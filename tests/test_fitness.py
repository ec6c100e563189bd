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
from sfekit.fitness import _sq_dists, _vote

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
    return int(_vote(_sq_dists(query[None, :], train_x), np.asarray(train_y), k)[0])


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
        assert _vote(_sq_dists(queries, train), labels, k).tolist() == [
            oracle_predict(train, labels, q, k) for q in queries
        ]


def test_knn_equidistant_tie_prefers_lower_index():
    train = np.array([[0.0], [2.0]])
    labels = np.array([1, 0])
    assert knn_predict(train, labels, np.array([1.0]), k=1) == 1
    # swap rows: the other class now sits at the lower index
    assert knn_predict(train[::-1].copy(), labels[::-1].copy(), np.array([1.0]), k=1) == 0


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


# ------------------------------------------------------- evaluate_at_least

def count_fold_votes(monkeypatch):
    """Record the number of test rows of every fold the evaluator votes on."""
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


def test_at_least_checks_the_mask_like_evaluate():
    ds = blob_dataset(15, 4, seed=1)
    ev, _ = evaluator(ds, budget=1)
    with pytest.raises(ValueError, match="no features"):
        ev.evaluate_at_least(np.zeros(4, dtype=int), 50.0)
    assert ev.used == 0 and ev._at_least is None
