import numpy as np
import pytest

from sfekit import FitnessEvaluator, SfeParams, sfe_search, stratified_kfold
from sfekit.sfe import compute_un, non_selection, random_mask, selection, ur_schedule

from util import blob_dataset, constant_dataset, keyed_dataset


class StubDraws:
    """Generator double that returns one preset integer array."""

    def __init__(self, draws):
        self._draws = np.asarray(draws)

    def integers(self, low, high, size=None):
        assert low == 0
        assert size == self._draws.size
        assert int(self._draws.max()) < high
        return self._draws.copy()

    def random(self, *a, **kw):  # pragma: no cover - not expected here
        raise AssertionError("unexpected random() draw")


def mask_from_one_based(selected, nvar=20):
    m = np.zeros(nvar, dtype=np.int8)
    m[np.asarray(selected) - 1] = 1
    return m


# ----------------------------------------------------------- non_selection

def test_non_selection_worked_example():
    # selected positions 3,6,8,9,10,13,16,17,20 (1-based); index draws
    # 3,7,9,7,3,6 into that list clear positions 8,16,20,16,8,13.
    x = mask_from_one_based([3, 6, 8, 9, 10, 13, 16, 17, 20])
    draws = np.array([3, 7, 9, 7, 3, 6]) - 1
    out = non_selection(x, un=6, rng=StubDraws(draws))
    assert np.array_equal(out, mask_from_one_based([3, 6, 9, 10, 17]))
    assert np.array_equal(x, mask_from_one_based([3, 6, 8, 9, 10, 13, 16, 17, 20]))


def test_non_selection_duplicate_draws_collapse():
    x = np.ones(6, dtype=np.int8)
    out = non_selection(x, un=4, rng=StubDraws([2, 2, 2, 2]))
    assert out.sum() == 5
    assert out[2] == 0


def test_non_selection_never_sets_bits():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        x = random_mask(n, rng)
        un = int(rng.integers(1, n + 2))
        out = non_selection(x, un, rng)
        assert not np.any(out > x)
        assert out.sum() >= x.sum() - un


def test_non_selection_requires_selected_bits():
    with pytest.raises(ValueError, match="no selected"):
        non_selection(np.zeros(5, dtype=np.int8), 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="un"):
        non_selection(np.ones(5, dtype=np.int8), 0, np.random.default_rng(0))


# --------------------------------------------------------------- selection

def test_selection_worked_example():
    # selected 6,9,10 (1-based): seventeen unselected positions; drawing
    # index 13 (1-based) of the unselected list switches feature 16 on.
    x = mask_from_one_based([6, 9, 10])
    out = selection(x, sn=1, rng=StubDraws([12]))
    assert np.array_equal(out, mask_from_one_based([6, 9, 10, 16]))


def test_selection_never_clears_bits():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 30))
        x = random_mask(n, rng)
        if np.all(x == 1):
            continue
        out = selection(x, int(rng.integers(1, 4)), rng)
        assert not np.any(out < x)
        assert out.sum() > x.sum() - 1


def test_selection_requires_unselected_bits():
    with pytest.raises(ValueError, match="no unselected"):
        selection(np.ones(4, dtype=np.int8), 1, np.random.default_rng(0))


# --------------------------------------------------------------- schedules

def test_ur_schedule_endpoints_and_midpoint():
    p = SfeParams()
    assert ur_schedule(p, 0, 6000) == 0.3
    assert ur_schedule(p, 6000, 6000) == 0.001
    assert ur_schedule(p, 3000, 6000) == 0.1505


def test_ur_schedule_monotone_non_increasing():
    p = SfeParams()
    values = [ur_schedule(p, f, 500) for f in range(0, 501, 25)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(p.ur_min <= v <= p.ur_max for v in values)


def test_ur_schedule_rejects_bad_budget():
    with pytest.raises(ValueError):
        ur_schedule(SfeParams(), 0, 0)
    with pytest.raises(ValueError):
        ur_schedule(SfeParams(), -1, 10)


def test_compute_un_linear_examples():
    p = SfeParams()
    assert compute_un(p, 0.3, 20) == 6
    assert compute_un(p, 0.1, 20) == 2
    assert compute_un(p, 0.0001, 20) == 1  # clamped up


def test_params_validation():
    with pytest.raises(ValueError):
        SfeParams(ur_min=0.5, ur_max=0.3)
    with pytest.raises(ValueError):
        SfeParams(sn=0)


# --------------------------------------------------------------- the search

def make_ev(ds, budget, folds_k=5, seed=1):
    folds = stratified_kfold(ds, folds_k, seed=seed)
    return FitnessEvaluator(ds, folds, budget=budget)


def test_random_mask_never_empty():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert random_mask(int(rng.integers(1, 8)), rng).any()


def test_search_spends_exact_budget_and_is_monotone():
    ds = blob_dataset(40, 25, seed=2)
    ev = make_ev(ds, budget=120)
    trace = sfe_search(ds, ev, SfeParams(), seed=5)
    assert ev.used == 120
    assert len(trace) == 120
    assert trace.fes == list(range(1, 121))
    assert all(a <= b for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))
    assert trace.final_fitness == trace.best_fitness[-1]
    assert min(trace.n_selected) >= 1
    assert trace.final_mask.sum() == trace.n_selected[-1]


def test_search_budget_one_returns_initial_mask():
    ds = blob_dataset(20, 10, seed=3)
    ev = make_ev(ds, budget=1)
    trace = sfe_search(ds, ev, SfeParams(), seed=7)
    assert len(trace) == 1
    # the lone evaluation is the Bernoulli(0.5) initial mask
    expect = random_mask(10, np.random.default_rng(7))
    assert np.array_equal(trace.final_mask, expect)


def test_search_is_deterministic_in_seed():
    ds = blob_dataset(30, 15, seed=4)
    a = sfe_search(ds, make_ev(ds, 80), SfeParams(), seed=11)
    b = sfe_search(ds, make_ev(ds, 80), SfeParams(), seed=11)
    c = sfe_search(ds, make_ev(ds, 80), SfeParams(), seed=12)
    assert a.best_fitness == b.best_fitness
    assert np.array_equal(a.final_mask, b.final_mask)
    assert not np.array_equal(a.final_mask, c.final_mask) or a.best_fitness != c.best_fitness


def test_plateau_still_moves_the_incumbent():
    # constant fitness: every candidate ties and is accepted, so the
    # selected count keeps changing while best fitness stays flat
    ds = constant_dataset(n=16, d=12)
    ev = make_ev(ds, budget=40, folds_k=4)
    trace = sfe_search(ds, ev, SfeParams(), seed=2)
    assert len(set(trace.best_fitness)) == 1
    assert len(set(trace.n_selected)) > 1


def test_search_recovers_single_key_feature():
    hits = 0
    for seed in range(10):
        ds = keyed_dataset(30, 20, key_cols=[13], seed=100 + seed)
        ev = make_ev(ds, budget=500)
        trace = sfe_search(ds, ev, SfeParams(), seed=seed)
        if trace.final_fitness == 100.0 and trace.final_mask[13] == 1:
            hits += 1
    assert hits >= 9


def test_only_masks_with_key_feature_score_100():
    # exhaustive landscape check at a size where enumeration is cheap
    ds = keyed_dataset(30, 8, key_cols=[5], seed=3)
    folds = stratified_kfold(ds, 5, seed=1)
    ev = FitnessEvaluator(ds, folds, budget=300)
    for bits in range(1, 2 ** 8):
        mask = np.array([(bits >> j) & 1 for j in range(8)], dtype=np.int8)
        acc = ev.evaluate(mask)
        if mask[5]:
            assert acc == 100.0
        else:
            assert acc < 100.0


def test_stop_hook_ends_search_early():
    ds = blob_dataset(20, 10, seed=1)
    ev = make_ev(ds, budget=100)
    trace = sfe_search(ds, ev, SfeParams(), seed=1, stop=lambda t: len(t) >= 17)
    assert len(trace) == 17
    assert ev.used == 17


def test_search_single_feature_dataset_survives():
    # nvar=1: non-selection always empties the mask and selection cannot
    # add anything, so the search must keep re-evaluating the incumbent
    ds = blob_dataset(12, 1, seed=0)
    ev = make_ev(ds, budget=10, folds_k=3)
    trace = sfe_search(ds, ev, SfeParams(), seed=1)
    assert ev.used == 10
    assert trace.final_mask.tolist() == [1]
