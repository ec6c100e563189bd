import numpy as np
import pytest

from sfekit import (
    EngineContractError,
    FitnessEvaluator,
    HybridParams,
    PsoParams,
    SearchTrace,
    SfeParams,
    hillclimb_engine,
    pso_search,
    resolve_algorithm,
    resolve_engine,
    sfe_ec_search,
    sfe_pso_search,
    sfe_search,
    stagnation_check,
    stratified_kfold,
)

from util import blob_dataset, constant_dataset, make_ev

SMALL = HybridParams(warmup_fes=30, stagnation_window=10)


def checks_after_each_entry(values):
    """`stagnation_check` after recording each of ``values`` in turn."""
    t = SearchTrace()
    fired = []
    for value in values:
        t.record(value, 3)
        fired.append(stagnation_check(t, SMALL))
    return fired


# ----------------------------------------------------------- trigger logic

def test_stagnation_never_fires_during_warmup():
    assert not any(checks_after_each_entry([50.0] * 30))


def test_stagnation_fires_first_eval_after_warmup_on_flat_trace():
    assert checks_after_each_entry([50.0] * 31) == [False] * 30 + [True]


def test_stagnation_silent_while_improving():
    assert not any(checks_after_each_entry([float(fes) for fes in range(1, 61)]))


def test_stagnation_requires_exact_equality():
    values = [50.0 if fes <= 21 else 50.0 + 1e-12 for fes in range(1, 32)]
    assert not checks_after_each_entry(values)[-1]


def test_hybrid_params_validation():
    with pytest.raises(ValueError):
        HybridParams(warmup_fes=10, stagnation_window=10)
    with pytest.raises(ValueError):
        HybridParams(stagnation_window=0)
    # the hill climber scores its seed first, so it needs budget for that
    ds = constant_dataset(n=20, d=10)
    ev = make_ev(ds, budget=1)
    ev.evaluate(np.ones(10, dtype=np.int8))
    with pytest.raises(ValueError, match="needs at least one evaluation of budget"):
        hillclimb_engine(ds, ev, np.ones(10, dtype=np.int8), np.random.default_rng(0))


# --------------------------------------------------------------- handoffs

def test_flat_landscape_hands_off_right_after_warmup():
    ds = constant_dataset(n=20, d=10)
    params = HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5))
    ev = make_ev(ds, budget=100)
    trace = sfe_pso_search(ds, ev, params, seed=7)
    assert trace.handoff_fes == 31
    assert trace.handoff_mask is not None
    assert trace.n_selected[30] == trace.handoff_mask.sum()
    # 31 stage-one evals, then whole waves of 5 until under a wave remains
    assert ev.used == 96
    assert trace.fes == list(range(1, 97))


def test_final_mask_stays_within_handoff_mask():
    ds = blob_dataset(25, 10, seed=2)
    params = HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5))
    ev = make_ev(ds, budget=250)
    trace = sfe_pso_search(ds, ev, params, seed=11)
    assert trace.handoff_fes is not None
    frozen = set(np.flatnonzero(trace.handoff_mask))
    final = set(np.flatnonzero(trace.final_mask))
    assert final <= frozen
    assert len(final) >= 1


def test_combined_trace_is_continuous_and_never_dips():
    ds = blob_dataset(25, 10, seed=2)
    params = HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5))
    ev = make_ev(ds, budget=250)
    trace = sfe_pso_search(ds, ev, params, seed=3)
    h = trace.handoff_fes
    assert h is not None
    assert trace.fes == list(range(1, len(trace) + 1))
    assert all(a <= b for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))
    # the swarm's first particle re-evaluates the frozen mask, so the best
    # series is exactly level across the boundary
    assert trace.best_fitness[h] == trace.best_fitness[h - 1]


def test_identity_engine_returns_handoff_unchanged():
    def identity_engine(reduced_ds, ev, seed_mask, rng):
        pass  # spends nothing, so the combined trace ends at the handoff

    ds = constant_dataset(n=20, d=10)
    ev = make_ev(ds, budget=100)
    trace = sfe_ec_search(ds, ev, identity_engine, SMALL, seed=5)
    assert trace.handoff_fes == 31
    assert ev.used == 31  # continuation spent nothing
    assert len(trace) == 31
    assert np.array_equal(trace.final_mask, trace.handoff_mask)
    assert trace.final_fitness == trace.best_fitness[-1]


def test_hillclimb_engine_never_loses_the_handoff_fitness():
    ds = blob_dataset(25, 10, seed=4)
    ev = make_ev(ds, budget=120)
    trace = sfe_ec_search(ds, ev, hillclimb_engine, SMALL, seed=6, min_continuation_budget=1)
    assert trace.handoff_fes is not None
    assert ev.used == 120
    assert trace.final_fitness >= trace.best_fitness[trace.handoff_fes - 1]
    assert all(a <= b for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))


def test_no_trigger_means_plain_stage_one_result():
    ds = blob_dataset(25, 10, seed=2)
    params = HybridParams(warmup_fes=500, stagnation_window=100)
    ev = make_ev(ds, budget=80)
    hybrid = sfe_pso_search(ds, ev, params, seed=9)
    ev2 = make_ev(ds, budget=80)
    plain = sfe_search(ds, ev2, SfeParams(), seed=9)
    assert hybrid.handoff_fes is None
    assert hybrid.handoff_mask is None
    assert hybrid.fes == plain.fes
    assert hybrid.best_fitness == plain.best_fitness
    assert hybrid.n_selected == plain.n_selected
    assert np.array_equal(hybrid.final_mask, plain.final_mask)
    assert hybrid.final_fitness == plain.final_fitness


def test_handoff_skipped_when_under_min_continuation_budget():
    ds = constant_dataset(n=20, d=10)
    params = HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5))
    ev = make_ev(ds, budget=34)  # 3 evals left after warm-up, under one wave
    trace = sfe_pso_search(ds, ev, params, seed=8)
    assert trace.handoff_fes is None
    assert ev.used == 34


def direct_sfe_pso(ds, ev, p, seed):
    # the pso engine built here, not by resolve_engine
    def engine(reduced_ds, ev2, seed_mask, rng):
        return pso_search(reduced_ds, ev2, p.pso, init=seed_mask, seed=rng)
    return sfe_ec_search(ds, ev, engine, p, seed, min_continuation_budget=p.pso.pop_size)


DIRECT_ENTRY_POINTS = {
    "sfe": lambda ds, ev, p, seed: sfe_search(ds, ev, p.sfe, seed),
    "bpso": lambda ds, ev, p, seed: pso_search(ds, ev, p.pso, seed=seed),
    "sfe_pso": direct_sfe_pso,
    "sfe_ec:pso": direct_sfe_pso,
    "sfe_ec:hillclimb": lambda ds, ev, p, seed: sfe_ec_search(
        ds, ev, hillclimb_engine, p, seed, min_continuation_budget=1
    ),
}


@pytest.mark.parametrize("name", list(DIRECT_ENTRY_POINTS))
def test_registry_matches_direct_entry_point(name):
    params = HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5))
    # the flat landscape stagnates with 3 FEs left, under the pso engine's floor
    for ds, budget in [(blob_dataset(25, 10, seed=2), 250), (constant_dataset(), 34)]:
        a = resolve_algorithm(name, params)(ds, make_ev(ds, budget), 12)
        b = DIRECT_ENTRY_POINTS[name](ds, make_ev(ds, budget), params, 12)
        assert a.fes == b.fes
        assert a.best_fitness == b.best_fitness
        assert a.n_selected == b.n_selected
        assert a.handoff_fes == b.handoff_fes
        assert np.array_equal(a.final_mask, b.final_mask)
        if name.startswith("sfe_") and budget == 250:
            assert a.handoff_fes is not None  # the continuation engine really ran


class CountingEvaluator(FitnessEvaluator):
    """Counts `evaluate` calls across spawns, as a benchmark's tracing
    subclass does by overriding `evaluate` and `spawn` alone."""

    def __init__(self, *args, calls, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = calls

    def evaluate(self, mask) -> float:
        self.calls.append(self.used)
        return super().evaluate(mask)

    def spawn(self, dataset):
        return CountingEvaluator(dataset, self.folds, knn_k=self.knn_k,
                                 budget=self.budget, used=self.used,
                                 fold_mean=self.fold_mean, calls=self.calls)


@pytest.mark.parametrize("name", list(DIRECT_ENTRY_POINTS))
def test_an_evaluate_override_sees_every_charged_evaluation(name):
    ds = blob_dataset(25, 10, seed=2, shift=1.0)
    calls = []
    ev = CountingEvaluator(ds, stratified_kfold(ds, 5, seed=1), budget=250, calls=calls)
    trace = resolve_algorithm(name, HybridParams(
        warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5)))(ds, ev, 12)
    assert calls == list(range(ev.used)) == [f - 1 for f in trace.fes]
    if name.startswith("sfe_"):
        assert trace.handoff_fes is not None  # the spawned evaluator counted too


# ----------------------------------------------------------- engine checks

def spending_then_returning(result):
    """An engine that scores its seed and each one-column mask in turn,
    then returns ``result``."""
    def engine(reduced_ds, ev, seed_mask, rng):
        ev.evaluate(seed_mask)
        for j in range(min(reduced_ds.n_features, ev.remaining_budget)):
            mask = np.zeros_like(seed_mask)
            mask[j] = 1
            ev.evaluate(mask)
        return result
    return engine


def test_what_an_engine_returns_is_ignored():
    ds = blob_dataset(25, 10, seed=1, shift=1.0)
    ev = make_ev(ds, budget=60)
    expected = sfe_ec_search(ds, ev, spending_then_returning(None), SMALL, seed=2)
    assert expected.handoff_fes == 31 and len(expected) == ev.used > 31
    # a one-column mask beat the handoff, so the engine's mask was taken
    assert np.count_nonzero(expected.final_mask) == expected.n_selected[-1] == 1
    assert expected.final_fitness > expected.best_fitness[30]
    # a dict; a trace that starts elsewhere and invents an entry, with lists
    # of unequal length and a mask of the wrong length; an empty mask; a
    # bare array
    junk = ({"final_mask": None},
            SearchTrace(start=98, best_fitness=[101.0], n_selected=[],
                        final_mask=np.ones(11, dtype=np.int8)),
            SearchTrace(final_mask=np.zeros(10, dtype=np.int8)),
            np.ones(1, dtype=np.int8))
    for result in junk:
        ev = make_ev(ds, budget=60)
        trace = sfe_ec_search(ds, ev, spending_then_returning(result), SMALL, seed=2)
        assert ev.used == len(trace)
        for name in ("fes", "best_fitness", "n_selected", "handoff_fes"):
            assert getattr(trace, name) == getattr(expected, name)
        assert np.array_equal(trace.final_mask, expected.final_mask)
        assert np.array_equal(trace.handoff_mask, expected.handoff_mask)


def test_an_engine_may_not_move_the_count_without_evaluating():
    ds = constant_dataset(n=20, d=10)

    def skipping_ahead(reduced_ds, ev, seed_mask, rng):
        ev.evaluate(seed_mask)
        ev.used += 3  # charged nothing
        ev.evaluate(seed_mask)

    ev = make_ev(ds, budget=60)
    with pytest.raises(EngineContractError,
                       match="^engine left 36 evaluations used after 2 charged; it must "
                             "count from the 31 used at the handoff"):
        sfe_ec_search(ds, ev, skipping_ahead, SMALL, seed=1)
    assert ev.used == 36


def test_an_engine_trace_with_short_lists_loses_no_entry():
    ds = blob_dataset(25, 10, seed=2)

    def dropping_its_last_entry(reduced_ds, ev, seed_mask, rng):
        t = SearchTrace(start=ev.used)
        for _ in range(5):
            t.offer(ev.evaluate(seed_mask), seed_mask)
        del t.best_fitness[-1], t.n_selected[-1]
        return t

    ev = make_ev(ds, budget=60)
    trace = sfe_ec_search(ds, ev, dropping_its_last_entry, SMALL, seed=1)
    assert ev.used == 36
    assert trace.fes == list(range(1, ev.used + 1))
    assert np.count_nonzero(trace.final_mask) == trace.n_selected[-1]


def test_an_engine_mask_that_its_trace_never_scored_is_not_taken():
    ds = blob_dataset(25, 10, seed=2)

    def claiming_a_better_seed(reduced_ds, ev, seed_mask, rng):
        t = SearchTrace(start=ev.used)
        ev.evaluate(seed_mask)
        t.offer(101.0, seed_mask)  # above any accuracy
        t.final_mask = one_column(reduced_ds)
        return t

    ev = make_ev(ds, budget=60)
    trace = sfe_ec_search(ds, ev, claiming_a_better_seed, SMALL, seed=1)
    assert trace.n_selected[-1] > 1  # so a one-column final mask could not match it
    assert trace.fes == list(range(1, ev.used + 1))
    assert np.count_nonzero(trace.final_mask) == trace.n_selected[-1]
    assert np.array_equal(trace.final_mask, trace.handoff_mask)
    assert trace.final_fitness == trace.best_fitness[trace.handoff_fes - 1]


def test_engine_may_not_overspend():
    ds = constant_dataset(n=20, d=10)

    def engine(reduced_ds, ev, seed_mask, rng):
        ev.used = ev.budget + 5

    def raising_its_budget(reduced_ds, ev, seed_mask, rng):
        ev.budget = 1000
        while ev.used < 100:
            ev.evaluate(seed_mask)

    # the engine is held to the caller's budget, not to its evaluator's own
    for overspending in (engine, raising_its_budget):
        ev = make_ev(ds, budget=60)
        with pytest.raises(EngineContractError, match="caller's budget of 60"):
            sfe_ec_search(ds, ev, overspending, SMALL, seed=1)


def test_engine_may_not_lower_the_evaluators_count():
    ds = constant_dataset(n=20, d=10)

    def rewinding(reduced_ds, ev, seed_mask, rng):
        ev.used = 0

    ev = make_ev(ds, budget=60)
    with pytest.raises(EngineContractError, match="31 used at the handoff"):
        sfe_ec_search(ds, ev, rewinding, SMALL, seed=1)


def test_warmup_counts_the_searchs_own_evaluations():
    ds = constant_dataset(n=20, d=10)
    params = HybridParams(warmup_fes=20, stagnation_window=10)

    def idle(reduced_ds, ev, seed_mask, rng):
        pass

    ev = FitnessEvaluator(ds, stratified_kfold(ds, 5, seed=1), budget=60, used=15)
    trace = sfe_ec_search(ds, ev, idle, params, seed=1)
    # the flat landscape stagnates at the first check after a whole warm-up
    assert trace.handoff_fes == 15 + params.warmup_fes + 1
    assert trace.fes == list(range(16, trace.handoff_fes + 1))
    assert ev.used == trace.handoff_fes


def one_column(reduced_ds):
    mask = np.zeros(reduced_ds.n_features, dtype=np.int8)
    mask[0] = 1
    return mask


def test_an_idle_engine_leaves_the_frozen_mask():
    ds = blob_dataset(25, 10, seed=2)

    def idle(reduced_ds, ev, seed_mask, rng):
        t = SearchTrace()
        t.final_mask = one_column(reduced_ds)  # never scored, so never taken
        return t

    ev = make_ev(ds, budget=60)
    trace = sfe_ec_search(ds, ev, idle, SMALL, seed=1)
    assert ev.used == trace.handoff_fes == len(trace) == 31  # the engine spent nothing
    assert np.array_equal(trace.final_mask, trace.handoff_mask)
    assert trace.final_mask is not trace.handoff_mask
    assert trace.final_fitness == trace.best_fitness[-1]


def test_an_engine_worse_than_the_frozen_mask_leaves_it_in_place():
    ds = blob_dataset(25, 10, seed=2)
    scored = []

    def worse(reduced_ds, ev, seed_mask, rng):
        scored.append(ev.evaluate(one_column(reduced_ds)))

    ev = make_ev(ds, budget=60)
    trace = sfe_ec_search(ds, ev, worse, SMALL, seed=1)
    h = trace.handoff_fes
    assert h == 31 and ev.used == 32
    assert scored[0] < trace.best_fitness[h - 1]  # the engine's one mask lost
    assert all(a <= b for a, b in zip(trace.best_fitness, trace.best_fitness[1:]))
    # the engine's entry repeats the handoff's, and the frozen mask stays
    assert (trace.best_fitness[h], trace.n_selected[h]) == (
        trace.best_fitness[h - 1], trace.n_selected[h - 1])
    assert np.array_equal(trace.final_mask, trace.handoff_mask)
    assert trace.final_fitness == trace.best_fitness[h - 1]


def test_a_recording_engine_gives_the_final_fitness_of_its_last_entry():
    ds = constant_dataset(n=20, d=10)

    def recording(reduced_ds, ev, seed_mask, rng):
        # fills its trace with `record`, as `sfe_search` does
        t = SearchTrace(start=ev.used)
        while ev.remaining_budget > 0:
            t.record(ev.evaluate(seed_mask), seed_mask.sum())
        t.final_mask = seed_mask.copy()
        return t

    ev = make_ev(ds, budget=60)
    trace = sfe_ec_search(ds, ev, recording, SMALL, seed=1)
    assert trace.handoff_fes == 31 and len(trace) == ev.used == 60
    assert trace.final_fitness == trace.best_fitness[-1] == 50.0


def test_final_fitness_is_read_from_the_last_entry():
    t = SearchTrace(start=4)
    assert np.isnan(t.final_fitness) and t.fes == []
    t.record(50.0, 3)
    assert t.final_fitness == 50.0
    # an entry's FE number is its position, counted on from start
    t.record(50.0, 3)
    assert t.fes == [5, 6]
    with pytest.raises(AttributeError):
        t.final_fitness = 75.0
    with pytest.raises(AttributeError):
        t.fes = [1, 2]
    with pytest.raises(TypeError):
        SearchTrace(final_fitness=75.0)
    with pytest.raises(TypeError):
        SearchTrace(fes=[1])


def test_a_raising_engine_is_charged_what_it_spent():
    ds = constant_dataset(n=20, d=10)

    def spending(reduced_ds, ev, seed_mask, rng):
        for _ in range(5):
            ev.evaluate(seed_mask)
        raise RuntimeError("engine failed")

    def overspending(reduced_ds, ev, seed_mask, rng):
        ev.used = ev.budget + 5
        raise RuntimeError("engine failed")

    # the count stays within the handoff's 31 and the caller's budget of 60
    for engine, used in ((spending, 36), (overspending, 60)):
        ev = make_ev(ds, budget=60)
        with pytest.raises(RuntimeError, match="engine failed"):
            sfe_ec_search(ds, ev, engine, SMALL, seed=1)
        assert ev.used == used


def test_resolve_engine_names():
    params = HybridParams(pso=PsoParams(pop_size=7))
    _, pso_min = resolve_engine("pso", params)
    _, hc_min = resolve_engine("hillclimb", params)
    assert (pso_min, hc_min) == (7, 1)
    for name in ("annealing", "identity"):
        with pytest.raises(ValueError, match="unknown continuation engine"):
            resolve_engine(name, params)
    with pytest.raises(ValueError, match="unknown algorithm"):
        resolve_algorithm("genetic", params)
