"""Property tests: budget, trace and handoff invariants of every search,
the running-best rule of `SearchTrace.offer` and the k-NN vote against
their straight-line oracles.

Each search example draws a small dataset, a budget and the trigger
settings, runs one registered search name and checks what every run must
satisfy whatever the data: the trace has one entry per charged evaluation,
the budget is spent (whole particle waves for the swarm searches), the
best-so-far series never falls, the final mask has as many features as
the last entry records, and a handoff never comes inside the warm-up.
Early-abandoned scoring is checked against exact scoring of the same mask.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sfekit import (
    BudgetExhausted,
    FitnessEvaluator,
    HybridParams,
    PsoParams,
    SearchTrace,
    resolve_algorithm,
    stratified_kfold,
)
from sfekit.fitness import _predict

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
    return dict(
        ds=blob_dataset(n, d, seed=draw(st.integers(0, 2**16)),
                        informative=draw(st.integers(0, d))),
        folds=draw(st.integers(2, 4)),
        budget=draw(st.integers(pop_size, 120)),
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
    ds, params, budget = run["ds"], run["params"], run["budget"]
    folds = stratified_kfold(ds, run["folds"], seed=run["seed"])
    ev = FitnessEvaluator(ds, folds, budget=budget)
    trace = resolve_algorithm(name, params)(ds, ev, run["seed"])

    assert trace.fes == list(range(1, ev.used + 1))
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
        assert params.warmup_fes < trace.handoff_fes < ev.used
        # the continuation searched only the columns frozen at the handoff
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
    assert _predict(q["queries"], train, labels, q["k"]).tolist() == [
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
        trace.offer(fes, value, mask)
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
    assert ev._at_least is None
