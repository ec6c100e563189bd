"""Property tests: budget, trace and handoff invariants of every search,
and the k-NN vote against its straight-line oracle.

Each search example draws a small dataset, a budget and the trigger
settings, runs one registered search name and checks what every run must
satisfy whatever the data: the trace has one entry per charged evaluation,
the budget is spent (whole particle waves for the swarm searches), the
best-so-far series never falls, and a handoff never comes inside the
warm-up.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sfekit import (
    FitnessEvaluator,
    HybridParams,
    PsoParams,
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
