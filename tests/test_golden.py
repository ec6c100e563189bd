"""Golden traces: fixed-seed outputs of every registered search, pinned.

A change that is meant to keep outputs bit-identical (a faster kernel, a
refactor of a search loop) must keep every value here. If one moves, find
out why; never re-seed to make it fit.
"""

import hashlib
import json

import numpy as np
import pytest

from sfekit import FitnessEvaluator, HybridParams, PsoParams, resolve_algorithm, stratified_kfold
from sfekit import fitness

from util import blob_dataset

# A weak signal in 4 of 20 columns, so fitness is not saturated; stage one
# stagnates during the warm-up, so both hybrids hand off at its end.
DATASET = dict(n=30, d=20, seed=2, shift=1.0, informative=4)
PARAMS = HybridParams(warmup_fes=60, stagnation_window=20, pso=PsoParams(pop_size=5))
BUDGET = 300
SEED = 12

# name: (final fitness, selected columns, handoff FE, blake2b of fes/best/nsel)
GOLDEN = {
    "sfe": (83.33333333333333, [1, 2, 10], None, "b37d4be0d4149ef9e33dff05628073a3"),
    "bpso": (90.0, [0, 1, 5, 8, 11, 12, 14], None, "9887f71b368338598f2aced8a7227ebc"),
    "sfe_pso": (76.66666666666667, [0, 2, 4, 5, 10], 61, "525b891ed2c0f47e6d8a0b449188b7dc"),
    "sfe_ec:pso": (76.66666666666667, [0, 2, 4, 5, 10], 61,
                   "525b891ed2c0f47e6d8a0b449188b7dc"),
    "sfe_ec:hillclimb": (76.66666666666667, [0, 2, 4, 5, 10], 61,
                         "7e2c1892dfbc5cce74ed52c4ecad7d5c"),
}


def trace_digest(trace) -> str:
    payload = json.dumps([trace.fes, trace.best_fitness, trace.n_selected])
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_trace(name):
    ds = blob_dataset(**DATASET)
    ev = FitnessEvaluator(ds, stratified_kfold(ds, 5, seed=1), budget=BUDGET)
    trace = resolve_algorithm(name, PARAMS)(ds, ev, SEED)
    fitness, selected, handoff, digest = GOLDEN[name]
    assert trace.final_fitness == fitness
    assert np.flatnonzero(trace.final_mask).tolist() == selected
    assert trace.handoff_fes == handoff
    if name.startswith("sfe_"):
        assert trace.handoff_fes is not None  # the continuation engine ran
    assert trace_digest(trace) == digest


# 2000 columns, so masks reach the certified Gram distances of `_accuracy`
# (`_GRAM_MIN` features or more), and BPSO's space is too large for the
# wave's pair tensor: its waves are scored mask by mask.
WIDE_DATASET = dict(n=30, d=2000, seed=2, shift=1.0, informative=4)

# name: (final fitness, blake2b of the selected columns, blake2b of fes/best/nsel)
WIDE_GOLDEN = {
    "sfe": (90.0, "88b92d6896b08e4e31b91346f6b079a9", "4cc054cbf19a965e43e0bcc8c3fada87"),
    "bpso": (93.33333333333333, "02c71e35a915da0504ba418c26ccd1b6",
             "bfabd175e219797238e098ba36e2422d"),
}


def columns_digest(mask) -> str:
    payload = json.dumps(np.flatnonzero(mask).tolist())
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


@pytest.mark.parametrize("name", list(WIDE_GOLDEN))
def test_golden_trace_wide(name):
    ds = blob_dataset(**WIDE_DATASET)
    ev = FitnessEvaluator(ds, stratified_kfold(ds, 5, seed=1), budget=BUDGET)
    trace = resolve_algorithm(name, PARAMS)(ds, ev, SEED)
    assert max(trace.n_selected) >= fitness._GRAM_MIN
    assert not ev._tensor  # never built (sfe) or refused (bpso)
    assert (trace.final_fitness, columns_digest(trace.final_mask),
            trace_digest(trace)) == WIDE_GOLDEN[name]


# 20000 columns, so sfe's first masks hold about 10,000 features: more than
# `_sq_dists` sums in one einsum run (`fitness._RUN`), on the Gram path.
WIDEST_DATASET = dict(n=30, d=20000, seed=2, shift=1.0, informative=4)

# name: (final fitness, blake2b of the selected columns, blake2b of fes/best/nsel)
WIDEST_GOLDEN = {
    "sfe": (100.0, "3f3bcd77e7a4edf4b27e683b295b9c70", "e1014a89f39797c2b93fafc52ffcd9e9"),
}


@pytest.mark.parametrize("name", list(WIDEST_GOLDEN))
def test_golden_trace_widest(name):
    ds = blob_dataset(**WIDEST_DATASET)
    ev = FitnessEvaluator(ds, stratified_kfold(ds, 5, seed=1), budget=BUDGET)
    trace = resolve_algorithm(name, PARAMS)(ds, ev, SEED)
    assert max(trace.n_selected) > fitness._RUN
    assert (trace.final_fitness, columns_digest(trace.final_mask),
            trace_digest(trace)) == WIDEST_GOLDEN[name]
