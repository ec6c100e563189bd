"""Stagnation-triggered two-stage search.

Stage one is the single-agent mask search. When its best fitness has not
moved for a whole window of evaluations (after a warm-up period), the
incumbent mask freezes, the dataset is cut down to the incumbent's columns
and the remaining evaluation budget goes to a continuation engine that
refines within that subspace. The stock engine is BPSO seeded with the
full reduced mask; any engine honouring the same contract can be swapped
in. If the trigger never fires the result is exactly the stage-one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bpso import PsoParams, pso_search
from .dataset import Dataset, subset_columns
from .fitness import FitnessEvaluator
from .sfe import SfeParams, random_mask, sfe_search
from .trace import SearchTrace

__all__ = [
    "HybridParams",
    "EngineContractError",
    "stagnation_check",
    "sfe_ec_search",
    "sfe_pso_search",
    "hillclimb_engine",
    "resolve_engine",
    "resolve_algorithm",
]


# Consecutive rejected moves after which the hill climber restarts.
_RESTART_AFTER = 50


class EngineContractError(RuntimeError):
    """A continuation engine broke its interface contract."""


@dataclass(frozen=True)
class HybridParams:
    """Stagnation trigger plus the per-stage parameter blocks.

    The check may only fire after ``warmup_fes`` evaluations, and compares
    best fitness against its value ``stagnation_window`` evaluations
    earlier under exact equality. Both count the search's own evaluations,
    its trace entries; with an evaluator that starts at 0 used, these are
    the evaluator's FE numbers.
    """

    warmup_fes: int = 2000
    stagnation_window: int = 1000
    sfe: SfeParams = field(default_factory=SfeParams)
    pso: PsoParams = field(default_factory=PsoParams)

    def __post_init__(self):
        if self.stagnation_window < 1:
            raise ValueError("stagnation_window must be at least 1")
        if self.warmup_fes <= self.stagnation_window:
            raise ValueError("warmup_fes must exceed stagnation_window")


def stagnation_check(trace: SearchTrace, params: HybridParams) -> bool:
    """True when the trace's best fitness equals its value one window ago.

    Counts trace entries, one per evaluation the search charged, so it
    never fires during the search's first ``warmup_fes`` evaluations
    whatever the evaluator's starting count. Exact float equality: the
    greedy stage cannot regress, so equality over a whole window means
    zero improvement. ``warmup_fes > stagnation_window`` guarantees the
    earlier entry exists.
    """
    best = trace.best_fitness
    return len(best) > params.warmup_fes and best[-1] == best[-1 - params.stagnation_window]


def sfe_ec_search(
    ds: Dataset,
    ev: FitnessEvaluator,
    engine,
    params: HybridParams = HybridParams(),
    seed=None,
    *,
    min_continuation_budget: int = 0,
) -> SearchTrace:
    """Stage-one search with a pluggable continuation engine.

    ``engine`` is called as ``engine(reduced_ds, ev, seed_mask, rng)`` with
    a column-reduced dataset, an evaluator continuing the unspent budget, a
    seed mask of all ones in the reduced space and the live random stream.
    It must return a `SearchTrace` with one entry per evaluation it spent
    and a final mask in the reduced space. Lowering the evaluator's count
    or spending past the caller's budget, a trace that skips or invents
    evaluations, or a malformed mask raises `EngineContractError`; ``ev``
    counts what the engine spent also when it raises. The handoff is
    skipped while fewer than ``min_continuation_budget`` evaluations remain.

    The engine's entries join stage one's trace under the running-best
    rule of `SearchTrace.offer`. Its final mask, mapped to ``ds``'s index
    space, is taken only when the joined best beats the handoff fitness;
    else the frozen mask is copied. ``handoff_fes`` is None if no handoff.
    """
    rng = np.random.default_rng(seed)

    def stop(trace):
        return (ev.remaining_budget >= min_continuation_budget
                and stagnation_check(trace, params))

    trace = sfe_search(ds, ev, params.sfe, rng, stop=stop)
    if ev.remaining_budget == 0:  # stage one only stops early when stop fires
        return trace

    frozen = trace.final_mask
    reduced = subset_columns(ds, frozen)
    start = ev.used
    ev2 = ev.spawn(reduced)
    try:
        stage2 = engine(reduced, ev2, np.ones(reduced.n_features, dtype=np.int8), rng)
    finally:  # keep the caller's budget view exact across the handoff
        ev.used = min(max(ev2.used, start), ev.budget)

    if not isinstance(stage2, SearchTrace):
        raise EngineContractError("engine must return a SearchTrace")
    if not start <= ev2.used <= ev.budget:
        raise EngineContractError(
            f"engine left {ev2.used} evaluations used; it must keep the {start} "
            f"used at the handoff and stay within the caller's budget of {ev.budget}"
        )
    if list(stage2.fes) != list(range(start + 1, ev2.used + 1)):
        raise EngineContractError(
            f"engine spent {ev2.used - start} evaluations from FE {start + 1} on; "
            "its trace must hold one entry for each, in order"
        )
    final_reduced = np.asarray(stage2.final_mask)
    if final_reduced.shape != (reduced.n_features,):
        raise EngineContractError("engine's final mask is not in the reduced space")
    if not final_reduced.any():
        raise EngineContractError("engine's final mask selects no features")

    trace.handoff_fes = start
    trace.handoff_mask = frozen
    handoff_fitness = trace.final_fitness
    for fes, best, n in zip(stage2.fes, stage2.best_fitness, stage2.n_selected):
        if not trace._repeats_best(fes, best):
            trace.record(fes, best, n)
    trace.final_mask = frozen.copy()
    if trace.final_fitness > handoff_fitness:
        trace.final_mask[frozen != 0] = final_reduced != 0
    return trace


def sfe_pso_search(
    ds: Dataset,
    ev: FitnessEvaluator,
    params: HybridParams = HybridParams(),
    seed=None,
) -> SearchTrace:
    """Two-stage search whose continuation is BPSO on the reduced columns.

    The swarm's first particle starts as the full reduced mask, so its
    first evaluation reproduces the handoff fitness and the joined entries
    equal the swarm's own. A handoff needs at least one whole particle
    wave of budget; with less remaining, stage one runs the budget out.
    This is the registry's ``sfe_pso``, the same search as ``sfe_ec:pso``.
    """
    return resolve_algorithm("sfe_pso", params)(ds, ev, seed)


def hillclimb_engine(reduced_ds, ev, seed_mask, rng) -> SearchTrace:
    """Single-bit-flip hill climber with random restarts.

    Accepts moves that do not lose fitness; after `_RESTART_AFTER`
    consecutive rejections it restarts from a random mask. Every
    evaluation is offered to the trace, so the returned mask is the best
    one seen anywhere and the final fitness never falls below the seed's.

    A move is scored by `FitnessEvaluator.evaluate_at_least` against the
    current mask's fitness and may be abandoned early: it then reads as
    -inf, is rejected and repeats the previous trace entry, which it could
    not have beaten anyway. The seed and every restart are scored in full.
    """
    rng = np.random.default_rng(rng)
    d = reduced_ds.n_features
    trace = SearchTrace()

    def measure(mask, at_least=-math.inf):
        value = ev.evaluate_at_least(mask, at_least)
        trace.offer(ev.used, value, mask)
        return value

    current = np.asarray(seed_mask, dtype=np.int8).copy()
    if ev.remaining_budget <= 0:
        raise ValueError("hill climber needs at least one evaluation of budget")
    fit_cur = measure(current)
    rejected = 0
    while ev.remaining_budget > 0:
        cand = current.copy()
        j = int(rng.integers(0, d))
        cand[j] = 1 - cand[j]
        if not cand.any():
            cand[int(rng.integers(0, d))] = 1
        fit_cand = measure(cand, fit_cur)
        if fit_cand >= fit_cur:
            current, fit_cur = cand, fit_cand
            rejected = 0
        else:
            rejected += 1
        if rejected >= _RESTART_AFTER and ev.remaining_budget > 0:
            current = random_mask(d, rng)
            fit_cur = measure(current)
            rejected = 0
    return trace


def resolve_engine(name: str, params: HybridParams):
    """Look up a continuation engine by name.

    Returns (engine, min_continuation_budget). Names: "pso", BPSO seeded
    with the handoff mask, and "hillclimb".
    """
    if name == "pso":
        def pso_engine(reduced_ds, ev, seed_mask, rng):
            return pso_search(reduced_ds, ev, params.pso, init=seed_mask, seed=rng)
        return pso_engine, params.pso.pop_size
    if name == "hillclimb":
        return hillclimb_engine, 1
    raise ValueError(f"unknown continuation engine {name!r}; known: pso, hillclimb")


def resolve_algorithm(name: str, params: HybridParams):
    """Look up a search by its configured name.

    Returns ``run(ds, ev, seed) -> SearchTrace``. Names: "sfe", "bpso",
    "sfe_pso" (the paper's name for "sfe_ec:pso") and "sfe_ec:<engine>"
    with an engine name known to `resolve_engine`. This is the one place
    that lists them; an unknown name raises ValueError.
    """
    if name == "sfe":
        return lambda ds, ev, seed: sfe_search(ds, ev, params.sfe, seed)
    if name == "bpso":
        return lambda ds, ev, seed: pso_search(ds, ev, params.pso, seed=seed)
    if name == "sfe_pso":
        name = "sfe_ec:pso"
    if name.startswith("sfe_ec:"):
        engine, floor = resolve_engine(name.split(":", 1)[1], params)
        return lambda ds, ev, seed: sfe_ec_search(
            ds, ev, engine, params, seed, min_continuation_budget=floor
        )
    raise ValueError(
        f"unknown algorithm {name!r}; known: sfe, bpso, sfe_pso, sfe_ec:<engine>"
    )
