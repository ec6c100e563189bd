"""Stagnation-triggered two-stage search.

Stage one is the single-agent mask search. When its best fitness has not
moved for a whole window of evaluations (after a warm-up period), the
incumbent mask freezes, the dataset is cut down to the incumbent's columns
and the remaining evaluation budget goes to a continuation engine that
refines within that subspace. The stock engine is BPSO seeded with the
full reduced mask; any engine that spends the evaluator it is handed can
be swapped in. The hybrid records each evaluation the engine charges, so
what the engine returns is never read. If the trigger never fires the
result is exactly the stage-one run.
"""

from __future__ import annotations

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
    It spends ``ev``; any return value is ignored. The handoff is skipped
    while fewer than ``min_continuation_budget`` evaluations remain.

    The hybrid `SearchTrace.offer`s each evaluation the engine charges as
    the next entry of stage one's trace. When the engine returns, the
    running best's mask, the frozen one until an entry beats it, is mapped
    to ``ds``'s index space as the final mask. Moving the evaluator's
    count other than by evaluating, or spending past the caller's budget,
    raises `EngineContractError`; ``ev`` counts what the engine spent also
    when it raises. ``handoff_fes`` is None if no handoff.
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
    trace.handoff_fes = start = ev.used
    trace.handoff_mask = frozen
    seed_mask = np.ones(reduced.n_features, dtype=np.int8)  # the frozen mask, reduced
    trace.final_mask = seed_mask

    ev2 = ev.spawn(reduced)
    ev2._charged = trace.offer
    try:
        engine(reduced, ev2, seed_mask.copy(), rng)
    finally:  # keep the caller's budget view exact across the handoff
        ev.used = min(max(ev2.used, start), ev.budget)
        best, trace.final_mask = trace.final_mask, frozen.copy()
        trace.final_mask[frozen != 0] = best != 0

    if not ev2.used == trace.fes[-1] <= ev.budget:
        raise EngineContractError(
            f"engine left {ev2.used} evaluations used after {trace.fes[-1] - start} "
            f"charged; it must count from the {start} used at the handoff and stay "
            f"within the caller's budget of {ev.budget}"
        )
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


def hillclimb_engine(reduced_ds, ev, seed_mask, rng) -> None:
    """Single-bit-flip hill climber with random restarts; spends ``ev``.

    Accepts moves that do not lose fitness; after `_RESTART_AFTER`
    consecutive rejections it restarts from a random mask. The hybrid
    records every evaluation under the running-best rule, so its final
    mask is the best one seen anywhere and never falls below the seed's.

    A move is scored by `FitnessEvaluator.evaluate_at_least` against the
    current mask's fitness and may be abandoned early: it then reads as
    -inf, is rejected and repeats the previous trace entry, which it could
    not have beaten anyway. The seed and every restart are scored in full.
    """
    rng = np.random.default_rng(rng)
    d = reduced_ds.n_features
    current = np.asarray(seed_mask, dtype=np.int8).copy()
    if ev.remaining_budget <= 0:
        raise ValueError("hill climber needs at least one evaluation of budget")
    fit_cur = ev.evaluate(current)
    rejected = 0
    while ev.remaining_budget > 0:
        cand = current.copy()
        j = int(rng.integers(0, d))
        cand[j] = 1 - cand[j]
        if not cand.any():
            cand[int(rng.integers(0, d))] = 1
        fit_cand = ev.evaluate_at_least(cand, fit_cur)
        if fit_cand >= fit_cur:
            current, fit_cur = cand, fit_cand
            rejected = 0
        else:
            rejected += 1
        if rejected >= _RESTART_AFTER and ev.remaining_budget > 0:
            current = random_mask(d, rng)
            fit_cur = ev.evaluate(current)
            rejected = 0


def resolve_engine(name: str, params: HybridParams):
    """Look up a continuation engine by name.

    Returns (engine, min_continuation_budget). Names: "pso", BPSO seeded
    with the handoff mask, and "hillclimb".
    """
    if name == "pso":
        def pso_engine(reduced_ds, ev, seed_mask, rng):
            pso_search(reduced_ds, ev, params.pso, init=seed_mask, seed=rng)
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
