"""Single-agent stochastic mask search over feature subsets.

The search walks a single binary incumbent. Early on it clears many
selected bits per step (exploration); as the evaluation budget drains, the
clearing rate anneals toward zero so steps become small (exploitation).
A candidate that would clear the last remaining bit is replaced by the
opposite move, switching one unselected bit of the incumbent on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .fitness import FitnessEvaluator
from .trace import SearchTrace

__all__ = [
    "SfeParams",
    "ur_schedule",
    "compute_un",
    "non_selection",
    "selection",
    "random_mask",
    "sfe_search",
]


@dataclass(frozen=True)
class SfeParams:
    """Knobs of the single-agent search.

    ur_max, ur_min : float
        Endpoints of the annealed clearing rate.
    sn : int
        Bits switched on by one selection move.
    """

    ur_max: float = 0.3
    ur_min: float = 0.001
    sn: int = 1

    def __post_init__(self):
        if not 0.0 <= self.ur_min <= self.ur_max <= 1.0:
            raise ValueError("need 0 <= ur_min <= ur_max <= 1")
        if self.sn < 1:
            raise ValueError("sn must be at least 1")


def ur_schedule(params: SfeParams, fes: int, max_fes: int) -> float:
    """Clearing rate after ``fes`` of ``max_fes`` evaluations.

    Decreases linearly from ur_max at fes=0 to ur_min at fes=max_fes.
    """
    if max_fes <= 0:
        raise ValueError("max_fes must be positive")
    if fes < 0:
        raise ValueError("fes must be non-negative")
    return (params.ur_max - params.ur_min) * ((max_fes - fes) / max_fes) + params.ur_min


def compute_un(ur: float, nvar: int) -> int:
    """Number of selected bits the next non-selection move will clear:
    ceil(ur * nvar), and at least 1."""
    if nvar < 1:
        raise ValueError("nvar must be positive")
    return max(1, math.ceil(ur * nvar))


def non_selection(x: np.ndarray, un: int, rng) -> np.ndarray:
    """Clear up to ``un`` selected bits of ``x``, chosen uniformly.

    Draws ``un`` positions from the selected set with replacement, so
    duplicate draws collapse and fewer than ``un`` distinct bits may clear.
    """
    if un < 1:
        raise ValueError("un must be at least 1")
    index = np.flatnonzero(x)
    if index.size == 0:
        raise ValueError("x has no selected features")
    draws = rng.integers(0, index.size, size=un)
    out = x.copy()
    out[index[draws]] = 0
    return out


def selection(x: np.ndarray, sn: int, rng) -> np.ndarray:
    """Set up to ``sn`` unselected bits of ``x``, chosen uniformly.

    Mirror image of `non_selection`: draws from the unselected set with
    replacement.
    """
    if sn < 1:
        raise ValueError("sn must be at least 1")
    uindex = np.flatnonzero(np.asarray(x) == 0)
    if uindex.size == 0:
        raise ValueError("x has no unselected features")
    draws = rng.integers(0, uindex.size, size=sn)
    out = x.copy()
    out[uindex[draws]] = 1
    return out


def random_mask(nvar: int, rng) -> np.ndarray:
    """Bernoulli(0.5) mask, redrawn until at least one bit is set."""
    if nvar < 1:
        raise ValueError("nvar must be positive")
    while True:
        mask = (rng.random(nvar) < 0.5).astype(np.int8)
        if mask.any():
            return mask


def sfe_search(
    ds: Dataset,
    ev: FitnessEvaluator,
    params: SfeParams = SfeParams(),
    seed=None,
    stop=None,
) -> SearchTrace:
    """Run the single-agent search until the budget is spent.

    The incumbent is replaced whenever a candidate scores at least as well
    (ties move, which lets the walk drift across plateaus). One entry is
    recorded per evaluation, numbered on from ``ev``'s count; with a greedy
    acceptance rule the incumbent's fitness is the best seen so far.

    Only the initial mask is scored in full. Each candidate is scored by
    `FitnessEvaluator.evaluate_at_least` against the incumbent's fitness,
    so a candidate that cannot reach it is abandoned at the first fold
    that shows this; it is charged all the same, and the trace is the one
    exact scoring would give.

    ``stop``, if given, is called after every recorded evaluation with the
    trace and may return True to end the run early; staged searches use it
    to take over at a stagnation point. Returns the trace with the final
    mask filled in.
    """
    rng = np.random.default_rng(seed)
    nvar = ds.n_features
    max_fes = ev.budget
    trace = SearchTrace(start=ev.used)

    x = random_mask(nvar, rng)
    fit_x = ev.evaluate(x)
    trace.record(fit_x, int(x.sum()))

    ur = ur_schedule(params, 0, max_fes)
    while ev.remaining_budget > 0 and not (stop is not None and stop(trace)):
        un = compute_un(ur, nvar)
        cand = non_selection(x, un, rng)
        if not cand.any():
            if np.all(x == 1):
                # Nothing left to switch on; re-evaluate the incumbent.
                cand = x.copy()
            else:
                cand = selection(x, params.sn, rng)
        fit_cand = ev.evaluate_at_least(cand, fit_x)
        if fit_cand >= fit_x:
            x, fit_x = cand, fit_cand
        trace.record(fit_x, int(x.sum()))
        ur = ur_schedule(params, ev.used, max_fes)

    trace.final_mask = x
    return trace
