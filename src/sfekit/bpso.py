"""Binary particle swarm optimisation over feature masks.

Sigmoid-transfer BPSO: velocities evolve in a clamped real box and each
position bit is resampled against the sigmoid of its velocity. Evaluations
within a generation are independent; personal and global bests update at
generation boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .fitness import FitnessEvaluator
from .trace import SearchTrace

__all__ = [
    "PsoParams",
    "sigmoid",
    "velocity_update",
    "position_update",
    "pso_search",
]


@dataclass(frozen=True)
class PsoParams:
    pop_size: int = 20
    w: float = 1.0
    c1: float = 2.0
    c2: float = 1.5
    v_clamp: float = 6.0

    def __post_init__(self):
        if self.pop_size < 1:
            raise ValueError("pop_size must be at least 1")
        # chained comparisons, so NaN fails them too
        if not all(0 <= c < math.inf for c in (self.w, self.c1, self.c2)):
            raise ValueError("w, c1 and c2 must be finite and non-negative")
        if not 0 < self.v_clamp < math.inf:
            raise ValueError("v_clamp must be finite and positive")


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=np.float64)))


def velocity_update(v, x, pbest, gbest, params: PsoParams, rng):
    """One velocity step with fresh uniform r1, r2 per component.

    Accepts scalars or arrays of matching shape; the result is clamped to
    [-v_clamp, +v_clamp] componentwise.
    """
    v = np.asarray(v, dtype=np.float64)
    r1 = rng.random(v.shape)
    r2 = rng.random(v.shape)
    out = (
        params.w * v
        + params.c1 * r1 * (np.asarray(pbest) - np.asarray(x))
        + params.c2 * r2 * (np.asarray(gbest) - np.asarray(x))
    )
    return np.clip(out, -params.v_clamp, params.v_clamp)


def position_update(v, rng):
    """Resample position bits: 1 where a fresh uniform draw <= sigmoid(v)."""
    v = np.asarray(v, dtype=np.float64)
    return (rng.random(v.shape) <= sigmoid(v)).astype(np.int8)


def _repair_zero_rows(positions: np.ndarray, rng) -> None:
    # An all-zero mask cannot be evaluated; switch one random bit on.
    for i in np.flatnonzero(~positions.any(axis=1)):
        positions[i, rng.integers(0, positions.shape[1])] = 1


def pso_search(
    ds: Dataset,
    ev: FitnessEvaluator,
    params: PsoParams = PsoParams(),
    init=None,
    seed=None,
) -> SearchTrace:
    """Run BPSO until fewer than pop_size evaluations remain.

    Positions start Bernoulli(0.5) and velocities uniform in [-1, 1]; when
    ``init`` is given it overwrites particle 0, which seeds the swarm with
    a known-good mask. Each generation charges pop_size evaluations, in one
    `FitnessEvaluator.evaluate_wave` call, so the remaining budget must
    cover at least the initial wave. In a space small enough for the
    evaluator's pair tensor, such as the hybrid's reduced one, the wave is
    scored by one matrix product, with every value still exact. Personal
    bests move only on strict improvement; the global best prefers the
    lowest particle index on ties and steers the velocities. Each evaluation
    is offered to the trace, numbered on from ``ev``'s count, so its best
    series is the running maximum and the final mask is the running best:
    the first mask to reach the best fitness, which ``n_selected[-1]`` counts.
    """
    rng = np.random.default_rng(seed)
    n = params.pop_size
    d = ds.n_features
    if ev.remaining_budget < n:
        raise ValueError(
            f"budget remainder {ev.remaining_budget} cannot cover one wave of {n} particles"
        )

    positions = (rng.random((n, d)) < 0.5).astype(np.int8)
    velocities = rng.uniform(-1.0, 1.0, size=(n, d))
    if init is not None:
        init = np.asarray(init, dtype=np.int8)
        if init.shape != (d,):
            raise ValueError("init mask length does not match the feature count")
        if not init.any():
            raise ValueError("init mask selects no features")
        positions[0] = init
    _repair_zero_rows(positions, rng)

    trace = SearchTrace(start=ev.used)
    fits = np.empty(n, dtype=np.float64)

    def evaluate_wave():
        fits[:] = ev.evaluate_wave(positions)
        for value, mask in zip(fits, positions):
            trace.offer(value, mask)

    evaluate_wave()

    pbest = positions.copy()
    pbest_fits = fits.copy()
    gbest = pbest[int(np.argmax(pbest_fits))].copy()

    while ev.remaining_budget >= n:
        velocities = velocity_update(velocities, positions, pbest, gbest, params, rng)
        positions = position_update(velocities, rng)
        _repair_zero_rows(positions, rng)
        evaluate_wave()

        improved = fits > pbest_fits
        pbest[improved] = positions[improved]
        pbest_fits[improved] = fits[improved]
        gbest = pbest[int(np.argmax(pbest_fits))].copy()  # first index wins ties

    return trace
