"""Per-evaluation search traces.

Every search records one entry per charged fitness evaluation: the best
fitness seen so far and the selected-feature count of the current best
mask. An entry's evaluation number is its position. Convergence curves
and stagnation checks are both defined over this series.

Two rules fill it. The single-agent search `record`s its incumbent, which
moves on ties. Every other search `offer`s each evaluation under the
running best, where ties keep the earlier; the hybrid offers each
evaluation its continuation engine charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SearchTrace"]


@dataclass
class SearchTrace:
    """Trace of one search run.

    ``best_fitness`` and ``n_selected`` are parallel lists; ``fes`` numbers
    their entries on from ``start``, the evaluator's count before the first.
    ``final_fitness`` reads the last best (NaN when empty). ``final_mask``
    is the best mask at termination, in the index space of the dataset the
    search was handed. Staged searches set ``handoff_fes`` to the evaluation
    at which control changed hands and ``handoff_mask`` to the mask frozen
    there (both None when no handoff happened).
    """

    start: int = 0
    best_fitness: list = field(default_factory=list)
    n_selected: list = field(default_factory=list)
    final_mask: np.ndarray = None
    handoff_fes: int = None
    handoff_mask: np.ndarray = None

    @property
    def fes(self) -> list:
        return list(range(self.start + 1, self.start + len(self) + 1))

    @property
    def final_fitness(self) -> float:
        return self.best_fitness[-1] if self.best_fitness else float("nan")

    def record(self, best: float, n_selected: int) -> None:
        self.best_fitness.append(float(best))
        self.n_selected.append(int(n_selected))

    def offer(self, value: float, mask) -> None:
        """Record the next evaluation, of ``mask``, under the running-best rule.

        The entry and ``final_mask`` (a copy) change only when ``value``
        beats the best so far strictly; otherwise the entry repeats the
        previous one.
        """
        if self.best_fitness and not value > self.best_fitness[-1]:
            self.record(self.best_fitness[-1], self.n_selected[-1])
        else:
            self.record(value, np.count_nonzero(mask))
            self.final_mask = np.array(mask, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.best_fitness)
