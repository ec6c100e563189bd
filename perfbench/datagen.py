"""Seeded synthetic datasets for the benchmark workloads.

Every dataset is two balanced classes of unit Gaussian noise with a class
shift planted in some columns, in the style of the test suite's blob
builder. The benchmark writes each one to CSV and loads it back through
``sfekit.load_csv``, so parsing is part of what it measures.

Why each shape and signal strength (see README.md for the workloads):

* COLON (62 x 2000, 20 columns shifted by 0.9): the shape of the Colon
  microarray matrix, with a signal weak enough that CV fitness lands in the
  Colon band (about 92-100 %) and the hybrid's stagnation trigger fires
  mid-budget (measured handoffs at FE 2001-3625 of 6000). A stronger signal
  saturates fitness early and the handoff would always fire at the end of
  the warm-up; a weaker one leaves fitness near chance.
* WIDE (200 x 10000, half the columns shifted by 2.5): a cost workload for
  the fitness layer at wide masks, not a quality workload. Any mask of more
  than a few features classifies perfectly, so every candidate ties and is
  accepted, and the mask sizes the evaluator sees (about 5000, 2750, 950,
  then a few dozen) follow from the run seed alone. With a weak signal the
  acceptance of a 5000-feature candidate is a coin flip that costs 0.5-0.8 s
  per retry; 100-FE runs then took 1.5-10.6 s each, a spread no 20-second
  run can average out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    n: int
    d: int
    informative: int
    shift: float


COLON = Shape(n=62, d=2000, informative=20, shift=0.9)
WIDE = Shape(n=200, d=10000, informative=5000, shift=2.5)


def planted(shape: Shape, seed: int):
    """Return (X, y) for ``shape``; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    y = np.arange(shape.n) % 2
    rng.shuffle(y)
    X = rng.normal(0.0, 1.0, size=(shape.n, shape.d))
    X[:, : shape.informative] += shape.shift * y[:, None]
    return X, y


def write_csv(path, X, y) -> None:
    """Write features then the label, one row per instance."""
    np.savetxt(path, np.column_stack([X, y]), fmt="%.9g", delimiter=",")
