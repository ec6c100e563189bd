"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the public calls
into each sfekit layer; nothing inside the package is patched. They stay in
memory while the workload runs and are written out once it ends.
"""

from __future__ import annotations

import json
import time

import numpy as np
from sfekit import FitnessEvaluator


class Tracer:
    """Flat list of spans: (name, start, end, parent id, run id, attrs)."""

    def __init__(self):
        self.spans = []

    def add(self, name, start, end, parent=None, run=None, **attrs) -> int:
        self.spans.append((name, start, end, parent, run, attrs))
        return len(self.spans) - 1

    def begin(self, name, parent=None, run=None) -> int:
        return self.add(name, time.perf_counter(), None, parent, run)

    def end(self, span_id: int, **attrs) -> None:
        name, start, _, parent, run, old = self.spans[span_id]
        self.spans[span_id] = (name, start, time.perf_counter(), parent, run, {**old, **attrs})

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run}
                rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


class TracedEvaluator(FitnessEvaluator):
    """`FitnessEvaluator` that logs one entry per `evaluate` call.

    Each entry is (start, end, selected count, stage, mask hash). `spawn`
    returns a traced evaluator sharing the same log with ``stage + 1``, so
    the hybrid's continuation phase is traced too.
    """

    def __init__(self, *args, log, stage=1, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = log
        self.stage = stage

    def evaluate(self, mask) -> float:
        t0 = time.perf_counter()
        value = super().evaluate(mask)
        t1 = time.perf_counter()
        m = np.asarray(mask)
        self.log.append((t0, t1, int(np.count_nonzero(m)), self.stage, hash(m.tobytes())))
        return value

    def spawn(self, dataset) -> "TracedEvaluator":
        return TracedEvaluator(
            dataset,
            self.folds,
            knn_k=self.knn_k,
            budget=self.budget,
            used=self.used,
            fold_mean=self.fold_mean,
            log=self.log,
            stage=self.stage + 1,
        )
