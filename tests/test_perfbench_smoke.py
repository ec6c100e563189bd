"""Smoke test of the library calls the benchmark in ``perfbench/`` makes.

The benchmark's workloads take minutes; this drives the same entry points
on tiny data, so an API change that would break the benchmark fails here.
No timing is checked.
"""

import os
import sys

import numpy as np
import pytest

from sfekit import Dataset, HybridParams, load_config, load_csv, stratified_kfold

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import datagen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SHAPE = datagen.Shape(n=30, d=40, informative=5, shift=1.0)


@pytest.fixture(scope="module")
def data():
    X, y = datagen.planted(SHAPE, seed=7)
    ds = Dataset(X=X, y=y, feature_ids=np.arange(SHAPE.d), name="smoke")
    return [(ds, stratified_kfold(ds, workloads.FOLDS, seed=1))]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("algorithm", ["sfe", "bpso", "sfe_pso", "sfe_ec:hillclimb"])
def test_execute_search(data, algorithm, traced):
    spec = workloads.SerialWorkload(
        SHAPE, "smoke", 200, ((algorithm, 0, 5),),
        hybrid=HybridParams(warmup_fes=60, stagnation_window=20),
    )
    run = workloads.execute_search(spec, data, spec.plan[0], traced)
    assert run.ok, run.problems
    assert run.used <= spec.budget and run.digest


def test_matrix_iteration(tmp_path):
    specs = []
    for i in range(2):
        path = tmp_path / f"m{i}.csv"
        datagen.write_csv(path, *datagen.planted(SHAPE, seed=20 + i))
        specs.append(f"[dataset:m{i}]\npath = {path}\n")
    ini = tmp_path / "matrix.ini"
    ini.write_text(
        "[experiment]\nalgorithms = sfe, sfe_pso\nruns = 1\nbudget = 100\n"
        f"folds = {workloads.FOLDS}\nseed = 3\nworkers = 1\n"
        "[hybrid]\nwarmup_fes = 40\nstagnation_window = 20\n" + "".join(specs)
    )
    cfg = load_config(str(ini))
    datasets = {s.name: load_csv(s.path, name=s.name) for s in cfg.datasets}
    it = workloads.matrix_iteration(0, str(ini), cfg, datasets, str(tmp_path),
                                    False, Tracer(), None)
    assert len(it.records) == 4
    assert it.problems == {} and it.report_problems == []
