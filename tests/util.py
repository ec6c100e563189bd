"""Shared dataset builders for the test suite."""

import numpy as np

from sfekit import Dataset


def blob_dataset(n, d, n_classes=2, seed=0, shift=2.5, informative=3):
    """Gaussian noise with a class-dependent shift in the first few columns."""
    rng = np.random.default_rng(seed)
    y = np.arange(n) % n_classes
    rng.shuffle(y)
    X = rng.normal(0.0, 1.0, size=(n, d))
    for j in range(min(informative, d)):
        X[:, j] += shift * y
    return Dataset(X=X, y=y)


def keyed_dataset(n, d, key_cols, seed=0, key_scale=20.0):
    """Two classes separated deterministically in ``key_cols``.

    Noise columns are uniform in [0, 1), so even over all of them the
    squared distance between two rows stays below d. Each key column
    contributes at least (key_scale - 0.2)^2 between classes, which makes
    every mask containing a key column classify perfectly once
    key_scale^2 dwarfs d.
    """
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    rng.shuffle(y)
    X = rng.random((n, d))
    for j in key_cols:
        X[:, j] = y * key_scale + rng.uniform(-0.1, 0.1, size=n)
    return Dataset(X=X, y=y)


def constant_dataset(n=20, d=10):
    """Every feature is constant, so every mask has identical fitness."""
    X = np.zeros((n, d))
    y = np.arange(n) % 2
    return Dataset(X=X, y=y)


def write_dataset_csv(path, ds, label_last=True):
    """Write a Dataset as a plain CSV, labels in the last (or first) column."""
    with open(path, "w") as fh:
        for i in range(ds.n_instances):
            feats = [repr(float(v)) for v in ds.X[i]]
            row = feats + [str(int(ds.y[i]))] if label_last else [str(int(ds.y[i]))] + feats
            fh.write(",".join(row) + "\n")
    return str(path)
