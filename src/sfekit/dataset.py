"""Tabular classification datasets and stratified cross-validation folds.

A dataset is a dense float64 matrix plus integer-coded class labels.
Feature identity is tracked through column subsetting so that a mask found
on a reduced view can always be reported in terms of the original columns.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "FoldAssignment",
    "DatasetError",
    "load_csv",
    "stratified_kfold",
    "subset_columns",
]


class DatasetError(ValueError):
    """Raised for malformed input files or invalid dataset operations."""


@dataclass(frozen=True)
class Dataset:
    """Immutable instance matrix with labels and feature provenance.

    Attributes
    ----------
    X : ndarray, shape (n_instances, n_features), float64
        Feature values, one row per instance.
    y : ndarray, shape (n_instances,), int64
        Class labels coded as 0..C-1 in order of first appearance.
    feature_ids : ndarray, shape (n_features,), int64
        Original column index of each feature. ``arange(n_features)`` for a
        freshly loaded dataset; mapped through by `subset_columns`.
    label_names : tuple of str, optional
        Original label tokens, indexed by class code.
    feature_names : tuple of str, optional
        Column names from the CSV header, when one was present.
    """

    X: np.ndarray
    y: np.ndarray
    feature_ids: np.ndarray
    label_names: tuple = None
    feature_names: tuple = None
    name: str = ""

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        fid = np.asarray(self.feature_ids, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DatasetError("X must be a non-empty 2-D matrix")
        if y.shape != (X.shape[0],):
            raise DatasetError("y must have one label per instance")
        if fid.shape != (X.shape[1],):
            raise DatasetError("feature_ids must have one entry per column")
        if not np.all(np.isfinite(X)):
            r, c = np.argwhere(~np.isfinite(X))[0]
            raise DatasetError(f"non-finite value at instance {r}, feature column {c}")
        if np.any(np.diff(fid) <= 0):
            raise DatasetError("feature_ids must be strictly increasing")
        if np.any(y < 0):
            raise DatasetError("labels must be non-negative class codes")
        for arr, key in ((X, "X"), (y, "y"), (fid, "feature_ids")):
            arr.setflags(write=False)
            object.__setattr__(self, key, arr)

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of instances into k cross-validation folds.

    ``fold_of_instance[i]`` is the fold that holds instance ``i`` as a test
    point; the remaining rows form its training set.
    """

    fold_of_instance: np.ndarray
    k: int

    def __post_init__(self):
        fold = np.asarray(self.fold_of_instance, dtype=np.int64)
        if self.k < 2:
            raise DatasetError("k must be at least 2")
        if fold.ndim != 1 or fold.size == 0:
            raise DatasetError("fold_of_instance must be a non-empty vector")
        if fold.min() < 0 or fold.max() >= self.k:
            raise DatasetError("fold indices must lie in [0, k)")
        fold.setflags(write=False)
        object.__setattr__(self, "fold_of_instance", fold)

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_instance == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of_instance != fold)


def _parse_label_column(path, label_col, header, n_cols):
    if isinstance(label_col, str):
        if header is None:
            raise DatasetError(
                f"{path}: label column {label_col!r} given by name but the file has no header"
            )
        try:
            return header.index(label_col)
        except ValueError:
            raise DatasetError(
                f"{path}: label column {label_col!r} not found in header"
            ) from None
    idx = int(label_col)
    if idx < 0:
        idx += n_cols
    if not 0 <= idx < n_cols:
        raise DatasetError(
            f"{path}: label column index {label_col} out of range for {n_cols} columns"
        )
    return idx


def load_csv(path, label_col=-1, has_header: bool = False, name: str = "") -> Dataset:
    """Load a classification dataset from a CSV file.

    Parameters
    ----------
    path : str or Path
        File to read.
    label_col : int or str
        Column holding class labels, as a 0-based index (negative counts
        from the end) or as a header name when ``has_header`` is true.
    has_header : bool
        Whether the first row is a header and should not be parsed as data.
    name : str
        Optional display name; defaults to the file stem.

    Labels may be arbitrary tokens and are integer-coded in order of first
    appearance. Every other cell must parse as a finite float; parse errors
    report the offending row and column (1-based, counting the header).
    """
    rows = []
    header = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row:
                continue
            rows.append(row)
    if has_header:
        if not rows:
            raise DatasetError(f"{path}: empty file")
        header = [c.strip() for c in rows.pop(0)]
    if not rows:
        raise DatasetError(f"{path}: no data rows")

    n_cols = len(rows[0])
    if n_cols < 2:
        raise DatasetError(f"{path}: need at least one feature column plus a label column")
    lbl = _parse_label_column(path, label_col, header, n_cols)

    n = len(rows)
    X = np.empty((n, n_cols - 1), dtype=np.float64)
    tokens = []
    offset = 2 if has_header else 1  # 1-based file line of the first data row
    for i, row in enumerate(rows):
        if len(row) != n_cols:
            raise DatasetError(
                f"{path}: row {i + offset} has {len(row)} columns, expected {n_cols}"
            )
        lab = row[lbl].strip()
        if lab == "":
            raise DatasetError(f"{path}: row {i + offset} has an empty label")
        tokens.append(lab)
        j_out = 0
        for j, cell in enumerate(row):
            if j == lbl:
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: row {i + offset}, column {j + 1}: "
                    f"cannot parse {cell.strip()!r} as a number"
                ) from None
            if not math.isfinite(v):
                raise DatasetError(
                    f"{path}: row {i + offset}, column {j + 1}: non-finite value {cell.strip()!r}"
                )
            X[i, j_out] = v
            j_out += 1

    # Code labels by first appearance so the coding never depends on token order.
    code = {}
    y = np.empty(n, dtype=np.int64)
    for i, tok in enumerate(tokens):
        if tok not in code:
            code[tok] = len(code)
        y[i] = code[tok]

    feature_names = None
    if header is not None:
        feature_names = tuple(h for j, h in enumerate(header) if j != lbl)
    return Dataset(
        X=X,
        y=y,
        feature_ids=np.arange(n_cols - 1),
        label_names=tuple(code),
        feature_names=feature_names,
        name=name or os.path.splitext(os.path.basename(str(path)))[0],
    )


def stratified_kfold(ds: Dataset, k: int, seed) -> FoldAssignment:
    """Assign instances to k folds, stratified by class.

    Within each class the instances are shuffled by a generator seeded only
    with ``seed`` and dealt round-robin to folds 0..k-1, so per-class fold
    sizes differ by at most one and the split is reproducible from
    (dataset, k, seed) alone. Fold k-1 gets a member only from a class of
    at least k instances, so a smaller largest class is an error.
    """
    if k < 2:
        raise DatasetError("k must be at least 2")
    largest = int(np.bincount(ds.y).max())
    if k > largest:
        raise DatasetError(
            f"k={k} exceeds the largest class ({largest} instances); folds would be empty"
        )
    rng = np.random.default_rng(seed)
    fold = np.empty(ds.n_instances, dtype=np.int64)
    for c in range(ds.n_classes):
        members = np.flatnonzero(ds.y == c)
        if members.size == 0:
            continue
        if members.size < 2:
            raise DatasetError(
                f"class {c} has a single instance and cannot be split across folds"
            )
        perm = rng.permutation(members)
        fold[perm] = np.arange(perm.size) % k
    return FoldAssignment(fold_of_instance=fold, k=k)


def subset_columns(ds: Dataset, mask) -> Dataset:
    """Restrict a dataset to the columns where ``mask`` is nonzero.

    ``feature_ids`` of the result point back at the columns of the dataset
    that ``ds`` itself was derived from, so subsetting composes.
    """
    m = np.asarray(mask)
    if m.shape != (ds.n_features,):
        raise DatasetError(f"mask length {m.size} does not match {ds.n_features} features")
    sel = np.flatnonzero(m)
    if sel.size == 0:
        raise DatasetError("mask selects no columns")
    names = None
    if ds.feature_names is not None:
        names = tuple(ds.feature_names[j] for j in sel)
    return Dataset(
        X=ds.X[:, sel],
        y=ds.y,
        feature_ids=ds.feature_ids[sel],
        label_names=ds.label_names,
        feature_names=names,
        name=ds.name,
    )
