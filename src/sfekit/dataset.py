"""Tabular classification datasets and stratified cross-validation folds.

A dataset is a dense float64 matrix plus integer-coded class labels.
"""

from __future__ import annotations

import csv
import itertools
import math
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
    """Immutable instance matrix with integer-coded class labels.

    Attributes
    ----------
    X : ndarray, shape (n_instances, n_features), float64
        Feature values, one row per instance.
    y : ndarray, shape (n_instances,), int64
        Class labels coded as 0..C-1 in order of first appearance.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.int64)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise DatasetError("X must be a non-empty 2-D matrix")
        if y.shape != (X.shape[0],):
            raise DatasetError("y must have one label per instance")
        if not np.all(np.isfinite(X)):
            r, c = np.argwhere(~np.isfinite(X))[0]
            raise DatasetError(f"non-finite value at instance {r}, feature column {c}")
        if np.any(y < 0):
            raise DatasetError("labels must be non-negative class codes")
        for arr, key in ((X, "X"), (y, "y")):
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


def load_csv(path, label_col=-1, has_header: bool = False) -> Dataset:
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

    Labels may be arbitrary tokens and are integer-coded in order of first
    appearance. Every other cell must parse as a finite float; parse errors
    report the offending row and column (1-based, counting the header).
    The file is read in one pass, converting each row as it arrives.
    """
    try:
        with open(path, newline="") as fh:
            return _read_rows(path, (row for row in csv.reader(fh) if row),
                              label_col, has_header)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _read_rows(path, rows, label_col, has_header) -> Dataset:
    header = None
    if has_header:
        header = next(rows, None)
        if header is None:
            raise DatasetError(f"{path}: empty file")
        header = [c.strip() for c in header]
    first = next(rows, None)
    if first is None:
        raise DatasetError(f"{path}: no data rows")

    n_cols = len(first)
    if n_cols < 2:
        raise DatasetError(f"{path}: need at least one feature column plus a label column")
    if header is not None and len(header) != n_cols:
        raise DatasetError(
            f"{path}: header has {len(header)} columns but the data rows have {n_cols}"
        )
    lbl = _parse_label_column(path, label_col, header, n_cols)

    # Labels are coded by first appearance so the coding never depends on token order.
    code, y, X = {}, [], []
    offset = 2 if has_header else 1  # 1-based row number of the first data row
    for i, row in enumerate(itertools.chain([first], rows)):
        if len(row) != n_cols:
            raise DatasetError(
                f"{path}: row {i + offset} has {len(row)} columns, expected {n_cols}"
            )
        label = row.pop(lbl).strip()
        if label == "":
            raise DatasetError(f"{path}: row {i + offset} has an empty label")
        y.append(code.setdefault(label, len(code)))
        try:
            values = np.array(row, dtype=np.float64)  # numpy converts a str as float() does
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            values = _parse_cells(path, i + offset, row, lbl)
        X.append(values)
    return Dataset(X=np.vstack(X), y=y)


def _parse_cells(path, row_number, cells, lbl) -> np.ndarray:
    """Convert ``cells`` one by one with `float`, refusing the first cell
    that does not parse or is not finite. Columns are counted in the file,
    so the label column ``lbl`` is skipped over."""
    values = np.empty(len(cells))
    for j, cell in enumerate(cells):
        where = f"{path}: row {row_number}, column {j + (j >= lbl) + 1}"
        try:
            values[j] = float(cell)
        except ValueError:
            raise DatasetError(f"{where}: cannot parse {cell.strip()!r} as a number") from None
        if not math.isfinite(values[j]):
            raise DatasetError(f"{where}: non-finite value {cell.strip()!r}")
    return values


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
    """Restrict a dataset to the columns where ``mask`` is nonzero."""
    m = np.asarray(mask)
    if m.shape != (ds.n_features,):
        raise DatasetError(f"mask length {m.size} does not match {ds.n_features} features")
    sel = np.flatnonzero(m)
    if sel.size == 0:
        raise DatasetError("mask selects no columns")
    return Dataset(X=ds.X[:, sel], y=ds.y)
