import re

import numpy as np
import pytest

from sfekit import Dataset, DatasetError, load_csv, stratified_kfold, subset_columns

from util import blob_dataset


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- load_csv

def test_load_csv_codes_labels_by_first_appearance(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,b\n3,4,a\n5,6,b\n7,8,c\n")
    ds = load_csv(p)
    assert ds.y.tolist() == [0, 1, 0, 2]
    assert ds.X.tolist() == [[1, 2], [3, 4], [5, 6], [7, 8]]


def test_load_csv_label_column_by_index_and_name(tmp_path):
    p = write(tmp_path / "d.csv", "cls,f1,f2\nx,1,2\ny,3,4\n")
    by_name = load_csv(p, label_col="cls", has_header=True)
    by_index = load_csv(p, label_col=0, has_header=True)
    assert by_name.X.tolist() == by_index.X.tolist() == [[1, 2], [3, 4]]


def test_load_csv_negative_label_col_counts_from_end(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,7\n3,4,8\n")
    ds = load_csv(p, label_col=-1)
    assert ds.X.tolist() == [[1, 2], [3, 4]]


def test_load_csv_label_name_requires_header(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n")
    with pytest.raises(DatasetError, match=re.escape(p) + ": .*no header"):
        load_csv(p, label_col="cls")


def test_load_csv_unknown_label_name(tmp_path):
    p = write(tmp_path / "d.csv", "a,b\n1,x\n")
    with pytest.raises(DatasetError, match=re.escape(p) + ": .*not found"):
        load_csv(p, label_col="nope", has_header=True)


def test_load_csv_rejects_non_numeric_cell_with_position(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n3,oops,b\n")
    with pytest.raises(DatasetError, match=r"row 2, column 2"):
        load_csv(p)


def test_load_csv_rejects_non_finite_with_position(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n3,nan,b\n")
    with pytest.raises(DatasetError, match=r"row 2, column 2"):
        load_csv(p)
    p2 = write(tmp_path / "e.csv", "1,inf,a\n")
    with pytest.raises(DatasetError, match="non-finite"):
        load_csv(p2)


def test_load_csv_rejects_ragged_rows(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n3,b\n")
    with pytest.raises(DatasetError, match="row 2"):
        load_csv(p)


def test_load_csv_rejects_empty_label(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n3,4,\n")
    with pytest.raises(DatasetError, match="empty label"):
        load_csv(p)


def test_load_csv_rejects_empty_and_tiny_files(tmp_path):
    p = write(tmp_path / "d.csv", "")
    with pytest.raises(DatasetError):
        load_csv(p)
    p2 = write(tmp_path / "e.csv", "h1,h2\n")
    with pytest.raises(DatasetError, match="no data rows"):
        load_csv(p2, has_header=True)


def test_load_csv_label_col_out_of_range(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n")
    with pytest.raises(DatasetError, match=re.escape(p) + ": .*out of range"):
        load_csv(p, label_col=5)


def test_load_csv_header_row_not_parsed_as_data(tmp_path):
    p = write(tmp_path / "d.csv", "f1,f2,cls\n1,2,a\n3,4,b\n")
    ds = load_csv(p, label_col="cls", has_header=True)
    assert ds.n_instances == 2


def test_load_csv_refuses_a_header_of_another_width(tmp_path):
    p = write(tmp_path / "d.csv", "f1,f2,f3,cls\n1,2,7\n")
    with pytest.raises(DatasetError, match=re.escape(
            f"{p}: header has 4 columns but the data rows have 3")):
        load_csv(p, label_col="cls", has_header=True)
    p2 = write(tmp_path / "e.csv", "cls,f1\nx,1,2\n")
    with pytest.raises(DatasetError, match=re.escape(
            f"{p2}: header has 2 columns but the data rows have 3")):
        load_csv(p2, label_col="cls", has_header=True)


def test_load_csv_names_a_file_it_cannot_decode(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"1,2,a\n3,\xff,b\n")
    with pytest.raises(DatasetError, match="^" + re.escape(f"{p}: ")):
        load_csv(p)


# ---------------------------------------------------------------- Dataset

def test_dataset_rejects_non_finite():
    X = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(DatasetError, match="non-finite"):
        Dataset(X=X, y=np.array([0, 1]))


def test_dataset_rejects_shape_mismatches():
    X = np.ones((3, 2))
    with pytest.raises(DatasetError):
        Dataset(X=X, y=np.array([0, 1]))


def test_dataset_is_immutable():
    ds = blob_dataset(10, 4, seed=1)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.y[0] = 1


# ------------------------------------------------------- stratified_kfold

def test_kfold_balanced_classes_split_exactly():
    ds = blob_dataset(20, 3, n_classes=2, seed=0)
    folds = stratified_kfold(ds, 5, seed=42)
    for f in range(5):
        te = folds.test_indices(f)
        assert te.size == 4
        # both classes present in every fold: 10 per class over 5 folds
        assert sorted(np.bincount(ds.y[te], minlength=2).tolist()) == [2, 2]


def test_kfold_uneven_class_round_robin():
    # 7 instances of a single class over 5 folds -> sizes {2, 2, 1, 1, 1}
    ds = Dataset(X=np.arange(7.0)[:, None], y=np.zeros(7, dtype=int))
    folds = stratified_kfold(ds, 5, seed=3)
    sizes = sorted(folds.test_indices(f).size for f in range(5))
    assert sizes == [1, 1, 1, 2, 2]


def test_kfold_per_class_sizes_differ_by_at_most_one():
    ds = blob_dataset(53, 4, n_classes=3, seed=9)
    folds = stratified_kfold(ds, 4, seed=17)
    for c in range(3):
        per_fold = [
            int(np.count_nonzero(ds.y[folds.test_indices(f)] == c)) for f in range(4)
        ]
        assert max(per_fold) - min(per_fold) <= 1


def test_kfold_deterministic_in_seed():
    ds = blob_dataset(30, 4, seed=2)
    a = stratified_kfold(ds, 5, seed=7)
    b = stratified_kfold(ds, 5, seed=7)
    c = stratified_kfold(ds, 5, seed=8)
    assert np.array_equal(a.fold_of_instance, b.fold_of_instance)
    assert not np.array_equal(a.fold_of_instance, c.fold_of_instance)


def test_kfold_errors():
    ds = blob_dataset(10, 3, seed=0)
    with pytest.raises(DatasetError):
        stratified_kfold(ds, 1, seed=0)
    with pytest.raises(DatasetError, match="exceeds"):
        stratified_kfold(ds, 11, seed=0)
    lone = Dataset(X=np.ones((3, 2)), y=np.array([0, 0, 1]))
    with pytest.raises(DatasetError, match="single instance"):
        stratified_kfold(lone, 2, seed=0)


def test_kfold_refuses_more_folds_than_the_largest_class():
    # two classes of 3: dealing each class round-robin from fold 0 would
    # leave folds 3 and 4 empty, and an empty test fold has no accuracy
    ds = Dataset(X=np.arange(6.0)[:, None], y=np.array([0, 1, 0, 1, 0, 1]))
    with pytest.raises(DatasetError, match=r"k=5 exceeds the largest class \(3 "):
        stratified_kfold(ds, 5, seed=0)
    folds = stratified_kfold(ds, 3, seed=0)
    assert [folds.test_indices(f).size for f in range(3)] == [2, 2, 2]
    # one class large enough is all it takes for every fold to get a row
    skewed = Dataset(X=np.arange(7.0)[:, None], y=np.array([0, 0, 0, 0, 0, 1, 1]))
    folds = stratified_kfold(skewed, 5, seed=0)
    assert all(folds.test_indices(f).size > 0 for f in range(5))


# --------------------------------------------------------- subset_columns

def test_subset_identity_mask():
    ds = blob_dataset(12, 5, seed=4)
    sub = subset_columns(ds, np.ones(5, dtype=int))
    assert np.array_equal(sub.X, ds.X)


def test_subset_of_a_subset_selects_parent_columns():
    ds = blob_dataset(8, 5, seed=4)
    first = subset_columns(ds, np.array([1, 0, 1, 1, 0]))
    second = subset_columns(first, np.array([0, 1, 1]))
    assert np.array_equal(second.X, ds.X[:, [2, 3]])


def test_subset_composition_property():
    rng = np.random.default_rng(11)
    ds = blob_dataset(10, 12, seed=5)
    for _ in range(50):
        m1 = rng.integers(0, 2, 12)
        if not m1.any():
            continue
        sub = subset_columns(ds, m1)
        m2 = rng.integers(0, 2, sub.n_features)
        if not m2.any():
            continue
        twice = subset_columns(sub, m2)
        direct = np.zeros(12, dtype=int)
        direct[np.flatnonzero(m1)[np.flatnonzero(m2)]] = 1
        assert np.array_equal(twice.X, ds.X[:, np.flatnonzero(direct)])


def test_subset_errors():
    ds = blob_dataset(6, 4, seed=0)
    with pytest.raises(DatasetError, match="no columns"):
        subset_columns(ds, np.zeros(4, dtype=int))
    with pytest.raises(DatasetError, match="length"):
        subset_columns(ds, np.ones(3, dtype=int))
