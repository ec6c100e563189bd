"""Wrapper fitness: k-NN accuracy under stratified cross-validation.

The evaluator charges one unit of a hard evaluation budget per fitness
call. Search algorithms own the budget through this class; evaluating past
the budget is an error, never a silent clamp.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset, FoldAssignment

__all__ = ["BudgetExhausted", "FitnessEvaluator"]

# Cap on the element count of one broadcast distance block.
_CHUNK_ELEMS = 16_000_000


class BudgetExhausted(RuntimeError):
    """Raised when a fitness evaluation is requested past the budget."""


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, shape (len(A), len(B)).

    Computed by direct differencing rather than the expanded dot-product
    identity: equal rows must give exactly 0.0 so that tie-breaking between
    equidistant neighbours is reproducible.
    """
    n, d = A.shape
    per_row = max(1, B.shape[0] * d)
    step = max(1, min(n, _CHUNK_ELEMS // per_row))
    out = np.empty((n, B.shape[0]), dtype=np.float64)
    for s in range(0, n, step):
        block = A[s : s + step, None, :] - B[None, :, :]
        np.einsum("ijk,ijk->ij", block, block, out=out[s : s + step])
    return out


def _predict(test_X, train_X, train_y, k: int) -> np.ndarray:
    """Class of each test row by k-nearest-neighbour vote.

    Euclidean distance on the raw values. Ties are deterministic: among
    equidistant rows the lower training index ranks first, and a split vote
    goes to the class of the nearest (then lowest-index) tied neighbour.
    """
    d2 = _sq_dists(test_X, train_X)
    if k == 1:
        # argmin takes the first minimum, i.e. the lowest training index.
        return train_y[np.argmin(d2, axis=1)]
    # Neighbour labels in (distance, training index) order; the earliest
    # neighbour whose class has the top vote count wins.
    labels = train_y[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    counts = (labels[:, :, None] == np.arange(train_y.max() + 1)).sum(axis=1)
    votes = np.take_along_axis(counts, labels, axis=1)
    return labels[np.arange(len(labels)), np.argmax(votes, axis=1)]


class FitnessEvaluator:
    """Budgeted CV accuracy of feature masks on one dataset.

    Parameters
    ----------
    dataset : Dataset
    folds : FoldAssignment
        Cross-validation split of the dataset's rows.
    knn_k : int
        Neighbourhood size of the wrapped classifier.
    budget : int
        Maximum number of `evaluate` calls (shared across search phases
        when ``used`` starts above zero).
    used : int
        Evaluations already charged; lets a continuation phase inherit the
        remaining budget of an earlier phase.
    fold_mean : bool
        If true, score a mask by the unweighted mean of per-fold
        accuracies. Default pools correct predictions over all folds
        before dividing, so unequal fold sizes are weighted naturally.
    """

    def __init__(
        self,
        dataset: Dataset,
        folds: FoldAssignment,
        knn_k: int = 1,
        budget: int = 6000,
        *,
        used: int = 0,
        fold_mean: bool = False,
    ):
        if folds.fold_of_instance.size != dataset.n_instances:
            raise ValueError("fold assignment does not match the dataset")
        if budget < 1:
            raise ValueError("budget must be positive")
        if not 0 <= used <= budget:
            raise ValueError("used must lie in [0, budget]")
        if knn_k < 1:
            raise ValueError("knn_k must be at least 1")
        smallest_train = min(
            folds.train_indices(f).size for f in range(folds.k)
        )
        if knn_k > smallest_train:
            raise ValueError(
                f"knn_k={knn_k} exceeds the smallest training split ({smallest_train})"
            )
        self.dataset = dataset
        self.folds = folds
        self.knn_k = knn_k
        self.budget = budget
        self.used = used
        self.fold_mean = fold_mean
        self._splits = [
            (folds.test_indices(f), folds.train_indices(f)) for f in range(folds.k)
        ]

    @property
    def remaining_budget(self) -> int:
        return self.budget - self.used

    def spawn(self, dataset: Dataset) -> "FitnessEvaluator":
        """Evaluator over ``dataset`` continuing this one's budget.

        The rows (and therefore the folds) must be unchanged; only the
        columns may differ. Used to hand the unspent budget of a search
        phase to a continuation running on a column-reduced view.
        """
        return FitnessEvaluator(
            dataset,
            self.folds,
            knn_k=self.knn_k,
            budget=self.budget,
            used=self.used,
            fold_mean=self.fold_mean,
        )

    def evaluate(self, mask) -> float:
        """Accuracy (percent) of the classifier restricted to ``mask``.

        Charges one evaluation. Raises `BudgetExhausted` once the budget
        is spent and ValueError for an all-zero mask.
        """
        if self.used >= self.budget:
            raise BudgetExhausted(f"evaluation budget of {self.budget} already spent")
        mask = np.asarray(mask)
        if mask.shape != (self.dataset.n_features,):
            raise ValueError("mask length does not match the feature count")
        sel = np.flatnonzero(mask)
        if sel.size == 0:
            raise ValueError("mask selects no features")
        self.used += 1
        return self._accuracy(sel)

    def _accuracy(self, sel: np.ndarray) -> float:
        Xs = self.dataset.X[:, sel]
        y = self.dataset.y
        correct = 0
        per_fold = []
        for test_idx, train_idx in self._splits:
            pred = _predict(Xs[test_idx], Xs[train_idx], y[train_idx], self.knn_k)
            hits = int(np.count_nonzero(pred == y[test_idx]))
            correct += hits
            per_fold.append(hits / test_idx.size)
        if self.fold_mean:
            return 100.0 * float(np.mean(per_fold))
        return 100.0 * correct / self.dataset.n_instances
