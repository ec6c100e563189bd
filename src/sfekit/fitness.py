"""Wrapper fitness: k-NN accuracy under stratified cross-validation.

The evaluator charges one unit of a hard evaluation budget per fitness
call. Search algorithms own the budget through this class; evaluating past
the budget is an error, never a silent clamp.

Each cross-fold distance is computed once per evaluation, fold by fold:
with the rows sorted by fold, fold f computes its distances to the rows
of the later folds only, and takes those to the earlier folds as the
transposes of the blocks they computed. The per-evaluation buffer is one
n x n float64 matrix (31 KB at 62 rows, 320 KB at 200).

A search that reads only whether a candidate reaches a threshold asks
`FitnessEvaluator.evaluate_at_least`. After each fold, the value's own
expression scores the evaluation with every remaining test row right, and
it returns -inf once that exact bound falls below the threshold, so later
folds' distances are never computed. It is still charged one evaluation.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, FoldAssignment

__all__ = ["BudgetExhausted", "FitnessEvaluator"]

# Cap on the element count of one broadcast distance block.
_CHUNK_ELEMS = 16_000_000


class BudgetExhausted(RuntimeError):
    """Raised when a fitness evaluation is requested past the budget."""


def _sq_dists(A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, written into ``out`` and returned.

    ``out`` is a (len(A), len(B)) array or view. Computed by direct
    differencing rather than the expanded dot-product identity: equal rows
    must give exactly 0.0 so that tie-breaking between equidistant
    neighbours is reproducible.
    """
    step = max(1, _CHUNK_ELEMS // max(1, B.size))
    for s in range(0, len(A), step):
        block = A[s : s + step, None, :] - B[None, :, :]
        np.einsum("ijk,ijk->ij", block, block, out=out[s : s + step])
        del block  # freed before the next chunk's block is allocated
    return out


def _vote(d2: np.ndarray, train_y: np.ndarray, k: int) -> np.ndarray:
    """Class of each test row by k-nearest-neighbour vote over ``d2``.

    ``d2[i, j]`` is the squared distance from test row i to training row j,
    with the training rows in ascending index. Ties are deterministic: among
    equidistant rows the lower training index ranks first, and a split vote
    goes to the class of the nearest (then lowest-index) tied neighbour.
    """
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
        sizes = np.bincount(folds.fold_of_instance, minlength=folds.k)
        smallest_train = dataset.n_instances - int(sizes.max())
        if knn_k > smallest_train:
            raise ValueError(
                f"knn_k={knn_k} exceeds the smallest training split ({smallest_train})"
            )
        if not sizes.all():
            f = int(np.argmin(sizes))  # the first empty fold
            raise ValueError(f"fold {f} of {folds.k} has no test instances")
        # Rows sorted by fold, stably, so fold f's test rows are the slice
        # lo:hi. Its training rows stay in ascending index (as positions in
        # the sorted rows), which keeps the vote's lowest-index tie rule.
        order = np.argsort(folds.fold_of_instance, kind="stable")
        edges = np.concatenate(([0], np.cumsum(sizes))).tolist()
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        y = dataset.y
        self._fold_rows = []
        for f, (lo, hi) in enumerate(zip(edges, edges[1:])):
            train = folds.train_indices(f)
            self._fold_rows.append((lo, hi, position[train], y[train], y[order[lo:hi]]))
        self.dataset = dataset
        self.folds = folds
        self.knn_k = knn_k
        self.budget = budget
        self.used = used
        self.fold_mean = fold_mean
        self._order = order
        # Threshold of the `evaluate_at_least` in progress; -inf abandons nothing.
        self._at_least = -math.inf

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

    def evaluate_at_least(self, mask, at_least: float) -> float:
        """`evaluate`, for a caller that needs only values of at least ``at_least``.

        Returns exactly ``evaluate(mask)`` when that is >= ``at_least`` and
        -inf otherwise. The cross-validation stops after the first fold at
        which even a perfect score on the remaining folds would stay
        strictly below ``at_least``. Charges one evaluation and checks the
        mask just as `evaluate` does, by calling it, so a subclass that
        overrides `evaluate` still sees every charged evaluation.
        """
        self._at_least = at_least
        try:
            return self.evaluate(mask)
        finally:
            self._at_least = -math.inf

    def _score(self, n: int, missed: int, per_fold: np.ndarray) -> float:
        """Value with ``missed`` of ``n`` rows wrong and fold scores ``per_fold``."""
        if self.fold_mean:
            # np.mean's own sum and division, without its per-call overhead
            return 100.0 * float(per_fold.sum() / per_fold.size)
        return 100.0 * (n - missed) / n

    def _accuracy(self, sel: np.ndarray) -> float:
        # Each fold votes before the next computes anything, so an abandoned
        # evaluation never computes the later folds' distances.
        Xs = self.dataset.X.take(sel, axis=1).take(self._order, axis=0)
        n, k = Xs.shape[0], len(self._fold_rows)
        d2 = np.empty((n, n))
        missed = 0
        # A fold not yet voted on scores 1.0 (every row right), so `_score`
        # bounds the value from above and equals it after the last fold.
        per_fold = np.ones(k)
        for f, (lo, hi, cols, train_y, test_y) in enumerate(self._fold_rows):
            d2[lo:hi, :lo] = d2[:lo, lo:hi].T
            if hi < n:
                _sq_dists(Xs[lo:hi], Xs[hi:], d2[lo:hi, hi:])
            pred = _vote(d2[lo:hi].take(cols, axis=1), train_y, self.knn_k)
            hits = int(np.count_nonzero(pred == test_y))
            missed += test_y.size - hits
            per_fold[f] = hits / test_y.size
            if self._score(n, missed, per_fold) < self._at_least:
                return -math.inf
        return self._score(n, missed, per_fold)
