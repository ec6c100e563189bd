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

Certified k=1 votes
-------------------
At k=1 two paths below take distances ``d~`` that may differ from the
`_sq_dists` value ``E`` in the last bits, and `_certified_vote` still
returns the vote ``E`` gives, bit for bit. For test row i, let ``a`` be
the training row of least ``d~``, ``low_i = d~_a``, and ``j`` any row of
least ``E``; each path bounds ``|d~ - E|`` at ``a`` and at every such
``j`` by an ``eps_i``. Then
``d~_j <= E_j + eps_i <= E_a + eps_i <= low_i + 2 eps_i``, so
``C_i = {j : d~_j <= low_i + 2 eps_i}`` holds every exact nearest
neighbour. If all of ``C_i`` share one label, it is ``a``'s and the vote.
Otherwise the least of the row's `_sq_dists` distances to ``C_i``
decides, the lowest index on a tie. That needs `_sq_dists` to give a
pair the same bits in a 1 x c block as in a fold's block and in its
transpose: a difference negates exactly, and up to `_GRAM_MAX` features
numpy's einsum sums a pair's products in an order set by m alone (the
property tests check this). The bounds use ``u = 2**-53`` and
``g(k) = k u / (1 - k u)``; those on sums of m terms hold in any
summation order, with or without fused multiply-adds, so they cover
BLAS's blocking (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., Lemma 3.1 and section 3.1).

Distances by the Gram identity
------------------------------
A mask of `_GRAM_MIN` to `_GRAM_MAX` features takes its cross-fold
distances from one matrix product per fold,
``d~ = s_i + s_j - 2 x_i . x_j`` with the squared row norms
``s = einsum("ij,ij->i")`` computed once per evaluation, instead of from
`_sq_dists`'s difference blocks. Let ``D`` be the exact squared distance
of rows ``x`` and ``y`` over the m features, and ``S = |x|^2 + |y|^2``
exactly, so ``D <= 2 S``.

- ``E`` rounds each difference and each square once, then sums the m
  squares: ``|E - D| <= g(m + 2) D <= 2 g(m + 2) S``.
- ``s_i``, ``s_j`` and ``x . y`` are sums of m products, off by at most
  ``g(m) |x|^2``, ``g(m) |y|^2`` and ``g(m) sum |x_k y_k| <= g(m) S / 2``.
  Scaling by -2 is exact, so ``s_i + s_j - 2 x . y`` is within ``2 g(m) S``
  of ``D``. Its two additions round results of size at most ``2 S`` and
  ``3 S`` (to first order), adding ``5 u S``.
- Together ``|d~ - E| <= (4m + 9) u S`` to first order.

The evaluator takes ``eps_i = (4m + 16) 2**-52 (s_i + max s)``, which
holds at every training row. ``max s`` bounds every training row's
``s_j``, and ``(4m + 16) 2**-52`` is about twice ``(4m + 9) u``: the
margin covers the second-order terms, ``S <= (s_i + s_j) / (1 - g(m))``
and the rounding of ``eps_i`` and of ``low_i + 2 eps_i``. A product that
underflows loses up to ``2**-1075`` absolutely, and at most 5m of them
reach one ``d~ - E``, so ``eps_i`` also adds ``(4m + 16) 2**-1074``. When
a squared norm reaches ``2**1000``, or is not finite, the distances could
overflow, and the evaluation keeps the difference blocks.

The Gram identity cancels badly when the rows sit far from the origin
relative to their spread (columns offset by 1e7, say): then most rows fall
back, which is slow but still exact. Outside `_GRAM_MIN` to `_GRAM_MAX`
features, and at ``knn_k > 1``, the difference blocks are used throughout
and `_vote` decides.

A wave of masks from a pair tensor
----------------------------------
`FitnessEvaluator.evaluate_wave` scores a swarm's wave of masks together.
At k=1 its first wave stores each cross-fold pair's squared difference in
every feature, ``T[p, k] = fl(fl(x_k - y_k)**2)`` for the pair ``p = (x, y)``,
one fold's block of pairs at a time. A wave of masks M (masks x features,
0 or 1) is then one product, ``V = M @ T.T``, and each test row's nearest
neighbour is certified as above, whatever the mask's size. The tensor is
built only when it holds at most `_TENSOR_ELEMS` values and the space at
most `_GRAM_MAX` features, and is kept only when every pair's sum over
all features is below ``2**1000``, so no sum below can overflow. That
refuses a squared difference that overflows, which would also put
``inf * 0 = NaN`` in the product. Otherwise the wave is scored by
`evaluate`, mask by mask.

For one pair and a mask of m features, let ``d_k = fl(x_k - y_k)``,
which the tensor and `_sq_dists` both compute (a difference negates
exactly), and ``Q = sum d_k**2`` exactly.

- ``E`` sums the m products ``d_k * d_k``, each rounded or fused into an
  addition: ``|E - Q| <= g(m) Q``.
- ``V`` multiplies each ``t_k = fl(d_k**2)`` by 1 or 0 exactly, and adding
  a zero is exact, so each ``t_k`` passes through at most m - 1 rounded
  additions, fused or not: ``|V - sum t_k| <= g(m - 1) sum t_k``. With
  ``|t_k - d_k**2| <= u d_k**2``, ``|V - Q| <= g(m) Q``.
- A product or square that underflows loses up to ``2**-1075``
  absolutely, and additions lose nothing there. ``E`` and ``V`` hold at
  most m such roundings each, so
  ``|V - E| <= b(Q) = 2 g(m) Q + m 2**-1074`` to first order.

At the certificate's rows ``a`` and ``j``, ``Q`` equals ``low_i`` to
first order, so ``eps_i = b(low_i) = m 2**-52 low_i + m 2**-1074`` serves
to first order. The evaluator takes
``eps_i = (2m + 8)(2**-52 low_i + 2**-1074)``: the margin covers the
second-order terms and the rounding of ``eps_i`` and of
``low_i + 2 eps_i``. The bound scales with the distance itself, not with
the rows' norms, so rows far from the origin cost nothing here. A row in
doubt is recomputed by `_sq_dists` over its mask's columns.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import Dataset, FoldAssignment

__all__ = ["BudgetExhausted", "FitnessEvaluator"]

# Cap on the element count of one broadcast distance block.
_CHUNK_ELEMS = 16_000_000

# Fewest selected features for which k=1 takes the certified Gram path. On
# Colon-shaped data (62 x 2000, 2 vCPUs, OpenBLAS) one FE cost about the same
# both ways at 44-48 features; the difference blocks are faster below.
_GRAM_MIN = 48
# Most selected features for it. Above 8192 (its iterator's buffer size),
# numpy's einsum splits a pair's sum at points set by the pair's place in
# the block, so the fallback's 1 x c blocks could not reproduce the bits.
_GRAM_MAX = 8192

# Most float64 values in a wave's pair tensor (4 MiB): 341 features at
# 62 rows in 5 folds, so the hybrid's reduced spaces fit and BPSO's
# 2000-feature space (24.6 MB) keeps the per-mask path.
_TENSOR_ELEMS = 512 * 1024


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


def _gram_dists(Xs: np.ndarray, sq: np.ndarray, lo: int, hi: int, out: np.ndarray) -> None:
    """Distances from rows lo:hi of ``Xs`` to rows hi: by the Gram identity,
    into ``out``; ``sq`` holds the squared norms of the rows of ``Xs``."""
    np.matmul(Xs[lo:hi], Xs[hi:].T, out=out)
    out *= -2.0
    out += sq[lo:hi, None]
    out += sq[None, hi:]


def _certified_vote(d2, train_y, bound, exact) -> np.ndarray:
    """Class of each test row by the k=1 vote that `_sq_dists` distances give.

    ``d2[i, j]`` approximates the distance from test row i to training row
    j, whose label is ``train_y[j]``. ``bound(low)`` gives each row's
    ``eps`` from its least value ``low`` (module docstring). A row whose
    candidate nearest neighbours disagree on the label is decided by
    ``exact(i, c)``, their `_sq_dists` distances, the lowest index winning
    a tie.
    """
    nearest = np.argmin(d2, axis=1)
    low = d2[np.arange(len(d2)), nearest]
    near = d2 <= (low + 2.0 * bound(low))[:, None]
    labels = train_y[nearest]
    for i in np.flatnonzero((near & (train_y != labels[:, None])).any(axis=1)):
        c = np.flatnonzero(near[i])
        labels[i] = train_y[c[np.argmin(exact(i, c))]]
    return labels


def _vote(d2: np.ndarray, train_y: np.ndarray, k: int) -> np.ndarray:
    """Class of each test row by k-nearest-neighbour vote over ``d2``.

    ``d2[i, j]`` is the squared distance from test row i to training row j,
    with the training rows in ascending index. Ties are deterministic: among
    equidistant rows the lower training index ranks first, and a split vote
    goes to the class of the nearest (then lowest-index) tied neighbour.
    Folds voted on certified distances go through `_certified_vote` instead.
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
        # Value `evaluate_wave` found for the mask being charged; None computes it.
        self._known = None
        # Called as (value, mask) after each charged evaluation; None calls nothing.
        self._charged = None
        # The waves' pair tensor: None until the first wave, False if refused.
        self._tensor = None

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
        value = self._accuracy(sel) if self._known is None else self._known
        if self._charged is not None:
            self._charged(value, mask)
        return value

    def evaluate_wave(self, masks) -> list:
        """`evaluate` of each row of ``masks``, charged in order; a list of floats.

        Checks every mask and the budget before charging any: a wrong-length
        or all-zero mask raises ValueError, and more masks than the budget
        has left raise `BudgetExhausted`. At ``knn_k == 1`` the values come
        from one product against a pair tensor where it fits (module
        docstring), bit-identical to `evaluate`'s. Each mask is then charged
        by calling `evaluate`, which returns the value found, so a subclass
        that overrides `evaluate` still sees every charged evaluation.
        """
        masks = np.asarray(masks)
        if masks.ndim != 2 or masks.shape[1] != self.dataset.n_features:
            raise ValueError("mask length does not match the feature count")
        if not masks.any(axis=1).all():
            raise ValueError("mask selects no features")
        if len(masks) > self.remaining_budget:
            raise BudgetExhausted(
                f"a wave of {len(masks)} evaluations exceeds the {self.remaining_budget} "
                f"left of the budget of {self.budget}"
            )
        tensor = self._pair_tensor()
        values = self._wave_values(masks != 0, *tensor) if tensor else [None] * len(masks)
        try:
            out = []
            for mask, value in zip(masks, values):
                self._known = value
                out.append(self.evaluate(mask))
            return out
        finally:
            self._known = None

    def _pair_tensor(self):
        """(T, sorted rows, per-fold pair indices) for `evaluate_wave`, or False.

        Built at the first call, one fold's block of pairs at a time: pair p
        of ``T`` holds the squared differences of two rows of different
        folds in every feature, and fold f's test row i reads its distance to
        training row j from pair ``index_f[i, j]``.
        """
        if self._tensor is not None:
            return self._tensor
        self._tensor = False
        X = self.dataset.X
        n, d = X.shape
        # pairs of each fold's test rows with the later folds' rows
        sizes = [(hi - lo) * (n - hi) for lo, hi, *_ in self._fold_rows]
        if self.knn_k > 1 or d > _GRAM_MAX or sum(sizes) * d > _TENSOR_ELEMS:
            return False
        Xo = X.take(self._order, axis=0)
        T = np.empty((sum(sizes), d))
        index = np.empty((n, n), dtype=np.intp)
        p = 0
        with np.errstate(over="ignore"):  # an overflow refuses the tensor below
            for (lo, hi, *_), size in zip(self._fold_rows, sizes):
                block = T[p : p + size].reshape(hi - lo, n - hi, d)
                np.subtract(Xo[lo:hi, None], Xo[None, hi:], out=block)
                np.square(block, out=block)
                index[lo:hi, hi:] = np.arange(p, p + size).reshape(hi - lo, n - hi)
                index[hi:, lo:hi] = index[lo:hi, hi:].T
                p += size
            top = T.sum(axis=1).max()
        if top < 2.0**1000:  # false for inf
            self._tensor = (T, Xo, [index[lo:hi].take(cols, axis=1)
                                    for lo, hi, cols, *_ in self._fold_rows])
        return self._tensor

    def _wave_values(self, masks, T, Xo, index) -> list:
        """Exact values of the 0/1 ``masks`` from the pair tensor, fold by fold."""
        w, n = len(masks), len(Xo)
        V = masks.astype(np.float64) @ T.T  # (masks, pairs)
        coef = 2.0 * masks.sum(axis=1) + 8.0
        missed = np.zeros(w, dtype=np.int64)
        per_fold = np.empty((w, len(self._fold_rows)))
        for f, (lo, hi, cols, train_y, test_y) in enumerate(self._fold_rows):
            size = hi - lo
            # row r is test row lo + r % size under mask r // size
            d2 = V.take(index[f], axis=1).reshape(w * size, cols.size)

            def bound(low):
                return np.repeat(coef, size) * (2.0**-52 * low + 2.0**-1074)

            def exact(r, c):
                sel, i = np.flatnonzero(masks[r // size]), lo + r % size
                return _sq_dists(Xo[i : i + 1, sel], Xo[np.ix_(cols[c], sel)],
                                 np.empty((1, c.size)))[0]

            pred = _certified_vote(d2, train_y, bound, exact).reshape(w, size)
            hits = np.count_nonzero(pred == test_y, axis=1)
            missed += size - hits
            per_fold[:, f] = hits / size
        return [self._score(n, int(missed[j]), per_fold[j]) for j in range(w)]

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
        gram = self.knn_k == 1 and _GRAM_MIN <= sel.size <= _GRAM_MAX
        if gram:
            sq = np.einsum("ij,ij->i", Xs, Xs)
            top = sq.max()
            gram = top < 2.0**1000  # else the distances could overflow; false for nan
            eps = (4 * sel.size + 16) * (2.0**-52 * (sq + top) + 2.0**-1074)
        missed = 0
        # A fold not yet voted on scores 1.0 (every row right), so `_score`
        # bounds the value from above and equals it after the last fold.
        per_fold = np.ones(k)
        for f, (lo, hi, cols, train_y, test_y) in enumerate(self._fold_rows):
            d2[lo:hi, :lo] = d2[:lo, lo:hi].T
            if hi < n and gram:
                _gram_dists(Xs, sq, lo, hi, d2[lo:hi, hi:])
            elif hi < n:
                _sq_dists(Xs[lo:hi], Xs[hi:], d2[lo:hi, hi:])
            block = d2[lo:hi].take(cols, axis=1)
            if gram:
                pred = _certified_vote(block, train_y, lambda low: eps[lo:hi], lambda i, c: (
                    _sq_dists(Xs[lo + i : lo + i + 1], Xs[cols[c]], np.empty((1, c.size)))[0]))
            else:
                pred = _vote(block, train_y, self.knn_k)
            hits = int(np.count_nonzero(pred == test_y))
            missed += test_y.size - hits
            per_fold[f] = hits / test_y.size
            if self._score(n, missed, per_fold) < self._at_least:
                return -math.inf
        return self._score(n, missed, per_fold)
