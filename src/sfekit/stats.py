"""Nonparametric comparison statistics for benchmark result tables.

Wilcoxon rank-sum for per-dataset pairwise comparisons and Friedman mean
ranks for the cross-dataset summary. The rank-sum p-value uses the normal
approximation with midranks, tie correction and continuity correction;
an exact enumeration mode exists for small samples and for testing the
approximation against ground truth.
"""

from __future__ import annotations

import enum
import itertools
import math

import numpy as np

__all__ = ["Mark", "wilcoxon_ranksum", "friedman_mean_ranks"]


class Mark(enum.Enum):
    """Outcome of a significance comparison at level alpha.

    PLUS: the first sample is significantly better (higher values);
    MINUS: significantly worse; APPROX: no significant difference.
    """

    PLUS = "+"
    MINUS = "-"
    APPROX = "~"

    def __str__(self):
        return self.value


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    _, inverse, counts = np.unique(
        np.asarray(values, dtype=np.float64), return_inverse=True, return_counts=True
    )
    # a group of c ties ending at rank e holds ranks e-c+1..e, mean e-(c-1)/2
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]


def _normal_p(w: float, n1: int, n2: int, pooled: np.ndarray) -> float:
    n = n1 + n2
    mean = n1 * (n + 1) / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    ties = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    diff = w - mean
    if diff == 0.0:
        return 1.0
    z = (diff - math.copysign(0.5, diff)) / math.sqrt(var)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))


def _exact_p(w: float, n1: int, pooled_ranks: np.ndarray) -> float:
    n = pooled_ranks.size
    total = math.comb(n, n1)
    at_most = 0
    at_least = 0
    # Midranks are multiples of 0.5, so the subset sums are exact floats
    # and direct comparison is safe.
    for combo in itertools.combinations(range(n), n1):
        t = pooled_ranks[list(combo)].sum()
        if t <= w:
            at_most += 1
        if t >= w:
            at_least += 1
    return min(1.0, 2.0 * min(at_most, at_least) / total)


def wilcoxon_ranksum(a, b, alpha: float = 0.05, method: str = "normal"):
    """Two-sided rank-sum comparison of two independent samples.

    Parameters
    ----------
    a, b : array-like
        Result samples; ``a`` is the reference side, so a PLUS mark means
        ``a`` is significantly better at level ``alpha``.
    alpha : float
        Significance level for the mark.
    method : str
        "normal" (default) for the tie- and continuity-corrected normal
        approximation, appropriate at the usual 30-run sample sizes;
        "exact" enumerates the full permutation distribution and is only
        tractable for small samples.

    Returns
    -------
    (p, mark) : float and `Mark`
        When every pooled value is identical the comparison degenerates
        to p=1 and APPROX.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least 2 values")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("samples must be finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if method not in ("normal", "exact"):
        raise ValueError(f"unknown method {method!r}")

    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    w = float(ranks[: a.size].sum())

    if np.all(pooled == pooled[0]):
        return 1.0, Mark.APPROX

    if method == "exact":
        p = _exact_p(w, a.size, ranks)
    else:
        p = _normal_p(w, a.size, b.size, pooled)

    if p >= alpha:
        return p, Mark.APPROX
    favour = float(a.mean() - b.mean())
    if favour == 0.0:
        favour = w - a.size * (pooled.size + 1) / 2.0
    return p, (Mark.PLUS if favour > 0 else Mark.MINUS)


def friedman_mean_ranks(table, higher_better: bool = True) -> np.ndarray:
    """Mean Friedman rank of each algorithm across datasets.

    ``table`` has one row per dataset and one column per algorithm. Within
    each row the best value gets rank 1 (the largest value if
    ``higher_better``, else the smallest) and ties share midranks; the
    result is the column mean, so it always sums to m(m+1)/2 for m
    algorithms. No test statistic or p-value is derived, mean ranks are
    reported as-is.
    """
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2:
        raise ValueError("table must be 2-D: datasets x algorithms")
    if t.shape[1] < 2:
        raise ValueError("need at least two algorithms to rank")
    if t.shape[0] < 1:
        raise ValueError("need at least one dataset row")
    if not np.all(np.isfinite(t)):
        raise ValueError("table has missing or non-finite cells")
    ranks = np.empty_like(t)
    for i in range(t.shape[0]):
        row = -t[i] if higher_better else t[i]
        ranks[i] = _midranks(row)
    return ranks.mean(axis=0)
