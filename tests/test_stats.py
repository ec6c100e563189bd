import math

import numpy as np
import pytest
import scipy.stats

from sfekit import Mark, friedman_mean_ranks, wilcoxon_ranksum
from sfekit.stats import _midranks

from util import oracle_exact_p


# ------------------------------------------------------------- rank-sum p

def test_midranks_match_scipy_rankdata():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.integers(0, 6, size=rng.integers(2, 25)).astype(float)
        assert np.array_equal(_midranks(v), scipy.stats.rankdata(v))


def test_exact_p_on_fully_separated_triples():
    p, mark = wilcoxon_ranksum([1, 2, 3], [10, 11, 12], method="exact")
    assert p == pytest.approx(0.1, abs=1e-15)
    assert mark is Mark.APPROX  # 0.1 is not significant at the default 0.05
    p2, mark2 = wilcoxon_ranksum([1, 2, 3], [10, 11, 12], alpha=0.2, method="exact")
    assert p2 == p
    assert mark2 is Mark.MINUS


def test_exact_p_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        if rng.random() < 0.5:
            a = rng.integers(0, 4, size=n1).astype(float)  # heavy ties
            b = rng.integers(0, 4, size=n2).astype(float)
        else:
            a = rng.normal(size=n1)
            b = rng.normal(size=n2)
        p, _ = wilcoxon_ranksum(a, b, method="exact")
        assert p == pytest.approx(oracle_exact_p(a, b), abs=1e-12)


def test_normal_p_matches_scipy_asymptotic():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n1 = int(rng.integers(2, 31))
        n2 = int(rng.integers(2, 31))
        if rng.random() < 0.5:
            a = rng.integers(0, 5, size=n1).astype(float)
            b = rng.integers(0, 5, size=n2).astype(float)
        else:
            a = rng.normal(size=n1)
            b = rng.normal(size=n2)
        if np.all(np.concatenate([a, b]) == a[0]):
            continue
        ref = scipy.stats.mannwhitneyu(
            a, b, alternative="two-sided", method="asymptotic", use_continuity=True
        ).pvalue
        p, _ = wilcoxon_ranksum(a, b)
        assert p == pytest.approx(min(1.0, ref), abs=1e-9)


def test_normal_p_on_separated_triples():
    ref = scipy.stats.mannwhitneyu(
        [1, 2, 3], [10, 11, 12], alternative="two-sided",
        method="asymptotic", use_continuity=True,
    ).pvalue
    p, _ = wilcoxon_ranksum([1, 2, 3], [10, 11, 12])
    assert p == pytest.approx(ref, abs=1e-12)
    assert 0.07 < p < 0.09


def test_degenerate_identical_samples():
    for method in ("normal", "exact"):
        p, mark = wilcoxon_ranksum([5.0, 5.0, 5.0], [5.0, 5.0], method=method)
        assert p == 1.0
        assert mark is Mark.APPROX


def test_swap_symmetry_and_mark_flip():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a = rng.normal(size=int(rng.integers(2, 12)))
        b = rng.normal(1.0, size=int(rng.integers(2, 12)))
        p_ab, m_ab = wilcoxon_ranksum(a, b, alpha=0.5)
        p_ba, m_ba = wilcoxon_ranksum(b, a, alpha=0.5)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)
        flip = {Mark.PLUS: Mark.MINUS, Mark.MINUS: Mark.PLUS, Mark.APPROX: Mark.APPROX}
        assert m_ba is flip[m_ab]


def test_clear_win_is_plus():
    rng = np.random.default_rng(4)
    a = 90 + rng.random(30)
    b = 70 + rng.random(30)
    p, mark = wilcoxon_ranksum(a, b)
    assert p < 1e-6
    assert mark is Mark.PLUS


def test_mark_falls_back_to_rank_sum_on_equal_means():
    # means tie at 4.0 but the rank sum favours b
    p, mark = wilcoxon_ranksum([1, 1, 10], [2, 3, 7], alpha=0.99)
    assert p < 0.99
    assert mark is Mark.MINUS


def test_ranksum_validation():
    with pytest.raises(ValueError, match="at least 2"):
        wilcoxon_ranksum([1.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="finite"):
        wilcoxon_ranksum([1.0, math.nan], [2.0, 3.0])
    with pytest.raises(ValueError, match="alpha"):
        wilcoxon_ranksum([1.0, 2.0], [2.0, 3.0], alpha=1.0)
    with pytest.raises(ValueError, match="method"):
        wilcoxon_ranksum([1.0, 2.0], [2.0, 3.0], method="bootstrap")


def test_mark_strings():
    assert str(Mark.PLUS) == "+"
    assert str(Mark.MINUS) == "-"
    assert str(Mark.APPROX) == "~"


# ---------------------------------------------------------- friedman ranks

def test_friedman_no_ties():
    table = [[90, 80, 70, 60],
             [85, 95, 75, 65],
             [70, 90, 80, 60]]
    means = friedman_mean_ranks(table)
    assert means == pytest.approx([2.0, 4 / 3, 8 / 3, 4.0], abs=1e-12)


def test_friedman_with_ties():
    table = [[50, 50, 40, 30],
             [60, 60, 60, 60],
             [10, 20, 20, 30]]
    means = friedman_mean_ranks(table)
    assert means == pytest.approx([8 / 3, 6.5 / 3, 8 / 3, 2.5], abs=1e-12)


def test_friedman_lower_is_better():
    table = [[5, 10, 15, 20],
             [8, 6, 7, 9],
             [3, 3, 3, 4]]
    means = friedman_mean_ranks(table, higher_better=False)
    assert means == pytest.approx([2.0, 5 / 3, 7 / 3, 4.0], abs=1e-12)


def test_friedman_mean_ranks_sum_to_constant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(2, 7))
        table = rng.integers(0, 5, size=(rows, cols)).astype(float)
        means = friedman_mean_ranks(table)
        assert means.sum() == pytest.approx(cols * (cols + 1) / 2, abs=1e-9)


def test_friedman_validation():
    with pytest.raises(ValueError, match="2-D"):
        friedman_mean_ranks([1.0, 2.0])
    with pytest.raises(ValueError, match="two algorithms"):
        friedman_mean_ranks([[1.0], [2.0]])
    with pytest.raises(ValueError, match="non-finite"):
        friedman_mean_ranks([[1.0, math.nan]])
    with pytest.raises(ValueError, match="one dataset"):
        friedman_mean_ranks(np.empty((0, 3)))
