"""Exact closed-form KNN-Shapley (Jia et al. [33]).

The Shapley value is exponential to compute for a general model, but for the
K-nearest-neighbour utility it collapses to an exact O(n log n) recursion
per test point. This is the tutorial's flagship "proxy model" trick: compute
importance under KNN, use the ranking to debug data feeding *any* model.

Utility convention (matching Jia et al.): for a test point ``(x, y)`` and a
training subset S, ``v(S) = (1/K) · Σ_{k ≤ min(K, |S|)} 1[y_{α_k(S)} = y]``
where ``α_k(S)`` is the k-th nearest neighbour of x within S, and v(∅) = 0.
The recursion (their Theorem 1), with points sorted by distance to x
(1-indexed; α_i = i-th nearest in the *full* training set):

    s_{α_n} = 1[y_{α_n} = y] / n
    s_{α_i} = s_{α_{i+1}} + (1[y_{α_i} = y] − 1[y_{α_{i+1}} = y]) / K
                            · min(K, i) / i
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..learn.models.knn import neighbor_order, pairwise_distances
from ..obs import trace as _obs
from .base import ImportanceResult

__all__ = ["knn_shapley", "knn_utility", "knn_shapley_brute_force"]


def _single_test_shapley(
    sorted_labels: np.ndarray, test_label: Any, k: int
) -> np.ndarray:
    """Reference scalar recursion for one test point (distance-sorted order).

    :func:`knn_shapley` uses a vectorised formulation of the same recursion;
    this function is kept as the readable specification and as the oracle
    the equivalence tests compare against.

    The base case carries a ``min(K, n)/K`` factor: Jia et al. state the
    recursion for n ≥ K where it reduces to ``match/n``, but for n < K the
    grand coalition's utility is only ``(Σ match)/K``, and the generalised
    base case keeps the efficiency axiom exact (verified against brute
    force in the tests).
    """
    n = len(sorted_labels)
    match = (sorted_labels == test_label).astype(float)
    s = np.empty(n)
    s[n - 1] = match[n - 1] / n * min(k, n) / k
    for i in range(n - 2, -1, -1):  # i is 0-based; formula's i is i+1
        rank = i + 1
        s[i] = s[i + 1] + (match[i] - match[i + 1]) / k * min(k, rank) / rank
    return s


def knn_shapley(
    x_train: Any,
    y_train: Any,
    x_valid: Any,
    y_valid: Any,
    k: int = 5,
    metric: str = "euclidean",
    block_size: int = 1024,
) -> ImportanceResult:
    """Exact Data-Shapley values under the KNN utility, averaged over the
    validation set.

    Returns one value per training point; the values of each test point sum
    to its utility ``v(N)`` exactly (the efficiency axiom), so the returned
    averages sum to the mean validation KNN utility.

    Validation points are processed in blocks of ``block_size``, so the
    train×valid distance matrix is streamed in fixed-size slabs instead of
    materialised whole — memory stays O(block_size · n_train) however many
    validation points there are. Blocking does not change the result: each
    validation row's contribution is computed identically and accumulated
    in the same order.

    Each validation row orders the training points with
    :func:`~repro.learn.models.knn.neighbor_order`: nearest first, a
    distance tie to the lower training index. Labels must be hashable;
    they match exactly where ``y_train[j] == y_valid[t]`` holds.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_valid = np.asarray(x_valid, dtype=float)
    y_valid = np.asarray(y_valid)
    if len(x_train) != len(y_train):
        raise ValueError("x_train and y_train must have equal length")
    if len(x_valid) != len(y_valid):
        raise ValueError("x_valid and y_valid must have equal length")
    if len(y_train) == 0:
        raise ValueError("training set is empty")
    if len(y_valid) == 0:
        raise ValueError("validation set is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    n = len(y_train)
    ranks = np.arange(1, n + 1, dtype=float)
    coeff = np.minimum(k, ranks) / (k * ranks)  # c_i for i = 1..n
    # Integer label codes, built once: training labels equal as Python
    # values share a code, and hit[r, c] below is numpy's `==` of code c's
    # label against validation label r. So hit[r, codes[j]] equals
    # `y_train[j] == y_valid[r]` for every label dtype, NaN and numpy's
    # type promotions included.
    first_of: dict[Any, int] = {}
    first_index = np.fromiter(
        (first_of.setdefault(label, j) for j, label in enumerate(y_train.tolist())),
        dtype=np.intp,
        count=n,
    )
    firsts, codes = np.unique(first_index, return_inverse=True)
    code_labels = y_train[firsts]
    values = np.zeros(n)
    with _obs.span(
        "importance.knn_shapley",
        n_train=n,
        n_valid=len(y_valid),
        k=k,
        block_size=block_size,
    ):
        for start in range(0, len(y_valid), block_size):
            block = slice(start, start + block_size)
            # Vectorised recursion over the block's validation points: for each
            # row, s_i = s_{i+1} + (match_i − match_{i+1}) · c_i with
            # c_i = min(K, rank_i) / (K · rank_i), i.e. a reversed cumulative
            # sum of the weighted match differences plus the base case.
            # Each (block, n) temporary is freed or reused as soon as it is
            # spent, so a block holds at most four of them at once.
            order = neighbor_order(
                pairwise_distances(x_valid[block], x_train, metric=metric)
            )
            hit = (code_labels[None, :] == y_valid[block][:, None]).astype(float)
            match = np.take_along_axis(hit, codes[order], axis=1)
            base = match[:, -1] / n * min(k, n) / k
            diffs = match[:, :-1] - match[:, 1:]
            diffs *= coeff[:-1]  # term in s_i
            s = np.empty_like(match)
            s[:, -1] = base
            # s_i = base + Σ_{j ≥ i} diffs_j  → reversed cumulative sum.
            np.cumsum(diffs[:, ::-1], axis=1, out=s[:, -2::-1])
            del diffs
            s[:, :-1] += base[:, None]
            # Back to training order in match's buffer, then one row at a
            # time: each value gets the block's terms in the order
            # `np.add.at(values, order, s)` adds them, so the sums are
            # bit-identical to it.
            np.put_along_axis(match, order, s, axis=1)
            for row in match:
                values += row
        values /= len(y_valid)
    return ImportanceResult(
        method=f"knn_shapley(k={k})",
        values=values,
        extras={
            "k": k,
            "metric": metric,
            "n_valid": len(y_valid),
            "block_size": block_size,
        },
    )


def knn_utility(
    subset: np.ndarray,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> float:
    """The exact utility ``v(S)`` the closed form is the Shapley value of.

    Used by tests to cross-check :func:`knn_shapley` against brute-force
    enumeration over the same game.
    """
    subset = np.asarray(subset, dtype=np.int64)
    if len(subset) == 0:
        return 0.0
    distances = pairwise_distances(x_valid, x_train[subset], metric=metric)
    total = 0.0
    for t in range(len(y_valid)):
        order = np.argsort(distances[t], kind="stable")[: min(k, len(subset))]
        total += float(np.sum(y_train[subset][order] == y_valid[t])) / k
    return total / len(y_valid)


def knn_shapley_brute_force(
    x_train: Any,
    y_train: Any,
    x_valid: Any,
    y_valid: Any,
    k: int = 1,
    metric: str = "euclidean",
) -> ImportanceResult:
    """Shapley values of the KNN game by subset enumeration (n ≤ 12; tests only)."""
    from math import comb

    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_valid = np.asarray(x_valid, dtype=float)
    y_valid = np.asarray(y_valid)
    n = len(y_train)
    if n > 12:
        raise ValueError(f"brute force infeasible for n={n}")
    cache: dict[int, float] = {}

    def value(bits: int) -> float:
        if bits not in cache:
            subset = np.asarray([i for i in range(n) if bits >> i & 1], dtype=np.int64)
            cache[bits] = knn_utility(subset, x_train, y_train, x_valid, y_valid, k, metric)
        return cache[bits]

    values = np.zeros(n)
    for i in range(n):
        for bits in range(2**n):
            if bits >> i & 1:
                continue
            size = bin(bits).count("1")
            weight = 1.0 / (n * comb(n - 1, size))
            values[i] += weight * (value(bits | (1 << i)) - value(bits))
    return ImportanceResult(method=f"knn_shapley_bf(k={k})", values=values)
