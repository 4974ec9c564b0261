"""Brute-force K-nearest-neighbour classifier.

KNN plays a double role in the tutorial: it is both an ordinary model and the
*proxy model* that makes Shapley-based data importance tractable
(KNN-Shapley, Jia et al. [33]; Datascope [39]). The distance computation is
factored out so :mod:`repro.importance.knn_shapley` can reuse it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..base import Estimator, check_matrix, check_xy

__all__ = ["KNeighborsClassifier", "neighbor_order", "pairwise_distances"]


def _dense_distances(A: np.ndarray, B: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean":
        # (a-b)^2 = a^2 + b^2 - 2ab, clipped against FP cancellation.
        sq = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        return np.sqrt(np.clip(sq, 0.0, None))
    if metric == "manhattan":
        return np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2)
    if metric == "cosine":
        norm_a = np.linalg.norm(A, axis=1, keepdims=True)
        norm_b = np.linalg.norm(B, axis=1, keepdims=True)
        denom = np.clip(norm_a @ norm_b.T, 1e-12, None)
        return 1.0 - (A @ B.T) / denom
    raise ValueError(f"unknown metric: {metric!r}")


def pairwise_distances(
    A: np.ndarray,
    B: np.ndarray,
    metric: str = "euclidean",
    chunk_size: int | None = None,
) -> np.ndarray:
    """Dense (len(A), len(B)) distance matrix.

    With ``chunk_size`` set, rows of A are processed in blocks of that
    many, bounding the intermediate working set (the manhattan kernel's
    broadcast temporary in particular is ``len(A)·len(B)·n_features``
    floats when computed in one shot). Each row of the result is computed
    by the same kernel either way, so chunked and unchunked outputs agree
    to FP roundoff (exactly, for metrics that avoid BLAS matmul).
    """
    A = check_matrix(A)
    B = check_matrix(B)
    if chunk_size is None or chunk_size <= 0 or chunk_size >= len(A):
        return _dense_distances(A, B, metric)
    out = np.empty((len(A), len(B)))
    for start in range(0, len(A), chunk_size):
        block = slice(start, start + chunk_size)
        out[block] = _dense_distances(A[block], B, metric)
    return out


def _tied_rows(ranked: np.ndarray) -> np.ndarray:
    """Rows of an ascending matrix that hold an equal adjacent pair or a NaN."""
    # `==` also pairs -0.0 with 0.0 and inf with inf; numpy sorts NaN last.
    equal_pair = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    return equal_pair | np.isnan(ranked[:, -1:]).any(axis=1)


def neighbor_order(distances: np.ndarray, k: int | None = None) -> np.ndarray:
    """Column indices of each row's ``k`` nearest entries, nearest first.

    The result is exactly ``np.argsort(distances, axis=1,
    kind="stable")[:, :k]`` for every 2-D float input and ``k >= 0``
    (``k=None`` is the full order): nearest first, ties to the lower
    column index, NaN last. A stable sort costs several times numpy's
    default one, so the stable sort runs only on the rows where the
    answer can depend on it, the rows whose candidates hold an equal pair
    or a NaN; a row of distinct values has one sorted order, which any
    sort returns. ``tests/learn/test_neighbor_order.py`` pins the
    equality.

    - ``k == 1`` on two or more columns: ``np.argmin``, which returns the
      first of tied minima; only rows that hold a NaN take the stable sort;
    - every other ``k``: the default sort of the whole row, cut to ``k``;
      rows whose sorted values hold an equal adjacent pair or end in NaN
      take the stable sort.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 1 and distances.shape[1] > 1:
        order = np.argmin(distances, axis=1)[:, None]
        stable = np.isnan(distances).any(axis=1)
    else:
        order = np.argsort(distances, axis=1)
        stable = _tied_rows(np.take_along_axis(distances, order, axis=1))
    if stable.any():
        order[stable] = np.argsort(distances[stable], axis=1, kind="stable")[
            :, : order.shape[1]
        ]
    return order[:, :k]


class KNeighborsClassifier(Estimator):
    """Majority vote over the ``k`` nearest training points.

    Parameters
    ----------
    n_neighbors:
        Number of neighbours ``k``. Capped at the training-set size at
        prediction time, so the classifier stays usable while importance
        methods delete training points.
    metric:
        ``"euclidean"``, ``"manhattan"``, or ``"cosine"``.
    """

    def __init__(self, n_neighbors: int = 5, metric: str = "euclidean") -> None:
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = int(n_neighbors)
        self.metric = metric

    def fit(self, X: Any, y: Any) -> "KNeighborsClassifier":
        X, y = check_xy(X, y)
        self.X_ = X
        self.y_ = y
        self.classes_ = np.unique(y)
        return self

    def _neighbor_count(self, n_neighbors: int | None, n_train: int) -> int:
        """``n_neighbors`` (default ``self.n_neighbors``) capped at ``n_train``."""
        if n_neighbors is None:
            n_neighbors = self.n_neighbors
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        return min(n_neighbors, n_train)

    def kneighbors(self, X: Any, n_neighbors: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Distances and training indices of each query's nearest neighbours.

        Neighbours come nearest first; a distance tie goes to the lower
        training index and NaN distances rank last. The order is
        :func:`neighbor_order`'s, which equals a stable ``np.argsort`` of
        each distance row (``tests/learn/test_neighbor_order.py``).
        ``n_neighbors`` defaults to the constructor's and must be >= 1; it
        is capped at the training-set size.
        """
        self._require_fitted()
        k = self._neighbor_count(n_neighbors, len(self.X_))
        distances = pairwise_distances(check_matrix(X), self.X_, self.metric)
        order = neighbor_order(distances, k)
        return np.take_along_axis(distances, order, axis=1), order

    def predict_proba(self, X: Any) -> np.ndarray:
        self._require_fitted()
        __, neighbors = self.kneighbors(X)
        votes = self.y_[neighbors]
        probs = np.zeros((len(votes), len(self.classes_)))
        for j, cls in enumerate(self.classes_):
            probs[:, j] = np.mean(votes == cls, axis=1)
        return probs

    def predict(self, X: Any) -> np.ndarray:
        probs = self.predict_proba(X)
        return self.classes_[np.argmax(probs, axis=1)]
