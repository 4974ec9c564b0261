"""Utility games over training subsets.

Game-theoretic importance methods (LOO, Shapley, Banzhaf, Beta-Shapley) all
measure the same object: a *utility function* ``v(S)`` that maps a subset S
of training points to the downstream quality of a model trained on S. This
module provides that function with consistent handling of the degenerate
subsets (empty, single-class) that subset-sampling inevitably produces.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..learn.base import Estimator, clone
from ..learn.metrics import accuracy

__all__ = ["Utility", "SubsetUtility"]


class Utility:
    """``v(S)`` = metric of ``model`` trained on subset S, on validation data.

    Parameters
    ----------
    model:
        Unfitted estimator prototype; cloned for every evaluation.
    x_train, y_train:
        The full training pool that subsets index into.
    x_valid, y_valid:
        Held-out data on which the metric is computed.
    metric:
        ``metric(y_true, y_pred) -> float``; defaults to accuracy. For
        fairness games pass a closure over the group attribute.
    null_score:
        Value of ``v(∅)``. Defaults to the accuracy of always predicting the
        majority *validation* class — the natural "no training data" model.
    """

    def __init__(
        self,
        model: Estimator,
        x_train: Any,
        y_train: Any,
        x_valid: Any,
        y_valid: Any,
        metric: Callable[[np.ndarray, np.ndarray], float] = accuracy,
        null_score: float | None = None,
    ) -> None:
        self.model = model
        self.x_train = np.asarray(x_train, dtype=float)
        self.y_train = np.asarray(y_train)
        self.x_valid = np.asarray(x_valid, dtype=float)
        self.y_valid = np.asarray(y_valid)
        if len(self.x_train) != len(self.y_train):
            raise ValueError("x_train and y_train must have equal length")
        if len(self.x_valid) != len(self.y_valid):
            raise ValueError("x_valid and y_valid must have equal length")
        self.metric = metric
        if null_score is None:
            values, counts = np.unique(self.y_valid, return_counts=True)
            majority = values[np.argmax(counts)]
            constant = np.repeat(np.asarray([majority]), len(self.y_valid))
            null_score = float(metric(self.y_valid, constant))
        self.null_score = float(null_score)
        self.n_evaluations = 0

    @property
    def n_train(self) -> int:
        return len(self.y_train)

    def evaluate(self, indices: Sequence[int]) -> float:
        """``v(S)`` for S given as training positions."""
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return self.null_score
        ys = self.y_train[idx]
        if (ys == ys[0]).all():
            # Single-class subset: the model degenerates to a constant
            # predictor of that class. No model is retrained, but the metric
            # *is* evaluated, so it counts toward ``n_evaluations`` (only the
            # empty subset, answered from the cached null score, is free).
            self.n_evaluations += 1
            constant = np.repeat(ys[:1], len(self.y_valid))
            return float(self.metric(self.y_valid, constant))
        self.n_evaluations += 1
        fitted = clone(self.model).fit(self.x_train[idx], ys)
        predictions = fitted.predict(self.x_valid)
        return float(self.metric(self.y_valid, predictions))

    def full_score(self) -> float:
        """``v(N)`` — utility of the entire training pool."""
        return self.evaluate(np.arange(self.n_train))


class SubsetUtility:
    """Adapter exposing an arbitrary ``v(indices)`` callable as a utility.

    Lets the game-theoretic estimators run over non-model games (used in
    tests against hand-constructed games with known Shapley values).
    """

    def __init__(self, func: Callable[[Sequence[int]], float], n_train: int) -> None:
        self.func = func
        self._n = int(n_train)
        self.n_evaluations = 0

    @property
    def n_train(self) -> int:
        return self._n

    def evaluate(self, indices: Sequence[int]) -> float:
        self.n_evaluations += 1
        return float(self.func(list(indices)))

    def full_score(self) -> float:
        return self.evaluate(list(range(self._n)))

    @property
    def null_score(self) -> float:
        return float(self.func([]))
