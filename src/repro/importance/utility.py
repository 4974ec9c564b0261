"""Utility games over training subsets.

Game-theoretic importance methods (LOO, Shapley, Banzhaf, Beta-Shapley) all
measure the same object: a *utility function* ``v(S)`` that maps a subset S
of training points to the downstream quality of a model trained on S. This
module provides that function with consistent handling of the degenerate
subsets (empty, single-class) that subset-sampling inevitably produces.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Callable, Sequence

import numpy as np

from ..learn.base import Estimator, check_matrix, clone
from ..learn.metrics import accuracy
from ..learn.models.logistic import (
    LogisticRegression,
    SignedDesign,
    binary_newton,
    two_class_margins,
)

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
        """``v(S)`` for S given as training positions.

        Where :func:`batch_evaluator` accepts the utility, this is the
        batch of one, so a subset's value is the same however it is
        reached (and a position that S repeats counts once); otherwise a
        clone of ``model`` is fitted on S.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if len(idx) == 0:
            return self.null_score
        if batch_evaluator(self) is not None:
            masks = np.zeros((1, self.n_train), dtype=bool)
            masks[0, idx] = True
            return self._evaluate_masks(masks)[0]
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

    def _evaluate_batch(self, keys: Sequence[tuple[int, ...]]) -> list[float]:
        """``v(S)`` for many subsets given as sorted index tuples, fitted in
        one kernel call (see :meth:`_evaluate_masks`)."""
        sizes = [len(key) for key in keys]
        masks = np.zeros((len(keys), self.n_train), dtype=bool)
        masks[
            np.arange(len(keys)).repeat(sizes),
            np.fromiter(chain.from_iterable(keys), np.int64, sum(sizes)),
        ] = True
        return self._evaluate_masks(masks)

    def _evaluate_masks(self, masks: np.ndarray) -> list[float]:
        """``v(S)`` for the subsets ``masks`` selects.

        What :meth:`evaluate` computes, subset by subset: the empty subset
        is ``null_score``, a single-class subset scores its constant
        predictor, and the others share one
        :func:`~repro.learn.models.logistic.binary_newton` call over row
        masks of the whole training matrix, with no estimator object per
        subset. Each non-empty subset counts toward ``n_evaluations``.
        Only reached where :func:`batch_evaluator` accepts the utility.
        """
        design, positive, x_valid = self._design
        size = masks.sum(1)
        n_positive = (masks & positive).sum(1)
        mixed = (n_positive > 0) & (n_positive < size)
        self.n_evaluations += int(np.count_nonzero(size))
        values = [self.null_score] * len(masks)
        for b in (~mixed & (size > 0)).nonzero()[0]:
            label = self._classes[int(n_positive[b] > 0)]
            constant = np.repeat(label, len(self.y_valid))
            values[b] = float(self.metric(self.y_valid, constant))
        if mixed.any():
            fitted = mixed.nonzero()[0]
            model = self.model
            halves = 0.5 * binary_newton(
                design, masks[fitted], model.l2, model.max_iter
            )
            predictions = self._classes[
                (two_class_margins(x_valid, halves) > 0).astype(int)
            ]
            for b, predicted in zip(fitted.tolist(), predictions):
                values[b] = float(self.metric(self.y_valid, predicted))
        return values

    @property
    def _design(self) -> tuple[SignedDesign, np.ndarray, np.ndarray]:
        """The training matrix as one two-class design, its second-class
        rows and the validation matrix, built on first use."""
        cached = self.__dict__.get("_design_cache")
        if cached is None:
            positive = self.y_train == self._classes[1]
            cached = self._design_cache = (
                SignedDesign(check_matrix(self.x_train), positive),
                positive,
                np.ascontiguousarray(check_matrix(self.x_valid)),
            )
        return cached


def batch_evaluator(
    utility: Any,
) -> Callable[[Sequence[tuple[int, ...]]], list[float]] | None:
    """``utility``'s evaluator of many subsets in one kernel call, or None.

    Only a plain :class:`Utility`, ``evaluate`` not overridden, whose model
    is a :class:`~repro.learn.LogisticRegression` with ``fit`` and
    ``predict`` not overridden, on two-class labels, fits in batches. Every
    other utility (a :class:`SubsetUtility`, a subclass, another model,
    three or more classes) goes one subset at a time through ``evaluate``.
    """
    if not isinstance(utility, Utility) or type(utility).evaluate is not Utility.evaluate:
        return None
    model, model_type = utility.model, type(utility.model)
    if not (
        isinstance(model, LogisticRegression)
        and model_type.fit is LogisticRegression.fit
        and model_type.predict is LogisticRegression.predict
    ):
        return None
    classes = utility.__dict__.get("_classes")
    if classes is None:
        classes = utility._classes = np.unique(utility.y_train)
    return utility._evaluate_batch if len(classes) == 2 else None


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
