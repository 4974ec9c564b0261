"""Low-latency machine unlearning.

Section 2.4 of the paper highlights the link between data debugging and
machine unlearning [17, 75]: debugging techniques repeatedly *remove* points
from a model, and regulation (GDPR/CCPA deletion requests) demands that
removal be fast. This module provides two unlearning strategies:

- :class:`RemovalAwareKNN` — exact O(1) deletion for KNN (the model *is*
  the data, so forgetting is masking; the HedgeCut idea of maintaining a
  deletion-ready structure, in its simplest instance);
- :func:`newton_unlearn` — approximate one-shot unlearning for logistic
  regression via a single Newton step on the reduced objective, with the
  gradient-norm residual reported as a quality certificate and automatic
  fall-back to full retraining when the certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..importance.influence import _hessian, per_sample_gradients
from ..learn.base import check_matrix, clone
from ..learn.models.knn import (
    KNeighborsClassifier,
    neighbor_order,
    pairwise_distances,
)
from ..learn.models.logistic import LogisticRegression

__all__ = ["RemovalAwareKNN", "UnlearningReport", "newton_unlearn"]


class RemovalAwareKNN(KNeighborsClassifier):
    """KNN with constant-time forgetting.

    ``forget(positions)`` masks training points out of the neighbour search
    without copying the dataset; the prediction afterwards is *exactly* the
    prediction of a KNN retrained without those points.
    """

    def fit(self, X: Any, y: Any) -> "RemovalAwareKNN":
        super().fit(X, y)
        self.active_ = np.ones(len(self.y_), dtype=bool)
        return self

    @property
    def n_active(self) -> int:
        return int(self.active_.sum())

    def forget(self, positions: Iterable[int]) -> "RemovalAwareKNN":
        """Remove training points by original position (idempotent)."""
        self._require_fitted()
        positions = np.asarray(list(positions), dtype=np.int64)
        self.active_[positions] = False
        if not self.active_.any():
            raise ValueError("cannot forget the entire training set")
        return self

    def kneighbors(self, X: Any, n_neighbors: int | None = None):
        self._require_fitted()
        active_idx = np.flatnonzero(self.active_)
        k = self._neighbor_count(n_neighbors, len(active_idx))
        distances = pairwise_distances(check_matrix(X), self.X_[active_idx], self.metric)
        order = neighbor_order(distances, k)
        return np.take_along_axis(distances, order, axis=1), active_idx[order]


@dataclass
class UnlearningReport:
    """Outcome of an unlearning request."""

    method: str  # "newton" or "retrain"
    residual_norm: float  # ‖∇L_remaining(θ')‖ — 0 means exact optimum
    n_removed: int
    certified: bool


def newton_unlearn(
    model: LogisticRegression,
    X: Any,
    y: Any,
    remove_positions: Iterable[int],
    tolerance: float = 1e-3,
    damping: float = 1e-4,
) -> tuple[LogisticRegression, UnlearningReport]:
    """One-shot approximate unlearning for logistic regression.

    Takes a model fitted on (X, y) and a set of points to forget. Performs a
    single Newton step of the *remaining-data* objective starting from the
    current parameters:

        θ' = θ − H_remaining(θ)⁻¹ · ∇L_remaining(θ)

    and certifies the result by the gradient norm at θ'. When the residual
    exceeds ``tolerance`` (removal was too influential for one step), falls
    back to exact retraining — the slow path that unlearning systems try to
    avoid but must keep for correctness.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    remove = np.asarray(list(remove_positions), dtype=np.int64)
    keep = np.ones(len(y), dtype=bool)
    keep[remove] = False
    X_keep, y_keep = X[keep], y[keep]
    if len(np.unique(y_keep)) < 2:
        raise ValueError("cannot unlearn down to a single-class dataset")

    model._require_fitted()
    n_keep = len(y_keep)
    # Mean gradient of the remaining objective at the current parameters
    # (per-sample loss gradients + L2 term).
    grads = per_sample_gradients(model, X_keep, y_keep)
    W = np.column_stack([model.coef_, model.intercept_])
    l2_term = np.column_stack(
        [model.l2 * model.coef_, np.zeros(len(model.classes_))]
    ).reshape(-1)
    gradient = grads.mean(axis=0) + l2_term
    H = _hessian(model, X_keep, y_keep, damping)
    step = np.linalg.solve(H, gradient)
    W_new = W.reshape(-1) - step

    unlearned = clone(model)
    unlearned.classes_ = model.classes_.copy()
    d = X.shape[1]
    W_new = W_new.reshape(len(model.classes_), d + 1)
    unlearned.coef_ = W_new[:, :d]
    unlearned.intercept_ = W_new[:, d]

    residual_grads = per_sample_gradients(unlearned, X_keep, y_keep)
    residual_l2 = np.column_stack(
        [unlearned.l2 * unlearned.coef_, np.zeros(len(model.classes_))]
    ).reshape(-1)
    residual = float(np.linalg.norm(residual_grads.mean(axis=0) + residual_l2))

    if residual <= tolerance:
        report = UnlearningReport(
            method="newton", residual_norm=residual, n_removed=len(remove), certified=True
        )
        return unlearned, report

    retrained = clone(model).fit(X_keep, y_keep)
    final_grads = per_sample_gradients(retrained, X_keep, y_keep)
    final_l2 = np.column_stack(
        [retrained.l2 * retrained.coef_, np.zeros(len(retrained.classes_))]
    ).reshape(-1)
    final_residual = float(np.linalg.norm(final_grads.mean(axis=0) + final_l2))
    report = UnlearningReport(
        method="retrain",
        residual_norm=final_residual,
        n_removed=len(remove),
        certified=True,
    )
    return retrained, report
