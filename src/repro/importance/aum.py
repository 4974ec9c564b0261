"""Area Under the Margin (AUM) ranking (Pleiss et al. [63]).

AUM observes *training dynamics*: correctly-labelled points establish a
positive assigned-label margin early, while mislabelled points are dragged
toward their (wrong) given label only late, accumulating negative margin.
Since the library's logistic regression (Newton for two classes, L-BFGS for
more) has no epoch structure, this module trains its own plain
gradient-descent softmax classifier to expose the trajectory — matching the
spirit of the method's SGD setting.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.special import softmax

from .base import ImportanceResult

__all__ = ["aum_importance"]


def aum_importance(
    X: Any,
    y: Any,
    n_epochs: int = 60,
    learning_rate: float = 0.5,
    l2: float = 1e-4,
    seed: int = 0,
) -> ImportanceResult:
    """Margin of the given label, averaged over a gradient-descent trajectory.

    ``margin_t(i) = z_{y_i} − max_{j ≠ y_i} z_j`` measured at every epoch t
    of full-batch gradient descent on the softmax loss; the importance value
    is the mean over epochs. Low (negative) AUM = probable label error.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if len(X) != len(y):
        raise ValueError("X and y must have equal length")
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    classes, index = np.unique(y, return_inverse=True)
    n, d = X.shape
    k = len(classes)
    if k < 2:
        return ImportanceResult(method="aum", values=np.zeros(n))
    rng = np.random.default_rng(seed)
    W = rng.normal(scale=0.01, size=(k, d))
    b = np.zeros(k)
    margin_sum = np.zeros(n)
    rows = np.arange(n)
    for __ in range(n_epochs):
        logits = X @ W.T + b
        # Record the assigned-label margin *before* this epoch's update.
        assigned = logits[rows, index]
        masked = logits.copy()
        masked[rows, index] = -np.inf
        margin_sum += assigned - masked.max(axis=1)
        probs = softmax(logits, axis=1)
        delta = probs
        delta[rows, index] -= 1.0
        grad_w = delta.T @ X / n + l2 * W
        grad_b = delta.mean(axis=0)
        W -= learning_rate * grad_w
        b -= learning_rate * grad_b
    values = margin_sum / n_epochs
    return ImportanceResult(
        method="aum",
        values=values,
        extras={"n_epochs": n_epochs, "learning_rate": learning_rate},
    )
