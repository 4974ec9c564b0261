"""The dataset multiplicity problem (Meyer et al. [55]).

When up to ``r`` training labels may be wrong, the training data is not one
dataset but a *family* of datasets, each inducing a (possibly different)
model. A test prediction is *robust* when every dataset in the family
agrees on it. This module provides an exact robustness certificate for KNN
(label flips shift vote counts in a closed-form way) and a sampling-based
multiplicity profile for arbitrary retrainable models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..learn.base import Estimator, clone
from ..learn.models.knn import neighbor_order, pairwise_distances

__all__ = [
    "knn_flip_robustness",
    "MultiplicityProfile",
    "sampled_multiplicity",
]


def knn_flip_robustness(
    x_train: Any,
    y_train: Any,
    x_test: Any,
    k: int = 3,
    flip_budget: int = 1,
    metric: str = "euclidean",
) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-test-point robustness of KNN to ≤ ``flip_budget`` label flips.

    The neighbour set is fixed (features are clean); an adversary flipping a
    top-k member's label moves one vote from the winner to a challenger,
    changing the margin by 2 per flip. The prediction is robust iff the
    winner's margin over every challenger survives
    ``min(flip_budget, winner_votes)`` flips, with ties resolved against
    robustness.

    Returns ``(robust, labels)``.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_test = np.asarray(x_test, dtype=float)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if flip_budget < 0:
        raise ValueError("flip_budget must be non-negative")
    if len(y_train) == 0:
        raise ValueError("training set is empty")
    distances = pairwise_distances(x_test, x_train, metric=metric)
    k = min(k, len(y_train))
    robust = np.zeros(len(x_test), dtype=bool)
    labels = np.empty(len(x_test), dtype=y_train.dtype)
    for t, top in enumerate(neighbor_order(distances, k)):
        votes = y_train[top]
        values, counts = np.unique(votes, return_counts=True)
        winner_idx = int(np.argmax(counts))
        winner, winner_votes = values[winner_idx], int(counts[winner_idx])
        labels[t] = winner
        flips = min(flip_budget, winner_votes)
        # After f flips toward the strongest challenger: winner loses f votes,
        # challenger gains f.
        challengers = [int(c) for j, c in enumerate(counts) if j != winner_idx]
        best_challenger = max(challengers, default=0)
        # A flipped vote can also mint a brand-new class inside the top-k.
        best_challenger = max(best_challenger, 0)
        robust[t] = (winner_votes - flips) > (best_challenger + flips)
    return robust, labels


@dataclass
class MultiplicityProfile:
    """Sampling-based multiplicity summary for a retrainable model."""

    predictions: np.ndarray  # (n_worlds, n_test)
    agreement: np.ndarray  # per-test-point fraction agreeing with world 0
    accuracy_range: tuple[float, float]
    extras: dict = field(default_factory=dict)

    @property
    def robust_fraction(self) -> float:
        """Fraction of test points all sampled worlds agree on (an *upper
        bound estimate* of true robustness: sampling can miss worlds)."""
        first = self.predictions[0]
        unanimous = np.all(self.predictions == first, axis=0)
        return float(np.mean(unanimous))


def sampled_multiplicity(
    model: Estimator,
    x_train: Any,
    y_train: Any,
    x_test: Any,
    y_test: Any = None,
    flip_budget: int = 5,
    n_worlds: int = 20,
    seed: int = 0,
) -> MultiplicityProfile:
    """Retrain over sampled label-flip worlds and profile prediction spread.

    World 0 is always the unmodified dataset; worlds 1.. flip exactly
    ``flip_budget`` uniformly chosen labels to a different class.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_test = np.asarray(x_test, dtype=float)
    classes = np.unique(y_train)
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    predictions = []
    accuracies = []
    for world in range(n_worlds):
        y_world = y_train.copy()
        if world > 0 and flip_budget > 0:
            chosen = rng.choice(
                len(y_train), size=min(flip_budget, len(y_train)), replace=False
            )
            for i in chosen:
                alternatives = classes[classes != y_world[i]]
                y_world[i] = alternatives[int(rng.integers(len(alternatives)))]
        fitted = clone(model).fit(x_train, y_world)
        preds = fitted.predict(x_test)
        predictions.append(preds)
        if y_test is not None:
            accuracies.append(float(np.mean(preds == np.asarray(y_test))))
    predictions = np.vstack(predictions)
    agreement = np.mean(predictions == predictions[0], axis=0)
    accuracy_range = (
        (min(accuracies), max(accuracies)) if accuracies else (float("nan"), float("nan"))
    )
    return MultiplicityProfile(
        predictions=predictions,
        agreement=agreement,
        accuracy_range=accuracy_range,
        extras={"flip_budget": flip_budget, "n_worlds": n_worlds},
    )
