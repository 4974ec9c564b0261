"""Certain predictions for KNN over incomplete data (Karlaš et al. [40]).

A prediction is *certain* when the K-nearest-neighbour classifier returns
the same label in **every** possible world of the incomplete training data —
i.e. no matter how the missing cells are filled in. Because each training
row's missing cells can be filled independently of the others, the check
reduces to reasoning over per-row distance *intervals*, and an adversarial
argument makes it exact: to deny label ℓ the victory, the adversary pushes
ℓ-rows as far as possible and a challenger class's rows as close as
possible.

This is the "do we even need to clean?" machinery of the tutorial's Learn
part, together with the CPClean-style cleaning-effort ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..learn.models.knn import neighbor_order
from .intervals import Interval
from .symbolic import UncertainDataset

__all__ = [
    "distance_intervals",
    "certain_prediction",
    "CertainPredictionReport",
    "certain_prediction_report",
    "cpclean_order",
]


def distance_intervals(dataset: UncertainDataset, x: np.ndarray) -> Interval:
    """Squared-distance interval of each (possibly incomplete) training row
    to a concrete query point."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    diff = dataset.X - x  # interval broadcast
    return diff.square().sum(axis=1)


def _votes_in_adversarial_world(
    d_lo: np.ndarray,
    d_hi: np.ndarray,
    labels: np.ndarray,
    target,
    challenger,
    k: int,
) -> tuple[int, int]:
    """Vote counts (target, challenger) in the world worst for ``target``:
    challenger rows at their closest, every other row at its farthest."""
    adversarial = np.where(labels == challenger, d_lo, d_hi)
    # Challenger rows win distance ties (adversarial tie-breaking): sort by
    # (distance, is-not-challenger).
    tie_break = (labels != challenger).astype(float)
    order = np.lexsort((tie_break, adversarial))[: min(k, len(labels))]
    top = labels[order]
    return int(np.sum(top == target)), int(np.sum(top == challenger))


def certain_prediction(
    dataset: UncertainDataset, x: np.ndarray, k: int = 3
) -> tuple[bool, Any]:
    """Is the KNN prediction for ``x`` the same in every possible world?

    Returns ``(certain, label)`` where ``label`` is the certain label, or the
    center-world prediction when uncertain.
    """
    labels = dataset.y
    classes = np.unique(labels)
    distances = distance_intervals(dataset, x)
    d_lo, d_hi = distances.lo, distances.hi

    center = ((dataset.X.center - x.reshape(1, -1)) ** 2).sum(axis=1)
    center_order = neighbor_order(center[None, :], min(k, len(labels)))[0]
    center_votes = labels[center_order]
    values, counts = np.unique(center_votes, return_counts=True)
    center_label = values[np.argmax(counts)]

    for candidate in classes:
        certain = True
        for challenger in classes:
            if challenger == candidate:
                continue
            v_target, v_challenger = _votes_in_adversarial_world(
                d_lo, d_hi, labels, candidate, challenger, k
            )
            if v_target <= v_challenger:
                certain = False
                break
        if certain:
            return True, candidate
    return False, center_label


@dataclass
class CertainPredictionReport:
    """Batch certainty summary over a test set."""

    certain: np.ndarray
    labels: np.ndarray
    k: int
    extras: dict = field(default_factory=dict)

    @property
    def certain_fraction(self) -> float:
        return float(np.mean(self.certain)) if len(self.certain) else 1.0

    def accuracy_bounds(self, y_true: Any) -> tuple[float, float]:
        """(worst-case, best-case) accuracy over all possible worlds.

        Certain points contribute their fixed correctness; uncertain points
        count as wrong in the worst case and right in the best case.
        """
        y_true = np.asarray(y_true)
        correct_certain = (self.labels == y_true) & self.certain
        worst = float(np.mean(correct_certain))
        best = float(np.mean(correct_certain | ~self.certain))
        return worst, best


def certain_prediction_report(
    dataset: UncertainDataset, x_test: Any, k: int = 3
) -> CertainPredictionReport:
    """Run :func:`certain_prediction` over a test matrix."""
    x_test = np.asarray(x_test, dtype=float)
    certain = np.zeros(len(x_test), dtype=bool)
    labels = np.empty(len(x_test), dtype=dataset.y.dtype)
    for i, x in enumerate(x_test):
        certain[i], labels[i] = certain_prediction(dataset, x, k=k)
    return CertainPredictionReport(certain=certain, labels=labels, k=k)


def cpclean_order(
    dataset: UncertainDataset, x_test: Any, k: int = 3
) -> np.ndarray:
    """CPClean-style cleaning priority over incomplete training rows.

    Rows are ordered by how many *uncertain* test predictions they are
    ambiguous for — a row is ambiguous for a query when its distance
    interval overlaps the query's top-k cutoff, so resolving its missing
    cells can change the neighbour set. Cleaning in this order needs far
    fewer oracle calls to reach all-certain than random order (the CPClean
    result the benchmarks reproduce).
    """
    x_test = np.asarray(x_test, dtype=float)
    incomplete_rows = np.flatnonzero(dataset.uncertain_cells.any(axis=1))
    scores = np.zeros(dataset.n_rows)
    for x in x_test:
        certain, __ = certain_prediction(dataset, x, k=k)
        if certain:
            continue
        distances = distance_intervals(dataset, x)
        cutoff = np.sort(distances.hi)[min(k, len(distances.hi)) - 1]
        ambiguous = (distances.lo <= cutoff) & dataset.uncertain_cells.any(axis=1)
        scores[ambiguous] += 1.0
    # Incomplete rows first by descending ambiguity; complete rows last.
    priority = np.full(dataset.n_rows, -1.0)
    priority[incomplete_rows] = scores[incomplete_rows]
    return np.argsort(-priority, kind="stable")
