"""Exact KNN-Shapley over compiled canonical pipelines (Datascope).

The players of this game are *source* rows of a pipeline, not encoded
rows: each player controls the candidate group its additive provenance
polynomial covers (see :mod:`repro.pipeline.canonical`), and the utility
of a coalition is the KNN utility of the union of its groups. Karlaš et
al. (arXiv 2204.11131) show this game is valuable exactly in polynomial
time; this module implements the two canonical forms:

- **map form** (every group has at most one candidate): the grouped game
  *is* the per-row KNN game on the surviving candidates, so the Jia et
  al. closed form (:func:`repro.importance.knn_shapley.knn_shapley`)
  applies unchanged for any ``k``; players whose group is empty are null
  players and receive exactly zero.
- **fork form** (some group holds several candidates): for ``k = 1``,
  only a player's *nearest* candidate to each test point can ever be the
  nearest present neighbour, so per test point each player reduces to
  one representative and the game collapses to a per-row 1-NN game over
  representatives — solved by the same recursion. For ``k > 1`` the
  reduction is unsound (two candidates of one player can both sit in the
  top-k), so fork pipelines with ``k > 1`` are rejected with a
  diagnostic instead of silently mis-valued; this matches the 1-NN proxy
  Datascope itself ships for fork pipelines.

Results come back as a standard
:class:`~repro.importance.engine.ValuationResult` with ``stderr = 0``,
``converged = True`` and ``stop_reason = "exact"`` — exact values are a
degenerate, fully-converged valuation, so everything downstream of the
Monte-Carlo engine (reports, ledgers, services) consumes them unchanged.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..learn.models.knn import neighbor_order, pairwise_distances
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from .engine import ValuationResult
from .knn_shapley import knn_shapley

__all__ = ["exact_knn_shapley", "grouped_knn_utility"]


def _first_fault(groups: list[np.ndarray], n_train: int) -> None:
    """Scan groups in order and raise for the first out-of-range index or
    overlap with an earlier group; the message of whichever comes first."""
    seen = np.zeros(n_train, dtype=bool)
    for g in groups:
        if g.size and (g.min() < 0 or g.max() >= n_train):
            raise ValueError(
                f"candidate group indexes rows outside the training set "
                f"(n_train={n_train})"
            )
        if seen[g].any():
            raise ValueError(
                "candidate groups overlap; provenance polynomials must be "
                "single variables (one owner per encoded row)"
            )
        seen[g] = True


def _check_groups(groups: Sequence[np.ndarray], n_train: int) -> list[np.ndarray]:
    """Normalise and validate candidate groups: disjoint, in range.

    One range check and one ``bincount`` over the concatenated groups
    clear the valid case; only a failing input is scanned group by group,
    to raise for its first fault. Groups come back sorted, each row
    once.
    """
    cleaned = [np.asarray(g, dtype=np.int64) for g in groups]
    if not cleaned:
        return cleaned
    flat = np.concatenate(cleaned)
    if flat.size and (
        flat.min() < 0
        or flat.max() >= n_train
        or np.bincount(flat, minlength=n_train).max() > 1
    ):
        # A repeat inside one group is no overlap, so this may return. A
        # group is a set of rows: a row it repeats counts once.
        _first_fault(cleaned, n_train)
        return [np.unique(g) for g in cleaned]
    owner = np.repeat(np.arange(len(cleaned)), [len(g) for g in cleaned])
    descent = (flat[1:] < flat[:-1]) & (owner[1:] == owner[:-1])
    for p in np.unique(owner[1:][descent]).tolist():
        cleaned[p] = np.sort(cleaned[p])
    return cleaned


def grouped_knn_utility(
    player_subset: Sequence[int],
    groups: Sequence[np.ndarray],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> float:
    """``v(S)`` of the grouped game: KNN utility of the union of groups.

    The ground truth the exact path is differential-tested against: tests
    wrap this in a :class:`~repro.importance.utility.SubsetUtility` and
    enumerate all subsets (or run high-budget Monte-Carlo) over it.
    """
    from .knn_shapley import knn_utility

    rows = [np.asarray(groups[int(p)], dtype=np.int64) for p in player_subset]
    union = (
        np.sort(np.concatenate(rows)) if rows else np.empty(0, dtype=np.int64)
    )
    return knn_utility(union, x_train, y_train, x_valid, y_valid, k, metric)


def _map_form_values(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    groups: list[np.ndarray],
    k: int,
    metric: str,
    block_size: int,
) -> np.ndarray:
    """Any-``k`` fast path when every player owns at most one candidate."""
    players = [p for p, g in enumerate(groups) if len(g)]
    values = np.zeros(len(groups))
    if not players:
        return values
    candidates = np.asarray([int(groups[p][0]) for p in players], dtype=np.int64)
    encoded = knn_shapley(
        x_train[candidates],
        y_train[candidates],
        x_valid,
        y_valid,
        k=k,
        metric=metric,
        block_size=block_size,
    )
    values[players] = encoded.values
    return values


def _fork_form_values(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    groups: list[np.ndarray],
    metric: str,
    block_size: int,
) -> np.ndarray:
    """Exact 1-NN values when players own several candidates each.

    Per test point: each player's representative is its nearest
    candidate; sorting representatives by distance yields an ordinary
    1-NN game over the players, valued by the Jia recursion with
    ``coeff_i = 1/rank_i``. Ties are broken by candidate position in the
    concatenated group order — the same stable order
    :func:`~repro.importance.knn_shapley.knn_utility` uses, so the
    brute-force differential tests see the identical game.
    """
    m = len(groups)
    players = [p for p in range(m) if len(groups[p])]
    values = np.zeros(m)
    if not players:
        return values
    positions = np.concatenate([groups[p] for p in players])
    owner = np.repeat(
        np.asarray(players, dtype=np.int64),
        [len(groups[p]) for p in players],
    )
    Xc = x_train[positions]
    yc = y_train[positions]
    for start in range(0, len(y_valid), block_size):
        block = slice(start, start + block_size)
        distances = pairwise_distances(x_valid[block], Xc, metric=metric)
        labels = y_valid[block]
        for t, order in enumerate(neighbor_order(distances)):
            # First occurrence of each player in distance order = its
            # representative; np.unique returns first indices for free.
            present, first = np.unique(owner[order], return_index=True)
            rep_rank = np.argsort(first, kind="stable")
            players_sorted = present[rep_rank]
            match = (
                yc[order[first[rep_rank]]] == labels[t]
            ).astype(float)
            n_present = len(players_sorted)
            s = np.empty(n_present)
            s[-1] = match[-1] / n_present
            if n_present > 1:
                ranks = np.arange(1, n_present, dtype=float)
                diffs = (match[:-1] - match[1:]) / ranks
                s[:-1] = s[-1] + np.cumsum(diffs[::-1])[::-1]
            values[players_sorted] += s
    values /= len(y_valid)
    return values


def exact_knn_shapley(
    x_train: Any,
    y_train: Any,
    x_valid: Any,
    y_valid: Any,
    groups: Sequence[np.ndarray],
    k: int = 1,
    metric: str = "euclidean",
    block_size: int = 1024,
) -> ValuationResult:
    """Exact Shapley values of the grouped KNN game, one per player.

    Parameters
    ----------
    x_train, y_train:
        The *encoded* training matrix and labels the candidate groups
        index into.
    x_valid, y_valid:
        Validation data in encoded space; values are averaged over it.
    groups:
        One candidate-index array per player (a player with an empty
        group — a source row the pipeline filtered out — is a null
        player and gets exactly zero). Groups must be disjoint; a row a
        group lists twice counts once.
    k:
        KNN neighbourhood size. Any ``k`` in map form; fork form requires
        ``k = 1`` (see module docstring) and raises ``ValueError``
        otherwise.

    Returns
    -------
    ValuationResult
        ``values[p]`` per player, ``stderr`` identically zero,
        ``converged=True``, ``stop_reason="exact"``, and a census with
        the compiled form and game dimensions.
    """
    x_train = np.asarray(x_train, dtype=float)
    y_train = np.asarray(y_train)
    x_valid = np.asarray(x_valid, dtype=float)
    y_valid = np.asarray(y_valid)
    if len(x_train) != len(y_train):
        raise ValueError("x_train and y_train must have equal length")
    if len(x_valid) != len(y_valid):
        raise ValueError("x_valid and y_valid must have equal length")
    if len(y_valid) == 0:
        raise ValueError("validation set is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    groups = _check_groups(groups, len(y_train))
    m = len(groups)
    sizes = np.asarray([len(g) for g in groups], dtype=np.int64)
    form = "fork" if sizes.size and sizes.max() > 1 else "map"
    if form == "fork" and k != 1:
        raise ValueError(
            "exact grouped KNN-Shapley requires k=1 when a source row "
            "feeds multiple encoded rows (fork canonical form, max group "
            f"size {int(sizes.max())}); got k={k}. Use k=1, or fall back "
            "to method='shapley_mc' for k-NN utilities over forks."
        )
    with _obs.span(
        "importance.exact_knn",
        n_players=m,
        n_candidates=int(sizes.sum()),
        n_valid=len(y_valid),
        k=k,
        form=form,
    ):
        if form == "map":
            values = _map_form_values(
                x_train, y_train, x_valid, y_valid, groups, k, metric, block_size
            )
        else:
            values = _fork_form_values(
                x_train, y_train, x_valid, y_valid, groups, metric, block_size
            )
        if _obs.enabled():
            _obs_metrics.counter("exact_knn.runs").inc()
    return ValuationResult(
        values=values,
        stderr=np.zeros(m),
        converged=True,
        stop_reason="exact",
        census={
            "form": form,
            "n_players": m,
            "n_candidates": int(sizes.sum()),
            "n_null_players": int((sizes == 0).sum()),
            "n_valid": len(y_valid),
            "k": k,
            "n_evaluations": 0,
        },
    )
