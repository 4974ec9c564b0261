"""Datascope: Shapley importance over end-to-end ML pipelines (Karlaš et al. [39]).

The importance methods of Section 2.1 score rows of the *encoded training
matrix*. Datascope composes them with provenance so the scores land on rows
of the pipeline's *source tables*, where repairs actually happen:

1. run the pipeline with provenance tracking,
2. compute exact KNN-Shapley values on the encoded output (the KNN proxy
   makes this polynomial), and
3. push each output row's value back to the unique source tuple it descends
   from; source tuples filtered out by the pipeline receive zero (they
   cannot influence the model through this pipeline).

``method="exact_knn"`` goes one step further (Karlaš et al., arXiv
2204.11131): the pipeline is compiled to canonical provenance form
(:mod:`repro.pipeline.canonical`) and the Shapley game is played over
*source rows as players* — each player's coalition membership toggles its
whole candidate group — valued exactly in polynomial time by
:mod:`repro.importance.exact_knn`. That is the correct group-removal
semantics for fan-out pipelines, where pushing per-encoded-row values
back (steps 2–3 above) is only an approximation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..frame import DataFrame
from ..importance.engine import DEFAULT_CACHE_SIZE, ValuationEngine
from ..importance.exact_knn import exact_knn_shapley
from ..importance.knn_shapley import knn_shapley
from ..importance.shapley import shapley_mc
from ..importance.utility import Utility
from ..obs import trace as _obs
from .canonical import compile_pipeline, infer_attribution_source
from .execute import PipelineResult

__all__ = ["SourceImportance", "datascope_importance", "ALLOWED_METHODS"]

#: Valuation methods ``datascope_importance`` accepts; error messages
#: enumerate this tuple so it can never drift from the dispatch below.
ALLOWED_METHODS = ("knn", "shapley_mc", "exact_knn")


@dataclass
class SourceImportance:
    """Importance scores attributed to rows of one pipeline source table."""

    source: str
    by_row_id: dict[int, float]
    method: str = "datascope_knn_shapley"
    extras: dict = field(default_factory=dict)

    def for_frame(self, frame: DataFrame) -> np.ndarray:
        """Scores aligned with a frame's row order (0 for unused rows)."""
        return np.asarray(
            [self.by_row_id.get(int(rid), 0.0) for rid in frame.row_ids]
        )

    def lowest(self, frame: DataFrame, k: int) -> np.ndarray:
        """Positions in ``frame`` of the k least beneficial source rows.

        Rows the pipeline filtered out (score exactly 0 and absent from
        ``by_row_id``) are ranked *after* every surviving row: they cannot
        be the cause of a downstream problem through this pipeline.
        """
        scores = self.for_frame(frame)
        used = np.asarray(
            [int(rid) in self.by_row_id for rid in frame.row_ids], dtype=bool
        )
        sort_key = np.where(used, scores, np.inf)
        k = min(k, len(scores))
        return np.argsort(sort_key, kind="stable")[:k]


def datascope_importance(
    train_result: PipelineResult,
    valid_x: Any,
    valid_y: Any,
    source: str | None = None,
    k: int = 5,
    attribution: str = "unique",
    method: str = "knn",
    model: Any = None,
    n_permutations: int = 30,
    truncation_tolerance: float = 0.0,
    convergence_tolerance: float | None = None,
    seed: int = 0,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    engine: ValuationEngine | None = None,
    ledger: Any = None,
) -> SourceImportance:
    """KNN-Shapley importance of a pipeline's source tuples.

    Parameters
    ----------
    train_result:
        A provenance-carrying pipeline run (from
        :func:`repro.pipeline.execute.execute`).
    valid_x, valid_y:
        Validation data *in encoded space* — typically obtained by pushing
        the validation sources through the same fitted pipeline.
    source:
        Which source table to attribute to. Defaults to the single source
        for which each output row has exactly one contributing tuple.
    k:
        KNN proxy neighbourhood size.
    attribution:
        ``"unique"`` requires each output row to descend from exactly one
        tuple of the source (the training base table). ``"shared"`` also
        handles *side tables* — one tuple feeding many output rows — by
        crediting a tuple the full value of every output row it contributed
        to (a tuple's total value is then the sum over its fan-out, matching
        the group-removal semantics of deleting that side tuple).
    method:
        ``"knn"`` (default) computes the exact closed-form KNN-Shapley
        values of the encoded output — the polynomial-time proxy that makes
        Datascope practical. ``"exact_knn"`` compiles the pipeline to
        canonical provenance form and values *source rows as players*
        exactly (group-removal semantics; see
        :mod:`repro.importance.exact_knn` for the map/fork forms and the
        fork ``k=1`` restriction). ``"shapley_mc"`` instead runs
        Monte-Carlo Shapley of an *arbitrary* ``model`` over the encoded
        rows on the shared valuation engine
        (:mod:`repro.importance.engine`), so importance can be measured
        under the pipeline's real downstream model, with subset
        memoization, ``n_workers``-way retraining fan-out, optional
        truncation and convergence-based stopping.
    model:
        Estimator prototype for ``method="shapley_mc"``; defaults to the
        facade's logistic-regression classifier.
    engine:
        Pre-built :class:`ValuationEngine` to reuse (and warm) across
        calls; overrides ``model``/``n_workers``/``cache_size``.
    ledger:
        Optional :class:`~repro.obs.ledger.RunLedger`. With
        ``method="exact_knn"`` the compile fingerprint and an
        ``exact_knn`` valuation event are recorded on it.
    """
    if attribution not in ("unique", "shared"):
        raise ValueError(f"unknown attribution mode: {attribution!r}")
    if method not in ALLOWED_METHODS:
        raise ValueError(
            f"unknown method: {method!r}; allowed methods: "
            f"{', '.join(repr(m) for m in ALLOWED_METHODS)}"
        )
    if train_result.X is None or train_result.y is None:
        raise ValueError("train_result has no encoded output")
    if len(train_result.X) == 0:
        raise ValueError(
            "pipeline produced no encoded rows; nothing to value "
            "(every source tuple was filtered out or quarantined)"
        )
    if source is None:
        source = infer_attribution_source(train_result)

    if method == "exact_knn":
        return _exact_knn_importance(
            train_result, valid_x, valid_y, source=source, k=k, ledger=ledger
        )

    with _obs.span(
        "pipeline.datascope",
        method=method,
        source=source,
        n_rows=len(train_result.provenance),
        attribution=attribution,
    ):
        if method == "knn":
            encoded = knn_shapley(
                train_result.X, train_result.y,
                np.asarray(valid_x, float), np.asarray(valid_y), k=k,
            )
        else:
            if engine is None:
                if model is None:
                    from ..learn.models.logistic import LogisticRegression

                    model = LogisticRegression(max_iter=100)
                utility = Utility(
                    model, train_result.X, train_result.y,
                    np.asarray(valid_x, float), np.asarray(valid_y),
                )
                engine = ValuationEngine(
                    utility, n_workers=n_workers, cache_size=cache_size
                )
            encoded = shapley_mc(
                None,
                n_permutations=n_permutations,
                truncation_tolerance=truncation_tolerance,
                convergence_tolerance=convergence_tolerance,
                seed=seed,
                engine=engine,
            )
    by_row_id: dict[int, float] = {}
    if attribution == "unique":
        src_ids = train_result.provenance.source_row_ids(source)
        for value, rid in zip(encoded.values, src_ids):
            by_row_id[int(rid)] = by_row_id.get(int(rid), 0.0) + float(value)
    else:
        ids = train_result.provenance.source_ids(source)
        rows, slots = np.nonzero(ids >= 0)
        for i, rid in zip(rows.tolist(), ids[rows, slots].tolist()):
            by_row_id[rid] = by_row_id.get(rid, 0.0) + float(encoded.values[i])
        if not by_row_id:
            raise ValueError(f"no output row has provenance from {source!r}")
    return SourceImportance(
        source=source,
        by_row_id=by_row_id,
        method=f"datascope_{encoded.method}",
        extras={
            "k": k,
            "n_output_rows": len(train_result.provenance),
            "encoded": encoded,
            "attribution": attribution,
            "method": method,
        },
    )


def _exact_knn_importance(
    train_result: PipelineResult,
    valid_x: Any,
    valid_y: Any,
    source: str,
    k: int,
    ledger: Any,
) -> SourceImportance:
    """The exact PTIME path: compile to canonical form, value per player.

    Unlike the push-back paths, attribution semantics are fixed: the
    players *are* source rows, so each value already carries the full
    group-removal meaning and no ``attribution`` mode applies.
    """
    started = time.perf_counter()
    with _obs.span(
        "pipeline.datascope",
        method="exact_knn",
        source=source,
        n_rows=len(train_result.provenance),
        attribution="group",
    ):
        compiled = compile_pipeline(train_result, source=source, ledger=ledger)
        valuation = exact_knn_shapley(
            train_result.X,
            train_result.y,
            np.asarray(valid_x, float),
            np.asarray(valid_y),
            groups=compiled.groups,
            k=k,
        )
    if ledger is not None:
        ledger.record_event(
            "exact_knn",
            config={"source": source, "k": k,
                    "compile_fingerprint": compiled.fingerprint},
            stats=dict(valuation.census, stop_reason=valuation.stop_reason),
            wall_time_s=time.perf_counter() - started,
        )
    by_row_id = {
        int(rid): float(value)
        for rid, value in zip(compiled.player_row_ids, valuation.values)
    }
    return SourceImportance(
        source=source,
        by_row_id=by_row_id,
        method=f"datascope_exact_knn(k={k})",
        extras={
            "k": k,
            "n_output_rows": len(train_result.provenance),
            "valuation": valuation,
            "compiled": compiled,
            "form": compiled.form,
            "compile_fingerprint": compiled.fingerprint,
            "attribution": "group",
            "method": "exact_knn",
        },
    )
