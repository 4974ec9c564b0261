"""Canonical-pipeline compiler: the preparation step for exact valuation.

"Data Debugging with Shapley Importance over End-to-End ML Pipelines"
(Karlaš et al., arXiv 2204.11131) observes that pipelines composed of
map, fork, and join operators admit a *canonical provenance form*: every
encoded output row is annotated with an additive provenance polynomial
over the rows of one attribution source — a single variable ``x_j`` per
output row, where ``j`` is the source row the output descends from.
Under that form, removing source row ``j`` removes exactly the output
rows whose polynomial is ``x_j``, so the Shapley game over *source* rows
is a grouped KNN game that :mod:`repro.importance.exact_knn` values
exactly in polynomial time — no Monte-Carlo retraining.

This module is the compiler half: it classifies every node of an
executed pipeline as ``source`` / ``map`` / ``fork`` / ``join`` /
``estimator``, checks the classification against the run's recorded
:class:`~repro.pipeline.provenance.Provenance`, and emits a
:class:`CanonicalPipeline` — the per-source-row candidate groups plus a
structural fingerprint for the run ledger. Pipelines that cannot be
compiled (cross-row aggregation maps, self-joins that make provenance
polynomials conjunctions, outputs unreachable from the attribution
source) are rejected with a :class:`CanonicalCompileError` naming the
offending node, never silently mis-valued.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from .execute import PipelineResult
from .operators import (
    EncodeNode,
    FilterNode,
    JoinNode,
    MapNode,
    Node,
    ProjectNode,
    SourceNode,
)
from .provenance import Provenance

__all__ = [
    "CanonicalCompileError",
    "CanonicalPipeline",
    "classify_nodes",
    "compile_pipeline",
    "infer_attribution_source",
]


class CanonicalCompileError(ValueError):
    """A pipeline the canonical compiler cannot value exactly.

    The message names the offending node (kind, id, and its
    ``describe()`` label) so the rejection is actionable: rewrite the
    node, or fall back to the Monte-Carlo methods which need no
    canonical form.
    """

    def __init__(self, message: str, node: Node | None = None) -> None:
        if node is not None:
            message = (
                f"cannot compile {node.kind} node #{node.id} "
                f"({node.describe()}): {message}"
            )
        super().__init__(message)
        self.node_id = node.id if node is not None else None
        self.node_kind = node.kind if node is not None else None
        self.node_label = node.describe() if node is not None else None


def _reachable_sources(node: Node, memo: dict[int, frozenset[str]]) -> frozenset[str]:
    """Names of source tables feeding ``node`` (memoised per compile)."""
    if node.id in memo:
        return memo[node.id]
    if isinstance(node, SourceNode):
        result = frozenset({node.name})
    else:
        result = frozenset().union(
            *(_reachable_sources(parent, memo) for parent in node.inputs)
        )
    memo[node.id] = result
    return result


def classify_nodes(sink: Node, source: str) -> dict[int, str]:
    """Classify every node reachable from ``sink`` for the canonical form.

    - ``source``: a source table (the attribution source or a side table).
    - ``map``: row-local operators — filters, projections, and row-wise
      column UDFs. Each output row keeps its input row's provenance.
    - ``join``: a join whose *left* (driving) input carries the
      attribution source; output rows descend from one driving tuple each.
    - ``fork``: a join that brings the attribution source in from the
      *side* input — one source tuple may feed many output rows, so its
      candidate group has size > 1.
    - ``estimator``: the encode sink, the relational-to-vector boundary
      the KNN proxy game is played over.

    Raises :class:`CanonicalCompileError` for constructs with no additive
    provenance polynomial: cross-row aggregation maps
    (``with_column(..., aggregate=True)``) and joins reached by the
    attribution source on *both* inputs (the polynomial would be a
    conjunction ``x_a · x_b``, not a single variable).
    """
    classes: dict[int, str] = {}
    memo: dict[int, frozenset[str]] = {}
    for node in sink.plan.topological_order(sink):
        if isinstance(node, SourceNode):
            classes[node.id] = "source"
        elif isinstance(node, (FilterNode, ProjectNode)):
            classes[node.id] = "map"
        elif isinstance(node, MapNode):
            if getattr(node, "aggregate", False):
                raise CanonicalCompileError(
                    "cross-row aggregation maps have no additive provenance "
                    "polynomial (each output cell depends on every input "
                    "row); exact valuation would silently mis-attribute — "
                    "use method='knn' or method='shapley_mc' instead",
                    node=node,
                )
            classes[node.id] = "map"
        elif isinstance(node, JoinNode):
            left = _reachable_sources(node.inputs[0], memo)
            right = _reachable_sources(node.inputs[1], memo)
            if source in left and source in right:
                raise CanonicalCompileError(
                    f"attribution source {source!r} reaches both join "
                    "inputs, so output provenance polynomials are "
                    "conjunctions of source variables instead of single "
                    "variables; the grouped KNN game is no longer additive "
                    "over source rows",
                    node=node,
                )
            classes[node.id] = "fork" if source in right else "join"
        elif isinstance(node, EncodeNode):
            classes[node.id] = "estimator"
        else:
            raise CanonicalCompileError(
                f"operator kind {node.kind!r} is not in the canonical "
                "map/fork/join algebra",
                node=node,
            )
    return classes


def infer_attribution_source(result: PipelineResult) -> str:
    """The source table per-row importance should land on, when unambiguous.

    Candidates are sources whose tuples map 1:1 onto output rows (side
    tables feed many outputs from few tuples, so they drop out); the tie
    break prefers the *driving* table of a left-deep pipeline — the
    leftmost source reachable from the sink.
    """
    candidates = sorted(result.provenance.sources())
    unique = []
    for name in candidates:
        try:
            ids = result.provenance.source_row_ids(name)
        except ValueError:
            continue
        if len(np.unique(ids)) == len(ids):
            unique.append(name)
    node = result.sink
    while node.inputs:
        node = node.inputs[0]
    leftmost = getattr(node, "name", None)
    if leftmost in unique:
        return leftmost
    if len(unique) == 1:
        return unique[0]
    raise ValueError(
        f"cannot infer attribution source automatically from {unique}; "
        "pass source= explicitly"
    )


@dataclass
class CanonicalPipeline:
    """A pipeline compiled to canonical provenance form.

    Attributes
    ----------
    source:
        The attribution source the provenance polynomials range over.
    form:
        ``"map"`` when every source row feeds at most one encoded row
        (identity, filter, row-wise map, and driving-side joins), or
        ``"fork"`` when some source row fans out to several encoded rows
        (side-table attribution, duplicate join keys).
    node_classes:
        ``node id -> class`` from :func:`classify_nodes`.
    player_row_ids:
        Source row ids with at least one surviving encoded row, sorted
        ascending — the players of the grouped KNN game.
    groups:
        Per player, the encoded output positions its provenance
        polynomial covers (``groups[p]`` are the candidates source row
        ``player_row_ids[p]`` contributes).
    player_of_output:
        Inverse mapping: player index of each encoded output row.
    fingerprint:
        SHA-256 over the canonical structure (source, form, node class
        sequence, and the full group table) — recorded in the run ledger
        so two runs compiling to different forms are distinguishable.
    """

    source: str
    form: str
    node_classes: dict[int, str]
    player_row_ids: np.ndarray
    groups: list[np.ndarray]
    player_of_output: np.ndarray
    n_output_rows: int
    fingerprint: str = field(default="")

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = self._compute_fingerprint()

    @property
    def n_players(self) -> int:
        return len(self.player_row_ids)

    def polynomials(self, limit: int | None = None) -> list[str]:
        """Readable additive provenance polynomials, one per output row."""
        rows = range(self.n_output_rows if limit is None else min(limit, self.n_output_rows))
        return [
            f"out[{i}] = x_{self.source}[{int(self.player_row_ids[self.player_of_output[i]])}]"
            for i in rows
        ]

    def validate(self, provenance: Provenance) -> None:
        """Round-trip check: the compiled groups agree with provenance.

        Every encoded row must map (through ``player_of_output``) to
        exactly the attribution-source row its why-provenance reports,
        and every group must list exactly the outputs provenance says its
        source row produced. Raises ``AssertionError`` on any mismatch —
        the compiler's own property test, also exercised by hypothesis.
        """
        if len(provenance) != self.n_output_rows:
            raise AssertionError(
                f"provenance covers {len(provenance)} rows, compiled form "
                f"{self.n_output_rows}"
            )
        ids = provenance.source_ids(self.source)
        got = self.player_row_ids[self.player_of_output]
        bad = np.flatnonzero(((ids >= 0).sum(axis=1) != 1) | (ids.max(axis=1) != got))
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"output row {i}: compiled polynomial covers {{{int(got[i])}}}, "
                f"provenance reports {set(ids[i][ids[i] >= 0].tolist())}"
            )
        covered = np.concatenate(self.groups) if self.groups else np.empty(0, np.int64)
        if len(np.unique(covered)) != self.n_output_rows:
            raise AssertionError("groups do not partition the output rows")

    def _compute_fingerprint(self) -> str:
        digest = hashlib.sha256()
        digest.update(f"canonical/v1|{self.source}|{self.form}|".encode())
        digest.update(
            ",".join(self.node_classes[k] for k in sorted(self.node_classes)).encode()
        )
        digest.update(
            "".join(
                f"|{rid}:{','.join(map(str, group.tolist()))}"
                for rid, group in zip(self.player_row_ids.tolist(), self.groups)
            ).encode()
        )
        return digest.hexdigest()

    def stats(self) -> dict[str, Any]:
        sizes = np.asarray([len(g) for g in self.groups], dtype=np.int64)
        return {
            "source": self.source,
            "form": self.form,
            "n_players": self.n_players,
            "n_output_rows": self.n_output_rows,
            "max_group_size": int(sizes.max()) if len(sizes) else 0,
            "fingerprint": self.fingerprint,
        }


def compile_pipeline(
    result: PipelineResult,
    source: str | None = None,
    ledger: Any = None,
) -> CanonicalPipeline:
    """Compile an executed pipeline into canonical provenance form.

    Parameters
    ----------
    result:
        A provenance-carrying run (from :func:`repro.pipeline.execute`).
    source:
        Attribution source; inferred via :func:`infer_attribution_source`
        when omitted.
    ledger:
        Optional :class:`~repro.obs.ledger.RunLedger`; when given, a
        ``canonical_compile`` event carrying the compile fingerprint and
        form statistics is appended.

    Raises
    ------
    CanonicalCompileError
        For non-compilable constructs (see :func:`classify_nodes`) and
        for output rows whose polynomial over the attribution source is
        not a single variable — zero tuples (the row is a constant the
        grouped game cannot credit) or several (a conjunction).
    """
    if source is None:
        source = infer_attribution_source(result)
    if len(result.provenance) == 0:
        if _obs.enabled():
            _obs_metrics.counter("canonical.rejected").inc()
        raise CanonicalCompileError(
            "pipeline produced no output rows; the grouped game has no "
            "candidates to value (every filter predicate eliminated the "
            "training set)"
        )
    started = time.perf_counter()
    with _obs.span(
        "pipeline.canonical.compile",
        source=source,
        n_output_rows=len(result.provenance),
    ) as sp:
        try:
            classes = classify_nodes(result.sink, source)
            ids = result.provenance.source_ids(source)
            counts = (ids >= 0).sum(axis=1)
            bad = np.flatnonzero(counts != 1)
            if bad.size:
                i = int(bad[0])
                if counts[i] == 0:
                    fork_node = next(
                        (
                            n
                            for n in result.sink.plan.topological_order(result.sink)
                            if classes.get(n.id) == "fork"
                        ),
                        None,
                    )
                    raise CanonicalCompileError(
                        f"output row {i} carries no provenance from "
                        f"{source!r}; its polynomial is a constant the "
                        "grouped game cannot credit (an unmatched left-join "
                        "row when attributing to the side table)",
                        node=fork_node,
                    )
                raise CanonicalCompileError(  # pragma: no cover - caught statically
                    f"output row {i} descends from {int(counts[i])} tuples of "
                    f"{source!r}; its polynomial is a conjunction"
                )
        except CanonicalCompileError:
            if _obs.enabled():
                _obs_metrics.counter("canonical.rejected").inc()
            raise

        # Output positions grouped by source row id: one stable sort keeps
        # each group's positions ascending.
        row_ids = ids.max(axis=1)
        order = np.argsort(row_ids, kind="stable")
        player_row_ids, starts, sizes = np.unique(
            row_ids[order], return_index=True, return_counts=True
        )
        groups = [order[a : a + n] for a, n in zip(starts.tolist(), sizes.tolist())]
        player_of_output = np.empty(len(order), dtype=np.int64)
        player_of_output[order] = np.repeat(np.arange(len(starts)), sizes)
        form = "fork" if sizes.max() > 1 else "map"
        compiled = CanonicalPipeline(
            source=source,
            form=form,
            node_classes=classes,
            player_row_ids=player_row_ids,
            groups=groups,
            player_of_output=player_of_output,
            n_output_rows=len(result.provenance),
        )
        sp.set(form=form, n_players=compiled.n_players,
               fingerprint=compiled.fingerprint[:12])
        if _obs.enabled():
            _obs_metrics.counter("canonical.compiled").inc()
    if ledger is not None:
        ledger.record_event(
            "canonical_compile",
            config={"source": source},
            stats=compiled.stats(),
            wall_time_s=time.perf_counter() - started,
        )
    return compiled
