"""Provenance-tracking pipeline execution.

:func:`execute` walks an operator DAG, carrying a
:class:`~repro.pipeline.provenance.Provenance` alongside every intermediate
frame. The result bundles the encoded training matrix, labels, pre-encode
frame, and the output-row-to-source-tuple provenance — everything the
debugging tools of Section 2.2 consume.

Every node runs through one evaluation function per operator kind, under
the :class:`~repro.pipeline.resilience.ErrorPolicy` that the run's
:class:`~repro.pipeline.resilience.ExecutionPolicy` resolves for it
(``ExecutionPolicy()`` when none is given). Execution is fail-fast by
default: under a fail-fast policy one bad row aborts the run with the
operator's own exception, after any retries the policy allows. A
non-fail-fast policy — or :func:`execute_robust` — turns operator failures
into quarantined, provenance-attributed rows instead: each operator first
runs over the whole frame and drops to row-wise evaluation only when that
raises, so clean data pays nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..frame import DataFrame
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from ..obs.quality import NodeQualityProfile, PipelineMonitor
from .operators import (
    EncodeNode,
    FilterNode,
    JoinNode,
    MapNode,
    Node,
    PipelinePlan,
    ProjectNode,
    SourceNode,
)
from .provenance import Provenance
from .resilience import (
    ErrorPolicy,
    ExecutionPolicy,
    OperatorError,
    OperatorTimeoutError,
    Quarantine,
    deviant_cell_positions,
    retry_call,
)

__all__ = [
    "PipelineResult",
    "execute",
    "execute_robust",
    "with_provenance",
    "incremental_append",
]


@dataclass
class PipelineResult:
    """Everything produced by one pipeline run.

    Attributes
    ----------
    X, y:
        Encoded feature matrix and label vector (None if the sink is not an
        :class:`EncodeNode`).
    frame:
        The relational output immediately before encoding.
    provenance:
        Why-provenance of each output row (aligned with ``X`` / ``frame``).
    sink:
        The executed sink node; ``sink.encoder`` holds the *fitted* feature
        encoder after a ``fit=True`` run.
    quarantine:
        Rows dropped (or patched) by a non-fail-fast
        :class:`~repro.pipeline.resilience.ExecutionPolicy`, each with its
        why-provenance. Empty under fail-fast execution.
    quality_profiles:
        Per-node :class:`~repro.obs.quality.NodeQualityProfile`\\ s when the
        run was executed with ``monitor=``; empty otherwise.
    """

    frame: DataFrame
    provenance: Provenance
    sink: Node
    X: np.ndarray | None = None
    y: np.ndarray | None = None
    intermediates: dict[int, int] = field(default_factory=dict)  # node id -> rows
    quarantine: Quarantine = field(default_factory=Quarantine)
    quality_profiles: dict[str, NodeQualityProfile] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.frame.num_rows

    def remove_source_rows(
        self, source: str, row_ids: Any
    ) -> tuple[np.ndarray, np.ndarray]:
        """Training matrix with every output row descending from the given
        source tuples dropped — *without re-running the pipeline*.

        This is the provenance shortcut (the paper's ``nde.remove``): because
        our operators are monotone (select-project-join), deleting a source
        tuple simply deletes the output rows whose why-provenance contains
        it, so the encoded matrix can be edited in place.
        """
        if self.X is None or self.y is None:
            raise RuntimeError("pipeline result has no encoded output")
        affected = self.provenance.outputs_of(source, np.asarray(row_ids).tolist())
        keep = np.ones(len(self.X), dtype=bool)
        keep[affected] = False
        return self.X[keep], self.y[keep]

    def source_positions(self, source: str) -> np.ndarray:
        """Source row id contributing to each output row (one per row)."""
        return self.provenance.source_row_ids(source)


# ----------------------------------------------------------------------
# Operator evaluation under a policy
# ----------------------------------------------------------------------
def _attempt(
    fn: Callable[[], Any], policy: ErrorPolicy
) -> tuple[bool, Any, Exception | None, int]:
    """Run ``fn`` under the policy's retry/timeout guards.

    Returns ``(ok, value, error, attempts)``. Under a fail-fast policy the
    operator's own exception propagates instead; under any other policy the
    caller quarantines it. Interrupts (``KeyboardInterrupt``,
    ``SystemExit``, a simulated crash) are not ``Exception``\\ s and always
    propagate.
    """
    try:
        value, attempts = retry_call(fn, policy)
    except Exception as exc:
        if policy.is_fail_fast:
            raise
        attempts = policy.max_retries + 1 if isinstance(exc, policy.retry_on) else 1
        return False, None, exc, attempts
    return True, value, None, attempts


def _cells_of(raw: Any, n_rows: int) -> list:
    """Normalise a map-UDF result into a list of ``n_rows`` cells."""
    from ..frame.column import Column

    cells = raw.to_list() if isinstance(raw, Column) else list(raw)
    if len(cells) != n_rows:
        raise ValueError(f"map produced {len(cells)} cells, expected {n_rows}")
    return cells


def _node_span(node: Node, rows_in: int | None):
    """Span for one operator evaluation; inputs are computed *before* the
    span opens, so a node's duration is its own work, not its subtree's.

    Disabled tracing costs exactly the ``enabled()`` flag check — attrs
    (including ``describe()`` strings) are never built.
    """
    if not _obs.enabled():
        return _obs._NULL_SPAN
    attrs: dict[str, Any] = {"op": node.describe()}
    if rows_in is not None:
        attrs["rows_in"] = rows_in
    return _obs.span(f"node.{node.kind}#{node.id}", **attrs)


def _reason_for(error: Exception) -> str:
    return "timeout" if isinstance(error, OperatorTimeoutError) else "error"


def _map(
    node: MapNode,
    frame: DataFrame,
    prov: Provenance,
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance]:
    n = frame.num_rows
    ok, raw, __, __ = _attempt(lambda: node.func(frame), policy)
    guard_types = policy.guard_types and not policy.is_fail_fast
    failures: dict[int, tuple[Exception, str, int]] = {}
    if not ok:
        # Whole-frame evaluation failed: isolate the poisonous rows by
        # re-evaluating the UDF over one-row frames.
        cells = [None] * n
        for pos in range(n):
            row_frame = frame.take([pos])
            ok_i, raw_i, err_i, att_i = _attempt(
                lambda rf=row_frame: node.func(rf), policy
            )
            if ok_i:
                cells[pos] = _cells_of(raw_i, 1)[0]
            else:
                failures[pos] = (err_i, _reason_for(err_i), att_i)
    elif guard_types:
        cells = _cells_of(raw, n)
    if guard_types:
        healthy = [
            (pos, cell) for pos, cell in enumerate(cells) if pos not in failures
        ]
        for d in deviant_cell_positions([cell for __, cell in healthy]):
            pos = healthy[int(d)][0]
            failures[pos] = (
                TypeError(f"cell type deviates from column majority: {cells[pos]!r}"),
                "corrupt_type",
                1,
            )

    if not failures:
        out = frame.copy()
        # A whole-frame result goes to the frame as the UDF returned it, so
        # its dtype is the same under every policy.
        out[node.name] = raw if ok else cells
        return out, prov

    substitute = policy.keeps_row_on_error
    keep: list[int] = []
    for pos in range(n):
        if pos in failures:
            err_p, reason, att_p = failures[pos]
            quarantine.add(
                node, reason, err_p, prov.row(pos),
                attempts=att_p, substituted=substitute,
            )
            if substitute:
                cells[pos] = policy.default
                keep.append(pos)
        else:
            keep.append(pos)
    positions = np.asarray(keep, dtype=np.int64)
    out = frame.take(positions)
    out[node.name] = [cells[int(pos)] for pos in positions]
    return out, prov.take(positions)


def _filter(
    node: FilterNode,
    frame: DataFrame,
    prov: Provenance,
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance]:
    n = frame.num_rows
    ok, raw, __, __ = _attempt(lambda: node.predicate(frame), policy)
    if ok:
        mask = np.asarray(raw, dtype=bool)
    else:
        mask = np.zeros(n, dtype=bool)
        for pos in range(n):
            row_frame = frame.take([pos])
            ok_i, raw_i, err_i, att_i = _attempt(
                lambda rf=row_frame: node.predicate(rf), policy
            )
            if ok_i:
                mask[pos] = bool(np.asarray(raw_i).reshape(-1)[0])
            else:
                substitute = policy.keeps_row_on_error
                quarantine.add(
                    node, _reason_for(err_i), err_i, prov.row(pos),
                    attempts=att_i, substituted=substitute,
                )
                mask[pos] = bool(policy.default) if substitute else False
    positions = np.flatnonzero(mask)
    return frame.take(positions), prov.take(positions)


def _join_inputs(
    node: JoinNode,
    left: tuple[DataFrame, Provenance],
    right: tuple[DataFrame, Provenance],
) -> tuple[DataFrame, Provenance]:
    """Join two inputs; each output row unites both sides' source tuples."""
    (left_frame, left_prov), (right_frame, right_prov) = left, right
    out, lpos, rpos = left_frame.join(
        right_frame,
        on=node.on,
        how=node.how,
        suffix=node.suffix,
        fuzzy=node.fuzzy,
        return_indices=True,
    )
    return out, Provenance.join(left_prov, lpos, right_prov, rpos)


def _join(
    node: JoinNode,
    left: tuple[DataFrame, Provenance],
    right: tuple[DataFrame, Provenance],
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance]:
    ok, value, __, __ = _attempt(lambda: _join_inputs(node, left, right), policy)
    if ok:
        return value

    # Row-wise fallback: join each left row separately so one poisonous key
    # cannot take down the rest of the batch. (A join has no sensible
    # substitute value, so substitute_default degrades to skip here.)
    left_frame, left_prov = left
    frames: list[DataFrame] = []
    provs: list[Provenance] = []
    for pos in range(left_frame.num_rows):
        single = (left_frame.take([pos]), left_prov.take([pos]))
        ok_i, value_i, err_i, att_i = _attempt(
            lambda s=single: _join_inputs(node, s, right), policy
        )
        if ok_i:
            out_i, prov_i = value_i
            if out_i.num_rows:
                frames.append(out_i)
                provs.append(prov_i)
        else:
            quarantine.add(
                node, _reason_for(err_i), err_i, left_prov.row(pos),
                attempts=att_i,
            )
    if not frames:
        no_rows = np.empty(0, dtype=np.int64)
        return _join_inputs(
            node, (left_frame.take(no_rows), left_prov.take(no_rows)), right
        )
    return DataFrame.concat_rows(frames), Provenance.concat(provs)


def _encode(
    sink: EncodeNode,
    frame: DataFrame,
    prov: Provenance,
    fit: bool,
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance, np.ndarray]:
    """Encode; a non-fail-fast policy quarantines rows with a missing label
    and (with ``guard_nonfinite``) rows whose encoded features are not
    finite."""
    guarded = not policy.is_fail_fast
    if guarded:
        label_mask = frame.column(sink.label_column).isnull()
        if label_mask.any():
            for pos in np.flatnonzero(label_mask):
                quarantine.add(sink, "missing_label", None, prov.row(pos))
            keep = np.flatnonzero(~label_mask)
            frame, prov = frame.take(keep), prov.take(keep)

    encode = sink.encoder.fit_transform if fit else sink.encoder.transform
    ok, X, error, __ = _attempt(lambda: encode(frame), policy)
    if not ok:
        if fit:
            # A failed *fit* cannot be attributed row-wise (the encoder needs
            # the full column to fit at all) — surface it with node context.
            raise OperatorError(
                f"{sink.kind} operator #{sink.id} ({sink.describe()}) failed: "
                f"{error}",
                node_id=sink.id,
                node_kind=sink.kind,
                node_label=sink.describe(),
            ) from error
        # fit=False: transform row-by-row, quarantining the rows that fail.
        keep: list[int] = []
        blocks: list[np.ndarray] = []
        for pos in range(frame.num_rows):
            row_frame = frame.take([pos])
            ok_i, block, err_i, att_i = _attempt(
                lambda rf=row_frame: sink.encoder.transform(rf), policy
            )
            if ok_i:
                keep.append(pos)
                blocks.append(np.asarray(block, dtype=float))
            else:
                quarantine.add(
                    sink, _reason_for(err_i), err_i, prov.row(pos),
                    attempts=att_i,
                )
        positions = np.asarray(keep, dtype=np.int64)
        frame, prov = frame.take(positions), prov.take(positions)
        width = blocks[0].shape[1] if blocks else 0
        X = np.vstack(blocks) if blocks else np.empty((0, width))

    X = np.asarray(X, dtype=float)
    if guarded and policy.guard_nonfinite and X.size:
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            for pos in np.flatnonzero(bad):
                quarantine.add(
                    sink,
                    "nonfinite",
                    ValueError("encoded feature vector contains non-finite values"),
                    prov.row(pos),
                )
            keep = np.flatnonzero(~bad)
            frame, prov, X = frame.take(keep), prov.take(keep), X[keep]
    return frame, prov, X


@dataclass
class _Run:
    """What one :func:`execute` call threads through the operator DAG."""

    sources: Mapping[str, DataFrame]
    fit: bool
    cache: dict[int, tuple[DataFrame, Provenance]]
    policy: ExecutionPolicy
    monitor: PipelineMonitor | None
    quarantine: Quarantine = field(default_factory=Quarantine)

    def output(self, node: Node) -> tuple[DataFrame, Provenance]:
        """A non-sink node's result: from the cache, or evaluated and cached."""
        if node.id in self.cache:
            if _obs.enabled():
                _obs_metrics.counter("pipeline.node_cache.hits").inc()
            return self.cache[node.id]
        if isinstance(node, EncodeNode):
            raise TypeError("EncodeNode must be the sink of a pipeline")
        self.cache[node.id] = self.evaluate(node)
        return self.cache[node.id]

    def evaluate(self, node: Node) -> tuple:
        """Evaluate one operator over its inputs' results, in its own span.

        The monitor folds the node's output frame in *after* the span
        closed, timed before profiling starts, so its cost is excluded from
        the node latency it records and it can never change what the
        pipeline computes.
        """
        inputs = [self.output(parent) for parent in node.inputs]
        rows_in = inputs[0][0].num_rows if inputs else None
        t0 = time.perf_counter() if self.monitor is not None else 0.0
        with _node_span(node, rows_in) as sp:
            result = self._apply(node, inputs, self.policy.resolve(node))
            sp.set(rows_out=result[0].num_rows)
        if self.monitor is not None:
            frame = result[0]
            self.monitor.observe_node(
                node,
                frame.num_rows if rows_in is None else rows_in,
                frame,
                time.perf_counter() - t0,
            )
        return result

    def _apply(self, node: Node, inputs: list, policy: ErrorPolicy) -> tuple:
        if isinstance(node, SourceNode):
            if node.name not in self.sources:
                raise KeyError(
                    f"no input bound for source {node.name!r}; "
                    f"have {sorted(self.sources)}"
                )
            frame = self.sources[node.name]
            return frame, Provenance.for_source(node.name, frame.row_ids)
        if isinstance(node, JoinNode):
            return _join(node, inputs[0], inputs[1], policy, self.quarantine)
        frame, prov = inputs[0]
        if isinstance(node, FilterNode):
            return _filter(node, frame, prov, policy, self.quarantine)
        if isinstance(node, MapNode):
            return _map(node, frame, prov, policy, self.quarantine)
        if isinstance(node, ProjectNode):
            return frame.select(node.columns), prov
        if isinstance(node, EncodeNode):
            return _encode(node, frame, prov, self.fit, policy, self.quarantine)
        raise TypeError(f"unknown node type: {type(node).__name__}")  # pragma: no cover


def execute(
    sink: Node,
    sources: Mapping[str, DataFrame],
    fit: bool = True,
    cache: dict[int, tuple[DataFrame, Provenance]] | None = None,
    policy: ExecutionPolicy | None = None,
    monitor: PipelineMonitor | bool | None = None,
) -> PipelineResult:
    """Run the pipeline ending at ``sink`` over concrete source frames.

    Parameters
    ----------
    fit:
        When True, feature encoders are (re)fitted on this run's data; when
        False they must already be fitted (used to push validation/test data
        through a pipeline fitted on training data).
    cache:
        Optional node-result cache keyed by node id. Passing the same dict
        across several ``execute`` calls shares the work of common subplans —
        the mechanism behind what-if analysis (:mod:`repro.pipeline.whatif`).
        Only valid when the calls bind the *same* source frames and policy.
    policy:
        The :class:`~repro.pipeline.resilience.ExecutionPolicy` every node
        runs under; ``None`` means ``ExecutionPolicy()``, fail-fast at every
        node. A node under a fail-fast policy re-raises its operator's own
        exception, once the policy's retries are spent. Under a non-fail-fast
        policy, rows an operator cannot process are dropped into
        ``result.quarantine`` (or patched with the policy's default) instead
        of aborting the run, and the map type guard and the encode label and
        non-finite guards run. The one failure no row-wise fallback can
        absorb, a failed encoder fit, raises
        :class:`~repro.pipeline.resilience.OperatorError` there.
    monitor:
        Optional :class:`~repro.obs.quality.PipelineMonitor` (or ``True``
        for a throwaway instance). Every node then emits a
        :class:`~repro.obs.quality.NodeQualityProfile` of its output frame
        — completeness, distinctness, histograms, categorical top-k —
        collected into ``result.quality_profiles`` (and into the monitor,
        which streams across runs that share it). Monitoring observes node
        outputs after the fact and never changes what is computed.
    """
    if policy is None:
        policy = ExecutionPolicy()
    if monitor is True:
        monitor = PipelineMonitor()
    elif monitor is False:
        monitor = None
    run = _Run(sources, fit, {} if cache is None else cache, policy, monitor)
    policies = (policy.default, *policy.per_kind.values(), *policy.per_node.values())
    robust = not all(p.is_fail_fast for p in policies)
    with _obs.span("pipeline.execute", fit=fit, robust=robust) as root:
        X = y = None
        if isinstance(sink, EncodeNode):
            frame, prov, X = run.evaluate(sink)
            y = np.asarray(frame.column(sink.label_column).to_list())
        else:
            frame, prov = run.output(sink)
        result = PipelineResult(
            frame=frame, provenance=prov, sink=sink, X=X, y=y,
            quarantine=run.quarantine,
        )
        reachable = {node.id for node in sink.plan.topological_order(sink)}
        result.intermediates = {
            nid: len(entry[1]) for nid, entry in run.cache.items() if nid in reachable
        }
        if run.monitor is not None:
            result.quality_profiles = run.monitor.profiles()
        if _obs.enabled():
            root.set(rows_out=result.n_rows, quarantined=len(run.quarantine))
            _obs_metrics.counter("pipeline.runs").inc()
            _obs_metrics.counter("pipeline.rows_out").inc(result.n_rows)
            if run.monitor is not None:
                _obs_metrics.counter("pipeline.monitored_runs").inc()
    return result


def execute_robust(
    sink: Node,
    sources: Mapping[str, DataFrame],
    fit: bool = True,
    policy: ExecutionPolicy | None = None,
    monitor: PipelineMonitor | bool | None = None,
    **policy_overrides: Any,
) -> PipelineResult:
    """Run a pipeline with row-level quarantine instead of fail-fast crashes.

    Equivalent to ``execute(sink, sources, fit, policy=ExecutionPolicy.robust())``
    — every operator skips-and-quarantines rows it cannot process (UDF
    exceptions, poisonous join keys, timeouts, silently corrupted cells),
    retrying transient failures once. Each quarantined row keeps its
    why-provenance, so it feeds straight back into the Identify tooling::

        result = nde.execute_robust(sink, sources)
        bad_ids = result.quarantine.row_ids("train_df")   # identified errors
        report = result.quarantine.to_error_report("train_df")

    Keyword overrides are forwarded to :meth:`ExecutionPolicy.robust` (e.g.
    ``max_retries=3, timeout=0.5``). ``monitor`` (an ``nde.monitor()``
    object, or ``True`` for a default one) streams per-node data-quality
    profiles into ``result.quality_profiles``, exactly as in :func:`execute`.
    """
    if policy is None:
        policy = ExecutionPolicy.robust(**policy_overrides)
    elif policy_overrides:
        raise TypeError("pass either a policy or overrides, not both")
    return execute(sink, sources, fit=fit, policy=policy, monitor=monitor)


def with_provenance(
    sink: Node, sources: Mapping[str, DataFrame]
) -> tuple[np.ndarray, np.ndarray, Provenance, PipelineResult]:
    """Paper-style convenience: ``X, y, prov = nde.with_provenance(pipeline(...))``."""
    result = execute(sink, sources, fit=True)
    if result.X is None:
        raise TypeError("with_provenance requires a pipeline ending in encode()")
    return result.X, result.y, result.provenance, result


def incremental_append(
    result: PipelineResult, delta_sources: Mapping[str, DataFrame]
) -> PipelineResult:
    """Maintain a pipeline output when new rows arrive at a source.

    The survey's Debug take-away points at incremental view maintenance:
    because every relational operator here is monotone (select-project-join),
    appending rows to a source only *adds* output rows. The delta is computed
    by pushing just the new rows through the fitted pipeline (``fit=False``)
    and concatenating — no re-processing of the existing data.

    Parameters
    ----------
    result:
        A previous run whose encoders are already fitted.
    delta_sources:
        The same source bindings as the original run, except the appended
        source(s) contain *only the new rows* (with fresh row ids). An empty
        delta (or one whose rows are all filtered away) is a no-op.

    Returns a result equal to re-running the pipeline over the concatenated
    sources with ``fit=False`` (a property the tests verify).
    """
    if result.X is None or result.y is None:
        raise ValueError("incremental_append requires an encoded pipeline result")
    delta = execute(result.sink, delta_sources, fit=False)
    if delta.frame.num_rows == 0:
        # Nothing survived the pipeline: the maintained view is unchanged.
        return PipelineResult(
            frame=result.frame,
            provenance=result.provenance,
            sink=result.sink,
            X=result.X,
            y=result.y,
            intermediates=dict(result.intermediates),
            quarantine=Quarantine.merge([result.quarantine, delta.quarantine]),
        )
    combined_frame = DataFrame.concat_rows([result.frame, delta.frame])
    combined_prov = Provenance.concat([result.provenance, delta.provenance])
    return PipelineResult(
        frame=combined_frame,
        provenance=combined_prov,
        sink=result.sink,
        X=np.vstack([result.X, delta.X]),
        y=np.concatenate([result.y, delta.y]),
        intermediates=dict(result.intermediates),
        quarantine=Quarantine.merge([result.quarantine, delta.quarantine]),
    )
