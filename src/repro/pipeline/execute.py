"""Provenance-tracking pipeline execution.

:func:`execute` walks an operator DAG, carrying a
:class:`~repro.pipeline.provenance.Provenance` alongside every intermediate
frame. The result bundles the encoded training matrix, labels, pre-encode
frame, and the output-row-to-source-tuple provenance — everything the
debugging tools of Section 2.2 consume.

Execution is fail-fast by default (one bad row aborts the run, exactly the
seed behaviour). Passing an :class:`~repro.pipeline.resilience.ExecutionPolicy`
— or calling :func:`execute_robust` — turns operator failures into
quarantined, provenance-attributed rows instead: the executor keeps the
vectorised fast path and only drops to row-wise evaluation for an operator
whose whole-frame evaluation raised, so clean data pays nothing.
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
# Guard helpers for policy-driven execution
# ----------------------------------------------------------------------
def _attempt(
    fn: Callable[[], Any], policy: ErrorPolicy
) -> tuple[bool, Any, BaseException | None, int]:
    """Run ``fn`` under the policy's retry/timeout guards.

    Returns ``(ok, value, error, attempts)`` — never raises, so callers
    decide between fail-fast re-raise and quarantine.
    """
    try:
        value, attempts = retry_call(fn, policy)
        return True, value, None, attempts
    except BaseException as exc:  # noqa: BLE001 - dispatched by policy
        attempts = policy.max_retries + 1 if isinstance(exc, policy.retry_on) else 1
        return False, None, exc, attempts


def _operator_error(node: Node, error: BaseException) -> OperatorError:
    wrapped = OperatorError(
        f"{node.kind} operator #{node.id} ({node.describe()}) failed: {error}",
        node_id=node.id,
        node_kind=node.kind,
        node_label=node.describe(),
    )
    wrapped.__cause__ = error
    return wrapped


def _cells_of(raw: Any, n_rows: int) -> list:
    """Normalise a map-UDF result into a list of ``n_rows`` cells."""
    from ..frame.column import Column

    if isinstance(raw, Column):
        cells = raw.to_list()
    elif isinstance(raw, np.ndarray):
        cells = list(raw)
    else:
        cells = list(raw)
    if len(cells) != n_rows:
        raise ValueError(f"map produced {len(cells)} cells, expected {n_rows}")
    return cells


def _scalar(raw: Any) -> Any:
    """Extract the single cell from a map-UDF result over a one-row frame."""
    return _cells_of(raw, 1)[0]


def _node_span(node: Node, rows_in: int | None = None):
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


def _monitor_clock(monitor: PipelineMonitor | None) -> float:
    """Timestamp for per-node monitor timing; 0.0 (no clock read) when off."""
    return time.perf_counter() if monitor is not None else 0.0


def _monitor_observe(
    monitor: PipelineMonitor | None,
    node: Node,
    rows_in: int,
    frame: DataFrame,
    t0: float,
) -> None:
    """Fold a node's output frame into the monitor *after* its span closed.

    The elapsed time is taken before profiling starts, so the monitor's own
    cost is excluded from the node latency it records — and observation
    happens strictly after the node's result exists, so monitoring can
    never change what the pipeline computes.
    """
    if monitor is not None:
        monitor.observe_node(node, rows_in, frame, time.perf_counter() - t0)


_TIMEOUT_REASON = {True: "timeout", False: "error"}


def _reason_for(error: BaseException) -> str:
    from .resilience import OperatorTimeoutError

    return _TIMEOUT_REASON[isinstance(error, OperatorTimeoutError)]


def _run_map_guarded(
    node: MapNode,
    frame: DataFrame,
    prov: Provenance,
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance]:
    n = frame.num_rows
    ok, raw, error, attempts = _attempt(lambda: node.func(frame), policy)
    if not ok and policy.is_fail_fast:
        raise _operator_error(node, error)

    failures: dict[int, tuple[BaseException | None, str, int]] = {}
    if ok:
        cells = _cells_of(raw, n)
    else:
        # Whole-frame evaluation failed: isolate the poisonous rows by
        # re-evaluating the UDF over one-row frames.
        cells = [None] * n
        for pos in range(n):
            row_frame = frame.take([pos])
            ok_i, raw_i, err_i, att_i = _attempt(
                lambda rf=row_frame: node.func(rf), policy
            )
            if ok_i:
                cells[pos] = _scalar(raw_i)
            else:
                failures[pos] = (err_i, _reason_for(err_i), att_i)

    if policy.guard_types:
        healthy = [
            (pos, cell) for pos, cell in enumerate(cells) if pos not in failures
        ]
        deviants = deviant_cell_positions([cell for __, cell in healthy])
        for d in deviants:
            pos = healthy[int(d)][0]
            failures[pos] = (
                TypeError(f"cell type deviates from column majority: {cells[pos]!r}"),
                "corrupt_type",
                1,
            )

    if not failures:
        if ok:
            # Clean vectorised run: hand the raw result straight to the
            # frame so dtype behaviour matches fail-fast execution exactly.
            out = frame.copy()
            out[node.name] = raw
            return out, prov
        out = frame.copy()
        out[node.name] = cells
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


def _run_filter_guarded(
    node: FilterNode,
    frame: DataFrame,
    prov: Provenance,
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance]:
    n = frame.num_rows
    ok, raw, error, __ = _attempt(lambda: node.predicate(frame), policy)
    if ok:
        mask = np.asarray(raw, dtype=bool)
    elif policy.is_fail_fast:
        raise _operator_error(node, error)
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


def _join(
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


def _run_join_guarded(
    node: JoinNode,
    left: tuple[DataFrame, Provenance],
    right: tuple[DataFrame, Provenance],
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance]:
    ok, value, error, __ = _attempt(lambda: _join(node, left, right), policy)
    if ok:
        return value
    if policy.is_fail_fast:
        raise _operator_error(node, error)

    # Row-wise fallback: join each left row separately so one poisonous key
    # cannot take down the rest of the batch. (A join has no sensible
    # substitute value, so substitute_default degrades to skip here.)
    left_frame, left_prov = left
    frames: list[DataFrame] = []
    provs: list[Provenance] = []
    for pos in range(left_frame.num_rows):
        single = (left_frame.take([pos]), left_prov.take([pos]))
        ok_i, value_i, err_i, att_i = _attempt(
            lambda s=single: _join(node, s, right), policy
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
        return _join(node, (left_frame.take(no_rows), left_prov.take(no_rows)), right)
    return DataFrame.concat_rows(frames), Provenance.concat(provs)


def _run_node(
    node: Node,
    sources: Mapping[str, DataFrame],
    fit: bool,
    cache: dict[int, tuple[DataFrame, Provenance]],
    policy: ExecutionPolicy | None = None,
    quarantine: Quarantine | None = None,
    monitor: PipelineMonitor | None = None,
) -> tuple[DataFrame, Provenance]:
    if node.id in cache:
        if _obs.enabled():
            _obs_metrics.counter("pipeline.node_cache.hits").inc()
        return cache[node.id]

    node_policy = policy.resolve(node) if policy is not None else None
    # "Strict" means the seed code path: plain fail-fast with no guards.
    strict = node_policy is None or (
        node_policy.is_fail_fast
        and node_policy.max_retries == 0
        and node_policy.timeout is None
    )

    if isinstance(node, SourceNode):
        if node.name not in sources:
            raise KeyError(
                f"no input bound for source {node.name!r}; have {sorted(sources)}"
            )
        t0 = _monitor_clock(monitor)
        with _node_span(node) as sp:
            frame = sources[node.name]
            result = (frame, Provenance.for_source(node.name, frame.row_ids))
            sp.set(rows_out=frame.num_rows)
        _monitor_observe(monitor, node, frame.num_rows, result[0], t0)
    elif isinstance(node, JoinNode):
        left = _run_node(
            node.inputs[0], sources, fit, cache, policy, quarantine, monitor
        )
        right = _run_node(
            node.inputs[1], sources, fit, cache, policy, quarantine, monitor
        )
        t0 = _monitor_clock(monitor)
        with _node_span(node, rows_in=left[0].num_rows) as sp:
            if strict:
                result = _join(node, left, right)
            else:
                result = _run_join_guarded(node, left, right, node_policy, quarantine)
            sp.set(rows_out=result[0].num_rows)
        _monitor_observe(monitor, node, left[0].num_rows, result[0], t0)
    elif isinstance(node, FilterNode):
        frame, prov = _run_node(
            node.inputs[0], sources, fit, cache, policy, quarantine, monitor
        )
        t0 = _monitor_clock(monitor)
        with _node_span(node, rows_in=frame.num_rows) as sp:
            if strict:
                mask = np.asarray(node.predicate(frame), dtype=bool)
                positions = np.flatnonzero(mask)
                result = (frame.take(positions), prov.take(positions))
            else:
                result = _run_filter_guarded(node, frame, prov, node_policy, quarantine)
            sp.set(rows_out=result[0].num_rows)
        _monitor_observe(monitor, node, frame.num_rows, result[0], t0)
    elif isinstance(node, MapNode):
        frame, prov = _run_node(
            node.inputs[0], sources, fit, cache, policy, quarantine, monitor
        )
        t0 = _monitor_clock(monitor)
        with _node_span(node, rows_in=frame.num_rows) as sp:
            if strict:
                out = frame.copy()
                out[node.name] = node.func(frame)
                result = (out, prov)
            else:
                result = _run_map_guarded(node, frame, prov, node_policy, quarantine)
            sp.set(rows_out=result[0].num_rows)
        _monitor_observe(monitor, node, frame.num_rows, result[0], t0)
    elif isinstance(node, ProjectNode):
        frame, prov = _run_node(
            node.inputs[0], sources, fit, cache, policy, quarantine, monitor
        )
        t0 = _monitor_clock(monitor)
        with _node_span(node, rows_in=frame.num_rows) as sp:
            result = (frame.select(node.columns), prov)
            sp.set(rows_out=result[0].num_rows)
        _monitor_observe(monitor, node, frame.num_rows, result[0], t0)
    elif isinstance(node, EncodeNode):
        # Handled by the caller (needs to produce X/y, not a frame).
        raise TypeError("EncodeNode must be the sink; execute() handles it")
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown node type: {type(node).__name__}")

    cache[node.id] = result
    return result


def _encode_guarded(
    sink: EncodeNode,
    frame: DataFrame,
    prov: Provenance,
    fit: bool,
    policy: ErrorPolicy,
    quarantine: Quarantine,
) -> tuple[DataFrame, Provenance, np.ndarray]:
    """Encode under a policy: quarantine missing labels and (optionally)
    rows whose encoded features come out non-finite."""
    if not policy.is_fail_fast:
        label_mask = frame.column(sink.label_column).isnull()
        if label_mask.any():
            for pos in np.flatnonzero(label_mask):
                quarantine.add(sink, "missing_label", None, prov.row(pos))
            keep = np.flatnonzero(~label_mask)
            frame, prov = frame.take(keep), prov.take(keep)

    encode = (
        (lambda: sink.encoder.fit_transform(frame))
        if fit
        else (lambda: sink.encoder.transform(frame))
    )
    ok, X, error, __ = _attempt(encode, policy)
    if not ok:
        if policy.is_fail_fast or fit:
            # A failed *fit* cannot be attributed row-wise (the encoder needs
            # the full column to fit at all) — surface it with node context.
            raise _operator_error(sink, error)
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
    if not policy.is_fail_fast and policy.guard_nonfinite and X.size:
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
        Only valid when the calls bind the *same* source frames (and, when a
        policy is given, the same policy).
    policy:
        Optional :class:`~repro.pipeline.resilience.ExecutionPolicy`. When
        omitted (or when every node resolves to a bare fail-fast policy)
        execution follows the seed fail-fast code path exactly. Under a
        non-fail-fast policy, rows an operator cannot process are dropped
        into ``result.quarantine`` (or patched with the policy's default)
        instead of aborting the run.
    monitor:
        Optional :class:`~repro.obs.quality.PipelineMonitor` (or ``True``
        for a throwaway instance). Every node then emits a
        :class:`~repro.obs.quality.NodeQualityProfile` of its output frame
        — completeness, distinctness, histograms, categorical top-k —
        collected into ``result.quality_profiles`` (and into the monitor,
        which streams across runs that share it). Monitoring observes node
        outputs after the fact and never changes what is computed.
    """
    if cache is None:
        cache = {}
    if monitor is True:
        monitor = PipelineMonitor()
    elif monitor is False:
        monitor = None
    quarantine = Quarantine()
    with _obs.span("pipeline.execute", fit=fit, robust=policy is not None) as root:
        if isinstance(sink, EncodeNode):
            frame, prov = _run_node(
                sink.inputs[0], sources, fit, cache, policy, quarantine, monitor
            )
            sink_policy = policy.resolve(sink) if policy is not None else None
            rows_in = frame.num_rows
            t0 = _monitor_clock(monitor)
            with _node_span(sink, rows_in=rows_in) as sp:
                if sink_policy is None:
                    if fit:
                        X = sink.encoder.fit_transform(frame)
                    else:
                        X = sink.encoder.transform(frame)
                else:
                    frame, prov, X = _encode_guarded(
                        sink, frame, prov, fit, sink_policy, quarantine
                    )
                sp.set(rows_out=frame.num_rows)
            _monitor_observe(monitor, sink, rows_in, frame, t0)
            y = np.asarray(frame.column(sink.label_column).to_list())
            result = PipelineResult(
                frame=frame, provenance=prov, sink=sink, X=X, y=y,
                quarantine=quarantine,
            )
        else:
            frame, prov = _run_node(
                sink, sources, fit, cache, policy, quarantine, monitor
            )
            result = PipelineResult(
                frame=frame, provenance=prov, sink=sink, quarantine=quarantine
            )
        reachable = {node.id for node in sink.plan.topological_order(sink)}
        result.intermediates = {
            nid: len(entry[1]) for nid, entry in cache.items() if nid in reachable
        }
        if monitor is not None:
            result.quality_profiles = monitor.profiles()
        if _obs.enabled():
            root.set(rows_out=result.n_rows, quarantined=len(quarantine))
            _obs_metrics.counter("pipeline.runs").inc()
            _obs_metrics.counter("pipeline.rows_out").inc(result.n_rows)
            if monitor is not None:
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
    — every operator skips-and-quarantines rows it cannot process, retrying
    transient failures once. Keyword overrides are forwarded to
    :meth:`ExecutionPolicy.robust` (e.g. ``max_retries=3, timeout=0.5``).
    ``monitor`` attaches per-node data-quality profiling exactly as in
    :func:`execute`.
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
