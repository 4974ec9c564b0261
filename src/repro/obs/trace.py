"""Hierarchical tracing: spans, a recorder, and zero-cost disabled mode.

The paper's Debug pillar rests on being able to *see inside* a pipeline
(mlinspect/ArgusEyes-style inspection); this module gives the runtime the
same property. A :class:`Span` is one timed region of work (an operator
evaluation, a permutation wave, a cleaning round) with a name, attributes,
and a parent — together they form the trace tree that
:class:`repro.obs.report.TraceReport` renders.

Design constraints, in order:

no overhead when disabled
    Tracing is off by default. Every instrumentation site goes through
    :func:`span` (or :func:`traced`), whose disabled path is a single
    module-global flag check returning a shared no-op singleton — no
    allocation, no lock, no clock read. The engine benchmark asserts the
    end-to-end cost of this path is < 5% of the workload.

thread- and fork-safety, with worker backhaul
    Completed spans are appended under a lock; the *active* span stack is
    ``threading.local`` so concurrent threads build disjoint subtrees.
    Forked worker fleets (the :class:`~repro.importance.engine.
    ValuationEngine`'s worker pools and :func:`parallel_map`) inherit the
    recorder; the first recording in a forked child detects the PID
    change and starts a fresh buffer so parent spans are never duplicated.
    Child spans are **not** lost: workers wrap each chunk in a
    :class:`WorkerTelemetry` capture whose :meth:`~WorkerTelemetry.collect`
    delta (finished spans + metric deltas) rides the existing result pipe
    back to the driver, where :func:`merge_worker_telemetry` adopts the
    spans into the live trace under a ``worker[i]`` group span and folds
    the metrics into the registry. If a process records spans after a fork
    with no backhaul capture active, the spans are counted (shipped as
    ``dropped`` at the next merge, surfacing driver-side as the
    ``obs.trace.dropped_fork_spans`` counter) and a one-time
    :class:`RuntimeWarning` is emitted instead of silence.

deterministic structure
    Span ids are a monotone counter and spans are recorded in start order
    (pre-order of the tree), so for a fixed-seed workload the sequence of
    ``(name, parent)`` pairs — though not the timings — is reproducible
    and directly assertable in tests.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from . import flight as _flight
from . import metrics as _metrics

__all__ = [
    "Span",
    "TraceRecorder",
    "WorkerTelemetry",
    "TRACE_SCHEMA_VERSION",
    "enabled",
    "enable",
    "disable",
    "span",
    "traced",
    "add_attrs",
    "current_span",
    "get_recorder",
    "merge_worker_telemetry",
    "read_trace_export",
]

#: Version stamped into every trace JSONL export (header line). Readers
#: must ignore unknown fields, so this only gates *incompatible* changes.
#: v2: spans may be adopted from worker processes (``worker[i]`` groups);
#: histogram metric snapshots carry p50/p95/p99.
TRACE_SCHEMA_VERSION = 2

#: Process-wide on/off switch. Read via :func:`enabled`; instrumentation
#: sites must treat ``False`` as "do nothing at all".
_ENABLED = False

#: True while a :class:`WorkerTelemetry` capture is live in this process —
#: i.e. spans recorded after a fork have a path back to the driver.
#: Gates the fork-drop warning in :meth:`TraceRecorder.start_span`.
_BACKHAUL_ACTIVE = False


@dataclass
class Span:
    """One timed region of work.

    ``start`` is a ``time.perf_counter()`` reading (monotonic, comparable
    only within a process); ``duration`` is ``None`` while the span is
    open. ``parent_id`` is ``None`` for roots.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": _jsonable(self.attrs),
        }


def _jsonable(value: Any) -> Any:
    """Coerce attribute values into JSON-encodable shapes (numpy included)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    # numpy scalars/arrays without importing numpy here (obs is dependency-free)
    if hasattr(value, "tolist"):
        return _jsonable(value.tolist())
    if hasattr(value, "item"):
        return value.item()
    return repr(value)


class TraceRecorder:
    """Collects completed spans; one per process (see :func:`get_recorder`)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._spans: list[Span] = []
        self._next_id = 0
        self._local = threading.local()
        self._forked = False
        self._fork_dropped = 0
        self._fork_warned = False

    # -- fork/thread plumbing -------------------------------------------
    def _guard_fork(self) -> None:
        """Called before any mutation: a PID change means we are a forked
        child that inherited the parent's buffer — start from scratch.
        The child's own spans are shipped back via :class:`WorkerTelemetry`
        (or counted as dropped if no capture is active)."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._spans = []
            self._next_id = 0
            self._local = threading.local()
            self._forked = True
            self._fork_dropped = 0
            self._fork_warned = False

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- span lifecycle -------------------------------------------------
    def start_span(self, name: str, attrs: dict[str, Any]) -> Span:
        with self._lock:
            self._guard_fork()
            if self._forked and not _BACKHAUL_ACTIVE:
                # Recording after a fork with no backhaul capture: the span
                # will never reach the driver's trace. Count it (shipped as
                # "dropped" by the next WorkerTelemetry, if one appears)
                # and say so once instead of losing data silently.
                self._fork_dropped += 1
                if not self._fork_warned:
                    self._fork_warned = True
                    warnings.warn(
                        "tracing after fork without WorkerTelemetry backhaul:"
                        " spans recorded in this process will not reach the"
                        " driver's trace (counted as"
                        " obs.trace.dropped_fork_spans)",
                        RuntimeWarning,
                        stacklevel=3,
                    )
            stack = self._stack()
            parent_id = stack[-1].span_id if stack else None
            span_obj = Span(
                span_id=self._next_id,
                parent_id=parent_id,
                name=name,
                start=time.perf_counter(),
                attrs=attrs,
            )
            self._next_id += 1
            # Recorded at start: the span list is the pre-order traversal
            # of the trace tree, which makes structure assertions trivial.
            self._spans.append(span_obj)
            stack.append(span_obj)
        return span_obj

    def end_span(self, span_obj: Span) -> None:
        end = time.perf_counter()
        with self._lock:
            self._guard_fork()
            span_obj.duration = end - span_obj.start
            stack = self._stack()
            # Pop through (rather than asserting the top) so a span closed
            # out of order — e.g. by a generator finalised late — cannot
            # wedge the stack for the rest of the process.
            while stack and stack[-1].span_id >= span_obj.span_id:
                stack.pop()

    # -- worker-span adoption -------------------------------------------
    def open_group(self, name: str, **attrs: Any) -> Span:
        """Create a grouping span under the current thread's open span
        *without* pushing it on the active stack — the anchor adopted
        worker spans hang from. Its duration starts at zero and is
        stretched by :func:`merge_worker_telemetry` to cover its children.
        """
        with self._lock:
            self._guard_fork()
            stack = self._stack()
            parent_id = stack[-1].span_id if stack else None
            span_obj = Span(
                span_id=self._next_id,
                parent_id=parent_id,
                name=name,
                start=time.perf_counter(),
                duration=0.0,
                attrs=dict(attrs),
            )
            self._next_id += 1
            self._spans.append(span_obj)
        return span_obj

    def adopt(
        self,
        span_dicts: list[dict[str, Any]],
        parent_id: int | None,
        offset: float = 0.0,
    ) -> list[Span]:
        """Append spans shipped from another process.

        Spans are re-identified with this recorder's counter; parent links
        *within* the batch are remapped, and batch roots are parented under
        ``parent_id``. ``offset`` rebases the shipping process's
        ``perf_counter`` timeline onto this one (driver now minus the
        worker's clock reading at collection time)."""
        adopted: list[Span] = []
        with self._lock:
            self._guard_fork()
            id_map: dict[Any, int] = {}
            for item in span_dicts:
                span_obj = Span(
                    span_id=self._next_id,
                    parent_id=id_map.get(item.get("parent_id"), parent_id),
                    name=str(item.get("name", "?")),
                    start=float(item.get("start", 0.0)) + offset,
                    duration=item.get("duration"),
                    attrs=dict(item.get("attrs") or {}),
                )
                self._next_id += 1
                id_map[item.get("span_id")] = span_obj.span_id
                self._spans.append(span_obj)
                adopted.append(span_obj)
        return adopted

    # -- introspection / export -----------------------------------------
    @property
    def spans(self) -> list[Span]:
        with self._lock:
            self._guard_fork()
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            self._guard_fork()
            return len(self._spans)

    def current(self) -> Span | None:
        with self._lock:
            self._guard_fork()
            stack = self._stack()
            return stack[-1] if stack else None

    def reset(self) -> None:
        with self._lock:
            self._guard_fork()
            self._spans = []
            self._next_id = 0
            self._local = threading.local()
            self._fork_dropped = 0

    def export_jsonl(self, path: Any) -> int:
        """Write a schema-version header then one JSON object per completed
        span, atomically and CRC-framed (:func:`repro.obs.atomicio.
        write_export`); returns the span count. :func:`read_trace_export`
        reads it back."""
        from .atomicio import write_export

        spans = [s for s in self.spans if s.finished]
        write_export(
            path,
            {
                "schema_version": TRACE_SCHEMA_VERSION,
                "kind": "trace_recorder",
                "n_spans": len(spans),
            },
            (span_obj.to_dict() for span_obj in spans),
        )
        return len(spans)


def read_trace_export(path: Any) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load one trace export: ``(header, span_dicts)``.

    Reads through the shared validating reader (:func:`repro.obs.atomicio.
    read_export`): damaged lines are quarantined, and a damaged or missing
    header yields ``{}``.
    """
    from .atomicio import read_export

    return read_export(path, "trace_recorder", "trace")


_RECORDER = TraceRecorder()


def get_recorder() -> TraceRecorder:
    """The process-wide recorder every span lands in."""
    return _RECORDER


# ---------------------------------------------------------------------- #
# cross-process telemetry backhaul                                       #
# ---------------------------------------------------------------------- #
class WorkerTelemetry:
    """Child-side capture buffering spans + metric deltas for backhaul.

    A worker constructs one when it starts (or resumes) telemetry-carrying
    work; :meth:`collect` drains everything recorded since the last drain
    into a small JSON-safe delta that rides the existing result pipe back
    to the driver (``(chunk_id, result, telemetry_delta)``), where
    :func:`merge_worker_telemetry` folds it into the live trace tree and
    metrics registry. Constructing one marks backhaul as active for the
    process, which silences the fork-drop warning.
    """

    def __init__(self, enable_tracing: bool = False) -> None:
        global _BACKHAUL_ACTIVE
        _BACKHAUL_ACTIVE = True
        if enable_tracing:
            enable()
        rec = _RECORDER
        with rec._lock:
            rec._guard_fork()
            self._base = len(rec._spans)
        self._metrics_before = _metrics.snapshot()

    def collect(self) -> dict[str, Any] | None:
        """Drain finished spans and metric deltas since the last drain.

        Shipped spans are removed from the child recorder (unfinished ones
        stay for the next drain) so a long-lived pool worker's buffer stays
        bounded across thousands of chunks. Returns ``None`` when there is
        nothing to ship."""
        rec = _RECORDER
        with rec._lock:
            rec._guard_fork()
            tail = rec._spans[self._base:]
            shipped = [s.to_dict() for s in tail if s.finished]
            rec._spans[self._base:] = [s for s in tail if not s.finished]
            dropped = rec._fork_dropped
            rec._fork_dropped = 0
        after = _metrics.snapshot()
        metrics_delta = _metrics.delta_snapshots(self._metrics_before, after)
        self._metrics_before = after
        if not shipped and not metrics_delta and not dropped:
            return None
        return {
            "pid": os.getpid(),
            "clock": time.perf_counter(),
            "spans": shipped,
            "metrics": metrics_delta,
            "dropped": dropped,
        }


def merge_worker_telemetry(
    slot: int,
    delta: dict[str, Any] | None,
    groups: dict[int, Span] | None = None,
) -> None:
    """Driver-side merge of one worker's shipped telemetry delta.

    Metric deltas fold into the process registry (Chan-style merge);
    ``dropped`` counts surface as the ``obs.trace.dropped_fork_spans``
    counter; spans are adopted — clock-rebased onto the driver timeline —
    under a lazily-created ``worker[slot]`` group span parented beneath
    the caller's current open span. Pass one ``groups`` dict per dispatch
    wave so every chunk a worker evaluated lands under a single
    ``worker[slot]`` parent, and every adopted span is echoed into the
    flight recorder so a later crash dump names the worker's recent work.
    """
    if not delta:
        return
    metrics_delta = delta.get("metrics")
    if metrics_delta:
        _metrics.merge_delta(metrics_delta)
    dropped = delta.get("dropped", 0)
    if dropped:
        _metrics.counter("obs.trace.dropped_fork_spans").inc(dropped)
    span_dicts = delta.get("spans") or []
    if not span_dicts or not _ENABLED:
        return
    offset = time.perf_counter() - float(delta.get("clock", 0.0))
    group = groups.get(slot) if groups is not None else None
    if group is None:
        group = _RECORDER.open_group(
            f"worker[{slot}]", pid=delta.get("pid"), slot=slot
        )
        if groups is not None:
            groups[slot] = group
    adopted = _RECORDER.adopt(span_dicts, parent_id=group.span_id, offset=offset)
    if adopted:
        _metrics.counter("obs.trace.worker_spans").inc(len(adopted))
        group_end = group.start + (group.duration or 0.0)
        for span_obj in adopted:
            _flight.record_span(f"worker[{slot}]", span_obj.to_dict())
            group_end = max(group_end, span_obj.start + (span_obj.duration or 0.0))
        group.start = min(group.start, min(s.start for s in adopted))
        group.duration = group_end - group.start


# ---------------------------------------------------------------------- #
# public instrumentation surface                                         #
# ---------------------------------------------------------------------- #
class _NullSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    attrs: dict = {}


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager binding one live :class:`Span` to the recorder."""

    __slots__ = ("_span",)

    def __init__(self, span_obj: Span) -> None:
        self._span = span_obj

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        _RECORDER.end_span(self._span)

    def set(self, **attrs: Any) -> "_ActiveSpan":
        self._span.set(**attrs)
        return self

    @property
    def attrs(self) -> dict:
        return self._span.attrs


def enabled() -> bool:
    """Fast flag check — the entire cost of instrumentation when off."""
    return _ENABLED


def enable() -> None:
    """Turn tracing (and metric emission at instrumented sites) on."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def span(name: str, **attrs: Any):
    """Open a span::

        with obs.span("node.map#3", rows=120) as s:
            ...
            s.set(rows_out=118)

    Disabled mode returns a shared no-op object without touching the
    recorder or the clock.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _ActiveSpan(_RECORDER.start_span(name, dict(attrs)))


def traced(name_or_fn: Any = None, **span_attrs: Any) -> Callable:
    """Decorator form of :func:`span`.

    Usable bare (``@traced``) or configured (``@traced("my.name", tag=1)``);
    defaults the span name to the function's qualified name. The disabled
    path is one flag check before delegating to the wrapped function.
    """
    import functools

    def decorate(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not _ENABLED:
                return fn(*args, **kwargs)
            with span(label, **span_attrs):
                return fn(*args, **kwargs)

        return wrapper

    if callable(name_or_fn):
        name = None
        return decorate(name_or_fn)
    name = name_or_fn
    return decorate


def add_attrs(**attrs: Any) -> None:
    """Attach attributes to the innermost open span (no-op if none/disabled)."""
    if not _ENABLED:
        return
    current = _RECORDER.current()
    if current is not None:
        current.set(**attrs)


def current_span() -> Span | None:
    """The innermost open span of this thread, or ``None``."""
    if not _ENABLED:
        return None
    return _RECORDER.current()
