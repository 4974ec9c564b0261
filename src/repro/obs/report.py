"""Trace windows: the ``nde.tracing()`` facade and its :class:`TraceReport`.

:class:`tracing` is a context manager that switches observability on for
its body and collects everything recorded inside the window::

    import repro.core as nde

    with nde.tracing() as report:
        result = nde.execute_robust(sink, sources)
        scores = nde.datascope(result, valid_result, method="shapley_mc")

    print(report.render())          # span tree + per-name summary + metrics
    report.save_jsonl("trace.jsonl")
    again = TraceReport.from_jsonl("trace.jsonl")

The report object is handed out at ``__enter__`` and *filled in* at
``__exit__`` — inside the body it is still empty. Windows nest: an inner
``tracing()`` sees only its own spans and metric deltas, and only the
outermost window flips the global flag off again on exit.

A saved report is CRC-framed like every trace export and flight dump,
and loads through the same validating reader (:mod:`repro.obs.atomicio`):
a damaged line is quarantined, not raised.
"""

from __future__ import annotations

from typing import Any

from . import metrics as _metrics
from . import trace as _trace
from .atomicio import read_export, write_export
from .trace import TRACE_SCHEMA_VERSION, Span, _jsonable

__all__ = ["TraceReport", "tracing"]


# What a window contributed: counter/histogram deltas, gauge values.
# Shared with the worker-telemetry backhaul, which ships the same shape
# over the result pipe — the canonical implementation lives in metrics.
_metrics_delta = _metrics.delta_snapshots


class TraceReport:
    """Spans + metric deltas of one :class:`tracing` window."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.metrics: dict[str, dict[str, Any]] = {}
        self.closed = False

    # -- structure -------------------------------------------------------
    def roots(self) -> list[Span]:
        ids = {s.span_id for s in self.spans}
        return [s for s in self.spans if s.parent_id not in ids]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> list[Span]:
        """All spans whose name equals or starts with ``name`` + ``.``/``#``."""
        return [
            s
            for s in self.spans
            if s.name == name or s.name.startswith(name + ".") or s.name.startswith(name + "#")
        ]

    def span_names(self) -> list[str]:
        """Names in recording (pre-)order — the deterministic trace skeleton."""
        return [s.name for s in self.spans]

    def total_duration(self) -> float:
        return sum(s.duration or 0.0 for s in self.roots())

    # -- aggregation ------------------------------------------------------
    def summary(self) -> list[dict[str, Any]]:
        """Per-name aggregate rows: calls, total/mean/max duration, self time.

        "Self" time is a span's duration minus its children's — the flame
        view collapsed to one row per span name, sorted by total time.
        """
        child_total: dict[int, float] = {}
        for s in self.spans:
            if s.parent_id is not None and s.duration is not None:
                child_total[s.parent_id] = child_total.get(s.parent_id, 0.0) + s.duration
        rows: dict[str, dict[str, Any]] = {}
        for s in self.spans:
            if s.duration is None:
                continue
            row = rows.setdefault(
                s.name,
                {"name": s.name, "calls": 0, "total_s": 0.0, "max_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["total_s"] += s.duration
            row["max_s"] = max(row["max_s"], s.duration)
            row["self_s"] += s.duration - child_total.get(s.span_id, 0.0)
        out = sorted(rows.values(), key=lambda r: -r["total_s"])
        for row in out:
            row["mean_s"] = row["total_s"] / row["calls"]
        return out

    # -- rendering --------------------------------------------------------
    def tree(self, max_attrs: int = 4) -> str:
        from ..viz.trace_view import format_trace

        return format_trace(self.spans, max_attrs=max_attrs)

    def summary_table(self) -> str:
        from ..viz.trace_view import format_span_summary

        return format_span_summary(self.summary())

    def metrics_table(self) -> str:
        from ..viz.trace_view import format_metrics

        return format_metrics(self.metrics)

    def render(self) -> str:
        """The full human view: span tree, per-name summary, metric deltas."""
        parts = [self.tree()]
        if len(self.spans) > 1:
            parts += ["", self.summary_table()]
        if self.metrics:
            parts += ["", self.metrics_table()]
        return "\n".join(parts)

    # -- export -----------------------------------------------------------
    def save_jsonl(self, path: Any) -> int:
        """Schema-versioned header line, one line per span, plus a final
        ``{"metrics": ...}`` line, written atomically and CRC-framed like
        every trace export (:func:`repro.obs.atomicio.write_export`);
        returns the span count."""
        write_export(
            path,
            {
                "schema_version": TRACE_SCHEMA_VERSION,
                "kind": "trace_report",
                "n_spans": len(self.spans),
            },
            [
                *(span.to_dict() for span in self.spans),
                {"metrics": _jsonable(self.metrics)},
            ],
        )
        return len(self.spans)

    @classmethod
    def from_jsonl(cls, path: Any) -> "TraceReport":
        """Round-trip loader for :meth:`save_jsonl` files.

        Loads through the shared validating reader (:func:`repro.obs.
        atomicio.read_export`), so a damaged line is quarantined, never
        raised, and reports saved before the lines were framed still load.
        Forward-compatible by construction: unknown keys on span lines are
        dropped, unknown record kinds (a future header field, a new record
        type) are ignored, and files written before the schema-version
        header existed still load. The report comes back ``closed``.
        """
        span_fields = set(Span.__dataclass_fields__)
        report = cls()
        __, records = read_export(path, "trace_report", "trace_report")
        for payload in records:
            if "span_id" in payload:
                known = {k: v for k, v in payload.items() if k in span_fields}
                known.setdefault("parent_id", None)
                known.setdefault("name", "")
                known.setdefault("start", 0.0)
                known.setdefault("attrs", {})
                report.spans.append(Span(**known))
            elif "metrics" in payload:
                report.metrics = payload["metrics"] or {}
            # anything else (future record kinds) is ignored
        report.closed = True
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"TraceReport({state}, spans={len(self.spans)}, metrics={len(self.metrics)})"


class tracing:
    """Enable observability for a ``with`` body and report what happened.

    Parameters
    ----------
    root:
        Optional name for a root span wrapping the whole window, so
        several top-level calls in the body share one tree.
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root
        self.report = TraceReport()
        self._was_enabled = False
        self._start_index = 0
        self._metrics_before: dict[str, dict[str, Any]] = {}
        self._root_span = None

    def __enter__(self) -> TraceReport:
        self._was_enabled = _trace.enabled()
        _trace.enable()
        self._start_index = len(_trace.get_recorder())
        self._metrics_before = _metrics.snapshot()
        if self.root is not None:
            self._root_span = _trace.span(self.root)
            self._root_span.__enter__()
        return self.report

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self._root_span is not None:
            self._root_span.__exit__(exc_type, exc, tb)
        if not self._was_enabled:
            _trace.disable()
        recorder = _trace.get_recorder()
        self.report.spans = recorder.spans[self._start_index :]
        self.report.metrics = _metrics_delta(
            self._metrics_before, _metrics.snapshot()
        )
        self.report.closed = True
