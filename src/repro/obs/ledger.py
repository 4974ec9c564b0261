"""Append-only on-disk run store (JSONL, schema-versioned).

PR 3 gave the runtime in-process tracing and metrics, but every run's
telemetry died with the process. The ledger is the persistence layer: one
JSON line per run, appended atomically, recording everything
:func:`repro.obs.diff.compare_runs` needs to answer "what changed between
yesterday's run and today's?" — config/seed, a dataset fingerprint per
source, per-node quality profiles, the trace skeleton and metric snapshot
of the run's :class:`~repro.obs.report.TraceReport`, the quarantine
summary, and wall time.

Records are schema-versioned and CRC-framed (:func:`repro.obs.atomicio.
frame_line`): each line is a checksummed envelope, so a flipped bit — not
just a torn tail — is detected at load time. Loading is lenient but loud:
unknown fields are ignored, v1 (un-framed) ledgers still load, and corrupt
lines are quarantined to a ``<file>.corrupt`` sidecar with ``storage.*``
metrics and an alert (see :func:`repro.obs.atomicio.read_jsonl`) instead
of being skipped silently.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from .atomicio import LoadReport, atomic_append_line, frame_line, read_jsonl
from .quality import NodeQualityProfile, PipelineMonitor, fingerprint_frame

__all__ = ["RunRecord", "RunLedger", "LEDGER_SCHEMA_VERSION"]

#: Bump when the record layout changes incompatibly; readers keep ignoring
#: unknown fields either way.
LEDGER_SCHEMA_VERSION = 1


@dataclass
class RunRecord:
    """One ledger line: everything observed about a single run.

    ``kind`` distinguishes what produced the record — ``"pipeline"`` runs
    carry node profiles and dataset fingerprints; ``"cleaning"`` and
    ``"valuation"`` records (the hooks in :func:`repro.cleaning.iterative.
    iterative_cleaning` and :class:`repro.importance.engine.
    ValuationEngine`) carry their loop statistics in ``stats``.
    """

    run_id: str
    kind: str = "pipeline"
    schema_version: int = LEDGER_SCHEMA_VERSION
    created_at: float = 0.0
    config: dict[str, Any] = field(default_factory=dict)
    dataset: dict[str, Any] = field(default_factory=dict)
    nodes: dict[str, Any] = field(default_factory=dict)
    trace: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    quarantine: dict[str, Any] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)
    rows_out: int | None = None
    wall_time_s: float | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    def node_profiles(self) -> dict[str, NodeQualityProfile]:
        """Per-node quality profiles, rebuilt as typed objects."""
        return {
            key: NodeQualityProfile.from_dict(payload)
            for key, payload in self.nodes.items()
        }

    @property
    def quarantine_rate(self) -> float:
        """Quarantined rows per produced row (0.0 when nothing recorded)."""
        total = self.quarantine.get("total", 0)
        denominator = (self.rows_out or 0) + total
        return total / denominator if denominator else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "config": self.config,
            "dataset": self.dataset,
            "nodes": self.nodes,
            "trace": self.trace,
            "metrics": self.metrics,
            "quarantine": self.quarantine,
            "stats": self.stats,
            "rows_out": self.rows_out,
            "wall_time_s": self.wall_time_s,
            "tags": self.tags,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        """Rebuild from a parsed line, ignoring unknown fields."""
        known = set(cls.__dataclass_fields__)
        data = {k: v for k, v in payload.items() if k in known}
        data.setdefault("run_id", "")
        return cls(**data)


#: Sequence number of this process's default run ids.
_RUN_SEQ = itertools.count(1)


def _default_run_id(kind: str) -> str:
    """A fresh run id that reads nothing from the ledger: a per-process
    sequence number, the clock and the pid."""
    stamp = time.time_ns() & 0xFFFFFFFF
    return f"{kind}-{next(_RUN_SEQ):04d}-{stamp:08x}-{os.getpid()}"


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord`\\ s.

    ::

        ledger = nde.RunLedger("runs.jsonl")
        monitor = nde.monitor()
        with nde.tracing() as report:
            result = nde.execute_robust(sink, sources, monitor=monitor)
        ledger.record_run(
            result, monitor=monitor, sources=sources,
            config={"seed": 0}, report=report,
        )
        diff = nde.compare_runs(*ledger.last(2))

    The file is created lazily on first append; ``load`` re-reads from
    disk every time (the ledger is the source of truth, not this object).
    """

    def __init__(self, path: Any) -> None:
        self.path = Path(path)
        #: Accounting for the most recent :meth:`load` (quarantine counts,
        #: alerts); ``None`` until the first load.
        self.last_load_report: LoadReport | None = None

    # -- write -----------------------------------------------------------
    def append(self, record: RunRecord) -> RunRecord:
        """Append one CRC-framed record (one JSON line) durably.

        The write goes through :func:`repro.obs.atomicio.atomic_append_line`
        (in place on an ``O_APPEND`` descriptor under the ledger's advisory
        lock, then fsync), so it costs O(record) however long the ledger
        is, and an acknowledged append survives power loss. The validating
        :meth:`load` never reports an append still in flight as torn; it
        quarantines the line a writer killed mid-append left behind, and
        any line corrupted after the fact.
        """
        if not record.created_at:
            record.created_at = time.time()
        atomic_append_line(self.path, frame_line(record.to_dict()))
        return record

    def record_run(
        self,
        result: Any = None,
        monitor: PipelineMonitor | None = None,
        sources: Mapping[str, Any] | None = None,
        config: Mapping[str, Any] | None = None,
        report: Any = None,
        run_id: str | None = None,
        wall_time_s: float | None = None,
        tags: Mapping[str, Any] | None = None,
    ) -> RunRecord:
        """Build and append a ``"pipeline"`` record from the run's artifacts.

        Parameters
        ----------
        result:
            A :class:`~repro.pipeline.execute.PipelineResult`; its
            quarantine summary, row count, and (when the run was monitored)
            per-node quality profiles are recorded.
        monitor:
            The :class:`PipelineMonitor` the run was executed with;
            defaults to the profiles already attached to ``result``.
        sources:
            The source frames the run bound — fingerprinted, not stored.
        report:
            A closed :class:`~repro.obs.report.TraceReport`; its span
            skeleton, per-name summary, and metric deltas are recorded.
        """
        nodes: dict[str, Any] = {}
        if monitor is not None:
            nodes = monitor.to_dict()
        elif result is not None and getattr(result, "quality_profiles", None):
            nodes = {
                key: prof.to_dict()
                for key, prof in result.quality_profiles.items()
            }
        quarantine: dict[str, Any] = {}
        rows_out = None
        if result is not None:
            rows_out = int(result.n_rows)
            quarantine = {
                "total": len(result.quarantine),
                "by_reason": result.quarantine.by_reason(),
            }
        trace: dict[str, Any] = {}
        metrics: dict[str, Any] = {}
        if report is not None:
            trace = {
                "span_names": report.span_names(),
                "summary": report.summary(),
                "total_duration_s": report.total_duration(),
            }
            metrics = dict(report.metrics)
            if wall_time_s is None:
                wall_time_s = report.total_duration()
        record = RunRecord(
            run_id=run_id or _default_run_id("run"),
            kind="pipeline",
            config=dict(config or {}),
            dataset={
                name: fingerprint_frame(frame)
                for name, frame in (sources or {}).items()
            },
            nodes=nodes,
            trace=trace,
            metrics=metrics,
            quarantine=quarantine,
            rows_out=rows_out,
            wall_time_s=wall_time_s,
            tags=dict(tags or {}),
        )
        return self.append(record)

    def record_event(
        self,
        kind: str,
        config: Mapping[str, Any] | None = None,
        stats: Mapping[str, Any] | None = None,
        run_id: str | None = None,
        wall_time_s: float | None = None,
        tags: Mapping[str, Any] | None = None,
    ) -> RunRecord:
        """Append a non-pipeline record (cleaning round, valuation, ...)."""
        record = RunRecord(
            run_id=run_id or _default_run_id(kind),
            kind=kind,
            config=dict(config or {}),
            stats=dict(stats or {}),
            wall_time_s=wall_time_s,
            tags=dict(tags or {}),
        )
        return self.append(record)

    # -- read ------------------------------------------------------------
    def load(self) -> list[RunRecord]:
        """Every valid record, in append order.

        Corrupt lines (CRC failures, torn tails, garbage) are quarantined
        to ``<path>.corrupt`` with metrics and an alert — see
        :attr:`last_load_report` for the accounting — and the remaining
        records still load.
        """
        payloads, self.last_load_report = read_jsonl(
            self.path, artifact="ledger"
        )
        return [RunRecord.from_dict(payload) for payload in payloads]

    def last(self, n: int = 1) -> list[RunRecord]:
        """The most recent ``n`` records, oldest first."""
        return self.load()[-n:]

    def get(self, run_id: str) -> RunRecord:
        for record in self.load():
            if record.run_id == run_id:
                return record
        raise KeyError(f"no run {run_id!r} in {self.path}")

    def __len__(self) -> int:
        return len(self.load())

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.load())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r}, runs={len(self)})"
