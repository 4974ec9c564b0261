"""Durable, crash-safe job journal (append-only JSONL).

The journal is the service's write-ahead log: the lifecycle edges of every
job that recovery reads — submission (with the full JSON request), start,
retries, and the terminal state — are appended *before* the in-memory
state moves on. Admission is not journaled: recovery re-enqueues every
submitted job with no terminal record, queued or not, so a ``queued``
record told it nothing (journals that hold one still replay). Per-wave
progress is not journaled either: the engine checkpoint saved at each wave
already holds the watermark durably. Appends go through
:func:`repro.obs.atomicio.atomic_append_line`: in place, under the
cross-process advisory lock, fsync'd before the call returns. Concurrent
writers (a second runtime sharing the journal directory) cannot
interleave, and a SIGKILL mid-append leaves at most one torn last line,
which the next load quarantines and the next append terminates — no
acknowledged record is ever lost.

:meth:`JobJournal.replay` folds the event log into one
:class:`JournalEntry` per job. Entries whose last event is non-terminal are
exactly the jobs a restarted runtime must recover: their requests are
reconstructed from the submission record and re-enqueued, and their engine
checkpoints (keyed by the stable job id) take over from the last durable
watermark. Replay ignores events it does not fold, so journals written
while ``"progress"`` records were still appended replay unchanged.

Records are schema-versioned and CRC-framed (:func:`repro.obs.atomicio.
frame_line`); loading is lenient but loud — unknown fields are ignored, v1
(un-framed) journals still load, and corrupt lines are quarantined to a
``<file>.corrupt`` sidecar with ``storage.*`` metrics and an alert instead
of being skipped silently.

An append costs O(record) however long the journal is, but replay time
and disk use still grow with it. :meth:`JobJournal.compact` bounds them:
it atomically rewrites the log with each *terminal* job collapsed to a
single summary record (non-terminal jobs keep their full event chains —
they are what recovery needs), and :meth:`maybe_compact` applies a
size/record-count trigger, which :meth:`repro.service.runtime.JobRuntime.
recover` invokes on every restart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..obs.atomicio import (
    LoadReport,
    advisory_lock,
    atomic_append_line,
    atomic_writer,
    frame_line,
    read_jsonl,
)
from .job import TERMINAL_STATES, JobRequest, JobState

__all__ = ["JOURNAL_SCHEMA_VERSION", "JobJournal", "JournalEntry"]

#: Auto-compaction triggers (see :meth:`JobJournal.maybe_compact`): compact
#: when the journal holds more than this many records or bytes. ~512
#: events is roughly 80 jobs' worth of lifecycle edges.
COMPACT_MAX_EVENTS = 512
COMPACT_MAX_BYTES = 1 << 20

#: Bump when the event layout changes incompatibly; readers keep ignoring
#: unknown fields either way.
JOURNAL_SCHEMA_VERSION = 1

#: Events that carry a job's terminal state.
_TERMINAL_EVENTS = frozenset(state.value for state in TERMINAL_STATES)


@dataclass
class JournalEntry:
    """Folded view of one job after replaying its journal events."""

    job_id: str
    request: JobRequest | None = None
    state: str = JobState.SUBMITTED.value
    submitted_at: float = 0.0
    attempts: int = 0
    result_summary: dict[str, Any] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in _TERMINAL_EVENTS

    @property
    def recoverable(self) -> bool:
        """In-flight at crash time with enough journaled state to rebuild."""
        return not self.terminal and self.request is not None


class JobJournal:
    """Append-only JSONL write-ahead log of job lifecycle events."""

    def __init__(self, path: Any) -> None:
        self.path = Path(path)
        #: Accounting for the most recent :meth:`events` load (quarantine
        #: counts, alerts); ``None`` until the first load.
        self.last_load_report: LoadReport | None = None
        # Events in the file as of this object's last load or compaction,
        # plus its own appends since: the event-count compaction trigger.
        self._n_events: int | None = None

    # -- write -----------------------------------------------------------
    def record(
        self,
        event: str,
        job_id: str,
        payload: Mapping[str, Any] | None = None,
    ) -> None:
        """Durably append one CRC-framed event line (atomic + locked)."""
        line = frame_line(
            {
                "schema_version": JOURNAL_SCHEMA_VERSION,
                "ts": time.time(),
                "event": str(event),
                "job_id": str(job_id),
                "payload": dict(payload or {}),
            }
        )
        atomic_append_line(self.path, line)
        if self._n_events is not None:
            self._n_events += 1

    # -- read ------------------------------------------------------------
    def events(self) -> list[dict[str, Any]]:
        """Every valid event, in append order.

        Corrupt lines are quarantined to ``<path>.corrupt`` with metrics
        and an alert (see :attr:`last_load_report`); valid records that are
        not journal events (no ``event`` field) are ignored, matching the
        shared-file tolerance the journal has always had.
        """
        payloads, self.last_load_report = read_jsonl(
            self.path, artifact="journal"
        )
        events = [
            payload
            for payload in payloads
            if isinstance(payload, dict) and payload.get("event")
        ]
        self._n_events = len(events)
        return events

    def replay(self) -> dict[str, JournalEntry]:
        """Fold the event log into the latest per-job state, in job order.

        The fold is tolerant by construction: events for jobs whose
        submission line is missing (pre-truncated journals) still produce
        an entry, just one that is not :attr:`~JournalEntry.recoverable`.
        """
        return self._fold(self.events())

    @staticmethod
    def _fold(records: list[dict[str, Any]]) -> dict[str, JournalEntry]:
        entries: dict[str, JournalEntry] = {}
        for record in records:
            job_id = str(record["job_id"])
            event = str(record["event"])
            payload = record.get("payload") or {}
            entry = entries.setdefault(job_id, JournalEntry(job_id=job_id))
            if event == "submitted":
                try:
                    entry.request = JobRequest.from_dict(
                        payload.get("request", {})
                    )
                except (TypeError, ValueError):
                    entry.request = None
                entry.submitted_at = float(record.get("ts", 0.0))
            elif event == "started":
                entry.attempts = int(payload.get("attempt", entry.attempts)) + 1
                entry.state = JobState.RUNNING.value
            elif event == "queued":  # written by older runtimes
                entry.state = JobState.QUEUED.value
            elif event in _TERMINAL_EVENTS:
                entry.state = event
                entry.result_summary = dict(payload)
            # "retrying", "deduplicated", "recovered", and the "progress"
            # records of older journals, change nothing: the next
            # started/terminal event carries state.
        return entries

    def in_flight(self) -> list[JournalEntry]:
        """Recoverable (accepted, non-terminal) jobs, in submission order."""
        return [
            entry for entry in self.replay().values() if entry.recoverable
        ]

    # -- compaction ------------------------------------------------------
    def compact(self) -> dict[str, Any]:
        """Atomically rewrite the journal with terminal jobs collapsed.

        Appends stay O(record), but an ever-growing journal makes every
        replay slower and takes ever more disk; compaction bounds both.
        It loads the log once and rewrites it under the cross-process
        advisory lock (the loader re-enters that lock): each job that
        reached a terminal state is collapsed to one summary record carrying
        its folded result (``payload.compacted_events`` counts the collapsed
        lines); every record of a *non-terminal* job is kept verbatim, so
        :meth:`replay`/:meth:`in_flight` recover exactly the same jobs
        before and after. Returns the compaction stats.
        """
        stats = {
            "events_before": 0,
            "events_after": 0,
            "bytes_before": 0,
            "bytes_after": 0,
            "jobs_terminal": 0,
            "jobs_active": 0,
        }
        with advisory_lock(self.path):
            if not self.path.exists():
                return stats
            stats["bytes_before"] = self.path.stat().st_size
            records = self.events()
            stats["events_before"] = len(records)
            # Group the raw records per job to rewrite non-terminal chains.
            by_job: dict[str, list[dict[str, Any]]] = {}
            for record in records:
                by_job.setdefault(str(record["job_id"]), []).append(record)
            entries = self._fold(records)
            lines: list[str] = []
            for job_id, job_records in by_job.items():
                if job_id == "-":
                    # Bookkeeping records (recovery audits) are not jobs:
                    # keep only the newest so restarts do not accumulate.
                    lines.append(frame_line(job_records[-1]))
                    continue
                entry = entries.get(job_id)
                if entry is not None and entry.terminal:
                    stats["jobs_terminal"] += 1
                    last = job_records[-1]
                    lines.append(
                        frame_line(
                            {
                                "schema_version": JOURNAL_SCHEMA_VERSION,
                                "ts": float(last.get("ts", 0.0)),
                                "event": entry.state,
                                "job_id": job_id,
                                "payload": {
                                    **entry.result_summary,
                                    "compacted_events": len(job_records),
                                },
                            }
                        )
                    )
                else:
                    stats["jobs_active"] += 1
                    lines.extend(frame_line(record) for record in job_records)
            stats["events_after"] = self._n_events = len(lines)
            with atomic_writer(self.path) as handle:
                for line in lines:
                    handle.write(line + "\n")
            stats["bytes_after"] = self.path.stat().st_size
        return stats

    def maybe_compact(
        self,
        max_events: int = COMPACT_MAX_EVENTS,
        max_bytes: int = COMPACT_MAX_BYTES,
    ) -> dict[str, Any] | None:
        """Run :meth:`compact` when the journal exceeds either trigger.

        A journal over the byte bound compacts after one ``stat``. Under
        it, the events are counted from this object's last load or
        compaction plus its own appends since (a runtime's
        :meth:`~repro.service.runtime.JobRuntime.recover` has just loaded
        the journal), or from a fresh load when it has made none. Returns
        the stats when compaction ran, else None.
        """
        if not self.path.exists():
            return None
        if self.path.stat().st_size <= max_bytes:
            if self._n_events is None:
                self.events()
            if self._n_events <= max_events:
                return None
        return self.compact()

    def __len__(self) -> int:
        return len(self.events())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobJournal({str(self.path)!r}, events={len(self)})"
