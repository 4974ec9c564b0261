"""Crash flight recorder: a bounded ring of recent events, dumped on failure.

A post-mortem after a worker SIGKILL or a FAILED job needs the telemetry
that died with the process — the spans the worker shipped back, which chunk
was in flight, which supervision events fired. This module keeps a cheap
process-wide ring buffer (``deque(maxlen=...)``) of such events and dumps
it atomically (via :mod:`repro.obs.atomicio`) when something goes wrong:

- :class:`~repro.importance.supervision.ChunkDispatcher` records every
  crash/hang it detects (naming the worker's in-flight chunk) and triggers
  :func:`auto_dump`;
- :class:`~repro.service.runtime.JobRuntime` records FAILED job transitions
  and triggers a dump;
- the worker-telemetry merge path records every adopted worker span, so the
  ring holds the last spans of a worker that later dies.

Recording is always-on (an append to a bounded deque — no clock beyond
``time.time()``, no allocation beyond the event dict) but dumps only
happen when a ``dump_dir`` has been configured, so the default footprint
is a few hundred dicts of memory and zero I/O. Dump files are CRC-framed
JSONL (load them with :func:`load_dump`), and the dump directory is
retention-bounded: a process stuck in a crash loop prunes its oldest dumps
past ``keep_last`` instead of filling the disk.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any

__all__ = [
    "FLIGHT_SCHEMA_VERSION",
    "DEFAULT_CAPACITY",
    "DEFAULT_KEEP_DUMPS",
    "FlightRecorder",
    "flight_recorder",
    "configure",
    "record",
    "record_span",
    "auto_dump",
    "load_dump",
]

#: Stamped into every dump header; readers must ignore unknown fields.
FLIGHT_SCHEMA_VERSION = 1

#: Events kept in the ring by default. Each event is a small dict; 512 of
#: them comfortably covers the tail of a dispatch wave plus the supervision
#: events around a crash.
DEFAULT_CAPACITY = 512

#: Dumps retained per dump directory by default: repeated crash loops keep
#: the newest N post-mortems and prune the rest (oldest first).
DEFAULT_KEEP_DUMPS = 16


class FlightRecorder:
    """Bounded, fork-aware ring buffer of observability events."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        keep_last: int | None = DEFAULT_KEEP_DUMPS,
    ) -> None:
        if keep_last is not None and keep_last < 1:
            raise ValueError("keep_last must be >= 1 (or None for unbounded)")
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._dumps = 0
        self.dump_dir: str | None = None
        self.keep_last = keep_last

    def _guard_fork(self) -> None:
        # A forked child inherits the parent's ring; its events are the
        # parent's history, not the child's, so start fresh (the child's
        # own telemetry flows back to the driver via WorkerTelemetry).
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._events = deque(maxlen=self._events.maxlen)
            self._seq = 0
            self._dumps = 0

    def configure(
        self,
        capacity: int | None = None,
        dump_dir: Any | None = None,
        keep_last: int | None = None,
    ) -> None:
        """Resize the ring, set the directory :meth:`auto_dump` writes into
        (``None`` disables automatic dumps), and/or set the dump-retention
        bound (``keep_last=0`` means unbounded)."""
        with self._lock:
            self._guard_fork()
            if capacity is not None and capacity != self._events.maxlen:
                self._events = deque(self._events, maxlen=int(capacity))
            if dump_dir is not None:
                self.dump_dir = os.fspath(dump_dir)
            if keep_last is not None:
                self.keep_last = int(keep_last) if keep_last > 0 else None

    def record(self, kind: str, **payload: Any) -> None:
        """Append one event (cheap; always-on)."""
        with self._lock:
            self._guard_fork()
            event = {"seq": self._seq, "ts": time.time(), "kind": kind}
            event.update(payload)
            self._events.append(event)
            self._seq += 1

    def record_span(self, origin: str, span_dict: dict[str, Any]) -> None:
        """Record an adopted worker span so a later crash dump names the
        work that was running shortly before the failure."""
        self.record(
            "span",
            origin=origin,
            name=span_dict.get("name"),
            attrs=span_dict.get("attrs", {}),
            duration=span_dict.get("duration"),
        )

    def snapshot(self) -> list[dict[str, Any]]:
        with self._lock:
            self._guard_fork()
            return [dict(event) for event in self._events]

    def __len__(self) -> int:
        with self._lock:
            self._guard_fork()
            return len(self._events)

    def clear(self) -> None:
        with self._lock:
            self._guard_fork()
            self._events.clear()
            self._seq = 0

    def dump(self, path: Any, reason: str = "", extra: dict[str, Any] | None = None) -> int:
        """Atomically write the ring as CRC-framed JSONL (header + one event
        per line, :func:`repro.obs.atomicio.write_export`); returns the
        event count. :func:`load_dump` reads it back."""
        from .atomicio import write_export

        events = self.snapshot()
        header: dict[str, Any] = {
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "kind": "flight_dump",
            "reason": reason,
            "pid": os.getpid(),
            "ts": time.time(),
            "n_events": len(events),
        }
        if extra:
            header.update(extra)
        write_export(path, header, events, default=repr)
        return len(events)

    def auto_dump(self, reason: str) -> str | None:
        """Dump into the configured ``dump_dir`` (no-op returning ``None``
        when unconfigured or the ring is empty). Returns the dump path.
        Oldest dumps beyond ``keep_last`` are pruned afterwards, so a
        crash-looping process cannot fill the disk with post-mortems."""
        with self._lock:
            self._guard_fork()
            dump_dir = self.dump_dir
            if dump_dir is None or not self._events:
                return None
            self._dumps += 1
            counter = self._dumps
        safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in reason)
        os.makedirs(dump_dir, exist_ok=True)
        path = os.path.join(
            dump_dir, f"flight-{os.getpid()}-{counter:03d}-{safe or 'dump'}.jsonl"
        )
        self.dump(path, reason=reason)
        self._prune_dumps(dump_dir)
        return path

    def _prune_dumps(self, dump_dir: str) -> list[str]:
        """Drop the oldest ``flight-*.jsonl`` dumps beyond ``keep_last``.

        Ordered by modification time (dump names from different pids do
        not sort chronologically). Quarantine sidecars are left alone —
        they are evidence, not telemetry.
        """
        if self.keep_last is None:
            return []
        dumps = sorted(
            Path(dump_dir).glob("flight-*.jsonl"),
            key=lambda p: (p.stat().st_mtime, p.name),
        )
        pruned: list[str] = []
        for stale in dumps[: -int(self.keep_last)]:
            try:
                stale.unlink()
                pruned.append(str(stale))
            except OSError:  # pragma: no cover - concurrent prune
                pass
        return pruned


_FLIGHT = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _FLIGHT


def configure(capacity: int | None = None, dump_dir: Any | None = None) -> None:
    _FLIGHT.configure(capacity=capacity, dump_dir=dump_dir)


def record(kind: str, **payload: Any) -> None:
    _FLIGHT.record(kind, **payload)


def record_span(origin: str, span_dict: dict[str, Any]) -> None:
    _FLIGHT.record_span(origin, span_dict)


def auto_dump(reason: str) -> str | None:
    return _FLIGHT.auto_dump(reason)


def load_dump(path: Any) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Load one flight dump: ``(header, events)``.

    Reads through the shared validating reader (:func:`repro.obs.atomicio.
    read_export`): damaged lines are quarantined, and a damaged or missing
    header yields ``{}``.
    """
    from .atomicio import read_export

    return read_export(path, "flight_dump", "flight")
