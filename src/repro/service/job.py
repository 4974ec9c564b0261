"""Job model for the valuation service: requests, lifecycle, rejection.

A *job* is one unit of server-side work — an importance run, a cleaning
round, a monitoring query — described by a JSON-able :class:`JobRequest`
and executed by a handler registered on the
:class:`~repro.service.runtime.JobRuntime`. Keeping the request fully
serializable is what makes the runtime crash-safe: the journal stores the
request verbatim, so a SIGKILL'd runtime can rebuild every in-flight job
from disk and resume it against its checkpoint watermark.

The lifecycle is a small explicit state machine::

    submitted ──▶ queued ──▶ running ──▶ completed
        │            │          │   └──▶ degraded   (partial result)
        │            │          └──────▶ failed     (retries exhausted)
        │            └─────────────────▶ rejected   (shed under load)
        └──────────────────────────────▶ rejected   (admission refused)

Every accepted job reaches exactly one terminal state; nothing is silently
dropped. ``degraded`` is a *successful* terminal state carrying a partial
:class:`~repro.importance.engine.ValuationResult` — the graceful-degradation
rung between "completed" and "rejected" on the service's degradation ladder.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, AsyncIterator, Mapping

from ..importance.checkpoint import config_fingerprint

__all__ = [
    "Job",
    "JobRejected",
    "JobRequest",
    "JobState",
    "TERMINAL_STATES",
]


class JobState(str, Enum):
    """Lifecycle states; the string values are what the journal stores."""

    SUBMITTED = "submitted"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    DEGRADED = "degraded"
    FAILED = "failed"
    REJECTED = "rejected"


#: States a job never leaves. Acceptance contract: every submitted job ends
#: in exactly one of these (crash-recovery included).
TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.DEGRADED, JobState.FAILED, JobState.REJECTED}
)


class JobRejected(RuntimeError):
    """Admission control refused (or shed) a job — with an explicit reason.

    ``reason`` is machine-readable (``"queue_full"``, ``"circuit_open"``,
    ``"tenant_quota"``, ``"shed_by_priority"``, ``"unknown_kind"``,
    ``"runtime_stopped"``); the message adds context. Backpressure is this
    exception instead of unbounded queue growth.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


@dataclass(frozen=True)
class JobRequest:
    """A fully JSON-able description of one unit of service work.

    Parameters
    ----------
    kind:
        Name of the handler registered on the runtime (``"valuation"``,
        ``"challenge.leaderboard"``, ...).
    params:
        Handler parameters. Must stay JSON-serializable — the journal
        persists them verbatim for crash recovery.
    tenant:
        Fair-share scheduling and circuit-breaker identity.
    priority:
        Higher runs earlier within a tenant and survives load shedding
        longer; under a full queue, a new job may evict ("shed") the
        lowest-priority queued job of strictly lower priority.
    deadline_s:
        End-to-end budget measured from *submission*. Whatever remains at
        execution time is propagated to the handler (and by the built-in
        valuation handler to the engine's ``deadline_s``), so a job that
        waited too long degrades to a partial result instead of running
        unbounded. ``None`` means no deadline.
    max_retries:
        Handler-failure retry budget for this job (in addition to the
        runtime's backoff policy). Exhaustion is terminal ``failed``.
    dataset_fingerprint:
        First half of the deduplication key — typically
        :func:`repro.obs.quality.fingerprint_frame` of the dataset the job
        reads. Jobs with equal ``(dataset_fingerprint, config
        fingerprint)`` keys share one execution.
    dedup:
        Opt out of deduplication (e.g. for submissions with side effects,
        where each call must really run).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    priority: int = 0
    deadline_s: float | None = None
    max_retries: int = 0
    dataset_fingerprint: str | None = None
    dedup: bool = True

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("kind must be a non-empty handler name")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise ValueError("deadline_s must be >= 0 (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def config_fingerprint(self) -> str:
        """Deterministic digest of everything that shapes the computation.

        Tenant/priority/deadline are deliberately excluded: two tenants
        asking the same question about the same dataset should share one
        run — that *is* the dedup contract.
        """
        return config_fingerprint(
            {"kind": self.kind, "params": dict(self.params)}
        )

    def dedup_key(self) -> tuple[str, str, str]:
        """(kind, dataset-fingerprint, config-fingerprint) sharing key."""
        return (
            self.kind,
            self.dataset_fingerprint or "-",
            self.config_fingerprint(),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "max_retries": self.max_retries,
            "dataset_fingerprint": self.dataset_fingerprint,
            "dedup": self.dedup,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Rebuild from a journal record, ignoring unknown fields."""
        known = set(cls.__dataclass_fields__)
        return cls(**{k: v for k, v in payload.items() if k in known})


class Job:
    """One tracked execution of a :class:`JobRequest` inside the runtime.

    Holds the mutable lifecycle state, the latest streamed progress
    snapshot, the final result, and the asyncio plumbing that fans one
    running computation out to many subscribers. Jobs are created by the
    runtime — user code receives them from ``submit`` and awaits
    :meth:`wait` or iterates :meth:`stream`.
    """

    def __init__(self, job_id: str, request: JobRequest) -> None:
        self.job_id = job_id
        self.request = request
        self.state = JobState.SUBMITTED
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attempts = 0
        self.result: Any = None
        self.error: str | None = None
        self.reject_reason: str | None = None
        self.stop_reason: str | None = None
        self.progress: dict[str, Any] | None = None
        self.subscribers = 1  # the submitting caller
        self.recovered = False
        #: ``request.dedup_key()`` as of admission, which later lookups of
        #: the runtime's active jobs reuse; None when the request opted out
        #: of deduplication.
        self.dedup_key: tuple[str, str, str] | None = None
        self._done = asyncio.Event()
        self._streams: list[asyncio.Queue] = []

    # -- lifecycle -------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: JobState) -> None:
        """Move to ``state``; terminal states resolve all waiters.

        A terminal state stamps :attr:`finished_at` unless the caller did
        already, as the runtime does to journal the final latency first.
        """
        if self.done:
            raise RuntimeError(
                f"job {self.job_id} is already terminal ({self.state.value})"
            )
        self.state = state
        if state is JobState.RUNNING and self.started_at is None:
            self.started_at = time.time()
        if self.done:
            if self.finished_at is None:
                self.finished_at = time.time()
            self._done.set()
            for queue in self._streams:
                queue.put_nowait(None)  # sentinel: stream closed

    async def wait(self) -> Any:
        """Block until terminal; return the result or raise the failure.

        A rejected job raises :class:`JobRejected`; a failed one raises
        ``RuntimeError`` with the last handler error. ``completed`` and
        ``degraded`` both return the (possibly partial) result — check
        :attr:`state` / :attr:`stop_reason` to distinguish.
        """
        await self._done.wait()
        if self.state is JobState.REJECTED:
            raise JobRejected(self.reject_reason or "rejected", self.job_id)
        if self.state is JobState.FAILED:
            raise RuntimeError(
                f"job {self.job_id} failed after {self.attempts} attempts: "
                f"{self.error}"
            )
        return self.result

    async def stream(self) -> AsyncIterator[dict[str, Any]]:
        """Yield progress snapshots as they arrive, then stop at terminal.

        Every subscriber gets every snapshot published after it starts
        listening (plus the latest one immediately, so late joiners see
        state without waiting a full wave).
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._streams.append(queue)
        try:
            if self.progress is not None:
                yield dict(self.progress)
            if self.done:
                return
            while True:
                item = await queue.get()
                if item is None:
                    return
                yield item
        finally:
            self._streams.remove(queue)

    def publish_progress(self, snapshot: Mapping[str, Any]) -> None:
        """Record and fan one progress snapshot out to all streams.

        Must be called from the event-loop thread (the runtime bridges
        engine callbacks over ``loop.call_soon_threadsafe``).
        """
        self.progress = dict(snapshot)
        for queue in self._streams:
            queue.put_nowait(dict(snapshot))

    # -- accounting ------------------------------------------------------
    @property
    def queue_wait_s(self) -> float | None:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_s(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def summary(self) -> dict[str, Any]:
        """JSON-able terminal summary, as journaled, ledger-recorded and
        served by ``/jobs``, for every terminal state. ``error`` holds a
        failed job's last handler error, or a rejected job's detail."""
        return {
            "job_id": self.job_id,
            "kind": self.request.kind,
            "tenant": self.request.tenant,
            "priority": self.request.priority,
            "state": self.state.value,
            "attempts": self.attempts,
            "subscribers": self.subscribers,
            "recovered": self.recovered,
            "stop_reason": self.stop_reason,
            "reject_reason": self.reject_reason,
            "error": self.error,
            "queue_wait_s": self.queue_wait_s,
            "latency_s": self.latency_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.job_id!r}, kind={self.request.kind!r}, "
            f"tenant={self.request.tenant!r}, state={self.state.value})"
        )
