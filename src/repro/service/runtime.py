"""`JobRuntime`: the crash-safe, multi-tenant asyncio job runtime.

This is the server-grade shell around the valuation engine the ROADMAP's
"valuation-as-a-service" item asks for. One runtime owns:

- an admission-controlled, fair-share **queue**
  (:mod:`repro.service.admission`) — bounded depth, per-tenant rotation,
  priority shedding, per-tenant circuit breakers;
- a **write-ahead journal** (:mod:`repro.service.journal`) — every
  lifecycle edge is durable before the in-memory state advances, so a
  SIGKILL'd runtime restarts, replays, and re-enqueues every in-flight job;
- per-job **checkpoint stores** (:mod:`repro.importance.checkpoint`, two
  alternating slots each) — recovered valuation jobs resume from their
  wave watermark and finish bit-identical to an uninterrupted run;
- **deduplication** — submissions with equal (dataset-fingerprint,
  config-fingerprint) keys attach to the already-running job as
  subscribers and receive its streamed partial-result snapshots;
- **deadline propagation** — a request's end-to-end ``deadline_s`` is
  measured from submission; whatever remains when the job finally runs is
  handed to the handler, so an overloaded job degrades to a partial
  result (terminal state ``degraded``) instead of running unbounded. A
  job whose deadline fully expired while queued still runs — with a zero
  budget, which the engine answers immediately with a well-formed empty
  partial result;
- **retry with backoff** and chaos hooks (``ChaosMonkey`` job faults) for
  fault-injection testing.

Handlers are registered per request ``kind`` and run in worker threads
(``asyncio.to_thread``), so ``max_concurrency`` engine runs proceed while
the event loop keeps absorbing submissions — that asymmetry (cheap async
admission in front of expensive threaded compute) is the backpressure
story: thousands of queries hit a handful of shared engine runs.

::

    runtime = JobRuntime(journal="svc/journal.jsonl", checkpoint_dir="svc/ck")
    runtime.register_handler("valuation", make_valuation_handler(factory))
    async with runtime:
        job = runtime.submit(JobRequest(kind="valuation", params={...},
                                        tenant="alice", deadline_s=30.0))
        async for snapshot in job.stream():
            print(snapshot["completed"], "/", snapshot["target"])
        result = await job.wait()
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from ..importance.checkpoint import CheckpointStore
from ..obs import flight as _obs_flight
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from ..obs.slo import SLOPolicy, SLOTracker
from .admission import (
    AdmissionController,
    AdmissionPolicy,
    BreakerPolicy,
    RetryPolicy,
)
from .job import TERMINAL_STATES, Job, JobRejected, JobRequest, JobState
from .journal import JobJournal

__all__ = ["JobContext", "JobRuntime"]

#: ``stop_reason`` values that mark a partial (budget-stopped) result —
#: the job terminates ``degraded`` instead of ``completed``.
_DEGRADED_STOP_REASONS = frozenset({"deadline", "eval_budget"})


class JobContext:
    """What a handler gets to know about the job it is executing.

    Handlers receive ``(params, context)``. The context carries the
    remaining end-to-end deadline, the job's checkpoint store (pass it to
    the engine for crash-safe resume), whether this execution should
    resume from an existing snapshot, and :meth:`progress` for streaming
    partial results to subscribers (it takes the snapshot dict that
    ``ValuationEngine.run_permutations(progress_callback=...)`` passes).
    """

    def __init__(
        self,
        runtime: "JobRuntime",
        job: Job,
        attempt: int,
        deadline_s: float | None,
        checkpoint: CheckpointStore | None,
        resume: bool,
    ) -> None:
        self._runtime = runtime
        self._job = job
        self.job_id = job.job_id
        self.tenant = job.request.tenant
        self.attempt = attempt
        self.deadline_s = deadline_s
        self.checkpoint = checkpoint
        self.resume = resume
        #: The runtime's warm-pool registry (or None). The valuation
        #: handler leases a warm worker pool from it, so
        #: sequential jobs over the same dataset fingerprint reuse one
        #: warm fleet instead of forking per run.
        self.pool_registry = runtime.pool_registry

    def progress(self, snapshot: Mapping[str, Any]) -> None:
        """Publish one progress snapshot to every subscriber (thread-safe).

        Nothing is journaled: the engine checkpoint saved at the same wave
        holds the durable watermark a restarted runtime resumes from.
        """
        self._runtime._publish_progress(self._job, dict(snapshot))


class JobRuntime:
    """Asyncio job queue + workers with production failure semantics.

    Parameters
    ----------
    journal:
        Path (or :class:`~repro.service.journal.JobJournal`) for the
        write-ahead log. ``None`` disables durability (jobs die with the
        process — fine for tests and ephemeral runtimes).
    checkpoint_dir:
        Directory for per-job engine checkpoints (``<job_id>.ck.json``).
        ``None`` disables job-level checkpointing; with it, recovered
        valuation jobs resume mid-run instead of restarting.
    ledger:
        Optional :class:`repro.obs.RunLedger`; every terminal job appends
        a ``"service"`` event (config + the job summary).
    policy, breaker_policy, retry:
        Admission bound / shedding, per-tenant circuit breaker, and
        retry-backoff knobs (:mod:`repro.service.admission`).
    max_concurrency:
        Worker tasks executing handlers concurrently (each in its own
        thread via ``asyncio.to_thread``).
    pool:
        Warm worker pools for valuation jobs. An ``int`` builds a
        :class:`~repro.importance.pool.PoolRegistry` with that fleet size;
        a registry is used as-is; ``None`` disables pooling (per-run
        fork fan-out). Pools are keyed by dataset fingerprint, so
        sequential jobs over the same data share one long-lived fleet;
        :meth:`stop` closes every runtime-owned pool.
    chaos:
        Optional :class:`repro.errors.chaos.ChaosMonkey`; its seeded
        job-level faults (mid-job crash, slow tenant) fire inside handler
        execution.
    slo:
        Per-tenant service objectives: an :class:`repro.obs.SLOPolicy`
        (or a preconfigured :class:`repro.obs.SLOTracker`). A tracker is
        always constructed — every terminal job feeds it — so
        ``runtime.slo`` answers per-tenant latency quantiles, burn rates,
        and alerts regardless of whether tracing is on.
    flight_dir:
        Directory for automatic flight-recorder dumps. When set, a FAILED
        job (and any worker crash/hang detected by supervision) atomically
        dumps the in-memory event ring there for post-mortems; ``None``
        leaves automatic dumps off.
    """

    def __init__(
        self,
        journal: Any | None = None,
        checkpoint_dir: Any | None = None,
        ledger: Any | None = None,
        policy: AdmissionPolicy | None = None,
        breaker_policy: BreakerPolicy | None = None,
        retry: RetryPolicy | None = None,
        max_concurrency: int = 2,
        pool: Any | None = None,
        chaos: Any | None = None,
        slo: SLOPolicy | SLOTracker | None = None,
        flight_dir: Any | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if journal is None or isinstance(journal, JobJournal):
            self.journal = journal
        else:
            self.journal = JobJournal(journal)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.ledger = ledger
        self.retry = retry or RetryPolicy()
        self.max_concurrency = int(max_concurrency)
        if pool is None or pool is False:
            self.pool_registry = None
            self._owns_pools = False
        elif isinstance(pool, int) and not isinstance(pool, bool):
            from ..importance.pool import PoolRegistry

            self.pool_registry = PoolRegistry(n_workers=pool, ledger=ledger)
            self._owns_pools = True
        else:
            self.pool_registry = pool
            self._owns_pools = False
        self.chaos = chaos
        self.slo = slo if isinstance(slo, SLOTracker) else SLOTracker(slo)
        if flight_dir is not None:
            _obs_flight.configure(dump_dir=flight_dir)
        self.admission = AdmissionController(policy, breaker_policy)
        self.jobs: dict[str, Job] = {}
        self._handlers: dict[str, Callable[[dict, JobContext], Any]] = {}
        self._active_by_key: dict[tuple[str, str, str], Job] = {}
        self._workers: list[asyncio.Task] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._running = False
        self.draining = False
        self._seq = 0
        self._chaos_ord = 0
        self.counts = {
            "submitted": 0,
            "deduplicated": 0,
            "admitted": 0,
            "rejected": 0,
            "shed": 0,
            "completed": 0,
            "degraded": 0,
            "failed": 0,
            "retries": 0,
            "recovered": 0,
        }
        self.max_queue_depth_seen = 0

    # ------------------------------------------------------------------ #
    # registration and lifecycle                                         #
    # ------------------------------------------------------------------ #

    def register_handler(
        self, kind: str, handler: Callable[[dict, JobContext], Any]
    ) -> None:
        """Register the executor for requests of ``kind``.

        ``handler(params, context)`` runs in a worker thread; it may block.
        Raising marks the attempt failed (retried under the job's budget);
        the returned object is the job result — if it exposes a
        ``stop_reason`` of ``"deadline"``/``"eval_budget"`` (e.g. a
        partial :class:`~repro.importance.engine.ValuationResult`), the
        job terminates ``degraded`` instead of ``completed``.
        """
        self._handlers[str(kind)] = handler

    async def start(self) -> None:
        """Recover journaled in-flight jobs and launch the worker fleet."""
        if self._running:
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._running = True
        self.recover()
        self._workers = [
            asyncio.create_task(self._worker_loop(), name=f"service-worker-{i}")
            for i in range(self.max_concurrency)
        ]

    async def stop(self) -> None:
        """Finish in-flight handler executions, then stop the workers.

        Queued jobs are left queued — and journaled as such, so a later
        runtime over the same journal recovers them. Call :meth:`drain`
        first for a clean shutdown with every job terminal.
        """
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._owns_pools and self.pool_registry is not None:
            # Runtime-owned worker fleets die with the service. A later
            # start() re-leases fresh pools on demand.
            self.pool_registry.close_all()

    async def drain(self) -> None:
        """Wait until every job this runtime accepted is terminal.

        While draining, :meth:`health` reports ``"draining"`` (and the
        ``/healthz`` endpoint answers 503), which is how load balancers
        stop routing new work at a runtime that is being shut down.
        """
        self.draining = True
        try:
            while True:
                pending = [job for job in self.jobs.values() if not job.done]
                if not pending:
                    return
                await asyncio.wait(
                    [asyncio.ensure_future(job._done.wait()) for job in pending]
                )
        finally:
            self.draining = False

    def health(self) -> dict:
        """Liveness/readiness summary for the ``/healthz`` endpoint."""
        if not self._running:
            status = "stopped"
        elif self.draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "status": status,
            "running": self._running,
            "draining": self.draining,
            "queue_depth": len(self.admission.queue),
            "jobs_in_flight": sum(
                1 for job in self.jobs.values() if not job.done
            ),
        }

    async def __aenter__(self) -> "JobRuntime":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            await self.drain()
        await self.stop()

    # ------------------------------------------------------------------ #
    # submission                                                         #
    # ------------------------------------------------------------------ #

    def submit(self, request: JobRequest) -> Job:
        """Admit a request: dedup, journal, admission-control, enqueue.

        Returns the tracked :class:`Job` (possibly an already-running one
        when deduplicated). Raises :class:`JobRejected` — with the reason
        — when admission control refuses; the rejection is journaled
        first, so even refused work is accounted for.
        """
        self.counts["submitted"] += 1
        self._metric("service.submitted")
        key = request.dedup_key() if request.dedup else None
        if key is not None:
            primary = self._active_by_key.get(key)
            if primary is not None and not primary.done:
                primary.subscribers += 1
                self.counts["deduplicated"] += 1
                self._metric("service.deduplicated")
                self._journal(
                    "deduplicated",
                    primary.job_id,
                    {"tenant": request.tenant, "subscribers": primary.subscribers},
                )
                return primary
        job = Job(self._next_job_id(), request)
        job.dedup_key = key
        self.jobs[job.job_id] = job
        self._journal("submitted", job.job_id, {"request": request.to_dict()})
        if request.kind not in self._handlers:
            self._reject(job, "unknown_kind", f"no handler for {request.kind!r}")
            raise JobRejected("unknown_kind", request.kind)
        try:
            shed = self.admission.admit(job)
        except JobRejected as exc:
            self._reject(job, exc.reason, str(exc))
            raise
        if shed is not None:
            self._reject(
                shed,
                "shed_by_priority",
                f"evicted by higher-priority job {job.job_id}",
            )
        # Admission is not journaled: recovery re-enqueues every entry with
        # a request that reached no terminal state, queued or not.
        job.transition(JobState.QUEUED)
        self.counts["admitted"] += 1
        self._metric("service.admitted")
        if key is not None:
            self._active_by_key[key] = job
        self._note_queue_depth()
        if self._wake is not None:
            self._wake.set()
        return job

    def recover(self) -> list[Job]:
        """Re-enqueue every journaled non-terminal job (crash recovery).

        Recovered jobs keep their original job id — that is what keys
        their checkpoint store, so the engine resumes from the killed
        run's watermark. They bypass admission control (they were already
        admitted once; re-shedding them would turn a crash into data
        loss), which can transiently overshoot the queue bound by at most
        the crashed runtime's ``max_concurrency``.

        Every restart also leaves a ``recovery_audit`` journal record —
        jobs re-enqueued, quarantine accounting from the journal load, and
        the stats of the auto-compaction (:meth:`JobJournal.maybe_compact`)
        that runs here — so an operator can reconstruct what recovery saw
        and did after the fact.
        """
        if self.journal is None:
            return []
        recovered: list[Job] = []
        for entry in self.journal.in_flight():
            if entry.job_id in self.jobs:
                continue
            job = Job(entry.job_id, entry.request)
            job.recovered = True
            if entry.submitted_at:
                job.submitted_at = entry.submitted_at
            self.jobs[job.job_id] = job
            self._journal(
                "recovered",
                job.job_id,
                {"prior_state": entry.state, "attempts": entry.attempts},
            )
            job.transition(JobState.QUEUED)
            self.admission.queue.push(job)
            if job.request.dedup:
                job.dedup_key = job.request.dedup_key()
                self._active_by_key.setdefault(job.dedup_key, job)
            self.counts["recovered"] += 1
            self._metric("service.recovered")
            recovered.append(job)
        audit: dict[str, Any] = {
            "recovered_jobs": len(recovered),
            "job_ids": [job.job_id for job in recovered],
        }
        load_report = self.journal.last_load_report
        if load_report is not None:
            audit["journal_load"] = {
                "n_loaded": load_report.n_loaded,
                "n_quarantined": load_report.n_quarantined,
                "reasons": dict(load_report.reasons),
                "quarantine_path": load_report.quarantine_path,
            }
        compaction = self.journal.maybe_compact()
        if compaction is not None:
            audit["compaction"] = compaction
            self._metric("service.journal_compacted")
        self._journal("recovery_audit", "-", audit)
        _obs_flight.record("service.recovery_audit", **audit)
        if recovered and self._wake is not None:
            self._wake.set()
        return recovered

    # ------------------------------------------------------------------ #
    # execution                                                          #
    # ------------------------------------------------------------------ #

    async def _worker_loop(self) -> None:
        while True:
            if not self._running:
                return
            job = self.admission.next_job()
            if job is None:
                self._wake.clear()
                if not self._running:
                    return
                await self._wake.wait()
                continue
            self._note_queue_depth()
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        request = job.request
        job.transition(JobState.RUNNING)
        chaos_ord = self._chaos_ord
        self._chaos_ord += 1
        checkpoint = self._checkpoint_for(job)
        attempt = 0
        loop = asyncio.get_running_loop()
        while True:
            job.attempts = attempt + 1
            self._journal("started", job.job_id, {"attempt": attempt})
            context = JobContext(
                runtime=self,
                job=job,
                attempt=attempt,
                deadline_s=self._remaining_deadline(job),
                checkpoint=checkpoint,
                resume=checkpoint is not None and checkpoint.exists(),
            )
            try:
                result = await asyncio.to_thread(
                    self._run_handler, job, context, chaos_ord, attempt
                )
            except Exception as exc:  # noqa: BLE001 - handler boundary
                job.error = f"{type(exc).__name__}: {exc}"
                if attempt < request.max_retries:
                    self.counts["retries"] += 1
                    self._metric("service.retries")
                    self._journal(
                        "retrying",
                        job.job_id,
                        {"attempt": attempt, "error": job.error},
                    )
                    await asyncio.sleep(self.retry.delay_s(attempt))
                    attempt += 1
                    continue
                state = JobState.FAILED
            else:
                job.result = result
                job.stop_reason = self._stop_reason(result)
                state = (
                    JobState.DEGRADED
                    if job.stop_reason in _DEGRADED_STOP_REASONS
                    else JobState.COMPLETED
                )
            if checkpoint is not None:
                # Snapshots serve only this job's retries and recovery: a
                # resubmission gets a new job id, and so a new store.
                checkpoint.clear()
            self._finish(job, state)
            return

    def _run_handler(
        self, job: Job, context: JobContext, chaos_ord: int, attempt: int
    ) -> Any:
        """Body executed in the worker thread (chaos + span + handler)."""
        with _obs.span(
            "service.job",
            kind=job.request.kind,
            tenant=job.request.tenant,
            job_id=job.job_id,
            attempt=attempt,
        ):
            if self.chaos is not None:
                self.chaos.apply_job_fault(
                    chaos_ord, attempt, tenant=job.request.tenant
                )
            handler = self._handlers[job.request.kind]
            return handler(dict(job.request.params), context)

    # ------------------------------------------------------------------ #
    # bookkeeping                                                        #
    # ------------------------------------------------------------------ #

    def _next_job_id(self) -> str:
        self._seq += 1
        return f"job-{time.time_ns() & 0xFFFFFFFFFF:010x}-{os.getpid()}-{self._seq:04d}"

    def _checkpoint_for(self, job: Job) -> CheckpointStore | None:
        if self.checkpoint_dir is None:
            return None
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        return CheckpointStore(self.checkpoint_dir / f"{job.job_id}.ck.json")

    def _remaining_deadline(self, job: Job) -> float | None:
        """End-to-end deadline minus time already spent (queueing,
        retries, a previous incarnation of the runtime)."""
        if job.request.deadline_s is None:
            return None
        return max(0.0, job.request.deadline_s - (time.time() - job.submitted_at))

    @staticmethod
    def _stop_reason(result: Any) -> str | None:
        if isinstance(result, Mapping):
            value = result.get("stop_reason")
        else:
            value = getattr(result, "stop_reason", None)
        return str(value) if value is not None else None

    def _publish_progress(self, job: Job, snapshot: dict) -> None:
        """Thread-safe bridge from handler threads into the event loop."""
        try:
            in_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            in_loop = False
        if in_loop or self._loop is None or self._loop.is_closed():
            job.publish_progress(snapshot)
        else:
            # Handler thread: hop to the loop that owns the subscribers.
            self._loop.call_soon_threadsafe(job.publish_progress, snapshot)

    def _reject(self, job: Job, reason: str, detail: str) -> None:
        job.reject_reason = reason
        job.error = detail
        self._finish(job, JobState.REJECTED)

    def _finish(self, job: Job, state: JobState) -> None:
        """End ``job`` in terminal ``state``. Every terminal state, a
        rejection included, journals and ledger-records the same
        ``job.summary()``."""
        if self._active_by_key.get(job.dedup_key) is job:
            del self._active_by_key[job.dedup_key]
        # Stamp the end first, so the terminal record is durable before the
        # waiters wake and carries what they will read: the terminal state
        # and the final latency.
        job.finished_at = time.time()
        self._journal(state.value, job.job_id, {**job.summary(), "state": state.value})
        job.transition(state)
        tally = "shed" if job.reject_reason == "shed_by_priority" else state.value
        self.counts[tally] += 1
        self._metric(f"service.{tally}")
        if state is not JobState.REJECTED:
            # Refused work says nothing about the tenant's own jobs.
            self.admission.record_result(
                job.request.tenant, state is not JobState.FAILED
            )
        if _obs.enabled() and job.queue_wait_s is not None:
            # Only jobs that ran: a rejected job never started.
            _obs_metrics.histogram("service.latency_s").observe(job.latency_s)
            _obs_metrics.histogram("service.queue_wait_s").observe(
                job.queue_wait_s
            )
        self.slo.observe_job(job)
        if state is JobState.FAILED:
            # Flight-record the failure and dump the ring (no-op unless a
            # flight_dir was configured) so the post-mortem carries the
            # job's identity next to the workers' last shipped spans.
            _obs_flight.record(
                "job.failed",
                job_id=job.job_id,
                tenant=job.request.tenant,
                job_kind=job.request.kind,
                error=job.error,
                attempts=job.attempts,
            )
            _obs_flight.auto_dump("job-failed")
        self._record_ledger(job)

    def _record_ledger(self, job: Job) -> None:
        if self.ledger is None:
            return
        self.ledger.record_event(
            "service",
            config={
                "kind": job.request.kind,
                "tenant": job.request.tenant,
                "priority": job.request.priority,
                "deadline_s": job.request.deadline_s,
                "dataset_fingerprint": job.request.dataset_fingerprint,
            },
            stats=job.summary(),
            run_id=job.job_id,
            wall_time_s=job.latency_s,
        )

    def _journal(self, event: str, job_id: str, payload: dict | None = None) -> None:
        if self.journal is not None:
            self.journal.record(event, job_id, payload)

    def _metric(self, name: str) -> None:
        if _obs.enabled():
            _obs_metrics.counter(name).inc()

    def _note_queue_depth(self) -> None:
        depth = len(self.admission.queue)
        self.max_queue_depth_seen = max(self.max_queue_depth_seen, depth)
        if _obs.enabled():
            _obs_metrics.gauge("service.queue_depth").set(depth)

    def stats(self) -> dict:
        """Counters + live depth, in the shape the bench and tests report."""
        return {
            **self.counts,
            "queue_depth": len(self.admission.queue),
            "max_queue_depth_seen": self.max_queue_depth_seen,
            "jobs_known": len(self.jobs),
            "breakers": {
                tenant: breaker.state
                for tenant, breaker in self.admission._breakers.items()
            },
        }
