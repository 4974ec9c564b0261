"""Worker supervision for the valuation engine's chunk fan-out.

Every parallel fan-out of the engine runs on a
:class:`~repro.importance.pool.WorkerPool`, every pool runs its chunks
through one :class:`ChunkDispatcher`, and
:func:`~repro.importance.engine.parallel_map` forks a dispatcher of its
own for each call. Without supervision one crashed worker (a segfault in
a native kernel, an OOM kill, an injected ``os._exit``) tears down the
whole valuation run, and one hung worker (a stuck I/O call, a
pathological retraining) blocks it forever. Both failure
modes are routine at the scale the Identify track runs at — thousands of
model retrainings across long-lived processes — and both are
*recoverable*, because the engine's chunks are deterministic: every chunk
is a slice of permutation orderings drawn in the driver (or of subset
keys), so re-executing it on a fresh worker reproduces the same floats.

Each worker is a process joined to the driver by a dedicated pipe; the
driver assigns one chunk at a time and watches for three signals:

- a **result** on the pipe — the chunk is done; its latency feeds the
  deadline estimator;
- a **crash** — the pipe hits EOF or the process stops being alive; the
  worker is restarted and the in-flight chunk is re-queued;
- a **hang** — the chunk exceeds its deadline, derived from observed
  chunk-latency quantiles (:class:`DeadlinePolicy`); the worker is killed,
  restarted, and the chunk re-queued.

A chunk that fails more than ``max_chunk_retries`` times raises
:class:`ChunkFailure` (supervision cannot save a deterministically crashing
chunk), and restarts over the dispatcher's lifetime — a pool's, which for a
one-shot fan-out is one call — are capped by ``max_worker_restarts`` so a
crash-looping fleet fails loudly instead of forking forever. Results are
returned in chunk order, so the engine's merge — and therefore the returned
values — stays bit-identical to serial execution whatever crashed, hung, or
was retried along the way.

Each supervision event is emitted once, by the dispatcher that handles it:
the counters (its own :class:`SupervisionStats` and the dispatching
borrower's), the ``engine.supervision.{kind}`` metric, the flight record,
and the :class:`~repro.errors.chaos.ChaosMonkey` ground-truth record of an
injected fault.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as _mp_connection
from typing import Any, Callable, Sequence

import numpy as np

from ..obs import flight as _obs_flight
from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs_trace

__all__ = [
    "ChunkFailure",
    "DeadlinePolicy",
    "SupervisionStats",
    "ChunkDispatcher",
]

#: Message sent to a worker to make it exit its task loop cleanly.
_SHUTDOWN = None

#: How long the driver sleeps in :func:`multiprocessing.connection.wait`
#: between liveness/deadline sweeps. Small enough that hang detection is
#: prompt, large enough that a healthy fleet burns no measurable CPU.
_POLL_INTERVAL_S = 0.02

#: How often an idle worker checks that its driver is still alive.
_ORPHAN_CHECK_S = 1.0

#: The :class:`SupervisionStats` counter each event kind increments.
_COUNTERS = {
    "crash": "crashes",
    "hang": "hangs",
    "retry": "chunk_retries",
    "restart": "worker_restarts",
}


class ChunkFailure(RuntimeError):
    """A chunk kept failing after exhausting its retry budget."""


@dataclass
class SupervisionStats:
    """Counters accumulated by a dispatcher (and, across runs, an engine)."""

    chunks_completed: int = 0
    worker_restarts: int = 0
    chunk_retries: int = 0
    crashes: int = 0
    hangs: int = 0

    def record(self, kind: str) -> None:
        """Count one ``crash``/``hang``/``retry``/``restart`` event."""
        counter = _COUNTERS[kind]
        setattr(self, counter, getattr(self, counter) + 1)

    def to_dict(self) -> dict:
        return {
            "chunks_completed": self.chunks_completed,
            "worker_restarts": self.worker_restarts,
            "chunk_retries": self.chunk_retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
        }


#: Minimum adaptive hang deadline of every fleet. A fleet observes wildly
#: heterogeneous chunk latencies — sub-millisecond warmup pings and
#: warm-cache chunks next to multi-second cold model fits — so a short
#: floor would flag ordinary cold chunks as hung whenever the recent window
#: happens to be fast. Five seconds keeps genuine infinite hangs detected
#: without ever tripping on the warm-to-cold latency cliff.
_HANG_FLOOR_S = 5.0


class DeadlinePolicy:
    """Per-chunk deadline from observed chunk-latency quantiles.

    With no samples there is no basis for declaring a hang, so the policy
    abstains (``deadline() is None``) until ``min_samples`` chunk latencies
    have been observed; after that a chunk is declared hung once it runs
    longer than ``factor`` times the ``quantile`` of the recent latency
    window, floored at ``floor_s`` to keep micro-chunks from tripping on
    scheduler jitter. An explicit ``hard_timeout_s`` overrides the adaptive
    estimate entirely — the knob tests and impatient callers use.
    """

    def __init__(
        self,
        hard_timeout_s: float | None = None,
        factor: float = 8.0,
        quantile: float = 0.95,
        min_samples: int = 3,
        floor_s: float = 0.25,
        window: int = 256,
    ) -> None:
        if hard_timeout_s is not None and hard_timeout_s <= 0:
            raise ValueError("hard_timeout_s must be positive (or None)")
        if factor <= 1.0:
            raise ValueError("factor must be > 1")
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        self.hard_timeout_s = hard_timeout_s
        self.factor = float(factor)
        self.quantile = float(quantile)
        self.min_samples = int(min_samples)
        self.floor_s = float(floor_s)
        self.samples: deque[float] = deque(maxlen=int(window))

    def observe(self, latency_s: float) -> None:
        self.samples.append(float(latency_s))

    def deadline(self) -> float | None:
        """Seconds a chunk may run before being declared hung (None = never)."""
        if self.hard_timeout_s is not None:
            return self.hard_timeout_s
        if len(self.samples) < self.min_samples:
            return None
        estimate = float(np.quantile(np.asarray(self.samples), self.quantile))
        return max(self.floor_s, self.factor * estimate)


def _worker_main(conn, state: dict, task_fn: Callable[[dict, Any], Any]) -> None:
    """Task loop run inside each worker process.

    Under fork, ``state`` and ``task_fn`` arrive by inheritance (no
    pickling), so utilities may hold arbitrary closures. Messages are
    ``(chunk_id, chunk_ord, attempt, payload, telemetry)``; replies are
    ``(chunk_id, result)`` — or ``(chunk_id, result, telemetry_delta)``
    when telemetry is on, piggybacking the worker's spans and metric
    deltas on the result pipe for the driver to merge. Telemetry engages
    when tracing was enabled at fork time or the message's ``telemetry``
    flag says the driver is tracing now (how a warm pool forked before
    tracing was turned on learns that it is). Any exception inside a
    task is deliberately *not* caught: an exception here is a bug in
    deterministic engine code, and the resulting abnormal exit is exactly
    what the driver supervises.

    An idle worker exits once its driver dies. A SIGKILLed driver cannot
    shut its workers down, and ``recv`` never sees EOF: a forked worker
    inherits a copy of the driver's end of its own pipe. So the loop polls
    and returns as soon as the worker has been re-parented.
    """
    driver = os.getppid()
    chaos = state.get("chaos")
    capture: _obs_trace.WorkerTelemetry | None = None
    while True:
        if not conn.poll(_ORPHAN_CHECK_S):
            if os.getppid() != driver:
                return
            continue
        message = conn.recv()
        if message is _SHUTDOWN:
            conn.close()
            return
        chunk_id, chunk_ord, attempt, payload, telemetry = message
        if chaos is not None:
            # Injected worker-level faults (crash via os._exit, hang via
            # sleep) for end-to-end supervision testing.
            chaos.apply_worker_fault(chunk_ord, attempt)
        if not (telemetry or capture is not None or _obs_trace.enabled()):
            conn.send((chunk_id, task_fn(state, payload)))
            continue
        if capture is None:
            capture = _obs_trace.WorkerTelemetry(enable_tracing=True)
        attrs: dict[str, Any] = {"chunk": chunk_ord, "attempt": attempt}
        if isinstance(payload, dict) and "kind" in payload:
            attrs["kind"] = payload["kind"]
        with _obs_trace.span("worker.chunk", **attrs):
            result = task_fn(state, payload)
        conn.send((chunk_id, result, capture.collect()))


@dataclass
class _Worker:
    proc: Any
    conn: Any
    slot: int = 0  # stable fleet position, preserved across restarts
    task: tuple[int, int, int, Any] | None = None  # (chunk_id, ord, attempt, payload)
    started_at: float = 0.0


class ChunkDispatcher:
    """Supervised fan-out of deterministic chunks over worker processes.

    Parameters
    ----------
    ctx:
        A :mod:`multiprocessing` context. Callers pass the fork context, so
        ``state`` and ``task_fn`` reach workers by inheritance and may hold
        closures.
    n_workers:
        Size of the worker fleet.
    state:
        Read-only state every worker inherits at start (a pool's utility
        plus an optional ``"chaos"`` monkey). A *restarted* worker
        inherits it afresh.
    task_fn:
        ``task_fn(state, payload) -> result``; must be safe to re-execute.
    deadline:
        A :class:`DeadlinePolicy`; chunk latencies feed it, and its
        ``deadline()`` bounds every in-flight chunk.
    stats:
        The :class:`SupervisionStats` this dispatcher accumulates into over
        its lifetime; its ``worker_restarts`` is what the restart cap
        bounds.
    on_worker_start:
        Optional ``on_worker_start(slot)`` invoked after a worker process
        (re)starts in fleet position ``slot`` — restarts included, so
        pool-side liveness counters and gauges see every process start.

    Each message tells its worker whether the driver is tracing. Telemetry
    that workers piggyback on their replies is merged with
    :func:`repro.obs.trace.merge_worker_telemetry` in chunk-id order (a
    deterministic merge order), under the driver span open at the time; a
    merge failure is recorded on the flight recorder but never fails the
    dispatch.
    """

    def __init__(
        self,
        ctx,
        n_workers: int,
        state: dict,
        task_fn: Callable[[dict, Any], Any],
        deadline: DeadlinePolicy | None = None,
        max_chunk_retries: int = 3,
        max_worker_restarts: int = 32,
        stats: SupervisionStats | None = None,
        on_worker_start: Callable[[int], None] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._ctx = ctx
        self.n_workers = int(n_workers)
        self._state = state
        self._task_fn = task_fn
        self.deadline = deadline or DeadlinePolicy()
        self.max_chunk_retries = int(max_chunk_retries)
        self.max_worker_restarts = int(max_worker_restarts)
        self.stats = stats if stats is not None else SupervisionStats()
        # Where the current dispatch counts: ``stats`` plus the caller's.
        self._tallies: tuple[SupervisionStats, ...] = (self.stats,)
        self._on_worker_start = on_worker_start
        self._telemetry_pending: dict[int, tuple[int, Any]] = {}
        self._workers: list[_Worker] = []
        self._next_ord = 0  # lifetime chunk sequence number (chaos identity)
        self._closed = False

    # ------------------------------------------------------------------ #
    # worker lifecycle                                                   #
    # ------------------------------------------------------------------ #

    def _spawn(self, slot: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._state, self._task_fn),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds its own copy
        if self._on_worker_start is not None:
            self._on_worker_start(slot)
        return _Worker(proc=proc, conn=parent_conn, slot=slot)

    def _ensure_fleet(self, n_needed: int) -> None:
        while len(self._workers) < min(self.n_workers, max(1, n_needed)):
            self._workers.append(self._spawn(len(self._workers)))

    def _restart(self, worker: _Worker, reason: str, chunk_ord: int, attempt: int) -> None:
        """Tear down one worker and fork its replacement."""
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - last-resort kill
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._emit("restart", chunk_ord, attempt)
        if self.stats.worker_restarts > self.max_worker_restarts:
            raise ChunkFailure(
                f"worker restart budget exhausted "
                f"({self.max_worker_restarts}) after repeated {reason}s"
            )
        replacement = self._spawn(worker.slot)
        self._workers[self._workers.index(worker)] = replacement

    def _emit(
        self, kind: str, chunk_ord: int, attempt: int, **detail: Any
    ) -> None:
        """The one emission site of a supervision event."""
        for tally in self._tallies:
            tally.record(kind)
        if _obs_trace.enabled():
            _obs_metrics.counter(f"engine.supervision.{kind}").inc()
        _obs_flight.record(
            f"supervision.{kind}", chunk=chunk_ord, attempt=attempt, **detail
        )
        chaos = self._state.get("chaos")
        if kind in ("crash", "hang") and hasattr(chaos, "record_worker_fault"):
            planned = chaos.worker_fault(chunk_ord, attempt)
            if planned is not None:
                chaos.record_worker_fault(planned, chunk_ord)

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #

    def dispatch(
        self, payloads: Sequence[Any], stats: SupervisionStats | None = None
    ) -> list[Any]:
        """Run every payload through ``task_fn`` on the fleet; results in
        payload order. Crashed or hung chunks are re-queued transparently.

        ``stats``, when given, also counts this call's completed chunks and
        supervision events: how a borrower of a shared fleet keeps its own
        tally.
        """
        if self._closed:
            raise RuntimeError("dispatcher already closed")
        if not payloads:
            return []
        pending: deque[tuple[int, int, int, Any]] = deque()
        for chunk_id, payload in enumerate(payloads):
            pending.append((chunk_id, self._next_ord, 0, payload))
            self._next_ord += 1
        results: dict[int, Any] = {}
        telemetry: dict[int, tuple[int, Any]] = {}
        self._telemetry_pending = telemetry
        # Events are only ever emitted inside a dispatch, so each call
        # simply replaces the previous call's tallies.
        self._tallies = (self.stats,)
        if stats is not None and stats is not self.stats:
            self._tallies += (stats,)
        self._ensure_fleet(len(pending))
        while len(results) < len(payloads):
            self._assign(pending)
            busy = [w for w in self._workers if w.task is not None]
            if not busy:
                if pending:  # pragma: no cover - defensive
                    continue
                raise ChunkFailure(
                    "dispatcher stalled with missing results"
                )  # pragma: no cover - defensive
            ready = _mp_connection.wait(
                [w.conn for w in busy], timeout=_POLL_INTERVAL_S
            )
            for conn in ready:
                worker = next(w for w in busy if w.conn is conn)
                if worker.task is None:  # pragma: no cover - defensive
                    continue
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    self._handle_failure(worker, "crash", pending)
                    continue
                chunk_id, result = reply[0], reply[1]
                # Telemetry (if any) rides the reply as a third element and
                # is stripped here, so task results keep their exact shape.
                if len(reply) > 2 and reply[2] is not None:
                    telemetry[chunk_id] = (worker.slot, reply[2])
                results[chunk_id] = result
                self.deadline.observe(time.monotonic() - worker.started_at)
                for tally in self._tallies:
                    tally.chunks_completed += 1
                worker.task = None
            self._sweep(pending)
        self._drain_telemetry(telemetry)
        return [results[chunk_id] for chunk_id in range(len(payloads))]

    def _drain_telemetry(self, telemetry: dict[int, tuple[int, Any]]) -> None:
        """Merge the telemetry received so far, in chunk-id order, under
        per-slot ``worker[i]`` groups beneath the open driver span."""
        if not telemetry:
            return
        items = sorted(telemetry.items())
        telemetry.clear()  # drained exactly once (flushes may precede the end)
        groups: dict[int, Any] = {}
        try:
            for __, (slot, delta) in items:
                _obs_trace.merge_worker_telemetry(slot, delta, groups)
        except Exception as exc:  # telemetry must never fail a dispatch
            _obs_flight.record(
                "supervision.telemetry_sink_error", error=repr(exc)
            )

    def _assign(self, pending: deque) -> None:
        for index, worker in enumerate(self._workers):
            if not pending:
                break
            if worker.task is not None:
                continue
            if not worker.proc.is_alive():
                # Died while idle (e.g. killed between waves): replace it
                # quietly before handing it work.
                head = pending[0]
                self._restart(worker, "idle crash", head[1], head[2])
                worker = self._workers[index]
            task = pending.popleft()
            try:
                worker.conn.send((*task, _obs_trace.enabled()))
            except (OSError, BrokenPipeError):
                # Lost the liveness race: requeue and let the next pass
                # restart the worker via the sweep.
                pending.appendleft(task)
                continue
            worker.task = task
            worker.started_at = time.monotonic()

    def _sweep(self, pending: deque) -> None:
        """Liveness + deadline checks over every in-flight chunk."""
        deadline = self.deadline.deadline()
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.task is None:
                continue
            if not worker.proc.is_alive():
                self._handle_failure(worker, "crash", pending)
            elif deadline is not None and now - worker.started_at > deadline:
                self._handle_failure(worker, "hang", pending)

    def _handle_failure(self, worker: _Worker, kind: str, pending: deque) -> None:
        chunk_id, chunk_ord, attempt, payload = worker.task
        worker.task = None
        # Flush telemetry received so far this dispatch before the failure
        # is flight-recorded — naming the in-flight chunk — and the ring
        # dumped (no-op unless a dump_dir is configured), so post-mortems
        # see the workers' last shipped spans next to the failure event.
        self._drain_telemetry(self._telemetry_pending)
        self._emit(
            kind, chunk_ord, attempt,
            slot=worker.slot, pid=worker.proc.pid, chunk_id=chunk_id,
        )
        _obs_flight.auto_dump(f"worker-{kind}")
        if attempt + 1 > self.max_chunk_retries:
            self._restart(worker, kind, chunk_ord, attempt)
            raise ChunkFailure(
                f"chunk {chunk_ord} failed {attempt + 1} times "
                f"(last failure: {kind}); giving up"
            )
        self._emit("retry", chunk_ord, attempt + 1)
        pending.appendleft((chunk_id, chunk_ord, attempt + 1, payload))
        self._restart(worker, kind, chunk_ord, attempt)

    # ------------------------------------------------------------------ #
    # teardown                                                           #
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the fleet down; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                if worker.proc.is_alive():
                    worker.conn.send(_SHUTDOWN)
            except (OSError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._workers = []

    def __enter__(self) -> "ChunkDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
