"""Chaos fault injection for pipeline operators.

Where the rest of :mod:`repro.errors` corrupts *data* (cells of the source
tables), this module corrupts *execution*: a seeded :class:`ChaosMonkey`
wraps a pipeline plan and makes its operators misbehave at configurable
per-row rates —

- ``error_rate``: the operator raises on the row (a hard UDF crash);
- ``transient_rate``: the operator raises a retryable
  :class:`~repro.pipeline.resilience.TransientError` the first time it
  meets the row, then succeeds (flaky I/O);
- ``nan_rate``: the map output cell is silently replaced with NaN
  (numeric corruption that only surfaces at the encode boundary);
- ``type_rate``: the map output cell is silently replaced with a marker
  string (type corruption caught by the executor's cell-type guard);
- ``latency_rate``: evaluation of the row sleeps for ``latency`` seconds
  (a slow operator, caught by the wall-clock timeout guard).

Fault decisions are a pure function of ``(seed, operator index, row id)``,
so they are reproducible *and* independent of evaluation order: the same
rows fault whether the executor runs the operator vectorised or row-wise.
Every fault that actually fires is recorded in :attr:`ChaosMonkey.triggered`
as ground truth for tests and benchmarks — graceful degradation is proven
by checking the executor's quarantine against exactly this record.

Beyond operator faults, the monkey also injects *worker-level* faults into
the valuation engine's supervised fan-out (pass the monkey as
``ValuationEngine(chaos=...)``): a targeted chunk either **crashes** its
worker process (``os._exit``, an abnormal exit with no Python unwinding —
the moral equivalent of a segfault or OOM kill) or **hangs** it
(``time.sleep`` past the dispatcher's deadline). Worker faults fire only on
a chunk's *first* attempt, so the supervised retry succeeds and the run is
expected to complete — with :attr:`ChaosMonkey.triggered` again recording
exactly which chunks faulted (``node_kind="worker"``, ``row_id`` holding
the chunk sequence number).

Finally, :class:`DiskChaos` extends the same seeded-fault discipline to the
*storage* layer: it plugs into the :class:`repro.obs.atomicio.IOHooks`
call points of the atomic write and in-place append protocols and injects
short and torn writes, ENOSPC, EIO/lying fsync, and crash-before/after
faults at exact write ordinals — the fault model the crash-consistency
harness (``tools/crashconsist.py``) sweeps.
"""

from __future__ import annotations

import errno
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence, TextIO

import numpy as np

from ..frame import DataFrame
from ..obs.atomicio import IOHooks, SimulatedCrash
from ..pipeline.operators import (
    EncodeNode,
    FilterNode,
    JoinNode,
    MapNode,
    Node,
    PipelinePlan,
    ProjectNode,
    SourceNode,
)
from ..pipeline.resilience import TransientError

__all__ = [
    "ChaosError",
    "TransientChaosError",
    "InjectedFault",
    "ChaosMonkey",
    "DISK_FAULT_KINDS",
    "DiskChaos",
]

CORRUPT_MARKER = "#CHAOS-CORRUPT#"


class ChaosError(RuntimeError):
    """A hard operator failure injected by :class:`ChaosMonkey`."""


class TransientChaosError(TransientError):
    """An injected failure that succeeds when retried."""


@dataclass(frozen=True)
class InjectedFault:
    """Ground truth for one fault that fired during execution."""

    op_index: int  # position of the operator in the wrapped plan's topological order
    node_kind: str
    kind: str  # "error" | "transient" | "nan" | "type" | "latency"
    row_id: int  # stable row id of the affected row (base-table identity)


class ChaosMonkey:
    """Seeded operator-fault injector for pipeline plans.

    Parameters
    ----------
    seed:
        Determinism root: two monkeys with equal seeds and rates inject
        identical faults on identical plans and data.
    error_rate, transient_rate, nan_rate, type_rate, latency_rate:
        Per-row probabilities of each fault kind at each wrapped operator.
        At most one fault kind fires per (operator, row).
    latency:
        Sleep duration in seconds for latency faults.
    target_kinds:
        Which operator kinds get wrapped (corruption only applies to maps —
        filters have no output cells to corrupt).
    worker_crash_rate, worker_hang_rate:
        Per-chunk probabilities of killing (``os._exit``) or hanging
        (``time.sleep(hang_duration)``) the valuation worker that picks the
        chunk up. Seeded per chunk sequence number, independent of which
        worker runs it; fires only on the chunk's first attempt.
    hang_duration:
        Sleep duration for worker hang faults — pick it well past the
        dispatcher's chunk deadline so the hang is detected, not waited out.
    worker_crash_chunks, worker_hang_chunks:
        Explicit chunk sequence numbers to fault deterministically
        (overrides the rates for those chunks) — "crash on the Nth chunk".
    job_crash_rate, job_crash_jobs:
        *Job-level* faults for the service runtime
        (:class:`repro.service.JobRuntime` passes the monkey as
        ``chaos=``): the per-job probability that a job's handler raises a
        :class:`ChaosError` mid-execution, or explicit job sequence
        numbers to crash deterministically. Like worker faults, job
        crashes fire only on a job's first attempt, so the runtime's
        retry-with-backoff recovers and the run is expected to terminate.
    slow_tenants, tenant_delay_s:
        Tenants whose every job is slowed by ``tenant_delay_s`` seconds
        before the handler runs — the noisy-neighbor scenario fair-share
        scheduling must isolate.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        transient_rate: float = 0.0,
        nan_rate: float = 0.0,
        type_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency: float = 0.05,
        target_kinds: Sequence[str] = ("map", "filter"),
        worker_crash_rate: float = 0.0,
        worker_hang_rate: float = 0.0,
        hang_duration: float = 30.0,
        worker_crash_chunks: Sequence[int] = (),
        worker_hang_chunks: Sequence[int] = (),
        job_crash_rate: float = 0.0,
        job_crash_jobs: Sequence[int] = (),
        slow_tenants: Sequence[str] = (),
        tenant_delay_s: float = 0.05,
    ) -> None:
        rates = {
            "error": float(error_rate),
            "transient": float(transient_rate),
            "nan": float(nan_rate),
            "type": float(type_rate),
            "latency": float(latency_rate),
        }
        if any(r < 0 for r in rates.values()) or sum(rates.values()) > 1.0:
            raise ValueError("fault rates must be non-negative and sum to <= 1")
        worker_rates = {
            "worker_crash": float(worker_crash_rate),
            "worker_hang": float(worker_hang_rate),
        }
        if any(r < 0 for r in worker_rates.values()) or sum(worker_rates.values()) > 1.0:
            raise ValueError(
                "worker fault rates must be non-negative and sum to <= 1"
            )
        overlap = set(worker_crash_chunks) & set(worker_hang_chunks)
        if overlap:
            raise ValueError(
                f"chunks {sorted(overlap)} listed for both crash and hang"
            )
        if not 0.0 <= float(job_crash_rate) <= 1.0:
            raise ValueError("job_crash_rate must be within [0, 1]")
        self.seed = int(seed)
        self.rates = rates
        self.latency = float(latency)
        self.target_kinds = tuple(target_kinds)
        self.worker_rates = worker_rates
        self.hang_duration = float(hang_duration)
        self.worker_crash_chunks = frozenset(int(c) for c in worker_crash_chunks)
        self.worker_hang_chunks = frozenset(int(c) for c in worker_hang_chunks)
        self.job_crash_rate = float(job_crash_rate)
        self.job_crash_jobs = frozenset(int(j) for j in job_crash_jobs)
        self.slow_tenants = frozenset(str(t) for t in slow_tenants)
        self.tenant_delay_s = float(tenant_delay_s)
        self.triggered: list[InjectedFault] = []
        self._transient_seen: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Deterministic per-row decisions
    # ------------------------------------------------------------------
    def decide(self, op_index: int, row_id: int) -> str | None:
        """Fault kind for one (operator, row), or None. Pure and seeded."""
        rng = np.random.default_rng([self.seed, op_index, int(row_id)])
        draw = rng.random()
        cumulative = 0.0
        for kind, rate in self.rates.items():
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def triggered_row_ids(self, kinds: Sequence[str] | None = None) -> set[int]:
        """Row ids of faults that actually fired (optionally by kind)."""
        wanted = set(kinds) if kinds is not None else None
        return {
            f.row_id
            for f in self.triggered
            if wanted is None or f.kind in wanted
        }

    def reset(self) -> None:
        """Clear the trigger record and transient-failure memory."""
        self.triggered.clear()
        self._transient_seen.clear()

    # ------------------------------------------------------------------
    # Worker-level faults (valuation engine supervision)
    # ------------------------------------------------------------------
    def worker_fault(self, chunk_ord: int, attempt: int) -> str | None:
        """Fault kind for one dispatched chunk, or None. Pure and seeded.

        Faults fire only on ``attempt == 0``: a re-queued chunk must
        succeed, so supervised recovery — not an infinite crash loop — is
        what chaos runs exercise.
        """
        if attempt != 0:
            return None
        chunk_ord = int(chunk_ord)
        if chunk_ord in self.worker_crash_chunks:
            return "worker_crash"
        if chunk_ord in self.worker_hang_chunks:
            return "worker_hang"
        if not any(self.worker_rates.values()):
            return None
        # A distinct stream from operator faults: 7919 keys the worker
        # domain so adding worker rates never perturbs operator decisions.
        rng = np.random.default_rng([self.seed, 7919, chunk_ord])
        draw = rng.random()
        cumulative = 0.0
        for kind, rate in self.worker_rates.items():
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def apply_worker_fault(self, chunk_ord: int, attempt: int) -> None:
        """Execute the planned fault *inside a worker process*, if any.

        A crash is ``os._exit`` — no exception, no unwinding, the pipe just
        goes dead, which is exactly what the dispatcher must detect. The
        trigger record cannot be updated here (this process is about to
        die, and its memory is not the driver's); the engine records fired
        worker faults driver-side via :meth:`record_worker_fault` when the
        dispatcher reports the failure.
        """
        kind = self.worker_fault(chunk_ord, attempt)
        if kind == "worker_crash":
            os._exit(66)
        elif kind == "worker_hang":
            time.sleep(self.hang_duration)

    def record_worker_fault(self, kind: str, chunk_ord: int) -> None:
        """Driver-side ground-truth record of a fired worker fault."""
        self._record(-1, "worker", kind, int(chunk_ord))

    def planned_worker_faults(self, n_chunks: int) -> dict[str, list[int]]:
        """Expected worker faults over the first ``n_chunks`` chunk ords."""
        out: dict[str, list[int]] = {}
        for chunk_ord in range(int(n_chunks)):
            kind = self.worker_fault(chunk_ord, 0)
            if kind is not None:
                out.setdefault(kind, []).append(chunk_ord)
        return out

    # ------------------------------------------------------------------
    # Job-level faults (service runtime)
    # ------------------------------------------------------------------
    def job_fault(self, job_ord: int, attempt: int) -> str | None:
        """Fault kind for one service job, or None. Pure and seeded.

        Like worker faults, job crashes fire only on ``attempt == 0`` so
        the runtime's retry budget — not an unrecoverable crash loop — is
        what chaos runs exercise.
        """
        if attempt != 0:
            return None
        job_ord = int(job_ord)
        if job_ord in self.job_crash_jobs:
            return "job_crash"
        if not self.job_crash_rate:
            return None
        # 104729 keys the job domain: adding job rates never perturbs
        # operator or worker fault decisions drawn from the same seed.
        rng = np.random.default_rng([self.seed, 104729, job_ord])
        return "job_crash" if rng.random() < self.job_crash_rate else None

    def apply_job_fault(
        self, job_ord: int, attempt: int, tenant: str | None = None
    ) -> None:
        """Execute planned job faults inside a handler (driver-side).

        Slow-tenant delay applies on *every* attempt (the neighbor stays
        noisy); a planned crash raises :class:`ChaosError` on the first
        attempt only. Both are recorded in :attr:`triggered` with
        ``node_kind="job"`` and ``row_id`` holding the job sequence number.
        """
        if tenant is not None and tenant in self.slow_tenants:
            self._record(-1, "job", "slow_tenant", int(job_ord))
            time.sleep(self.tenant_delay_s)
        if self.job_fault(job_ord, attempt) == "job_crash":
            self._record(-1, "job", "job_crash", int(job_ord))
            raise ChaosError(f"injected crash for service job #{int(job_ord)}")

    def planned_job_faults(self, n_jobs: int) -> dict[str, list[int]]:
        """Expected job crashes over the first ``n_jobs`` job ords."""
        out: dict[str, list[int]] = {}
        for job_ord in range(int(n_jobs)):
            kind = self.job_fault(job_ord, 0)
            if kind is not None:
                out.setdefault(kind, []).append(job_ord)
        return out

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _record(self, op_index: int, node_kind: str, kind: str, row_id: int) -> None:
        self.triggered.append(
            InjectedFault(
                op_index=op_index, node_kind=node_kind, kind=kind, row_id=int(row_id)
            )
        )

    def _pre_faults(
        self, op_index: int, node_kind: str, frame: DataFrame
    ) -> dict[int, str]:
        """Apply latency/raise faults for a frame; return per-position kinds.

        Called before the wrapped callable computes anything. Raises for
        error/transient rows — in a vectorised call that poisons the whole
        evaluation (forcing the executor's row-wise fallback), in a one-row
        call it pinpoints the row.
        """
        decisions = {
            pos: kind
            for pos, rid in enumerate(frame.row_ids.tolist())
            if (kind := self.decide(op_index, rid)) is not None
        }
        for pos, kind in decisions.items():
            if kind == "latency":
                rid = int(frame.row_ids[pos])
                self._record(op_index, node_kind, "latency", rid)
                time.sleep(self.latency)
        transient_rows = [
            int(frame.row_ids[pos])
            for pos, kind in decisions.items()
            if kind == "transient"
            and (op_index, int(frame.row_ids[pos])) not in self._transient_seen
        ]
        if transient_rows:
            for rid in transient_rows:
                self._transient_seen.add((op_index, rid))
                self._record(op_index, node_kind, "transient", rid)
            raise TransientChaosError(
                f"injected transient fault for rows {transient_rows}"
            )
        error_rows = [
            int(frame.row_ids[pos])
            for pos, kind in decisions.items()
            if kind == "error"
        ]
        if error_rows:
            for rid in error_rows:
                self._record(op_index, node_kind, "error", rid)
            raise ChaosError(f"injected operator fault for rows {error_rows}")
        return decisions

    def _wrap_map(self, node: MapNode, op_index: int) -> Callable:
        inner = node.func

        def chaotic(frame: DataFrame) -> Any:
            decisions = self._pre_faults(op_index, "map", frame)
            result = inner(frame)
            corrupt = {
                pos: kind
                for pos, kind in decisions.items()
                if kind in ("nan", "type")
            }
            if not corrupt:
                return result
            if hasattr(result, "to_list"):
                cells = list(result.to_list())
            else:
                cells = list(np.asarray(result).tolist())
            for pos, kind in corrupt.items():
                rid = int(frame.row_ids[pos])
                self._record(op_index, "map", kind, rid)
                cells[pos] = float("nan") if kind == "nan" else CORRUPT_MARKER
            return cells

        return chaotic

    def _wrap_filter(self, node: FilterNode, op_index: int) -> Callable:
        inner = node.predicate

        def chaotic(frame: DataFrame) -> Any:
            self._pre_faults(op_index, "filter", frame)
            return inner(frame)

        return chaotic

    # ------------------------------------------------------------------
    # Plan wrapping
    # ------------------------------------------------------------------
    def wrap(self, sink: Node) -> Node:
        """Clone the plan ending at ``sink`` with chaos-wrapped operators.

        The original plan is left untouched; the clone shares (stateful)
        feature encoders with the original, so use a freshly built pipeline
        when comparing fitted encoders across chaotic and clean runs.
        """
        plan = PipelinePlan()
        mapping: dict[int, Node] = {}
        for op_index, node in enumerate(sink.plan.topological_order(sink)):
            if isinstance(node, SourceNode):
                clone: Node = plan.source(node.name)
            elif isinstance(node, JoinNode):
                clone = mapping[node.inputs[0].id].join(
                    mapping[node.inputs[1].id],
                    on=node.on,
                    how=node.how,
                    fuzzy=node.fuzzy,
                    suffix=node.suffix,
                )
            elif isinstance(node, FilterNode):
                predicate = (
                    self._wrap_filter(node, op_index)
                    if "filter" in self.target_kinds
                    else node.predicate
                )
                clone = mapping[node.inputs[0].id].filter(
                    predicate, f"chaos({node.description})"
                )
            elif isinstance(node, MapNode):
                func = (
                    self._wrap_map(node, op_index)
                    if "map" in self.target_kinds
                    else node.func
                )
                clone = mapping[node.inputs[0].id].with_column(
                    node.name, func, f"chaos({node.description})"
                )
            elif isinstance(node, ProjectNode):
                clone = mapping[node.inputs[0].id].project(node.columns)
            elif isinstance(node, EncodeNode):
                clone = mapping[node.inputs[0].id].encode(
                    node.encoder, node.label_column
                )
            else:  # pragma: no cover - defensive
                raise TypeError(f"cannot wrap node type: {type(node).__name__}")
            mapping[node.id] = clone
        return mapping[sink.id]


# ---------------------------------------------------------------------- #
# storage-layer chaos (atomic write protocol fault injection)            #
# ---------------------------------------------------------------------- #

#: Fault kinds :class:`DiskChaos` can fire. A snapshot commit
#: (:func:`~repro.obs.atomicio.atomic_writer`) meets ``short_write``,
#: ``enospc`` and ``torn_append`` at :meth:`~repro.obs.atomicio.IOHooks.
#: on_commit` and the two crash kinds around ``os.replace``; an in-place
#: append meets ``enospc`` and ``crash_before_rename`` before its write,
#: ``short_write`` and ``torn_append`` in it, and ``crash_after_rename``
#: after its fsync. ``eio_fsync``/``lying_fsync`` fire at ``on_fsync`` on
#: both paths.
DISK_FAULT_KINDS = (
    "short_write",
    "enospc",
    "eio_fsync",
    "lying_fsync",
    "crash_before_rename",
    "crash_after_rename",
    "torn_append",
)


class DiskChaos(IOHooks):
    """Seeded storage-fault injector for the atomic write protocols.

    Install with :func:`repro.obs.atomicio.io_hooks` (scoped) or
    :func:`~repro.obs.atomicio.install_io_hooks`; every
    :func:`~repro.obs.atomicio.atomic_writer` commit and every
    :func:`~repro.obs.atomicio.atomic_append_line` then counts as one *op*
    and may fault:

    - ``short_write`` — the write loses its last ``short_write_bytes``
      bytes yet is acknowledged: a snapshot's staged file is truncated
      before the rename publishes it, an append writes all but the tail of
      its line (what a real partial write leaves after power loss);
    - ``torn_append`` — the writer dies after writing all but the last
      ``short_write_bytes`` bytes, before its fsync, and never
      acknowledges the write (a snapshot's staged file is left
      unpublished);
    - ``enospc`` — ``OSError(ENOSPC)`` before anything is published; the
      write aborts and the target is untouched;
    - ``eio_fsync`` — ``on_fsync`` raises ``OSError(EIO)`` (dying disk);
    - ``lying_fsync`` — the real fsync is *skipped* but the write
      continues (firmware that acknowledges flushes it never performed);
    - ``crash_before_rename`` / ``crash_after_rename`` — the process dies
      just before the write is published (before ``os.replace``; before an
      append writes) or just after (after ``os.replace``; after an
      append's fsync), before the call returns. Every crash either raises
      :class:`~repro.obs.atomicio.SimulatedCrash`
      (``crash_mode="raise"``, for in-process tests — it derives from
      ``BaseException`` so production handlers cannot absorb it) or
      hard-exits the process with code 71 (``crash_mode="exit"``, for
      subprocess harnesses; no unwinding, like a ``kill -9``).

    Fault decisions are a pure function of ``(seed, op ordinal)`` — domain
    prime 27644437 keeps them independent of the operator/worker/job fault
    streams — or explicit via ``fault_at={op_ord: kind}``, which is how
    the crash-consistency harness sweeps every fault point one run at a
    time. Ops on ``.corrupt`` / ``.lock`` / staging sidecars are never
    counted or faulted (quarantine and recovery must be able to proceed
    under chaos); ``only`` restricts faulting to paths containing a
    substring. Fired faults land in :attr:`triggered` with
    ``node_kind="disk"`` and ``row_id`` holding the op ordinal.
    """

    def __init__(
        self,
        seed: int = 0,
        short_write_rate: float = 0.0,
        enospc_rate: float = 0.0,
        eio_fsync_rate: float = 0.0,
        lying_fsync_rate: float = 0.0,
        crash_before_rename_rate: float = 0.0,
        crash_after_rename_rate: float = 0.0,
        fault_at: Mapping[int, str] | None = None,
        crash_mode: str = "raise",
        short_write_bytes: int = 12,
        only: str | None = None,
    ) -> None:
        rates = {
            "short_write": float(short_write_rate),
            "enospc": float(enospc_rate),
            "eio_fsync": float(eio_fsync_rate),
            "lying_fsync": float(lying_fsync_rate),
            "crash_before_rename": float(crash_before_rename_rate),
            "crash_after_rename": float(crash_after_rename_rate),
        }
        if any(r < 0 for r in rates.values()) or sum(rates.values()) > 1.0:
            raise ValueError(
                "disk fault rates must be non-negative and sum to <= 1"
            )
        if crash_mode not in ("raise", "exit"):
            raise ValueError("crash_mode must be 'raise' or 'exit'")
        bad_kinds = set((fault_at or {}).values()) - set(DISK_FAULT_KINDS)
        if bad_kinds:
            raise ValueError(f"unknown disk fault kinds: {sorted(bad_kinds)}")
        self.seed = int(seed)
        self.disk_rates = rates
        self.fault_at = {int(k): str(v) for k, v in (fault_at or {}).items()}
        self.crash_mode = crash_mode
        self.short_write_bytes = int(short_write_bytes)
        self.only = only
        self.triggered: list[InjectedFault] = []
        self.n_ops = 0
        self._lock = threading.Lock()
        self._pending: tuple[int, str] | None = None

    # -- decisions -------------------------------------------------------
    def disk_fault(self, op_ord: int) -> str | None:
        """Fault kind for one commit ordinal, or None. Pure and seeded."""
        op_ord = int(op_ord)
        if op_ord in self.fault_at:
            return self.fault_at[op_ord]
        if not any(self.disk_rates.values()):
            return None
        # 27644437 keys the disk domain: adding storage rates never
        # perturbs operator, worker, or job fault decisions.
        rng = np.random.default_rng([self.seed, 27644437, op_ord])
        draw = rng.random()
        cumulative = 0.0
        for kind, rate in self.disk_rates.items():
            cumulative += rate
            if draw < cumulative:
                return kind
        return None

    def planned_disk_faults(self, n_ops: int) -> dict[str, list[int]]:
        """Expected disk faults over the first ``n_ops`` commit ordinals."""
        out: dict[str, list[int]] = {}
        for op_ord in range(int(n_ops)):
            kind = self.disk_fault(op_ord)
            if kind is not None:
                out.setdefault(kind, []).append(op_ord)
        return out

    def reset(self) -> None:
        """Clear the trigger record and the op-ordinal counter."""
        with self._lock:
            self.triggered.clear()
            self.n_ops = 0
            self._pending = None

    # -- internals -------------------------------------------------------
    def _targets(self, path: Path) -> bool:
        name = Path(path).name
        if name.endswith((".corrupt", ".lock", ".tmp")):
            return False
        return self.only is None or self.only in str(path)

    def _record_disk(self, op_ord: int, kind: str) -> None:
        self.triggered.append(
            InjectedFault(
                op_index=op_ord, node_kind="disk", kind=kind, row_id=op_ord
            )
        )

    def _crash(self, kind: str, path: Path) -> None:
        if self.crash_mode == "exit":
            os._exit(71)
        raise SimulatedCrash(f"injected {kind} for {path}")

    def _next_op(self, path: Path) -> str | None:
        """Count one targeted write and park its fault for the stage that
        fires it; None for untargeted paths and fault-free ops."""
        if not self._targets(path):
            return None
        with self._lock:
            op_ord = self.n_ops
            self.n_ops += 1
            kind = self.disk_fault(op_ord)
            self._pending = (op_ord, kind) if kind is not None else None
        return kind

    def _fire(self, path: Path, *kinds: str) -> str | None:
        """Take the parked fault if it is one of ``kinds`` and ``path`` is
        targeted, recording it."""
        if not self._targets(path):
            return None
        with self._lock:
            if self._pending is None or self._pending[1] not in kinds:
                return None
            op_ord, kind = self._pending
            self._pending = None
            self._record_disk(op_ord, kind)
        return kind

    def _enospc(self, path: Path) -> OSError:
        return OSError(errno.ENOSPC, "injected ENOSPC (no space left)", str(path))

    # -- IOHooks call points ---------------------------------------------
    def on_commit(self, path: Path, handle: TextIO) -> None:
        self._next_op(path)
        kind = self._fire(path, "short_write", "torn_append", "enospc")
        if kind == "enospc":
            raise self._enospc(path)
        if kind is not None:
            handle.flush()
            size = os.fstat(handle.fileno()).st_size
            os.ftruncate(
                handle.fileno(), max(0, size - self.short_write_bytes)
            )
            if kind == "torn_append":
                self._crash(kind, path)

    def on_append(self, path: Path, data: bytes, when: str) -> bytes:
        if when == "after":
            if self._fire(path, "crash_after_rename"):
                self._crash("crash_after_rename", path)
            return data
        if self._next_op(path) in ("short_write", "torn_append"):
            self._fire(path, "short_write")  # a torn append dies at fsync
            return data[: max(0, len(data) - self.short_write_bytes)]
        kind = self._fire(path, "enospc", "crash_before_rename")
        if kind == "enospc":
            raise self._enospc(path)
        if kind is not None:
            self._crash(kind, path)
        return data

    def on_fsync(self, path: Path, fileno: int) -> bool:
        kind = self._fire(path, "eio_fsync", "lying_fsync", "torn_append")
        if kind == "eio_fsync":
            raise OSError(errno.EIO, "injected EIO on fsync", str(path))
        if kind == "torn_append":
            self._crash(kind, path)
        return kind is None  # lying_fsync: report success, flush nothing

    def on_replace(self, tmp: str, path: Path, when: str) -> None:
        kind = self._fire(path, f"crash_{when}_rename")
        if kind is not None:
            self._crash(kind, path)

    def on_dirsync(self, dirpath: Path) -> bool:
        with self._lock:
            self._pending = None  # op completed; nothing left to fire
        return True
