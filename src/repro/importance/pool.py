"""Worker pools: the valuation engine's only parallel executor.

Every parallel fan-out of
:class:`~repro.importance.engine.ValuationEngine` runs on a
:class:`WorkerPool`. A pool that outlives the call — owned by the engine,
borrowed from the caller, or leased from a :class:`PoolRegistry` — pays
process creation and the dataset publish once and keeps its subset memo
warm across waves, runs and engines: the amortized substrate the
Datascope line of work presupposes. An engine with no such pool leases
a call-scoped one (fork start, no warmup, no ledger) that its
``run_permutations`` / ``evaluate_many`` call closes on the way out.

:class:`WorkerPool`
    A supervised fleet. The training and validation arrays are published
    a single time into a
    :class:`~repro.importance.shm.SharedArrayBundle`; workers rebuild the
    utility around zero-copy read-only views and keep nothing else between
    chunks. After creation, the driver streams only small *chunk
    descriptors* — ordering slices with the memo's values of their
    prefixes, subset keys, seeds/knobs — over the
    :class:`~repro.importance.supervision.ChunkDispatcher` pipes. A
    crashed or hung worker is replaced by a process that *re-attaches* to
    the shared segments instead of re-copying the dataset; the re-queued
    chunk carries everything its worker needs.

:class:`PoolRegistry` and :func:`valuation_pool`
    Pools keyed by utility fingerprint (dataset bytes + model + metric), so
    sequential jobs on the same dataset — the service runtime's common
    case — reuse one warm pool instead of paying setup per job. The
    context manager installs a process-wide registry that
    :class:`~repro.importance.engine.ValuationEngine` (and therefore every
    ``nde.*_values`` facade) leases from automatically.

Cache coherence: each pool owns the one driver-side subset memo of its
dataset (:attr:`WorkerPool.memo`), which every engine fanning out on the
pool shares, and which is the only subset cache the pool keeps. A
permutation chunk carries the memo's value of every prefix of its
orderings that the memo holds (NaN where it holds none); the worker
evaluates the rest in a dict that lives for the chunk and reports each
newly evaluated subset with its results. The driver merges them into the
memo, charging the evaluation census only for subsets it did not hold
(so the census matches serial). Results are merged in chunk order, so
values are bit-identical to serial for any worker count, any start
method, and any crash/retry history.

Start methods: ``fork`` is preferred (cheap worker replacement). On
spawn-only platforms the pool still runs — shared memory plus picklable
chunk descriptors need no fork — provided the utility's model/metric
pickle; otherwise pool construction raises :class:`PoolUnavailable` and
the engine degrades loudly to serial (see ``_warn_no_fork`` in the engine
module).

Thread safety: one pool is routinely shared across threads — the service
runtime runs handlers concurrently and :class:`PoolRegistry` hands every
job on a dataset fingerprint the same pool — but the dispatcher's pipes
and per-dispatch chunk ids are single-fan-out state. A per-pool lock
therefore serializes :meth:`dispatch` so concurrent fan-outs queue
instead of consuming each other's chunk results; see ``_lock``. The memo
has a lock of its own, so one job reads and writes it while another
job's fan-out holds the pool lock.
"""

from __future__ import annotations

import pickle
import threading
import time
import weakref
from typing import Any, Mapping, Sequence

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from .checkpoint import config_fingerprint
from .shm import SHM_AVAILABLE, SharedArrayBundle, shareable_arrays
from .supervision import (
    _HANG_FLOOR_S,
    ChunkDispatcher,
    DeadlinePolicy,
    SupervisionStats,
)

__all__ = [
    "PoolUnavailable",
    "WorkerPool",
    "PoolRegistry",
    "valuation_pool",
    "current_registry",
    "utility_fingerprint",
]

#: Arrays a standard :class:`~repro.importance.utility.Utility` carries.
_UTILITY_ARRAYS = ("x_train", "y_train", "x_valid", "y_valid")


class PoolUnavailable(RuntimeError):
    """A worker pool cannot run this utility on this platform."""


# --------------------------------------------------------------------- #
# worker-side task execution                                            #
# --------------------------------------------------------------------- #


def _rebuild_utility(state: dict) -> Any:
    """Worker-side utility: inherited (fork mode) or rebuilt over SHM views."""
    if state.get("utility") is not None:
        return state["utility"], None
    spec = state["spec"]
    attach_started = time.perf_counter()
    with _obs.span("worker.attach", bundle=spec["bundle"].get("name")):
        bundle = SharedArrayBundle.attach(spec["bundle"])
        views = bundle.arrays
    from .utility import Utility

    utility = Utility.__new__(Utility)
    utility.model = spec["model"]
    utility.x_train = views["x_train"]
    utility.y_train = views["y_train"]
    utility.x_valid = views["x_valid"]
    utility.y_valid = views["y_valid"]
    utility.metric = spec["metric"]
    utility.null_score = float(spec["null_score"])
    utility.n_evaluations = 0
    # The bundle must outlive the views: park it on the utility.
    utility._shm_bundle = bundle
    return utility, time.perf_counter() - attach_started


def _pool_local(state: dict) -> dict:
    """Per-worker-process context, built lazily on the first task.

    ``state`` is this process's private copy (fork COW or spawn pickle),
    so mutating it never leaks across workers or back to the driver. It
    holds the utility and the one-shot ``meta`` that records attach
    latency for the driver's observability satellite; no subset value
    outlives the chunk that needed it.
    """
    local = state.get("_pool_local")
    if local is None:
        utility, attach_s = _rebuild_utility(state)
        local = {"utility": utility, "meta": {"attach_s": attach_s}}
        state["_pool_local"] = local
    return local


def _pool_task(state: dict, payload: Mapping[str, Any]):
    """Execute one chunk descriptor; safe to re-execute after crash/hang.

    Every result tuple carries its output at index 1 and ends with
    ``meta`` — None except on a worker's first completed chunk, where it
    carries the attach latency. Permutation and subset chunks share one
    layout, ``(kind, output, new_entries, evals, counters, meta)``; a
    permutation chunk's output is ``(deltas, truncated_scans)``.

    A chunk's subset values live in a dict that dies with the chunk: a
    permutation chunk seeds it with the ``known`` values the driver's memo
    held for its prefixes (NaN where it held none), and every evaluation
    adds to it, so repeats within the chunk are evaluated once.
    """
    local = _pool_local(state)
    meta = local["meta"]
    if meta is not None:
        local["meta"] = None
    kind = payload["kind"]
    if kind == "ping":
        return ("ping", meta)

    utility = local["utility"]
    cache: dict = {}
    new_entries: dict = {}
    counters = [0, 0]  # hits, misses

    def evaluate(key: tuple[int, ...]) -> float:
        if key in cache:
            counters[0] += 1
            return cache[key]
        counters[1] += 1
        value = float(utility.evaluate(np.asarray(key, dtype=np.int64)))
        cache[key] = value
        new_entries[key] = value
        return value

    evals_before = utility.n_evaluations
    if kind == "permutation":
        from .engine import _prefix_keys, _scan_orderings

        cache.update(
            (key, value)
            for order, values in zip(payload["orderings"], payload["known"])
            for key, value in zip(_prefix_keys(order), values.tolist())
            if value == value  # NaN: the driver's memo held no value
        )
        output: Any = _scan_orderings(
            evaluate,
            payload["orderings"],
            payload["weights"],
            payload["truncation_tolerance"],
            payload["null"],
            payload["full"],
        )
    elif kind == "subset":
        output = [evaluate(tuple(key)) for key in payload["keys"]]
    else:  # pragma: no cover
        raise ValueError(f"unknown pool task kind: {kind!r}")
    evals = utility.n_evaluations - evals_before
    _note_worker_counters(evals, counters)
    return (kind, output, list(new_entries.items()), evals, counters, meta)


def _note_worker_counters(evals: int, counters: Sequence[int]) -> None:
    """Worker-local metric emission; reaches the driver via telemetry
    backhaul (the driver separately charges ``engine.*`` counters from the
    result census, so these are namespaced ``worker.*`` to avoid
    double-counting one evaluation in the same series)."""
    if not _obs.enabled():
        return
    if counters[0]:
        _obs_metrics.counter("worker.cache.hits").inc(counters[0])
    if counters[1]:
        _obs_metrics.counter("worker.cache.misses").inc(counters[1])
    if evals:
        _obs_metrics.counter("worker.evaluations").inc(evals)


# --------------------------------------------------------------------- #
# fingerprinting                                                        #
# --------------------------------------------------------------------- #


def utility_fingerprint(utility: Any) -> str:
    """Stable identity of the (dataset, model, metric) a pool serves.

    Standard utilities hash their arrays, pickled model prototype, metric
    qualname, and null score — two independently constructed utilities
    over the same data share a pool. Anything unhashable falls back to
    object identity: correct, never shared. Memoized on the utility (its
    arrays are immutable by the engine's contract), so warm-pool leases
    pay the hash once.
    """
    cached = getattr(utility, "_pool_fingerprint", None)
    if cached is not None:
        return cached
    try:
        payload = {
            key: np.ascontiguousarray(getattr(utility, key))
            for key in _UTILITY_ARRAYS
        }
        payload["model"] = config_fingerprint(
            {"pickle": pickle.dumps(utility.model).hex()}
        )
        metric = getattr(utility, "metric", None)
        payload["metric"] = getattr(metric, "__qualname__", repr(metric))
        payload["null_score"] = float(utility.null_score)
        fingerprint = config_fingerprint(payload)
    except Exception:
        return f"id:{id(utility)}"
    try:
        utility._pool_fingerprint = fingerprint
    except Exception:  # pragma: no cover - slotted/frozen utilities
        pass
    return fingerprint


def _utility_spec(utility: Any) -> dict | None:
    """Picklable rebuild recipe for a standard utility, or None.

    Requires the four dataset arrays to be shareable (fixed-itemsize numpy)
    and the model/metric/chaos-free remainder to pickle. Non-standard
    utilities (closures over arbitrary state) return None and ride on fork
    inheritance instead.
    """
    if not all(hasattr(utility, key) for key in _UTILITY_ARRAYS):
        return None
    if not hasattr(utility, "model") or not hasattr(utility, "metric"):
        return None
    arrays = {key: getattr(utility, key) for key in _UTILITY_ARRAYS}
    if not shareable_arrays(arrays):
        return None
    try:
        small = {
            "model": utility.model,
            "metric": utility.metric,
            "null_score": float(utility.null_score),
        }
        pickle.dumps(small)
    except Exception:
        return None
    return {"arrays": arrays, **small}


# --------------------------------------------------------------------- #
# the pool                                                              #
# --------------------------------------------------------------------- #

class WorkerPool:
    """Supervised worker fleet: the engine's only parallel executor.

    Long-lived (owned, borrowed or registry-leased) or scoped to one engine
    call, with a shared-memory data plane.

    Parameters
    ----------
    utility:
        The utility game workers will evaluate. Standard utilities (the
        four dataset arrays + picklable model/metric) are published into
        shared memory and rebuilt in each worker; anything else requires a
        fork-capable platform (workers inherit the object).
    n_workers:
        Fleet size (>= 1).
    start_method:
        ``"fork"``, ``"spawn"``, or None for the platform preference
        (fork where available).
    warmup:
        Dispatch one ping per worker at construction, inside an
        ``engine.pool.lifecycle`` span, so processes start, attach to the
        segments, and report attach latency before the first real chunk
        arrives. Setup cost is paid here, once, instead of inside the
        first valuation call. Without warmup, workers start on the first
        dispatch and chunks are numbered from 0 by real work alone.
    ledger:
        Optional :class:`repro.obs.RunLedger`; the pool appends a
        ``"pool"`` lifecycle event at close (workers, chunks, shm bytes,
        restarts).
    chunk_timeout_s:
        Hard per-chunk deadline for hang detection. Default None: the
        deadline adapts to 8× the p95 of recent chunk latencies, floored
        at 5 s. A chunk is retried at most 3 times, and workers restart
        at most 32 times over the pool's lifetime.
    chaos:
        Optional ChaosMonkey forwarded into workers (fork mode, or spawn
        when picklable) for fault-injection tests.
    """

    def __init__(
        self,
        utility: Any,
        n_workers: int,
        start_method: str | None = None,
        warmup: bool = True,
        ledger: Any | None = None,
        chunk_timeout_s: float | None = None,
        chaos: Any | None = None,
    ) -> None:
        import multiprocessing as mp

        from .engine import SubsetMemo  # imported late: engine imports us

        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        available = mp.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in available else "spawn"
        if start_method not in available:
            raise PoolUnavailable(
                f"start method {start_method!r} unavailable on this platform"
            )
        self.n_workers = int(n_workers)
        self.start_method = start_method
        self.ledger = ledger
        self.utility = utility
        self.fingerprint = utility_fingerprint(utility)
        self.supervision = SupervisionStats()
        self._closed = False
        self._created_at = time.perf_counter()
        # Fan-outs are serialized: the dispatcher's pipes and chunk ids are
        # single-dispatch state, so concurrent borrowers (service jobs on
        # one dataset) queue here rather than stealing each other's
        # results, and a close waits for the fan-out in flight.
        self._lock = threading.Lock()
        # Live borrowers (engines adopting this pool). Weak: a finished
        # job's engine falling out of scope releases its claim without an
        # explicit hand-back, letting the registry evict the pool.
        self._borrower_refs: "weakref.WeakSet[Any]" = weakref.WeakSet()

        spec = _utility_spec(utility)
        self.bundle: SharedArrayBundle | None = None
        if spec is not None and SHM_AVAILABLE:
            self.bundle = SharedArrayBundle.create(spec.pop("arrays"))
            state: dict = {
                "spec": {"bundle": self.bundle.spec(), **spec},
                "utility": None,
            }
            self.mode = f"shm-{start_method}"
        elif start_method == "fork":
            # Closure utilities ride on fork inheritance; still long-lived.
            state = {"spec": None, "utility": utility}
            self.mode = "fork"
        else:
            raise PoolUnavailable(
                "utility cannot cross a spawn boundary (arrays not "
                "shareable or model/metric not picklable) and fork is "
                "unavailable"
            )
        if chaos is not None:
            if start_method == "fork":
                state["chaos"] = chaos
            else:
                try:
                    pickle.dumps(chaos)
                    state["chaos"] = chaos
                except Exception:
                    state["chaos"] = None

        self.shm_bytes = self.bundle.nbytes if self.bundle is not None else 0
        #: The dataset's driver-side subset memo, which every engine shares.
        self.memo = SubsetMemo(0, shared=True)
        self._workers_alive = 0
        self._spawns = 0
        self.chunks_dispatched = 0
        self.attach_latencies: list[float] = []

        self.dispatcher = ChunkDispatcher(
            mp.get_context(start_method),
            self.n_workers,
            state,
            _pool_task,
            deadline=DeadlinePolicy(
                hard_timeout_s=chunk_timeout_s, floor_s=_HANG_FLOOR_S
            ),
            stats=self.supervision,
            on_worker_start=self._on_worker_start,
        )
        setup_started = time.perf_counter()
        if warmup:
            # A closed span: later driver spans on this thread must not
            # nest under a pool that merely happens to be alive.
            with _obs.span(
                "engine.pool.lifecycle",
                n_workers=self.n_workers,
                mode=self.mode,
                shm_bytes=self.shm_bytes,
                fingerprint=self.fingerprint,
            ):
                self._collect_meta(
                    self.dispatcher.dispatch(
                        [{"kind": "ping"} for __ in range(self.n_workers)]
                    )
                )
        self.setup_s = time.perf_counter() - setup_started
        self._finalizer = weakref.finalize(self, _close_pool_resources, self)

    # ------------------------------------------------------------------ #
    # workers                                                            #
    # ------------------------------------------------------------------ #

    def _on_worker_start(self, slot: int) -> None:
        """A process now occupies ``slot``: a first spawn, or a replacement
        that re-attaches to the existing shared segments. It starts with
        nothing to warm up: a re-queued chunk carries its known values in
        its own payload."""
        self._spawns += 1
        self._workers_alive = max(self._workers_alive, slot + 1)
        if _obs.enabled():
            _obs_metrics.gauge("engine.pool.workers_alive").set(
                self._workers_alive
            )
            _obs_metrics.counter("engine.pool.worker_starts").inc()

    # ------------------------------------------------------------------ #
    # borrowers                                                          #
    # ------------------------------------------------------------------ #

    def add_borrower(self, borrower: Any) -> None:
        """Record ``borrower`` (an engine) as a live user of this pool.

        Claims are weak references: when the borrower is garbage-collected
        its claim vanishes, so finished jobs need no explicit hand-back.
        The registry refuses to evict-close a pool while any claim is
        live (see :meth:`PoolRegistry.lease`).
        """
        try:
            self._borrower_refs.add(borrower)
        except TypeError:  # pragma: no cover - non-weakrefable borrower
            pass

    @property
    def borrowed(self) -> bool:
        """Whether any registered borrower is still alive."""
        return len(self._borrower_refs) > 0

    # ------------------------------------------------------------------ #
    # dispatch                                                           #
    # ------------------------------------------------------------------ #

    def dispatch(
        self,
        payloads: Sequence[Mapping[str, Any]],
        stats: SupervisionStats | None = None,
    ) -> list[Any]:
        """Run chunk descriptors on the fleet; results in payload order.

        ``stats``, when given, also counts this fan-out's completed chunks
        and supervision events — the borrowing engine's own tally.
        Thread-safe: concurrent callers queue on the pool lock — one
        fan-out owns the pipes at a time.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self.chunks_dispatched += len(payloads)
            if _obs.enabled():
                _obs_metrics.counter("engine.pool.chunks_dispatched").inc(
                    len(payloads)
                )
            results = self.dispatcher.dispatch(list(payloads), stats)
            self._collect_meta(results)
            return results

    def _collect_meta(self, results: Sequence[Any]) -> None:
        """Harvest first-chunk worker meta (attach latency) from results."""
        for result in results:
            meta = result[-1]
            if meta is not None and meta.get("attach_s") is not None:
                self.attach_latencies.append(float(meta["attach_s"]))
                if _obs.enabled():
                    _obs_metrics.histogram(
                        "engine.pool.attach_latency_s"
                    ).observe(float(meta["attach_s"]))

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        attach = self.attach_latencies
        return {
            "mode": self.mode,
            "n_workers": self.n_workers,
            "workers_alive": self._workers_alive,
            "worker_starts": self._spawns,
            "chunks_dispatched": self.chunks_dispatched,
            "chunks_requeued": self.supervision.chunk_retries,
            "shm_bytes": self.shm_bytes,
            "setup_s": round(self.setup_s, 6),
            "attach_latency_s": {
                "count": len(attach),
                "mean": float(np.mean(attach)) if attach else None,
                "max": float(np.max(attach)) if attach else None,
            },
            "borrowers": len(self._borrower_refs),
            "supervision": self.supervision.to_dict(),
        }

    def close(self) -> None:
        """Shut workers down and unlink the shared segments. Idempotent.

        Serializes with :meth:`dispatch`: a close racing an in-flight
        fan-out waits for it to drain instead of terminating workers
        under it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stats = self.stats()
            self._finalizer.detach()
            _close_pool_resources(self)
        if _obs.enabled():
            _obs_metrics.gauge("engine.pool.workers_alive").set(0)
        if self.ledger is not None:
            self.ledger.record_event(
                "pool",
                config={
                    "n_workers": self.n_workers,
                    "mode": self.mode,
                    "fingerprint": self.fingerprint,
                },
                stats=stats,
                wall_time_s=time.perf_counter() - self._created_at,
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _close_pool_resources(pool: WorkerPool) -> None:
    """Terminate workers and unlink segments (finalizer-safe)."""
    pool._closed = True
    pool._workers_alive = 0
    try:
        pool.dispatcher.close()
    except Exception:  # pragma: no cover - teardown best effort
        pass
    if pool.bundle is not None:
        pool.bundle.close()


# --------------------------------------------------------------------- #
# registry + context manager                                            #
# --------------------------------------------------------------------- #


class PoolRegistry:
    """Warm pools keyed by utility fingerprint, LRU-bounded.

    ``lease`` returns an existing open pool when the fingerprint matches
    (same dataset bytes, model, metric — sequential service jobs on one
    dataset hit this) and otherwise creates one, evicting and closing the
    least-recently-used pool beyond ``max_pools``. Eviction never closes
    a pool with live borrowers (engines that adopted it register a weak
    claim via :meth:`WorkerPool.add_borrower`): a concurrent job
    mid-dispatch on an LRU pool would otherwise have its workers
    terminated under it. Borrowed pools are skipped — the registry may
    briefly hold more than ``max_pools`` — and become evictable on a
    later lease once their borrowers are garbage-collected.
    Registry-owned pools are closed by :meth:`close_all` (the
    :func:`valuation_pool` context manager's exit), never by the engines
    borrowing them.
    """

    def __init__(
        self,
        n_workers: int = 4,
        max_pools: int = 2,
        start_method: str | None = None,
        ledger: Any | None = None,
    ) -> None:
        if max_pools < 1:
            raise ValueError("max_pools must be >= 1")
        self.n_workers = int(n_workers)
        self.max_pools = int(max_pools)
        self.start_method = start_method
        self.ledger = ledger
        self._pools: dict[str, WorkerPool] = {}
        self._lock = threading.Lock()
        self.leases = 0
        self.reuses = 0

    def lease(
        self, utility: Any, n_workers: int | None = None
    ) -> WorkerPool:
        """An open pool for ``utility`` — warm when the dataset matches.

        A matching warm pool is reused even if its fleet size differs from
        ``n_workers``: a warm memo beats an exact fleet size.
        """
        workers = (
            int(n_workers) if n_workers and n_workers > 1 else self.n_workers
        )
        fingerprint = utility_fingerprint(utility)
        with self._lock:
            self.leases += 1
            pool = self._pools.get(fingerprint)
            if pool is not None and not pool.closed:
                self.reuses += 1
                self._pools[fingerprint] = self._pools.pop(fingerprint)  # LRU
                return pool
            pool = WorkerPool(
                utility,
                n_workers=workers,
                start_method=self.start_method,
                ledger=self.ledger,
            )
            self._pools[fingerprint] = pool
            if len(self._pools) > self.max_pools:
                # Evict oldest-first, but never a pool with live
                # borrowers (a job may be mid-dispatch on it) and never
                # the pool just leased. Skipped pools overshoot the bound
                # until their borrowers are collected; close_all still
                # reaps everything.
                for key in list(self._pools):
                    if len(self._pools) <= self.max_pools:
                        break
                    candidate = self._pools[key]
                    if candidate is pool or candidate.borrowed:
                        continue
                    self._pools.pop(key).close()
            return pool

    def stats(self) -> dict:
        with self._lock:
            return {
                "pools": len(self._pools),
                "leases": self.leases,
                "reuses": self.reuses,
                "fingerprints": list(self._pools),
            }

    def close_all(self) -> None:
        with self._lock:
            pools = list(self._pools.values())
            self._pools.clear()
        for pool in pools:
            pool.close()


_REGISTRY_STACK: list[PoolRegistry] = []
_REGISTRY_LOCK = threading.Lock()


def current_registry() -> PoolRegistry | None:
    """The innermost active :func:`valuation_pool` registry, if any."""
    with _REGISTRY_LOCK:
        return _REGISTRY_STACK[-1] if _REGISTRY_STACK else None


class valuation_pool:
    """Context manager installing a process-wide warm-pool registry.

    Inside the block, every :class:`ValuationEngine` built with
    ``n_workers > 1`` (including via the ``nde.*_values`` facades and the
    service runtime) leases its fleet from the registry instead of a
    call-scoped pool per run — and engines over the same dataset share one
    warm pool::

        with nde.valuation_pool(n_workers=4):
            shap = nde.shapley_values(train_df, validation=valid_df,
                                      n_workers=4)
            banz = nde.banzhaf_values(train_df, validation=valid_df,
                                      n_workers=4)   # reuses the warm pool

    Exiting closes every registry-owned pool and unlinks their segments.
    Usable directly as ``valuation_pool(...)`` or via the ``nde`` facade.
    """

    def __init__(self, n_workers: int = 4, **registry_kwargs: Any) -> None:
        self.registry = PoolRegistry(n_workers=n_workers, **registry_kwargs)

    def __enter__(self) -> PoolRegistry:
        with _REGISTRY_LOCK:
            _REGISTRY_STACK.append(self.registry)
        return self.registry

    def __exit__(self, *exc_info) -> None:
        with _REGISTRY_LOCK:
            if self.registry in _REGISTRY_STACK:
                _REGISTRY_STACK.remove(self.registry)
        self.registry.close_all()
