"""Shared parallel Monte-Carlo valuation engine.

Every game-theoretic importance estimator in this package (`shapley_mc`,
`banzhaf_mc`, `beta_shapley_mc`, `loo_importance`) reduces to the same
primitive: evaluate a utility ``v(S)`` over many training subsets and
combine the results. Doing that in private serial loops — the pre-engine
state of this package — recomputes identical subsets across permutations
*and* across estimators, and never uses more than one core. Following the
amortization insight of the Datascope line of work (Karlaš et al.), this
module centralises the primitive:

memoized utility cache
    ``v(S)`` is cached under the *sorted* index tuple in an LRU-bounded
    :class:`SubsetCache` with hit/miss/eviction counters. ``v(∅)``, ``v(N)``
    and every repeated subset are evaluated once per engine, even when
    several estimators share one :class:`ValuationEngine`.

supervised process fan-out
    Permutations (or subsets) are partitioned into chunks dispatched across
    ``n_workers`` forked worker processes by a
    :class:`~repro.importance.supervision.ChunkDispatcher`. The dispatcher
    detects worker *crashes* (abnormal exit) and *hangs* (per-chunk
    deadlines derived from observed chunk-latency quantiles), restarts dead
    workers, and re-queues their unfinished chunks. Because every chunk is
    a slice of pre-drawn orderings, re-execution is deterministic, and
    results are merged **in chunk order** — so the floating-point
    accumulation sequence, and therefore the returned values, is
    bit-identical for any worker count and any crash/retry history.

deterministic seeding
    All permutation orderings are drawn in the driver from the single
    ``np.random.default_rng(seed)`` stream (the same stream the legacy
    serial estimators consumed), instead of per-worker spawned substreams.
    They are drawn in order, just before the wave that scans them (all of
    them before a per-run fleet forks), so a run stopped early by its
    budget never draws the orderings it does not scan.
    This is strictly stronger than substream seeding: the sampled orderings
    match the pre-engine implementations bit-for-bit *and* are independent
    of how they are later sharded across workers.

checkpoint / resume
    With ``checkpoint=`` set, the engine snapshots its accumulator state —
    per-row sums and sums of squares, the completed-permutation watermark,
    the evaluation census, and a config fingerprint — atomically at every
    wave boundary (:mod:`repro.importance.checkpoint`). ``resume=True``
    restores a killed run from its last snapshot and produces values
    bit-identical to an uninterrupted run; a fingerprint mismatch refuses
    to resume instead of silently blending two different runs.

variance-aware early stopping and budget degradation
    With ``convergence_tolerance`` set, the engine tracks a running
    standard error of each point's (weighted) marginal contribution and
    stops drawing permutations once the maximum stderr falls below the
    tolerance (Ghorbani-&-Zou-style convergence). ``deadline_s`` and
    ``max_evals`` bound wall-clock and utility-evaluation spend: when a
    budget runs out the engine *returns* a partial result flagged
    ``converged=False`` (with per-row standard errors and an evaluation
    census) instead of raising. All stopping decisions happen at fixed
    ``check_every`` wave boundaries in permutation order, so the stopping
    point is independent of the worker count.

antithetic permutation pairs
    With ``antithetic=True`` every drawn ordering is followed by its
    reverse. A point inserted late in σ is inserted early in reversed(σ),
    which negatively correlates the pair's marginal-contribution noise and
    reduces estimator variance for near-monotone games.

Determinism caveat: bit-identical results across worker counts (and versus
the legacy serial code) hold for *deterministic* utilities — model training
with a fixed algorithm on fixed rows. A stochastic ``SubsetUtility`` (e.g. a
noisy closure over an RNG) consumes its noise stream in evaluation order,
which caching and sharding legitimately change.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
import warnings
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from .checkpoint import CheckpointStore, config_fingerprint
from .pool import PoolUnavailable, WorkerPool, active_map_pool, current_registry
from .supervision import (
    ChunkDispatcher,
    ChunkFailure,
    DeadlinePolicy,
    SupervisionStats,
)

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "SubsetCache",
    "PermutationRun",
    "ValuationResult",
    "ValuationEngine",
    "parallel_map",
]

#: Default bound on the number of memoized subsets. Keys are index tuples
#: (~8 bytes per small index plus tuple overhead), so the worst case at the
#: default is tens of megabytes for games with a few hundred points.
DEFAULT_CACHE_SIZE = 32768

_MISSING = object()


class _MemoMiss(Exception):
    """A memo-only wave scan met a subset the driver has not evaluated."""


# Fork-based fan-out inherits the parent's memory, so utilities holding
# closures, frames, or fitted transformers need no pickling. On platforms
# without fork (Windows/macOS-spawn) the *pool* still runs — shared memory
# plus picklable chunk descriptors cross a spawn boundary — and only the
# modes that genuinely cannot degrade to serial, loudly, one RuntimeWarning
# per mode per process (see _warn_no_fork).
_FORK_CTX = (
    mp.get_context("fork") if "fork" in mp.get_all_start_methods() else None
)

#: Degradation modes already warned about in this process. A set, not a
#: bool: "your per-call fan-out went serial" and "your worker pool could
#: not be built" are different surprises and each deserves its own (single)
#: warning.
_WARNED_NO_FORK: set[str] = set()

_NO_FORK_DETAILS = {
    "engine": (
        "engine fan-out (n_workers > 1) fell back to serial execution: the "
        "'fork' start method is unavailable and no worker pool could serve "
        "this utility. Results are identical, only slower. A picklable "
        "model/metric (or a valuation_pool() context) restores parallelism "
        "via the shared-memory spawn pool."
    ),
    "map": (
        "parallel_map fell back to a serial loop: the 'fork' start method "
        "is unavailable and no open worker pool could run the function. "
        "Results are identical, only slower."
    ),
    "pool": (
        "a worker pool was requested but cannot serve this utility on this "
        "platform (arrays not shareable or model/metric not picklable, and "
        "'fork' is unavailable); falling back to per-call fan-out or serial "
        "execution. Results are identical, only slower."
    ),
}


def _warn_no_fork(mode: str = "engine") -> None:
    """One warning per degradation mode per process.

    Silent behavioral divergence between platforms is the failure mode this
    guards: on spawn-only platforms the engine and :func:`parallel_map`
    produce identical *values*, but the user asked for a fleet and should
    know exactly which execution mode they did not get.
    """
    if mode not in _WARNED_NO_FORK:
        _WARNED_NO_FORK.add(mode)
        warnings.warn(
            _NO_FORK_DETAILS[mode], RuntimeWarning, stacklevel=3
        )


class SubsetCache:
    """LRU-bounded memo of ``v(S)`` keyed by the sorted index tuple."""

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = int(max_size)
        self._data: OrderedDict[tuple[int, ...], float] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(indices: Iterable[int]) -> tuple[int, ...]:
        """Canonical cache key: the sorted tuple of member indices."""
        return tuple(sorted(int(i) for i in indices))

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: tuple[int, ...]) -> bool:
        return key in self._data

    def lookup(self, key: tuple[int, ...]) -> Any:
        """Value for ``key`` (counted as a hit) or ``_MISSING`` (a miss)."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
        else:
            self.hits += 1
            self._data.move_to_end(key)
        return value

    def put(self, key: tuple[int, ...], value: float) -> None:
        if self.max_size == 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_size:
            self._data.popitem(last=False)
            self.evictions += 1

    def snapshot(self) -> dict[tuple[int, ...], float]:
        """Plain-dict copy shipped to workers at fork time."""
        return dict(self._data)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "size": len(self._data),
            "max_size": self.max_size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


@dataclass
class PermutationRun:
    """Raw accumulators of one permutation-sampling run.

    ``totals``/``sumsq`` hold the per-point sum and sum of squares of the
    (position-weighted) marginal contributions; ``counts`` how many
    permutations each point was credited in (every scanned permutation
    credits every point — truncated tails are credited zero, exactly like
    the legacy estimators).
    """

    totals: np.ndarray
    counts: np.ndarray
    sumsq: np.ndarray
    n_permutations: int
    truncated_scans: int
    stopped_early: bool
    max_stderr: float | None
    converged: bool = True
    stop_reason: str = "completed"
    n_evaluations: int = 0
    elapsed_s: float = 0.0
    resumed_from: int = 0

    def values(self) -> np.ndarray:
        return self.totals / np.maximum(self.counts, 1)

    def stderr(self) -> np.ndarray:
        """Standard error of each point's mean marginal contribution."""
        counts = np.maximum(self.counts, 1)
        mean = self.totals / counts
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (self.sumsq - counts * mean**2) / np.maximum(counts - 1, 1)
        return np.sqrt(np.clip(var, 0.0, None) / counts)


@dataclass
class ValuationResult:
    """A (possibly partial) valuation with its uncertainty and accounting.

    The graceful-degradation contract of the engine: when a wall-clock
    deadline or evaluation budget runs out, callers get *this* — the best
    current estimate with per-row standard errors, ``converged=False``, the
    ``stop_reason``, and an evaluation census — instead of an exception.
    """

    values: np.ndarray
    stderr: np.ndarray
    converged: bool
    #: "completed" | "converged" | "deadline" | "eval_budget"
    stop_reason: str
    census: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.values)


def _scan_orderings(
    evaluate: Callable[[tuple[int, ...]], float],
    orderings: Sequence[np.ndarray],
    weights: np.ndarray,
    truncation_tolerance: float,
    null: float,
    full: float | None,
) -> tuple[np.ndarray, int]:
    """Scan permutations, returning one row of weighted marginals each.

    The incremental-prefix loop replicates the legacy estimators exactly:
    ``prev`` starts at ``v(∅)`` and a scan stops early once the running
    utility is within ``truncation_tolerance`` of ``v(N)`` (the remaining
    points keep a zero marginal for that permutation).
    """
    n = len(weights)
    deltas = np.zeros((len(orderings), n))
    truncated = 0
    for p, order in enumerate(orderings):
        prev = null
        prefix: list[int] = []
        row = deltas[p]
        for step, i in enumerate(order):
            if (
                truncation_tolerance > 0.0
                and step > 0
                and abs(full - prev) <= truncation_tolerance
            ):
                truncated += 1
                break
            i = int(i)
            insort(prefix, i)
            current = evaluate(tuple(prefix))
            row[i] = weights[step] * (current - prev)
            prev = current
    return deltas, truncated


def _worker_evaluator(state: dict) -> tuple[Callable[[tuple[int, ...]], float], dict, list]:
    """Cache-aware ``v(key)`` for a forked worker.

    The worker's cache starts as the parent's snapshot (inherited at fork)
    and grows in place, so it persists across tasks within the process. New
    entries and hit/miss counts are reported back for the parent to merge.
    """
    utility = state["utility"]
    cache: dict = state["cache"]
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

    return evaluate, new_entries, counters


def _permutation_chunk(state: dict, bounds: tuple[int, int]):
    """Worker task: scan ``orderings[start:stop]`` (safe to re-execute)."""
    start, stop = bounds
    utility = state["utility"]
    evals_before = utility.n_evaluations
    evaluate, new_entries, counters = _worker_evaluator(state)
    deltas, truncated = _scan_orderings(
        evaluate,
        state["orderings"][start:stop],
        state["weights"],
        state["truncation_tolerance"],
        state["null"],
        state["full"],
    )
    evals = utility.n_evaluations - evals_before
    return start, deltas, truncated, new_entries, evals, counters


def _subset_chunk(state: dict, bounds: tuple[int, int]):
    """Worker task: evaluate ``keys[start:stop]`` (safe to re-execute)."""
    start, stop = bounds
    utility = state["utility"]
    evals_before = utility.n_evaluations
    evaluate, new_entries, counters = _worker_evaluator(state)
    values = [evaluate(key) for key in state["keys"][start:stop]]
    evals = utility.n_evaluations - evals_before
    return start, values, new_entries, evals, counters


def _chunk_bounds(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous, near-even (start, stop) partition of ``range(n_items)``."""
    edges = np.linspace(0, n_items, min(n_chunks, n_items) + 1, dtype=int)
    return [
        (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
    ]


class ValuationEngine:
    """Memoized, supervised, resumable driver for subset-sampling estimators.

    Parameters
    ----------
    utility:
        Any object with the :class:`repro.importance.Utility` protocol
        (``n_train``, ``evaluate(indices)``, ``n_evaluations``).
    n_workers:
        Worker processes for fan-out. ``1`` (the default) runs fully
        serial, in-process. Values > 1 require a fork-capable platform and
        fall back to serial elsewhere with a single ``RuntimeWarning``. The
        returned values are identical for every worker count
        (deterministic utilities).
    cache_size:
        LRU bound of the subset memo; ``0`` disables memoization.
    ledger:
        Optional :class:`repro.obs.RunLedger`; when set, every
        :meth:`run_permutations` call appends a ``"valuation"`` event
        (sampling config + cache/evaluation/supervision accounting) to the
        run store.
    checkpoint:
        Path (or :class:`~repro.importance.checkpoint.CheckpointStore`) for
        wave-boundary accumulator snapshots. With ``resume=True`` a killed
        run restarts from its last snapshot and finishes bit-identical to
        an uninterrupted run; a config-fingerprint mismatch raises instead
        of resuming.
    chunk_timeout_s:
        Hard per-chunk deadline for hang detection. Default None: deadlines
        adapt from observed chunk-latency quantiles (``hang_factor`` × the
        p95 of recent chunk latencies, once enough samples exist).
    hang_factor, max_chunk_retries, max_worker_restarts:
        Supervision knobs: the latency-quantile multiplier, the per-chunk
        retry budget (exhaustion raises
        :class:`~repro.importance.supervision.ChunkFailure`), and the
        engine-lifetime cap on worker restarts.
    chunks_per_worker:
        Chunk granularity of each fan-out: more chunks per worker means
        finer re-queue units and better latency-quantile estimates at
        slightly more dispatch overhead. Does not affect returned values.
    pool:
        Where fan-outs execute. ``None`` (default): lease from the active
        :func:`~repro.importance.pool.valuation_pool` registry when one is
        installed, else fall back to per-call forked fleets. ``True``:
        eagerly create an engine-owned
        :class:`~repro.importance.pool.WorkerPool` (released by
        :meth:`close` / the engine's context manager; raises
        :class:`~repro.importance.pool.PoolUnavailable` if impossible). A
        :class:`~repro.importance.pool.WorkerPool` instance: borrow it
        (caller keeps ownership). ``False``: never use a pool, even under
        an active registry. Returned values are bit-identical in every
        mode.
    chaos:
        Optional :class:`repro.errors.chaos.ChaosMonkey` whose seeded
        *worker-level* faults (crash-on-chunk, hang-on-chunk) are injected
        inside workers — the supervision path's end-to-end test hook.
    """

    def __init__(
        self,
        utility: Any,
        n_workers: int = 1,
        cache_size: int = DEFAULT_CACHE_SIZE,
        ledger: Any | None = None,
        checkpoint: Any | None = None,
        resume: bool = False,
        chunk_timeout_s: float | None = None,
        hang_factor: float = 8.0,
        max_chunk_retries: int = 3,
        max_worker_restarts: int = 32,
        chunks_per_worker: int = 2,
        pool: Any | None = None,
        chaos: Any | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        self.utility = utility
        self.n_workers = int(n_workers)
        self.cache = SubsetCache(cache_size)
        self.ledger = ledger
        if checkpoint is None or isinstance(checkpoint, CheckpointStore):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = CheckpointStore(checkpoint)
        self.resume = bool(resume)
        self.chunk_timeout_s = chunk_timeout_s
        self.hang_factor = float(hang_factor)
        self.max_chunk_retries = int(max_chunk_retries)
        self.max_worker_restarts = int(max_worker_restarts)
        self.chunks_per_worker = int(chunks_per_worker)
        self.chaos = chaos
        #: Lifetime supervision counters (crashes, hangs, retries, restarts).
        self.supervision = SupervisionStats()
        # -- execution substrate ---------------------------------------- #
        self._pool: WorkerPool | None = None
        self._owns_pool = False
        self._pool_disabled = pool is False
        if pool is True:
            self._pool = WorkerPool(
                utility,
                n_workers=self.n_workers,
                ledger=ledger,
                chunk_timeout_s=chunk_timeout_s,
                hang_factor=self.hang_factor,
                max_chunk_retries=self.max_chunk_retries,
                max_worker_restarts=self.max_worker_restarts,
                chaos=chaos,
            )
            self._owns_pool = True
        elif isinstance(pool, WorkerPool):
            self._adopt_pool(pool)

    @property
    def n_train(self) -> int:
        return int(self.utility.n_train)

    @property
    def worker_restarts(self) -> int:
        """Workers restarted over this engine's lifetime (crashes + hangs)."""
        return self.supervision.worker_restarts

    def stats(self) -> dict:
        """Cache + evaluation accounting, in the shape estimators report."""
        pool = self._pool
        return {
            "cache": self.cache.stats(),
            "n_evaluations": int(self.utility.n_evaluations),
            "n_workers": self.n_workers,
            "supervision": self.supervision.to_dict(),
            "pool": pool.stats() if pool is not None and not pool.closed else None,
        }

    def close(self) -> None:
        """Release an engine-owned pool; borrowed/leased pools stay open."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ValuationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def use_pool(self, pool: WorkerPool) -> None:
        """Borrow ``pool`` for subsequent fan-outs (caller keeps ownership).

        The hook the service runtime uses to hand sequential jobs over the
        same dataset one warm pool instead of a fleet per job.
        """
        if self._owns_pool and self._pool is not None and not self._pool.closed:
            raise RuntimeError("engine already owns a live pool")
        self._adopt_pool(pool)
        self._owns_pool = False
        self._pool_disabled = False

    def _adopt_pool(self, pool: WorkerPool) -> None:
        """Take ``pool`` as the fan-out substrate and absorb its warmth.

        The pool's journal (every subset value any of its workers ever
        reported) is replayed into this engine's cache, so driver-side
        evaluations — the full-set utility for truncation thresholds,
        point :meth:`evaluate` calls — are as warm as the fleet. The
        engine also registers a weak borrower claim so registry LRU
        eviction cannot close the pool out from under a live run.
        """
        self._pool = pool
        pool.add_borrower(self)
        pool.warm_cache(self.cache)

    # ------------------------------------------------------------------ #
    # observability                                                      #
    # ------------------------------------------------------------------ #

    def _stats_baseline(self) -> tuple[int, int, int] | None:
        """Cache/evaluation counters at entry (None while obs is off)."""
        if not _obs.enabled():
            return None
        return (
            self.cache.hits,
            self.cache.misses,
            int(self.utility.n_evaluations),
        )

    def _record_stats_delta(self, baseline: tuple[int, int, int] | None) -> None:
        """Publish what one engine call contributed to the metric registry."""
        if baseline is None:
            return
        hits0, misses0, evals0 = baseline
        _obs_metrics.counter("engine.cache.hits").inc(self.cache.hits - hits0)
        _obs_metrics.counter("engine.cache.misses").inc(self.cache.misses - misses0)
        _obs_metrics.counter("engine.evaluations").inc(
            int(self.utility.n_evaluations) - evals0
        )
        _obs_metrics.gauge("engine.cache.size").set(len(self.cache._data))
        _obs_metrics.gauge("engine.n_workers").set(self.n_workers)
        _obs.add_attrs(
            cache_hits=self.cache.hits - hits0,
            cache_misses=self.cache.misses - misses0,
            evaluations=int(self.utility.n_evaluations) - evals0,
        )

    def _supervision_event(self, kind: str, chunk_ord: int, attempt: int) -> None:
        """Bridge dispatcher events into obs metrics + chaos ground truth."""
        if _obs.enabled():
            _obs_metrics.counter(f"engine.supervision.{kind}").inc()
        if (
            self.chaos is not None
            and kind in ("crash", "hang")
            and hasattr(self.chaos, "record_worker_fault")
        ):
            planned = self.chaos.worker_fault(chunk_ord, attempt)
            if planned is not None:
                self.chaos.record_worker_fault(planned, chunk_ord)

    # ------------------------------------------------------------------ #
    # point evaluations                                                  #
    # ------------------------------------------------------------------ #

    def evaluate(self, indices: Iterable[int]) -> float:
        """Memoized ``v(S)``; evaluates the utility on the sorted indices."""
        return self._memo(SubsetCache.key(indices))

    def _memo(self, key: tuple[int, ...]) -> float:
        """Memoized ``v(S)`` for a key that is already canonical (sorted)."""
        value = self.cache.lookup(key)
        if value is _MISSING:
            value = float(self.utility.evaluate(np.asarray(key, dtype=np.int64)))
            self.cache.put(key, value)
        return value

    def evaluate_many(
        self,
        subsets: Sequence[Iterable[int]],
        checkpoint_config: Mapping[str, Any] | None = None,
        wave_size: int = 64,
    ) -> np.ndarray:
        """``v(S)`` for many subsets, fanned out across workers, in order.

        Duplicate subsets are evaluated once. The fan-out dispatches only
        cache misses, so a warm engine answers entirely from memory.

        With the engine's ``checkpoint`` set and a ``checkpoint_config``
        identifying the sampling run (the subset-sampling estimators pass
        their own config), evaluated values are snapshotted every
        ``wave_size`` subsets; ``resume=True`` reloads them into the memo,
        so a killed run only pays for subsets not yet evaluated and returns
        values bit-identical to an uninterrupted one.
        """
        keys = [SubsetCache.key(subset) for subset in subsets]
        store = self.checkpoint if checkpoint_config is not None else None
        fingerprint = None
        evals_resumed = 0
        if store is not None:
            fingerprint = config_fingerprint(
                {"kind": "subset", **dict(checkpoint_config)}
            )
            if self.resume:
                snapshot = store.load_matching("subset", fingerprint)
                if snapshot is not None:
                    for key, value in snapshot.get("values", []):
                        self.cache.put(tuple(int(i) for i in key), float(value))
                    evals_resumed = int(snapshot.get("n_evaluations", 0))
        evals_at_entry = int(self.utility.n_evaluations)

        def save(completed: int, finished: bool) -> None:
            if store is None:
                return
            seen = OrderedDict.fromkeys(keys[:completed])
            store.save(
                {
                    "kind": "subset",
                    "fingerprint": fingerprint,
                    "completed": completed,
                    "n_subsets": len(keys),
                    "values": [
                        [list(key), self.cache._data[key]]
                        for key in seen
                        if key in self.cache._data
                    ],
                    "n_evaluations": evals_resumed
                    + int(self.utility.n_evaluations)
                    - evals_at_entry,
                    "finished": finished,
                }
            )

        if store is None:
            return self._evaluate_many(keys)
        out = np.empty(len(keys))
        for start in range(0, len(keys), max(1, int(wave_size))):
            stop = min(start + max(1, int(wave_size)), len(keys))
            out[start:stop] = self._evaluate_many(keys[start:stop])
            save(stop, finished=stop >= len(keys))
        return out

    def _evaluate_many(self, keys: Sequence[tuple[int, ...]]) -> np.ndarray:
        with _obs.span("engine.evaluate_many", n_subsets=len(keys)) as sp:
            stats_before = self._stats_baseline()
            if not self._parallel(len(keys)):
                out = np.asarray([self._memo(key) for key in keys])
                self._record_stats_delta(stats_before)
                return out
            values: dict[tuple[int, ...], float] = {}
            pending: list[tuple[int, ...]] = []
            for key in OrderedDict.fromkeys(keys):
                value = self.cache.lookup(key)
                if value is _MISSING:
                    pending.append(key)
                else:
                    values[key] = value
            sp.set(pending=len(pending))
            if pending:
                bounds = _chunk_bounds(
                    len(pending), self.n_workers * self.chunks_per_worker
                )
                self._pool_metrics(bounds)
                pool = self._resolve_pool()
                if pool is not None:
                    pool.sync_cache(self.cache._data)
                    payloads = [
                        {"kind": "subset", "keys": pending[a:b]}
                        for a, b in bounds
                    ]
                    results = pool.dispatch(
                        payloads, on_event=self._pool_event
                    )
                    self.supervision.chunks_completed += len(payloads)
                    for (a, b), result in zip(bounds, results):
                        __, chunk_values, entries, evals, counters, __m = result
                        self._merge_worker(
                            dict(entries), evals, counters, count_lookups=False
                        )
                        # A warm worker may have answered from its local
                        # cache (no new entry); the driver memo still
                        # learns every requested subset.
                        for key, value in zip(pending[a:b], chunk_values):
                            values[key] = value
                            self.cache.put(key, value)
                    pool.sync_cache(self.cache._data)
                else:
                    state = {
                        "utility": self.utility,
                        "cache": self.cache.snapshot(),
                        "keys": pending,
                        "chaos": self.chaos,
                    }
                    with self._make_dispatcher(state, _subset_chunk) as dispatcher:
                        results = dispatcher.dispatch(bounds)
                    for start, chunk_values, new_entries, evals, counters in results:
                        for key, value in zip(
                            pending[start : start + len(chunk_values)], chunk_values
                        ):
                            values[key] = value
                        self._merge_worker(new_entries, evals, counters, count_lookups=False)
            self._record_stats_delta(stats_before)
            return np.asarray([values[key] for key in keys])

    # ------------------------------------------------------------------ #
    # permutation sampling                                               #
    # ------------------------------------------------------------------ #

    def run_permutations(
        self,
        n_permutations: int,
        seed: int = 0,
        weights: np.ndarray | None = None,
        truncation_tolerance: float = 0.0,
        convergence_tolerance: float | None = None,
        check_every: int = 10,
        antithetic: bool = False,
        deadline_s: float | None = None,
        max_evals: int | None = None,
        progress_callback: Callable[[dict], None] | None = None,
    ) -> PermutationRun:
        """Sample permutations and accumulate per-point weighted marginals.

        ``weights[j]`` multiplies the marginal contribution of the point
        inserted at position ``j`` (all-ones = Shapley, Beta weights =
        Beta-Shapley). See the module docstring for the semantics of
        ``truncation_tolerance``, ``convergence_tolerance`` and
        ``antithetic``.

        ``deadline_s`` bounds this call's wall clock and ``max_evals`` the
        run's cumulative utility evaluations (including evaluations
        restored from a resumed checkpoint); both are checked at wave
        boundaries and stop the run with a *partial* accumulator state —
        ``converged=False`` and the appropriate ``stop_reason`` — instead
        of raising. A budget of exactly zero is a valid degenerate case:
        the call returns immediately with a well-formed zero-permutation
        partial result (``stop_reason`` = ``"deadline"`` /
        ``"eval_budget"``) without evaluating the utility at all — the
        admission-control contract the service runtime relies on for jobs
        whose end-to-end deadline expired while queued. Budget knobs are
        deliberately excluded from the checkpoint fingerprint: resuming a
        budget-stopped run with a larger budget is the intended workflow,
        and the accumulator prefix at any watermark does not depend on
        where a previous invocation stopped.

        ``progress_callback`` is invoked at every wave boundary (after the
        wave's checkpoint, so the stream never runs ahead of durable
        state) with a snapshot dict — ``completed``, ``target``,
        ``values``, ``stderr``, ``max_stderr``, ``n_evaluations``,
        ``elapsed_s`` — the hook the service runtime uses to fan streamed
        partial results out to subscribers. The callback must not mutate
        the arrays it receives (they are copies, but treat them as
        read-only telemetry); exceptions it raises propagate.
        """
        if n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        if deadline_s is not None and deadline_s < 0:
            raise ValueError("deadline_s must be >= 0 (or None)")
        if max_evals is not None and max_evals < 0:
            raise ValueError("max_evals must be >= 0 (or None)")
        n = self.n_train
        if weights is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (n,):
                raise ValueError("weights must have one entry per position")
        started = time.perf_counter()
        evals_at_entry = int(self.utility.n_evaluations)
        supervision_before = self.supervision.to_dict()
        stream = self._ordering_stream(seed, antithetic)
        orderings: list[np.ndarray] = []

        # -- checkpoint identity + resume ------------------------------- #
        store = self.checkpoint
        fingerprint = None
        totals = np.zeros(n)
        sumsq = np.zeros(n)
        scanned = 0
        truncated = 0
        evals_resumed = 0
        elapsed_prior = 0.0
        resumed_from = 0
        finished_on_load: str | None = None
        if store is not None:
            fingerprint = config_fingerprint(
                {
                    "kind": "permutation",
                    "n_train": n,
                    "seed": seed,
                    "n_permutations": n_permutations,
                    "weights": weights,
                    "truncation_tolerance": truncation_tolerance,
                    "convergence_tolerance": convergence_tolerance,
                    "check_every": check_every,
                    "antithetic": antithetic,
                }
            )
            if self.resume:
                snapshot = store.load_matching("permutation", fingerprint)
                if snapshot is not None:
                    totals = np.asarray(snapshot["totals"], dtype=float)
                    sumsq = np.asarray(snapshot["sumsq"], dtype=float)
                    scanned = int(snapshot["completed"])
                    truncated = int(snapshot["truncated_scans"])
                    evals_resumed = int(snapshot.get("n_evaluations", 0))
                    elapsed_prior = float(snapshot.get("elapsed_s", 0.0))
                    resumed_from = scanned
                    if snapshot.get("finished"):
                        finished_on_load = str(
                            snapshot.get("stop_reason", "completed")
                        )

        def spent_evals() -> int:
            return (
                evals_resumed
                + int(self.utility.n_evaluations)
                - evals_at_entry
            )

        stopped = False
        converged = True
        stop_reason = "completed"
        max_stderr: float | None = None

        if finished_on_load is not None:
            # The checkpointed run already finished — nothing to redo.
            run = PermutationRun(
                totals=totals,
                counts=np.full(n, scanned, dtype=float),
                sumsq=sumsq,
                n_permutations=scanned,
                truncated_scans=truncated,
                stopped_early=finished_on_load == "converged",
                max_stderr=None,
                converged=finished_on_load in ("completed", "converged"),
                stop_reason=finished_on_load,
                n_evaluations=evals_resumed,
                elapsed_s=elapsed_prior,
                resumed_from=resumed_from,
            )
            if convergence_tolerance is not None and scanned >= 2:
                run.max_stderr = float(np.max(run.stderr()))
                if finished_on_load == "completed":
                    # The stored run spent its full budget; whether it
                    # "converged" depends on the tolerance being asked now.
                    run.converged = run.max_stderr <= convergence_tolerance
            return run

        run_span = _obs.span(
            "engine.run_permutations",
            n_train=n,
            n_permutations=n_permutations,
            n_workers=self.n_workers,
            antithetic=antithetic,
            seed=seed,
        )
        run_span.__enter__()
        stats_before = self._stats_baseline()
        # Budgets already spent at entry — zero budgets, or a resumed run
        # handed the max_evals it had already consumed. Skip even the
        # null/full anchor evaluations ("return immediately" means zero
        # utility calls) and let the loop's first boundary check produce
        # the well-formed partial result.
        exhausted_at_entry = (
            max_evals is not None and spent_evals() >= max_evals
        ) or (deadline_s is not None and deadline_s <= 0)
        null = 0.0 if exhausted_at_entry else self.evaluate(())
        full = (
            self.evaluate(range(n))
            if truncation_tolerance > 0.0 and not exhausted_at_entry
            else None
        )
        # Waves exist wherever a boundary decision is needed: convergence
        # checks, budget checks, checkpoint snapshots, or progress streams.
        bounded = (
            convergence_tolerance is not None
            or deadline_s is not None
            or max_evals is not None
            or store is not None
            or progress_callback is not None
        )
        wave = max(1, int(check_every)) if bounded else n_permutations
        # Either a WorkerPool (persistent fleet, shared-memory data plane)
        # or a per-run ChunkDispatcher (legacy fork-per-run) — or None for
        # serial. _scan_range routes on the type.
        executor: WorkerPool | ChunkDispatcher | None = None

        def save_checkpoint(finished: bool) -> None:
            if store is None:
                return
            store.save(
                {
                    "kind": "permutation",
                    "fingerprint": fingerprint,
                    "n_train": n,
                    "seed": seed,
                    "n_permutations": n_permutations,
                    "completed": scanned,
                    "totals": totals.tolist(),
                    "sumsq": sumsq.tolist(),
                    "truncated_scans": truncated,
                    "n_evaluations": spent_evals(),
                    "elapsed_s": elapsed_prior
                    + (time.perf_counter() - started),
                    "finished": finished,
                    "stop_reason": stop_reason if finished else None,
                }
            )

        try:
            if not exhausted_at_entry and self._parallel(n_permutations - scanned):
                executor = self._resolve_pool()
                if executor is None:
                    # Forked workers see only what was drawn before the fork.
                    orderings.extend(islice(stream, n_permutations))
                    state = {
                        "utility": self.utility,
                        "cache": self.cache.snapshot(),
                        "orderings": orderings,
                        "weights": weights,
                        "truncation_tolerance": truncation_tolerance,
                        "null": null,
                        "full": full,
                        "chaos": self.chaos,
                    }
                    executor = self._make_dispatcher(state, _permutation_chunk)
            start = scanned
            while start < n_permutations:
                # Budgets already exhausted (e.g. a resumed run handed the
                # same max_evals): stop before paying for another wave.
                if max_evals is not None and spent_evals() >= max_evals:
                    stopped, converged, stop_reason = True, False, "eval_budget"
                    break
                if (
                    deadline_s is not None
                    and time.perf_counter() - started >= deadline_s
                ):
                    stopped, converged, stop_reason = True, False, "deadline"
                    break
                stop = min(start + wave, n_permutations)
                orderings.extend(islice(stream, max(0, stop - len(orderings))))
                with _obs.span("engine.wave", start=start, stop=stop) as wave_span:
                    deltas, wave_truncated = self._scan_range(
                        orderings, start, stop, weights, truncation_tolerance,
                        null, full, executor,
                    )
                    # Accumulate one permutation at a time so the FP summation
                    # order matches the serial path for every worker count.
                    for row in deltas:
                        totals += row
                        sumsq += row * row
                    truncated += wave_truncated
                    scanned = stop
                    if convergence_tolerance is not None and scanned >= 2:
                        run = PermutationRun(
                            totals, np.full(n, scanned, dtype=float), sumsq,
                            scanned, truncated, False, None,
                        )
                        max_stderr = float(np.max(run.stderr()))
                        if _obs.enabled():
                            # SE trajectory: one observation per wave boundary.
                            wave_span.set(max_stderr=max_stderr)
                            _obs_metrics.histogram("engine.wave_max_stderr").observe(
                                max_stderr
                            )
                        if max_stderr <= convergence_tolerance:
                            stopped = True
                            stop_reason = "converged"
                    if _obs.enabled():
                        wave_span.set(truncated=wave_truncated)
                        _obs_metrics.counter("engine.permutations").inc(stop - start)
                if not stopped:
                    if max_evals is not None and spent_evals() >= max_evals:
                        stopped, converged, stop_reason = True, False, "eval_budget"
                    elif (
                        deadline_s is not None
                        and time.perf_counter() - started >= deadline_s
                    ):
                        stopped, converged, stop_reason = True, False, "deadline"
                save_checkpoint(
                    finished=stop_reason in ("completed", "converged")
                    and (stopped or scanned >= n_permutations)
                )
                if progress_callback is not None:
                    snapshot_run = PermutationRun(
                        totals, np.full(n, scanned, dtype=float), sumsq,
                        scanned, truncated, False, max_stderr,
                    )
                    progress_callback(
                        {
                            "completed": scanned,
                            "target": n_permutations,
                            "values": snapshot_run.values(),
                            "stderr": snapshot_run.stderr(),
                            "max_stderr": max_stderr,
                            "n_evaluations": spent_evals(),
                            "elapsed_s": elapsed_prior
                            + (time.perf_counter() - started),
                        }
                    )
                if stopped:
                    break
                start = stop
            if (
                not stopped
                and convergence_tolerance is not None
                and scanned >= n_permutations
            ):
                # Full budget spent without reaching the tolerance.
                converged = (
                    max_stderr is not None
                    and max_stderr <= convergence_tolerance
                )
        finally:
            # Per-run dispatchers die with the run; a pool outlives it.
            if isinstance(executor, ChunkDispatcher):
                executor.close()
            if _obs.enabled():
                run_span.set(
                    n_permutations_run=scanned,
                    truncated_scans=truncated,
                    stopped_early=stopped,
                    max_stderr=max_stderr,
                )
                self._record_stats_delta(stats_before)
            run_span.__exit__(None, None, None)
        supervision_delta = {
            key: self.supervision.to_dict()[key] - supervision_before[key]
            for key in supervision_before
        }
        if self.ledger is not None:
            self.ledger.record_event(
                "valuation",
                config={
                    "n_train": n,
                    "n_permutations": n_permutations,
                    "seed": seed,
                    "n_workers": self.n_workers,
                    "pool_mode": (
                        executor.mode
                        if isinstance(executor, WorkerPool)
                        else None
                    ),
                    "antithetic": antithetic,
                    "truncation_tolerance": truncation_tolerance,
                    "convergence_tolerance": convergence_tolerance,
                    "deadline_s": deadline_s,
                    "max_evals": max_evals,
                    "checkpoint": str(store.path) if store is not None else None,
                },
                stats={
                    "n_permutations_run": scanned,
                    "resumed_from": resumed_from,
                    "truncated_scans": truncated,
                    "stopped_early": stopped,
                    "converged": converged if stopped or scanned else None,
                    "stop_reason": stop_reason,
                    "max_stderr": max_stderr,
                    "evaluations": int(self.utility.n_evaluations)
                    - evals_at_entry,
                    "cache": self.cache.stats(),
                    "supervision": supervision_delta,
                },
                wall_time_s=time.perf_counter() - started,
            )
        return PermutationRun(
            totals=totals,
            counts=np.full(n, scanned, dtype=float),
            sumsq=sumsq,
            n_permutations=scanned,
            truncated_scans=truncated,
            stopped_early=stopped and stop_reason == "converged",
            max_stderr=max_stderr,
            converged=converged if stop_reason != "converged" else True,
            stop_reason=stop_reason,
            n_evaluations=spent_evals(),
            elapsed_s=elapsed_prior + (time.perf_counter() - started),
            resumed_from=resumed_from,
        )

    def result_from_run(
        self, run: PermutationRun, n_permutations_target: int
    ) -> ValuationResult:
        """Package a :class:`PermutationRun` as a :class:`ValuationResult`."""
        return ValuationResult(
            values=run.values(),
            stderr=run.stderr(),
            converged=run.converged,
            stop_reason=run.stop_reason,
            census={
                "n_permutations_target": int(n_permutations_target),
                "n_permutations_run": run.n_permutations,
                "resumed_from": run.resumed_from,
                "truncated_scans": run.truncated_scans,
                "n_evaluations": run.n_evaluations,
                "elapsed_s": run.elapsed_s,
                "max_stderr": run.max_stderr,
                "cache": self.cache.stats(),
                "supervision": self.supervision.to_dict(),
                "n_workers": self.n_workers,
                "pool": (
                    self._pool.stats()
                    if self._pool is not None and not self._pool.closed
                    else None
                ),
            },
        )

    # ------------------------------------------------------------------ #
    # internals                                                          #
    # ------------------------------------------------------------------ #

    def _parallel(self, n_tasks: int) -> bool:
        if self.n_workers <= 1 or n_tasks <= 1:
            return False
        if self._resolve_pool() is not None:
            return True
        if _FORK_CTX is None:
            _warn_no_fork("engine")
            return False
        return True

    def _resolve_pool(self) -> WorkerPool | None:
        """The pool fan-outs run on: owned, borrowed, or registry-leased."""
        pool = self._pool
        if pool is not None and not pool.closed:
            return pool
        if self._pool_disabled or self._owns_pool:
            # pool=False, or an owned pool this engine already closed.
            return None
        registry = current_registry()
        if registry is not None:
            try:
                self._adopt_pool(registry.lease(self.utility, self.n_workers))
                return self._pool
            except PoolUnavailable:
                _warn_no_fork("pool")
                self._pool_disabled = True
                return None
        return None

    def _pool_event(self, kind: str, chunk_ord: int, attempt: int) -> None:
        """Mirror a pool-run chunk's supervision events into this engine.

        The pool's dispatcher accumulates into the *pool's* stats; engines
        borrowing the fleet still need their own lifetime counters (ledger
        events, census, ``worker_restarts``) to reflect what happened to
        their chunks.
        """
        if kind == "crash":
            self.supervision.crashes += 1
        elif kind == "hang":
            self.supervision.hangs += 1
        elif kind == "retry":
            self.supervision.chunk_retries += 1
        elif kind == "restart":
            self.supervision.worker_restarts += 1
        self.supervision.events.append(
            {"kind": kind, "chunk": chunk_ord, "attempt": attempt}
        )
        self._supervision_event(kind, chunk_ord, attempt)

    def _make_dispatcher(
        self, state: dict, task_fn: Callable[[dict, Any], Any]
    ) -> ChunkDispatcher:
        return ChunkDispatcher(
            _FORK_CTX,
            self.n_workers,
            state,
            task_fn,
            deadline=DeadlinePolicy(
                hard_timeout_s=self.chunk_timeout_s, factor=self.hang_factor
            ),
            max_chunk_retries=self.max_chunk_retries,
            max_worker_restarts=self.max_worker_restarts,
            stats=self.supervision,
            on_event=self._supervision_event,
            telemetry_sink=self._absorb_telemetry,
        )

    def _absorb_telemetry(self, items: Sequence[tuple[int, int, Any]]) -> None:
        """Merge worker telemetry from a fork-dispatcher fan-out: metric
        deltas into the registry, spans adopted under per-slot ``worker[i]``
        groups beneath the open wave span (same shape as the pool path)."""
        groups: dict[int, Any] = {}
        for slot, __chunk_id, delta in items:
            _obs.merge_worker_telemetry(slot, delta, groups)

    def _pool_metrics(self, bounds: Sequence[tuple[int, int]]) -> None:
        if _obs.enabled():
            # Utilization: fraction of the configured pool this fan-out
            # keeps busy (short waves can have fewer chunks than workers).
            _obs_metrics.counter("engine.pool.tasks").inc(len(bounds))
            _obs_metrics.histogram("engine.pool.utilization").observe(
                min(1.0, len(bounds) / self.n_workers)
            )

    def _ordering_stream(
        self, seed: int, antithetic: bool
    ) -> Iterator[np.ndarray]:
        """Every ordering of a run, in order, from the master stream (see
        module doc); with ``antithetic`` each one is followed by its
        reverse."""
        rng = np.random.default_rng(seed)
        while True:
            base = rng.permutation(self.n_train)
            yield base
            if antithetic:
                yield base[::-1].copy()

    def _draw_orderings(
        self, n_permutations: int, seed: int, antithetic: bool
    ) -> list[np.ndarray]:
        """The first ``n_permutations`` orderings of the master stream."""
        return list(islice(self._ordering_stream(seed, antithetic), n_permutations))

    def _scan_range(
        self,
        orderings: Sequence[np.ndarray],
        start: int,
        stop: int,
        weights: np.ndarray,
        truncation_tolerance: float,
        null: float,
        full: float | None,
        executor: "WorkerPool | ChunkDispatcher | None",
    ) -> tuple[np.ndarray, int]:
        if executor is None:
            return _scan_orderings(
                self._memo,
                orderings[start:stop],
                weights,
                truncation_tolerance,
                null,
                full,
            )
        answered = self._scan_from_memo(
            orderings[start:stop], weights, truncation_tolerance, null, full
        )
        if answered is not None:
            return answered
        bounds = _chunk_bounds(
            stop - start, self.n_workers * self.chunks_per_worker
        )
        self._pool_metrics(bounds)
        if isinstance(executor, WorkerPool):
            # Stream chunk descriptors only: the orderings slice plus scan
            # knobs. The dataset crossed once, at pool creation; the
            # driver's cache warmth rides along as journal deltas.
            executor.sync_cache(self.cache._data)
            payloads = [
                {
                    "kind": "permutation",
                    "orderings": orderings[start + a : start + b],
                    "weights": weights,
                    "truncation_tolerance": truncation_tolerance,
                    "null": null,
                    "full": full,
                }
                for a, b in bounds
            ]
            results = executor.dispatch(payloads, on_event=self._pool_event)
            self.supervision.chunks_completed += len(payloads)
            deltas = np.concatenate([item[1] for item in results], axis=0)
            truncated = 0
            for __, __d, chunk_truncated, entries, evals, counters, __m in results:
                truncated += chunk_truncated
                self._merge_worker(
                    dict(entries), evals, counters, count_lookups=True
                )
            # Post-merge sync: entries one worker evaluated reach its peers
            # (and future engines leasing this pool) via the journal, so a
            # warm pool answers from memory fleet-wide, not per process.
            executor.sync_cache(self.cache._data)
            return deltas, truncated
        results = executor.dispatch(
            [(start + a, start + b) for a, b in bounds]
        )
        deltas = np.concatenate([item[1] for item in results], axis=0)
        truncated = 0
        for __, __deltas, chunk_truncated, new_entries, evals, counters in results:
            truncated += chunk_truncated
            self._merge_worker(new_entries, evals, counters, count_lookups=True)
        return deltas, truncated

    def _scan_from_memo(
        self,
        orderings: Sequence[np.ndarray],
        weights: np.ndarray,
        truncation_tolerance: float,
        null: float,
        full: float | None,
    ) -> tuple[np.ndarray, int] | None:
        """Scan a wave from the driver's memo alone; None at the first miss.

        A warm engine, or one that adopted a warm pool, often holds every
        subset a wave needs: answering it here skips the fork or pool
        dispatch and the cache syncs around it. Hits are counted only when
        the whole wave is answered, so a wave that does dispatch is counted
        once, from the workers' lookups, exactly as before.
        """
        memo = self.cache._data
        hits = 0

        def lookup(key: tuple[int, ...]) -> float:
            nonlocal hits
            value = memo.get(key, _MISSING)
            if value is _MISSING:
                raise _MemoMiss
            hits += 1
            return value

        try:
            answered = _scan_orderings(
                lookup, orderings, weights, truncation_tolerance, null, full
            )
        except _MemoMiss:
            return None
        self.cache.hits += hits
        return answered

    def _merge_worker(
        self, new_entries: dict, evals: int, counters: list, count_lookups: bool
    ) -> None:
        """Fold one worker chunk's cache entries and accounting into ours.

        The evaluation census is charged per subset *newly learned by the
        driver*, not per worker-side utility call: two workers holding
        independent caches can both evaluate the same subset in one wave,
        and charging raw worker counts made the parallel census drift from
        serial (the 632-vs-633 ``n_evaluations`` artifact in the old
        benchmark results). Physically duplicated work is still visible as
        the ``engine.pool.duplicate_evals`` counter. Lookup accounting is
        normalized the same way, so hit/miss totals match the serial scan.
        """
        duplicates = 0
        for key, value in new_entries.items():
            if key in self.cache._data:
                duplicates += 1
            self.cache.put(key, value)
        charged = max(0, int(evals) - duplicates)
        self.utility.n_evaluations += charged
        if duplicates and _obs.enabled():
            _obs_metrics.counter("engine.pool.duplicate_evals").inc(duplicates)
        if count_lookups:
            extra_hits = max(0, int(counters[1]) - charged)
            self.cache.hits += int(counters[0]) + extra_hits
            self.cache.misses += int(counters[1]) - extra_hits


# ---------------------------------------------------------------------- #
# generic fan-out                                                        #
# ---------------------------------------------------------------------- #

_MAP_STATE: tuple | None = None


def _map_one(index: int):
    func, items = _MAP_STATE
    return func(items[index])


def parallel_map(func: Callable, items: Sequence, n_workers: int = 1) -> list:
    """``[func(x) for x in items]`` fanned out over worker processes.

    Order-preserving. When a :class:`~repro.importance.pool.WorkerPool` is
    open (e.g. inside a :func:`~repro.importance.pool.valuation_pool`
    block) and ``func`` pickles, the map runs on that persistent fleet —
    no per-call forking at all. Otherwise a forked fleet is created for
    the call; because those workers are forked, ``func`` may then be a
    closure over arbitrary state (frames, fitted models) without being
    picklable — only the *returned* values must pickle. Falls back to a
    serial loop when ``n_workers <= 1``, when neither a pool nor fork is
    available (with a single ``RuntimeWarning`` per process), or for
    trivially small inputs.
    """
    items = list(items)
    if n_workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    pool = active_map_pool()
    if pool is not None:
        try:
            pickle.dumps(func)
        except Exception:
            # Closure over unpicklable state: the persistent fleet cannot
            # receive it; fall through to fork-per-call (or serial).
            pool = None
    if pool is not None:
        try:
            return pool.map(func, items, n_chunks=min(n_workers, len(items)))
        except ChunkFailure:
            # The fleet kept failing on this function (e.g. it unpickles
            # only in the driver); a per-call forked fleet inherits it
            # directly, so fall through rather than give up.
            pool = None
    if _FORK_CTX is None:
        _warn_no_fork("map")
        return [func(item) for item in items]
    global _MAP_STATE
    _MAP_STATE = (func, items)
    try:
        with _FORK_CTX.Pool(processes=min(n_workers, len(items))) as mp_pool:
            return mp_pool.map(_map_one, range(len(items)))
    finally:
        _MAP_STATE = None
