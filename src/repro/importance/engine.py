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
    several estimators share one :class:`ValuationEngine` — and once per
    worker pool, whose memo every engine fanning out on it shares.

supervised process fan-out
    Permutations (or subsets) are partitioned into chunks dispatched across
    the ``n_workers`` processes of a
    :class:`~repro.importance.pool.WorkerPool`, the engine's only parallel
    executor: an owned, borrowed or registry-leased pool, or else a
    call-scoped pool that the call leases and closes. The pool's
    :class:`~repro.importance.supervision.ChunkDispatcher` detects worker
    *crashes* (abnormal exit) and *hangs* (per-chunk deadlines derived from
    observed chunk-latency quantiles), restarts dead workers, and re-queues
    their unfinished chunks. Because every chunk is a slice of orderings
    drawn in the driver, re-execution is deterministic, and results are
    merged **in chunk order** — so the floating-point accumulation
    sequence, and therefore the returned values, is bit-identical for any
    worker count and any crash/retry history.

deterministic seeding
    All permutation orderings are drawn in the driver from the single
    ``np.random.default_rng(seed)`` stream (the same stream the legacy
    serial estimators consumed), instead of per-worker spawned substreams.
    They are drawn in order, just before the wave that scans them, so a
    run stopped early by its budget never draws the orderings it does not
    scan.
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
    point is independent of the worker count. Budgets are checked before a
    wave starts, so a run that scans its last permutation has completed,
    whatever it spent doing so.

batched prefix fits
    A scan reads the next prefixes of an ordering together and fits the
    ones it lacks in one kernel call where the utility allows it
    (:func:`~repro.importance.utility.batch_evaluator`), then walks them
    under the truncation test. Fits past the truncation point are
    speculative: counted apart, in ``speculative_fits``, never as
    evaluations, so memo, census and values equal a prefix-by-prefix scan.

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
import threading
import time
import traceback
import warnings
from bisect import insort
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs
from .checkpoint import CheckpointStore, config_fingerprint
from .pool import PoolUnavailable, WorkerPool, current_registry
from .supervision import (
    _HANG_FLOOR_S,
    ChunkDispatcher,
    DeadlinePolicy,
    SupervisionStats,
)
from .utility import batch_evaluator

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

#: Chunks per worker in each fan-out: finer re-queue units and better
#: latency-quantile estimates, at slightly more dispatch overhead. Does not
#: affect returned values.
_CHUNKS_PER_WORKER = 2

#: Prefixes a scan fits in one batch: the first batch of a truncated scan,
#: which doubles after each batch the truncation test passes, up to the
#: cap. An untruncated scan needs every prefix, so it starts at the cap.
#: Neither affects returned values.
_FIRST_BATCH = 4
_MAX_BATCH = 32


class _MemoMiss(Exception):
    """A memo-only wave scan met a subset the driver has not evaluated."""


# Every worker pool forks, as does parallel_map's dispatcher, so their
# workers inherit the parent's memory, and utilities or functions holding
# closures, frames, or fitted transformers need no pickling. On platforms
# without fork (Windows/macOS-spawn) no pool can be built, and both
# degrade to serial, loudly: one RuntimeWarning per mode per process (see
# _warn_no_fork). WorkerPool reads this name too, so it is the one
# definition of fork availability.
_FORK_CTX = (
    mp.get_context("fork") if "fork" in mp.get_all_start_methods() else None
)

#: Degradation modes already warned about in this process. A set, not a
#: bool: "your engine fan-out went serial" and "your parallel_map went
#: serial" are different surprises and each deserves its own (single)
#: warning.
_WARNED_NO_FORK: set[str] = set()

_NO_FORK_DETAILS = {
    "engine": (
        "engine fan-out (n_workers > 1) fell back to serial execution: the "
        "'fork' start method is unavailable, and worker pools fork so that "
        "their workers inherit the utility. Results are identical, only "
        "slower."
    ),
    "map": (
        "parallel_map fell back to a serial loop: the 'fork' start method "
        "is unavailable, and its workers must inherit the function. "
        "Results are identical, only slower."
    ),
}


def _warn_no_fork(mode: str = "engine") -> None:
    """One warning per degradation mode per process.

    Silent behavioral divergence between platforms is the failure mode this
    guards: without fork the engine and :func:`parallel_map`
    produce identical *values*, but the user asked for a fleet and should
    know exactly which execution mode they did not get.
    """
    if mode not in _WARNED_NO_FORK:
        _WARNED_NO_FORK.add(mode)
        warnings.warn(
            _NO_FORK_DETAILS[mode], RuntimeWarning, stacklevel=3
        )


class SubsetMemo:
    """The entries of a :class:`SubsetCache`, least recently used first.
    A worker pool's memo (``shared=True``) has a lock of its own."""

    def __init__(self, max_size: int, shared: bool = False) -> None:
        self.max_size = int(max_size)
        self.data: OrderedDict[tuple[int, ...], float] = OrderedDict()
        self.lock: Any = threading.Lock() if shared else nullcontext()


class SubsetCache:
    """LRU-bounded memo of ``v(S)`` keyed by the sorted index tuple.

    The counters are its own, the entries a worker pool's after :meth:`share`.
    """

    def __init__(self, max_size: int = DEFAULT_CACHE_SIZE) -> None:
        if max_size < 0:
            raise ValueError("max_size must be >= 0")
        self.max_size = int(max_size)
        self.memo = SubsetMemo(self.max_size)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def key(indices: Iterable[int]) -> tuple[int, ...]:
        """Canonical cache key: the sorted tuple of member indices."""
        return tuple(sorted(int(i) for i in indices))

    def __len__(self) -> int:
        return len(self.memo.data)

    def __contains__(self, key: tuple[int, ...]) -> bool:
        return key in self.memo.data

    def lookup(self, key: tuple[int, ...]) -> float | None:
        """Value for ``key`` (a hit, now most recently used) or None (a miss)."""
        memo = self.memo
        with memo.lock:
            value = memo.data.get(key)
            if value is not None:
                memo.data.move_to_end(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def peek(self, keys: Iterable[tuple[int, ...]]) -> list[float | None]:
        """The memo's value of each key, None where it holds none; neither
        counted as a lookup nor refreshed."""
        memo = self.memo
        with memo.lock:
            return [memo.data.get(key) for key in keys]

    def put(self, key: tuple[int, ...], value: float) -> bool:
        """Memoize ``v(key)``; whether the memo did not hold ``key`` yet."""
        if self.max_size == 0:
            return True
        memo = self.memo
        with memo.lock:
            new = key not in memo.data
            if not new:
                memo.data.move_to_end(key)
            memo.data[key] = value
            while len(memo.data) > memo.max_size:
                memo.data.popitem(last=False)
                self.evictions += 1
        return new

    def share(self, memo: SubsetMemo) -> None:
        """Read and write ``memo``, folding this cache's entries into it and
        raising its bound to ``max_size``; a zero-size cache never shares."""
        if self.max_size == 0 or memo is self.memo:
            return
        with memo.lock:
            memo.max_size = max(memo.max_size, self.max_size)
        with self.memo.lock:
            entries = list(self.memo.data.items())
        self.memo = memo
        for key, value in entries:
            self.put(key, value)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "size": len(self.memo.data),
            "max_size": self.memo.max_size,
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

    :meth:`census` is the one record of how the run went; the run's span,
    its ledger event and the estimators' ``extras`` all serialise it.
    """

    totals: np.ndarray
    counts: np.ndarray
    sumsq: np.ndarray
    n_permutations: int
    truncated_scans: int
    max_stderr: float | None
    converged: bool = True
    stop_reason: str = "completed"
    n_evaluations: int = 0
    elapsed_s: float = 0.0
    resumed_from: int = 0
    #: Fits made past a truncation point, which no value uses; None for a
    #: utility evaluated one subset at a time, which never makes one.
    speculative_fits: int | None = None

    @property
    def stopped_early(self) -> bool:
        """Whether the convergence check stopped the run."""
        return self.stop_reason == "converged"

    def census(self) -> dict:
        """Permutations scanned and resumed, truncations, why and whether
        the run stopped, its error bound, and the evaluations and wall
        time it spent, a resumed run's earlier invocations included. A run
        whose utility fits in batches also reports its speculative fits,
        which ``n_evaluations`` leaves out."""
        census = {
            "n_permutations_run": self.n_permutations,
            "resumed_from": self.resumed_from,
            "truncated_scans": self.truncated_scans,
            "stopped_early": self.stopped_early,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "max_stderr": self.max_stderr,
            "n_evaluations": self.n_evaluations,
            "elapsed_s": self.elapsed_s,
        }
        if self.speculative_fits is not None:
            census["speculative_fits"] = self.speculative_fits
        return census

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


class _ScanSource:
    """Where a permutation scan, or a list of subsets, reads ``v(S)``: the
    values it holds, then fits of the rest, in one batch where the utility
    allows it.

    A subclass says which values it holds (:meth:`held`) and accounts for
    each value the scan uses (:meth:`credit`). Fits are counted in the
    utility's ``n_evaluations`` as they are made; the scan returns the
    ones it does not use, past a truncation point, with :meth:`discard`.
    A source that does not fit leaves a missing value None, and its
    :meth:`credit` decides what using it means.
    """

    def __init__(self, utility: Any, fits: bool) -> None:
        self.utility = utility
        self.fits = fits
        self.batch = batch_evaluator(utility) if fits else None
        #: Whether the scan reads prefixes in batches: a utility evaluated
        #: one subset at a time gets exactly the prefixes the scan uses.
        self.batched = self.batch is not None or not fits

    def held(self, keys: list[tuple[int, ...]]) -> list[float | None]:
        raise NotImplementedError

    def credit(self, key: tuple[int, ...], value: float | None, fitted: bool) -> None:
        raise NotImplementedError

    def read(self, keys: list[tuple[int, ...]]) -> tuple[list, list[bool]]:
        """Each key's value, and whether it was fitted here."""
        values = self.held(keys)
        fitted = [value is None for value in values]
        if not (self.fits and any(fitted)):
            return values, [False] * len(keys)
        missing = [key for key, miss in zip(keys, fitted) if miss]
        if self.batch is not None:
            new = iter(self.batch(missing))
        else:
            new = (
                float(self.utility.evaluate(np.asarray(key, dtype=np.int64)))
                for key in missing
            )
        return [next(new) if miss else value for value, miss in zip(values, fitted)], fitted

    def discard(self, n_fits: int) -> None:
        """Take ``n_fits`` unused fits back out of ``n_evaluations``."""
        self.utility.n_evaluations -= n_fits

    def values(self, keys: Sequence[tuple[int, ...]]) -> list[float]:
        """Each key's value, in order, credited as a scan credits a prefix.
        The misses among each run of :data:`_MAX_BATCH` keys are fitted in
        one batch where the utility allows it (one key at a time
        otherwise); a key a run repeats is read again where it recurs."""
        size = _MAX_BATCH if self.batched else 1
        out = []
        for start in range(0, len(keys), size):
            block = keys[start : start + size]
            unique = list(dict.fromkeys(block))
            first = dict(zip(unique, zip(*self.read(unique))))
            for key in block:
                if key in first:
                    value, fitted = first.pop(key)
                else:
                    (value,), (fitted,) = self.read([key])
                self.credit(key, value, fitted)
                out.append(value)
        return out


def _scan_orderings(
    source: _ScanSource,
    orderings: Sequence[np.ndarray],
    weights: np.ndarray,
    truncation_tolerance: float,
    null: float,
    full: float | None,
) -> tuple[np.ndarray, int, int]:
    """Scan permutations: one row of weighted marginals each, the truncated
    scans and the speculative fits.

    The incremental-prefix loop replicates the legacy estimators exactly:
    ``prev`` starts at ``v(∅)`` and a scan stops early once the running
    utility is within ``truncation_tolerance`` of ``v(N)`` (the remaining
    points keep a zero marginal for that permutation). The values of the
    next prefixes are read in one batch (see :data:`_FIRST_BATCH`), then
    walked in order under that test. Fits past the truncation point are
    speculative: not memoized, not counted as evaluations or lookups. So
    values, memo and census equal the prefix-by-prefix scan's.
    """
    n = len(weights)
    deltas = np.zeros((len(orderings), n))
    truncated = speculative = 0
    truncating = truncation_tolerance > 0.0
    first, cap = (
        (_FIRST_BATCH if truncating else _MAX_BATCH, _MAX_BATCH)
        if source.batched
        else (1, 1)
    )

    def done(step: int, prev: float) -> bool:
        return truncating and step > 0 and abs(full - prev) <= truncation_tolerance

    for row, order in zip(deltas, orderings):
        points = order.tolist()
        keys = _prefix_keys(order)
        size = first
        prev, step = null, 0
        while step < n and not done(step, prev):
            batch = list(islice(keys, size))
            values, fitted = source.read(batch)
            for j, key in enumerate(batch):
                if done(step, prev):
                    speculative += sum(fitted[j:])
                    break
                source.credit(key, values[j], fitted[j])
                row[points[step]] = weights[step] * (values[j] - prev)
                prev = values[j]
                step += 1
            size = min(2 * size, cap)
        truncated += step < n
    source.discard(speculative)
    return deltas, truncated, speculative


class _MemoSource(_ScanSource):
    """The engine's memo, and with ``fits`` the utility in the driver.

    A value the scan uses counts as one memo lookup, in scan order, and a
    fitted one is memoized. Without ``fits``, a value the memo lacks
    raises :class:`_MemoMiss`.
    """

    def __init__(self, engine: "ValuationEngine", fits: bool) -> None:
        super().__init__(engine.utility, fits)
        self.cache = engine.cache

    def held(self, keys: list[tuple[int, ...]]) -> list[float | None]:
        return self.cache.peek(keys)

    def credit(self, key: tuple[int, ...], value: float | None, fitted: bool) -> None:
        if fitted:
            self.cache.misses += 1
            self.cache.put(key, value)
        elif self.cache.lookup(key) is None:
            # Evicted since it was read: the prefix-by-prefix scan would
            # have evaluated it again, to this same value.
            if not self.fits:
                raise _MemoMiss
            self.cache.put(key, value)
            self.utility.n_evaluations += 1


class _ChunkSource(_ScanSource):
    """One pool chunk's values: a dict that dies with the chunk, holding
    the driver's ``known`` values and every evaluation the chunk makes,
    each reported to the driver as a new entry."""

    def __init__(self, utility: Any) -> None:
        super().__init__(utility, fits=True)
        self.cache: dict[tuple[int, ...], float] = {}
        self.new_entries: dict[tuple[int, ...], float] = {}
        self.counters = [0, 0]  # hits, misses

    def held(self, keys: list[tuple[int, ...]]) -> list[float | None]:
        return [self.cache.get(key) for key in keys]

    def credit(self, key: tuple[int, ...], value: float | None, fitted: bool) -> None:
        if fitted:
            self.counters[1] += 1
            self.cache[key] = self.new_entries[key] = value
        else:
            self.counters[0] += 1


def _prefix_keys(order: np.ndarray) -> Iterator[tuple[int, ...]]:
    """The memo key of each prefix of ``order``, shortest first."""
    prefix: list[int] = []
    for i in order.tolist():
        insort(prefix, i)
        yield tuple(prefix)


def _chunk_bounds(n_items: int, n_chunks: int) -> list[tuple[int, int]]:
    """Contiguous, near-even (start, stop) partition of ``range(n_items)``."""
    edges = np.linspace(0, n_items, min(n_chunks, n_items) + 1, dtype=int)
    return [
        (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
    ]


class _Checkpointed:
    """Checkpoint identity, resume and carry-over of one sampling run.

    ``kind`` plus a fingerprint of ``config`` identify the run; a snapshot
    written under another configuration refuses to resume. With the
    engine's ``resume`` set, :attr:`snapshot` is the matching snapshot (or
    empty), and the evaluations and time it records carry over.
    """

    def __init__(
        self, engine: "ValuationEngine", kind: str, config: Mapping[str, Any]
    ) -> None:
        self.utility = engine.utility
        self.store = engine.checkpoint
        self.kind = kind
        self.started = time.perf_counter()
        self.fingerprint = None
        self.snapshot: dict = {}
        if self.store is not None:
            self.fingerprint = config_fingerprint({"kind": kind, **config})
            if engine.resume:
                self.snapshot = (
                    self.store.load_matching(kind, self.fingerprint) or {}
                )
        self.evals_prior = int(self.snapshot.get("n_evaluations", 0))
        self.elapsed_prior = float(self.snapshot.get("elapsed_s", 0.0))
        self.evals_at_entry = int(self.utility.n_evaluations)

    def n_evaluations(self) -> int:
        """Evaluations the run has spent, earlier invocations included."""
        return self.evals_prior + int(self.utility.n_evaluations) - self.evals_at_entry

    def elapsed_s(self) -> float:
        """Wall time the run has spent, earlier invocations included."""
        return self.elapsed_prior + (time.perf_counter() - self.started)

    def save(self, **record: Any) -> None:
        """Snapshot ``record`` under the run's identity (no-op without a
        checkpoint store)."""
        if self.store is not None:
            self.store.save(
                {"kind": self.kind, "fingerprint": self.fingerprint, **record}
            )


class _PermutationAccumulator(_Checkpointed):
    """Resumable state of one permutation-sampling run: per-point sums and
    sums of squares of weighted marginals, the completed-permutation
    watermark ``scanned``, the truncated-scan count and ``max_stderr``."""

    def __init__(self, engine: "ValuationEngine", config: Mapping[str, Any]) -> None:
        super().__init__(engine, "permutation", config)
        self.config = config
        n = config["n_train"]
        snapshot = self.snapshot
        self.totals = np.asarray(snapshot.get("totals", np.zeros(n)), dtype=float)
        self.sumsq = np.asarray(snapshot.get("sumsq", np.zeros(n)), dtype=float)
        self.scanned = self.resumed_from = int(snapshot.get("completed", 0))
        self.truncated = int(snapshot.get("truncated_scans", 0))
        self.speculative = int(snapshot.get("speculative_fits", 0))
        #: Whether the utility fits in batches, so the census reports them.
        self.batched = batch_evaluator(engine.utility) is not None
        self.max_stderr: float | None = None
        #: Stop reason of a restored run that already finished, else None.
        self.finished = (
            str(snapshot.get("stop_reason", "completed"))
            if snapshot.get("finished")
            else None
        )

    def add(self, deltas: np.ndarray, truncated: int, speculative: int) -> None:
        """Fold in one wave's marginal rows, one permutation at a time, so
        the floating-point summation order matches the serial scan for
        every worker count."""
        for row in deltas:
            self.totals += row
            self.sumsq += row * row
        self.scanned += len(deltas)
        self.truncated += truncated
        self.speculative += speculative

    def converged(self, tolerance: float | None) -> bool:
        """Refresh ``max_stderr``; whether it is within ``tolerance``."""
        if tolerance is None or self.scanned < 2:
            return False
        self.max_stderr = float(np.max(self.run().stderr()))
        return self.max_stderr <= tolerance

    def checkpoint(self, stop_reason: str | None) -> None:
        """Snapshot the accumulator; ``stop_reason`` marks a finished run."""
        self.save(
            n_train=self.config["n_train"],
            seed=self.config["seed"],
            n_permutations=self.config["n_permutations"],
            completed=self.scanned,
            totals=self.totals.tolist(),
            sumsq=self.sumsq.tolist(),
            truncated_scans=self.truncated,
            speculative_fits=self.speculative,
            n_evaluations=self.n_evaluations(),
            elapsed_s=self.elapsed_s(),
            finished=stop_reason is not None,
            stop_reason=stop_reason,
        )

    def run(
        self, stop_reason: str = "completed", tolerance: float | None = None
    ) -> PermutationRun:
        """The accumulator as a :class:`PermutationRun`. A run that scanned
        all its permutations under a convergence tolerance never reached it:
        the last wave's check would have stopped it as converged."""
        return PermutationRun(
            totals=self.totals,
            counts=np.full(len(self.totals), self.scanned, dtype=float),
            sumsq=self.sumsq,
            n_permutations=self.scanned,
            truncated_scans=self.truncated,
            max_stderr=self.max_stderr,
            converged=stop_reason == "converged"
            or (stop_reason == "completed" and tolerance is None),
            stop_reason=stop_reason,
            n_evaluations=self.n_evaluations(),
            elapsed_s=self.elapsed_s(),
            resumed_from=self.resumed_from,
            speculative_fits=self.speculative if self.batched else None,
        )


class ValuationEngine:
    """Memoized, supervised, resumable driver for subset-sampling estimators.

    Parameters
    ----------
    utility:
        Any object with the :class:`repro.importance.Utility` protocol
        (``n_train``, ``evaluate(indices)``, ``n_evaluations``).
    n_workers:
        Worker processes for fan-out. ``1`` (the default) runs fully
        serial, in-process. Values > 1 fan out on a worker pool (see
        ``pool``); without one, a call-scoped pool needs a fork-capable
        platform and the engine falls back to serial elsewhere with a
        single ``RuntimeWarning``. The returned values are identical for
        every worker count (deterministic utilities).
    cache_size:
        LRU bound of the subset memo; ``0`` disables memoization. Engines
        on a worker pool share its memo, bounded by the largest
        ``cache_size`` among them; a ``cache_size=0`` engine never shares.
        Pool workers keep nothing beyond one chunk, so this bounds what a
        pooled run remembers too.
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
        adapt from observed chunk-latency quantiles (8× the p95 of recent
        chunk latencies, once enough samples exist, floored at the pool's
        5 s). A chunk that fails 4 times raises
        :class:`~repro.importance.supervision.ChunkFailure`, and a pool
        restarts at most 32 workers over its lifetime — for a call-scoped
        pool, over one call. Like ``chaos``, it reaches only a pool the
        engine builds (``pool=True`` or a call-scoped lease): a fan-out on
        a borrowed or registry-leased pool with it set raises
        ``ValueError``, since that pool keeps its own.
    pool:
        Where fan-outs execute. ``None`` (default): lease from the active
        :func:`~repro.importance.pool.valuation_pool` registry when one is
        installed. ``True``: eagerly create an engine-owned
        :class:`~repro.importance.pool.WorkerPool` (released by
        :meth:`close` / the engine's context manager; raises
        :class:`~repro.importance.pool.PoolUnavailable` if impossible). A
        :class:`~repro.importance.pool.WorkerPool` instance: borrow it
        (caller keeps ownership). ``False``: never lease from a registry.
        Without an owned, borrowed or leased pool, each
        :meth:`run_permutations` / :meth:`evaluate_many` call fans out on
        a call-scoped pool (no warmup, no ledger) that it
        closes before returning. Whatever the kind, the engine shares the
        pool's subset memo while it fans out there (see ``cache_size``).
        Returned values are bit-identical in every mode.
    chaos:
        Optional :class:`repro.errors.chaos.ChaosMonkey` whose seeded
        *worker-level* faults (crash-on-chunk, hang-on-chunk) are injected
        inside workers — the supervision path's end-to-end test hook. It
        reaches the same pools as ``chunk_timeout_s``.
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
        pool: Any | None = None,
        chaos: Any | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
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
        self.chaos = chaos
        #: Lifetime supervision counters (crashes, hangs, retries, restarts).
        self.supervision = SupervisionStats()
        # -- execution substrate ---------------------------------------- #
        self._pool: WorkerPool | None = None
        self._owns_pool = False
        self._pool_disabled = pool is False
        if pool is True:
            pool = WorkerPool(
                utility,
                n_workers=self.n_workers,
                ledger=ledger,
                chunk_timeout_s=chunk_timeout_s,
                chaos=chaos,
            )
            self.use_pool(pool)
            self._owns_pool = True
        elif isinstance(pool, WorkerPool):
            self.use_pool(pool)

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
        """Borrow ``pool`` for subsequent fan-outs (caller keeps ownership)
        and share its subset memo.

        The hook the service runtime uses to hand sequential jobs over the
        same dataset one warm pool instead of a fleet per job. The cache
        folds its few entries into the pool's memo, at O(own entries). A
        weak borrower claim keeps registry LRU eviction from closing the
        pool out from under a live run.
        """
        if self._owns_pool and self._pool is not None and not self._pool.closed:
            raise RuntimeError("engine already owns a live pool")
        self._pool = pool
        self._owns_pool = False
        self._pool_disabled = False
        pool.add_borrower(self)
        self.cache.share(pool.memo)

    # ------------------------------------------------------------------ #
    # observability                                                      #
    # ------------------------------------------------------------------ #

    @contextmanager
    def _stats_window(self) -> Iterator[None]:
        """Publish what one engine call contributes to the metric registry
        (and to the innermost open span), also when the call raises."""
        if not _obs.enabled():
            yield
            return
        hits0, misses0 = self.cache.hits, self.cache.misses
        evals0 = int(self.utility.n_evaluations)
        try:
            yield
        finally:
            hits = self.cache.hits - hits0
            misses = self.cache.misses - misses0
            evals = int(self.utility.n_evaluations) - evals0
            _obs_metrics.counter("engine.cache.hits").inc(hits)
            _obs_metrics.counter("engine.cache.misses").inc(misses)
            _obs_metrics.counter("engine.evaluations").inc(evals)
            _obs_metrics.gauge("engine.cache.size").set(len(self.cache))
            _obs_metrics.gauge("engine.n_workers").set(self.n_workers)
            _obs.add_attrs(cache_hits=hits, cache_misses=misses, evaluations=evals)

    # ------------------------------------------------------------------ #
    # point evaluations                                                  #
    # ------------------------------------------------------------------ #

    def evaluate(self, indices: Iterable[int]) -> float:
        """Memoized ``v(S)``; evaluates the utility on the sorted indices."""
        return self._memo(SubsetCache.key(indices))

    def _memo(self, key: tuple[int, ...]) -> float:
        """Memoized ``v(S)`` for a key that is already canonical (sorted)."""
        value = self.cache.lookup(key)
        if value is None:
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
        ``wave_size`` subsets. ``resume=True`` takes the values of the first
        ``completed`` subsets from the snapshot (and puts them in the memo)
        and starts at that watermark: a killed run only pays for the subsets
        after it, a finished run returns without a save, and the values are
        bit-identical to an uninterrupted run's.
        """
        keys = [SubsetCache.key(subset) for subset in subsets]
        if checkpoint_config is None or self.checkpoint is None:
            with self._fan_out(len(keys)) as pool:
                return self._evaluate_many(keys, pool)
        run = _Checkpointed(self, "subset", checkpoint_config)
        wave = max(1, int(wave_size))
        out = np.empty(len(keys))
        completed = int(run.snapshot.get("completed", 0))
        if completed:
            known = {
                tuple(int(i) for i in key): float(value)
                for key, value in run.snapshot["values"]
            }
            for key, value in known.items():
                self.cache.put(key, value)
            out[:completed] = [known[key] for key in keys[:completed]]
        if run.snapshot.get("finished"):
            return out
        with self._fan_out(min(wave, len(keys) - completed)) as pool:
            for start in range(completed, len(keys), wave):
                stop = min(start + wave, len(keys))
                out[start:stop] = self._evaluate_many(keys[start:stop], pool)
                # Not from the memo, which a concurrent job may evict.
                done = dict(zip(keys[:stop], out[:stop].tolist()))
                run.save(
                    completed=stop,
                    n_subsets=len(keys),
                    values=[[list(key), value] for key, value in done.items()],
                    n_evaluations=run.n_evaluations(),
                    finished=stop >= len(keys),
                )
        return out

    def _evaluate_many(
        self, keys: Sequence[tuple[int, ...]], pool: WorkerPool | None
    ) -> np.ndarray:
        with _obs.span(
            "engine.evaluate_many", n_subsets=len(keys)
        ) as sp, self._stats_window():
            if pool is None or len(keys) <= 1:
                return np.asarray(_MemoSource(self, fits=True).values(keys))
            values: dict[tuple[int, ...], float] = {}
            pending: list[tuple[int, ...]] = []
            for key in OrderedDict.fromkeys(keys):
                value = self.cache.lookup(key)
                if value is None:
                    pending.append(key)
                else:
                    values[key] = value
            sp.set(pending=len(pending))
            if pending:
                outputs = self._dispatch(
                    pool,
                    [
                        {"kind": "subset", "keys": pending[a:b]}
                        for a, b in self._chunks(len(pending))
                    ],
                    count_lookups=False,
                )
                # Every pending key is a new entry of its chunk, which the
                # merge has put in the memo.
                values.update(zip(pending, chain.from_iterable(outputs)))
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
        restored from a resumed checkpoint); both are checked before each
        wave starts and stop the run with a *partial* accumulator state —
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
        weights = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("weights must have one entry per position")
        acc = _PermutationAccumulator(
            self,
            {
                "n_train": n,
                "seed": seed,
                "n_permutations": n_permutations,
                "weights": weights,
                "truncation_tolerance": truncation_tolerance,
                "convergence_tolerance": convergence_tolerance,
                "check_every": check_every,
                "antithetic": antithetic,
            },
        )
        if acc.finished is not None:
            # The checkpointed run already finished — nothing to redo.
            acc.converged(convergence_tolerance)
            return acc.run(acc.finished, convergence_tolerance)

        def spent() -> str | None:
            """The budget this call has exhausted, if any."""
            if max_evals is not None and acc.n_evaluations() >= max_evals:
                return "eval_budget"
            if deadline_s is not None and time.perf_counter() - acc.started >= deadline_s:
                return "deadline"
            return None

        # Waves exist wherever a boundary decision is needed: convergence
        # checks, budget checks, checkpoint snapshots, or progress streams.
        bounded = (
            convergence_tolerance is not None
            or deadline_s is not None
            or max_evals is not None
            or self.checkpoint is not None
            or progress_callback is not None
        )
        wave = max(1, int(check_every)) if bounded else n_permutations
        supervision_before = self.supervision.to_dict()
        # A budget spent at entry — a zero budget, or a resumed run handed
        # the max_evals it already consumed — skips even the null/full
        # anchor evaluations: "return immediately" means zero utility calls.
        exhausted = spent() is not None
        with _obs.span(
            "engine.run_permutations",
            n_train=n,
            n_permutations=n_permutations,
            n_workers=self.n_workers,
            antithetic=antithetic,
            seed=seed,
        ) as run_span, self._stats_window():
            scan = {
                "weights": weights,
                "truncation_tolerance": truncation_tolerance,
                "null": 0.0 if exhausted else self.evaluate(()),
                "full": (
                    self.evaluate(range(n))
                    if truncation_tolerance > 0.0 and not exhausted
                    else None
                ),
            }
            tasks = 0 if exhausted else n_permutations - acc.scanned
            with self._fan_out(tasks) as pool:
                # The resumed prefix is skipped lazily, on the first draw.
                stream = islice(
                    self._ordering_stream(seed, antithetic), acc.scanned, None
                )
                stop_reason = None
                while acc.scanned < n_permutations:
                    stop_reason = spent()
                    if stop_reason is not None:
                        break
                    start = acc.scanned
                    stop = min(start + wave, n_permutations)
                    orderings = list(islice(stream, stop - start))
                    with _obs.span("engine.wave", start=start, stop=stop) as wave_span:
                        deltas, truncated, speculative = self._scan_wave(
                            orderings, scan, pool
                        )
                        acc.add(deltas, truncated, speculative)
                        if acc.converged(convergence_tolerance):
                            stop_reason = "converged"
                        if _obs.enabled():
                            if acc.max_stderr is not None:
                                # SE trajectory: one observation per wave.
                                wave_span.set(max_stderr=acc.max_stderr)
                                _obs_metrics.histogram(
                                    "engine.wave_max_stderr"
                                ).observe(acc.max_stderr)
                            wave_span.set(truncated=truncated)
                            _obs_metrics.counter("engine.permutations").inc(
                                stop - start
                            )
                    acc.checkpoint(
                        stop_reason
                        or ("completed" if acc.scanned >= n_permutations else None)
                    )
                    if progress_callback is not None:
                        progress = acc.run()
                        progress_callback(
                            {
                                "completed": acc.scanned,
                                "target": n_permutations,
                                "values": progress.values(),
                                "stderr": progress.stderr(),
                                "max_stderr": acc.max_stderr,
                                "n_evaluations": progress.n_evaluations,
                                "elapsed_s": progress.elapsed_s,
                            }
                        )
                    if stop_reason is not None:
                        break
            run = acc.run(stop_reason or "completed", convergence_tolerance)
            census = run.census()
            run_span.set(**census)
        if self.ledger is not None:
            supervision = self.supervision.to_dict()
            self.ledger.record_event(
                "valuation",
                # The budgets, the fleet and the store stay out of the
                # fingerprint, not out of the record.
                config={
                    **{k: v for k, v in acc.config.items() if k != "weights"},
                    "n_workers": self.n_workers,
                    "deadline_s": deadline_s,
                    "max_evals": max_evals,
                    "checkpoint": (
                        str(self.checkpoint.path)
                        if self.checkpoint is not None
                        else None
                    ),
                },
                stats={
                    **census,
                    "evaluations": int(self.utility.n_evaluations)
                    - acc.evals_at_entry,
                    "cache": self.cache.stats(),
                    "supervision": {
                        key: supervision[key] - value
                        for key, value in supervision_before.items()
                    },
                },
                wall_time_s=time.perf_counter() - acc.started,
            )
        return run

    def result_from_run(
        self, run: PermutationRun, n_permutations_target: int
    ) -> ValuationResult:
        """Package a :class:`PermutationRun` as a :class:`ValuationResult`
        whose census is the engine's stats overlaid with the run's census
        (so ``n_evaluations`` is the run's count, not the utility's
        lifetime count)."""
        return ValuationResult(
            values=run.values(),
            stderr=run.stderr(),
            converged=run.converged,
            stop_reason=run.stop_reason,
            census={
                "n_permutations_target": int(n_permutations_target),
                **self.stats(),
                **run.census(),
            },
        )

    # ------------------------------------------------------------------ #
    # internals                                                          #
    # ------------------------------------------------------------------ #

    @contextmanager
    def _fan_out(self, n_tasks: int) -> Iterator[WorkerPool | None]:
        """The pool one call's fan-outs run on; None runs the call serially.

        An owned, borrowed or registry-leased pool serves the call; failing
        that, the call leases a pool of its own — no warmup (chunks are
        numbered from 0 and no span is added), no ledger — and
        closes it on the way out, or runs serially, with one warning, where
        fork is unavailable.
        """
        if self.n_workers <= 1 or n_tasks <= 1:
            yield None
            return
        pool = self._resolve_pool()
        if pool is not None:
            if not self._owns_pool:
                for name in ("chaos", "chunk_timeout_s"):
                    if getattr(self, name) is not None:
                        raise ValueError(
                            f"{name} applies only to a pool the engine "
                            "builds (pool=True or a call-scoped lease); a "
                            "borrowed or registry-leased pool keeps its own"
                        )
            yield pool
        elif _FORK_CTX is None:
            _warn_no_fork("engine")
            yield None
        else:
            with WorkerPool(
                self.utility,
                self.n_workers,
                warmup=False,
                chunk_timeout_s=self.chunk_timeout_s,
                chaos=self.chaos,
            ) as lease:
                self.cache.share(lease.memo)
                yield lease

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
                self.use_pool(registry.lease(self.utility, self.n_workers))
                return self._pool
            except PoolUnavailable:
                # No fork: _fan_out warns once and runs the call serially.
                self._pool_disabled = True
                return None
        return None

    def _chunks(self, n_items: int) -> list[tuple[int, int]]:
        return _chunk_bounds(n_items, self.n_workers * _CHUNKS_PER_WORKER)

    def _dispatch(
        self, pool: WorkerPool, payloads: list[dict], count_lookups: bool
    ) -> list[Any]:
        """Run chunk descriptors on ``pool`` and fold each chunk's cache
        entries and accounting into this engine; returns the chunk outputs
        in order. Merged entries land in the pool's memo, where later waves
        read their known values. Chunks and supervision events count into
        this engine's own :attr:`supervision`, whoever owns the pool.
        """
        if _obs.enabled():
            # Utilization: fraction of the configured pool this fan-out
            # keeps busy (short waves can have fewer chunks than workers).
            _obs_metrics.counter("engine.pool.tasks").inc(len(payloads))
            _obs_metrics.histogram("engine.pool.utilization").observe(
                min(1.0, len(payloads) / self.n_workers)
            )
        results = pool.dispatch(payloads, self.supervision)
        outputs = []
        for __, output, entries, evals, counters in results:
            self._merge_worker(entries, evals, counters, count_lookups)
            outputs.append(output)
        return outputs

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

    def _scan_wave(
        self, orderings: Sequence[np.ndarray], scan: dict, pool: WorkerPool | None
    ) -> tuple[np.ndarray, int, int]:
        """One wave's marginal rows, truncated scans and speculative fits;
        ``scan`` holds the run's ``weights``, ``truncation_tolerance``,
        ``null``, ``full``.

        On a pool, the wave is first scanned from the memo alone: a warm
        engine, or one on a warm pool, often holds every subset it needs,
        and answering here skips the dispatch. Each read refreshes the
        subset's recency, so a long-lived shared memo evicts the subsets no
        wave reads, not the hot ones. A wave that misses is dispatched with
        the memo's values of its prefixes (see :meth:`_known_values`), so
        workers, which keep nothing between chunks, evaluate only what the
        memo lacks. Its lookups are counted once, from the workers' reports.
        """
        if pool is None:
            return _scan_orderings(_MemoSource(self, fits=True), orderings, **scan)
        counts = self.cache.hits, self.cache.misses
        try:
            return _scan_orderings(_MemoSource(self, fits=False), orderings, **scan)
        except _MemoMiss:
            self.cache.hits, self.cache.misses = counts
        known = self._known_values(orderings)
        outputs = self._dispatch(
            pool,
            [
                {
                    "kind": "permutation",
                    "orderings": orderings[a:b],
                    "known": known[a:b],
                    **scan,
                }
                for a, b in self._chunks(len(orderings))
            ],
            count_lookups=True,
        )
        deltas = np.concatenate([chunk for chunk, __, __ in outputs], axis=0)
        return (
            deltas,
            sum(truncated for __, truncated, __ in outputs),
            sum(speculative for __, __, speculative in outputs),
        )

    def _known_values(self, orderings: Sequence[np.ndarray]) -> np.ndarray:
        """Row ``p``, column ``k``: the memo's value of the first ``k + 1``
        points of ``orderings[p]``, NaN where the memo holds none.

        Read under the memo lock, without counting lookups: the workers
        count a known value as a hit when their scan reads it.
        """
        known = np.full((len(orderings), self.n_train), np.nan)
        memo = self.cache.memo
        with memo.lock:
            if memo.data:
                for row, order in zip(known, orderings):
                    row[:] = [
                        memo.data.get(key, np.nan) for key in _prefix_keys(order)
                    ]
        return known

    def _merge_worker(
        self, new_entries: list, evals: int, counters: list, count_lookups: bool
    ) -> None:
        """Fold one worker chunk's cache entries and accounting into ours.

        The evaluation census is charged per subset *newly learned by the
        driver*, not per worker-side utility call: two chunks of one wave
        can both evaluate a subset the memo lacked, and charging raw
        worker counts made the parallel census drift from
        serial (the 632-vs-633 ``n_evaluations`` artifact in the old
        benchmark results). Physically duplicated work is still visible as
        the ``engine.pool.duplicate_evals`` counter. Lookup accounting is
        normalized the same way, so hit/miss totals match the serial scan.
        On a shared memo, a subset that a concurrent job merged first also
        counts as a duplicate for this job, which is then not charged.
        """
        duplicates = 0
        for key, value in new_entries:
            if not self.cache.put(key, value):
                duplicates += 1
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

def _map_chunk(state: dict, bounds: tuple[int, int]) -> list | Exception:
    """``func`` over one chunk of ``items``: the results, or the exception
    that ``func`` raised first, for the driver to re-raise."""
    start, stop = bounds
    try:
        return [state["func"](item) for item in state["items"][start:stop]]
    except Exception as exc:  # noqa: BLE001 - re-raised by parallel_map
        # The pipe pickles the exception without its traceback; keep the
        # worker's as a note, which the caller's traceback prints.
        exc.__notes__ = [*getattr(exc, "__notes__", ()), traceback.format_exc()]
        return exc


def parallel_map(func: Callable, items: Sequence, n_workers: int = 1) -> list:
    """``[func(x) for x in items]`` fanned out over worker processes.

    Order-preserving. The call forks a supervised
    :class:`~repro.importance.supervision.ChunkDispatcher` of its own, so
    ``func`` may be a closure over arbitrary state (frames, fitted models)
    without being picklable — only the *returned* values must pickle. A
    worker that dies or hangs has its chunk re-run, and a chunk that keeps
    failing raises :class:`~repro.importance.supervision.ChunkFailure`. An
    exception ``func`` raises reaches the caller as itself: the one from
    the lowest-index item, as in the serial loop. Falls back to a serial
    loop when ``n_workers <= 1``, for a single item, or where fork is
    unavailable (with a single ``RuntimeWarning`` per process).
    """
    items = list(items)
    if n_workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    if _FORK_CTX is None:
        _warn_no_fork("map")
        return [func(item) for item in items]
    with ChunkDispatcher(
        _FORK_CTX,
        min(n_workers, len(items)),
        {"func": func, "items": items},
        _map_chunk,
        deadline=DeadlinePolicy(floor_s=_HANG_FLOOR_S),
    ) as dispatcher:
        chunks = dispatcher.dispatch(
            _chunk_bounds(len(items), n_workers * _CHUNKS_PER_WORKER)
        )
    results: list = []
    for chunk in chunks:
        if isinstance(chunk, Exception):
            raise chunk
        results.extend(chunk)
    return results
