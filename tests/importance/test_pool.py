"""Persistent worker pool: bit-identity, warm reuse, recovery, metrics.

The tentpole contract: an engine running on a :class:`WorkerPool` —
whatever the start method, worker count, crash history, or how many
engines shared the pool before it — returns values, standard errors, and
an evaluation census bit-identical to a serial run. The satellites pin
the rest: warm leases skip re-evaluation, a SIGKILLed worker re-attaches
to the shared segments instead of re-copying the dataset, checkpoints
survive pool teardown/recreate (including a ``kill -9`` of the whole
driver), and the pool's lifecycle is visible in metrics and the ledger.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro.importance.engine as engine_mod
from repro.datasets import make_classification
from repro.importance import (
    PoolUnavailable,
    SubsetUtility,
    Utility,
    ValuationEngine,
    WorkerPool,
    valuation_pool,
)
from repro.importance.checkpoint import CheckpointStore
from repro.importance.pool import PoolRegistry, utility_fingerprint
from repro.importance.shm import SEGMENT_PREFIX, reap_stale_segments
from repro.learn import LogisticRegression

needs_fork = pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)


def small_utility(seed: int = 11) -> Utility:
    """A standard (array-backed, picklable) utility — shared-memory able."""
    X, y = make_classification(n=48, n_features=3, seed=seed)
    return Utility(
        LogisticRegression(max_iter=20), X[:36], y[:36], X[36:], y[36:]
    )


def saturating_game(n: int = 10, seed: int = 3) -> SubsetUtility:
    """A closure game — not picklable, rides on fork inheritance."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    return SubsetUtility(func, n)


def slow_game(n: int = 8, seed: int = 3, delay_s: float = 0.004) -> SubsetUtility:
    base = saturating_game(n, seed)

    def func(indices):
        time.sleep(delay_s)
        return base.func(indices)

    return SubsetUtility(func, n)


# ---------------------------------------------------------------------- #
# pool mechanics                                                         #
# ---------------------------------------------------------------------- #


class TestWorkerPool:
    def test_standard_utility_gets_shared_memory_mode(self):
        with WorkerPool(small_utility(), n_workers=2) as pool:
            assert pool.mode.startswith("shm-")
            assert pool.shm_bytes > 0
            assert len(pool.attach_latencies) == 2  # warmup ping per worker

    @needs_fork
    def test_closure_utility_rides_on_fork_inheritance(self):
        with WorkerPool(saturating_game(), n_workers=2) as pool:
            assert pool.mode == "fork"
            assert pool.shm_bytes == 0

    def test_closure_utility_on_spawn_raises_pool_unavailable(self):
        with pytest.raises(PoolUnavailable):
            WorkerPool(saturating_game(), n_workers=2, start_method="spawn")

    def test_dispatch_after_close_raises(self):
        pool = WorkerPool(small_utility(), n_workers=2)
        pool.close()
        pool.close()  # idempotent
        assert pool.stats()["workers_alive"] == 0
        with pytest.raises(RuntimeError):
            pool.dispatch([{"kind": "ping"}])

    def test_stats_shape(self):
        with WorkerPool(small_utility(), n_workers=2) as pool:
            stats = pool.stats()
        assert stats["n_workers"] == 2
        assert stats["worker_starts"] >= 2
        assert stats["attach_latency_s"]["count"] == 2
        assert stats["setup_s"] >= 0.0
        assert "supervision" in stats

    def test_fingerprint_shared_across_equal_utilities(self):
        assert utility_fingerprint(small_utility()) == utility_fingerprint(
            small_utility()
        )
        assert utility_fingerprint(small_utility()) != utility_fingerprint(
            small_utility(seed=12)
        )
        # Closure games cannot be hashed; identity keeps them unshared.
        game = saturating_game()
        assert utility_fingerprint(game) == f"id:{id(game)}"


# ---------------------------------------------------------------------- #
# bit-identity with serial                                               #
# ---------------------------------------------------------------------- #


class TestBitIdentity:
    def test_permutations_match_serial_exactly(self):
        """Values, standard errors, AND the evaluation census: the pool
        run is indistinguishable from serial in every observable."""
        serial_u = small_utility()
        serial = ValuationEngine(serial_u).run_permutations(10, seed=7)
        pool_u = small_utility()
        with ValuationEngine(pool_u, n_workers=4, pool=True) as engine:
            pooled = engine.run_permutations(10, seed=7)
            census = engine.result_from_run(pooled, 10).census
        assert np.array_equal(pooled.values(), serial.values())
        assert np.array_equal(pooled.stderr(), serial.stderr())
        assert pool_u.n_evaluations == serial_u.n_evaluations
        assert census["pool"]["mode"].startswith("shm-")

    @needs_fork
    def test_closure_game_matches_serial_exactly(self):
        serial_u = saturating_game()
        serial = ValuationEngine(serial_u).run_permutations(25, seed=3)
        pool_u = saturating_game()
        with ValuationEngine(pool_u, n_workers=3, pool=True) as engine:
            pooled = engine.run_permutations(25, seed=3)
        assert np.array_equal(pooled.values(), serial.values())
        assert np.array_equal(pooled.stderr(), serial.stderr())
        assert pool_u.n_evaluations == serial_u.n_evaluations

    @needs_fork
    def test_legacy_fork_census_matches_serial(self):
        """The historical drift (serial 632 vs parallel 633 evaluations)
        is fixed for the per-run fork path too: duplicate subsets
        evaluated by independent workers are charged once."""
        serial_u = saturating_game(n=8, seed=5)
        ValuationEngine(serial_u).run_permutations(30, seed=11)
        fork_u = saturating_game(n=8, seed=5)
        ValuationEngine(fork_u, n_workers=4, pool=False).run_permutations(
            30, seed=11
        )
        assert fork_u.n_evaluations == serial_u.n_evaluations

    def test_evaluate_many_matches_serial(self):
        rng = np.random.default_rng(2)
        subsets = [
            sorted(rng.choice(36, size=rng.integers(0, 8), replace=False))
            for __ in range(40)
        ]
        serial = ValuationEngine(small_utility()).evaluate_many(subsets)
        pool_u = small_utility()
        with ValuationEngine(pool_u, n_workers=3, pool=True) as engine:
            pooled = engine.evaluate_many(subsets)
            # The driver memo learned every returned value, even ones a
            # warm worker answered from its local cache.
            again = engine.evaluate_many(subsets)
        assert np.array_equal(pooled, serial)
        assert np.array_equal(again, serial)

    @pytest.mark.slow
    def test_spawn_pool_matches_serial_exactly(self):
        """The no-fork story is honest: shared memory + picklable chunk
        descriptors run the same bits through spawned workers."""
        serial_u = small_utility()
        serial = ValuationEngine(serial_u).run_permutations(6, seed=1)
        pool_u = small_utility()
        with WorkerPool(pool_u, n_workers=2, start_method="spawn") as pool:
            assert pool.mode == "shm-spawn"
            engine = ValuationEngine(pool_u, n_workers=2, pool=pool)
            pooled = engine.run_permutations(6, seed=1)
        assert np.array_equal(pooled.values(), serial.values())
        assert np.array_equal(pooled.stderr(), serial.stderr())
        assert pool_u.n_evaluations == serial_u.n_evaluations


# ---------------------------------------------------------------------- #
# warm reuse                                                             #
# ---------------------------------------------------------------------- #


class TestWarmReuse:
    def test_second_engine_on_same_data_evaluates_nothing(self):
        """Engines leasing one registry pool share its subset memo, so a
        repeat run on the same dataset is answered entirely from what the
        first run taught the memo."""
        with valuation_pool(n_workers=2) as registry:
            first_u = small_utility()
            first = ValuationEngine(first_u, n_workers=2).run_permutations(
                8, seed=4
            )
            second_u = small_utility()
            second = ValuationEngine(second_u, n_workers=2).run_permutations(
                8, seed=4
            )
            assert np.array_equal(second.values(), first.values())
            assert first_u.n_evaluations > 0
            assert second_u.n_evaluations == 0
            stats = registry.stats()
            assert stats == {**stats, "pools": 1, "leases": 2, "reuses": 1}

    def test_warm_engine_skips_dispatch(self):
        """An engine adopting a warm pool holds every subset in its memo,
        so its waves never reach the fleet."""
        with WorkerPool(small_utility(), n_workers=2) as pool:
            first = ValuationEngine(
                small_utility(), n_workers=2, pool=pool
            ).run_permutations(6, seed=4)
            dispatched = pool.chunks_dispatched
            second_u = small_utility()
            second = ValuationEngine(
                second_u, n_workers=2, pool=pool
            ).run_permutations(6, seed=4)
            assert pool.chunks_dispatched == dispatched
        assert np.array_equal(second.values(), first.values())
        assert second_u.n_evaluations == 0

    def test_pool_outlives_the_runs_and_registry_closes_it(self):
        with valuation_pool(n_workers=2) as registry:
            engine = ValuationEngine(small_utility(), n_workers=2)
            engine.run_permutations(4, seed=0)
            pool = engine._pool
            assert pool is not None and not pool.closed
            engine.run_permutations(6, seed=1)  # same pool, same fleet
            assert engine._pool is pool
        assert pool.closed
        assert registry.stats()["pools"] == 0

    def test_registry_evicts_least_recently_used(self):
        registry = PoolRegistry(n_workers=2, max_pools=1)
        try:
            first = registry.lease(small_utility(seed=11))
            second = registry.lease(small_utility(seed=12))
            assert first.closed
            assert not second.closed
        finally:
            registry.close_all()
        assert second.closed

    def test_eviction_defers_while_pool_is_borrowed(self):
        """A pool with a live borrower survives LRU eviction: closing it
        would terminate workers under whatever run the borrower has in
        flight. Once the borrower is collected, the next lease evicts."""

        class Borrower:
            pass

        registry = PoolRegistry(n_workers=2, max_pools=1)
        try:
            first = registry.lease(small_utility(seed=11))
            borrower = Borrower()
            first.add_borrower(borrower)
            assert first.borrowed
            second = registry.lease(small_utility(seed=12))
            assert not first.closed  # live borrower: eviction deferred
            assert not second.closed
            del borrower
            gc.collect()
            assert not first.borrowed
            third = registry.lease(small_utility(seed=13))
            assert first.closed
            assert second.closed  # unborrowed backlog evicted too
            assert not third.closed
        finally:
            registry.close_all()

    def test_engine_lease_blocks_eviction_while_engine_lives(self):
        """Engines register themselves as borrowers on adoption, so a
        concurrent job's pool cannot be evicted out from under it."""
        with valuation_pool(n_workers=2, max_pools=1):
            engine = ValuationEngine(small_utility(seed=11), n_workers=2)
            engine.run_permutations(4, seed=0)
            pool = engine._pool
            assert pool is not None and pool.borrowed
            other = ValuationEngine(small_utility(seed=12), n_workers=2)
            other.run_permutations(4, seed=0)
            assert not pool.closed
            # The first engine keeps working on its still-open pool.
            first_rerun = engine.run_permutations(4, seed=0)
            assert first_rerun.values().shape == (engine.n_train,)

    def test_engine_with_pool_false_never_leases(self):
        with valuation_pool(n_workers=2):
            engine = ValuationEngine(small_utility(), n_workers=2, pool=False)
            engine.run_permutations(4, seed=0)
            assert engine._pool is None


# ---------------------------------------------------------------------- #
# the shared subset memo                                                 #
# ---------------------------------------------------------------------- #


class TestSharedMemo:
    def test_memo_answered_rerun_keeps_its_subsets_recent(self):
        """A wave answered from the memo refreshes the recency of every
        subset it read. Filler entries inserted after the first run are
        then older than the wave's subsets, so the next insert evicts a
        filler and a third rerun is answered without a dispatch."""
        size = 100
        with WorkerPool(small_utility(), n_workers=2) as pool:
            engine = ValuationEngine(
                small_utility(), n_workers=2, pool=pool, cache_size=size
            )
            first = engine.run_permutations(2, seed=5)
            learned = len(engine.cache)
            assert 0 < learned < size
            fillers = [(1000 + i,) for i in range(size - learned + 1)]
            for key in fillers[:-1]:
                engine.cache.put(key, 0.0)
            assert len(engine.cache) == size
            dispatched = pool.chunks_dispatched
            engine.run_permutations(2, seed=5)
            assert pool.chunks_dispatched == dispatched
            engine.cache.put(fillers[-1], 0.0)  # evicts the LRU entry
            third = engine.run_permutations(2, seed=5)
            assert pool.chunks_dispatched == dispatched
        assert np.array_equal(third.values(), first.values())

    def test_owned_pool_shares_its_memo(self):
        """An engine-owned pool shares its memo like any other: the engine
        reads and writes the pool's memo, so a second engine borrowing the
        pool evaluates nothing for the same seed."""
        with ValuationEngine(
            small_utility(), n_workers=2, pool=True
        ) as engine:
            first = engine.run_permutations(4, seed=3)
            assert engine.cache.memo is engine._pool.memo
            assert len(engine.cache) > 0
            second_u = small_utility()
            second = ValuationEngine(
                second_u, n_workers=2, pool=engine._pool
            ).run_permutations(4, seed=3)
        assert second_u.n_evaluations == 0
        assert np.array_equal(second.values(), first.values())

    def test_zero_cache_engine_leaves_no_worker_memo(self):
        """A ``cache_size=0`` engine memoizes nothing, and the pool's
        workers keep nothing for it either: the same run twice charges the
        same census, and its values equal a serial ``cache_size=0`` run."""
        serial = ValuationEngine(small_utility(), cache_size=0).run_permutations(
            4, seed=2, truncation_tolerance=0.02
        )
        with WorkerPool(small_utility(), n_workers=2) as pool:
            engine = ValuationEngine(
                small_utility(), n_workers=2, pool=pool, cache_size=0
            )
            runs = [
                engine.run_permutations(4, seed=2, truncation_tolerance=0.02)
                for __ in range(2)
            ]
        assert runs[0].n_evaluations == runs[1].n_evaluations > 0
        for run in runs:
            assert np.array_equal(run.values(), serial.values())
            assert np.array_equal(run.stderr(), serial.stderr())

    @needs_fork
    def test_call_scoped_lease_reevaluates_nothing_the_driver_knew(self):
        """A fresh call-scoped lease starts with empty worker caches; the
        subsets the driver already knew must reach its workers, so a
        single-chunk wave re-evaluates none of them."""
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        utility = small_utility()
        order = np.random.default_rng(8).permutation(utility.n_train)
        known = [sorted(order[:k].tolist()) for k in range(1, 19)]
        engine = ValuationEngine(utility, n_workers=2)
        engine.evaluate_many(known)  # a first call-scoped lease
        chunks = engine.supervision.chunks_completed
        obs_trace.enable()
        try:
            # One ordering per wave: each wave is one chunk on one worker,
            # and its first 18 prefixes are the subsets evaluated above.
            run = engine.run_permutations(
                2, seed=8, check_every=1, progress_callback=lambda p: None
            )
            duplicates = obs_metrics.snapshot().get(
                "engine.pool.duplicate_evals", {"value": 0}
            )["value"]
        finally:
            obs_trace.disable()
            obs_metrics.registry().clear()
            obs_trace.get_recorder().reset()
        assert engine.supervision.chunks_completed == chunks + 2
        assert duplicates == 0
        serial = ValuationEngine(small_utility()).run_permutations(2, seed=8)
        assert np.array_equal(run.values(), serial.values())


# ---------------------------------------------------------------------- #
# thread safety                                                          #
# ---------------------------------------------------------------------- #


class TestThreadSafety:
    def test_concurrent_fan_outs_do_not_cross_results(self):
        """Concurrent dispatches on one pool — the service runtime's
        concurrent-jobs-per-dataset shape — serialize on the pool lock.
        Without it, both threads recv() on the same pipes with chunk ids
        both starting at 0 and silently swap each other's results."""
        serial_u = small_utility()
        n = serial_u.n_train
        rng = np.random.default_rng(7)
        keysets = [
            [
                tuple(sorted(rng.choice(n, size=5, replace=False).tolist()))
                for __ in range(6)
            ]
            for __ in range(4)
        ]
        expected = [
            [
                float(serial_u.evaluate(np.asarray(keys, dtype=np.int64)))
                for keys in keyset
            ]
            for keyset in keysets
        ]
        results: dict[int, list] = {}
        errors: list[Exception] = []
        with WorkerPool(small_utility(), n_workers=2) as pool:

            def run(tid: int) -> None:
                try:
                    out = pool.dispatch(
                        [
                            {"kind": "subset", "keys": keysets[tid][:3]},
                            {"kind": "subset", "keys": keysets[tid][3:]},
                        ]
                    )
                    results[tid] = list(out[0][1]) + list(out[1][1])
                except Exception as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(tid,)) for tid in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        for tid in range(4):
            assert results[tid] == expected[tid]

    def test_concurrent_engines_on_shared_pool_match_serial(self):
        """Two engines leasing the same warm pool from parallel threads
        (exactly what JobRuntime's max_concurrency=2 default produces)
        each return values bit-identical to a serial run."""
        serial = ValuationEngine(small_utility()).run_permutations(8, seed=4)
        runs: dict[int, object] = {}
        errors: list[Exception] = []
        with valuation_pool(n_workers=2):

            def run(tid: int) -> None:
                try:
                    runs[tid] = ValuationEngine(
                        small_utility(), n_workers=2
                    ).run_permutations(8, seed=4)
                except Exception as exc:  # pragma: no cover - fail below
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(tid,)) for tid in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
        for tid in range(2):
            assert np.array_equal(runs[tid].values(), serial.values())
            assert np.array_equal(runs[tid].stderr(), serial.stderr())

    def test_threads_sharing_an_evicting_memo_match_serial(self, tmp_path):
        """Four engines on one pool, with a memo far smaller than the
        subsets they need, evict each other's entries mid-wave. Every run
        still returns values bit-identical to serial, and nothing raises —
        including the checkpointed ``evaluate_many`` branch."""
        subsets = [[j for j in range(12) if (i >> j) & 1] for i in range(1, 25)]
        config = {"estimator": "stress"}
        serial_many = ValuationEngine(small_utility()).evaluate_many(subsets)
        serial = {
            tid: ValuationEngine(small_utility()).run_permutations(3, seed=tid)
            for tid in range(4)
        }
        runs: dict[tuple[int, int], object] = {}
        many: dict[tuple[int, int], np.ndarray] = {}
        points: dict[tuple[int, int], list] = {}
        errors: list[Exception] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(small_utility(), n_workers=2) as pool:

                def run(tid: int) -> None:
                    try:
                        engine = ValuationEngine(
                            small_utility(), n_workers=2, pool=pool,
                            cache_size=8, checkpoint=tmp_path / f"{tid}.json",
                        )
                        for rep in range(2):
                            runs[tid, rep] = engine.run_permutations(
                                3, seed=tid, check_every=1
                            )
                            many[tid, rep] = engine.evaluate_many(
                                subsets, checkpoint_config=config, wave_size=5
                            )
                            points[tid, rep] = [
                                engine.evaluate(subset) for subset in subsets
                            ]
                    except Exception as exc:  # pragma: no cover - fail below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=run, args=(tid,)) for tid in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(runs) == len(many) == len(points) == 8
        for (tid, __), got in runs.items():
            assert np.array_equal(got.values(), serial[tid].values())
            assert np.array_equal(got.stderr(), serial[tid].stderr())
        for got in [*many.values(), *points.values()]:
            assert np.array_equal(got, serial_many)


# ---------------------------------------------------------------------- #
# recovery                                                               #
# ---------------------------------------------------------------------- #


class TestRecovery:
    @needs_fork
    def test_sigkill_of_pool_worker_mid_wave_reattaches_and_recovers(self):
        """kill -9 one pool worker mid-run: the chunk is re-queued, the
        replacement re-attaches to the existing shared segments (no
        re-publish), and the values stay bit-identical to serial."""
        serial = ValuationEngine(slow_game()).run_permutations(40, seed=9)
        game = slow_game()
        with WorkerPool(game, n_workers=2) as pool:
            victims = [w.proc.pid for w in pool.dispatcher._workers]
            engine = ValuationEngine(game, n_workers=2, pool=pool)
            result: dict = {}

            def run():
                result["run"] = engine.run_permutations(40, seed=9)

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.05)  # let the wave get in flight
            os.kill(victims[0], signal.SIGKILL)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            assert pool.supervision.worker_restarts >= 1
            assert pool.stats()["worker_starts"] >= 3  # 2 spawns + 1 replace
            # Same segment throughout: the bundle was published once.
            assert pool.bundle is None  # closure game → fork inheritance
        assert np.array_equal(result["run"].values(), serial.values())
        assert engine.worker_restarts >= 1  # mirrored into the engine

    def test_sigkill_in_shm_mode_replacement_reattaches(self):
        """Same recovery with the shared-memory plane: the replacement
        worker's first chunk reports a fresh attach latency, proving it
        re-mapped the segments instead of inheriting them."""
        utility = small_utility()
        with WorkerPool(utility, n_workers=2) as pool:
            assert pool.mode.startswith("shm-")
            attaches_before = len(pool.attach_latencies)
            os.kill(pool.dispatcher._workers[0].proc.pid, signal.SIGKILL)
            engine = ValuationEngine(utility, n_workers=2, pool=pool)
            run = engine.run_permutations(8, seed=2)
            assert len(pool.attach_latencies) > attaches_before
            assert pool.stats()["worker_starts"] >= 3
        serial = ValuationEngine(small_utility()).run_permutations(8, seed=2)
        assert np.array_equal(run.values(), serial.values())

    def test_checkpoint_survives_pool_teardown_and_recreate(self, tmp_path):
        """A budget-stopped run checkpointed under pool A resumes under a
        brand-new pool B — different processes, different segments — and
        completes bit-identically to an uninterrupted serial run."""
        ck = tmp_path / "ck.json"
        uninterrupted = ValuationEngine(small_utility()).run_permutations(
            12, seed=6
        )
        with ValuationEngine(
            small_utility(), n_workers=2, pool=True, checkpoint=ck
        ) as engine:
            partial = engine.run_permutations(12, seed=6, max_evals=30)
        assert partial.stop_reason == "eval_budget"
        resumed_u = small_utility()
        with ValuationEngine(
            resumed_u, n_workers=2, pool=True, checkpoint=ck, resume=True
        ) as engine:
            resumed = engine.run_permutations(12, seed=6)
        assert resumed.resumed_from > 0
        assert np.array_equal(resumed.values(), uninterrupted.values())

    @pytest.mark.slow
    def test_kill_minus_nine_of_pooled_driver_then_resume(self, tmp_path):
        """The acceptance scenario: SIGKILL the whole driver mid-run with
        the pool enabled. The checkpoint resumes bit-identically, and the
        segments the dead driver leaked are reclaimed by the reaper."""
        ck = tmp_path / "ck.json"
        script = textwrap.dedent(
            f"""
            import os
            import time
            import numpy as np
            from repro.datasets import make_classification
            from repro.importance import Utility, ValuationEngine
            from repro.learn import LogisticRegression

            X, y = make_classification(n=48, n_features=3, seed=11)
            model = LogisticRegression(max_iter=20)

            class SlowModel(LogisticRegression):
                def fit(self, X, y):
                    time.sleep(0.002)  # slow enough to be killed mid-run
                    return super().fit(X, y)

            utility = Utility(SlowModel(max_iter=20), X[:36], y[:36],
                              X[36:], y[36:])
            print(f"PID={{os.getpid()}}", flush=True)
            engine = ValuationEngine(
                utility, n_workers=2, pool=True, checkpoint={str(ck)!r}
            )
            engine.run_permutations(60, seed=5, check_every=5)
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        pid_line = child.stdout.readline()
        deadline = time.monotonic() + 60.0
        while not ck.exists() and time.monotonic() < deadline:
            if child.poll() is not None:
                break
            time.sleep(0.01)
        assert ck.exists(), "child never wrote a checkpoint"
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        child.stdout.close()
        snapshot = CheckpointStore(ck).load()
        assert 0 < snapshot["completed"] <= 60
        if snapshot["completed"] == 60:  # pragma: no cover - timing
            pytest.skip("child finished before the kill landed")

        # The SIGKILLed driver could not unlink its segments; the reaper
        # (called by every subsequent pool construction) reclaims them.
        child_pid = int(pid_line.strip().split("PID=")[1])
        reap_stale_segments()
        if os.path.isdir("/dev/shm"):
            prefix = f"{SEGMENT_PREFIX}{child_pid}-"
            assert not [
                n for n in os.listdir("/dev/shm") if n.startswith(prefix)
            ]

        uninterrupted = ValuationEngine(small_utility()).run_permutations(
            60, seed=5, check_every=5
        )
        with ValuationEngine(
            small_utility(), n_workers=2, pool=True,
            checkpoint=ck, resume=True,
        ) as engine:
            resumed = engine.run_permutations(60, seed=5, check_every=5)
        assert resumed.resumed_from == snapshot["completed"]
        assert np.array_equal(resumed.values(), uninterrupted.values())


# ---------------------------------------------------------------------- #
# observability                                                          #
# ---------------------------------------------------------------------- #


class _LedgerStub:
    def __init__(self):
        self.events = []

    def record_event(self, kind, **fields):
        self.events.append((kind, fields))


class TestObservability:
    def test_pool_metrics_and_lifecycle_span(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_trace.enable()
        try:
            with ValuationEngine(
                small_utility(), n_workers=2, pool=True
            ) as engine:
                engine.run_permutations(6, seed=3)
                pool = engine._pool
            snapshot = obs_metrics.snapshot()
            spans = [s.name for s in obs_trace.get_recorder().spans]
        finally:
            obs_trace.disable()
            obs_metrics.registry().clear()
            obs_trace.get_recorder().reset()
        assert snapshot["engine.pool.worker_starts"]["value"] >= 2
        assert (
            snapshot["engine.pool.chunks_dispatched"]["value"]
            == pool.chunks_dispatched
        )
        assert snapshot["engine.pool.attach_latency_s"]["count"] >= 2
        assert snapshot["engine.pool.workers_alive"]["value"] == 0  # closed
        assert "engine.pool.lifecycle" in spans

    def test_pool_close_writes_a_ledger_event(self):
        ledger = _LedgerStub()
        pool = WorkerPool(small_utility(), n_workers=2, ledger=ledger)
        pool.close()
        assert len(ledger.events) == 1
        kind, fields = ledger.events[0]
        assert kind == "pool"
        assert fields["config"]["n_workers"] == 2
        assert fields["stats"]["worker_starts"] >= 2
        assert fields["wall_time_s"] > 0

    def test_run_census_reports_pool_stats(self):
        with ValuationEngine(
            small_utility(), n_workers=2, pool=True
        ) as engine:
            run = engine.run_permutations(5, seed=1)
            census = engine.result_from_run(run, 5).census
            stats = engine.stats()
        assert census["pool"]["n_workers"] == 2
        assert stats["pool"]["chunks_dispatched"] >= 1

    def test_lifecycle_span_is_not_an_ambient_parent(self):
        """The lifecycle span closes after the warmup pings: spans opened
        while the pool is alive do not nest under it."""
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        obs_trace.get_recorder().reset()
        obs_trace.enable()
        try:
            with ValuationEngine(
                small_utility(), n_workers=2, pool=True
            ) as engine:
                engine.run_permutations(4, seed=3)
                with obs_trace.span("unrelated"):
                    pass
            spans = obs_trace.get_recorder().spans
        finally:
            obs_trace.disable()
            obs_metrics.registry().clear()
            obs_trace.get_recorder().reset()
        (lifecycle,) = [s for s in spans if s.name == "engine.pool.lifecycle"]
        (run,) = [s for s in spans if s.name == "engine.run_permutations"]
        (unrelated,) = [s for s in spans if s.name == "unrelated"]
        assert lifecycle.finished
        assert run.parent_id is None
        assert unrelated.parent_id is None


# ---------------------------------------------------------------------- #
# call-scoped leases                                                     #
# ---------------------------------------------------------------------- #


class _CrashAlways:
    """Chaos stand-in whose targeted chunks die on *every* attempt."""

    def __init__(self, chunks):
        self.chunks = set(chunks)

    def apply_worker_fault(self, chunk_ord, attempt):
        if chunk_ord in self.chunks:
            os._exit(1)


def _leftovers(before: tuple[set, set] | None) -> tuple:
    """Child processes and own shared-memory segments that were not there
    ``before`` (as returned by ``_leftovers(None)``)."""
    import multiprocessing as mp

    children = {child.pid for child in mp.active_children()}
    segments = set()
    if os.path.isdir("/dev/shm"):
        prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
        segments = {n for n in os.listdir("/dev/shm") if n.startswith(prefix)}
    if before is None:
        return children, segments
    return sorted(children - before[0]), sorted(segments - before[1])


@needs_fork
class TestCallScopedLease:
    """An engine with no pool leases one per call and closes it on the way
    out — also when the call raises."""

    def test_runs_leave_no_workers_or_segments(self):
        subsets = [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]]
        serial = ValuationEngine(small_utility())
        before = _leftovers(None)
        engine = ValuationEngine(small_utility(), n_workers=2)
        run = engine.run_permutations(6, seed=2)
        assert engine.supervision.chunks_completed > 0
        assert engine._pool is None
        assert _leftovers(before) == ([], [])
        values = engine.evaluate_many(subsets)
        assert _leftovers(before) == ([], [])
        assert np.array_equal(
            run.values(), serial.run_permutations(6, seed=2).values()
        )
        assert np.array_equal(values, serial.evaluate_many(subsets))

    def test_chunk_failure_leaves_no_workers_or_segments(self):
        from repro.importance import ChunkFailure

        before = _leftovers(None)
        engine = ValuationEngine(
            small_utility(), n_workers=2, chaos=_CrashAlways([0])
        )
        with pytest.raises(ChunkFailure):
            engine.run_permutations(6, seed=2)
        assert engine.supervision.crashes == 4  # the first try + 3 retries
        assert _leftovers(before) == ([], [])


# ---------------------------------------------------------------------- #
# orphaned workers                                                       #
# ---------------------------------------------------------------------- #


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie awaiting its reaper is
    not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="requires procfs")
def test_workers_exit_after_their_driver_is_sigkilled():
    """A SIGKILLed driver cannot shut its pool down; its idle workers
    notice they were re-parented and exit on their own."""
    script = textwrap.dedent(
        """
        import time
        from repro.datasets import make_classification
        from repro.importance import Utility, WorkerPool
        from repro.learn import LogisticRegression

        X, y = make_classification(n=48, n_features=3, seed=11)
        utility = Utility(
            LogisticRegression(max_iter=20), X[:36], y[:36], X[36:], y[36:]
        )
        pool = WorkerPool(utility, n_workers=2)
        pids = [str(w.proc.pid) for w in pool.dispatcher._workers]
        print(" ".join(pids), flush=True)
        time.sleep(120)
        """
    )
    env = dict(os.environ, PYTHONPATH="src")
    driver = subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        pids = [int(pid) for pid in driver.stdout.readline().split()]
    finally:
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=30)
        driver.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if _running(pid)]
