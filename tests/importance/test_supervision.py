"""Worker supervision: crash/hang detection, restarts, and bit-identity.

The contract under test is the tentpole invariant of the fault-tolerant
runtime: whatever crashes, hangs, or is retried during a parallel valuation
run, the returned values are bit-identical to a clean serial run — because
every chunk is a deterministic slice of pre-drawn orderings and results are
merged in chunk order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

import repro.importance.engine as engine_mod
from repro.errors import ChaosMonkey
from repro.importance import SubsetUtility, ValuationEngine, parallel_map
from repro.importance.supervision import (
    ChunkDispatcher,
    ChunkFailure,
    DeadlinePolicy,
    SupervisionStats,
)

needs_fork = pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)


def saturating_game(n: int = 10, seed: int = 3) -> SubsetUtility:
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
# DeadlinePolicy                                                         #
# ---------------------------------------------------------------------- #


class TestDeadlinePolicy:
    def test_hard_timeout_overrides_everything(self):
        policy = DeadlinePolicy(hard_timeout_s=1.5)
        assert policy.deadline() == 1.5
        for latency in (0.001, 0.002, 0.003, 0.004):
            policy.observe(latency)
        assert policy.deadline() == 1.5

    def test_abstains_until_enough_samples(self):
        policy = DeadlinePolicy(min_samples=3)
        assert policy.deadline() is None
        policy.observe(0.1)
        policy.observe(0.1)
        assert policy.deadline() is None
        policy.observe(0.1)
        assert policy.deadline() is not None

    def test_adaptive_deadline_tracks_quantile_with_floor(self):
        policy = DeadlinePolicy(factor=4.0, quantile=1.0, min_samples=3, floor_s=0.25)
        for latency in (1.0, 2.0, 3.0):
            policy.observe(latency)
        assert policy.deadline() == pytest.approx(12.0)
        fast = DeadlinePolicy(factor=4.0, quantile=1.0, min_samples=3, floor_s=0.25)
        for latency in (0.001, 0.001, 0.001):
            fast.observe(latency)
        assert fast.deadline() == 0.25  # floored: micro-chunks don't trip

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(hard_timeout_s=0.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(factor=1.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(quantile=0.0)


# ---------------------------------------------------------------------- #
# ChunkDispatcher                                                        #
# ---------------------------------------------------------------------- #


def _square_task(state, payload):
    return payload * payload


class _CrashAlways:
    """Chaos stand-in whose targeted chunks die on *every* attempt."""

    def __init__(self, chunks):
        self.chunks = set(chunks)

    def apply_worker_fault(self, chunk_ord, attempt):
        if chunk_ord in self.chunks:
            os._exit(1)


@needs_fork
class TestChunkDispatcher:
    def test_results_in_payload_order(self):
        with ChunkDispatcher(engine_mod._FORK_CTX, 3, {}, _square_task) as d:
            assert d.dispatch(list(range(10))) == [i * i for i in range(10)]
            # Fleet survives across dispatch calls; ords keep increasing.
            assert d.dispatch([20, 30]) == [400, 900]
        assert d.stats.chunks_completed == 12
        assert d.stats.crashes == 0

    def test_crash_is_detected_retried_and_recovered(self):
        chaos = ChaosMonkey(worker_crash_chunks=[2])
        stats = SupervisionStats()
        with ChunkDispatcher(
            engine_mod._FORK_CTX,
            2,
            {"chaos": chaos},
            _square_task,
            stats=stats,
        ) as d:
            assert d.dispatch([1, 2, 3, 4]) == [1, 4, 9, 16]
        assert stats.crashes == 1
        assert stats.chunk_retries == 1
        assert stats.worker_restarts == 1

    def test_hang_is_detected_and_chunk_requeued(self):
        chaos = ChaosMonkey(worker_hang_chunks=[1], hang_duration=60.0)
        stats = SupervisionStats()
        with ChunkDispatcher(
            engine_mod._FORK_CTX,
            2,
            {"chaos": chaos},
            _square_task,
            deadline=DeadlinePolicy(hard_timeout_s=0.3),
            stats=stats,
        ) as d:
            assert d.dispatch([5, 6, 7]) == [25, 36, 49]
        assert stats.hangs == 1
        assert stats.worker_restarts == 1

    def test_persistent_crash_exhausts_retry_budget(self):
        with ChunkDispatcher(
            engine_mod._FORK_CTX,
            2,
            {"chaos": _CrashAlways([1])},
            _square_task,
            max_chunk_retries=2,
        ) as d:
            with pytest.raises(ChunkFailure, match="failed 3 times"):
                d.dispatch([1, 2, 3])

    def test_restart_budget_bounds_crash_loops(self):
        with ChunkDispatcher(
            engine_mod._FORK_CTX,
            2,
            {"chaos": _CrashAlways([0, 1, 2, 3])},
            _square_task,
            max_chunk_retries=100,
            max_worker_restarts=3,
        ) as d:
            with pytest.raises(ChunkFailure, match="restart budget"):
                d.dispatch([1, 2, 3, 4])

    def test_dispatch_after_close_raises(self):
        d = ChunkDispatcher(engine_mod._FORK_CTX, 1, {}, _square_task)
        d.close()
        d.close()  # idempotent
        with pytest.raises(RuntimeError):
            d.dispatch([1])


# ---------------------------------------------------------------------- #
# engine integration                                                     #
# ---------------------------------------------------------------------- #


@needs_fork
class TestEngineSupervision:
    def test_injected_crash_and_hang_keep_values_bit_identical(self):
        serial = ValuationEngine(saturating_game()).run_permutations(20, seed=5)
        chaos = ChaosMonkey(
            worker_crash_chunks=[1], worker_hang_chunks=[3], hang_duration=60.0
        )
        engine = ValuationEngine(
            saturating_game(), n_workers=3, chaos=chaos, chunk_timeout_s=1.0
        )
        run = engine.run_permutations(20, seed=5)
        assert np.array_equal(run.values(), serial.values())
        assert engine.worker_restarts == 2
        assert engine.supervision.crashes == 1
        assert engine.supervision.hangs == 1
        # Ground truth: the monkey recorded exactly the chunks it faulted.
        kinds = sorted(f.kind for f in chaos.triggered)
        assert kinds == ["worker_crash", "worker_hang"]
        assert {f.node_kind for f in chaos.triggered} == {"worker"}

    def test_seeded_crash_rate_recovers(self):
        serial = ValuationEngine(saturating_game()).run_permutations(30, seed=7)
        chaos = ChaosMonkey(seed=11, worker_crash_rate=0.4)
        engine = ValuationEngine(saturating_game(), n_workers=2, chaos=chaos)
        run = engine.run_permutations(30, seed=7)
        assert np.array_equal(run.values(), serial.values())
        planned = chaos.planned_worker_faults(engine.supervision.chunks_completed)
        if planned.get("worker_crash"):
            assert engine.supervision.crashes >= 1
            assert engine.worker_restarts >= 1

    def test_sigkill_of_worker_mid_wave_is_recovered(self):
        """An external ``kill -9`` of a worker process mid-run: the
        dispatcher restarts it, re-queues the chunk, and the final values
        are still bit-identical to serial."""
        serial = ValuationEngine(slow_game()).run_permutations(40, seed=9)
        engine = ValuationEngine(slow_game(), n_workers=2)
        before = {child.pid for child in mp.active_children()}
        result: dict = {}

        def run():
            result["run"] = engine.run_permutations(40, seed=9)

        thread = threading.Thread(target=run)
        thread.start()
        victim = None
        deadline = time.monotonic() + 5.0
        while victim is None and time.monotonic() < deadline:
            fresh = [c for c in mp.active_children() if c.pid not in before]
            if fresh:
                victim = fresh[0]
            else:
                time.sleep(0.001)
        assert victim is not None, "engine never spawned a worker"
        os.kill(victim.pid, signal.SIGKILL)
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert np.array_equal(result["run"].values(), serial.values())
        assert engine.worker_restarts >= 1

    def test_supervision_counters_flow_into_obs_metrics(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace

        chaos = ChaosMonkey(worker_crash_chunks=[0])
        engine = ValuationEngine(saturating_game(), n_workers=2, chaos=chaos)
        obs_trace.enable()
        try:
            engine.run_permutations(12, seed=1)
            snapshot = obs_metrics.snapshot()
        finally:
            obs_trace.disable()
            obs_metrics.registry().clear()
            obs_trace.get_recorder().reset()
        assert snapshot["engine.supervision.crash"]["value"] == 1
        assert snapshot["engine.supervision.restart"]["value"] >= 1


# ---------------------------------------------------------------------- #
# non-fork platforms: loud serial fallback                               #
# ---------------------------------------------------------------------- #


class TestNoForkFallback:
    def test_engine_falls_back_to_serial_with_one_warning(self, monkeypatch):
        serial = ValuationEngine(saturating_game()).run_permutations(10, seed=2)
        monkeypatch.setattr(engine_mod, "_FORK_CTX", None)
        monkeypatch.setattr(engine_mod, "_WARNED_NO_FORK", set())
        engine = ValuationEngine(saturating_game(), n_workers=4)
        with pytest.warns(RuntimeWarning, match="fell back to serial"):
            run = engine.run_permutations(10, seed=2)
        assert np.array_equal(run.values(), serial.values())
        # The warning fires once per process, not once per call.
        import warnings as warnings_mod

        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            engine.run_permutations(10, seed=2)

    def test_parallel_map_falls_back_to_serial_with_warning(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_FORK_CTX", None)
        monkeypatch.setattr(engine_mod, "_WARNED_NO_FORK", set())
        with pytest.warns(RuntimeWarning, match="parallel_map fell back"):
            out = parallel_map(lambda x: x + 1, [1, 2, 3], n_workers=4)
        assert out == [2, 3, 4]

    def test_each_degradation_mode_warns_separately(self, monkeypatch):
        # The engine-serial and map-serial degradations are different
        # surprises; each gets its own (single) RuntimeWarning.
        monkeypatch.setattr(engine_mod, "_FORK_CTX", None)
        monkeypatch.setattr(engine_mod, "_WARNED_NO_FORK", set())
        with pytest.warns(RuntimeWarning, match="engine fan-out"):
            ValuationEngine(saturating_game(), n_workers=2).run_permutations(
                4, seed=0
            )
        with pytest.warns(RuntimeWarning, match="parallel_map"):
            parallel_map(lambda x: x, [1, 2], n_workers=2)
        assert engine_mod._WARNED_NO_FORK == {"engine", "map"}

    def test_evaluate_many_serial_fallback_matches(self, monkeypatch):
        subsets = [[0, 1], [2], [], [0, 1], [1, 2, 3]]
        expected = ValuationEngine(saturating_game()).evaluate_many(subsets)
        monkeypatch.setattr(engine_mod, "_FORK_CTX", None)
        monkeypatch.setattr(
            engine_mod, "_WARNED_NO_FORK", {"engine", "map", "pool"}
        )
        got = ValuationEngine(saturating_game(), n_workers=3).evaluate_many(subsets)
        assert np.array_equal(expected, got)
