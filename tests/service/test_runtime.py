"""JobRuntime behaviour: dedup fan-out, deadlines, retries, breakers, chaos.

Tests drive the runtime through ``asyncio.run`` (no pytest-asyncio
dependency); handlers are cheap synthetic callables except where the real
valuation engine is the point.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.errors.chaos import ChaosError, ChaosMonkey
from repro.importance import SubsetUtility, ValuationEngine
from repro.obs import RunLedger
from repro.service import (
    AdmissionPolicy,
    BreakerPolicy,
    JobJournal,
    JobRejected,
    JobRequest,
    JobRuntime,
    JobState,
    RetryPolicy,
    register_valuation,
)


def tanh_game(n: int = 8, seed: int = 3) -> SubsetUtility:
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    return SubsetUtility(func, n)


def run(coro):
    return asyncio.run(coro)


class TestBasicExecution:
    def test_jobs_complete_and_journal_terminates(self, tmp_path):
        async def main():
            runtime = JobRuntime(journal=tmp_path / "j.jsonl", max_concurrency=2)
            runtime.register_handler("echo", lambda p, ctx: p["x"])
            async with runtime:
                jobs = [
                    runtime.submit(
                        JobRequest(kind="echo", params={"x": i}, dedup=False)
                    )
                    for i in range(5)
                ]
                results = [await job.wait() for job in jobs]
            assert results == list(range(5))
            assert all(job.state is JobState.COMPLETED for job in jobs)
            assert JobJournal(tmp_path / "j.jsonl").in_flight() == []

        run(main())

    def test_unknown_kind_is_rejected_with_reason(self):
        async def main():
            runtime = JobRuntime()
            async with runtime:
                with pytest.raises(JobRejected, match="unknown_kind"):
                    runtime.submit(JobRequest(kind="nope"))
            assert runtime.counts["rejected"] == 1

        run(main())

    def test_stats_shape(self):
        async def main():
            runtime = JobRuntime()
            runtime.register_handler("noop", lambda p, ctx: None)
            async with runtime:
                await runtime.submit(JobRequest(kind="noop")).wait()
            return runtime.stats()

        stats = run(main())
        assert stats["completed"] == 1 and stats["queue_depth"] == 0
        assert stats["max_queue_depth_seen"] >= 0


class TestDedup:
    def test_identical_requests_share_one_execution(self):
        executions = []

        async def main():
            runtime = JobRuntime(max_concurrency=1)
            gate = threading.Event()

            def handler(params, ctx):
                executions.append(params)
                gate.wait(timeout=5.0)
                return "shared"

            runtime.register_handler("v", handler)
            async with runtime:
                request = JobRequest(
                    kind="v", params={"n": 3}, dataset_fingerprint="fp"
                )
                first = runtime.submit(request)
                while first.state is not JobState.RUNNING:
                    await asyncio.sleep(0.001)
                # Different tenant, same computation: dedups onto `first`.
                second = runtime.submit(
                    JobRequest(
                        kind="v", params={"n": 3}, dataset_fingerprint="fp",
                        tenant="other",
                    )
                )
                assert second is first and first.subscribers == 2
                gate.set()
                assert await first.wait() == "shared"
            assert runtime.counts["deduplicated"] == 1

        run(main())
        assert len(executions) == 1

    def test_different_fingerprints_do_not_dedup(self):
        async def main():
            runtime = JobRuntime()
            runtime.register_handler("v", lambda p, ctx: None)
            async with runtime:
                a = runtime.submit(
                    JobRequest(kind="v", dataset_fingerprint="one")
                )
                b = runtime.submit(
                    JobRequest(kind="v", dataset_fingerprint="two")
                )
                assert a is not b
                await a.wait(), await b.wait()

        run(main())

    def test_dedup_opt_out(self):
        async def main():
            runtime = JobRuntime(max_concurrency=1)
            runtime.register_handler("v", lambda p, ctx: None)
            async with runtime:
                a = runtime.submit(JobRequest(kind="v", dedup=False))
                b = runtime.submit(JobRequest(kind="v", dedup=False))
                assert a is not b

        run(main())

    def test_subscribers_stream_partial_results(self):
        async def main():
            runtime = JobRuntime(max_concurrency=1)

            def handler(params, ctx):
                for step in range(3):
                    ctx.progress({"completed": step + 1, "target": 3})
                    time.sleep(0.01)
                return "done"

            runtime.register_handler("v", handler)
            async with runtime:
                job = runtime.submit(JobRequest(kind="v"))
                seen = [s["completed"] async for s in job.stream()]
                assert await job.wait() == "done"
            return seen

        seen = run(main())
        assert seen and seen == sorted(seen) and seen[-1] == 3


class TestDeadlines:
    def test_expired_deadline_degrades_valuation_to_partial(self):
        async def main():
            runtime = JobRuntime()
            engine = ValuationEngine(tanh_game())
            register_valuation(runtime, lambda params: engine)
            async with runtime:
                job = runtime.submit(
                    JobRequest(
                        kind="valuation",
                        params={"n_permutations": 4, "seed": 0},
                        deadline_s=0.0,  # already expired at submission
                    )
                )
                result = await job.wait()
            assert job.state is JobState.DEGRADED
            assert job.stop_reason == "deadline"
            assert result.n_evaluations == 0  # returned immediately
            assert np.all(np.isfinite(result.values()))

        run(main())

    def test_remaining_deadline_shrinks_while_queued(self):
        async def main():
            runtime = JobRuntime()
            runtime.register_handler("v", lambda p, ctx: ctx.deadline_s)
            async with runtime:
                job = runtime.submit(JobRequest(kind="v", deadline_s=60.0))
                remaining = await job.wait()
            assert 0.0 < remaining <= 60.0

        run(main())


class TestRetriesAndBreaker:
    def test_retry_budget_then_success(self):
        attempts = []

        async def main():
            runtime = JobRuntime(
                retry=RetryPolicy(backoff_base_s=0.001, max_backoff_s=0.002)
            )

            def flaky(params, ctx):
                attempts.append(ctx.attempt)
                if len(attempts) < 3:
                    raise RuntimeError("transient")
                return "recovered"

            runtime.register_handler("v", flaky)
            async with runtime:
                job = runtime.submit(JobRequest(kind="v", max_retries=3))
                assert await job.wait() == "recovered"
            assert job.attempts == 3
            assert runtime.counts["retries"] == 2

        run(main())
        assert attempts == [0, 1, 2]

    def test_exhausted_retries_fail_terminally(self):
        async def main():
            runtime = JobRuntime(retry=RetryPolicy(backoff_base_s=0.001))

            def always_broken(params, ctx):
                raise ValueError("permanently wrong")

            runtime.register_handler("v", always_broken)
            async with runtime:
                job = runtime.submit(JobRequest(kind="v", max_retries=1))
                with pytest.raises(RuntimeError, match="permanently wrong"):
                    await job.wait()
            assert job.state is JobState.FAILED and job.attempts == 2

        run(main())

    def test_failing_tenant_trips_its_breaker_only(self):
        async def main():
            runtime = JobRuntime(
                breaker_policy=BreakerPolicy(failure_threshold=2, cooldown_s=60.0),
                retry=RetryPolicy(backoff_base_s=0.0),
            )

            def broken(params, ctx):
                raise RuntimeError("boom")

            runtime.register_handler("bad", broken)
            runtime.register_handler("good", lambda p, ctx: "ok")
            async with runtime:
                for __ in range(2):
                    job = runtime.submit(
                        JobRequest(kind="bad", tenant="sick", dedup=False)
                    )
                    with pytest.raises(RuntimeError):
                        await job.wait()
                with pytest.raises(JobRejected, match="circuit_open"):
                    runtime.submit(JobRequest(kind="bad", tenant="sick"))
                healthy = runtime.submit(
                    JobRequest(kind="good", tenant="healthy")
                )
                assert await healthy.wait() == "ok"

        run(main())


class TestBackpressure:
    def test_queue_full_under_storm_and_every_job_terminal(self):
        async def main():
            runtime = JobRuntime(
                policy=AdmissionPolicy(max_queue_depth=3), max_concurrency=1
            )
            gate = threading.Event()
            runtime.register_handler(
                "v", lambda p, ctx: gate.wait(timeout=10.0)
            )
            async with runtime:
                accepted, rejected = [], 0
                first = runtime.submit(JobRequest(kind="v", dedup=False))
                while first.state is not JobState.RUNNING:
                    await asyncio.sleep(0.001)
                accepted.append(first)
                for __ in range(10):
                    try:
                        accepted.append(
                            runtime.submit(JobRequest(kind="v", dedup=False))
                        )
                    except JobRejected as exc:
                        assert exc.reason == "queue_full"
                        rejected += 1
                assert len(runtime.admission.queue) <= 3
                gate.set()
                for job in accepted:
                    await job.wait()
            assert rejected == 7  # 1 running + 3 queued admitted
            assert all(job.done for job in runtime.jobs.values())

        run(main())

    def test_priority_shed_notifies_the_victim(self):
        async def main():
            runtime = JobRuntime(
                policy=AdmissionPolicy(max_queue_depth=1), max_concurrency=1
            )
            gate = threading.Event()
            runtime.register_handler(
                "v", lambda p, ctx: gate.wait(timeout=10.0)
            )
            async with runtime:
                blocker = runtime.submit(JobRequest(kind="v", dedup=False))
                while blocker.state is not JobState.RUNNING:
                    await asyncio.sleep(0.001)
                victim = runtime.submit(
                    JobRequest(kind="v", priority=0, dedup=False)
                )
                vip = runtime.submit(
                    JobRequest(kind="v", priority=5, dedup=False)
                )
                with pytest.raises(JobRejected, match="shed_by_priority"):
                    await victim.wait()
                assert victim.state is JobState.REJECTED
                gate.set()
                await blocker.wait(), await vip.wait()
            assert runtime.counts["shed"] == 1

        run(main())


class TestChaosAndLedger:
    def test_planned_job_crash_is_retried_then_succeeds(self):
        async def main():
            chaos = ChaosMonkey(
                seed=7, job_crash_jobs=[0]
            )  # first job crashes on attempt 0 only
            runtime = JobRuntime(
                chaos=chaos, retry=RetryPolicy(backoff_base_s=0.001)
            )
            runtime.register_handler("v", lambda p, ctx: "survived")
            async with runtime:
                job = runtime.submit(JobRequest(kind="v", max_retries=1))
                assert await job.wait() == "survived"
            assert job.attempts == 2
            assert any(f.kind == "job_crash" for f in chaos.triggered)

        run(main())

    def test_unretried_chaos_crash_fails_terminally(self):
        async def main():
            runtime = JobRuntime(chaos=ChaosMonkey(seed=7, job_crash_jobs=[0]))
            runtime.register_handler("v", lambda p, ctx: "never")
            async with runtime:
                job = runtime.submit(JobRequest(kind="v"))  # max_retries=0
                with pytest.raises(RuntimeError, match="ChaosError"):
                    await job.wait()
            assert job.state is JobState.FAILED

        run(main())

    def test_terminal_jobs_are_ledger_recorded(self, tmp_path):
        async def main():
            ledger = RunLedger(tmp_path / "ledger.jsonl")
            runtime = JobRuntime(ledger=ledger)
            runtime.register_handler("v", lambda p, ctx: "ok")
            async with runtime:
                await runtime.submit(
                    JobRequest(kind="v", tenant="alice")
                ).wait()
            records = [r for r in ledger.load() if r.kind == "service"]
            assert len(records) == 1
            assert records[0].config["tenant"] == "alice"
            assert records[0].stats["state"] == "completed"

        run(main())


class TestCheckpointCleanup:
    def test_degraded_and_failed_jobs_leave_no_checkpoints(self, tmp_path):
        checkpoint_dir = tmp_path / "ck"
        saved: list[str] = []

        def save_then_raise(params, ctx):
            ctx.checkpoint.save({"completed": 1})
            saved.append(ctx.checkpoint.path.name)
            raise RuntimeError("broken after a checkpoint")

        async def main():
            runtime = JobRuntime(checkpoint_dir=checkpoint_dir)
            register_valuation(runtime, lambda params: ValuationEngine(tanh_game()))
            runtime.register_handler("broken", save_then_raise)
            async with runtime:
                degraded = runtime.submit(
                    JobRequest(
                        kind="valuation",
                        params={
                            "n_permutations": 20,
                            "seed": 0,
                            "check_every": 1,
                            "max_evals": 12,
                        },
                    )
                )
                await degraded.wait()
                failed = runtime.submit(JobRequest(kind="broken"))
                with pytest.raises(RuntimeError, match="broken after"):
                    await failed.wait()
            assert degraded.state is JobState.DEGRADED
            assert degraded.stop_reason == "eval_budget"
            assert failed.state is JobState.FAILED

        run(main())
        assert saved  # the failed job did write a snapshot
        assert list(checkpoint_dir.iterdir()) == []
