"""What `JobRuntime` writes to its journal for one job.

A job appends three records: submitted, started and its terminal state.
Per-wave progress reaches subscribers but not the journal, and the
terminal record holds the summary the job has once it is terminal.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.importance import SubsetUtility, ValuationEngine
from repro.obs import RunLedger
from repro.service import JobJournal, JobRequest, JobRuntime, register_valuation


def tanh_game(n: int = 8, seed: int = 3) -> SubsetUtility:
    w = np.random.default_rng(seed).normal(size=n)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    return SubsetUtility(func, n)


def job_events(journal_path, job_id: str) -> list[str]:
    return [
        e["event"] for e in JobJournal(journal_path).events() if e["job_id"] == job_id
    ]


def test_progress_streams_to_subscribers_but_is_not_journaled(tmp_path):
    journal_path = tmp_path / "j.jsonl"

    async def main():
        runtime = JobRuntime(journal=journal_path, checkpoint_dir=tmp_path / "ck")
        register_valuation(runtime, lambda params: ValuationEngine(tanh_game()))
        async with runtime:
            job = runtime.submit(
                JobRequest(
                    kind="valuation",
                    params={"n_permutations": 3, "seed": 0, "check_every": 1},
                )
            )
            seen = [snapshot["completed"] async for snapshot in job.stream()]
            await job.wait()
        return job, seen

    job, seen = asyncio.run(main())
    assert seen == [1, 2, 3]
    assert job_events(journal_path, job.job_id) == [
        "submitted", "started", "completed",
    ]


def test_terminal_record_matches_the_ledger_summary(tmp_path):
    journal_path = tmp_path / "j.jsonl"
    ledger = RunLedger(tmp_path / "ledger.jsonl")

    async def main():
        runtime = JobRuntime(journal=journal_path, ledger=ledger)
        runtime.register_handler("echo", lambda params, ctx: params["x"])
        async with runtime:
            job = runtime.submit(JobRequest(kind="echo", params={"x": 1}))
            await job.wait()
        return job

    job = asyncio.run(main())
    (record,) = [r for r in ledger.load() if r.kind == "service"]
    assert record.run_id == job.job_id
    summary = JobJournal(journal_path).replay()[job.job_id].result_summary
    assert summary == record.stats == job.summary()
    assert summary["state"] == "completed"
    assert summary["latency_s"] == job.latency_s > 0.0
