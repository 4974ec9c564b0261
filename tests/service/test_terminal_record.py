"""One terminal record per job, and one journal load per recovery.

Every terminal state, rejections and sheds included, journals
``job.summary()`` with its final state and latency, and the ledger
``service`` event serialises the same dict. Recovery takes its compaction
trigger from the load it has just made, so it parses the journal once,
or twice when it compacts.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.obs import RunLedger
from repro.service import (
    AdmissionPolicy,
    JobJournal,
    JobRejected,
    JobRequest,
    JobRuntime,
    JobState,
)
from repro.service import journal as journal_mod


def _boom(params, context):
    raise ValueError("handler failed")


def drive_five_jobs(tmp_path) -> tuple[dict, JobRuntime]:
    """A completed, a failed, an unknown-kind, a queue-full and a shed job,
    through one runtime with a journal and a ledger."""
    runtime = JobRuntime(
        journal=tmp_path / "j.jsonl",
        ledger=RunLedger(tmp_path / "ledger.jsonl"),
        policy=AdmissionPolicy(max_queue_depth=1),
        max_concurrency=1,
    )
    gate = threading.Event()
    runtime.register_handler("ok", lambda params, context: 1)
    runtime.register_handler("boom", _boom)
    runtime.register_handler("wait", lambda params, context: gate.wait(10.0))

    def request(kind: str, **fields) -> JobRequest:
        return JobRequest(kind=kind, dedup=False, **fields)

    async def main() -> dict:
        jobs = {}
        async with runtime:
            jobs["completed"] = runtime.submit(request("ok"))
            await jobs["completed"].wait()
            jobs["failed"] = runtime.submit(request("boom", max_retries=0))
            with pytest.raises(RuntimeError):
                await jobs["failed"].wait()
            with pytest.raises(JobRejected, match="unknown_kind"):
                runtime.submit(request("nope"))
            (jobs["unknown_kind"],) = [
                job for job in runtime.jobs.values() if job.request.kind == "nope"
            ]
            blocker = runtime.submit(request("wait"))
            while blocker.state is not JobState.RUNNING:
                await asyncio.sleep(0.001)
            jobs["shed"] = runtime.submit(request("wait", priority=0))
            vip = runtime.submit(request("wait", priority=5))
            with pytest.raises(JobRejected, match="queue_full"):
                runtime.submit(request("wait", priority=0, tenant="late"))
            (jobs["queue_full"],) = [
                job for job in runtime.jobs.values() if job.request.tenant == "late"
            ]
            gate.set()
            await blocker.wait(), await vip.wait()
        return jobs

    return asyncio.run(main()), runtime


def test_every_terminal_state_journals_and_records_the_summary(tmp_path):
    jobs, runtime = drive_five_jobs(tmp_path)
    replayed = JobJournal(tmp_path / "j.jsonl").replay()
    records = {
        record.run_id: record.stats
        for record in RunLedger(tmp_path / "ledger.jsonl").load()
        if record.kind == "service"
    }
    states = {
        "completed": "completed",
        "failed": "failed",
        "unknown_kind": "rejected",
        "queue_full": "rejected",
        "shed": "rejected",
    }
    for name, job in jobs.items():
        summary = replayed[job.job_id].result_summary
        assert summary == records[job.job_id] == job.summary(), name
        assert summary["state"] == states[name], name
        assert summary["latency_s"] == job.latency_s >= 0.0, name
    assert jobs["unknown_kind"].summary()["reject_reason"] == "unknown_kind"
    assert jobs["unknown_kind"].summary()["error"] == "no handler for 'nope'"
    assert jobs["queue_full"].summary()["reject_reason"] == "queue_full"
    assert jobs["shed"].summary()["reject_reason"] == "shed_by_priority"
    assert "evicted by higher-priority job" in jobs["shed"].summary()["error"]
    # Rejections and sheds keep their own counters.
    assert runtime.counts["rejected"] == 2 and runtime.counts["shed"] == 1
    assert runtime.counts["completed"] == 3 and runtime.counts["failed"] == 1


def test_compaction_keeps_each_job_summary(tmp_path):
    jobs, __ = drive_five_jobs(tmp_path)
    journal = JobJournal(tmp_path / "j.jsonl")
    journal.compact()
    replayed = journal.replay()
    for name, job in jobs.items():
        summary = dict(replayed[job.job_id].result_summary)
        assert summary.pop("compacted_events") >= 1, name
        assert summary == job.summary(), name


def _count_loads(monkeypatch) -> list[int]:
    calls: list[int] = []
    read_jsonl = journal_mod.read_jsonl

    def counting(*args, **kwargs):
        calls.append(1)
        return read_jsonl(*args, **kwargs)

    monkeypatch.setattr(journal_mod, "read_jsonl", counting)
    return calls


def _terminal_journal(path, n_jobs: int) -> None:
    journal = JobJournal(path)
    for i in range(n_jobs):
        journal.record("submitted", f"job-{i}", {"request": {"kind": "v"}})
        journal.record("completed", f"job-{i}", {})


def test_recover_loads_twice_when_it_compacts(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    _terminal_journal(path, 300)  # 600 records, over the event trigger
    calls = _count_loads(monkeypatch)
    JobRuntime(journal=path).recover()
    assert len(calls) == 2  # in_flight, then compact under the lock
    monkeypatch.undo()
    (audit,) = [
        e for e in JobJournal(path).events() if e["event"] == "recovery_audit"
    ]
    assert audit["payload"]["compaction"]["events_before"] == 600


def test_recover_loads_once_below_the_trigger(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    _terminal_journal(path, 5)
    calls = _count_loads(monkeypatch)
    JobRuntime(journal=path).recover()
    assert len(calls) == 1
    monkeypatch.undo()
    (audit,) = [
        e for e in JobJournal(path).events() if e["event"] == "recovery_audit"
    ]
    assert "compaction" not in audit["payload"]
