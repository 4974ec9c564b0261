"""Write-ahead job journal: durability, replay folding, recovery set."""

from __future__ import annotations

import json

from repro.service import JobJournal, JobRequest


def submit(journal: JobJournal, job_id: str, **kwargs) -> JobRequest:
    request = JobRequest(kind="v", **kwargs)
    journal.record("submitted", job_id, {"request": request.to_dict()})
    return request


class TestRecordAndReplay:
    def test_events_in_append_order(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        submit(journal, "a")
        journal.record("queued", "a")
        journal.record("started", "a", {"attempt": 0})
        assert [e["event"] for e in journal.events()] == [
            "submitted", "queued", "started",
        ]
        assert len(journal) == 3

    def test_replay_folds_to_latest_state(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        request = submit(journal, "a", params={"n": 3}, tenant="t")
        journal.record("queued", "a")
        journal.record("started", "a", {"attempt": 0})
        journal.record("progress", "a", {"completed": 4, "target": 10})
        journal.record("retrying", "a", {"attempt": 0})
        journal.record("started", "a", {"attempt": 1})
        entry = journal.replay()["a"]
        assert entry.request == request
        assert entry.state == "running"
        assert entry.attempts == 2
        assert not entry.terminal and entry.recoverable

    def test_terminal_events_close_the_entry(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        for job_id, terminal in [
            ("a", "completed"), ("b", "degraded"),
            ("c", "failed"), ("d", "rejected"),
        ]:
            submit(journal, job_id)
            journal.record(terminal, job_id, {"latency_s": 0.1})
        entries = journal.replay()
        assert all(entry.terminal for entry in entries.values())
        assert journal.in_flight() == []
        assert entries["a"].result_summary == {"latency_s": 0.1}

    def test_in_flight_returns_only_recoverable_jobs(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        submit(journal, "done")
        journal.record("completed", "done")
        submit(journal, "queued-at-crash")
        journal.record("queued", "queued-at-crash")
        submit(journal, "running-at-crash")
        journal.record("started", "running-at-crash", {"attempt": 0})
        # A stray event without its submission record (truncated journal):
        journal.record("queued", "orphan")
        in_flight = [entry.job_id for entry in journal.in_flight()]
        assert in_flight == ["queued-at-crash", "running-at-crash"]

    def test_malformed_and_foreign_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = JobJournal(path)
        submit(journal, "a")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": \n')
            handle.write("not json at all\n")
            handle.write('{"event": "", "job_id": "x"}\n')  # empty event
        journal.record("completed", "a")
        assert [e["event"] for e in journal.events()] == ["submitted", "completed"]
        assert journal.replay()["a"].terminal

    def test_records_are_framed_schema_versioned_sorted_json(self, tmp_path):
        from repro.obs.atomicio import ENVELOPE_SCHEMA_VERSION, unframe

        path = tmp_path / "j.jsonl"
        JobJournal(path).record("submitted", "a", {"z": 1, "a": 2})
        envelope = json.loads(path.read_text().strip())
        assert envelope["_env"] == ENVELOPE_SCHEMA_VERSION
        record, reason = unframe(envelope)
        assert reason is None
        assert record["schema_version"] == 1
        assert list(record) == sorted(record)
        assert record["payload"] == {"z": 1, "a": 2}


class TestCompaction:
    def _lifecycle(self, journal, job_id, terminal="completed"):
        submit(journal, job_id)
        journal.record("queued", job_id)
        journal.record("started", job_id, {"attempt": 0})
        journal.record("progress", job_id, {"completed": 5})
        journal.record(terminal, job_id, {"n_evals": 5})

    def test_terminal_jobs_collapse_to_one_record(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        self._lifecycle(journal, "done-1")
        self._lifecycle(journal, "done-2", terminal="failed")
        stats = journal.compact()
        assert stats["events_before"] == 10
        assert stats["events_after"] == 2
        assert stats["jobs_terminal"] == 2 and stats["jobs_active"] == 0
        assert stats["bytes_after"] < stats["bytes_before"]
        replayed = journal.replay()
        assert replayed["done-1"].state == "completed"
        assert replayed["done-2"].state == "failed"
        summary = journal.events()[0]
        assert summary["payload"]["compacted_events"] == 5
        assert summary["payload"]["n_evals"] == 5  # result summary kept

    def test_non_terminal_chains_survive_verbatim(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        self._lifecycle(journal, "done")
        submit(journal, "crashed")
        journal.record("started", "crashed", {"attempt": 0})
        journal.record("progress", "crashed", {"completed": 3})
        before = [e.job_id for e in journal.in_flight()]
        journal.compact()
        after_events = journal.events()
        crashed = [e for e in after_events if e["job_id"] == "crashed"]
        assert [e["event"] for e in crashed] == [
            "submitted", "started", "progress",
        ]
        assert [e.job_id for e in journal.in_flight()] == before
        entry = journal.replay()["crashed"]
        assert entry.recoverable

    def test_maybe_compact_triggers_on_event_count(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        for i in range(12):
            self._lifecycle(journal, f"job-{i}")
        assert journal.maybe_compact(max_events=10, max_bytes=1 << 30)
        assert len(journal.events()) == 12  # one summary per terminal job
        # under both bounds now: no further compaction
        assert journal.maybe_compact(max_events=50, max_bytes=1 << 30) is None

    def test_maybe_compact_triggers_on_bytes(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        self._lifecycle(journal, "a")
        assert journal.maybe_compact(max_events=1 << 30, max_bytes=64)
        assert journal.maybe_compact(max_events=1 << 30, max_bytes=1 << 30) is None

    def test_compact_missing_file_is_noop(self, tmp_path):
        stats = JobJournal(tmp_path / "absent.jsonl").compact()
        assert stats["events_before"] == 0 and stats["events_after"] == 0

    def test_compacted_journal_stays_framed_and_valid(self, tmp_path):
        from repro.obs.atomicio import read_jsonl

        journal = JobJournal(tmp_path / "j.jsonl")
        self._lifecycle(journal, "a")
        journal.compact()
        _, report = read_jsonl(journal.path, artifact="journal")
        assert report.clean and report.n_loaded == 1

    def test_compact_over_a_torn_tail_does_not_deadlock(self, tmp_path):
        """compact() loads while it holds the journal's lock; the loader's
        re-check of an unterminated tail re-enters that lock, and the torn
        record is quarantined, not carried into the compacted log."""
        import threading

        journal = JobJournal(tmp_path / "j.jsonl")
        self._lifecycle(journal, "a")
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"_env":2,"crc":"00')  # a writer died mid-line
        stats = {}
        worker = threading.Thread(
            target=lambda: stats.update(journal.compact()), daemon=True
        )
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive(), "compact() deadlocked on its own lock"
        assert stats["events_before"] == 5 and stats["events_after"] == 1
        assert journal.replay()["a"].state == "completed"
        assert journal.last_load_report.clean

    def test_audit_records_keep_only_newest(self, tmp_path):
        journal = JobJournal(tmp_path / "j.jsonl")
        journal.record("recovery_audit", "-", {"recovered_jobs": 0, "gen": 1})
        self._lifecycle(journal, "a")
        journal.record("recovery_audit", "-", {"recovered_jobs": 2, "gen": 2})
        journal.compact()
        audits = [e for e in journal.events() if e["event"] == "recovery_audit"]
        assert len(audits) == 1 and audits[0]["payload"]["gen"] == 2
