"""Corruption fuzz: every JSONL loader survives arbitrary on-disk damage.

Two families of fuzz, both seeded and deterministic:

* **Corrupted-line fuzz** — build a valid artifact for each loader (run
  ledger, job journal, trace export, flight dump, saved trace report,
  valuation checkpoint),
  apply random byte-level damage (bit flips, tail truncation, garbage
  splices, deleted ranges), and assert the loader (1) never raises,
  (2) accounts for every surviving record, and (3) quarantines damage to a
  sidecar that is itself a valid framed artifact.

* **Two-process concurrent-writer fuzz** — real subprocess writers
  appending to one shared file, with a reader polling mid-flight: the
  advisory lock around in-place appends, plus the loader's re-check of an
  unterminated tail under that lock, must yield all records from both
  writers, no torn tail ever reported by the reader.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.importance import CheckpointStore
from repro.importance.checkpoint import CheckpointError
from repro.obs import TraceReport, tracing
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.atomicio import quarantine_path_for, read_jsonl
from repro.obs.flight import FlightRecorder, load_dump
from repro.obs.ledger import RunLedger
from repro.obs.trace import read_trace_export
from repro.service import JobJournal

SRC = Path(__file__).resolve().parents[2] / "src"

N_TRIALS = 12


# -- artifact builders (one valid file per loader) ------------------------ #

def _build_ledger(path: Path) -> int:
    ledger = RunLedger(path)
    for i in range(8):
        ledger.record_event("valuation", config={"i": i}, run_id=f"run-{i}")
    return 8


def _build_journal(path: Path) -> int:
    journal = JobJournal(path)
    for i in range(4):
        journal.record("submitted", f"job-{i}", {"request": {"kind": "v"}})
        journal.record("completed", f"job-{i}")
    return 8


def _build_trace(path: Path) -> int:
    obs_trace.get_recorder().reset()  # singleton: drop prior trials' spans
    obs_trace.enable()
    with obs_trace.span("outer"):
        with obs_trace.span("inner", i=1):
            pass
        with obs_trace.span("inner", i=2):
            pass
    obs_trace.get_recorder().export_jsonl(path)
    return path.read_text().count("\n")  # header + spans


def _build_flight(path: Path) -> int:
    rec = FlightRecorder()
    for i in range(6):
        rec.record("event", i=i)
    rec.dump(path, reason="fuzz")
    return 1 + 6  # header + events


def _build_report(path: Path) -> int:
    with tracing() as report:
        with obs_trace.span("outer"):
            with obs_trace.span("inner", i=1):
                pass
        obs_metrics.counter("fuzz.reports").inc()
    report.save_jsonl(path)
    return path.read_text().count("\n")  # header + spans + metrics


def _load_ledger(path: Path):
    ledger = RunLedger(path)
    records = ledger.load()
    return len(records), ledger.last_load_report


def _load_journal(path: Path):
    journal = JobJournal(path)
    events = journal.events()
    journal.replay()
    journal.in_flight()
    return len(events), journal.last_load_report


def _load_trace(path: Path):
    header, spans = read_trace_export(path)
    return (1 if header else 0) + len(spans), None


def _load_flight(path: Path):
    header, events = load_dump(path)
    return (1 if header else 0) + len(events), None


def _load_report(path: Path):
    report = TraceReport.from_jsonl(path)
    # What from_jsonl dropped, it quarantined; re-read the accounting
    # without quarantining again.
    __, load = read_jsonl(path, quarantine=False)
    return len(report.spans) + bool(report.metrics), load


LOADERS = [
    pytest.param(_build_ledger, _load_ledger, id="ledger"),
    pytest.param(_build_journal, _load_journal, id="journal"),
    pytest.param(_build_trace, _load_trace, id="trace"),
    pytest.param(_build_flight, _load_flight, id="flight"),
    pytest.param(_build_report, _load_report, id="report"),
]


# -- damage model --------------------------------------------------------- #

def _mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """One random byte-level corruption; may compose over repeated calls."""
    if not data:
        return data
    op = int(rng.integers(4))
    if op == 0:  # flip bits in one byte
        pos = int(rng.integers(len(data)))
        flipped = data[pos] ^ int(rng.integers(1, 256))
        return data[:pos] + bytes([flipped]) + data[pos + 1:]
    if op == 1:  # truncate the tail (torn final write)
        return data[: int(rng.integers(len(data)))]
    if op == 2:  # splice a garbage line mid-file
        lines = data.split(b"\n")
        at = int(rng.integers(len(lines)))
        garbage = bytes(rng.integers(0, 256, size=int(rng.integers(1, 40))))
        lines.insert(at, garbage.replace(b"\n", b"?"))
        return b"\n".join(lines)
    start = int(rng.integers(len(data)))  # delete a range
    end = min(len(data), start + int(rng.integers(1, 64)))
    return data[:start] + data[end:]


class TestCorruptedLineFuzz:
    @pytest.mark.parametrize("build, load", LOADERS)
    def test_loader_survives_random_damage(self, build, load, tmp_path):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng([11, trial])
            path = tmp_path / f"t{trial}" / "artifact.jsonl"
            path.parent.mkdir()
            n_written = build(path)
            pristine = path.read_bytes()
            n_lines = pristine.count(b"\n")
            assert n_lines == n_written  # builder sanity
            damaged = pristine
            for _ in range(int(rng.integers(1, 4))):
                damaged = _mutate(damaged, rng)
            path.write_bytes(damaged)

            n_loaded, report = load(path)  # invariant 1: never raises

            # Invariant 2: nothing unaccounted for. Damage can only lose
            # records, never invent them, and what the raw reader counts
            # must equal loaded + quarantined.
            assert n_loaded <= n_written
            if report is not None:
                assert report.n_loaded + report.n_quarantined <= max(
                    n_lines, damaged.count(b"\n") + 1
                )
                # Invariant 3: quarantined damage is evidenced in a
                # sidecar that is itself a valid framed artifact.
                if report.n_quarantined:
                    sidecar = quarantine_path_for(path)
                    assert sidecar.exists()
                    payloads, side_report = read_jsonl(
                        sidecar, quarantine=False
                    )
                    assert side_report.clean
                    assert all(
                        p["kind"] == "quarantined_record" for p in payloads
                    )

    @pytest.mark.parametrize("build, load", LOADERS)
    def test_loader_is_idempotent_on_damaged_input(self, build, load, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "artifact.jsonl"
        build(path)
        data = path.read_bytes()
        for _ in range(3):
            data = _mutate(data, rng)
        path.write_bytes(data)
        first, _ = load(path)
        second, _ = load(path)  # re-load: same answer, no re-quarantine
        assert first == second

    def test_checkpoint_survives_random_damage(self, tmp_path):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng([17, trial])
            ck = tmp_path / f"t{trial}" / "ck.json"
            ck.parent.mkdir()
            store = CheckpointStore(ck)
            for wave in range(1, 4):
                store.save({"kind": "permutation", "completed": wave * 5})
            damaged = ck.read_bytes()
            for _ in range(int(rng.integers(1, 4))):
                damaged = _mutate(damaged, rng)
            ck.write_bytes(damaged)
            fresh = CheckpointStore(ck)
            # Slot 1 holds the snapshot before the damaged one, so recovery
            # must always produce a payload — either the damaged slot still
            # parses clean, or the load falls back to slot 1.
            # CheckpointError would be a failure.
            payload = fresh.load()
            assert payload is not None
            assert payload["completed"] in (5, 10, 15)

    def test_checkpoint_with_no_archives_raises_only_checkpoint_error(
        self, tmp_path
    ):
        # A store that saved once holds one snapshot: slot 1 appears only
        # with its second save, so damage to slot 0 has no fallback.
        ck = tmp_path / "ck.json"
        for trial in range(N_TRIALS):
            CheckpointStore(ck).save({"kind": "permutation", "completed": 5})
            assert not ck.with_name("ck.json.prev").exists()
            rng = np.random.default_rng([19, trial])
            data = ck.read_bytes()
            for _ in range(int(rng.integers(1, 4))):
                data = _mutate(data, rng)
            ck.write_bytes(data)
            fresh = CheckpointStore(ck)
            try:
                fresh.load()  # clean parse is fine (mutation may be benign)
            except CheckpointError:
                pass  # the one documented unrecoverable signal


# -- two-process concurrent-writer fuzz ----------------------------------- #

_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.{module} import {cls}
writer = {cls}(sys.argv[1])
start, n = int(sys.argv[2]), int(sys.argv[3])
for i in range(start, start + n):
    {append}
"""

LEDGER_WRITER = _WRITER.format(
    src=str(SRC),
    module="obs.ledger",
    cls="RunLedger",
    append=(
        'writer.record_event("valuation", config={"i": i}, '
        'run_id=f"run-{i}")'
    ),
)

JOURNAL_WRITER = _WRITER.format(
    src=str(SRC),
    module="service",
    cls="JobJournal",
    append='writer.record("submitted", f"job-{i}")',
)


def _spawn(script: str, *args) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script),
         *[str(a) for a in args]],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


class TestConcurrentWriterFuzz:
    N_PER_WRITER = 12

    def _run_pair(self, script, path, loader):
        n = self.N_PER_WRITER
        first = _spawn(script, path, 0, n)
        second = _spawn(script, path, n, n)
        # Reader polls mid-flight: the torn-tail fuzz. A half-written line
        # is an append in flight, and the loader waits for it under the
        # writer's lock, so a concurrent load never reports a torn record.
        while first.poll() is None or second.poll() is None:
            _, report = loader(path)
            if report is not None:
                assert report.n_quarantined == 0
        for proc in (first, second):
            _, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err.decode()

    def test_ledger_concurrent_appends_all_survive(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._run_pair(LEDGER_WRITER, path, _load_ledger)
        ledger = RunLedger(path)
        run_ids = {record.run_id for record in ledger.load()}
        assert run_ids == {f"run-{i}" for i in range(2 * self.N_PER_WRITER)}
        assert ledger.last_load_report.clean
        assert not quarantine_path_for(path).exists()

    def test_journal_concurrent_appends_all_survive(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._run_pair(JOURNAL_WRITER, path, _load_journal)
        journal = JobJournal(path)
        job_ids = {e["job_id"] for e in journal.events()}
        assert job_ids == {f"job-{i}" for i in range(2 * self.N_PER_WRITER)}
        assert journal.last_load_report.clean
