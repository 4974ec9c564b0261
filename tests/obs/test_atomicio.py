"""Atomic artifact writes: no torn lines, no corrupt files after a crash."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import RunLedger, atomic_append_line, atomic_write_text, atomic_writer


class TestAtomicWriter:
    def test_replaces_target_on_clean_exit(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_writer(path) as handle:
            handle.write("new contents")
        assert path.read_text() == "new contents"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_crashed_write_is_invisible(self, tmp_path):
        """A writer that dies mid-write leaves the previous contents intact
        and no staging litter behind — the simulated partial write is
        unobservable after (the absence of) the rename."""
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_writer(path) as handle:
                handle.write("half of the new cont")  # partial write...
                raise RuntimeError("boom")  # ...then the crash
        assert path.read_text() == "previous"
        assert os.listdir(tmp_path) == ["out.txt"]  # no .tmp orphans

    def test_crashed_first_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "never.txt"
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not path.exists()
        assert os.listdir(tmp_path) == []


class TestAtomicAppendLine:
    def test_appends_complete_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        atomic_append_line(path, '{"a": 1}')
        atomic_append_line(path, '{"b": 2}\n')  # trailing newline tolerated
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_quarantines_torn_tail_from_foreign_writer(self, tmp_path):
        """A non-atomic writer killed mid-line leaves a torn suffix; the
        next atomic append isolates it on its own line so a lenient
        line-skipping loader loses exactly one record, not the file."""
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2')  # torn: no trailing newline
        atomic_append_line(path, '{"c": 3}')
        lines = path.read_text().splitlines()
        assert lines == ['{"a": 1}', '{"b": 2', '{"c": 3}']
        parsed = []
        for line in lines:  # the lenient-loader idiom
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        assert parsed == [{"a": 1}, {"c": 3}]


class TestLedgerUsesAtomicAppend:
    def test_ledger_survives_torn_tail(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.record_event("valuation", config={"seed": 1}, stats={"n": 2})
        # Simulate a foreign writer crashing mid-append.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"torn": ')
        ledger.record_event("valuation", config={"seed": 2}, stats={"n": 3})
        records = RunLedger(path).load()
        assert len(records) == 2
        assert [r.config["seed"] for r in records] == [1, 2]


class TestAdvisoryLock:
    def test_lock_serializes_and_cleans_up(self, tmp_path):
        from repro.obs import advisory_lock

        path = tmp_path / "log.jsonl"
        with advisory_lock(path) as held:
            assert held  # fcntl available on this platform
            assert (tmp_path / "log.jsonl.lock").exists()
        # Sidecar stays (cheap, reusable); the target is untouched.
        assert not path.exists()

    def test_unlocked_append_can_lose_lines_locked_never(self, tmp_path):
        """Two processes hammering one file: the in-place append holds the
        advisory lock around its tail probe and write, so every line
        survives, whole and in order. This is the regression guard for
        RunLedger/JobJournal multi-process safety."""
        import subprocess
        import sys

        path = tmp_path / "log.jsonl"
        n_lines = 150
        script = (
            "import sys\n"
            "from repro.obs import atomic_append_line\n"
            "who, path = sys.argv[1], sys.argv[2]\n"
            f"for i in range({n_lines}):\n"
            "    atomic_append_line(path, f'{who}:{i}')\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, who, str(path)], env=env
            )
            for who in ("a", "b")
        ]
        for worker in workers:
            assert worker.wait(timeout=120) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * n_lines  # nothing lost, nothing torn
        for who in ("a", "b"):
            seen = [line for line in lines if line.startswith(f"{who}:")]
            assert seen == [f"{who}:{i}" for i in range(n_lines)]  # in order

    def test_threads_appending_in_place_lose_nothing(self, tmp_path):
        """More writer threads than cores share one log, as a service's job
        threads share its journal: the per-thread lock keeps every line
        whole and each thread's lines in order."""
        import sys
        import threading

        path = tmp_path / "log.jsonl"
        n_threads, n_lines = 6, 40

        def write(who):
            for i in range(n_lines):
                atomic_append_line(path, f"{who}:{i}:" + "x" * 200)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=write, args=(f"t{k}",), daemon=True)
                for k in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = path.read_text().splitlines()
        assert len(lines) == n_threads * n_lines
        for k in range(n_threads):
            mine = [line for line in lines if line.startswith(f"t{k}:")]
            assert mine == [f"t{k}:{i}:" + "x" * 200 for i in range(n_lines)]

    def test_two_process_ledger_appends_all_survive(self, tmp_path):
        """Satellite regression: two RunLedger writers in separate processes
        interleave without losing records."""
        import subprocess
        import sys

        path = tmp_path / "ledger.jsonl"
        script = (
            "import sys\n"
            "from repro.obs import RunLedger\n"
            "who, path = sys.argv[1], sys.argv[2]\n"
            "ledger = RunLedger(path)\n"
            "for i in range(40):\n"
            "    ledger.record_event('valuation', config={'who': who, 'i': i})\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, who, str(path)], env=env
            )
            for who in ("a", "b")
        ]
        for worker in workers:
            assert worker.wait(timeout=120) == 0
        records = RunLedger(path).load()
        assert len(records) == 80
        for who in ("a", "b"):
            mine = [r.config["i"] for r in records if r.config["who"] == who]
            assert mine == list(range(40))


_PAGED_WRITER = """
import os
import sys
import time

from repro.obs.atomicio import atomic_append_line, frame_line

real_write = os.write


def paged_write(fd, data):
    # Stop every write at the next 4 KiB page boundary and pause there (a
    # short write), so a line that straddles two pages stays half written
    # long enough for a polling reader to see it.
    room = 4096 - os.fstat(fd).st_size % 4096
    n = real_write(fd, data[:room])
    if n < len(data):
        time.sleep(0.002)
    return n


os.write = paged_write
for i in range(int(sys.argv[2])):
    atomic_append_line(sys.argv[1], frame_line({"i": i, "pad": "x" * 3000}))
"""


class TestLoaderAndLiveAppends:
    def test_polls_never_flag_or_load_a_live_append(self, tmp_path):
        """~3 KiB records straddle 4 KiB pages while the test polls: a
        half-written line is an append in flight, so the loader waits for
        it under the writer's lock instead of quarantining it."""
        import subprocess
        import sys

        from repro.obs.atomicio import quarantine_path_for, read_jsonl

        path = tmp_path / "log.jsonl"
        n_records = 80
        env = dict(os.environ, PYTHONPATH="src")
        writer = subprocess.Popen(
            [sys.executable, "-c", _PAGED_WRITER, str(path), str(n_records)],
            env=env,
        )
        half_written_seen = loaded = 0
        while writer.poll() is None:
            raw = path.read_bytes() if path.exists() else b""
            half_written_seen += bool(raw) and not raw.endswith(b"\n")
            payloads, report = read_jsonl(path, artifact="live")
            assert report.n_quarantined == 0
            assert [p["i"] for p in payloads] == list(range(len(payloads)))
            assert all(len(p["pad"]) == 3000 for p in payloads)
            assert len(payloads) >= loaded
            loaded = len(payloads)
        assert writer.wait(timeout=120) == 0
        assert half_written_seen > 0  # the polls really raced the writer
        payloads, report = read_jsonl(path, artifact="live")
        assert len(payloads) == n_records and report.clean
        assert not quarantine_path_for(path).exists()

    def test_dead_writers_tail_is_quarantined_once(self, tmp_path):
        """An unterminated last line nobody is writing is torn: quarantined
        on the next load, and not re-alerted once a later append puts a
        newline after it (same raw CRC, same line number)."""
        from repro.obs.atomicio import (
            frame_line,
            quarantine_path_for,
            read_jsonl,
        )

        path = tmp_path / "log.jsonl"
        atomic_append_line(path, frame_line({"i": 0}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(frame_line({"i": 1})[:-9])  # the writer dies here
        payloads, first = read_jsonl(path, artifact="t")
        assert [p["i"] for p in payloads] == [0]
        assert first.n_quarantined == first.n_quarantined_new == 1
        assert len(first.alerts) == 1
        atomic_append_line(path, frame_line({"i": 2}))
        payloads, second = read_jsonl(path, artifact="t")
        assert [p["i"] for p in payloads] == [0, 2]
        assert second.n_quarantined == 1
        assert second.n_quarantined_new == 0 and second.alerts == []
        sidecar = quarantine_path_for(path).read_text().splitlines()
        assert len(sidecar) == 1


class TestEnvelopeFraming:
    def test_frame_is_one_json_object_per_line(self):
        from repro.obs.atomicio import ENVELOPE_SCHEMA_VERSION, frame_line

        line = frame_line({"b": 2, "a": [1.5, None, "x"]})
        assert "\n" not in line
        envelope = json.loads(line)
        assert envelope["_env"] == ENVELOPE_SCHEMA_VERSION
        assert set(envelope) == {"_env", "crc", "data"}
        assert envelope["data"] == {"b": 2, "a": [1.5, None, "x"]}

    def test_unframe_round_trips(self):
        from repro.obs.atomicio import frame_line, unframe

        payload = {"x": 1e-17, "y": "ünïcode", "z": [True, False]}
        out, reason = unframe(json.loads(frame_line(payload)))
        assert reason is None and out == payload

    def test_crc_survives_parse_reserialize_round_trip(self):
        from repro.obs.atomicio import canonical_json, crc32_hex, frame_line

        payload = {"f": 0.1 + 0.2, "tiny": 5e-324, "big": 1.7976931348623157e308}
        envelope = json.loads(frame_line(payload))
        # the reader's recomputation path, explicitly
        assert crc32_hex(canonical_json(envelope["data"])) == envelope["crc"]

    def test_v1_unframed_records_pass_through(self):
        from repro.obs.atomicio import unframe

        legacy = {"run_id": "r1", "kind": "pipeline"}
        assert unframe(legacy) == (legacy, None)
        assert unframe([1, 2]) == ([1, 2], None)
        assert unframe("scalar") == ("scalar", None)

    def test_tampered_payload_fails_crc(self):
        from repro.obs.atomicio import frame_line, unframe

        envelope = json.loads(frame_line({"amount": 100}))
        envelope["data"]["amount"] = 999
        _, reason = unframe(envelope)
        assert reason == "crc_mismatch"

    def test_malformed_envelope_is_flagged(self):
        from repro.obs.atomicio import unframe

        assert unframe({"_env": 2, "data": {"x": 1}})[1] == "envelope_malformed"
        assert unframe({"_env": 2, "crc": "00000000"})[1] == "envelope_malformed"


class TestReadJsonl:
    def _write(self, path, lines):
        path.write_text("".join(line + "\n" for line in lines))

    def test_missing_file_is_clean_empty(self, tmp_path):
        from repro.obs.atomicio import read_jsonl

        payloads, report = read_jsonl(tmp_path / "absent.jsonl")
        assert payloads == [] and report.clean and report.n_loaded == 0

    def test_mixed_v1_v2_file_loads_fully(self, tmp_path):
        from repro.obs.atomicio import frame_line, read_jsonl

        path = tmp_path / "mixed.jsonl"
        self._write(path, ['{"i": 0}', frame_line({"i": 1}), '{"i": 2}'])
        payloads, report = read_jsonl(path)
        assert [p["i"] for p in payloads] == [0, 1, 2]
        assert report.clean and report.n_loaded == 3

    def test_corruption_quarantines_and_loads_rest(self, tmp_path):
        from repro.obs.atomicio import frame_line, read_jsonl

        path = tmp_path / "rotten.jsonl"
        good = frame_line({"i": 0})
        torn = frame_line({"i": 1})[:-9]
        flipped = frame_line({"i": 2}).replace('"i":2', '"i":3')
        self._write(path, [good, torn, flipped, "", "plain garbage"])
        payloads, report = read_jsonl(path, artifact="test")
        assert [p["i"] for p in payloads] == [0]
        assert report.n_quarantined == 3
        assert report.reasons == {
            "not_json": 2, "crc_mismatch": 1,
        }
        sidecar = tmp_path / "rotten.jsonl.corrupt"
        assert report.quarantine_path == str(sidecar)
        assert sidecar.exists()

    def test_sidecar_is_itself_a_valid_framed_artifact(self, tmp_path):
        from repro.obs.atomicio import frame_line, read_jsonl

        path = tmp_path / "a.jsonl"
        self._write(path, [frame_line({"i": 0}), "junk"])
        read_jsonl(path, artifact="test")
        records, report = read_jsonl(
            path.with_name("a.jsonl.corrupt"), artifact="quarantine"
        )
        assert report.clean
        (record,) = records
        assert record["kind"] == "quarantined_record"
        assert record["artifact"] == "test"
        assert record["raw"] == "junk"
        assert record["reason"] == "not_json"
        assert record["line_no"] == 1

    def test_repeated_loads_do_not_requarantine(self, tmp_path):
        from repro.obs import metrics as obs_metrics
        from repro.obs.atomicio import frame_line, read_jsonl

        path = tmp_path / "a.jsonl"
        self._write(path, [frame_line({"i": 0}), "junk"])
        _, first = read_jsonl(path, artifact="test")
        assert first.n_quarantined_new == 1
        _, second = read_jsonl(path, artifact="test")
        assert second.n_quarantined == 1  # still accounted...
        assert second.n_quarantined_new == 0  # ...but not re-quarantined
        sidecar_lines = (
            (tmp_path / "a.jsonl.corrupt").read_text().strip().splitlines()
        )
        assert len(sidecar_lines) == 1
        name = "storage.records_quarantined{artifact=test}"
        assert obs_metrics.snapshot()[name]["value"] == 1.0
        assert len(second.alerts) == 0  # no fresh damage -> no new alert

    def test_alert_severity_tracks_surviving_records(self, tmp_path):
        from repro.obs.atomicio import frame_line, read_jsonl, storage_alerts

        mixed = tmp_path / "mixed.jsonl"
        self._write(mixed, [frame_line({"i": 0}), "junk"])
        _, partial = read_jsonl(mixed, artifact="m")
        assert partial.alerts[0].severity == "warn"
        dead = tmp_path / "dead.jsonl"
        self._write(dead, ["junk1", "junk2"])
        _, total = read_jsonl(dead, artifact="d")
        assert total.alerts[0].severity == "critical"
        ring = storage_alerts()
        assert [a.severity for a in ring] == ["warn", "critical"]
        assert all(a.kind == "storage_corruption" for a in ring)

    def test_quarantine_false_skips_sidecar(self, tmp_path):
        from repro.obs.atomicio import read_jsonl

        path = tmp_path / "a.jsonl"
        self._write(path, ["junk"])
        _, report = read_jsonl(path, quarantine=False)
        assert report.n_quarantined == 1
        assert not (tmp_path / "a.jsonl.corrupt").exists()

    def test_non_object_records_respect_require_objects(self, tmp_path):
        from repro.obs.atomicio import read_jsonl

        path = tmp_path / "a.jsonl"
        self._write(path, ["[1, 2]", "3"])
        payloads, report = read_jsonl(path, require_objects=False)
        assert payloads == [[1, 2], 3] and report.clean
        _, strict = read_jsonl(tmp_path / "a.jsonl", artifact="s")
        assert strict.reasons == {"not_object": 2}

    def test_report_to_dict_is_json_serializable(self, tmp_path):
        from repro.obs.atomicio import read_jsonl

        path = tmp_path / "a.jsonl"
        self._write(path, ["junk"])
        _, report = read_jsonl(path, artifact="t")
        json.dumps(report.to_dict())


class TestIOHookInstallation:
    def test_io_hooks_scope_restores_previous(self):
        from repro.obs.atomicio import IOHooks, install_io_hooks, io_hooks

        outer = IOHooks()
        assert install_io_hooks(outer) is None
        inner = IOHooks()
        with io_hooks(inner) as active:
            assert active is inner
        assert install_io_hooks(None) is outer

    def test_hooks_see_the_commit_sequence(self, tmp_path):
        from repro.obs.atomicio import IOHooks, atomic_write_text, io_hooks

        calls = []

        class Spy(IOHooks):
            def on_commit(self, path, handle):
                calls.append(("commit", path.name))

            def on_fsync(self, path, fileno):
                calls.append(("fsync", path.name))
                return True

            def on_replace(self, tmp, path, when):
                calls.append((f"replace_{when}", path.name))

            def on_dirsync(self, dirpath):
                calls.append(("dirsync", dirpath.name))
                return True

        with io_hooks(Spy()):
            atomic_write_text(tmp_path / "x.txt", "data")
        assert [c[0] for c in calls] == [
            "commit", "fsync", "replace_before", "replace_after", "dirsync",
        ]
        assert (tmp_path / "x.txt").read_text() == "data"

    def test_fsync_dir_best_effort_true_on_posix(self, tmp_path):
        from repro.obs.atomicio import fsync_dir

        assert fsync_dir(tmp_path) is True
