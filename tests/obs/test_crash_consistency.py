"""Crash-consistency harness, exercised as a (reduced) test sweep.

The full sweep lives in ``tools/crashconsist.py`` and runs in CI's
durability-smoke job. Here we load the harness module directly and run
small sweeps — enough to prove the harness itself works end-to-end (child
processes really crash at the injected fault points, the invariants are
really checked) without the full matrix's wall-clock cost.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
HARNESS = REPO / "tools" / "crashconsist.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("crashconsist", HARNESS)
    module = importlib.util.module_from_spec(spec)
    sys.modules["crashconsist"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("crashconsist", None)


class TestAppendLogSweeps:
    def test_ledger_crash_sweep_holds_invariants(self, harness, tmp_path):
        cases = harness.sweep_append_log(
            "ledger", harness.LEDGER_CHILD, harness._load_ledger, tmp_path,
            n_records=4, ops=[0, 2], kinds=("crash_before_rename",),
        )
        assert len(cases) == 2
        assert all(c["fault_fired"] for c in cases)
        assert all(c["exit_code"] == harness.CRASH_EXIT for c in cases)
        assert all(not c["failures"] for c in cases)
        # Crash at op k: exactly the first k appends were acknowledged
        # and exactly those k records survive.
        for case in cases:
            assert case["n_acked"] == case["op_ordinal"]
            assert case["n_loaded"] == case["op_ordinal"]
            assert case["n_quarantined"] == 0

    def test_journal_short_write_is_quarantined_not_lost(
        self, harness, tmp_path
    ):
        cases = harness.sweep_append_log(
            "journal", harness.JOURNAL_CHILD, harness._load_journal,
            tmp_path, n_records=4, ops=[1], kinds=("short_write",),
        )
        (case,) = cases
        assert case["fault_fired"]
        assert not case["failures"]
        assert case["n_quarantined"] == 1  # the torn record was counted
        assert case["n_loaded"] == 3  # every other acked record survived

    def test_crash_after_rename_keeps_the_acked_record(self, harness, tmp_path):
        cases = harness.sweep_append_log(
            "ledger", harness.LEDGER_CHILD, harness._load_ledger, tmp_path,
            n_records=3, ops=[1], kinds=("crash_after_rename",),
        )
        (case,) = cases
        assert not case["failures"]
        # The fault fires after append #1's fsync, before the writer could
        # ACK it: the loader sees one more record than the child
        # acknowledged. Durability errs in the right direction.
        assert case["n_loaded"] == case["n_acked"] + 1 == 2


    def test_torn_append_is_quarantined_and_never_acked(
        self, harness, tmp_path
    ):
        cases = harness.sweep_append_log(
            "ledger", harness.LEDGER_CHILD, harness._load_ledger, tmp_path,
            n_records=4, ops=[2], kinds=("torn_append",),
        )
        (case,) = cases
        assert case["fault_fired"]
        assert case["exit_code"] == harness.CRASH_EXIT
        assert not case["failures"]
        # The writer died mid-line at op 2: two records acked and loaded,
        # the torn third quarantined.
        assert case["n_acked"] == case["n_loaded"] == 2
        assert case["n_quarantined"] == 1


class TestCheckpointSweep:
    def test_resume_is_bit_identical_across_fault_points(
        self, harness, tmp_path
    ):
        cases = harness.sweep_checkpoint(
            tmp_path, ops=[0], kinds=("crash_before_rename", "short_write"),
        )
        # ops=[0] plus the always-included final primary write.
        assert len(cases) == 4
        assert all(not c["failures"] for c in cases)
        by_key = {(c["fault_kind"], c["op_ordinal"]): c for c in cases}
        final = harness.CK_FINAL_PRIMARY_OP
        # Killed before the very first snapshot published: full re-run.
        assert by_key[("crash_before_rename", 0)]["resumed_from"] == 0
        # Killed before the final snapshot: resume from the prior wave.
        assert by_key[("crash_before_rename", final)]["resumed_from"] == (
            harness.CK_PERMUTATIONS - harness.CK_CHECK_EVERY
        )
        # Final snapshot torn on disk: recovery fell back to the other slot.
        assert by_key[("short_write", final)]["fallback"]


class TestAuditOutput:
    def test_main_writes_audit_and_sample_sidecar(self, harness, tmp_path):
        out = tmp_path / "results" / "audit.json"
        rc = harness.main(
            ["--out", str(out), "--scenarios", "ledger", "--max-ops", "1"]
        )
        assert rc == 0
        audit = json.loads(out.read_text())
        assert audit["harness"] == "crashconsist"
        assert audit["n_failures"] == 0
        assert audit["n_cases"] == 4  # 4 fault kinds x 1 op
        assert len(audit["invariants"]) == 4
        sample = out.with_name("sample.jsonl.corrupt")
        assert sample.exists()
        # The sample sidecar is itself a valid framed artifact.
        from repro.obs.atomicio import read_jsonl

        payloads, report = read_jsonl(sample, quarantine=False)
        assert report.clean
        assert payloads and payloads[0]["kind"] == "quarantined_record"
