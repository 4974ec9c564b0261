"""Tests for the chaos fault-injection harness."""

import numpy as np
import pytest

from repro.errors import ChaosError, ChaosMonkey
from repro.frame import DataFrame
from repro.learn import ColumnTransformer, StandardScaler
from repro.pipeline import PipelinePlan, execute, execute_robust


def build_pipeline(n: int = 80):
    frame = DataFrame(
        {
            "value": np.linspace(0.0, 1.0, n),
            "group": ["a" if i % 3 else "b" for i in range(n)],
            "label": ["pos" if i % 2 else "neg" for i in range(n)],
        }
    )
    plan = PipelinePlan()
    sink = (
        plan.source("t")
        .filter(lambda df: df["value"] <= 0.95, "value <= 0.95")
        .with_column("feat", lambda df: df["value"] * 2.0, "feat")
        .encode(
            ColumnTransformer([(StandardScaler(), ["feat"])]), label_column="label"
        )
    )
    return frame, sink


class TestChaosConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosMonkey(error_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosMonkey(error_rate=0.6, nan_rate=0.6)

    def test_decisions_are_deterministic_and_order_independent(self):
        a = ChaosMonkey(seed=3, error_rate=0.2)
        b = ChaosMonkey(seed=3, error_rate=0.2)
        ids = list(range(200))
        assert [a.decide(1, i) for i in ids] == [b.decide(1, i) for i in reversed(ids)][::-1]
        # Different seeds disagree somewhere.
        c = ChaosMonkey(seed=4, error_rate=0.2)
        assert [a.decide(1, i) for i in ids] != [c.decide(1, i) for i in ids]

    def test_rates_approximately_respected(self):
        monkey = ChaosMonkey(seed=0, error_rate=0.1)
        decisions = [monkey.decide(0, rid) for rid in range(2000)]
        fraction = sum(d == "error" for d in decisions) / len(decisions)
        assert 0.07 < fraction < 0.13

    def test_wrap_leaves_original_plan_untouched(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=1, error_rate=0.5)
        wrapped = monkey.wrap(sink)
        assert wrapped is not sink and wrapped.plan is not sink.plan
        # The original executes cleanly after wrapping.
        result = execute(sink, {"t": frame}, fit=True)
        assert result.n_rows > 0


class TestChaosExecution:
    def test_fail_fast_dies_robust_survives_with_ground_truth(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=7, error_rate=0.08)
        wrapped = monkey.wrap(sink)
        with pytest.raises(ChaosError):
            execute(wrapped, {"t": frame}, fit=True)

        monkey.reset()
        result = execute_robust(wrapped, {"t": frame})
        faulted = monkey.triggered_row_ids(["error"])
        assert len(faulted) >= 1
        # Every quarantined row is attributed to exactly the injected faults.
        assert set(result.quarantine.row_ids("t").tolist()) == faulted
        # Survivors are the clean run minus the faulted rows.
        clean = execute(sink, {"t": frame}, fit=True)
        clean_ids = set(clean.provenance.source_row_ids("t").tolist())
        survivor_ids = set(result.provenance.source_row_ids("t").tolist())
        assert survivor_ids == clean_ids - faulted

    def test_same_seed_reproduces_same_run(self):
        results = []
        for __ in range(2):
            frame, sink = build_pipeline()
            monkey = ChaosMonkey(seed=11, error_rate=0.1, type_rate=0.05)
            outcome = execute_robust(monkey.wrap(sink), {"t": frame})
            results.append(
                (
                    sorted(outcome.quarantine.row_ids("t").tolist()),
                    outcome.X.copy(),
                )
            )
        assert results[0][0] == results[1][0]
        assert np.array_equal(results[0][1], results[1][1])

    def test_nan_corruption_caught_at_encode_boundary(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=5, nan_rate=0.1, target_kinds=("map",))
        result = execute_robust(monkey.wrap(sink), {"t": frame})
        corrupted = monkey.triggered_row_ids(["nan"])
        assert len(corrupted) >= 1
        assert set(result.quarantine.row_ids("t").tolist()) == corrupted
        assert {r.reason for r in result.quarantine} == {"nonfinite"}
        assert np.isfinite(result.X).all()

    def test_type_corruption_caught_by_cell_guard(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=6, type_rate=0.1, target_kinds=("map",))
        result = execute_robust(monkey.wrap(sink), {"t": frame})
        corrupted = monkey.triggered_row_ids(["type"])
        assert len(corrupted) >= 1
        assert set(result.quarantine.row_ids("t").tolist()) == corrupted
        assert {r.reason for r in result.quarantine} == {"corrupt_type"}

    def test_transient_faults_survive_with_retry(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=9, transient_rate=0.1, target_kinds=("map",))
        result = execute_robust(
            monkey.wrap(sink), {"t": frame}, max_retries=2, backoff=0.001
        )
        assert len(monkey.triggered_row_ids(["transient"])) >= 1
        # Retried rows are NOT lost: the run matches the clean one.
        clean = execute(sink, {"t": frame}, fit=True)
        assert len(result.quarantine) == 0
        assert result.n_rows == clean.n_rows
        assert np.allclose(result.X, clean.X)

    def test_latency_faults_quarantined_by_timeout_guard(self):
        frame, sink = build_pipeline(40)
        monkey = ChaosMonkey(
            seed=12, latency_rate=0.08, latency=0.15, target_kinds=("map",)
        )
        result = execute_robust(monkey.wrap(sink), {"t": frame}, timeout=0.05)
        slow = monkey.triggered_row_ids(["latency"])
        assert len(slow) >= 1
        assert set(result.quarantine.row_ids("t").tolist()) == slow
        assert {r.reason for r in result.quarantine} == {"timeout"}

    def test_quarantine_feeds_error_report(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=7, error_rate=0.08)
        result = execute_robust(monkey.wrap(sink), {"t": frame})
        report = result.quarantine.to_error_report("t")
        assert report.kind == "quarantined"
        assert set(report.row_ids.tolist()) == monkey.triggered_row_ids(["error"])
        mask = report.affected_mask(frame.row_ids)
        assert int(mask.sum()) == len(report.row_ids)


class TestWorkerFaults:
    """Seeded worker-level faults for the valuation engine's supervision."""

    def test_worker_rate_validation(self):
        with pytest.raises(ValueError):
            ChaosMonkey(worker_crash_rate=-0.1)
        with pytest.raises(ValueError):
            ChaosMonkey(worker_crash_rate=0.7, worker_hang_rate=0.7)
        with pytest.raises(ValueError, match="both crash and hang"):
            ChaosMonkey(worker_crash_chunks=[1, 2], worker_hang_chunks=[2, 3])

    def test_explicit_chunks_fire_deterministically(self):
        monkey = ChaosMonkey(worker_crash_chunks=[0, 5], worker_hang_chunks=[2])
        assert monkey.worker_fault(0, 0) == "worker_crash"
        assert monkey.worker_fault(2, 0) == "worker_hang"
        assert monkey.worker_fault(1, 0) is None
        assert monkey.worker_fault(5, 0) == "worker_crash"

    def test_faults_fire_only_on_first_attempt(self):
        monkey = ChaosMonkey(worker_crash_chunks=[4], worker_crash_rate=0.0)
        assert monkey.worker_fault(4, 0) == "worker_crash"
        assert monkey.worker_fault(4, 1) is None  # the retry must succeed
        rated = ChaosMonkey(seed=1, worker_crash_rate=1.0)
        assert rated.worker_fault(7, 0) == "worker_crash"
        assert rated.worker_fault(7, 3) is None

    def test_seeded_decisions_are_deterministic(self):
        a = ChaosMonkey(seed=9, worker_crash_rate=0.3, worker_hang_rate=0.2)
        b = ChaosMonkey(seed=9, worker_crash_rate=0.3, worker_hang_rate=0.2)
        decisions = [a.worker_fault(i, 0) for i in range(50)]
        assert decisions == [b.worker_fault(i, 0) for i in range(50)]
        assert "worker_crash" in decisions and "worker_hang" in decisions
        different = ChaosMonkey(seed=10, worker_crash_rate=0.3, worker_hang_rate=0.2)
        assert decisions != [different.worker_fault(i, 0) for i in range(50)]

    def test_worker_rates_do_not_perturb_operator_decisions(self):
        plain = ChaosMonkey(seed=3, error_rate=0.2)
        with_worker = ChaosMonkey(seed=3, error_rate=0.2, worker_crash_rate=0.5)
        rows = list(range(100))
        assert [plain.decide(0, r) for r in rows] == [
            with_worker.decide(0, r) for r in rows
        ]

    def test_planned_worker_faults_matches_decisions(self):
        monkey = ChaosMonkey(seed=2, worker_crash_rate=0.25, worker_hang_rate=0.25)
        planned = monkey.planned_worker_faults(40)
        for kind, chunks in planned.items():
            for chunk in chunks:
                assert monkey.worker_fault(chunk, 0) == kind
        covered = {c for chunks in planned.values() for c in chunks}
        for chunk in set(range(40)) - covered:
            assert monkey.worker_fault(chunk, 0) is None

    def test_record_worker_fault_lands_in_ground_truth(self):
        monkey = ChaosMonkey(worker_crash_chunks=[3])
        monkey.record_worker_fault("worker_crash", 3)
        (fault,) = monkey.triggered
        assert fault.node_kind == "worker"
        assert fault.kind == "worker_crash"
        assert fault.row_id == 3  # row_id carries the chunk ordinal
        monkey.reset()
        assert monkey.triggered == []


class TestJobFaults:
    def test_job_faults_fire_first_attempt_only(self):
        monkey = ChaosMonkey(seed=1, job_crash_jobs=[4])
        assert monkey.job_fault(4, attempt=0) == "job_crash"
        assert monkey.job_fault(4, attempt=1) is None
        assert monkey.job_fault(3, attempt=0) is None

    def test_job_fault_decisions_are_deterministic(self):
        decisions = [ChaosMonkey(seed=9, job_crash_rate=0.3).job_fault(i, 0) for i in range(60)]
        again = [ChaosMonkey(seed=9, job_crash_rate=0.3).job_fault(i, 0) for i in range(60)]
        assert decisions == again
        assert "job_crash" in decisions  # 30% over 60 jobs fires somewhere

    def test_job_rates_do_not_perturb_operator_or_worker_decisions(self):
        plain = ChaosMonkey(seed=3, error_rate=0.2, worker_crash_rate=0.2)
        with_jobs = ChaosMonkey(
            seed=3, error_rate=0.2, worker_crash_rate=0.2, job_crash_rate=0.5
        )
        rows = list(range(80))
        assert [plain.decide(0, r) for r in rows] == [
            with_jobs.decide(0, r) for r in rows
        ]
        assert [plain.worker_fault(i, 0) for i in rows] == [
            with_jobs.worker_fault(i, 0) for i in rows
        ]

    def test_apply_job_fault_raises_and_records(self):
        monkey = ChaosMonkey(job_crash_jobs=[0])
        with pytest.raises(ChaosError, match="job #0"):
            monkey.apply_job_fault(0, attempt=0)
        (fault,) = monkey.triggered
        assert (fault.node_kind, fault.kind, fault.row_id) == ("job", "job_crash", 0)
        monkey.apply_job_fault(0, attempt=1)  # retry passes clean

    def test_slow_tenant_delays_every_attempt(self):
        import time as _time

        monkey = ChaosMonkey(slow_tenants=["noisy"], tenant_delay_s=0.02)
        start = _time.perf_counter()
        monkey.apply_job_fault(0, attempt=0, tenant="noisy")
        monkey.apply_job_fault(0, attempt=1, tenant="noisy")
        assert _time.perf_counter() - start >= 0.04
        assert [f.kind for f in monkey.triggered] == ["slow_tenant"] * 2
        before = len(monkey.triggered)
        monkey.apply_job_fault(1, attempt=0, tenant="quiet")
        assert len(monkey.triggered) == before  # other tenants untouched

    def test_planned_job_faults_matches_decisions(self):
        monkey = ChaosMonkey(seed=2, job_crash_rate=0.25)
        planned = monkey.planned_job_faults(40)
        for kind, jobs in planned.items():
            for job_ord in jobs:
                assert monkey.job_fault(job_ord, 0) == kind

    def test_job_crash_rate_validation(self):
        with pytest.raises(ValueError, match="job_crash_rate"):
            ChaosMonkey(job_crash_rate=1.5)


class TestDiskChaos:
    """Storage-fault injection through the atomic write protocol's hooks."""

    def _append(self, path, i):
        from repro.obs.atomicio import atomic_append_line, frame_line

        atomic_append_line(path, frame_line({"i": i}))

    def test_config_validation(self):
        from repro.errors import DiskChaos

        with pytest.raises(ValueError, match="sum to"):
            DiskChaos(short_write_rate=0.8, enospc_rate=0.4)
        with pytest.raises(ValueError, match="crash_mode"):
            DiskChaos(crash_mode="explode")
        with pytest.raises(ValueError, match="unknown disk fault"):
            DiskChaos(fault_at={0: "meteor_strike"})

    def test_short_write_leaves_quarantinable_torn_tail(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        chaos = DiskChaos(fault_at={0: "short_write"})
        with io_hooks(chaos):
            self._append(path, 1)
        payloads, report = read_jsonl(path, artifact="t")
        assert [p["i"] for p in payloads] == [0]  # prior record intact
        assert report.n_quarantined == 1  # the torn line is accounted for
        assert [f.kind for f in chaos.triggered] == ["short_write"]

    def test_enospc_aborts_write_and_preserves_target(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        with io_hooks(DiskChaos(fault_at={0: "enospc"})):
            with pytest.raises(OSError):
                self._append(path, 1)
        payloads, report = read_jsonl(path)
        assert [p["i"] for p in payloads] == [0] and report.clean

    def test_crash_before_rename_loses_nothing_acked(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import SimulatedCrash, io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        with io_hooks(DiskChaos(fault_at={0: "crash_before_rename"})):
            with pytest.raises(SimulatedCrash):
                self._append(path, 1)
        payloads, report = read_jsonl(path)
        assert [p["i"] for p in payloads] == [0] and report.clean

    def test_crash_after_rename_keeps_whole_new_line(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import SimulatedCrash, io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        with io_hooks(DiskChaos(fault_at={0: "crash_after_rename"})):
            with pytest.raises(SimulatedCrash):
                self._append(path, 1)
        payloads, report = read_jsonl(path)
        assert [p["i"] for p in payloads] == [0, 1] and report.clean

    def test_torn_append_dies_unacked_and_is_quarantined_once(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import SimulatedCrash, io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        chaos = DiskChaos(fault_at={0: "torn_append"})
        with io_hooks(chaos):
            with pytest.raises(SimulatedCrash):
                self._append(path, 1)
        payloads, report = read_jsonl(path, artifact="t")
        assert [p["i"] for p in payloads] == [0]
        assert report.n_quarantined == 1  # the prefix on disk is torn
        self._append(path, 2)  # the next writer terminates the torn tail
        payloads, report = read_jsonl(path, artifact="t")
        assert [p["i"] for p in payloads] == [0, 2]
        assert report.n_quarantined == 1 and report.n_quarantined_new == 0
        assert [f.kind for f in chaos.triggered] == ["torn_append"]

    def test_eio_fsync_raises_and_target_is_preserved(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        with io_hooks(DiskChaos(fault_at={0: "eio_fsync"})):
            with pytest.raises(OSError):
                self._append(path, 1)
        payloads, _ = read_jsonl(path)
        assert [p["i"] for p in payloads] == [0]

    def test_lying_fsync_continues_and_is_recorded(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        chaos = DiskChaos(fault_at={0: "lying_fsync"})
        with io_hooks(chaos):
            self._append(path, 0)
        payloads, report = read_jsonl(path)
        assert [p["i"] for p in payloads] == [0] and report.clean
        assert [f.kind for f in chaos.triggered] == ["lying_fsync"]

    def test_decisions_are_seeded_and_match_planned(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks

        a = DiskChaos(seed=7, short_write_rate=0.3, lying_fsync_rate=0.2)
        b = DiskChaos(seed=7, short_write_rate=0.3, lying_fsync_rate=0.2)
        assert a.planned_disk_faults(64) == b.planned_disk_faults(64)
        planned = a.planned_disk_faults(16)
        with io_hooks(a):
            for i in range(16):
                self._append(tmp_path / "r.jsonl", i)
        fired = {}
        for fault in a.triggered:
            fired.setdefault(fault.kind, []).append(fault.op_index)
        assert fired == planned

    def test_sidecars_are_never_faulted(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks, read_jsonl

        path = tmp_path / "a.jsonl"
        self._append(path, 0)
        path.write_text(path.read_text() + "garbage-tail\n")
        # every op faults — yet quarantining (sidecar writes) must proceed
        chaos = DiskChaos(short_write_rate=1.0, only=None)
        with io_hooks(chaos):
            payloads, report = read_jsonl(path, artifact="t")
        assert report.n_quarantined == 1
        assert (tmp_path / "a.jsonl.corrupt").exists()
        assert all(f.row_id >= 0 for f in chaos.triggered)

    def test_only_filter_scopes_faults_to_matching_paths(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks, read_jsonl

        chaos = DiskChaos(fault_at={0: "short_write"}, only="target")
        with io_hooks(chaos):
            self._append(tmp_path / "other.jsonl", 0)  # not counted
            self._append(tmp_path / "target.jsonl", 0)  # op 0: faults
        assert read_jsonl(tmp_path / "other.jsonl")[1].clean
        assert read_jsonl(tmp_path / "target.jsonl")[1].n_quarantined == 1

    def test_reset_clears_counters_and_triggers(self, tmp_path):
        from repro.errors import DiskChaos
        from repro.obs.atomicio import io_hooks

        chaos = DiskChaos(fault_at={0: "lying_fsync"})
        with io_hooks(chaos):
            self._append(tmp_path / "a.jsonl", 0)
        assert chaos.n_ops == 1 and chaos.triggered
        chaos.reset()
        assert chaos.n_ops == 0 and not chaos.triggered
