"""Run ledger persistence and cross-run regression diffing.

The end-to-end class pins the PR's acceptance contract: two executions of
the same seeded pipeline produce ledger records whose diff carries zero
drift alerts, and injecting 20% missing values into one column on the
second run raises at least one per-node drift alert naming that column.
"""

import json

import numpy as np
import pytest

import repro.core as nde
from repro.errors import inject_missing
from repro.frame import DataFrame
from repro.importance.engine import ValuationEngine
from repro.importance.utility import SubsetUtility
from repro.learn import ColumnTransformer, StandardScaler
from repro.obs import tracing
from repro.obs.diff import (
    DriftThresholds,
    compare_runs,
    cramers_v,
    population_stability_index,
)
from repro.obs.ledger import LEDGER_SCHEMA_VERSION, RunLedger, RunRecord
from repro.pipeline import PipelinePlan, execute_robust


def build_pipeline(n: int = 120):
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


def record_monitored_run(ledger, frame, sink, run_id):
    monitor = nde.monitor()
    result = execute_robust(sink, {"t": frame}, monitor=monitor)
    return ledger.record_run(
        result,
        monitor=monitor,
        sources={"t": frame},
        config={"seed": 0},
        run_id=run_id,
    )


class TestLedger:
    def test_record_run_roundtrips_through_disk(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(40)
        record = record_monitored_run(ledger, frame, sink, "run-a")
        assert len(ledger) == 1
        loaded = ledger.get("run-a")
        assert loaded.kind == "pipeline"
        assert loaded.schema_version == LEDGER_SCHEMA_VERSION
        assert loaded.created_at > 0
        assert loaded.rows_out == record.rows_out
        assert loaded.dataset["t"]["n_rows"] == frame.num_rows
        profiles = loaded.node_profiles()
        assert sorted(p.node_kind for p in profiles.values()) == [
            "encode", "filter", "map", "source",
        ]

    def test_record_run_captures_trace_report(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(30)
        with tracing() as report:
            result = execute_robust(sink, {"t": frame}, monitor=True)
        ledger.record_run(result, report=report, run_id="traced")
        loaded = ledger.get("traced")
        assert "pipeline.execute" in loaded.trace["span_names"]
        assert loaded.wall_time_s == pytest.approx(report.total_duration())
        assert loaded.metrics["pipeline.runs"]["value"] == 1

    def test_load_skips_torn_and_unknown_lines(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(path)
        ledger.record_event("cleaning", stats={"n_cleaned": 5}, run_id="ok")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "torn", "kind": "pipe')  # torn write
            handle.write("\n\n")
            handle.write(json.dumps({"run_id": "future", "new_field": 1}) + "\n")
        records = ledger.load()
        assert [r.run_id for r in records] == ["ok", "future"]
        assert ledger.last(1)[0].run_id == "future"

    def test_get_unknown_run_raises(self, tmp_path):
        with pytest.raises(KeyError):
            RunLedger(tmp_path / "runs.jsonl").get("nope")

    def test_default_run_ids_never_read_the_ledger(self, tmp_path, monkeypatch):
        ledger = RunLedger(tmp_path / "runs.jsonl")

        def refuse(self):
            raise AssertionError("an append read the ledger")

        monkeypatch.setattr(RunLedger, "load", refuse)
        records = [
            ledger.record_event("valuation"),
            ledger.record_event("valuation"),
            ledger.record_run(config={"seed": 0}),
        ]
        monkeypatch.undo()
        ids = [record.run_id for record in records]
        assert len(set(ids)) == 3
        assert [record.run_id for record in ledger.load()] == ids


class TestLedgerHooks:
    def test_valuation_engine_records_event(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        weights = np.asarray([1.0, 2.0, 3.0])
        utility = SubsetUtility(
            lambda idx: float(weights[np.asarray(list(idx), dtype=np.int64)].sum())
            if len(list(idx))
            else 0.0,
            len(weights),
        )
        engine = ValuationEngine(utility, ledger=ledger)
        engine.run_permutations(n_permutations=8, seed=3)
        (record,) = ledger.load()
        assert record.kind == "valuation"
        assert record.config["n_permutations"] == 8
        assert record.stats["n_permutations_run"] == 8
        assert record.stats["evaluations"] > 0
        assert record.wall_time_s > 0

    def test_engine_without_ledger_writes_nothing(self, tmp_path):
        utility = SubsetUtility(lambda idx: float(len(list(idx))), 3)
        ValuationEngine(utility).run_permutations(n_permutations=4)
        assert not (tmp_path / "runs.jsonl").exists()


class TestDiffPrimitives:
    def test_psi_zero_for_identical_histograms(self):
        hist = {"edges": [0.0, 1.0, 2.0], "counts": [50, 50]}
        assert population_stability_index(hist, hist) == pytest.approx(0.0, abs=1e-9)

    def test_psi_detects_mass_shift_across_different_edges(self):
        # Same underlying range, different frozen edges: rebinning must not
        # invent drift — and a genuine shift must register.
        a = {"edges": [0.0, 0.5, 1.0], "counts": [50, 50]}
        a_other_edges = {"edges": [0.0, 0.25, 0.5, 0.75, 1.0], "counts": [25, 25, 25, 25]}
        assert population_stability_index(a, a_other_edges) == pytest.approx(
            0.0, abs=1e-6
        )
        shifted = {"edges": [0.0, 0.5, 1.0], "counts": [95, 5]}
        assert population_stability_index(a, shifted) > 0.2

    def test_psi_none_when_either_side_empty(self):
        hist = {"edges": [0.0, 1.0], "counts": [10]}
        assert population_stability_index(None, hist) is None
        assert population_stability_index(hist, {"edges": [0.0, 1.0], "counts": [0]}) is None

    def test_cramers_v_zero_for_same_mix_one_for_disjoint(self):
        same = cramers_v([["a", 50], ["b", 50]], 0, [["a", 25], ["b", 25]], 0)
        assert same == pytest.approx(0.0, abs=1e-9)
        disjoint = cramers_v([["a", 50]], 0, [["b", 50]], 0)
        assert disjoint == pytest.approx(1.0)


class TestEndToEndDrift:
    """The PR's pinned acceptance scenario."""

    def test_same_seeded_pipeline_twice_diffs_to_zero_alerts(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(120)
        record_monitored_run(ledger, frame, sink, "baseline")
        record_monitored_run(ledger, frame, sink, "candidate")
        run_a, run_b = ledger.last(2)
        diff = nde.compare_runs(run_a, run_b)
        assert not diff.has_drift
        assert diff.alerts == []
        assert all(node.score == pytest.approx(0.0) for node in diff.nodes.values())
        assert "no drift alerts" in diff.render()

    def test_injected_missingness_raises_alert_naming_the_column(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(120)
        record_monitored_run(ledger, frame, sink, "baseline")
        dirty, report = inject_missing(frame, "value", fraction=0.2, seed=1)
        assert report.column == "value"
        record_monitored_run(ledger, dirty, sink, "dirty")
        diff = nde.compare_runs(*ledger.last(2))
        assert diff.has_drift
        value_alerts = diff.alerts_for("value")
        assert value_alerts, f"expected an alert naming 'value', got {diff.alerts}"
        completeness = [a for a in value_alerts if a.kind == "completeness"]
        assert completeness
        assert completeness[0].severity == "critical"  # 0.2 drop >= 2 * 0.05
        assert "value" in completeness[0].message
        # The rendered diff surfaces the alert for humans too.
        assert "completeness" in diff.render()

    def test_drift_merges_into_error_report(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(100)
        record_monitored_run(ledger, frame, sink, "a")
        dirty, __ = inject_missing(frame, "value", fraction=0.3, seed=2)
        record_monitored_run(ledger, dirty, sink, "b")
        diff = nde.compare_runs(*ledger.last(2))
        report = diff.to_error_report()
        assert report.kind == "drift"
        assert report.column == "value"
        assert report.params["run_a"] == "a"
        assert report.params["n_alerts"] == len(diff.alerts)

    def test_row_count_regression_alerts(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(120)
        record_monitored_run(ledger, frame, sink, "full")
        half = frame.take(np.arange(60))
        record_monitored_run(ledger, half, sink, "half")
        diff = nde.compare_runs(*ledger.last(2))
        assert any(a.kind == "row_count" for a in diff.alerts)

    def test_thresholds_are_tunable(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(100)
        record_monitored_run(ledger, frame, sink, "a")
        dirty, __ = inject_missing(frame, "value", fraction=0.02, seed=3)
        record_monitored_run(ledger, dirty, sink, "b")
        run_a, run_b = ledger.last(2)
        lax = nde.compare_runs(run_a, run_b)  # 2% < default 5% threshold
        assert not [a for a in lax.alerts if a.kind == "completeness"]
        strict = compare_runs(
            run_a, run_b, thresholds=DriftThresholds(completeness_drop=0.01)
        )
        assert [a for a in strict.alerts if a.kind == "completeness"]

    def test_compare_runs_accepts_raw_ledger_dicts(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs.jsonl")
        frame, sink = build_pipeline(60)
        record_monitored_run(ledger, frame, sink, "a")
        record_monitored_run(ledger, frame, sink, "b")
        from repro.obs.atomicio import unframe

        with open(ledger.path, "r", encoding="utf-8") as handle:
            raw = [unframe(json.loads(line))[0] for line in handle]
        diff = compare_runs(raw[0], raw[1])
        assert diff.run_a == "a" and diff.run_b == "b"
        assert not diff.has_drift


class TestFacade:
    def test_nde_exports_monitoring_surface(self):
        assert nde.RunLedger is RunLedger
        assert nde.compare_runs is compare_runs
        assert isinstance(nde.monitor(), nde.PipelineMonitor)
        assert isinstance(RunRecord(run_id="x"), nde.RunRecord)
