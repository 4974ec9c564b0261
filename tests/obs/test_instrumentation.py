"""End-to-end observability: traced pipelines, chaos runs, engine metrics.

These tests exercise the actual instrumentation sites (pipeline executor,
quarantine, valuation engine, cleaning loops) through the ``nde.tracing()``
facade, and pin the guarantees the obs layer advertises: quarantine
counters agree with the quarantine object, the span skeleton is
deterministic for a fixed seed, and nothing is recorded while disabled.
"""

import json

import numpy as np
import pytest

import repro.core as nde
from repro.errors import ChaosMonkey
from repro.frame import DataFrame
from repro.importance import shapley_mc
from repro.importance.engine import ValuationEngine
from repro.importance.utility import SubsetUtility
from repro.learn import ColumnTransformer, StandardScaler
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs import tracing, unframe
from repro.pipeline import PipelinePlan, execute_robust


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


def _skeleton(report):
    """(name, parent position) pairs — id-free, so windows compare equal."""
    position = {s.span_id: i for i, s in enumerate(report.spans)}
    return [(s.name, position.get(s.parent_id)) for s in report.spans]


def _additive_engine(weights, n_workers=1):
    w = np.asarray(weights, dtype=float)
    utility = SubsetUtility(
        lambda idx: float(w[np.asarray(list(idx), dtype=np.int64)].sum())
        if len(list(idx))
        else 0.0,
        len(w),
    )
    return ValuationEngine(utility, n_workers=n_workers)


class TestPipelineTracing:
    def test_execute_robust_yields_per_node_spans(self):
        frame, sink = build_pipeline()
        with tracing() as report:
            result = execute_robust(sink, {"t": frame})
        (root,) = report.roots()
        assert root.name == "pipeline.execute"
        assert root.attrs["robust"] is True
        assert root.attrs["rows_out"] == result.n_rows
        node_spans = report.find("node")
        kinds = [s.name.split(".", 1)[1].split("#")[0] for s in node_spans]
        assert kinds == ["source", "filter", "map", "encode"]
        assert all(s.parent_id == root.span_id for s in node_spans)
        # Row counts flow through the span attributes.
        assert node_spans[0].attrs["rows_out"] == frame.num_rows
        assert node_spans[1].attrs["rows_in"] == frame.num_rows
        assert node_spans[-1].attrs["rows_out"] == result.n_rows

    def test_span_skeleton_is_deterministic(self):
        skeletons = []
        for __ in range(2):
            frame, sink = build_pipeline()
            monkey = ChaosMonkey(seed=7, error_rate=0.08)
            with tracing() as report:
                execute_robust(monkey.wrap(sink), {"t": frame})
            skeletons.append(_skeleton(report))
        assert skeletons[0] == skeletons[1]

    def test_quarantine_counters_match_quarantine_object(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=7, error_rate=0.08)
        with tracing() as report:
            result = execute_robust(monkey.wrap(sink), {"t": frame})
        assert len(result.quarantine) >= 1
        total = report.metrics["pipeline.quarantine.total"]["value"]
        assert total == len(result.quarantine)
        # Per-reason counters partition the total and match the records.
        by_reason: dict[str, int] = {}
        for record in result.quarantine:
            by_reason[record.reason] = by_reason.get(record.reason, 0) + 1
        for reason, count in by_reason.items():
            assert report.metrics[f"pipeline.quarantine.{reason}"]["value"] == count
        # And the ground truth agrees with the error report the Identify
        # tooling consumes.
        error_report = result.quarantine.to_error_report("t")
        assert len(error_report.row_ids) == len(
            set(result.quarantine.row_ids("t").tolist())
        )
        assert (
            report.metrics["pipeline.rows_out"]["value"] == result.n_rows
        )

    def test_quarantined_root_attr_counts_rows(self):
        frame, sink = build_pipeline()
        monkey = ChaosMonkey(seed=7, error_rate=0.08)
        with tracing() as report:
            result = execute_robust(monkey.wrap(sink), {"t": frame})
        (root,) = report.roots()
        assert root.attrs["quarantined"] == len(result.quarantine)


class TestEngineTracing:
    def test_run_permutations_records_waves_and_cache_metrics(self):
        engine = _additive_engine([1.0, 2.0, 3.0, 4.0])
        with tracing() as report:
            engine.run_permutations(6, seed=0)
        (run_span,) = report.find("engine.run_permutations")
        assert run_span.attrs["n_permutations"] == 6
        assert run_span.attrs["n_permutations_run"] == 6
        waves = report.find("engine.wave")
        assert [w.parent_id for w in waves] == [run_span.span_id] * len(waves)
        assert report.metrics["engine.permutations"]["value"] == 6
        # All cache traffic happened inside the run, so the window's deltas
        # equal the engine's lifetime stats.
        stats = engine.cache.stats()
        assert report.metrics["engine.cache.hits"]["value"] == stats["hits"]
        assert report.metrics["engine.cache.misses"]["value"] == stats["misses"]
        assert report.metrics["engine.evaluations"]["value"] == (
            engine.utility.n_evaluations
        )
        assert run_span.attrs["cache_misses"] == stats["misses"]

    def test_shapley_mc_reports_engine_activity(self):
        engine = _additive_engine([1.0, 2.0, 3.0, 4.0])
        with tracing() as report:
            result = shapley_mc(None, n_permutations=6, engine=engine)
        assert report.find("engine.run_permutations")
        assert report.metrics["engine.permutations"]["value"] == 6
        assert result.extras["cache"]["hits"] >= (
            report.metrics["engine.cache.hits"]["value"]
        )

    def test_convergence_run_emits_stderr_trajectory(self):
        engine = _additive_engine(np.linspace(0.0, 1.0, 6))
        with tracing() as report:
            engine.run_permutations(
                40, seed=0, convergence_tolerance=1e-9, check_every=5
            )
        trajectory = report.metrics["engine.wave_max_stderr"]
        # One observation per completed wave, recorded in order.
        waves = [s for s in report.find("engine.wave") if "max_stderr" in s.attrs]
        assert trajectory["count"] == len(waves)
        assert trajectory["recent"] == [w.attrs["max_stderr"] for w in waves]
        (run_span,) = report.find("engine.run_permutations")
        # Additive game: stderr is ~0 after the first check → early stop.
        assert run_span.attrs["stopped_early"] is True
        assert run_span.attrs["n_permutations_run"] < 40

    def test_parallel_run_has_same_span_skeleton_as_serial(self):
        skeletons = []
        reports = []
        for n_workers in (1, 3):
            engine = _additive_engine([1.0, -2.0, 0.5, 3.0, 1.5], n_workers)
            with tracing() as report:
                engine.run_permutations(6, seed=3)
            reports.append(report)
            # Worker spans are backhauled into the parallel trace (grouped
            # under worker[i]); the *driver's* skeleton must still not
            # depend on the worker count, so compare with them filtered.
            driver_spans = [
                s
                for s in report.spans
                if not s.name.startswith(("worker[", "worker."))
            ]
            position = {s.span_id: i for i, s in enumerate(driver_spans)}
            skeletons.append(
                [(s.name, position.get(s.parent_id)) for s in driver_spans]
            )
        assert skeletons[0] == skeletons[1]
        # The serial run has no worker spans; the parallel run's adopted
        # chunk spans are each parented under a worker[i] group, which in
        # turn hangs off a driver span (the wave).
        serial, parallel = reports
        assert not [s for s in serial.spans if s.name.startswith("worker")]
        groups = [s for s in parallel.spans if s.name.startswith("worker[")]
        chunks = [s for s in parallel.spans if s.name == "worker.chunk"]
        assert groups and chunks
        by_id = {s.span_id: s for s in parallel.spans}
        group_ids = {g.span_id for g in groups}
        assert all(c.parent_id in group_ids for c in chunks)
        assert all(
            by_id[g.parent_id].name == "engine.wave" for g in groups
        )

    def test_evaluate_many_span_reports_pending(self):
        engine = _additive_engine([1.0, 2.0, 3.0])
        engine.evaluate([0, 1])  # warm one subset before the window
        with tracing() as report:
            engine.evaluate_many([(0, 1), (0, 2), (0, 1)])
        (span,) = report.find("engine.evaluate_many")
        assert span.attrs["n_subsets"] == 3
        assert report.metrics["engine.cache.hits"]["value"] >= 1


class TestTracingWindow:
    def test_disabled_outside_window_and_no_spans_recorded(self):
        frame, sink = build_pipeline(20)
        execute_robust(sink, {"t": frame})  # outside any window
        assert not obs_trace.enabled()
        assert len(obs_trace.get_recorder()) == 0
        assert obs_metrics.snapshot() == {}

    def test_report_empty_until_exit_then_closed(self):
        with tracing() as report:
            assert report.closed is False
            assert report.spans == []
            with obs_trace.span("window.work"):
                pass
        assert report.closed is True
        assert report.span_names() == ["window.work"]
        assert not obs_trace.enabled()

    def test_windows_nest_and_only_outer_disables(self):
        with tracing() as outer:
            with obs_trace.span("before"):
                pass
            with tracing() as inner:
                with obs_trace.span("inside"):
                    pass
            assert obs_trace.enabled()  # inner exit must not switch off
            with obs_trace.span("after"):
                pass
        assert not obs_trace.enabled()
        assert inner.span_names() == ["inside"]
        assert outer.span_names() == ["before", "inside", "after"]

    def test_metrics_are_window_deltas(self):
        obs_trace.enable()
        obs_metrics.counter("test.pre").inc(10)
        with tracing() as report:
            obs_metrics.counter("test.pre").inc(2)
            obs_metrics.counter("test.fresh").inc(1)
        obs_trace.disable()
        assert report.metrics["test.pre"]["value"] == 2.0
        assert report.metrics["test.fresh"]["value"] == 1.0

    def test_root_option_wraps_window_in_one_tree(self):
        with tracing(root="session") as report:
            with obs_trace.span("a"):
                pass
            with obs_trace.span("b"):
                pass
        (root,) = report.roots()
        assert root.name == "session"
        assert [s.name for s in report.children(root)] == ["a", "b"]
        assert root.finished

    def test_report_render_and_jsonl_export(self, tmp_path):
        frame, sink = build_pipeline(20)
        with tracing() as report:
            execute_robust(sink, {"t": frame})
        text = report.render()
        assert "pipeline.execute" in text
        assert "node.encode" in text
        assert "pipeline.runs" in text
        path = tmp_path / "trace.jsonl"
        count = report.save_jsonl(path)
        lines = [
            unframe(json.loads(line))[0] for line in path.read_text().splitlines()
        ]
        # header + spans + trailing metrics line
        assert len(lines) == count + 2
        assert lines[0]["kind"] == "trace_report"
        assert lines[1]["name"] == "pipeline.execute"
        assert lines[-1]["metrics"]["pipeline.runs"]["value"] == 1
        loaded = type(report).from_jsonl(path)
        assert loaded.span_names() == report.span_names()
        assert loaded.metrics.keys() == report.metrics.keys()

    def test_from_jsonl_ignores_unknown_fields_and_kinds(self, tmp_path):
        """Forward compat: a file written by a *newer* schema still loads."""
        from repro.obs import TraceReport

        path = tmp_path / "future.jsonl"
        lines = [
            # future header with extra fields
            {"schema_version": 99, "kind": "trace_report", "host": "somewhere"},
            # span with unknown extra keys
            {
                "span_id": 0, "parent_id": None, "name": "root", "start": 0.0,
                "duration": 0.5, "attrs": {"n": 1}, "future_field": [1, 2],
            },
            # span missing optional keys entirely
            {"span_id": 1, "name": "leaf", "duration": 0.1},
            # an unknown record kind
            {"kind": "annotations", "payload": {"x": 1}},
            # a non-dict line
            [1, 2, 3],
            # trailing metrics with extras
            {"metrics": {"pipeline.runs": {"type": "counter", "value": 2}},
             "extra": True},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line) + "\n")
        report = TraceReport.from_jsonl(path)
        assert report.closed
        assert report.span_names() == ["root", "leaf"]
        assert report.spans[0].attrs == {"n": 1}
        assert report.spans[1].parent_id is None  # defaulted
        assert report.metrics["pipeline.runs"]["value"] == 2

    def test_summary_self_time_never_exceeds_total(self):
        frame, sink = build_pipeline(20)
        with tracing() as report:
            execute_robust(sink, {"t": frame})
        for row in report.summary():
            assert 0.0 <= row["self_s"] <= row["total_s"] + 1e-9
            assert row["mean_s"] * row["calls"] == pytest.approx(row["total_s"])


class TestFacadeExports:
    def test_nde_exposes_tracing_and_report(self):
        assert nde.tracing is tracing
        with nde.tracing() as report:
            pass
        assert isinstance(report, nde.TraceReport)
