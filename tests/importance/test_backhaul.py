"""Worker telemetry backhaul: merged traces, metric deltas, flight dumps.

The tentpole contract: a parallel valuation under ``tracing()`` yields ONE
merged trace — driver spans plus every worker's spans, chunk spans parented
under per-worker ``worker[i]`` groups — while values stay bit-identical to
serial, whether workers are forked per call or by a warm pool. Crashes
leave a flight dump naming the in-flight chunk and the worker's last
shipped spans; forked processes that record spans with no backhaul say so
instead of dropping them silently.
"""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

import repro.importance.engine as engine_mod
from repro.datasets import make_classification
from repro.errors.chaos import ChaosMonkey
from repro.importance import (
    SubsetUtility,
    Utility,
    ValuationEngine,
    valuation_pool,
)
from repro.learn import LogisticRegression
from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

needs_fork = pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)


@pytest.fixture(autouse=True)
def clean_observability():
    """Observability is process-global; restore every backhaul flag."""

    def scrub():
        obs_trace.disable()
        recorder = obs_trace.get_recorder()
        recorder.reset()
        recorder._forked = False
        recorder._fork_warned = False
        obs_trace._BACKHAUL_ACTIVE = False
        obs_metrics.registry().clear()
        flight = obs_flight.flight_recorder()
        flight.clear()
        flight.dump_dir = None

    scrub()
    yield
    scrub()


def small_utility(seed: int = 11) -> Utility:
    X, y = make_classification(n=48, n_features=3, seed=seed)
    return Utility(
        LogisticRegression(max_iter=20), X[:36], y[:36], X[36:], y[36:]
    )


def tanh_game(n: int = 10, seed: int = 3) -> SubsetUtility:
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n)

    def func(indices):
        idx = np.asarray(indices, dtype=int)
        return float(np.tanh(w[idx].sum())) if len(idx) else 0.0

    return SubsetUtility(func, n)


def span_names(spans):
    return [s.name for s in spans]


def worker_groups(spans):
    return [s for s in spans if s.name.startswith("worker[")]


def chunk_spans(spans):
    return [s for s in spans if s.name == "worker.chunk"]


# ---------------------------------------------------------------------- #
# WorkerTelemetry / merge units (in-process, no fork needed)             #
# ---------------------------------------------------------------------- #


class TestWorkerTelemetryUnit:
    def test_collect_returns_none_when_idle(self):
        capture = obs_trace.WorkerTelemetry()
        assert capture.collect() is None

    def test_collect_ships_finished_spans_and_metric_deltas(self):
        obs_trace.enable()
        obs_metrics.counter("pre.existing").inc(5)
        capture = obs_trace.WorkerTelemetry()
        with obs_trace.span("worker.chunk", chunk=0):
            obs_metrics.counter("worker.evaluations").inc(3)
        delta = capture.collect()
        assert delta["pid"] == os.getpid()
        assert span_names_from_dicts(delta["spans"]) == ["worker.chunk"]
        assert delta["metrics"]["worker.evaluations"]["value"] == 3
        assert "pre.existing" not in delta["metrics"]  # delta, not snapshot
        # drained: a second collect ships nothing
        assert capture.collect() is None

    def test_collect_keeps_unfinished_spans_for_next_drain(self):
        obs_trace.enable()
        capture = obs_trace.WorkerTelemetry()
        outer = obs_trace.span("outer")
        outer.__enter__()
        with obs_trace.span("inner"):
            pass
        delta = capture.collect()
        assert span_names_from_dicts(delta["spans"]) == ["inner"]
        outer.__exit__(None, None, None)
        delta = capture.collect()
        assert span_names_from_dicts(delta["spans"]) == ["outer"]

    def test_merge_adopts_under_worker_group_and_rebases_clock(self):
        obs_trace.enable()
        delta = {
            "pid": 4242,
            "clock": 100.0,
            "spans": [
                {"span_id": 7, "parent_id": None, "name": "worker.chunk",
                 "start": 99.0, "duration": 0.5, "attrs": {"chunk": 1}},
                {"span_id": 8, "parent_id": 7, "name": "utility.eval",
                 "start": 99.1, "duration": 0.2, "attrs": {}},
            ],
            "metrics": {"worker.evaluations": {"type": "counter", "value": 2}},
            "dropped": 0,
        }
        groups: dict = {}
        obs_trace.merge_worker_telemetry(3, delta, groups)
        spans = obs_trace.get_recorder().spans
        group = worker_groups(spans)[0]
        assert group.name == "worker[3]" and group.attrs["pid"] == 4242
        chunk = next(s for s in spans if s.name == "worker.chunk")
        child = next(s for s in spans if s.name == "utility.eval")
        assert chunk.parent_id == group.span_id  # batch root under group
        assert child.parent_id == chunk.span_id  # intra-batch link remapped
        # clock rebased: worker start 99.0 at worker-now 100.0 is ~1s ago
        assert chunk.start < group.start + 10.0
        # group stretched to cover its children
        assert group.duration >= 0.5
        assert obs_metrics.snapshot()["worker.evaluations"]["value"] == 2
        assert obs_metrics.snapshot()["obs.trace.worker_spans"]["value"] == 2

    def test_merge_reuses_group_across_chunks_of_one_wave(self):
        obs_trace.enable()
        groups: dict = {}
        for chunk in range(3):
            obs_trace.merge_worker_telemetry(
                0,
                {"pid": 1, "clock": 0.0, "metrics": {}, "dropped": 0,
                 "spans": [{"span_id": chunk, "parent_id": None,
                            "name": "worker.chunk", "start": float(chunk),
                            "duration": 0.1, "attrs": {}}]},
                groups,
            )
        spans = obs_trace.get_recorder().spans
        assert len(worker_groups(spans)) == 1
        assert len(chunk_spans(spans)) == 3

    def test_merge_metrics_flow_even_with_tracing_disabled(self):
        assert not obs_trace.enabled()
        obs_trace.merge_worker_telemetry(
            0,
            {"pid": 1, "clock": 0.0, "dropped": 2,
             "spans": [{"span_id": 0, "parent_id": None, "name": "x",
                        "start": 0.0, "duration": 0.1, "attrs": {}}],
             "metrics": {"worker.evaluations": {"type": "counter",
                                                "value": 4}}},
        )
        snap = obs_metrics.snapshot()
        assert snap["worker.evaluations"]["value"] == 4
        assert snap["obs.trace.dropped_fork_spans"]["value"] == 2
        assert len(obs_trace.get_recorder()) == 0  # no spans adopted

    def test_merged_spans_land_in_flight_recorder(self):
        obs_trace.enable()
        obs_trace.merge_worker_telemetry(
            1,
            {"pid": 1, "clock": 0.0, "metrics": {}, "dropped": 0,
             "spans": [{"span_id": 0, "parent_id": None,
                        "name": "worker.chunk", "start": 0.0,
                        "duration": 0.1, "attrs": {"chunk": 9}}]},
        )
        events = obs_flight.flight_recorder().snapshot()
        span_events = [e for e in events if e["kind"] == "span"]
        assert span_events and span_events[-1]["origin"] == "worker[1]"
        assert span_events[-1]["attrs"]["chunk"] == 9


def span_names_from_dicts(span_dicts):
    return [s["name"] for s in span_dicts]


# ---------------------------------------------------------------------- #
# fork dispatcher end-to-end                                             #
# ---------------------------------------------------------------------- #


@needs_fork
class TestForkBackhaul:
    def test_single_merged_trace_with_bit_identical_values(self):
        serial = ValuationEngine(tanh_game()).run_permutations(16, seed=5)
        engine = ValuationEngine(tanh_game(), n_workers=2)
        obs_trace.enable()
        run = engine.run_permutations(16, seed=5)
        spans = obs_trace.get_recorder().spans
        obs_trace.disable()

        assert np.array_equal(run.values(), serial.values())
        assert np.array_equal(run.stderr(), serial.stderr())
        groups = worker_groups(spans)
        chunks = chunk_spans(spans)
        assert groups and chunks
        group_ids = {g.span_id for g in groups}
        assert all(c.parent_id in group_ids for c in chunks)
        # groups hang beneath the driver's dispatch span (one trace tree)
        by_id = {s.span_id: s for s in spans}
        for group in groups:
            assert group.parent_id in by_id
        assert obs_metrics.snapshot()["obs.trace.worker_spans"]["value"] >= len(
            chunks
        )

    def test_disabled_tracing_ships_nothing(self):
        engine = ValuationEngine(tanh_game(), n_workers=2)
        engine.run_permutations(8, seed=1)
        assert len(obs_trace.get_recorder()) == 0
        assert "obs.trace.worker_spans" not in obs_metrics.snapshot()


# ---------------------------------------------------------------------- #
# warm pool end-to-end                                                   #
# ---------------------------------------------------------------------- #


class TestPoolBackhaul:
    @pytest.mark.parametrize(
        "transport",
        [
            pytest.param("fork", marks=needs_fork),
        ],
    )
    def test_pooled_run_backhauls_spans_bit_identically(self, transport):
        serial = ValuationEngine(small_utility()).run_permutations(8, seed=5)
        with valuation_pool(n_workers=2):
            engine = ValuationEngine(small_utility(), n_workers=2)
            obs_trace.enable()
            run = engine.run_permutations(8, seed=5)
            spans = obs_trace.get_recorder().spans
            obs_trace.disable()

        assert np.array_equal(run.values(), serial.values())
        assert np.array_equal(run.stderr(), serial.stderr())
        chunks = chunk_spans(spans)
        assert chunks, f"no worker.chunk spans over {transport} transport"
        group_ids = {g.span_id for g in worker_groups(spans)}
        assert all(c.parent_id in group_ids for c in chunks)
        snap = obs_metrics.snapshot()
        assert snap["obs.trace.worker_spans"]["value"] >= len(chunks)
        # worker-side counters rode the same delta home
        assert "worker.evaluations" in snap


# ---------------------------------------------------------------------- #
# crash flight dumps                                                     #
# ---------------------------------------------------------------------- #


@needs_fork
class TestCrashFlightDump:
    def test_worker_crash_dumps_flight_naming_chunk_and_last_span(
        self, tmp_path
    ):
        # Crash the LAST chunk of the wave: its worker necessarily completed
        # (and shipped telemetry for) an earlier chunk first, so the dump
        # deterministically holds that worker's last span.
        obs_flight.configure(dump_dir=tmp_path)
        chaos = ChaosMonkey(worker_crash_chunks=[3])
        engine = ValuationEngine(tanh_game(), n_workers=2, chaos=chaos)
        obs_trace.enable()
        run = engine.run_permutations(16, seed=5)
        obs_trace.disable()

        assert run is not None  # recovered despite the crash
        dumps = sorted(tmp_path.glob("flight-*worker-crash*.jsonl"))
        assert dumps, "crash produced no flight dump"
        header, events = obs_flight.load_dump(dumps[0])
        assert header["kind"] == "flight_dump"
        assert header["reason"] == "worker-crash"
        crashes = [e for e in events if e["kind"] == "supervision.crash"]
        assert crashes, "dump does not record the supervision event"
        assert crashes[-1]["chunk"] == 3  # names the in-flight chunk
        crash_slot = crashes[-1]["slot"]
        # the crashed worker's last backhauled span is in the ring too
        span_events = [e for e in events if e["kind"] == "span"]
        assert any(
            e["origin"] == f"worker[{crash_slot}]" and e["name"] == "worker.chunk"
            for e in span_events
        ), f"no span from crashed worker[{crash_slot}] in {span_events}"

    def test_no_dump_without_configured_dir(self):
        chaos = ChaosMonkey(worker_crash_chunks=[0])
        engine = ValuationEngine(tanh_game(), n_workers=2, chaos=chaos)
        engine.run_permutations(8, seed=2)
        # events were recorded (cheap, always-on) but nothing hit disk
        kinds = [e["kind"] for e in obs_flight.flight_recorder().snapshot()]
        assert "supervision.crash" in kinds


# ---------------------------------------------------------------------- #
# fork-drop accounting                                                   #
# ---------------------------------------------------------------------- #


class TestForkDropWarning:
    def test_forked_recorder_without_backhaul_warns_once_and_counts(self):
        obs_trace.enable()
        recorder = obs_trace.get_recorder()
        recorder._forked = True  # simulate inheriting tracing across fork
        assert not obs_trace._BACKHAUL_ACTIVE
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with obs_trace.span("lost.work"):
                pass
            with obs_trace.span("more.lost.work"):
                pass
        runtime_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(runtime_warnings) == 1  # once per process, not per span
        assert "backhaul" in str(runtime_warnings[0].message)
        assert recorder._fork_dropped == 2

    def test_backhaul_capture_silences_the_warning(self):
        obs_trace.enable()
        recorder = obs_trace.get_recorder()
        recorder._forked = True
        obs_trace.WorkerTelemetry()  # marks backhaul active
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with obs_trace.span("captured.work"):
                pass
        assert not [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert recorder._fork_dropped == 0

    def test_dropped_count_ships_with_the_next_capture(self):
        obs_trace.enable()
        recorder = obs_trace.get_recorder()
        recorder._forked = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with obs_trace.span("pre.capture"):
                pass
        capture = obs_trace.WorkerTelemetry()
        delta = capture.collect()
        assert delta["dropped"] == 1
        obs_trace.merge_worker_telemetry(0, delta)
        snap = obs_metrics.snapshot()
        assert snap["obs.trace.dropped_fork_spans"]["value"] == 1
