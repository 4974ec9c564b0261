"""Observability: tracing and metrics for the whole runtime.

The paper's Debug pillar is built on fine-grained pipeline inspection;
``repro.obs`` applies the same idea to the library's own execution. Two
zero-dependency layers:

- :mod:`repro.obs.trace` — hierarchical spans with a thread/fork-safe
  in-memory recorder, a ``span()`` context manager, a ``@traced``
  decorator, and JSONL export. Off by default; the disabled path is a
  single flag check.
- :mod:`repro.obs.metrics` — a process-wide registry of counters, gauges,
  and histograms with snapshot/reset semantics and JSON export.

On top of the in-process layers sits the *continuous* observability stack
(PR 4): :mod:`repro.obs.quality` computes streaming per-column
data-quality profiles at every pipeline node (``monitor=`` knob on
``pipeline.execute``), :mod:`repro.obs.ledger` persists each run —
config, dataset fingerprints, node profiles, trace skeleton, quarantine
summary — to an append-only JSONL store, and :mod:`repro.obs.diff`
compares two runs into drift scores and threshold-based alerts.

The executor (:mod:`repro.pipeline.execute`), the valuation engine
(:mod:`repro.importance.engine`), and the cleaning loops are instrumented
through this package; the user-facing window is
:class:`repro.obs.tracing` (re-exported as ``nde.tracing()``)::

    import repro.core as nde

    with nde.tracing() as report:
        result = nde.execute_robust(sink, sources, monitor=(mon := nde.monitor()))
    nde.RunLedger("runs.jsonl").record_run(result, monitor=mon, report=report)
"""

from .atomicio import (
    ENVELOPE_SCHEMA_VERSION,
    IOHooks,
    LoadReport,
    SimulatedCrash,
    advisory_lock,
    atomic_append_line,
    atomic_write_text,
    atomic_writer,
    canonical_json,
    crc32_hex,
    frame_line,
    fsync_dir,
    install_io_hooks,
    io_hooks,
    read_jsonl,
    storage_alerts,
    unframe,
)
from .diff import (
    Alert,
    DriftThresholds,
    RunDiff,
    compare_runs,
    cramers_v,
    population_stability_index,
)
from .export import (
    CONTENT_TYPE,
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
)
from .flight import (
    DEFAULT_KEEP_DUMPS,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    flight_recorder,
    load_dump,
)
from .ledger import RunLedger, RunRecord
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    delta_snapshots,
    gauge,
    histogram,
    merge_delta,
    registry,
    reset,
    series_name,
    snapshot,
)
from .quality import (
    ColumnProfile,
    ColumnQualityCollector,
    NodeQualityProfile,
    PipelineMonitor,
    fingerprint_frame,
    profile_frame,
)
from .report import TraceReport, tracing
from .slo import SLOPolicy, SLOTracker
from .trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    TraceRecorder,
    WorkerTelemetry,
    add_attrs,
    current_span,
    disable,
    enable,
    enabled,
    get_recorder,
    merge_worker_telemetry,
    read_trace_export,
    span,
    traced,
)

__all__ = [
    # trace
    "Span",
    "TraceRecorder",
    "WorkerTelemetry",
    "TRACE_SCHEMA_VERSION",
    "enabled",
    "enable",
    "disable",
    "span",
    "traced",
    "add_attrs",
    "current_span",
    "get_recorder",
    "merge_worker_telemetry",
    "read_trace_export",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "reset",
    "series_name",
    "delta_snapshots",
    "merge_delta",
    # openmetrics export
    "CONTENT_TYPE",
    "render_openmetrics",
    "parse_openmetrics",
    "sanitize_metric_name",
    # flight recorder
    "FLIGHT_SCHEMA_VERSION",
    "DEFAULT_KEEP_DUMPS",
    "FlightRecorder",
    "flight_recorder",
    "load_dump",
    # per-tenant SLOs
    "SLOPolicy",
    "SLOTracker",
    # trace windows
    "TraceReport",
    "tracing",
    # quality monitors
    "ColumnProfile",
    "ColumnQualityCollector",
    "NodeQualityProfile",
    "PipelineMonitor",
    "profile_frame",
    "fingerprint_frame",
    # run ledger + cross-run diffing
    "RunLedger",
    "RunRecord",
    "RunDiff",
    "Alert",
    "DriftThresholds",
    "compare_runs",
    "population_stability_index",
    "cramers_v",
    # atomic artifact writes + durable-state plane
    "advisory_lock",
    "atomic_writer",
    "atomic_write_text",
    "atomic_append_line",
    "ENVELOPE_SCHEMA_VERSION",
    "IOHooks",
    "LoadReport",
    "SimulatedCrash",
    "canonical_json",
    "crc32_hex",
    "frame_line",
    "fsync_dir",
    "install_io_hooks",
    "io_hooks",
    "read_jsonl",
    "storage_alerts",
    "unframe",
]
