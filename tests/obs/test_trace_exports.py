"""Saved trace reports share the one export format.

Like trace exports and flight dumps, a saved report is a header line plus
one CRC-framed line per record (:func:`repro.obs.atomicio.write_export`),
and it loads through :func:`repro.obs.atomicio.read_export`: a damaged line
is quarantined and the rest load, and reports saved before the lines were
framed still load.
"""

from __future__ import annotations

import json

from repro.obs import TraceReport, tracing, unframe
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.atomicio import quarantine_path_for, read_jsonl


def traced_report() -> TraceReport:
    with tracing() as report:
        with obs_trace.span("outer", n=2):
            with obs_trace.span("inner"):
                pass
        obs_metrics.counter("exports.test").inc(3)
    return report


def test_saved_report_lines_are_crc_framed(tmp_path):
    report = traced_report()
    path = tmp_path / "report.jsonl"
    assert report.save_jsonl(path) == 2
    raw = [json.loads(line) for line in path.read_text().splitlines()]
    assert all("_env" in line for line in raw)
    payloads = [unframe(line) for line in raw]
    assert all(err is None for __, err in payloads)
    assert payloads[0][0]["kind"] == "trace_report"
    assert payloads[-1][0]["metrics"]["exports.test"]["value"] == 3
    loaded = TraceReport.from_jsonl(path)
    assert loaded.span_names() == ["outer", "inner"]
    assert loaded.spans[0].attrs == {"n": 2}
    assert loaded.metrics == report.metrics


def test_a_report_saved_unframed_still_loads(tmp_path):
    """The bare-JSON lines save_jsonl wrote before the lines were framed."""
    report = traced_report()
    path = tmp_path / "old.jsonl"
    lines = [
        {"schema_version": 2, "kind": "trace_report", "n_spans": len(report.spans)},
        *(span.to_dict() for span in report.spans),
        {"metrics": report.metrics},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    loaded = TraceReport.from_jsonl(path)
    assert loaded.closed
    assert loaded.span_names() == report.span_names()
    assert loaded.metrics == report.metrics
    assert not quarantine_path_for(path).exists()


def test_a_damaged_report_line_is_quarantined_and_the_rest_load(tmp_path):
    path = tmp_path / "report.jsonl"
    traced_report().save_jsonl(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace('"crc":"', '"crc":"0', 1)  # the first span
    path.write_text("".join(lines))
    report = TraceReport.from_jsonl(path)
    assert report.span_names() == ["inner"]
    assert report.metrics["exports.test"]["value"] == 3
    (quarantined,), __ = read_jsonl(quarantine_path_for(path))
    assert quarantined["kind"] == "quarantined_record"
    assert quarantined["reason"] == "crc_mismatch"
