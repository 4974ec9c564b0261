"""Durable state plane: what does the checksummed envelope cost?

Four questions with numbers attached:

1. **Append overhead.** Every JSONL artifact line is now CRC32-framed
   (``{"_env": 2, "crc": ..., "data": ...}``). The durability contract
   budgets **< 5%** for the framing itself — the checksum must be in the
   noise next to the fsync it protects. And it literally is in the noise:
   a durable in-place append is fsync-bound (~0.2 ms median on a 2-vCPU
   Linux VM with ext4, heavy-tailed), while framing adds about two
   microseconds — so a gate on the stochastic end-to-end ratio would be a
   coin flip. The gated number is instead *decomposed into its
   deterministic components*, each measured where it is measurable: the
   CPU delta of ``frame_line`` vs. ``canonical_json`` (many-rep timing)
   plus the envelope's extra bytes — one envelope per append, since an
   append writes only its own line — priced at the measured page-cache
   write throughput, over the measured median durable append. Interleaved
   end-to-end medians for both variants are reported alongside as the
   (noisy) sanity check.
2. **Flat append latency.** An in-place append costs O(line), not O(log):
   the median append into a 100,000-record log must stay within **2x** of
   the median into a 100-record one (copy-and-rename appends measured
   10.5 ms against 0.44 ms).
3. **Validated-load overhead.** ``read_jsonl`` (CRC check per line) vs. a
   raw ``json.loads`` loop over the identical un-framed file.
4. **Recovery cost.** A corrupted artifact (5% of lines damaged) is loaded
   once with quarantine enabled — the worst-case path: every bad line is
   CRC-rejected, deduped, and copied to the ``.corrupt`` sidecar — and the
   accounting must balance: loaded + quarantined == total.

Environment knobs (CI smoke sizes): ``REPRO_BENCH_DUR_N`` (pre-seeded
records), ``REPRO_BENCH_DUR_APPENDS`` (timed appends per round),
``REPRO_BENCH_DUR_ROUNDS`` (sampling rounds).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.obs.atomicio import (
    atomic_append_line,
    atomic_writer,
    canonical_json,
    frame_line,
    read_jsonl,
)
from repro.viz import format_records

N_SEED = int(os.environ.get("REPRO_BENCH_DUR_N", "400"))
N_APPENDS = int(os.environ.get("REPRO_BENCH_DUR_APPENDS", "25"))
ROUNDS = int(os.environ.get("REPRO_BENCH_DUR_ROUNDS", "5"))
CORRUPT_FRAC = 0.05

#: Log sizes of the flat-latency gate, and the largest allowed ratio of
#: their median append latencies.
FLAT_SMALL = 100
FLAT_LARGE = 100_000
FLAT_MAX_RATIO = 2.0


def _payload(i: int) -> dict:
    """One representative artifact record (~700 canonical bytes).

    Sized like the real traffic — a run-ledger record with its config,
    per-node stats, and metrics — not a toy line: the envelope is a fixed
    ~35 bytes, so the overhead ratio is only meaningful against records
    the shape the state plane actually persists.
    """
    return {
        "schema_version": 1,
        "ts": 1700000000.0 + i,
        "event": "progress",
        "job_id": f"job-{i % 7}",
        "run_id": f"run-2026-08-08-{i:06d}",
        "payload": {
            "completed": i,
            "target": N_SEED,
            "seq": i,
            "config": {
                "n_permutations": 200,
                "seed": 11,
                "check_every": 8,
                "truncation_tolerance": 0.001,
                "convergence_tolerance": 0.0,
                "antithetic": True,
                "weights": "shapley",
                "n_workers": 4,
            },
            "node_stats": [
                {
                    "node": f"clean[{k}]",
                    "rows_in": 4096 + i,
                    "rows_out": 4032 - k,
                    "null_rate": 0.0125,
                    "wall_s": 0.0042,
                }
                for k in range(4)
            ],
            "metrics": {
                "queue_depth": 3,
                "attempt": 1,
                "heartbeat_s": 0.25,
                "rss_mb": 412.5,
            },
        },
    }


def _event(i: int) -> dict:
    """One job-journal lifecycle event (~130 framed bytes)."""
    return {
        "schema_version": 1,
        "ts": 1700000000.0 + i,
        "event": "progress",
        "job_id": f"job-{i % 7}",
        "payload": {"completed": i},
    }


def _seed_file(path: Path, framed: bool, n: int, record=_payload) -> None:
    encode = frame_line if framed else canonical_json
    with atomic_writer(path) as handle:
        for i in range(n):
            handle.write(encode(record(i)) + "\n")


def _flat_latency(workdir: Path) -> dict:
    """Median append latency into a small vs. a large log, interleaved."""
    small = workdir / "flat-small.jsonl"
    large = workdir / "flat-large.jsonl"
    _seed_file(small, True, FLAT_SMALL, record=_event)
    _seed_file(large, True, FLAT_LARGE, record=_event)
    small_s, large_s = [], []
    n_samples = N_APPENDS * ROUNDS
    for i in range(n_samples):
        order = ((small, small_s), (large, large_s))
        for path, bucket in order if i % 2 == 0 else order[::-1]:
            line = frame_line(_event(FLAT_LARGE + i))
            t0 = time.perf_counter()
            atomic_append_line(path, line)
            bucket.append(time.perf_counter() - t0)
    small_median = float(np.median(small_s))
    large_median = float(np.median(large_s))
    return {
        "small_records": FLAT_SMALL,
        "large_records": FLAT_LARGE,
        "large_log_mib": round(large.stat().st_size / 2**20, 1),
        "small_median_us": round(1e6 * small_median, 1),
        "large_median_us": round(1e6 * large_median, 1),
        "ratio": round(large_median / small_median, 3),
        "max_ratio": FLAT_MAX_RATIO,
        "n_samples": n_samples,
    }


def _framing_components(workdir: Path) -> dict:
    """Deterministic framing costs, measured where they are measurable."""
    payloads = [_payload(i) for i in range(50)]
    # Median over 100 adjacent pairs of blocks, alternating which variant
    # runs first: a scheduler hiccup or a slow stretch of the host would
    # otherwise outweigh the ~1 us being measured.
    deltas = []
    for k in range(100):
        order = (canonical_json, frame_line)
        block_s = {}
        for encode in order if k % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            for p in payloads:
                encode(p)
            block_s[encode] = time.perf_counter() - t0
        deltas.append(block_s[frame_line] - block_s[canonical_json])
    cpu_delta_s = max(0.0, float(np.median(deltas)) / len(payloads))
    # Price the envelope's extra bytes at the measured throughput of
    # writing into the page cache, which is where an append's bytes go
    # before its fsync.
    blob = b"x" * (1 << 20)
    fd = os.open(workdir / "throughput.bin", os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        t0 = time.perf_counter()
        for _ in range(8):
            os.write(fd, blob)
        write_throughput = 8 * len(blob) / (time.perf_counter() - t0)
    finally:
        os.close(fd)
    envelope_bytes = len(frame_line(payloads[0])) - len(
        canonical_json(payloads[0])
    )
    # An append writes only its own line: one envelope's worth of extra
    # bytes per framed append, however long the log already is.
    write_delta_s = envelope_bytes / write_throughput
    return {
        "cpu_delta_us": round(1e6 * cpu_delta_s, 3),
        "envelope_bytes": int(envelope_bytes),
        "write_throughput_gb_s": round(write_throughput / 1e9, 2),
        "write_delta_us": round(1e6 * write_delta_s, 4),
        "framing_cost_us": round(1e6 * (cpu_delta_s + write_delta_s), 3),
    }


def run_durability(workdir: Path) -> dict:
    # -- 1. framed vs un-framed append ---------------------------------- #
    # End-to-end medians, interleaved with alternating order so latency
    # drift and position bias cancel. These are the sanity check; the
    # gated overhead comes from the component decomposition below.
    framed_path = workdir / "append-framed.jsonl"
    raw_path = workdir / "append-raw.jsonl"
    _seed_file(framed_path, True, N_SEED)
    _seed_file(raw_path, False, N_SEED)
    framed_samples, raw_samples = [], []
    for i in range(N_APPENDS * ROUNDS):
        payload = _payload(N_SEED + i)
        framed_line = frame_line(payload)
        raw_line = canonical_json(payload)
        order = (
            ((raw_path, raw_line, raw_samples),
             (framed_path, framed_line, framed_samples))
            if i % 2 == 0
            else ((framed_path, framed_line, framed_samples),
                  (raw_path, raw_line, raw_samples))
        )
        for target, line, bucket in order:
            t0 = time.perf_counter()
            atomic_append_line(target, line)
            bucket.append(time.perf_counter() - t0)
    median_framed = float(np.median(framed_samples))
    median_raw = float(np.median(raw_samples))
    components = _framing_components(workdir)
    append_overhead_pct = 100.0 * (
        components["framing_cost_us"] / (1e6 * median_raw)
    )

    # -- 2. append latency does not grow with the log ------------------- #
    flat = _flat_latency(workdir)

    # -- 3. validated load vs raw json.loads ---------------------------- #
    framed_path = workdir / "load-framed.jsonl"
    raw_path = workdir / "load-raw.jsonl"
    _seed_file(framed_path, True, N_SEED)
    _seed_file(raw_path, False, N_SEED)
    load_framed_s = load_raw_s = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        payloads, report = read_jsonl(framed_path, artifact="bench")
        load_framed_s = min(load_framed_s, time.perf_counter() - t0)
        assert report.clean and len(payloads) == N_SEED
        t0 = time.perf_counter()
        with open(raw_path, encoding="utf-8") as handle:
            raw = [json.loads(line) for line in handle]
        load_raw_s = min(load_raw_s, time.perf_counter() - t0)
        assert len(raw) == N_SEED

    # -- 4. recovery: quarantine a 5%-corrupted artifact ---------------- #
    corrupt_path = workdir / "recovery.jsonl"
    _seed_file(corrupt_path, True, N_SEED)
    rng = np.random.default_rng(23)
    lines = corrupt_path.read_text().splitlines()
    n_corrupt = max(1, int(CORRUPT_FRAC * len(lines)))
    for idx in rng.choice(len(lines), size=n_corrupt, replace=False):
        lines[idx] = lines[idx][: max(1, len(lines[idx]) // 2)]  # torn
    corrupt_path.write_text("\n".join(lines) + "\n")
    t0 = time.perf_counter()
    payloads, report = read_jsonl(corrupt_path, artifact="bench-recovery")
    recovery_s = time.perf_counter() - t0
    assert report.n_loaded + report.n_quarantined == N_SEED
    assert report.n_quarantined == n_corrupt

    return {
        "n_seed_records": N_SEED,
        "n_appends": N_APPENDS,
        "rounds": ROUNDS,
        "append": {
            "framed_median_us": round(1e6 * median_framed, 1),
            "raw_median_us": round(1e6 * median_raw, 1),
            "n_samples": N_APPENDS * ROUNDS,
            "components": components,
            "overhead_pct": round(append_overhead_pct, 3),
            "budget_pct": 5.0,
        },
        "flat_latency": flat,
        "load": {
            "validated_s": round(load_framed_s, 5),
            "raw_s": round(load_raw_s, 5),
            "validated_us_per_record": round(1e6 * load_framed_s / N_SEED, 2),
            "raw_us_per_record": round(1e6 * load_raw_s / N_SEED, 2),
        },
        "recovery": {
            "n_records": N_SEED,
            "n_corrupted": int(n_corrupt),
            "n_loaded": report.n_loaded,
            "n_quarantined": report.n_quarantined,
            "wall_s": round(recovery_s, 5),
            "records_per_s": round(N_SEED / recovery_s, 1),
        },
    }


def test_durability(benchmark, write_report, tmp_path):
    result = benchmark.pedantic(
        lambda: run_durability(tmp_path), rounds=1, iterations=1
    )
    append, flat, load, recovery = (
        result["append"], result["flat_latency"], result["load"],
        result["recovery"],
    )
    rows = [
        {
            "operation": "append (un-framed), median",
            "wall_us": append["raw_median_us"],
        },
        {
            "operation": "append (CRC-framed), median",
            "wall_us": append["framed_median_us"],
        },
        {
            "operation": f"append into {FLAT_SMALL}-record log, median",
            "wall_us": flat["small_median_us"],
        },
        {
            "operation": f"append into {FLAT_LARGE}-record log, median",
            "wall_us": flat["large_median_us"],
        },
        {
            "operation": f"load x{N_SEED} (raw json.loads)",
            "wall_us": round(1e6 * load["raw_s"], 1),
        },
        {
            "operation": f"load x{N_SEED} (validated read_jsonl)",
            "wall_us": round(1e6 * load["validated_s"], 1),
        },
        {
            "operation": (
                f"recovery load, {recovery['n_corrupted']} torn lines"
            ),
            "wall_us": round(1e6 * recovery["wall_s"], 1),
        },
    ]
    report = format_records(rows)
    comp = append["components"]
    report += (
        f"\n\nCRC framing append overhead: {append['overhead_pct']:+.2f}%"
        f" (budget < {append['budget_pct']:.0f}%):"
        f" {comp['cpu_delta_us']:.2f}us CPU"
        f" + {comp['write_delta_us']:.4f}us write"
        f" ({comp['envelope_bytes']}B envelope"
        f" at {comp['write_throughput_gb_s']:.1f} GB/s)"
        f" over a {append['raw_median_us']:.0f}us median durable append"
        f"\nflat append latency: {flat['large_median_us']:.0f}us at"
        f" {FLAT_LARGE} records ({flat['large_log_mib']} MiB) vs"
        f" {flat['small_median_us']:.0f}us at {FLAT_SMALL}:"
        f" {flat['ratio']:.2f}x (gate <= {flat['max_ratio']:.0f}x)"
        f"\nvalidated load: {load['validated_us_per_record']:.1f} us/record"
        f" vs raw {load['raw_us_per_record']:.1f} us/record"
        f"\nrecovery: {recovery['n_quarantined']}/{recovery['n_records']}"
        f" lines quarantined at {recovery['records_per_s']:.0f} records/s"
    )
    write_report("durability", report, records=result)
    # The contract: checksummed persistence must be nearly free next to
    # the fsync-bound append protocol it rides on.
    assert append["overhead_pct"] < append["budget_pct"], (
        f"CRC framing overhead {append['overhead_pct']:.2f}% exceeds the "
        f"{append['budget_pct']:.0f}% budget"
    )
    # Appends are in place: their cost must not grow with the log.
    assert flat["ratio"] <= flat["max_ratio"], (
        f"append latency at {FLAT_LARGE} records is {flat['ratio']:.2f}x "
        f"the latency at {FLAT_SMALL} (gate {flat['max_ratio']:.0f}x)"
    )
    assert recovery["n_loaded"] + recovery["n_quarantined"] == N_SEED
