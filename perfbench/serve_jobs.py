"""serve_jobs: valuation jobs through the service runtime, closed loop.

Two clients, one tenant each, each submit their next job only after the
previous one is terminal. The runtime journals every lifecycle edge,
checkpoints every wave, records each terminal job in a run ledger and
fans permutations out to one warm two-worker pool. Five requests in six
repeat one of six earlier seeds, which the warm caches answer; the sixth
is a fresh seed that needs fits. With half the requests warm, the median
fell in the gap between the warm and the cold latency clusters, and with
two in three it fell in the sparse tail of the warm cluster; both swung
by a third from run to run. Here job_p50_ms sits in the body of the warm
cluster and job_p95_ms in the cold one. An untimed warm-up runs each hot
seed once, so the timed cold jobs are exactly the fresh ones.

Each client measures the core's pace (``harness.pace``) between its jobs;
a job's time is scaled by the mean of the paces before and after it.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from harness import REFERENCE_PACE_S, PacedTimer, Tracer, pace, peak_rss_mb
from repro.importance import CheckpointStore, Utility, ValuationEngine, WorkerPool
from repro.learn import LogisticRegression
from repro.obs import RunLedger
from repro.service import (
    JobJournal,
    JobRejected,
    JobRequest,
    JobRuntime,
    JobState,
    register_valuation,
)

ROOT = Path(__file__).resolve().parent.parent
#: Journal, checkpoints and ledger live here, inside the checkout.
WORK_DIR = ROOT / ".perfbench"
N_ROWS = 40
RULE = np.array([1.5, -1.0, 0.8, 0.0])
CLIENTS = 2
WORKERS = 2
PERMUTATIONS = 3
HOT_SEEDS = 6
BLOCK = 6
#: wall_s is the median time to complete this many jobs.
WINDOW = 20
SETUP_REPEATS = 4


def make_utility(seed: int) -> Utility:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2 * N_ROWS, len(RULE)))
    y = (x @ RULE + 0.5 * rng.normal(size=2 * N_ROWS) > 0).astype(int)
    return Utility(
        LogisticRegression(max_iter=100), x[:N_ROWS], y[:N_ROWS], x[N_ROWS:], y[N_ROWS:]
    )


def traced_stores(tracer: Tracer) -> tuple[type, type]:
    """Journal and ledger classes whose appends report to ``tracer``; the
    checkpoint saves and pool dispatches the runtime makes are wrapped where
    their classes define them."""

    class TracedJobJournal(JobJournal):
        record = tracer.wrap("service.journal", JobJournal.record)

    class TracedRunLedger(RunLedger):
        append = tracer.wrap("obs.ledger", RunLedger.append)

    if not hasattr(CheckpointStore.save, "__wrapped__"):
        CheckpointStore.save = tracer.wrap(
            "importance.checkpoint", CheckpointStore.save
        )
        WorkerPool.dispatch = tracer.wrap("importance.pool", WorkerPool.dispatch)
    return TracedJobJournal, TracedRunLedger


async def start_service(seed: int, tracer: Tracer | None) -> dict:
    """Data, runtime, warm pool: everything before the first request."""
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=WORK_DIR))
    utility = make_utility(seed)
    journal_cls, ledger_cls = (
        traced_stores(tracer) if tracer is not None else (JobJournal, RunLedger)
    )
    runtime = JobRuntime(
        journal=journal_cls(workdir / "journal.jsonl"),
        checkpoint_dir=workdir / "checkpoints",
        ledger=ledger_cls(workdir / "ledger.jsonl"),
        max_concurrency=CLIENTS,
        pool=WORKERS,
    )
    caches: list[dict] = []

    def engine_factory(params: dict) -> ValuationEngine:
        engine = ValuationEngine(utility, n_workers=WORKERS)
        if tracer is not None:
            traced_run = tracer.wrap("importance.engine", engine.run_permutations)

            def run_permutations(*args, **kwargs):
                try:
                    return traced_run(*args, **kwargs)
                finally:
                    caches.append(engine.cache.stats())

            engine.run_permutations = run_permutations
        return engine

    register_valuation(runtime, engine_factory)
    pool = runtime.pool_registry.lease(utility, WORKERS)
    await runtime.start()
    return {"workdir": workdir, "runtime": runtime, "pool": pool, "caches": caches}


async def stop_service(service: dict) -> None:
    await service["runtime"].stop()
    shutil.rmtree(service["workdir"], ignore_errors=True)


async def time_setup(seed: int, tracer: Tracer | None) -> tuple[dict, list[float]]:
    """Start the service ``SETUP_REPEATS`` times; the last one keeps running.

    As in ``harness.time_setup``, this runs before and after the timed phase.
    """
    times: list[float] = []
    service = None
    timer = PacedTimer()
    for __ in range(SETUP_REPEATS):
        if service is not None:
            await stop_service(service)
        started = time.perf_counter()
        service = await start_service(seed, tracer)
        times.append(timer.add(time.perf_counter() - started))
    return service, times


class Load:
    """The closed-loop clients and what they observed."""

    def __init__(self, seed: int, runtime: JobRuntime, tracer: Tracer | None) -> None:
        self.runtime = runtime
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)
        self.hot = [seed * 1_000 + i for i in range(HOT_SEEDS)]
        self.next_fresh = seed * 1_000 + HOT_SEEDS
        self.block: list[bool] = []
        self.first_values: dict[int, np.ndarray] = {}
        self.jobs: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def next_seed(self) -> int:
        """One fresh seed in each block of ``BLOCK`` requests, at a random
        place in the block; the others repeat a hot seed.

        The blocks run over both clients' requests in the order they are
        made. When each client made its own every sixth request fresh, the
        two clients' cold jobs locked into step (mostly at once, or mostly
        apart) for a whole run, and which a run fell into moved the cold
        latencies by half. Drawing each request fresh with probability 1/6
        instead made the cold share of a run's requests vary with the seed.
        """
        if not self.block:
            self.block = [True] + [False] * (BLOCK - 1)
            self.rng.shuffle(self.block)
        if self.block.pop():
            self.next_fresh += 1
            return self.next_fresh
        return self.hot[int(self.rng.integers(HOT_SEEDS))]

    async def warm_up(self) -> None:
        """Run each hot seed once, untimed, so the timed phase starts with
        warm caches and its cold jobs are exactly the fresh seeds."""
        for seed in self.hot:
            self.attempted += 1
            try:
                job, run = await self.submit("tenant-0", seed)
            except (JobRejected, RuntimeError):
                self.failed += 1
                continue
            self.failed += not self.check(seed, job, run)

    async def submit(self, tenant: str, seed: int) -> tuple:
        job = self.runtime.submit(JobRequest(
            kind="valuation",
            params={"n_permutations": PERMUTATIONS, "seed": seed, "check_every": 1},
            tenant=tenant,
            dedup=False,
        ))
        return job, await job.wait()

    async def client(self, tenant: str, deadline: float) -> None:
        before = pace()
        while time.perf_counter() < deadline:
            seed = self.next_seed()
            self.attempted += 1
            traced = self.tracer is not None and self.tracer.enabled
            submitted = time.perf_counter()
            try:
                job, run = await self.submit(tenant, seed)
            except (JobRejected, RuntimeError):  # rejected, or failed terminally
                self.failed += 1
                continue
            finished = time.perf_counter()
            after = pace()
            self.failed += not self.check(seed, job, run)
            self.jobs.append({
                "latency": finished - submitted,
                "scale": REFERENCE_PACE_S / (0.5 * (before + after)),
                "finished": finished,
                "evals": run.n_evaluations,
                "queue_wait": job.queue_wait_s,
                "run": job.finished_at - job.started_at,
                "traced": traced,
            })
            before = after
            self.toggle_tracing()

    def check(self, seed: int, job, run) -> bool:
        """Completed, finite, and a repeated seed is bit-identical."""
        values = run.values()
        first = self.first_values.setdefault(seed, values)
        return (
            job.state is JobState.COMPLETED
            and run.n_permutations == PERMUTATIONS
            and bool(np.all(np.isfinite(values)))
            and np.array_equal(first, values)
        )

    def toggle_tracing(self) -> None:
        """Traced and untraced windows alternate, so overhead compares like
        with like while the journal grows."""
        if self.tracer is not None and len(self.jobs) % (WINDOW // 2) == 0:
            self.tracer.enabled = not self.tracer.enabled


async def serve(seed: int, seconds: float, tracer: Tracer | None) -> tuple:
    service, setup_times = await time_setup(seed, tracer)
    runtime = service["runtime"]
    try:
        load = Load(seed, runtime, tracer)
        await load.warm_up()
        service["caches"].clear()
        warm_chunks = service["pool"].stats()["chunks_dispatched"]
        if tracer is not None:
            tracer.enabled = True
        started = time.perf_counter()
        deadline = started + seconds
        await asyncio.gather(
            *(load.client(f"tenant-{c}", deadline) for c in range(CLIENTS))
        )
        if tracer is not None:
            tracer.enabled = False
        await runtime.drain()
        stuck = len(runtime.journal.in_flight()) + sum(
            not job.done for job in runtime.jobs.values()
        )
        load.failed += stuck
        stats = runtime.stats()
        pool_stats = service["pool"].stats()
        pool_stats["chunks_dispatched"] -= warm_chunks
        stats["cache"] = service["caches"]
        files = {
            name: os.path.getsize(service["workdir"] / name)
            for name in ("journal.jsonl", "ledger.jsonl")
        }
        stats["peak_rss_mb"] = peak_rss_mb()
    finally:
        await stop_service(service)
    last, more = await time_setup(seed, None)
    await stop_service(last)
    return load, started, statistics.median(setup_times + more), stats, pool_stats, files


def run(seed: int, seconds: float, trace: bool) -> tuple[int, int, dict, int]:
    tracer = Tracer() if trace else None
    load, started, setup_s, stats, pool_stats, files = asyncio.run(
        serve(seed, seconds, tracer)
    )
    jobs = sorted(load.jobs, key=lambda job: job["finished"])
    # A window of WINDOW jobs is scaled by the mean scale of its jobs.
    windows, raw_windows, mark = [], [], started
    for first in range(0, len(jobs) - WINDOW + 1, WINDOW):
        batch = jobs[first:first + WINDOW]
        raw_windows.append(batch[-1]["finished"] - mark)
        windows.append(raw_windows[-1] * statistics.fmean(j["scale"] for j in batch))
        mark = batch[-1]["finished"]
    span = (jobs[-1]["finished"] - started) * statistics.fmean(j["scale"] for j in jobs)
    latencies = [job["latency"] * job["scale"] for job in jobs if not job["traced"]]
    values = {
        "setup_s": setup_s,
        "raw_wall_s": statistics.median(raw_windows or [jobs[-1]["finished"] - started]),
        "wall_s": statistics.median(windows or [span]),
        "evals_per_s": sum(job["evals"] for job in jobs) / span,
        "jobs_per_s": len(jobs) / span,
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p95_ms": 1e3 * float(np.percentile(latencies, 95)),
        "peak_rss_mb": stats["peak_rss_mb"],
    }
    if trace:
        values = layer_metrics(tracer, jobs, stats, pool_stats, files)
    return load.attempted, load.failed, values, len(jobs)


def layer_metrics(tracer: Tracer, jobs: list[dict], stats: dict,
                  pool_stats: dict, files: dict) -> dict:
    """Per job (traced jobs for the wrapped calls), except the p50s, the
    end sizes, the pool's own setup time and the runtime's counters."""
    traced = [job for job in jobs if job["traced"]]
    untraced = [job for job in jobs if not job["traced"]]
    n = len(traced)
    values = {
        "importance.engine.self_s": tracer.self_time["importance.engine"] / n,
        "importance.pool.dispatches": tracer.calls["importance.pool"] / n,
        "importance.pool.dispatch_busy_s": tracer.busy["importance.pool"] / n,
        "importance.pool.chunks": pool_stats["chunks_dispatched"] / len(jobs),
        "importance.pool.chunks_requeued": pool_stats["chunks_requeued"],
        "importance.pool.worker_restarts": pool_stats["supervision"]["worker_restarts"],
        "importance.pool.setup_s": pool_stats["setup_s"],
        "importance.checkpoint.saves": tracer.calls["importance.checkpoint"] / n,
        "importance.checkpoint.busy_s": tracer.busy["importance.checkpoint"] / n,
        "importance.checkpoint.save_ms_p50": tracer.p50_ms("importance.checkpoint"),
        "service.runtime.queue_wait_ms_p50": 1e3 * statistics.median(
            job["queue_wait"] for job in jobs
        ),
        "service.runtime.run_ms_p50": 1e3 * statistics.median(job["run"] for job in jobs),
        "service.runtime.rejected": stats["rejected"],
        "service.runtime.retries": stats["retries"],
        "trace.wall_s": statistics.median(job["latency"] for job in traced),
        "trace.untraced_wall_s": statistics.median(job["latency"] for job in untraced),
    }
    values["trace.overhead"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
    for layer, file in (("service.journal", "journal.jsonl"), ("obs.ledger", "ledger.jsonl")):
        values[f"{layer}.appends"] = tracer.calls[layer] / n
        values[f"{layer}.busy_s"] = tracer.busy[layer] / n
        values[f"{layer}.append_ms_p50"] = tracer.p50_ms(layer)
        values[f"{layer}.bytes_end"] = files[file]
    hits = sum(cache["hits"] for cache in stats["cache"])
    misses = sum(cache["misses"] for cache in stats["cache"])
    values["importance.cache.hits"] = hits / len(stats["cache"])
    values["importance.cache.misses"] = misses / len(stats["cache"])
    values["importance.cache.hit_rate"] = hits / max(1, hits + misses)
    return values
