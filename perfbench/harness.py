"""Shared pieces of the benchmark: layer tracer, statistics, environment.

Layers are timed from outside the program: the workloads wrap calls into
each module's public functions (or subclass the public classes they hand
to the program) with :meth:`Tracer.wrap`. ``repro.obs`` tracing stays off.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Tracer:
    """Per-layer busy time, self time and call counts, thread-safe.

    A wrapped call is a span. Its *busy* time is its duration; its *self*
    time is that duration minus the spans nested inside it on the same
    thread. While ``enabled`` is false a wrapper only checks the flag.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            stack.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.calls[name] += 1
                    self.busy[name] += elapsed
                    self.self_time[name] += elapsed - nested
                    self.durations[name].append(elapsed)

        timed.__wrapped__ = fn
        return timed

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def p50_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return 1e3 * statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: What the reference loop takes on an idle core of the 2-vCPU development
#: host. Scaled times read as seconds at that pace.
REFERENCE_PACE_S = 0.4e-3
PACE_REPEATS = 5
_PACE_RNG = np.random.default_rng(0)
_PACE_X = _PACE_RNG.normal(size=(200, 4))
_PACE_Y = (_PACE_X[:, 0] > 0).astype(float)
_PACE_W = _PACE_RNG.normal(size=4)


def _reference_loop() -> None:
    """Logistic-loss gradients on a small fixed array: many short numpy
    calls, like the fits, encoders and bookkeeping the workloads time."""
    for __ in range(60):
        z = _PACE_X @ _PACE_W
        p = 1.0 / (1.0 + np.exp(-z))
        _PACE_X.T @ (p - _PACE_Y)


def pace() -> float:
    """Seconds one reference loop takes on this core now (best of a few).

    Cores of a shared host run slower while neighbours contend for them
    (the process keeps its CPU time; each instruction takes longer), and
    that pace swings by up to ~1.5x over seconds. A timing divided by the
    pace measured just before and after it no longer carries most of the
    swing. The loop is fixed and calls nothing in the program, so a change
    to the program moves the scaled times exactly as much as the raw ones.
    """
    best = float("inf")
    for __ in range(PACE_REPEATS):
        started = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - started)
    return best


class PacedTimer:
    """Times consecutive steps, each scaled to the reference pace.

    The pace is measured before the first step and after every step; a
    step's seconds are multiplied by ``REFERENCE_PACE_S`` over the mean of
    the paces on either side of it. ``raw`` and ``scaled`` sum the steps.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self._pace = pace()

    def time(self, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        self.add(elapsed)
        return out

    def add(self, elapsed: float) -> float:
        """Account for a step of ``elapsed`` seconds that just ended; its
        scaled seconds."""
        after = pace()
        scaled = elapsed * REFERENCE_PACE_S / (0.5 * (self._pace + after))
        self._pace = after
        self.raw += elapsed
        self.scaled += scaled
        return scaled


def time_setup(build: Callable[[], Any], repeats: int) -> tuple[Any, list[float]]:
    """Build ``repeats`` times; the last state and each build's scaled seconds.

    Workloads set up once more after the timed phase and report the median
    of both rounds: this host's speed drifts over seconds, and set-ups timed
    back to back all share one moment's speed.
    """
    times = []
    timer = PacedTimer()
    for __ in range(repeats):
        before = timer.scaled
        state = timer.time(build)
        times.append(timer.scaled - before)
    return state, times


def timed_loop(seconds: float, tracer: Tracer | None,
               request: Callable[[int, bool], dict]) -> tuple[list, list, int, int]:
    """Call ``request(index, tracing)`` until ``seconds`` have passed.

    Without a tracer each index runs once, untraced. With one, each index
    runs traced and then untraced on identical inputs, so each pair's wall
    times give the tracing overhead. A request that raises, or returns a
    sample whose ``ok`` is false, counts as failed. Returns the traced and
    untraced samples, and the attempted and failed counts.
    """
    samples: dict[bool, list] = {True: [], False: []}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        for tracing in (True, False) if tracer is not None else (False,):
            attempted += 1
            if tracing:
                tracer.enabled = True
            try:
                sample = request(index, tracing)
            except Exception:  # noqa: BLE001 - a raised request is a failure
                failed += 1
                continue
            finally:
                if tracing:
                    tracer.enabled = False
            failed += not sample["ok"]
            samples[tracing].append(sample)
        index += 1
    return samples[True], samples[False], attempted, failed


def serial_metrics(samples: list[dict], per_evals: int | None = None) -> dict[str, float]:
    """Timed-phase metrics of a workload whose requests run one at a time
    (everything but ``setup_s``). ``wall`` is a sample's scaled seconds,
    ``raw`` its plain ones.

    With ``per_evals``, each request's times are first rescaled to that
    many evaluations, for requests whose amount of work varies.
    """
    walls = [sample["wall"] for sample in samples]
    raws = [sample["raw"] for sample in samples]
    if per_evals is not None:
        walls = [w * per_evals / s["evals"] for w, s in zip(walls, samples)]
        raws = [r * per_evals / s["evals"] for r, s in zip(raws, samples)]
    return {
        "raw_wall_s": statistics.median(raws),
        "wall_s": statistics.median(walls),
        "evals_per_s": (
            sum(sample["evals"] for sample in samples)
            / sum(sample["wall"] for sample in samples)
        ),
        "jobs_per_s": len(walls) / sum(walls),
        "job_p50_ms": 1e3 * statistics.median(walls),
        "job_p95_ms": 1e3 * float(np.percentile(walls, 95)),
        "peak_rss_mb": peak_rss_mb(),
    }


def paired_overhead(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Mean traced and untraced request walls and their median pair ratio."""
    return {
        "trace.wall_s": statistics.fmean(s["wall"] for s in traced),
        "trace.untraced_wall_s": statistics.fmean(s["wall"] for s in untraced),
        "trace.overhead": statistics.median(
            a["wall"] / b["wall"] for a, b in zip(traced, untraced)
        ),
    }


def _openblas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split()[-1]
                for line in maps
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def _blas_library() -> str | None:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def _git_sha(root: str) -> str | None:
    # The ceiling keeps git from answering for a repository above ``root``
    # when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment(root: str) -> dict[str, Any]:
    """What a reader needs to compare two runs: cores, BLAS, versions, sha."""
    import scipy

    return {
        "effective_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas_library(),
        "blas_threads": _openblas_threads(),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
    }


#: End-to-end metrics (``--trace 0``), every workload reports each one.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``). A layer a workload does not reach
#: reports 0 there; README.md maps each to the end-to-end metric it moves.
PER_LAYER = {
    "learn.fit.calls": "count",
    "learn.fit.busy_s": "s",
    "learn.fit.share": "ratio",
    "learn.predict.busy_s": "s",
    "learn.metric.busy_s": "s",
    "learn.knn.busy_s": "s",
    "importance.utility.calls": "count",
    "importance.utility.self_s": "s",
    "importance.engine.self_s": "s",
    "importance.cache.hits": "count",
    "importance.cache.misses": "count",
    "importance.cache.hit_rate": "ratio",
    "importance.exact_knn.busy_s": "s",
    "importance.pool.dispatches": "count",
    "importance.pool.dispatch_busy_s": "s",
    "importance.pool.chunks": "count",
    "importance.pool.chunks_requeued": "count",
    "importance.pool.worker_restarts": "count",
    "importance.pool.setup_s": "s",
    "importance.checkpoint.saves": "count",
    "importance.checkpoint.busy_s": "s",
    "importance.checkpoint.save_ms_p50": "ms",
    "service.journal.appends": "count",
    "service.journal.busy_s": "s",
    "service.journal.append_ms_p50": "ms",
    "service.journal.bytes_end": "B",
    "obs.ledger.appends": "count",
    "obs.ledger.busy_s": "s",
    "obs.ledger.append_ms_p50": "ms",
    "obs.ledger.bytes_end": "B",
    "service.runtime.queue_wait_ms_p50": "ms",
    "service.runtime.run_ms_p50": "ms",
    "service.runtime.rejected": "count",
    "service.runtime.retries": "count",
    "pipeline.execute.busy_s": "s",
    "pipeline.encode.busy_s": "s",
    "pipeline.operators.self_s": "s",
    "pipeline.compile.busy_s": "s",
    "pipeline.provenance.busy_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.self_coverage": "ratio",
}


def result(attempted: int, failed: int, values: dict[str, float],
           trace: bool) -> dict[str, Any]:
    """The benchmark's result object for one workload run."""
    if trace:
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
