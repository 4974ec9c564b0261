"""Experiment T-scale — cost scaling of importance computation.

Section 2.1's "Overcoming Computational Challenges" motivates two levers:
the KNN proxy (closed form, no retraining) and Monte-Carlo truncation
(TMC stops scanning a permutation once the utility saturates). This bench
reports, as the training-set size grows:

- wall-clock of the closed-form methods (KNN-Shapley, influence),
- wall-clock *and retraining counts* of the retraining-based methods
  (LOO: exactly n+1 retrainings; truncated MC: sub-linear scans).

Shapes to reproduce: the wall-clock gap between LOO and the closed-form
methods widens with n; TMC's retraining count grows *sub-linearly* (the
truncation savings grow with n).

The second experiment (T-engine) exercises the shared valuation engine's
cost levers on the same MC-Shapley workload: process fan-out
(``n_workers``), subset memoization (a warm cache turns repeat
valuations into pure lookups), and the persistent worker pool. Every
fan-out runs on a worker pool: an engine without one leases a call-scoped
pool that pays process creation on every call, while a persistent pool
pays it once and then streams only chunk descriptors.
All engine configurations produce bit-identical values by construction —
including the evaluation census — and only the wall-clock changes.

The pool speedup gates are hardware-conditioned: they only bind when the
machine actually has ``ENGINE_WORKERS`` cores (CI runners do; a 1-core
sandbox reports the ratios without asserting them).

The third experiment (T-flat) gates the driver's per-job overhead on a
long-lived pool, whose subset memo fills up as a service runs. A fresh
engine adopts a pool and runs one service-sized job (three
permutations of a fresh seed, one wave each) over a cheap game; the median
job time with a ~50k-entry memo must stay within 1.5x of the median with
a ~1k-entry memo. Jobs alternate between the two pools, so host drift hits
both sides alike.

Sizes are env-tunable so CI can smoke-test the bench in seconds:
``REPRO_BENCH_SIZES=30,60`` and ``REPRO_BENCH_ENGINE_N=24``
``REPRO_BENCH_ENGINE_PERMS=4``.
"""

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.importance import (
    SubsetUtility,
    Utility,
    ValuationEngine,
    WorkerPool,
    influence_importance,
    knn_shapley,
    loo_importance,
    shapley_mc,
)
from repro.learn import LogisticRegression
from repro.viz import format_records


def _env_sizes(name: str, default: list[int]) -> list[int]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    return [int(part) for part in raw.split(",") if part.strip()]


SIZES = _env_sizes("REPRO_BENCH_SIZES", [50, 100, 200, 400])
# Env-overridden sizes mean a smoke run (CI): keep the exact invariants but
# skip the scaling-shape assertions, which only hold at real sizes.
SMOKE = bool(os.environ.get("REPRO_BENCH_SIZES", "").strip())
N_VALID = 50
MC_PERMUTATIONS = 3

ENGINE_N = int(os.environ.get("REPRO_BENCH_ENGINE_N", "80"))
ENGINE_PERMUTATIONS = int(os.environ.get("REPRO_BENCH_ENGINE_PERMS", "8"))
ENGINE_WORKERS = 4


def _effective_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def time_methods(n: int) -> dict:
    X, y = make_classification(n=n + N_VALID, n_features=4, seed=1)
    Xtr, ytr = X[:n], y[:n]
    Xv, yv = X[n:], y[n:]
    row: dict = {"n_train": n}

    start = time.perf_counter()
    knn_shapley(Xtr, ytr, Xv, yv, k=5)
    row["knn_shapley_s"] = round(time.perf_counter() - start, 4)

    model = LogisticRegression(max_iter=60).fit(Xtr, ytr)
    start = time.perf_counter()
    influence_importance(model, Xtr, ytr, Xv, yv)
    row["influence_s"] = round(time.perf_counter() - start, 4)

    utility = Utility(LogisticRegression(max_iter=30), Xtr, ytr, Xv, yv)
    start = time.perf_counter()
    loo_importance(utility)
    row["loo_s"] = round(time.perf_counter() - start, 4)
    row["loo_retrainings"] = utility.n_evaluations

    utility = Utility(LogisticRegression(max_iter=30), Xtr, ytr, Xv, yv)
    start = time.perf_counter()
    shapley_mc(
        utility,
        n_permutations=MC_PERMUTATIONS,
        truncation_tolerance=0.02,
        seed=0,
    )
    row["tmc_s"] = round(time.perf_counter() - start, 4)
    row["tmc_retrainings"] = utility.n_evaluations
    # Untruncated MC would need n retrainings per permutation.
    row["tmc_savings"] = round(
        1.0 - row["tmc_retrainings"] / (MC_PERMUTATIONS * n), 3
    )
    return row


def run_scaling() -> list[dict]:
    return [time_methods(n) for n in SIZES]


def test_scalability(benchmark, write_report):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    write_report("scalability", format_records(rows), records=rows)

    for row in rows:
        # LOO cost is exactly n + 1 utility evaluations.
        assert row["loo_retrainings"] == row["n_train"] + 1
        if not SMOKE:
            # Closed-form methods are much cheaper than n+1 retrainings.
            assert row["knn_shapley_s"] < row["loo_s"]
            assert row["influence_s"] < row["loo_s"]

    if SMOKE:
        return
    first, last = rows[0], rows[-1]
    # The absolute wall-clock gap between LOO and KNN-Shapley widens with n.
    assert (last["loo_s"] - last["knn_shapley_s"]) > (
        first["loo_s"] - first["knn_shapley_s"]
    )
    # Truncation savings grow with n (the utility saturates earlier,
    # relatively speaking).
    assert last["tmc_savings"] >= first["tmc_savings"]


# --------------------------------------------------------------------- #
# T-engine: fan-out and memoization on the shared valuation engine      #
# --------------------------------------------------------------------- #


def _engine_task():
    X, y = make_classification(n=ENGINE_N + N_VALID, n_features=4, seed=1)
    return Utility(
        LogisticRegression(max_iter=30),
        X[:ENGINE_N], y[:ENGINE_N], X[ENGINE_N:], y[ENGINE_N:],
    )


def _timed_run(engine, label: str) -> dict:
    start = time.perf_counter()
    result = shapley_mc(
        None, n_permutations=ENGINE_PERMUTATIONS, seed=0, engine=engine
    )
    elapsed = time.perf_counter() - start
    cache = result.extras["cache"]
    return {
        "config": label,
        "wall_s": round(elapsed, 4),
        "n_evaluations": result.extras["n_evaluations"],
        "cache_hits": cache["hits"],
        "cache_hit_rate": round(cache["hit_rate"], 4),
        "values": result.values,
        "_elapsed": elapsed,
    }


def run_engine_sweep() -> list[dict]:
    serial = _timed_run(ValuationEngine(_engine_task(), n_workers=1), "serial_cold")
    # No pool: the run leases a call-scoped one, paying its setup inside.
    fanned_engine = ValuationEngine(_engine_task(), n_workers=ENGINE_WORKERS)
    fanned = _timed_run(fanned_engine, f"parallel{ENGINE_WORKERS}_cold")
    # Same engine again: every subset the permutation scan needs is cached.
    warm = _timed_run(fanned_engine, f"parallel{ENGINE_WORKERS}_warm")

    # The persistent pool: processes forked ONCE (pool_setup_s, reported
    # separately — it amortizes over every later run), then the cold run
    # streams only chunk descriptors.
    pool_utility = _engine_task()
    setup_start = time.perf_counter()
    pool = WorkerPool(pool_utility, n_workers=ENGINE_WORKERS)
    pool_setup_s = time.perf_counter() - setup_start
    pool_cold = _timed_run(
        ValuationEngine(pool_utility, n_workers=ENGINE_WORKERS, pool=pool),
        f"pool{ENGINE_WORKERS}_cold",
    )
    pool_cold["pool_setup_s"] = round(pool_setup_s, 4)
    # A *fresh* engine on the same warm pool: the pool's subset memo,
    # which the fresh engine shares, answers everything — the service
    # runtime's repeat-job case.
    pool_warm = _timed_run(
        ValuationEngine(_engine_task(), n_workers=ENGINE_WORKERS, pool=pool),
        f"pool{ENGINE_WORKERS}_warm",
    )
    pool.close()

    # A convergence-stopped run on a fresh engine, for the stopping column.
    converged_engine = ValuationEngine(_engine_task(), n_workers=1)
    start = time.perf_counter()
    converged = shapley_mc(
        None,
        n_permutations=ENGINE_PERMUTATIONS * 8,
        seed=0,
        convergence_tolerance=0.05,
        check_every=ENGINE_PERMUTATIONS,
        engine=converged_engine,
    )
    rows = [serial, fanned, warm, pool_cold, pool_warm]
    rows.append(
        {
            "config": "serial_converged",
            "wall_s": round(time.perf_counter() - start, 4),
            "n_evaluations": converged.extras["n_evaluations"],
            "cache_hits": converged.extras["cache"]["hits"],
            "cache_hit_rate": round(converged.extras["cache"]["hit_rate"], 4),
            "values": converged.values,
            "_elapsed": 0.0,
            "stopped_early": converged.extras["stopped_early"],
            "n_permutations_run": converged.extras["n_permutations_run"],
        }
    )
    return rows


def test_engine_speedup(benchmark, write_report):
    rows = benchmark.pedantic(run_engine_sweep, rounds=1, iterations=1)
    serial, fanned, warm, pool_cold, pool_warm, converged = rows

    # Determinism across every configuration: bit-identical values.
    for row in (fanned, warm, pool_cold, pool_warm):
        assert np.array_equal(serial["values"], row["values"])
    # ... and a bit-identical evaluation census: the pooled cold run
    # retrains exactly as often as serial (duplicate subsets evaluated by
    # independent workers are charged once, like any other cache hit).
    assert pool_cold["n_evaluations"] == serial["n_evaluations"]
    # A fresh engine on the warm pool retrains nothing at all.
    assert pool_warm["n_evaluations"] == 0

    cores = _effective_cores()
    speedups = {
        "fanout_speedup": serial["_elapsed"] / max(fanned["_elapsed"], 1e-9),
        "warm_cache_speedup": serial["_elapsed"] / max(warm["_elapsed"], 1e-9),
        "pool_cold_speedup": serial["_elapsed"]
        / max(pool_cold["_elapsed"], 1e-9),
        "pool_warm_speedup": serial["_elapsed"]
        / max(pool_warm["_elapsed"], 1e-9),
        "pool_vs_lease_cold": fanned["_elapsed"]
        / max(pool_cold["_elapsed"], 1e-9),
    }
    report_rows = []
    for row in rows:
        cleaned = {
            k: v for k, v in row.items() if k not in ("values", "_elapsed")
        }
        report_rows.append(cleaned)
    summary = dict(
        {k: round(v, 4) for k, v in speedups.items()},
        n_train=ENGINE_N,
        n_permutations=ENGINE_PERMUTATIONS,
        n_workers=ENGINE_WORKERS,
        effective_cores=cores,
        identical_values=True,
        identical_census=True,
    )
    text = format_records(report_rows) + "\n" + format_records([summary])
    write_report(
        "engine_speedup", text, records={"runs": report_rows, "summary": summary}
    )

    # Cold runs must actually retrain; the warm run must be almost pure
    # cache traffic — zero new model fits and a (near-)unity hit rate.
    assert serial["cache_hit_rate"] < 1.0
    assert warm["cache_hit_rate"] > 0.0
    assert warm["n_evaluations"] == fanned["n_evaluations"]  # no new fits
    # Memoization at n_workers=4 beats the cold serial path ≥ 2×. (Fan-out
    # speedup is reported, not asserted: it depends on available cores.)
    assert speedups["warm_cache_speedup"] >= 2.0
    # The pool's cold-start gates only bind on hardware that can actually
    # run ENGINE_WORKERS processes at once — CI runners can; a single-core
    # sandbox just reports the ratios. Smoke sizes (tiny chunks, fixed
    # per-chunk overhead) get the softer CI gate; real sizes must hit 3x.
    if cores >= ENGINE_WORKERS:
        assert speedups["pool_cold_speedup"] > (1.5 if SMOKE else 3.0)
    # Convergence stopping must spend fewer evaluations than its budget
    # (8× the base permutation count) would imply.
    assert converged["n_permutations_run"] <= ENGINE_PERMUTATIONS * 8


# --------------------------------------------------------------------- #
# T-flat: per-job driver overhead against the pool memo's size          #
# --------------------------------------------------------------------- #

#: Memo sizes of the flat-overhead gate, and the largest allowed ratio of
#: their median job times.
FLAT_SMALL = 1_000
FLAT_LARGE = 50_000
FLAT_MAX_RATIO = 1.5
#: Timed jobs per pool, after untimed warm-up jobs.
FLAT_JOBS = 25
FLAT_WARMUP = 2
FLAT_N = 60
FLAT_WORKERS = 2


def _flat_game() -> SubsetUtility:
    """A cheap game, so a job's time is the driver's overhead, not fits."""
    weights = np.random.default_rng(5).normal(size=FLAT_N)

    def func(indices):
        return float(np.tanh(weights[np.asarray(indices, dtype=int)].sum()))

    return SubsetUtility(func, FLAT_N)


def _flat_pool(game: SubsetUtility, entries: int) -> WorkerPool:
    """A pool whose memo holds about ``entries`` distinct prefixes.

    The engine that fills it raises the memo's bound above ``entries``,
    so none of them is evicted.
    """
    pool = WorkerPool(game, n_workers=FLAT_WORKERS)
    filler = ValuationEngine(
        game, n_workers=FLAT_WORKERS, pool=pool, cache_size=2 * FLAT_LARGE
    )
    filler.run_permutations(entries // (FLAT_N - 1), seed=entries)
    return pool


def _ignore_progress(progress: dict) -> None:
    """A progress callback makes each ``check_every`` ordering its own
    wave, as the service's valuation handler does."""


def _flat_job(pool: WorkerPool, game: SubsetUtility, seed: int) -> float:
    """Seconds for a fresh engine to adopt ``pool`` and run one job."""
    started = time.perf_counter()
    engine = ValuationEngine(game, n_workers=FLAT_WORKERS, pool=pool)
    engine.run_permutations(
        3, seed=seed, check_every=1, progress_callback=_ignore_progress
    )
    return time.perf_counter() - started


def run_flat_overhead() -> dict:
    game = _flat_game()
    pools = {
        "small": _flat_pool(game, FLAT_SMALL),
        "large": _flat_pool(game, FLAT_LARGE),
    }
    try:
        before = {name: len(pool.memo.data) for name, pool in pools.items()}
        times: dict[str, list[float]] = {name: [] for name in pools}
        seed = 0
        for round_ in range(FLAT_WARMUP + FLAT_JOBS):
            names = list(pools) if round_ % 2 == 0 else list(pools)[::-1]
            for name in names:
                seed += 1  # a fresh seed: its prefixes need the workers
                elapsed = _flat_job(pools[name], game, seed)
                if round_ >= FLAT_WARMUP:
                    times[name].append(elapsed)
        after = {name: len(pool.memo.data) for name, pool in pools.items()}
    finally:
        for pool in pools.values():
            pool.close()
    small_ms = 1e3 * float(np.median(times["small"]))
    large_ms = 1e3 * float(np.median(times["large"]))
    return {
        "small_memo": [before["small"], after["small"]],
        "large_memo": [before["large"], after["large"]],
        "small_median_ms": round(small_ms, 3),
        "large_median_ms": round(large_ms, 3),
        "ratio": round(large_ms / small_ms, 3),
        "max_ratio": FLAT_MAX_RATIO,
        "n_jobs": FLAT_JOBS,
        "n_train": FLAT_N,
        "n_workers": FLAT_WORKERS,
    }


def test_flat_pool_overhead(benchmark, write_report):
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("the closure game rides on fork inheritance")
    summary = benchmark.pedantic(run_flat_overhead, rounds=1, iterations=1)
    write_report(
        "pool_flat_overhead", format_records([summary]), records=summary
    )
    # Per-job driver overhead does not grow with the memo: a 50x larger
    # memo leaves the median job time within FLAT_MAX_RATIO.
    assert summary["large_memo"][0] >= FLAT_LARGE * 0.9
    assert summary["ratio"] <= FLAT_MAX_RATIO
