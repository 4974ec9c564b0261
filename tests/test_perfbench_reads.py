"""What the ``perfbench`` workloads read from the library, on tiny inputs.

``perfbench/identify_mc.py``, ``perfbench/debug_pipeline.py`` and
``perfbench/serve_jobs.py`` check their results through these fields; a
rename would otherwise surface only in a benchmark run.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro.core as nde
import repro.importance.engine as engine_mod
from repro.datasets import generate_hiring_data
from repro.importance import SubsetUtility, Utility, ValuationEngine, shapley_mc
from repro.learn import LogisticRegression
from repro.learn.model_selection import split_frame
from repro.obs import RunLedger
from repro.pipeline import execute, letters_pipeline
from repro.service import (
    JobJournal,
    JobRequest,
    JobRuntime,
    JobState,
    register_valuation,
)


def tanh_game(n: int = 8, seed: int = 3) -> SubsetUtility:
    w = np.random.default_rng(seed).normal(size=n)
    return SubsetUtility(
        lambda idx: float(np.tanh(w[np.asarray(idx, dtype=np.int64)].sum())), n
    )


def test_identify_mc_reads():
    utility, budget, max_permutations = tanh_game(), 20, 50
    engine = ValuationEngine(utility)
    before = utility.n_evaluations
    result = shapley_mc(
        None,
        n_permutations=max_permutations,
        truncation_tolerance=0.01,
        seed=0,
        max_evals=budget,
        check_every=1,
        engine=engine,
    )
    census = result.extras["census"]
    assert np.all(np.isfinite(result.values))
    assert 0 < census["n_permutations_run"] < max_permutations
    assert result.extras["stop_reason"] == "eval_budget"
    assert census["n_evaluations"] >= budget
    # shapley_mc evaluates v(N) once before the run; the census counts the run.
    assert census["n_evaluations"] + 1 == utility.n_evaluations - before
    assert set(engine.stats()["cache"]) >= {"hits", "misses"}


def test_identify_mc_reads_on_a_batched_utility():
    """The identity above on the utility ``identify_mc`` values, whose scans
    fit prefixes in batches: speculative fits stay out of both counts."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(90, 4))
    y = (x @ np.array([1.5, -1.0, 0.8, 0.0]) + 0.5 * rng.normal(size=90) > 0).astype(int)
    y[rng.choice(60, 12, replace=False)] ^= 1
    utility = Utility(LogisticRegression(max_iter=100), x[:60], y[:60], x[60:], y[60:])
    before = utility.n_evaluations
    result = shapley_mc(
        None,
        n_permutations=50,
        truncation_tolerance=0.02,
        seed=0,
        max_evals=100,
        check_every=1,
        engine=ValuationEngine(utility),
    )
    census = result.extras["census"]
    assert result.extras["stop_reason"] == "eval_budget"
    assert census["truncated_scans"] > 0 and census["speculative_fits"] >= 0
    assert census["n_evaluations"] + 1 == utility.n_evaluations - before


def test_debug_pipeline_reads():
    data = generate_hiring_data(n=120, seed=7)
    train_df, valid_df = split_frame(data["letters"], fractions=(0.75, 0.25), seed=1)
    sources = {
        "train_df": train_df,
        "jobdetail_df": data["jobdetail"],
        "social_df": data["social"],
    }
    __, sink = letters_pipeline()
    train = execute(sink, sources, fit=True)
    valid = execute(sink, dict(sources, train_df=valid_df), fit=False)
    importance = nde.datascope(
        train, valid, source="train_df", k=1, method="exact_knn"
    )
    census = importance.extras["valuation"].census
    assert census["n_players"] > 0 and census["n_valid"] == valid.n_rows
    assert importance.extras["compiled"].n_players == census["n_players"]


@pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)
def test_serve_jobs_reads(tmp_path):
    utility = tanh_game()
    runtime = JobRuntime(
        journal=JobJournal(tmp_path / "journal.jsonl"),
        checkpoint_dir=tmp_path / "checkpoints",
        ledger=RunLedger(tmp_path / "ledger.jsonl"),
        max_concurrency=2,
        pool=2,
    )
    register_valuation(runtime, lambda params: ValuationEngine(utility, n_workers=2))
    pool = runtime.pool_registry.lease(utility, 2)

    async def main():
        async with runtime:
            job = runtime.submit(
                JobRequest(
                    kind="valuation",
                    params={"n_permutations": 3, "seed": 0, "check_every": 1},
                    dedup=False,
                )
            )
            return job, await job.wait()

    job, run = asyncio.run(main())
    assert job.state is JobState.COMPLETED
    assert np.all(np.isfinite(run.values()))
    assert run.n_permutations == 3 and run.n_evaluations > 0
    assert job.queue_wait_s >= 0.0
    assert job.finished_at - job.started_at >= 0.0
    assert pool.stats()["supervision"]["worker_restarts"] == 0
