"""One census per permutation run, read the same way by every record.

A run's census is built once, by :meth:`PermutationRun.census`. The run's
span, its ledger ``valuation`` event and ``shapley_mc``'s ``extras`` (top
level and under ``"census"``) all serialise it, so they agree on every key
for every way a run can stop: ``stopped_early`` means that the
convergence check stopped the run, never that a budget did.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.importance import SubsetUtility, ValuationEngine, shapley_mc
from repro.obs import RunLedger, tracing

CENSUS_KEYS = {
    "n_permutations_run",
    "resumed_from",
    "truncated_scans",
    "stopped_early",
    "converged",
    "stop_reason",
    "max_stderr",
    "n_evaluations",
    "elapsed_s",
}


def additive_game(n: int = 6) -> SubsetUtility:
    """Marginals do not depend on the ordering: stderr is 0 at once."""
    weights = np.linspace(0.5, 1.5, n)
    return SubsetUtility(
        lambda idx: float(weights[np.asarray(idx, dtype=np.int64)].sum()), n
    )


def tanh_game(n: int = 6, seed: int = 3) -> SubsetUtility:
    w = np.random.default_rng(seed).normal(size=n)
    return SubsetUtility(
        lambda idx: float(np.tanh(w[np.asarray(idx, dtype=np.int64)].sum())), n
    )


def recorded_run(tmp_path, game: SubsetUtility, **budget):
    """One ``shapley_mc`` call on a ledgered engine inside a trace window:
    the run, its span attributes, its ledger record and the extras."""
    ledger = RunLedger(tmp_path / "runs.jsonl")
    engine = ValuationEngine(game, ledger=ledger)
    runs = []
    run_permutations = engine.run_permutations

    def capture(*args, **kwargs):
        runs.append(run_permutations(*args, **kwargs))
        return runs[-1]

    engine.run_permutations = capture
    with tracing() as report:
        result = shapley_mc(
            None, n_permutations=20, seed=0, check_every=2, engine=engine, **budget
        )
    (run,) = runs
    (span,) = report.find("engine.run_permutations")
    (record,) = [r for r in ledger.load() if r.kind == "valuation"]
    return run, span.attrs, record, result.extras


@pytest.mark.parametrize(
    "game, budget, stop_reason, stopped_early",
    [
        (additive_game, {"convergence_tolerance": 1e-9}, "converged", True),
        (tanh_game, {"max_evals": 10}, "eval_budget", False),
        (tanh_game, {"deadline_s": 0}, "deadline", False),
    ],
    ids=["converged", "max_evals", "deadline"],
)
def test_every_record_reads_the_one_census(
    tmp_path, game, budget, stop_reason, stopped_early
):
    utility = game()
    run, attrs, record, extras = recorded_run(tmp_path, utility, **budget)
    census = run.census()
    assert set(census) == CENSUS_KEYS
    assert census["stop_reason"] == run.stop_reason == stop_reason
    assert census["stopped_early"] is run.stopped_early is stopped_early
    assert census == {
        "n_permutations_run": run.n_permutations,
        "resumed_from": run.resumed_from,
        "truncated_scans": run.truncated_scans,
        "stopped_early": run.stopped_early,
        "converged": run.converged,
        "stop_reason": run.stop_reason,
        "max_stderr": run.max_stderr,
        "n_evaluations": run.n_evaluations,
        "elapsed_s": run.elapsed_s,
    }
    for key, value in census.items():
        assert attrs[key] == value, key
        assert record.stats[key] == value, key
        assert extras["census"][key] == value, key
        if key != "n_evaluations":
            assert extras[key] == value, key
    # Top-level n_evaluations stays the utility's lifetime count (v(N) is
    # evaluated before the run), and the ledger's "evaluations" this
    # call's count, as the span reports it.
    assert extras["n_evaluations"] == utility.n_evaluations > run.n_evaluations
    assert record.stats["evaluations"] == attrs["evaluations"] == run.n_evaluations


def test_ledger_config_is_the_fingerprinted_config_plus_what_it_leaves_out(
    tmp_path,
):
    __, __, record, __ = recorded_run(tmp_path, tanh_game(), max_evals=10)
    assert record.config == {
        "n_train": 6,
        "seed": 0,
        "n_permutations": 20,
        "truncation_tolerance": 0.0,
        "convergence_tolerance": None,
        "check_every": 2,
        "antithetic": False,
        "n_workers": 1,
        "deadline_s": None,
        "max_evals": 10,
        "checkpoint": None,
    }


def test_a_budget_stop_is_not_an_early_stop_in_any_record(tmp_path):
    run, attrs, record, extras = recorded_run(tmp_path, tanh_game(), max_evals=10)
    assert not run.converged and run.n_permutations < 20
    assert not attrs["stopped_early"]
    assert not record.stats["stopped_early"]
    assert not extras["stopped_early"]
    assert not extras["census"]["stopped_early"]
