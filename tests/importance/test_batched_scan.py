"""Permutation scans that fit the next B prefixes in one kernel call.

A batched scan must equal the prefix-by-prefix scan (B = 1) in everything
it reports: values, memo, evaluation census, stop point and cache stats;
a list of subsets evaluated in batches must equal one subset at a time.
Fits past a truncation point are speculative and counted only as such. A
utility or model that overrides the call the batch replaces keeps being
called once per subset.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.importance.engine as engine_mod
from repro.importance import Utility, ValuationEngine, shapley_mc
from repro.importance.utility import batch_evaluator
from repro.learn import LogisticRegression


def identify_game(seed: int = 0, n_train: int = 60, cls=Utility, model=None):
    """A noisy linear rule with 20% flipped training labels, as in Identify."""
    rng = np.random.default_rng(seed)
    n = n_train + 50
    x = rng.normal(size=(n, 4))
    y = (x @ np.array([1.5, -1.0, 0.8, 0.0]) + 0.5 * rng.normal(size=n) > 0).astype(int)
    y_train = y[:n_train].copy()
    flipped = rng.choice(n_train, n_train // 5, replace=False)
    y_train[flipped] = 1 - y_train[flipped]
    return cls(
        model if model is not None else LogisticRegression(max_iter=100),
        x[:n_train], y_train, x[n_train:], y[n_train:],
    )


@pytest.fixture
def per_prefix(monkeypatch):
    """Make every scan read one prefix at a time."""

    def scan_one_at_a_time():
        monkeypatch.setattr(engine_mod, "_FIRST_BATCH", 1)
        monkeypatch.setattr(engine_mod, "_MAX_BATCH", 1)

    return scan_one_at_a_time


def valuation(utility, **knobs):
    engine = ValuationEngine(utility, **knobs.pop("engine", {}))
    run = engine.run_permutations(**knobs)
    return run, engine.cache.stats(), engine


RUNS = {
    "truncated, budgeted": dict(
        n_permutations=40, seed=3, truncation_tolerance=0.02, max_evals=150,
        check_every=1,
    ),
    "truncated": dict(n_permutations=6, seed=4, truncation_tolerance=0.02),
    "untruncated": dict(n_permutations=3, seed=5),
    "antithetic, small memo": dict(
        n_permutations=8, seed=6, truncation_tolerance=0.02, antithetic=True,
        engine={"cache_size": 25},
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_batched_scan_equals_the_prefix_by_prefix_scan(name, per_prefix):
    batched, batched_cache, __ = valuation(identify_game(), **dict(RUNS[name]))
    per_prefix()
    single, single_cache, __ = valuation(identify_game(), **dict(RUNS[name]))
    assert np.array_equal(batched.values(), single.values())
    assert np.array_equal(batched.sumsq, single.sumsq)
    for key in ("n_evaluations", "n_permutations_run", "stop_reason", "truncated_scans"):
        assert batched.census()[key] == single.census()[key], key
    assert batched_cache == single_cache
    assert single.speculative_fits == 0
    assert batched.speculative_fits >= 0
    if "truncation_tolerance" not in RUNS[name]:
        assert batched.speculative_fits == 0


@pytest.mark.parametrize("cache_size", [32768, 25], ids=["memo", "small memo"])
def test_a_batched_subset_list_equals_one_subset_at_a_time(cache_size):
    rng = np.random.default_rng(8)
    subsets = [np.flatnonzero(rng.random(60) < 0.5) for __ in range(70)]
    # Repeats, a single-class subset and the empty one.
    subsets += subsets[::7] + [[3], [], [0, 1, 2]]

    def evaluate(many):
        utility = identify_game()
        engine = ValuationEngine(utility, cache_size=cache_size)
        if many:
            values = engine.evaluate_many(subsets)
        else:
            values = [engine.evaluate(subset) for subset in subsets]
        return np.asarray(values), utility.n_evaluations, engine.cache.stats()

    batched, single = evaluate(many=True), evaluate(many=False)
    assert np.array_equal(batched[0], single[0])
    assert batched[1:] == single[1:]


def test_speculative_fits_are_counted_apart_from_evaluations():
    utility = identify_game()
    before = utility.n_evaluations
    result = shapley_mc(
        None, n_permutations=40, truncation_tolerance=0.02, seed=3,
        max_evals=150, check_every=1, engine=ValuationEngine(utility),
    )
    census = result.extras["census"]
    assert census["speculative_fits"] > 0
    assert census["truncated_scans"] > 0
    # v(N) is fitted once before the run; speculative fits are not counted.
    assert census["n_evaluations"] + 1 == utility.n_evaluations - before


@pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)
def test_pooled_batched_scan_equals_serial():
    knobs = dict(n_permutations=8, seed=7, truncation_tolerance=0.02, check_every=4)
    serial, __, __ = valuation(identify_game(), **knobs)
    with ValuationEngine(identify_game(), n_workers=2, pool=True) as engine:
        pooled = engine.run_permutations(**knobs)
    # A chunk fits what its own known values lack, so its speculative fits
    # may differ from the driver's; what it credits may not.
    assert np.array_equal(pooled.values(), serial.values())
    assert pooled.n_evaluations == serial.n_evaluations


def test_only_a_plain_two_class_utility_fits_in_batches():
    assert batch_evaluator(identify_game()) is not None

    class Counted(Utility):
        def evaluate(self, indices):
            return super().evaluate(indices)

    assert batch_evaluator(identify_game(cls=Counted)) is None
    three = identify_game()
    three.y_train = three.y_train + (np.arange(three.n_train) % 7 == 0)
    assert batch_evaluator(three) is None


def test_an_overridden_evaluate_is_called_once_per_subset():
    calls = []

    class Counted(Utility):
        def evaluate(self, indices):
            calls.append(tuple(indices))
            return super().evaluate(indices)

    utility = identify_game(cls=Counted)
    run, stats, engine = valuation(
        utility, n_permutations=10, seed=2, truncation_tolerance=0.02
    )
    # Every call but the free v(∅) is an evaluation the run counts (v(N),
    # its other anchor, included): none is speculative.
    assert len(calls) == len(set(calls)) == run.n_evaluations + 1
    assert run.speculative_fits is None
    assert "speculative_fits" not in run.census()


def test_an_overridden_fit_is_called_once_per_subset():
    fitted = []

    class Counted(LogisticRegression):
        def fit(self, X, y, sample_weight=None):
            fitted.append(len(X))
            return super().fit(X, y, sample_weight)

    utility = identify_game(model=Counted(max_iter=100))
    run, stats, engine = valuation(
        utility, n_permutations=10, seed=2, truncation_tolerance=0.02
    )
    # Every evaluated subset sits in the memo once; single-class ones (and
    # the empty one) are answered without a fit.
    two_class = [
        key for key in engine.cache.memo.data
        if len(set(utility.y_train[list(key)])) == 2
    ]
    assert len(fitted) == len(two_class)
