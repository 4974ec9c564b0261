"""The shared valuation engine: legacy equivalence, worker invariance,
cache accounting, and convergence-based stopping.

The legacy implementations embedded below are verbatim copies of the
pre-engine serial estimators; the engine-backed wrappers must reproduce
them bit-for-bit on deterministic set games (and to FP-roundoff on
retraining games, where the engine's canonical sorted-index evaluation
order can flip low bits of the model fit).
"""

from itertools import chain, combinations

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.importance import (
    SubsetCache,
    SubsetUtility,
    Utility,
    ValuationEngine,
    banzhaf_mc,
    beta_shapley_mc,
    beta_weights,
    loo_importance,
    parallel_map,
    shapley_brute_force,
    shapley_mc,
)
from repro.learn import LogisticRegression

# --------------------------------------------------------------------- #
# legacy (pre-engine) serial implementations                            #
# --------------------------------------------------------------------- #


def legacy_shapley_mc(utility, n_permutations=100, truncation_tolerance=0.0, seed=0):
    rng = np.random.default_rng(seed)
    n = utility.n_train
    full = utility.full_score()
    null = utility.evaluate([])
    totals = np.zeros(n)
    counts = np.zeros(n)
    for __ in range(n_permutations):
        order = rng.permutation(n)
        prev = null
        prefix = []
        for step, i in enumerate(order):
            if (
                truncation_tolerance > 0.0
                and step > 0
                and abs(full - prev) <= truncation_tolerance
            ):
                counts[order[step:]] += 1
                break
            prefix.append(int(i))
            current = utility.evaluate(prefix)
            totals[i] += current - prev
            counts[i] += 1
            prev = current
    return totals / np.maximum(counts, 1)


def legacy_banzhaf_mc(utility, n_samples=200, seed=0):
    rng = np.random.default_rng(seed)
    n = utility.n_train
    membership = rng.random((n_samples, n)) < 0.5
    scores = np.empty(n_samples)
    for s in range(n_samples):
        scores[s] = utility.evaluate(np.flatnonzero(membership[s]))
    values = np.zeros(n)
    for i in range(n):
        with_i = membership[:, i]
        n_with = int(with_i.sum())
        if n_with == 0 or n_with == n_samples:
            values[i] = 0.0
            continue
        values[i] = scores[with_i].mean() - scores[~with_i].mean()
    return values


def legacy_beta_shapley_mc(utility, alpha=1.0, beta=16.0, n_permutations=100, seed=0):
    rng = np.random.default_rng(seed)
    n = utility.n_train
    weights = beta_weights(n, alpha, beta) * n
    null = utility.evaluate([])
    totals = np.zeros(n)
    counts = np.zeros(n)
    for __ in range(n_permutations):
        order = rng.permutation(n)
        prev = null
        prefix = []
        for position, i in enumerate(order):
            prefix.append(int(i))
            current = utility.evaluate(prefix)
            totals[i] += weights[position] * (current - prev)
            counts[i] += 1
            prev = current
    return totals / np.maximum(counts, 1)


# --------------------------------------------------------------------- #
# games                                                                 #
# --------------------------------------------------------------------- #


def table_game(n=8, seed=3):
    """Random set game via table lookup — deterministic and order-free."""
    rng = np.random.default_rng(seed)
    table = {
        frozenset(S): float(rng.normal())
        for S in chain.from_iterable(combinations(range(n), k) for k in range(n + 1))
    }
    table[frozenset()] = 0.0
    return SubsetUtility(lambda S: table[frozenset(S)], n)


def additive_game(weights):
    w = np.asarray(weights, dtype=float)
    return SubsetUtility(
        lambda S: float(np.sum(w[np.asarray(sorted(S), dtype=np.int64)]))
        if len(S)
        else 0.0,
        len(w),
    )


def saturating_game(n=12, plateau=3):
    """v(S) = min(|S|, plateau)/plateau — known Shapley value 1/n each
    (symmetry + efficiency), saturating so truncation is exact."""
    return SubsetUtility(lambda S: min(len(S), plateau) / plateau, n)


@pytest.fixture(scope="module")
def model_game_factory():
    X, y = make_classification(n=36, n_features=3, seed=0)

    def factory():
        return Utility(LogisticRegression(max_iter=25), X[:28], y[:28], X[28:], y[28:])

    return factory


# --------------------------------------------------------------------- #
# legacy regression                                                     #
# --------------------------------------------------------------------- #


class TestLegacyEquivalence:
    """Same seed ⇒ engine-backed wrappers == pre-refactor serial values."""

    def test_shapley_bitwise_on_set_game(self):
        expected = legacy_shapley_mc(table_game(), n_permutations=40, seed=5)
        got = shapley_mc(table_game(), n_permutations=40, seed=5).values
        assert np.array_equal(got, expected)

    def test_truncated_shapley_bitwise_on_set_game(self):
        expected = legacy_shapley_mc(
            table_game(), n_permutations=40, truncation_tolerance=0.6, seed=7
        )
        got = shapley_mc(
            table_game(), n_permutations=40, truncation_tolerance=0.6, seed=7
        ).values
        assert np.array_equal(got, expected)

    def test_banzhaf_bitwise_on_set_game(self):
        expected = legacy_banzhaf_mc(table_game(), n_samples=120, seed=2)
        got = banzhaf_mc(table_game(), n_samples=120, seed=2).values
        assert np.array_equal(got, expected)

    def test_beta_shapley_bitwise_on_set_game(self):
        expected = legacy_beta_shapley_mc(
            table_game(), alpha=1.0, beta=16.0, n_permutations=25, seed=9
        )
        got = beta_shapley_mc(
            table_game(), alpha=1.0, beta=16.0, n_permutations=25, seed=9
        ).values
        assert np.array_equal(got, expected)

    def test_shapley_on_retraining_game(self, model_game_factory):
        expected = legacy_shapley_mc(model_game_factory(), n_permutations=3, seed=1)
        got = shapley_mc(model_game_factory(), n_permutations=3, seed=1).values
        assert np.allclose(got, expected, atol=1e-8)

    def test_banzhaf_on_retraining_game(self, model_game_factory):
        expected = legacy_banzhaf_mc(model_game_factory(), n_samples=20, seed=4)
        got = banzhaf_mc(model_game_factory(), n_samples=20, seed=4).values
        assert np.allclose(got, expected, atol=1e-8)


# --------------------------------------------------------------------- #
# worker invariance                                                     #
# --------------------------------------------------------------------- #


class TestWorkerInvariance:
    """Same seed ⇒ identical values whatever the worker count."""

    @pytest.mark.parametrize("trunc", [0.0, 0.6])
    def test_shapley_set_game(self, trunc):
        serial = shapley_mc(
            table_game(), n_permutations=24, truncation_tolerance=trunc, seed=1
        ).values
        fanned = shapley_mc(
            table_game(),
            n_permutations=24,
            truncation_tolerance=trunc,
            seed=1,
            n_workers=4,
        ).values
        assert np.array_equal(serial, fanned)

    def test_shapley_retraining_game(self, model_game_factory):
        serial = shapley_mc(model_game_factory(), n_permutations=3, seed=0).values
        fanned = shapley_mc(
            model_game_factory(), n_permutations=3, seed=0, n_workers=4
        ).values
        assert np.array_equal(serial, fanned)

    def test_banzhaf_and_beta_and_loo(self):
        assert np.array_equal(
            banzhaf_mc(table_game(), n_samples=50, seed=3).values,
            banzhaf_mc(table_game(), n_samples=50, seed=3, n_workers=3).values,
        )
        assert np.array_equal(
            beta_shapley_mc(table_game(), n_permutations=12, seed=6).values,
            beta_shapley_mc(
                table_game(), n_permutations=12, seed=6, n_workers=3
            ).values,
        )
        assert np.array_equal(
            loo_importance(table_game()).values,
            loo_importance(table_game(), n_workers=3).values,
        )

    def test_convergence_stop_is_worker_invariant(self):
        kwargs = dict(
            n_permutations=200, seed=0, convergence_tolerance=0.3, check_every=5
        )
        serial = shapley_mc(table_game(), **kwargs)
        fanned = shapley_mc(table_game(), n_workers=4, **kwargs)
        assert serial.extras["n_permutations_run"] == fanned.extras["n_permutations_run"]
        assert np.array_equal(serial.values, fanned.values)

    def test_parallel_accounts_evaluations(self):
        game = table_game()
        shapley_mc(game, n_permutations=8, seed=0, n_workers=4)
        # Workers report their evaluation counts back to the driver's game.
        assert game.n_evaluations > 0


# --------------------------------------------------------------------- #
# truncation + convergence-based stopping                               #
# --------------------------------------------------------------------- #


class TestConvergence:
    def test_additive_game_stops_at_first_check(self):
        w = [0.4, -1.2, 2.0, 0.1, 0.7]
        result = shapley_mc(
            additive_game(w),
            n_permutations=500,
            seed=0,
            convergence_tolerance=1e-9,
            check_every=5,
        )
        # Additive ⇒ zero-variance marginals ⇒ stderr 0 after any 2 scans.
        assert result.extras["stopped_early"]
        assert result.extras["n_permutations_run"] == 5
        assert result.extras["max_stderr"] <= 1e-9
        assert np.allclose(result.values, w, atol=1e-12)

    def test_stopped_estimate_matches_full_run_with_truncation(self):
        """Truncation + early stopping together on a known-Shapley game."""
        n, tol = 12, 0.02
        full_run = shapley_mc(saturating_game(n), n_permutations=400, seed=0)
        stopped = shapley_mc(
            saturating_game(n),
            n_permutations=400,
            seed=0,
            truncation_tolerance=1e-9,
            convergence_tolerance=tol,
            check_every=10,
        )
        assert stopped.extras["stopped_early"]
        assert stopped.extras["n_permutations_run"] < 400
        assert stopped.extras["truncated_scans"] > 0
        # True Shapley value is 1/n for every point (symmetry+efficiency);
        # the stopped estimate is within the stderr tolerance of both the
        # truth and the full-budget run.
        assert np.allclose(stopped.values, 1.0 / n, atol=3 * tol)
        assert np.allclose(stopped.values, full_run.values, atol=3 * tol)

    def test_tight_tolerance_exhausts_budget(self):
        result = shapley_mc(
            table_game(),
            n_permutations=12,
            seed=0,
            convergence_tolerance=1e-12,
            check_every=4,
        )
        assert not result.extras["stopped_early"]
        assert result.extras["n_permutations_run"] == 12

    def test_stderr_shrinks_with_more_permutations(self):
        game = table_game(n=6, seed=1)
        engine = ValuationEngine(game)
        short = engine.run_permutations(10, seed=0)
        long = engine.run_permutations(100, seed=0)
        assert np.max(long.stderr()) < np.max(short.stderr())


# --------------------------------------------------------------------- #
# cache                                                                 #
# --------------------------------------------------------------------- #


class TestSubsetCache:
    def test_lru_eviction_and_counters(self):
        cache = SubsetCache(max_size=2)
        cache.put((1,), 1.0)
        cache.put((2,), 2.0)
        assert cache.lookup((1,)) == 1.0  # refresh (1,) — (2,) is now LRU
        cache.put((3,), 3.0)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert (2,) not in cache and (1,) in cache and (3,) in cache

    def test_key_is_sorted_tuple(self):
        assert SubsetCache.key([3, 1, 2]) == (1, 2, 3)
        assert SubsetCache.key(np.asarray([2, 0])) == (0, 2)

    def test_zero_size_disables_memoization(self):
        game = table_game(n=5)
        engine = ValuationEngine(game, cache_size=0)
        engine.evaluate([1, 2])
        engine.evaluate([1, 2])
        assert game.n_evaluations == 2
        assert len(engine.cache) == 0


class TestEngineSharing:
    def test_warm_rerun_is_free_and_identical(self):
        game = table_game()
        engine = ValuationEngine(game)
        first = shapley_mc(None, n_permutations=10, seed=0, engine=engine)
        evals_after_first = game.n_evaluations
        second = shapley_mc(None, n_permutations=10, seed=0, engine=engine)
        assert np.array_equal(first.values, second.values)
        assert game.n_evaluations == evals_after_first  # all cache hits
        assert second.extras["cache"]["hit_rate"] > 0.4

    def test_warm_parallel_rerun_answers_from_the_memo(self, model_game_factory):
        """A wave the driver's memo fully answers forks no worker, and its
        hits are counted exactly as a serial warm rerun counts them."""
        serial = ValuationEngine(model_game_factory())
        fanned = ValuationEngine(model_game_factory(), n_workers=2, pool=False)
        for engine in (serial, fanned):
            shapley_mc(None, n_permutations=4, seed=0, engine=engine)
        chunks = fanned.supervision.chunks_completed
        assert chunks > 0
        hits = [serial.cache.hits, fanned.cache.hits]
        warm = [
            shapley_mc(None, n_permutations=4, seed=0, engine=engine)
            for engine in (serial, fanned)
        ]
        assert fanned.supervision.chunks_completed == chunks
        assert np.array_equal(warm[0].values, warm[1].values)
        assert fanned.cache.hits - hits[1] == serial.cache.hits - hits[0] > 0
        assert fanned.utility.n_evaluations == serial.utility.n_evaluations

    def test_cache_shared_across_estimators(self):
        game = table_game()
        engine = ValuationEngine(game)
        loo_importance(None, engine=engine)  # seeds v(N) and all v(N\{i})
        evals = game.n_evaluations
        result = banzhaf_mc(None, n_samples=30, seed=0, engine=engine)
        # Banzhaf's half-density samples overlap LOO's subsets rarely, but
        # the engine counters must reflect whatever sharing occurred and
        # the totals must reconcile: evaluations = misses (no double work).
        stats = result.extras["cache"]
        assert stats["hits"] + stats["misses"] == engine.cache.hits + engine.cache.misses
        assert game.n_evaluations >= evals
        assert stats["misses"] == game.n_evaluations

    def test_extras_report_engine_accounting(self):
        result = shapley_mc(table_game(), n_permutations=5, seed=0)
        for key in ("cache", "n_evaluations", "n_workers", "n_permutations_run"):
            assert key in result.extras
        assert result.extras["cache"]["misses"] > 0

    def test_engine_or_utility_required(self):
        with pytest.raises(ValueError):
            shapley_mc(None, n_permutations=3)
        with pytest.raises(ValueError):
            banzhaf_mc(None, n_samples=5)


# --------------------------------------------------------------------- #
# antithetic pairs                                                      #
# --------------------------------------------------------------------- #


class TestAntithetic:
    def test_exact_on_additive_games(self):
        w = [1.0, -2.0, 0.5, 3.0]
        result = shapley_mc(additive_game(w), n_permutations=7, seed=0, antithetic=True)
        assert np.allclose(result.values, w, atol=1e-12)

    def test_unbiased_against_brute_force(self):
        game = table_game(n=5, seed=11)
        exact = shapley_brute_force(table_game(n=5, seed=11)).values
        estimate = shapley_mc(game, n_permutations=2000, seed=0, antithetic=True).values
        assert np.allclose(estimate, exact, atol=0.12)

    def test_orderings_come_in_reversed_pairs(self):
        engine = ValuationEngine(table_game(n=6))
        orderings = engine._draw_orderings(6, seed=0, antithetic=True)
        for base, mirror in zip(orderings[::2], orderings[1::2]):
            assert np.array_equal(base[::-1], mirror)

    def test_worker_invariant(self):
        serial = shapley_mc(
            table_game(), n_permutations=11, seed=2, antithetic=True
        ).values
        fanned = shapley_mc(
            table_game(), n_permutations=11, seed=2, antithetic=True, n_workers=4
        ).values
        assert np.array_equal(serial, fanned)


# --------------------------------------------------------------------- #
# parallel_map                                                          #
# --------------------------------------------------------------------- #


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(17))
        assert parallel_map(lambda x: x * x, items, n_workers=3) == [
            x * x for x in items
        ]

    def test_serial_fallback(self):
        assert parallel_map(lambda x: -x, [4, 2], n_workers=1) == [-4, -2]

    def test_closures_over_unpicklable_state(self):
        # Closures need no pickling under fork; only results must pickle.
        state = {"offset": 10}
        func = lambda x: x + state["offset"]  # noqa: E731
        assert parallel_map(func, [1, 2, 3], n_workers=2) == [11, 12, 13]
