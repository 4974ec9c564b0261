"""Exactness and efficiency tests for closed-form KNN-Shapley."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.importance import knn_shapley, knn_shapley_brute_force, knn_utility


def random_task(seed, n_train=7, n_valid=3, n_features=2, n_classes=2):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(n_train, n_features)),
        rng.integers(0, n_classes, size=n_train),
        rng.normal(size=(n_valid, n_features)),
        rng.integers(0, n_classes, size=n_valid),
    )


class TestExactness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_brute_force(self, seed, k):
        X, y, Xv, yv = random_task(seed)
        closed = knn_shapley(X, y, Xv, yv, k=k).values
        brute = knn_shapley_brute_force(X, y, Xv, yv, k=k).values
        assert np.allclose(closed, brute, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [3, 7])
    def test_fewer_points_than_k_matches_brute_force(self, n, k):
        """Regression test: the recursion's base case needs a min(K, n)/K
        factor when n < K (the paper states it for n ≥ K only)."""
        rng = np.random.default_rng(n * 100 + k)
        X = rng.normal(size=(n, 2))
        y = rng.integers(0, 2, size=n)
        Xv = rng.normal(size=(4, 2))
        yv = rng.integers(0, 2, size=4)
        closed = knn_shapley(X, y, Xv, yv, k=k).values
        brute = knn_shapley_brute_force(X, y, Xv, yv, k=k).values
        assert np.allclose(closed, brute, atol=1e-10)
        v_full = knn_utility(np.arange(n), X, y, Xv, yv, k=k)
        assert closed.sum() == pytest.approx(v_full, abs=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_multiclass_matches_brute_force(self, seed):
        X, y, Xv, yv = random_task(seed, n_classes=3)
        closed = knn_shapley(X, y, Xv, yv, k=3).values
        brute = knn_shapley_brute_force(X, y, Xv, yv, k=3).values
        assert np.allclose(closed, brute, atol=1e-10)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_efficiency_axiom(self, seed):
        """Σφ_i must equal v(N) − v(∅) = v(N) exactly, for any data."""
        X, y, Xv, yv = random_task(seed, n_train=12, n_valid=4)
        result = knn_shapley(X, y, Xv, yv, k=3)
        v_full = knn_utility(np.arange(12), X, y, Xv, yv, k=3)
        assert result.values.sum() == pytest.approx(v_full, abs=1e-10)


class TestSemantics:
    def test_matching_neighbor_positive_value(self):
        """A training point identical to a validation point with the same
        label must receive positive value."""
        X = np.asarray([[0.0], [5.0], [9.0]])
        y = np.asarray([0, 1, 1])
        result = knn_shapley(X, y, np.asarray([[0.1]]), np.asarray([0]), k=1)
        assert result.values[0] > 0

    def test_mislabeled_nearest_negative_value(self):
        X = np.asarray([[0.0], [5.0], [9.0]])
        y = np.asarray([1, 0, 0])  # nearest to query has the wrong label
        result = knn_shapley(X, y, np.asarray([[0.1]]), np.asarray([0]), k=1)
        assert result.values[0] < 0

    def test_detects_label_errors_above_chance(self):
        rng = np.random.default_rng(1)
        n = 100
        X = rng.normal(size=(n, 2))
        y = (X[:, 0] > 0).astype(int)
        dirty = y.copy()
        flipped = rng.choice(n, size=15, replace=False)
        dirty[flipped] = 1 - dirty[flipped]
        Xv = rng.normal(size=(60, 2))
        yv = (Xv[:, 0] > 0).astype(int)
        result = knn_shapley(X, dirty, Xv, yv, k=5)
        mask = np.zeros(n, bool)
        mask[flipped] = True
        assert result.detection_precision_at_k(mask, 15) > 0.45  # ≫ 15% base rate

    def test_invalid_k_raises(self):
        X, y, Xv, yv = random_task(0)
        with pytest.raises(ValueError):
            knn_shapley(X, y, Xv, yv, k=0)

    def test_empty_training_set_raises(self):
        X, y, Xv, yv = random_task(0)
        with pytest.raises(ValueError, match="training set is empty"):
            knn_shapley(X[:0], y[:0], Xv, yv, k=1)

    @pytest.mark.parametrize("block_size", [1, 2, 5, 1000])
    def test_block_size_does_not_change_values(self, block_size):
        X, y, Xv, yv = random_task(4, n_train=20, n_valid=11)
        base = knn_shapley(X, y, Xv, yv, k=3).values
        blocked = knn_shapley(X, y, Xv, yv, k=3, block_size=block_size).values
        assert np.allclose(blocked, base, atol=1e-12)

    def test_invalid_block_size_raises(self):
        X, y, Xv, yv = random_task(0)
        with pytest.raises(ValueError):
            knn_shapley(X, y, Xv, yv, block_size=0)

    def test_length_mismatch_raises(self):
        X, y, Xv, yv = random_task(0)
        with pytest.raises(ValueError):
            knn_shapley(X, y[:-1], Xv, yv)

    def test_values_aligned_with_training_order(self):
        """Permuting the training set permutes the values identically."""
        X, y, Xv, yv = random_task(3, n_train=10)
        base = knn_shapley(X, y, Xv, yv, k=3).values
        perm = np.random.default_rng(0).permutation(10)
        shuffled = knn_shapley(X[perm], y[perm], Xv, yv, k=3).values
        assert np.allclose(shuffled, base[perm], atol=1e-12)


class TestVectorisedEquivalence:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_vectorised_matches_scalar_recursion(self, seed):
        """The production (vectorised) path equals the reference scalar
        recursion to 1e-12 on random instances (the two associate their
        sums differently, so the last bit can differ)."""
        from repro.importance.knn_shapley import _single_test_shapley
        from repro.learn.models.knn import pairwise_distances

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        n_valid = int(rng.integers(1, 8))
        k = int(rng.integers(1, 7))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 3, size=n)
        Xv = rng.normal(size=(n_valid, 3))
        yv = rng.integers(0, 3, size=n_valid)
        fast = knn_shapley(X, y, Xv, yv, k=k).values
        distances = pairwise_distances(Xv, X)
        slow = np.zeros(n)
        for t in range(n_valid):
            order = np.argsort(distances[t], kind="stable")
            slow[order] += _single_test_shapley(y[order], yv[t], k)
        slow /= n_valid
        assert np.allclose(fast, slow, atol=1e-12)


class TestResultContainer:
    def test_lowest_returns_smallest(self):
        from repro.importance import ImportanceResult

        result = ImportanceResult("x", np.asarray([3.0, -1.0, 2.0]))
        assert result.lowest(2).tolist() == [1, 2]

    def test_highest_returns_largest(self):
        from repro.importance import ImportanceResult

        result = ImportanceResult("x", np.asarray([3.0, -1.0, 2.0]))
        assert result.highest(1).tolist() == [0]

    def test_rank_inverse_of_order(self):
        from repro.importance import ImportanceResult

        result = ImportanceResult("x", np.asarray([3.0, -1.0, 2.0]))
        assert result.rank().tolist() == [2, 0, 1]

    def test_recall_at_k(self):
        from repro.importance import ImportanceResult

        result = ImportanceResult("x", np.asarray([0.1, 5.0, 0.2, 5.0]))
        mask = np.asarray([True, False, True, False])
        assert result.detection_recall_at_k(mask, 2) == 1.0

    def test_mask_length_mismatch_raises(self):
        from repro.importance import ImportanceResult

        result = ImportanceResult("x", np.asarray([1.0]))
        with pytest.raises(ValueError):
            result.detection_precision_at_k(np.asarray([True, False]), 1)
