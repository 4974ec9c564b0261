"""Tests for certain predictions, certain models, and dataset multiplicity."""

import numpy as np
import pytest

from repro.datasets import make_blobs, make_classification, make_regression
from repro.learn import KNeighborsClassifier, LogisticRegression
from repro.uncertainty import (
    approximately_certain_model,
    certain_model_regression,
    certain_model_svm,
    certain_prediction,
    certain_prediction_report,
    cpclean_order,
    distance_intervals,
    from_matrix_with_nans,
    knn_flip_robustness,
    sampled_multiplicity,
)


@pytest.fixture(scope="module")
def incomplete_task():
    X, y = make_classification(n=80, n_features=3, seed=5)
    rng = np.random.default_rng(2)
    Xm = X.copy()
    Xm[rng.random(X.shape) < 0.06] = np.nan
    return from_matrix_with_nans(Xm, y.astype(float)), X, y


class TestCertainPredictions:
    def test_no_missing_everything_certain(self):
        X, y = make_classification(n=40, seed=6)
        ds = from_matrix_with_nans(X, y.astype(float))
        report = certain_prediction_report(ds, X[:10], k=3)
        assert report.certain_fraction == 1.0
        model = KNeighborsClassifier(3).fit(X, y)
        assert np.array_equal(report.labels.astype(int), model.predict(X[:10]))

    def test_certainty_sound_against_sampled_worlds(self, incomplete_task):
        """No sampled world may contradict a 'certain' verdict."""
        ds, X, y = incomplete_task
        report = certain_prediction_report(ds, X[:25], k=3)
        for seed in range(25):
            world = ds.sample_world(seed)
            predictions = KNeighborsClassifier(3).fit(world, y).predict(X[:25])
            disagree = (predictions != report.labels.astype(int)) & report.certain
            assert not disagree.any()

    def test_corner_worlds_respect_certainty(self, incomplete_task):
        ds, X, y = incomplete_task
        report = certain_prediction_report(ds, X[:25], k=3)
        for world in (ds.X.lo, ds.X.hi):
            predictions = KNeighborsClassifier(3).fit(world, y).predict(X[:25])
            disagree = (predictions != report.labels.astype(int)) & report.certain
            assert not disagree.any()

    def test_heavy_missingness_reduces_certainty(self):
        X, y = make_classification(n=60, n_features=3, seed=7)
        rng = np.random.default_rng(0)
        light = X.copy()
        light[rng.random(X.shape) < 0.02] = np.nan
        heavy = X.copy()
        heavy[rng.random(X.shape) < 0.4] = np.nan
        frac_light = certain_prediction_report(
            from_matrix_with_nans(light, y.astype(float)), X[:20], k=3
        ).certain_fraction
        frac_heavy = certain_prediction_report(
            from_matrix_with_nans(heavy, y.astype(float)), X[:20], k=3
        ).certain_fraction
        assert frac_heavy <= frac_light

    def test_accuracy_bounds_bracket_truth(self, incomplete_task):
        ds, X, y = incomplete_task
        report = certain_prediction_report(ds, X[:25], k=3)
        worst, best = report.accuracy_bounds(y[:25])
        assert 0.0 <= worst <= best <= 1.0
        world_acc = float(
            np.mean(
                KNeighborsClassifier(3).fit(ds.sample_world(0), y).predict(X[:25])
                == y[:25]
            )
        )
        assert worst - 1e-9 <= world_acc <= best + 1e-9

    def test_distance_intervals_contain_true_distance(self, incomplete_task):
        ds, X, __ = incomplete_task
        query = X[0]
        intervals = distance_intervals(ds, query)
        world = ds.sample_world(1)
        true_sq = ((world - query) ** 2).sum(axis=1)
        assert np.all(true_sq >= intervals.lo - 1e-9)
        assert np.all(true_sq <= intervals.hi + 1e-9)

    def test_cpclean_order_prioritises_incomplete_rows(self, incomplete_task):
        ds, X, __ = incomplete_task
        order = cpclean_order(ds, X[:20], k=3)
        incomplete = ds.uncertain_cells.any(axis=1)
        n_incomplete = int(incomplete.sum())
        assert incomplete[order[:n_incomplete]].all()


class TestCertainModels:
    def test_regression_no_missing_certain(self):
        X, y, __ = make_regression(n=30, seed=1)
        verdict = certain_model_regression(X, y)
        assert verdict.certain

    def test_regression_irrelevant_missing_feature_certain(self):
        X = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        y = 2.0 * X[:, 0]  # feature 1 irrelevant
        X_nan = X.copy()
        X_nan[3, 1] = np.nan
        verdict = certain_model_regression(X_nan, y)
        assert verdict.certain
        assert verdict.theta is not None

    def test_regression_relevant_missing_feature_uncertain(self):
        X = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
        y = 2.0 * X[:, 0]
        X_nan = X.copy()
        X_nan[3, 0] = np.nan  # missing feature has weight 2
        assert not certain_model_regression(X_nan, y).certain

    def test_regression_noisy_complete_rows_uncertain(self):
        X, y, __ = make_regression(n=40, noise=0.5, seed=2)
        X_nan = X.copy()
        X_nan[0, 0] = np.nan
        assert not certain_model_regression(X_nan, y).certain

    def test_regression_all_rows_missing_uncertain(self):
        X = np.full((3, 2), np.nan)
        assert not certain_model_regression(X, np.zeros(3)).certain

    def test_certain_verdict_never_contradicted_by_worlds(self):
        """When the checker says certain, sampled completions must agree on
        the optimum."""
        X = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.5, 2.0]])
        y = 3.0 * X[:, 0]
        X_nan = X.copy()
        X_nan[4, 1] = np.nan
        verdict = certain_model_regression(X_nan, y)
        if verdict.certain:
            rng = np.random.default_rng(0)
            for __ in range(10):
                world = X_nan.copy()
                world[4, 1] = rng.uniform(-3, 3)
                theta, *rest = np.linalg.lstsq(world, y, rcond=None)
                assert np.allclose(theta, verdict.theta, atol=1e-6)

    def test_svm_separated_incomplete_rows_certain(self):
        X, y = make_blobs(n=60, centers=2, spread=0.3, seed=3)
        X_nan = X.copy()
        # Blank a cell in a row deep inside its cluster: the margin interval
        # stays above 1 only if the column range keeps it non-support; use a
        # tight synthetic case instead.
        X_tight = np.vstack([X, [[100.0, 100.0]]])
        y_tight = np.append(y, 1)
        X_tight_nan = X_tight.copy()
        X_tight_nan[-1, 0] = np.nan
        verdict = certain_model_svm(X_tight_nan, np.where(y_tight == 1, 1.0, -1.0))
        assert verdict.certain in (True, False)  # structural smoke check

    def test_svm_no_missing_certain(self):
        X, y = make_blobs(n=40, centers=2, spread=0.4, seed=4)
        verdict = certain_model_svm(X, np.where(y == 1, 1.0, -1.0))
        assert verdict.certain

    def test_svm_single_class_complete_rows_uncertain(self):
        X = np.asarray([[0.0, 0.0], [1.0, 1.0], [2.0, np.nan]])
        y = np.asarray([1.0, 1.0, -1.0])
        assert not certain_model_svm(X, y).certain

    def test_approximate_certainty_gap_bound_sound(self):
        """The gap bound must dominate the true gap in sampled worlds."""
        X, y, __ = make_regression(n=60, n_features=3, noise=0.2, seed=5)
        X_nan = X.copy()
        X_nan[:3, 0] = np.nan
        ds = from_matrix_with_nans(X_nan, y)
        verdict = approximately_certain_model(ds, l2=0.5, epsilon=1e9)
        theta = verdict.theta
        n = len(y)
        for seed in range(10):
            world = ds.sample_world(seed)

            # Ridge objective used by the checker: ½‖Xθ−y‖²/n + ½λ‖θ‖².
            def objective(t):
                return float(0.5 * np.mean((world @ t - y) ** 2) + 0.25 * (t @ t))

            A = world.T @ world / n + 0.5 * np.eye(3)
            best = np.linalg.solve(A, world.T @ y / n)
            gap = objective(theta) - objective(best)
            assert gap <= verdict.gap_bound + 1e-6

    def test_approximate_certainty_tight_when_no_missing(self):
        X, y, __ = make_regression(n=40, seed=6)
        ds = from_matrix_with_nans(X, y)
        verdict = approximately_certain_model(ds, l2=0.5, epsilon=1e-6)
        assert verdict.certain
        assert verdict.gap_bound == pytest.approx(0.0, abs=1e-9)

    def test_invalid_l2_raises(self):
        X, y, __ = make_regression(n=20, seed=7)
        with pytest.raises(ValueError):
            approximately_certain_model(from_matrix_with_nans(X, y), l2=0.0)


class TestMultiplicity:
    def test_zero_budget_all_robust(self, binary_data):
        Xtr, ytr, Xv, __ = binary_data
        robust, labels = knn_flip_robustness(Xtr, ytr, Xv, k=5, flip_budget=0)
        assert robust.all()
        model = KNeighborsClassifier(5).fit(Xtr, ytr)
        assert np.array_equal(labels, model.predict(Xv))

    def test_robustness_decreases_with_budget(self, binary_data):
        Xtr, ytr, Xv, __ = binary_data
        fractions = []
        for budget in (0, 1, 2, 5):
            robust, __ = knn_flip_robustness(Xtr, ytr, Xv, k=5, flip_budget=budget)
            fractions.append(robust.mean())
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_unanimous_vote_margin_rule(self):
        """5-0 vote: two flips leave 3-2 (still robust); three leave 2-3."""
        Xtr = np.asarray([[0.0]] * 5 + [[10.0]] * 5)
        ytr = np.asarray([0] * 5 + [1] * 5)
        robust, __ = knn_flip_robustness(Xtr, ytr, np.asarray([[0.0]]), k=5, flip_budget=2)
        assert robust[0]
        robust3, __ = knn_flip_robustness(Xtr, ytr, np.asarray([[0.0]]), k=5, flip_budget=3)
        assert not robust3[0]

    def test_flip_certificate_sound_against_adversarial_flip(self, binary_data):
        """For robust points, flipping any single top-k neighbour's label
        must not change the prediction."""
        Xtr, ytr, Xv, __ = binary_data
        robust, labels = knn_flip_robustness(Xtr, ytr, Xv[:10], k=3, flip_budget=1)
        model = KNeighborsClassifier(3).fit(Xtr, ytr)
        __, neighbors = model.kneighbors(Xv[:10])
        for t in range(10):
            if not robust[t]:
                continue
            for neighbor in neighbors[t]:
                y_flip = ytr.copy()
                y_flip[neighbor] = 1 - y_flip[neighbor]
                flipped_prediction = (
                    KNeighborsClassifier(3).fit(Xtr, y_flip).predict(Xv[t : t + 1])[0]
                )
                assert flipped_prediction == labels[t]

    def test_negative_budget_raises(self, binary_data):
        Xtr, ytr, Xv, __ = binary_data
        with pytest.raises(ValueError):
            knn_flip_robustness(Xtr, ytr, Xv, flip_budget=-1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_raises(self, binary_data, k):
        Xtr, ytr, Xv, __ = binary_data
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            knn_flip_robustness(Xtr, ytr, Xv, k=k)

    def test_empty_training_set_raises(self, binary_data):
        Xtr, ytr, Xv, __ = binary_data
        with pytest.raises(ValueError, match="training set is empty"):
            knn_flip_robustness(Xtr[:0], ytr[:0], Xv, k=3)

    def test_sampled_multiplicity_profile(self, binary_data):
        Xtr, ytr, Xv, yv = binary_data
        profile = sampled_multiplicity(
            LogisticRegression(max_iter=40), Xtr, ytr, Xv, yv,
            flip_budget=8, n_worlds=8, seed=0,
        )
        assert profile.predictions.shape == (8, len(Xv))
        assert 0.0 <= profile.robust_fraction <= 1.0
        low, high = profile.accuracy_range
        assert low <= high

    def test_sampled_multiplicity_zero_flips_unanimous(self, binary_data):
        Xtr, ytr, Xv, yv = binary_data
        profile = sampled_multiplicity(
            LogisticRegression(max_iter=40), Xtr, ytr, Xv, yv,
            flip_budget=0, n_worlds=4, seed=0,
        )
        assert profile.robust_fraction == 1.0

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            sampled_multiplicity(
                LogisticRegression(), np.zeros((4, 2)), np.zeros(4), np.zeros((2, 2))
            )
