"""Unit tests for the model substrate."""

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.datasets import make_blobs, make_classification, make_moons, make_regression
from repro.learn import (
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LinearRegression,
    LinearSVC,
    LogisticRegression,
    MajorityClassifier,
    RandomClassifier,
    RidgeRegression,
    clone,
)
from repro.learn.models import pairwise_distances
from repro.learn.models.logistic import softmax_loss_grad

ALL_CLASSIFIERS = [
    LogisticRegression(),
    KNeighborsClassifier(5),
    GaussianNB(),
    DecisionTreeClassifier(max_depth=6),
    LinearSVC(),
]


@pytest.fixture(scope="module")
def separable():
    X, y = make_classification(n=200, n_features=4, noise=0.2, seed=1)
    return X[:150], y[:150], X[150:], y[150:]


class TestClassifierContract:
    @pytest.mark.parametrize("model", ALL_CLASSIFIERS, ids=lambda m: type(m).__name__)
    def test_learns_separable_data(self, model, separable):
        Xtr, ytr, Xte, yte = separable
        fitted = clone(model).fit(Xtr, ytr)
        assert fitted.score(Xte, yte) > 0.8

    @pytest.mark.parametrize("model", ALL_CLASSIFIERS, ids=lambda m: type(m).__name__)
    def test_predict_before_fit_raises(self, model, separable):
        with pytest.raises(RuntimeError):
            clone(model).predict(separable[0])

    @pytest.mark.parametrize("model", ALL_CLASSIFIERS, ids=lambda m: type(m).__name__)
    def test_string_labels(self, model, separable):
        Xtr, ytr, Xte, yte = separable
        named = np.where(ytr == 1, "pos", "neg")
        fitted = clone(model).fit(Xtr, named)
        predictions = fitted.predict(Xte)
        assert set(predictions) <= {"pos", "neg"}

    @pytest.mark.parametrize(
        "model",
        [LogisticRegression(), KNeighborsClassifier(3), GaussianNB(), DecisionTreeClassifier()],
        ids=lambda m: type(m).__name__,
    )
    def test_predict_proba_rows_sum_to_one(self, model, separable):
        Xtr, ytr, Xte, __ = separable
        probs = clone(model).fit(Xtr, ytr).predict_proba(Xte)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_clone_resets_fitted_state(self, separable):
        Xtr, ytr, *__ = separable
        fitted = LogisticRegression().fit(Xtr, ytr)
        fresh = clone(fitted)
        assert not fresh.is_fitted
        assert fresh.l2 == fitted.l2

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.empty((0, 2)), np.empty(0))

    def test_xy_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            GaussianNB().fit(np.zeros((3, 2)), np.zeros(2))


class TestLogisticRegression:
    def test_multiclass(self):
        X, y = make_blobs(n=300, centers=3, spread=0.8, seed=4)
        model = LogisticRegression().fit(X[:220], y[:220])
        assert model.score(X[220:], y[220:]) > 0.9
        assert model.predict_proba(X[:5]).shape == (5, 3)

    def test_single_class_degenerates_to_constant(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        model = LogisticRegression().fit(X, np.zeros(10, dtype=int))
        assert np.all(model.predict(X) == 0)

    def test_l2_shrinks_weights(self, separable):
        Xtr, ytr, *__ = separable
        weak = LogisticRegression(l2=1e-4).fit(Xtr, ytr)
        strong = LogisticRegression(l2=10.0).fit(Xtr, ytr)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_log_loss_better_for_good_model(self, separable):
        Xtr, ytr, Xte, yte = separable
        good = LogisticRegression().fit(Xtr, ytr)
        shuffled = np.random.default_rng(0).permutation(ytr)
        bad = LogisticRegression().fit(Xtr, shuffled)
        assert good.log_loss(Xte, yte) < bad.log_loss(Xte, yte)

    def test_sample_weight_changes_fit(self, separable):
        Xtr, ytr, *__ = separable
        weights = np.where(ytr == 1, 10.0, 0.1)
        weighted = LogisticRegression().fit(Xtr, ytr, sample_weight=weights)
        plain = LogisticRegression().fit(Xtr, ytr)
        assert np.mean(weighted.predict(Xtr) == 1) > np.mean(plain.predict(Xtr) == 1)


def lbfgs_weights(X, y, l2=1e-3, max_iter=100, sample_weight=None, tight=False):
    """Class-weight rows of a direct scipy L-BFGS solve of the softmax loss
    (the solver every fit used before the two-class Newton path); ``tight``
    drops its stopping tolerances to solve a well-scaled problem exactly."""
    tolerances = {"gtol": 1e-12, "ftol": 0.0} if tight else {}
    classes, y_index = np.unique(y, return_inverse=True)
    result = minimize(
        softmax_loss_grad,
        np.zeros(len(classes) * (X.shape[1] + 1)),
        args=(X, y_index, len(classes), l2, sample_weight),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, **tolerances},
    )
    return result.x.reshape(len(classes), X.shape[1] + 1)


def fitted_weights(model):
    return np.hstack([model.coef_, model.intercept_[:, None]])


def softmax_objective(W, X, y, l2, sample_weight=None):
    """(loss, max-norm of the full softmax gradient) at class weights W."""
    __, y_index = np.unique(y, return_inverse=True)
    loss, grad = softmax_loss_grad(
        W.ravel(), X, y_index, len(W), l2, sample_weight
    )
    return loss, float(np.max(np.abs(grad)))


def predictions(W, X, y):
    return np.unique(y)[np.argmax(X @ W[:, :-1].T + W[:, -1], axis=1)]


def identify_subsets(n_datasets=6, per_dataset=170, seed=0):
    """Seeded Identify-style fits: random subsets of 2–200 training rows
    (both classes present) of a noisy linear rule with 20% flipped labels,
    half of them weighted, each with its 100-row validation split."""
    rng = np.random.default_rng(seed)
    rule = np.array([1.5, -1.0, 0.8, 0.0])
    for __ in range(n_datasets):
        x = rng.normal(size=(300, 4))
        y = (x @ rule + 0.5 * rng.normal(size=300) > 0).astype(int)
        y_train = y[:200].copy()
        flipped = rng.choice(200, 40, replace=False)
        y_train[flipped] = 1 - y_train[flipped]
        drawn = 0
        while drawn < per_dataset:
            rows = rng.choice(200, int(rng.integers(2, 201)), replace=False)
            if len(np.unique(y_train[rows])) < 2:
                continue
            weight = (
                rng.uniform(0.1, 3.0, size=len(rows)) if drawn % 2 else None
            )
            drawn += 1
            yield x[rows], y_train[rows], weight, x[200:], y[200:]


class TestNewtonAgainstLBFGS:
    """Two-class fits solve the binary problem by Newton; the softmax loss
    stays the reference objective, and L-BFGS the reference solver."""

    def test_identify_subsets_reach_the_softmax_optimum(self):
        n_fits = agree = 0
        for X, y, weight, X_valid, y_valid in identify_subsets():
            model = LogisticRegression(max_iter=100).fit(X, y, sample_weight=weight)
            reference = lbfgs_weights(X, y, sample_weight=weight)
            newton_loss, newton_grad = softmax_objective(
                fitted_weights(model), X, y, 1e-3, weight
            )
            lbfgs_loss, __ = softmax_objective(reference, X, y, 1e-3, weight)
            assert newton_loss <= lbfgs_loss + 1e-12
            assert newton_grad <= 1e-6
            assert np.array_equal(model.coef_[0], -model.coef_[1])
            assert model.intercept_.sum() == 0.0
            n_fits += 1
            agree += np.mean(model.predict(X_valid) == y_valid) == np.mean(
                predictions(reference, X_valid, y) == y_valid
            )
        assert n_fits >= 1000
        assert agree >= 0.99 * n_fits

    def test_three_classes_keep_the_lbfgs_solver(self):
        X, y = make_blobs(n=150, centers=3, spread=1.5, seed=2)
        weight = np.random.default_rng(0).uniform(0.5, 2.0, size=len(y))
        for sample_weight in (None, weight):
            model = LogisticRegression(l2=0.01, max_iter=40).fit(
                X, y, sample_weight=sample_weight
            )
            reference = lbfgs_weights(
                X, y, l2=0.01, max_iter=40, sample_weight=sample_weight
            )
            assert np.array_equal(fitted_weights(model), reference)


def duplicated_column(X, y):
    return np.hstack([X, X[:, :1]]), y


def nan_feature(X, y):
    X = X.copy()
    X[5, 1] = np.nan
    return X, y


def inf_feature(X, y):
    X = X.copy()
    X[5, 1] = np.inf
    return X, y


def constant_column(X, y):
    return np.hstack([X, np.full((len(X), 1), 3.0)]), y


def two_rows(X, y):
    rows = [0, int(np.flatnonzero(y != y[0])[0])]
    return X[rows], y[rows]


def scaled_by_1e6(X, y):
    return X * 1e6, y


#: (transform, l2, expected behaviour). Each transform derives its input from
#: one noisy two-class problem. "optimum": the fit is at least as good as
#: L-BFGS on the softmax objective, stationary, and predicts as L-BFGS does.
DEGENERATE_CASES = {
    # H is singular: Newton takes the minimum-norm step, which splits the
    # weight evenly between the copies, as L-BFGS from zero does too.
    "duplicated column, l2=0": (duplicated_column, 0.0, "optimum"),
    # NaN loss at the zero start: all-zero coefficients, no exception.
    "NaN feature": (nan_feature, 1e-3, "zero"),
    "inf feature": (inf_feature, 1e-3, "zero"),
    "constant column": (constant_column, 1e-3, "optimum"),
    "two rows": (two_rows, 1e-3, "optimum"),
    # L-BFGS stops far short of this optimum (its predictions differ);
    # the scaled optimum is the unscaled one with l2 / 1e12.
    "features scaled by 1e6": (scaled_by_1e6, 1e-3, "rescaled optimum"),
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("case", list(DEGENERATE_CASES))
    def test_degenerate_input(self, case):
        transform, l2, expected = DEGENERATE_CASES[case]
        base_X, base_y = make_classification(n=120, n_features=3, noise=0.5, seed=3)
        X, y = transform(base_X, base_y)
        model = LogisticRegression(l2=l2).fit(X, y)
        W = fitted_weights(model)
        if expected == "zero":
            assert np.array_equal(W, np.zeros((2, X.shape[1] + 1)))
            return
        reference = lbfgs_weights(X, y, l2=l2, max_iter=200)
        loss, grad = softmax_objective(W, X, y, l2)
        assert loss <= softmax_objective(reference, X, y, l2)[0] + 1e-12
        assert grad <= 1e-6
        if expected == "optimum":
            assert np.array_equal(model.predict(X), predictions(reference, X, y))
        else:
            optimum = lbfgs_weights(
                base_X, base_y, l2=l2 / 1e12, max_iter=10_000, tight=True
            )
            assert np.allclose(model.coef_ * 1e6, optimum[:, :-1], rtol=1e-5)
            assert np.allclose(model.intercept_, optimum[:, -1], rtol=1e-5)
        if case.startswith("duplicated"):
            assert model.coef_[1, 0] == pytest.approx(model.coef_[1, -1])


class TestSampleWeightValidation:
    @pytest.mark.parametrize(
        "weight, message",
        [
            (np.ones((30, 1)), "1-D"),
            (np.ones(29), "29 entries"),
            (np.r_[np.ones(29), np.nan], "finite"),
            (np.r_[np.ones(29), np.inf], "finite"),
            (-np.ones(30), "non-negative"),
            (np.zeros(30), "positive sum"),
        ],
        ids=["2-D", "wrong length", "NaN", "inf", "negative", "zero sum"],
    )
    def test_invalid_weights_raise(self, weight, message):
        X, y = make_classification(n=30, n_features=3, seed=1)
        with pytest.raises(ValueError, match=message):
            LogisticRegression().fit(X, y, sample_weight=weight)

    def test_zero_weight_rows_are_allowed(self):
        X, y = make_classification(n=30, n_features=3, seed=1)
        weight = np.ones(30)
        weight[:5] = 0.0
        dropped = LogisticRegression().fit(X[5:], y[5:])
        weighted = LogisticRegression().fit(X, y, sample_weight=weight)
        assert np.allclose(weighted.coef_, dropped.coef_)


class TestKNN:
    def test_k_capped_at_train_size(self):
        X = np.asarray([[0.0], [1.0]])
        model = KNeighborsClassifier(n_neighbors=10).fit(X, np.asarray([0, 1]))
        assert model.predict(np.asarray([[0.1]]))[0] == 0

    def test_k1_memorises_training_set(self, separable):
        Xtr, ytr, *__ = separable
        model = KNeighborsClassifier(1).fit(Xtr, ytr)
        assert model.score(Xtr, ytr) == 1.0

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(0)

    def test_kneighbors_returns_sorted_distances(self, separable):
        Xtr, ytr, Xte, __ = separable
        model = KNeighborsClassifier(5).fit(Xtr, ytr)
        distances, __ = model.kneighbors(Xte[:3])
        assert np.all(np.diff(distances, axis=1) >= 0)

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    def test_metrics_supported(self, metric, separable):
        Xtr, ytr, Xte, yte = separable
        model = KNeighborsClassifier(5, metric=metric).fit(Xtr, ytr)
        assert model.score(Xte, yte) > 0.7

    def test_pairwise_euclidean_matches_reference(self, rng):
        A = rng.normal(size=(6, 3))
        B = rng.normal(size=(4, 3))
        D = pairwise_distances(A, B)
        for i in range(6):
            for j in range(4):
                assert np.isclose(D[i, j], np.linalg.norm(A[i] - B[j]))

    def test_unknown_metric_raises(self, rng):
        with pytest.raises(ValueError):
            pairwise_distances(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), "hamming")

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "cosine"])
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, 50])
    def test_chunked_matches_unchunked(self, metric, chunk_size, rng):
        A = rng.normal(size=(13, 4))
        B = rng.normal(size=(9, 4))
        full = pairwise_distances(A, B, metric=metric)
        chunked = pairwise_distances(A, B, metric=metric, chunk_size=chunk_size)
        # Dot-product kernels go through BLAS, whose blocking depends on the
        # operand shape, so chunked results can differ in the last bits.
        assert np.allclose(full, chunked, rtol=1e-12, atol=1e-12)
        assert np.array_equal(
            pairwise_distances(A, B, "manhattan"),
            pairwise_distances(A, B, "manhattan", chunk_size=chunk_size),
        )


class TestDecisionTree:
    def test_fits_nonlinear_boundary(self):
        X, y = make_moons(n=300, noise=0.1, seed=2)
        model = DecisionTreeClassifier(max_depth=8).fit(X[:220], y[:220])
        assert model.score(X[220:], y[220:]) > 0.85

    def test_max_depth_zero_is_majority(self, separable):
        Xtr, ytr, *__ = separable
        model = DecisionTreeClassifier(max_depth=0).fit(Xtr, ytr)
        assert model.depth() == 0
        values, counts = np.unique(ytr, return_counts=True)
        assert np.all(model.predict(Xtr) == values[np.argmax(counts)])

    def test_depth_respects_limit(self, separable):
        Xtr, ytr, *__ = separable
        model = DecisionTreeClassifier(max_depth=3).fit(Xtr, ytr)
        assert model.depth() <= 3

    def test_node_count_odd(self, separable):
        Xtr, ytr, *__ = separable
        model = DecisionTreeClassifier(max_depth=4).fit(Xtr, ytr)
        assert model.node_count() % 2 == 1  # full binary tree

    def test_min_impurity_decrease_prunes(self, separable):
        Xtr, ytr, *__ = separable
        loose = DecisionTreeClassifier(max_depth=8).fit(Xtr, ytr)
        strict = DecisionTreeClassifier(max_depth=8, min_impurity_decrease=0.2).fit(Xtr, ytr)
        assert strict.node_count() <= loose.node_count()


class TestLinearModels:
    def test_ols_recovers_exact_solution(self):
        X, y, w = make_regression(n=100, noise=0.0, seed=5)
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, w, atol=1e-8)
        assert abs(model.intercept_) < 1e-8

    def test_r2_perfect_fit(self):
        X, y, __ = make_regression(n=50, noise=0.0, seed=6)
        assert LinearRegression().fit(X, y).score(X, y) == pytest.approx(1.0)

    def test_ridge_shrinks_towards_zero(self):
        X, y, __ = make_regression(n=60, noise=0.1, seed=7)
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=100.0).fit(X, y)
        assert np.linalg.norm(ridge.coef_) < np.linalg.norm(ols.coef_)

    def test_ridge_alpha_zero_matches_ols(self):
        X, y, __ = make_regression(n=60, noise=0.1, seed=8)
        ols = LinearRegression().fit(X, y)
        ridge = RidgeRegression(alpha=0.0).fit(X, y)
        assert np.allclose(ols.coef_, ridge.coef_, atol=1e-6)

    def test_no_intercept(self):
        X, y, w = make_regression(n=60, noise=0.0, seed=9)
        model = LinearRegression(fit_intercept=False).fit(X, y)
        assert model.intercept_ == 0.0
        assert np.allclose(model.coef_, w, atol=1e-8)

    def test_svc_multiclass_raises(self):
        X, y = make_blobs(n=60, centers=3, seed=1)
        with pytest.raises(ValueError):
            LinearSVC().fit(X, y)

    def test_svc_decision_function_sign_matches_predict(self, separable):
        Xtr, ytr, Xte, __ = separable
        model = LinearSVC().fit(Xtr, ytr)
        scores = model.decision_function(Xte)
        assert np.all((scores >= 0) == (model.predict(Xte) == model.classes_[1]))

    def test_mse_decreases_with_fit_quality(self):
        X, y, __ = make_regression(n=80, noise=0.1, seed=10)
        good = LinearRegression().fit(X, y)
        assert good.mse(X, y) < np.var(y)


class TestBaselines:
    def test_majority_predicts_most_frequent(self):
        X = np.zeros((5, 1))
        y = np.asarray(["a", "a", "a", "b", "b"])
        model = MajorityClassifier().fit(X, y)
        assert all(model.predict(np.zeros((3, 1))) == "a")

    def test_majority_proba_matches_prior(self):
        X = np.zeros((4, 1))
        y = np.asarray([0, 0, 0, 1])
        probs = MajorityClassifier().fit(X, y).predict_proba(np.zeros((1, 1)))
        assert np.allclose(probs[0], [0.75, 0.25])

    def test_random_classifier_uses_training_classes(self):
        X = np.zeros((4, 1))
        y = np.asarray([3, 3, 7, 7])
        predictions = RandomClassifier(seed=1).fit(X, y).predict(np.zeros((50, 1)))
        assert set(predictions) <= {3, 7}
