"""The batched two-class Newton kernel against the one-subset solver it
replaced, and the bit-identity of a subset's fit across batches.

``reference_newton`` is the per-subset damped Newton solver two-class
``LogisticRegression`` used before fits were batched, kept here verbatim as
the reference: the batched fit must reach its objective and predict as it
does. A subset's coefficients must not depend on what else its batch
holds, because serial, pooled and resumed valuations fit the same subset
in different batches.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np
import pytest
from scipy.linalg.lapack import dposv
from scipy.special import log_expit

from repro.learn import LogisticRegression
from repro.learn.models import logistic
from repro.learn.models.logistic import (
    ARMIJO_FRACTION,
    MIN_STEP,
    NEWTON_DECREMENT_TOL,
    SignedDesign,
    binary_newton,
    two_class_margins,
)
from tests.learn.test_models import identify_subsets, softmax_objective


def _reference_step(hess, grad):
    __, solution, info = dposv(hess, grad)
    if info == 0:
        return -solution
    try:
        return -np.linalg.lstsq(hess, grad, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None


def reference_newton(X, positive, l2, sample_weight, max_iter):
    """``[v, c]`` by damped Newton from zero on one subset's own rows."""
    n, d = X.shape
    if not np.isfinite(X).all():
        return np.zeros(d + 1)
    Z = np.empty((n, d + 1))
    Z[:, :d] = X
    Z[:, d] = 1.0
    Z[~positive] *= -1.0
    ZT = Z.T
    scale = (
        np.full(n, 1.0 / n)
        if sample_weight is None
        else sample_weight / sample_weight.sum()
    )
    penalty = np.full(d + 1, 0.5 * l2)
    penalty[d] = 0.0
    penalty_matrix = np.diag(penalty)
    beta = np.zeros(d + 1)
    u = np.zeros(n)
    log_p = log_expit(u)
    loss = -float(scale @ log_p)
    for __ in range(max_iter):
        weighted_q = scale * -np.expm1(log_p)
        grad = penalty * beta - ZT @ weighted_q
        hess = (ZT * (weighted_q * np.exp(log_p))) @ Z + penalty_matrix
        step = _reference_step(hess, grad)
        if step is None:
            break
        decrement = -float(grad @ step)
        if not math.isfinite(decrement):
            break
        if decrement <= NEWTON_DECREMENT_TOL:
            beta = beta + step
            break
        du = Z @ step
        t = 1.0
        trial, trial_u = beta + step, u + du
        while True:
            trial_log_p = log_expit(trial_u)
            trial_loss = 0.5 * float(penalty @ (trial * trial)) - float(
                scale @ trial_log_p
            )
            if trial_loss <= loss - ARMIJO_FRACTION * t * decrement:
                break
            t *= 0.5
            if t < MIN_STEP:
                return beta
            trial, trial_u = beta + t * step, u + t * du
        beta, u, log_p, loss = trial, trial_u, trial_log_p, trial_loss
    return beta


def as_softmax_weights(beta):
    """``[v, c]`` as the two-class softmax weights ``[-beta/2, beta/2]``."""
    half = 0.5 * np.asarray(beta)
    return np.stack([-half, half])


def batches(subsets, size):
    """Groups of ``size`` subsets stacked into one design: each subset is a
    block of rows, its mask selects the block and its weights fill it."""
    subsets = iter(subsets)
    while group := list(islice(subsets, size)):
        X = np.vstack([X for X, *__ in group])
        y = np.concatenate([y for __, y, *__ in group])
        masks = np.zeros((len(group), len(X)), dtype=bool)
        weights = np.zeros((len(group), len(X)))
        start = 0
        for b, (X_b, __, weight, *__) in enumerate(group):
            rows = slice(start, start + len(X_b))
            masks[b, rows] = True
            weights[b, rows] = 1.0 if weight is None else weight
            start += len(X_b)
        yield group, SignedDesign(X, y == 1), masks, weights


class TestAgainstTheReferenceSolver:
    def test_identify_subsets_reach_the_reference_objective(self):
        n_fits = agree = 0
        for group, design, masks, weights in batches(identify_subsets(), 16):
            betas = binary_newton(design, masks, 1e-3, 100, weights)
            for (X, y, weight, X_valid, y_valid), beta in zip(group, betas):
                reference = reference_newton(X, y == 1, 1e-3, weight, 100)
                loss, __ = softmax_objective(
                    as_softmax_weights(beta), X, y, 1e-3, weight
                )
                reference_loss, __ = softmax_objective(
                    as_softmax_weights(reference), X, y, 1e-3, weight
                )
                assert loss <= reference_loss + 1e-12
                margins = two_class_margins(X_valid, 0.5 * np.stack([beta, reference]))
                n_fits += 1
                agree += np.array_equal(margins[0] > 0, margins[1] > 0)
        assert n_fits >= 1000
        assert agree >= 0.99 * n_fits

    def test_fit_is_the_batch_of_one(self):
        for X, y, weight, __, __ in islice(identify_subsets(), 40):
            model = LogisticRegression(max_iter=100).fit(X, y, sample_weight=weight)
            (beta,) = binary_newton(
                SignedDesign(X, y == 1),
                np.ones((1, len(X)), dtype=bool),
                1e-3,
                100,
                weight,
            )
            assert np.array_equal(model.coef_[1], 0.5 * beta[:-1])
            assert model.intercept_[1] == 0.5 * beta[-1]

    def test_predict_is_the_sign_of_the_margin(self):
        for X, y, weight, X_valid, __ in islice(identify_subsets(), 40):
            model = LogisticRegression(max_iter=100).fit(X, y, sample_weight=weight)
            margins = X_valid @ model.coef_[1] + model.intercept_[1]
            decided = np.abs(margins) > 1e-9
            assert np.array_equal(
                model.predict(X_valid)[decided], (margins > 0).astype(int)[decided]
            )
            # argmax over [-m/2, m/2]: class 1 iff the margin is positive.
            assert np.array_equal(
                model.predict(X_valid)[decided],
                np.argmax(model.decision_function(X_valid), axis=1)[decided],
            )


def identify_design(seed=0, n=200):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    y = (x @ np.array([1.5, -1.0, 0.8, 0.0]) + 0.5 * rng.normal(size=n) > 0)
    y[rng.choice(n, n // 5, replace=False)] ^= True
    return x, y, rng


def subset_masks(rng, n, n_prefixes=40, n_random=40):
    """Prefixes of one ordering, as a scan fits them, and random subsets."""
    order = rng.permutation(n)
    masks = np.zeros((n_prefixes + n_random, n), dtype=bool)
    for b in range(n_prefixes):
        masks[b, order[: 2 + 3 * b]] = True
    for b in range(n_random):
        masks[n_prefixes + b, rng.choice(n, int(rng.integers(2, n + 1)), replace=False)] = True
    return masks


class TestBatchIndependence:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("sliced", [False, True], ids=["one-product", "sliced"])
    def test_coefficients_do_not_depend_on_the_batch(self, weighted, sliced, monkeypatch):
        x, y, rng = identify_design()
        design = SignedDesign(x, y)
        if sliced:
            # Hessians staged three subsets at a time, as a wide design's are.
            monkeypatch.setattr(logistic, "_HESSIAN_STAGING_FLOATS", 3 * design.ZT.size)
        masks = subset_masks(rng, len(x))
        weight = rng.uniform(0.1, 3.0, size=len(x)) if weighted else None
        alone = np.concatenate(
            [binary_newton(design, mask[None], 1e-3, 100, weight) for mask in masks]
        )
        everything = binary_newton(design, masks, 1e-3, 100, weight)
        assert np.array_equal(everything, alone)
        # Reversed, in uneven chunks, and shuffled into batches that mix
        # each subset with different company.
        for chunk, order in (
            (7, np.arange(len(masks))[::-1]),
            (13, rng.permutation(len(masks))),
            (3, rng.permutation(len(masks))),
        ):
            for start in range(0, len(order), chunk):
                rows = order[start : start + chunk]
                fitted = binary_newton(design, masks[rows], 1e-3, 100, weight)
                assert np.array_equal(fitted, alone[rows])

    def test_a_non_finite_row_zeroes_only_the_subsets_holding_it(self):
        x, y, rng = identify_design(seed=1)
        x[7, 2] = np.nan
        design = SignedDesign(x, y)
        masks = subset_masks(rng, len(x), n_prefixes=10, n_random=10)
        masks[:, 7] = np.arange(len(masks)) % 2 == 0
        betas = binary_newton(design, masks, 1e-3, 100)
        assert not betas[0::2].any()
        assert np.all(betas[1::2].any(axis=1))
        clean = SignedDesign(np.where(np.isnan(x), 0.0, x), y)
        assert np.array_equal(betas[1::2], binary_newton(clean, masks[1::2], 1e-3, 100))

    def test_max_iter_caps_each_subset(self):
        x, y, rng = identify_design(seed=2)
        design = SignedDesign(x, y)
        masks = subset_masks(rng, len(x), n_prefixes=8, n_random=8)
        for max_iter in (0, 1, 2):
            capped = binary_newton(design, masks, 1e-3, max_iter)
            alone = [binary_newton(design, m[None], 1e-3, max_iter)[0] for m in masks]
            assert np.array_equal(capped, np.array(alone))
        assert not binary_newton(design, masks, 1e-3, 0).any()
