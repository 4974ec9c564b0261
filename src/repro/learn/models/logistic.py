"""Multinomial logistic regression: exact Newton for two classes, L-BFGS beyond.

This is the workhorse classifier of the reproduction: the influence-function
and TracIn importance methods in :mod:`repro.importance` need its gradients
and Hessian, and the Zorro-style uncertainty propagation reasons about its
loss surface. The implementation keeps the loss/gradient functions module-
level so those modules can reuse them directly.

Every fit minimises the same objective, :func:`softmax_loss_grad`. With
exactly two classes its optimum is antisymmetric (``w1 = -w0``,
``b1 = -b0``), so the fit solves the equivalent binary problem in
``v = w1 - w0`` and ``c = b1 - b0`` with L2 strength ``l2 / 2`` on ``v`` by
damped Newton steps on those ``d + 1`` parameters, and maps the optimum back
as ``coef_ = [-v/2, v/2]``, ``intercept_ = [-c/2, c/2]``. Newton reaches the
optimum in a handful of iterations where L-BFGS stops at its gradient
tolerance short of it, and a small Newton step costs far less than a scipy
call. That matters because Monte-Carlo valuation retrains this model once per
utility evaluation. Three or more classes use L-BFGS on the full softmax
objective.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.optimize import minimize
from scipy.special import log_expit, softmax

from ..base import Estimator, check_matrix, check_xy

__all__ = ["LogisticRegression", "softmax_loss_grad", "sigmoid"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=float)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def softmax_loss_grad(
    weights: np.ndarray,
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    l2: float,
    sample_weight: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient for flattened class weights.

    ``weights`` has shape ``(n_classes * (n_features + 1),)`` — per-class
    coefficient rows with the intercept as the last entry of each row.
    """
    n, d = X.shape
    W = weights.reshape(n_classes, d + 1)
    logits = X @ W[:, :d].T + W[:, d]
    probs = softmax(logits, axis=1)
    if sample_weight is None:
        sample_weight = np.ones(n)
    total = sample_weight.sum()
    picked = probs[np.arange(n), y_index]
    loss = float(
        -np.sum(sample_weight * np.log(np.clip(picked, 1e-12, None))) / total
    )
    loss += 0.5 * l2 * float(np.sum(W[:, :d] ** 2))
    delta = probs
    delta[np.arange(n), y_index] -= 1.0
    delta *= (sample_weight / total)[:, None]
    grad = np.empty_like(W)
    grad[:, :d] = delta.T @ X + l2 * W[:, :d]
    grad[:, d] = delta.sum(axis=0)
    return loss, grad.ravel()


#: Newton stops once the decrement ``g' H^-1 g`` (twice the predicted loss
#: decrease) is this small, after taking that last step. A stricter stop
#: asks the line search for decreases the loss can no longer resolve.
NEWTON_DECREMENT_TOL = 1e-12
#: Armijo sufficient-decrease fraction and the backtracking floor.
ARMIJO_FRACTION = 1e-4
MIN_STEP = 1e-9


def _check_sample_weight(sample_weight: Any, n_rows: int) -> np.ndarray:
    """Weights as a float vector: 1-D, one per row, finite, >= 0, sum > 0."""
    weight = np.asarray(sample_weight, dtype=float)
    if weight.ndim != 1:
        raise ValueError(f"sample_weight must be 1-D, got shape {weight.shape}")
    if len(weight) != n_rows:
        raise ValueError(
            f"sample_weight has {len(weight)} entries but X has {n_rows} rows"
        )
    if not np.all(np.isfinite(weight)):
        raise ValueError("sample_weight must be finite (found NaN or inf)")
    if np.any(weight < 0):
        raise ValueError("sample_weight must be non-negative")
    if not weight.sum() > 0:
        raise ValueError("sample_weight must have a positive sum")
    return weight


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray | None:
    """``-H^-1 g`` by Cholesky; the minimum-norm step when H is singular."""
    __, solution, info = dposv(hess, grad)
    if info == 0:
        return -solution
    # Singular, e.g. a duplicated column with l2=0: the loss is flat along
    # the null space, and the minimum-norm step stays in the span of the
    # data, where L-BFGS from zero stays too.
    try:
        return -np.linalg.lstsq(hess, grad, rcond=None)[0]
    except np.linalg.LinAlgError:
        return None


def _binary_newton(
    X: np.ndarray,
    positive: np.ndarray,
    l2: float,
    sample_weight: np.ndarray | None,
    max_iter: int,
) -> np.ndarray:
    """Minimise the binary logistic loss by damped Newton from zero.

    ``positive`` marks rows of the second class. Returns ``[v, c]``, the
    minimiser of ``mean_w log(1 + exp(-u)) + (l2/2)/2 ||v||^2`` over the
    margins ``u = ±(X v + c)``. Each iterate keeps ``log_expit(u)``, which
    gives both the loss and the next gradient. ``max_iter`` caps Newton
    iterations; non-finite input returns the zero start, as L-BFGS does.
    """
    n, d = X.shape
    if not np.isfinite(X).all():
        # The loss is NaN at the start, where L-BFGS stops as well.
        return np.zeros(d + 1)
    # Rows signed by class, with a ones column for the intercept: u = Z beta.
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
        weighted_q = scale * -np.expm1(log_p)  # 1 - p, exact where p ~ 1
        grad = penalty * beta - ZT @ weighted_q
        hess = (ZT * (weighted_q * np.exp(log_p))) @ Z + penalty_matrix
        step = _newton_step(hess, grad)
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
                # No decrease the loss can resolve: beta is the optimum
                # to working precision.
                return beta
            trial, trial_u = beta + t * step, u + t * du
        beta, u, log_p, loss = trial, trial_u, trial_log_p, trial_loss
    return beta


class LogisticRegression(Estimator):
    """Multinomial logistic regression with L2 regularisation.

    Parameters
    ----------
    l2:
        Strength of the L2 penalty on the coefficients (not the intercept).
    max_iter:
        Iteration budget of the solver: Newton iterations for two classes
        (which converge in ~6), L-BFGS iterations for three or more.
    """

    def __init__(self, l2: float = 1e-3, max_iter: int = 200) -> None:
        self.l2 = float(l2)
        self.max_iter = int(max_iter)

    def fit(self, X: Any, y: Any, sample_weight: Any = None) -> "LogisticRegression":
        """Fit on (X, y); ``sample_weight`` must be 1-D, one per row, finite,
        non-negative and with a positive sum, or ``ValueError`` is raised."""
        X, y = check_xy(X, y)
        weight = (
            None
            if sample_weight is None
            else _check_sample_weight(sample_weight, len(X))
        )
        self.classes_, y_index = np.unique(y, return_inverse=True)
        n_classes = len(self.classes_)
        if n_classes < 2:
            # Degenerate training set: constant prediction.
            self.coef_ = np.zeros((1, X.shape[1]))
            self.intercept_ = np.zeros(1)
            return self
        if n_classes == 2:
            d = X.shape[1]
            half = 0.5 * _binary_newton(
                X, y_index == 1, self.l2, weight, self.max_iter
            )
            self.coef_ = np.stack([-half[:d], half[:d]])
            self.intercept_ = np.array([-half[d], half[d]])
            return self
        x0 = np.zeros(n_classes * (X.shape[1] + 1))
        result = minimize(
            softmax_loss_grad,
            x0,
            args=(X, y_index, n_classes, self.l2, weight),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        W = result.x.reshape(n_classes, X.shape[1] + 1)
        self.coef_ = W[:, : X.shape[1]]
        self.intercept_ = W[:, X.shape[1]]
        return self

    def decision_function(self, X: Any) -> np.ndarray:
        self._require_fitted()
        X = check_matrix(X)
        return X @ self.coef_.T + self.intercept_

    def predict_proba(self, X: Any) -> np.ndarray:
        self._require_fitted()
        logits = self.decision_function(X)
        if len(self.classes_) < 2:
            return np.ones((len(logits), 1))
        return softmax(logits, axis=1)

    def predict(self, X: Any) -> np.ndarray:
        self._require_fitted()
        if len(self.classes_) < 2:
            X = check_matrix(X)
            return np.repeat(self.classes_[:1], len(X))
        return self.classes_[np.argmax(self.decision_function(X), axis=1)]

    def log_loss(self, X: Any, y: Any) -> float:
        """Mean cross-entropy of the fitted model on (X, y)."""
        probs = self.predict_proba(X)
        y = np.asarray(y)
        index = np.searchsorted(self.classes_, y)
        index = np.clip(index, 0, len(self.classes_) - 1)
        valid = self.classes_[index] == y
        picked = np.where(valid, probs[np.arange(len(y)), index], 1e-12)
        return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))
