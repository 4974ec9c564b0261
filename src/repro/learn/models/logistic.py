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
from functools import lru_cache
from typing import Any

import numpy as np
from scipy.linalg.lapack import dposv
from scipy.optimize import minimize
from scipy.special import softmax

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


class SignedDesign:
    """One design matrix for many binary fits over its rows.

    ``Z`` holds the rows signed by class (``positive`` marks the second
    class), with a ones column for the intercept, so the margins are
    ``u = Z beta``; ``ZT`` is its contiguous transpose. Both are built once
    per matrix. Rows with a non-finite entry are zeroed and flagged in
    ``finite`` (None when every row is finite): a subset that holds one is
    not fitted.
    """

    def __init__(self, X: np.ndarray, positive: np.ndarray) -> None:
        n, d = X.shape
        Z = np.empty((n, d + 1))
        Z[:, :d] = X
        Z[:, d] = 1.0
        np.negative(Z, out=Z, where=~positive[:, None])
        self.finite = None
        if not np.isfinite(X).all():
            self.finite = np.isfinite(Z).all(1)
            Z[~self.finite] = 0.0
        self.Z = Z
        self.ZT = np.ascontiguousarray(Z.T)


def _loss(
    u: np.ndarray, beta: np.ndarray, scale: np.ndarray, half_penalty: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``exp(-|u|)``, from which the next step reads ``p`` and ``1 - p``,
    and each subset's penalised loss ``-scale · log(expit(u))``."""
    e = np.abs(u)
    np.negative(e, out=e)
    np.exp(e, out=e)
    log_p = np.minimum(u, 0.0)
    log_p -= np.log1p(e)
    loss = np.matmul((beta * beta)[:, None, :], half_penalty)[:, 0]
    loss -= np.matmul(log_p[:, None, :], scale[:, :, None])[:, 0, 0]
    return e, loss


#: A Cholesky pivot this small relative to H's largest diagonal entry marks
#: an unpenalised H singular: rounding can leave a singular H a tiny
#: positive pivot, where the factorisation succeeds and the step along the
#: null space is noise. With l2 > 0 the penalty bounds the pivots away
#: from zero.
_TINY_PIVOT = 8 * np.finfo(float).eps


def _newton_solve(hess: np.ndarray, grad: np.ndarray, penalised: bool) -> np.ndarray:
    """``H^-1 g`` for each stacked (H, g) by Cholesky, one LAPACK call per
    subset; the minimum-norm ``H^+ g`` where H is singular, and NaN where
    there is none. The Newton step is its negative."""
    solved = [dposv(h, g) for h, g in zip(hess, grad)]
    solutions = np.array([solution for __, solution, __ in solved])
    singular = [b for b, (__, __, info) in enumerate(solved) if info]
    if not penalised:
        pivots = np.array([factor for factor, __, __ in solved]).diagonal(0, 1, 2)
        largest = hess.diagonal(0, 1, 2).max(1, keepdims=True)
        singular += (pivots * pivots <= _TINY_PIVOT * largest).any(1).nonzero()[0].tolist()
    for b in singular:
        solutions[b] = _min_norm_solution(hess[b], grad[b])
    return solutions


def _min_norm_solution(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The minimum-norm ``H^+ g`` for a singular H, e.g. a duplicated column
    with l2=0: the loss is flat along the null space, and this step stays in
    the span of the data, where L-BFGS from zero stays too."""
    try:
        return np.linalg.lstsq(hess, grad, rcond=None)[0]
    except np.linalg.LinAlgError:
        return np.full_like(grad, np.nan)


#: Floats one stacked Hessian product may stage: ``Zᵀ`` scaled by each
#: subset's curvature takes ``(d + 1) · n`` of them a subset, so a batch
#: over a wide or long design forms its Hessians in slices of subsets.
_HESSIAN_STAGING_FLOATS = 1 << 20


@lru_cache(maxsize=8)
def _penalties(k: int, l2: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The L2 penalty ``l2/2`` on all ``k`` parameters but the intercept,
    half of it, and its diagonal matrix (shared: never written)."""
    penalty = np.full(k, 0.5 * l2)
    penalty[-1] = 0.0
    return penalty, 0.5 * penalty, np.diag(penalty)


def binary_newton(
    design: SignedDesign,
    masks: np.ndarray,
    l2: float,
    max_iter: int,
    sample_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Minimise the binary logistic loss over each row mask by damped Newton.

    Row ``b`` of the result is ``[v, c]``, the minimiser of ``mean_w log(1
    + exp(-u)) + (l2/2)/2 ||v||^2`` over the margins ``u = ±(X v + c)`` of
    the rows ``masks[b]`` selects, reached from zero; ``sample_weight``,
    one weight per row or one row of weights per subset, weighs the mean.
    Each subset takes its own Cholesky steps, its own Armijo backtracking
    and its own stop at ``NEWTON_DECREMENT_TOL``; a subset that stops
    leaves the active set. ``max_iter`` caps each subset's Newton
    iterations, and a subset holding a non-finite row gets the zero start,
    where L-BFGS stops as well.

    Each subset's gradient ``Zᵀ q`` and Hessian ``(Zᵀ ∘ curvature) Z``
    are stacked matmuls, one BLAS call per subset (one product over the
    batch would let BLAS tile it, and a subset's row would then depend on
    B), staged in slices of at most ``_HESSIAN_STAGING_FLOATS``; every
    other step is elementwise or a reduction along one subset's row. So a
    subset's coefficients are bit-identical whatever else its batch holds:
    fitted alone, B = 1, is the same computation.
    """
    Z, ZT = design.Z, design.ZT
    k = Z.shape[1]
    masks = np.asarray(masks, dtype=bool)
    betas = np.zeros((len(masks), k))
    weights = masks * (1.0 if sample_weight is None else sample_weight)
    if design.finite is None:
        active = np.arange(len(masks))
    else:
        active = (~(masks & ~design.finite).any(1)).nonzero()[0]
        weights = weights[active]
    scale = weights / weights.sum(1, keepdims=True)
    penalty, half_penalty, penalty_matrix = _penalties(k, l2)
    penalised = l2 > 0
    per_product = max(1, _HESSIAN_STAGING_FLOATS // ZT.size)
    beta = np.zeros((len(active), k))
    u = np.zeros_like(scale)
    # At the zero start p = 1 - p = 1/2 for every row and the loss is log 2
    # for every subset; exp(-|u|) is first read after the first step.
    e, loss = None, np.log(2.0) * scale.sum(1)
    q, curvature = 0.5 * scale, 0.25 * scale
    for __ in range(max_iter):
        if not len(active):
            break
        if q is None:
            # With r = 1 + e: max(p, 1 - p) = 1 / r and min(p, 1 - p) =
            # e / r, so 1 - p stays exact where p ~ 1.
            r = e + 1.0
            q = scale / r
            curvature = q * e
            q = np.where(u >= 0.0, curvature, q)
            curvature /= r
        grad = penalty * beta - np.matmul(ZT, q[:, :, None])[..., 0]
        if len(active) <= per_product:
            hess = np.matmul(ZT * curvature[:, None, :], Z)
        else:
            hess = np.concatenate([
                np.matmul(ZT * curvature[start : start + per_product, None, :], Z)
                for start in range(0, len(active), per_product)
            ])
        hess += penalty_matrix
        solution = _newton_solve(hess, grad, penalised)
        q = None
        decrement = (grad * solution).sum(1)
        # A subset stops after a step below the decrement tolerance, which
        # it takes, or where no step exists or scores as a finite number,
        # where it stands. The tests on one number per subset run on Python
        # floats, which for a few subsets cost less than array calls.
        steps = decrement.tolist()
        descent = [NEWTON_DECREMENT_TOL < step < math.inf for step in steps]
        if not any(descent):
            finite = np.isfinite(decrement)
            betas[active] = np.where(finite[:, None], beta - solution, beta)
            return betas
        # The full step for every subset; Armijo backtracks where it fails.
        du = np.matmul(Z, solution[:, :, None])[..., 0]
        trial, trial_u = beta - solution, u - du
        trial_e, trial_loss = _loss(trial_u, trial, scale, half_penalty)
        moved = [
            down and new <= old - ARMIJO_FRACTION * step
            for down, new, old, step in zip(
                descent, trial_loss.tolist(), loss.tolist(), steps
            )
        ]
        if all(moved):
            beta, u, e, loss = trial, trial_u, trial_e, trial_loss
            continue
        finite = np.isfinite(decrement)
        descent, moved = np.array(descent), np.array(moved)
        pending = (descent & ~moved).nonzero()[0]
        t = 1.0
        while len(pending):
            t *= 0.5
            if t < MIN_STEP:
                # No decrease the loss can resolve: beta is the optimum to
                # working precision, and the subset stops where it stands.
                break
            back = beta[pending] - t * solution[pending]
            back_u = u[pending] - t * du[pending]
            back_e, back_loss = _loss(back_u, back, scale[pending], half_penalty)
            accept = back_loss <= (
                loss[pending] - ARMIJO_FRACTION * t * decrement[pending]
            )
            done = pending[accept]
            moved[done] = True
            trial[done], trial_u[done] = back[accept], back_u[accept]
            trial_e[done], trial_loss[done] = back_e[accept], back_loss[accept]
            pending = pending[~accept]
        # The others stop too where no step decreases the loss.
        stop = ~moved
        taken = (finite & ~descent)[stop, None]
        betas[active[stop]] = np.where(taken, trial[stop], beta[stop])
        active, scale = active[moved], scale[moved]
        beta, u, e, loss = trial[moved], trial_u[moved], trial_e[moved], trial_loss[moved]
    betas[active] = beta
    return betas


def two_class_margins(X: Any, halves: np.ndarray) -> np.ndarray:
    """Margins ``X v + c`` for each row ``[v, c]`` of ``halves``: the one
    formula two-class prediction uses, class 1 iff the margin is > 0."""
    X = check_matrix(X)
    if not X.flags.c_contiguous:
        X = np.ascontiguousarray(X)
    d = X.shape[1]
    return np.matmul(X, halves[:, :d, None])[..., 0] + halves[:, d:]


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
            half = 0.5 * binary_newton(
                SignedDesign(X, y_index == 1),
                np.ones((1, len(X)), dtype=bool),
                self.l2,
                self.max_iter,
                weight,
            )[0]
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
        if len(self.classes_) == 2:
            half = np.append(self.coef_[1], self.intercept_[1])[None]
            return self.classes_[(two_class_margins(X, half)[0] > 0).astype(int)]
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
