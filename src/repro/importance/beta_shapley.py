"""Beta Shapley importance (Kwon & Zou [43]).

Beta(α, β)-Shapley generalises Data Shapley by re-weighting marginal
contributions by the cardinality of the subset they are measured against.
Beta(1, 1) recovers the Shapley value exactly; β > α emphasises *small*
subsets, which de-noises the signal because marginal contributions against
large subsets are dominated by retraining variance.
"""

from __future__ import annotations

from math import lgamma

import numpy as np

from .base import ImportanceResult
from .engine import DEFAULT_CACHE_SIZE, ValuationEngine
from .shapley import permutation_result
from .utility import Utility

__all__ = ["beta_shapley_mc", "beta_weights"]


def beta_weights(n: int, alpha: float = 1.0, beta: float = 16.0) -> np.ndarray:
    """Normalised weight for each preceding-subset size j = 0..n-1.

    ``w(j) ∝ C(n−1, j) · B(j + α, n − 1 − j + β)`` expressed via log-gamma
    for stability and normalised to sum to 1, so the estimator is a weighted
    mean of per-size marginal contributions. The convention matches the
    library docs: **β > α concentrates weight on small subsets** (marginal
    contributions measured early in the permutation), β = α = 1 is uniform
    (ordinary Shapley).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    js = np.arange(n)
    log_w = np.empty(n)
    for j in js:
        log_w[j] = (
            lgamma(j + alpha)
            + lgamma(n - 1 - j + beta)
            - lgamma(n - 1 + alpha + beta)
            + lgamma(n)  # C(n-1, j) numerator part
            - lgamma(j + 1)
            - lgamma(n - j)
        )
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def beta_shapley_mc(
    utility: Utility | None,
    alpha: float = 1.0,
    beta: float = 16.0,
    n_permutations: int = 100,
    seed: int = 0,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    truncation_tolerance: float = 0.0,
    convergence_tolerance: float | None = None,
    check_every: int = 10,
    antithetic: bool = False,
    deadline_s: float | None = None,
    max_evals: int | None = None,
    checkpoint=None,
    resume: bool = False,
    engine: ValuationEngine | None = None,
) -> ImportanceResult:
    """Permutation-sampling Beta(α, β)-Shapley estimator.

    Samples permutations exactly like TMC-Shapley but weights the marginal
    contribution of a point inserted at position j by the Beta weight of
    subset size j. With α = β = 1 this degenerates to uniform weights and
    estimates the ordinary Shapley value (a property the tests rely on).

    Runs on the shared valuation engine (see :func:`repro.importance.
    shapley.shapley_mc` for the ``n_workers``/``cache_size``/convergence/
    ``engine`` knobs); ``n_workers=1`` with defaults reproduces the
    historical serial values for the same seed.
    """
    if engine is None:
        if utility is None:
            raise ValueError("either utility or engine must be provided")
        engine = ValuationEngine(
            utility,
            n_workers=n_workers,
            cache_size=cache_size,
            checkpoint=checkpoint,
            resume=resume,
        )
    n = engine.n_train
    weights = beta_weights(n, alpha, beta) * n  # scale: mean weight 1
    run = engine.run_permutations(
        n_permutations,
        seed=seed,
        weights=weights,
        truncation_tolerance=truncation_tolerance,
        convergence_tolerance=convergence_tolerance,
        check_every=check_every,
        antithetic=antithetic,
        deadline_s=deadline_s,
        max_evals=max_evals,
    )
    return permutation_result(
        f"beta_shapley({alpha:g},{beta:g})",
        engine,
        run,
        n_permutations,
        alpha=alpha,
        beta=beta,
        antithetic=antithetic,
    )
