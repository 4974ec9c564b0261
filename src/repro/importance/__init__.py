"""Data importance for data-error detection (survey Section 2.1).

All methods share one container (:class:`ImportanceResult`) and one sign
convention — higher = more beneficial — so the cleaning and benchmarking
code can treat them interchangeably:

=====================  =============================================  ==========
method                 cost profile                                   needs
=====================  =============================================  ==========
``loo_importance``     n + 1 retrainings                              valid set
``shapley_mc``         n_permutations · n retrainings (truncatable)   valid set
``banzhaf_mc``         n_samples retrainings (max sample reuse)       valid set
``beta_shapley_mc``    like ``shapley_mc``                            valid set
``knn_shapley``        exact, O(n log n) per validation point         valid set
``exact_knn_shapley``  exact, per *pipeline source row* (PTIME)       canonical form
``influence``          1 training + 1 linear solve                    valid set
``tracin``             1 training + matrix product                    valid set
``confident_learning`` k-fold cross-validation                        labels only
``aum_importance``     one gradient-descent run                       labels only
``gopher``             one retraining per candidate predicate         fairness metric
=====================  =============================================  ==========
"""

from __future__ import annotations

import numpy as np

from .amortized import AmortizedImportance, amortized_shapley
from .aum import aum_importance
from .banzhaf import banzhaf_mc
from .base import ImportanceResult
from .beta_shapley import beta_shapley_mc, beta_weights
from .checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    config_fingerprint,
)
from .confident import confident_learning, out_of_sample_probabilities
from .engine import (
    DEFAULT_CACHE_SIZE,
    PermutationRun,
    SubsetCache,
    ValuationEngine,
    ValuationResult,
    parallel_map,
)
from .exact_knn import exact_knn_shapley, grouped_knn_utility
from .gopher import FairnessExplanation, Predicate, gopher_explanations
from .pool import (
    PoolRegistry,
    PoolUnavailable,
    WorkerPool,
    valuation_pool,
)
from .influence import influence_importance, per_sample_gradients, tracin_importance
from .knn_shapley import knn_shapley, knn_shapley_brute_force, knn_utility
from .loo import loo_importance
from .rag import RetrievalCorpus, rag_importance
from .shapley import banzhaf_brute_force, shapley_brute_force, shapley_mc
from .supervision import (
    ChunkDispatcher,
    ChunkFailure,
    DeadlinePolicy,
    SupervisionStats,
)
from .utility import SubsetUtility, Utility

__all__ = [
    "ImportanceResult",
    "AmortizedImportance",
    "amortized_shapley",
    "DEFAULT_CACHE_SIZE",
    "PermutationRun",
    "SubsetCache",
    "ValuationEngine",
    "ValuationResult",
    "parallel_map",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "config_fingerprint",
    "ChunkDispatcher",
    "ChunkFailure",
    "DeadlinePolicy",
    "SupervisionStats",
    "PoolRegistry",
    "PoolUnavailable",
    "WorkerPool",
    "valuation_pool",
    "RetrievalCorpus",
    "rag_importance",
    "Utility",
    "SubsetUtility",
    "aum_importance",
    "banzhaf_mc",
    "banzhaf_brute_force",
    "beta_shapley_mc",
    "beta_weights",
    "confident_learning",
    "out_of_sample_probabilities",
    "FairnessExplanation",
    "Predicate",
    "gopher_explanations",
    "exact_knn_shapley",
    "grouped_knn_utility",
    "influence_importance",
    "per_sample_gradients",
    "tracin_importance",
    "knn_shapley",
    "knn_shapley_brute_force",
    "knn_utility",
    "loo_importance",
    "shapley_brute_force",
    "shapley_mc",
    "random_importance",
]


def random_importance(n: int, seed: int = 0) -> ImportanceResult:
    """Uniform-random scores — the baseline every method must beat."""
    rng = np.random.default_rng(seed)
    return ImportanceResult(method="random", values=rng.random(n))
