"""Shapley-value data importance: exact enumeration and Monte-Carlo estimators.

Implements the Data Shapley framework of Ghorbani & Zou [21]: the value of a
training point is its average marginal contribution over all orderings.
The permutation sampler includes the *truncated* variant (TMC-Shapley),
which stops scanning a permutation once the running utility is within a
tolerance of the full-data utility — the marginal contributions beyond that
point are statistically indistinguishable from zero.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Any

import numpy as np

from .base import ImportanceResult
from .engine import DEFAULT_CACHE_SIZE, PermutationRun, ValuationEngine
from .utility import Utility

__all__ = ["shapley_mc", "shapley_brute_force", "banzhaf_brute_force"]


def shapley_brute_force(utility: Utility) -> ImportanceResult:
    """Exact Shapley values by enumerating all ``n!`` permutations.

    Only feasible for tiny games (n ≤ 8); exists to validate the estimators.
    """
    n = utility.n_train
    if n > 9:
        raise ValueError(f"brute force is infeasible for n={n}")
    cache: dict[frozenset, float] = {}

    def value(subset: frozenset) -> float:
        if subset not in cache:
            cache[subset] = utility.evaluate(sorted(subset))
        return cache[subset]

    totals = np.zeros(n)
    for order in permutations(range(n)):
        seen: frozenset = frozenset()
        prev = value(seen)
        for i in order:
            seen = seen | {i}
            current = value(seen)
            totals[i] += current - prev
            prev = current
    values = totals / factorial(n)
    return ImportanceResult(method="shapley_exact", values=values)


def banzhaf_brute_force(utility: Utility) -> ImportanceResult:
    """Exact Banzhaf values by enumerating all subsets (n ≤ 16)."""
    n = utility.n_train
    if n > 16:
        raise ValueError(f"brute force is infeasible for n={n}")
    cache: dict[int, float] = {}

    def value(bits: int) -> float:
        if bits not in cache:
            subset = [i for i in range(n) if bits >> i & 1]
            cache[bits] = utility.evaluate(subset)
        return cache[bits]

    values = np.zeros(n)
    denom = 2 ** (n - 1)
    for i in range(n):
        total = 0.0
        for bits in range(2**n):
            if bits >> i & 1:
                continue
            total += value(bits | (1 << i)) - value(bits)
        values[i] = total / denom
    return ImportanceResult(method="banzhaf_exact", values=values)


def shapley_mc(
    utility: Utility | None,
    n_permutations: int = 100,
    truncation_tolerance: float = 0.0,
    seed: int = 0,
    n_workers: int = 1,
    cache_size: int = DEFAULT_CACHE_SIZE,
    convergence_tolerance: float | None = None,
    check_every: int = 10,
    antithetic: bool = False,
    deadline_s: float | None = None,
    max_evals: int | None = None,
    checkpoint=None,
    resume: bool = False,
    engine: ValuationEngine | None = None,
) -> ImportanceResult:
    """Permutation-sampling Monte-Carlo Shapley (TMC-Shapley).

    A thin wrapper over :class:`repro.importance.engine.ValuationEngine`:
    with the default ``n_workers=1`` and no convergence tolerance, values
    are identical to the historical serial implementation for the same
    seed (regression-tested), with repeated subsets answered from the
    engine's memo instead of retrained.

    Parameters
    ----------
    n_permutations:
        Number of random orderings to average over. The estimator is
        unbiased for any count; variance shrinks as 1/count.
    truncation_tolerance:
        If > 0, stop scanning a permutation once ``|v(S) − v(N)|`` falls
        below this tolerance and credit zero marginal contribution to the
        remaining points (the TMC speed-up of Ghorbani & Zou).
    n_workers, cache_size:
        Engine knobs: worker processes for the permutation fan-out and the
        LRU bound of the subset memo. The answer does not depend on
        ``n_workers``.
    convergence_tolerance:
        If set, stop drawing permutations (checked every ``check_every``)
        once the largest per-point standard error falls below it.
    antithetic:
        Scan each sampled permutation together with its reverse (variance
        reduction; changes which orderings are sampled).
    deadline_s, max_evals:
        Graceful-degradation budgets: wall-clock seconds for this call and
        total utility evaluations for the run. Exhausting either returns a
        *partial* estimate (``extras["converged"] = False`` with the
        ``stop_reason`` and per-point ``stderr``) instead of raising.
    checkpoint, resume:
        Path for wave-boundary accumulator snapshots; with ``resume=True``
        a killed run restarts from its checkpoint and finishes with values
        bit-identical to an uninterrupted run. Only consulted when the
        wrapper constructs the engine (a shared ``engine`` keeps its own
        checkpoint configuration).
    engine:
        Share an existing engine — and therefore its subset memo — across
        estimator calls. Overrides ``utility``/``n_workers``/``cache_size``.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
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
    full = engine.evaluate(range(engine.n_train))
    run = engine.run_permutations(
        n_permutations,
        seed=seed,
        truncation_tolerance=truncation_tolerance,
        convergence_tolerance=convergence_tolerance,
        check_every=check_every,
        antithetic=antithetic,
        deadline_s=deadline_s,
        max_evals=max_evals,
    )
    null = engine.evaluate(())
    return permutation_result(
        "shapley_mc",
        engine,
        run,
        n_permutations,
        full_score=full,
        null_score=null,
        antithetic=antithetic,
    )


def permutation_result(
    method: str,
    engine: ValuationEngine,
    run: PermutationRun,
    n_permutations: int,
    **extras: Any,
) -> ImportanceResult:
    """A permutation estimator's result: ``extras`` with the run's census
    at top level and, with the target and the engine's stats, under
    ``"census"``. The engine's lifetime stats go last, so top-level
    ``n_evaluations`` counts the utility's evaluations over its lifetime
    and ``census["n_evaluations"]`` the run's."""
    result = engine.result_from_run(run, n_permutations)
    return ImportanceResult(
        method=method,
        values=result.values,
        extras={
            **extras,
            "n_permutations": n_permutations,
            **run.census(),
            "stderr": result.stderr,
            "census": result.census,
            **engine.stats(),
        },
    )
