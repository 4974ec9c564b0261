"""An engine's ``chaos`` and ``chunk_timeout_s`` reach only pools it builds.

``pool=True`` and call-scoped leases honour both. A borrowed pool, or one
leased from a :func:`valuation_pool` registry, was built with its own
settings, so an engine carrying either setting refuses to fan out there
instead of dropping it silently.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.importance.engine as engine_mod
from repro.errors import ChaosMonkey
from repro.importance import SubsetUtility, ValuationEngine, WorkerPool, valuation_pool

needs_fork = pytest.mark.skipif(
    engine_mod._FORK_CTX is None, reason="requires a fork-capable platform"
)

SETTINGS = [
    pytest.param({"chaos": ChaosMonkey(worker_crash_chunks=[0])}, "chaos", id="chaos"),
    pytest.param({"chunk_timeout_s": 0.5}, "chunk_timeout_s", id="chunk_timeout_s"),
]


def tanh_game(n: int = 6, seed: int = 3) -> SubsetUtility:
    w = np.random.default_rng(seed).normal(size=n)
    return SubsetUtility(
        lambda idx: float(np.tanh(w[np.asarray(idx, dtype=np.int64)].sum())), n
    )


@needs_fork
@pytest.mark.parametrize("settings, name", SETTINGS)
def test_registry_lease_refuses_an_engine_setting(settings, name):
    with valuation_pool(n_workers=2):
        engine = ValuationEngine(tanh_game(), n_workers=2, **settings)
        with pytest.raises(ValueError, match=name):
            engine.run_permutations(4, seed=0)


@needs_fork
@pytest.mark.parametrize("settings, name", SETTINGS)
def test_borrowed_pool_refuses_an_engine_setting(settings, name):
    game = tanh_game()
    with WorkerPool(game, n_workers=2) as pool:
        engine = ValuationEngine(game, n_workers=2, pool=pool, **settings)
        with pytest.raises(ValueError, match=name):
            engine.evaluate_many([[0], [1], [2]])


@needs_fork
@pytest.mark.parametrize("pool", [True, None], ids=["owned", "call_scoped"])
def test_pools_the_engine_builds_honour_both_settings(pool):
    serial = ValuationEngine(tanh_game()).run_permutations(4, seed=0)
    # An owned pool's warmup pings take the first chunk numbers.
    chaos = ChaosMonkey(worker_crash_chunks=range(4))
    with ValuationEngine(
        tanh_game(), n_workers=2, pool=pool, chaos=chaos, chunk_timeout_s=5.0
    ) as engine:
        run = engine.run_permutations(4, seed=0)
    assert engine.supervision.crashes >= 1
    assert np.array_equal(run.values(), serial.values())
