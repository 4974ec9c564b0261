"""identify_mc: serial in-process TMC-Shapley over a retrained model (Fig. 2).

A request values each of a run's datasets once: one ``shapley_mc`` call per
dataset on a fresh ``ValuationEngine`` over a
``Utility(LogisticRegression(max_iter=100))``. The cache is cold, so L-BFGS
fits take most of the time. No pool, journal or checkpoint is involved.
"""

from __future__ import annotations

import statistics

import numpy as np

from harness import (
    PacedTimer,
    Tracer,
    paired_overhead,
    serial_metrics,
    time_setup,
    timed_loop,
)
from repro.importance import Utility, ValuationEngine, shapley_mc
from repro.learn import LogisticRegression
from repro.learn.metrics import accuracy

N_TRAIN, N_VALID = 200, 100
#: The labelling rule is fixed; a seed draws the rows, the noise and which
#: 20% of training labels are flipped, so every seed poses a game of the
#: same difficulty.
RULE = np.array([1.5, -1.0, 0.8, 0.0])
FLIP_FRACTION = 0.2
#: Every request values all of these datasets, so each request does the
#: same mix of work and the median does not hinge on which dataset's
#: truncation point the middle requests met.
N_DATASETS = 8
TRUNCATION = 0.01
#: Each valuation draws permutations until it has spent this many utility
#: evaluations (checked after every permutation). Where truncation stops a
#: scan depends on the data, so a fixed permutation count would make the
#: work per request swing from seed to seed; a fixed budget does not.
EVAL_BUDGET = 100
MAX_PERMUTATIONS = 1_000
#: A valuation stops at the first permutation boundary past its budget, so
#: requests make ~1,050 to ~1,500 evaluations; with a dozen requests a run,
#: that alone moved the median request time by 0.15 of itself from seed to
#: seed. Request times are reported per this many evaluations.
REQUEST_EVALS = 1_000
SETUP_REPEATS = 8


def make_dataset(rng: np.random.Generator) -> dict:
    n = N_TRAIN + N_VALID
    x = rng.normal(size=(n, len(RULE)))
    y = (x @ RULE + 0.5 * rng.normal(size=n) > 0).astype(int)
    y_train = y[:N_TRAIN].copy()
    flipped = rng.choice(N_TRAIN, int(FLIP_FRACTION * N_TRAIN), replace=False)
    y_train[flipped] = 1 - y_train[flipped]
    return {
        "x_train": x[:N_TRAIN], "y_train": y_train,
        "x_valid": x[N_TRAIN:], "y_valid": y[N_TRAIN:],
        "flipped": flipped,
    }


def traced_classes(tracer: Tracer) -> tuple[type, type, object]:
    """Model, utility and metric whose public calls report to ``tracer``."""

    class TracedLogisticRegression(LogisticRegression):
        fit = tracer.wrap("learn.fit", LogisticRegression.fit)
        predict = tracer.wrap("learn.predict", LogisticRegression.predict)

    class TracedUtility(Utility):
        evaluate = tracer.wrap("importance.utility", Utility.evaluate)

    return TracedLogisticRegression, TracedUtility, tracer.wrap("learn.metric", accuracy)


def build(seed: int, tracer: Tracer | None) -> list[dict]:
    rng = np.random.default_rng(seed)
    datasets = [make_dataset(rng) for __ in range(N_DATASETS)]
    if tracer is not None:
        model_cls, utility_cls, metric = traced_classes(tracer)
    for data in datasets:
        arrays = (data["x_train"], data["y_train"], data["x_valid"], data["y_valid"])
        data["utility"] = Utility(LogisticRegression(max_iter=100), *arrays)
        # v(N) and v(empty) anchor every game; the first fit also finishes
        # the solver's lazy set-up before anything is timed.
        data["gain"] = data["utility"].full_score() - data["utility"].null_score
        if tracer is not None:
            data["traced_utility"] = utility_cls(
                model_cls(max_iter=100), *arrays, metric=metric
            )
    return datasets


def value_once(utility: Utility, seed: int, tracer: Tracer | None) -> dict:
    """One valuation: a fresh engine, one ``shapley_mc`` call, its accounting."""
    engine = ValuationEngine(utility)
    if tracer is not None:
        engine.run_permutations = tracer.wrap(
            "importance.engine", engine.run_permutations
        )
    evals_before = utility.n_evaluations
    result = shapley_mc(
        None,
        n_permutations=MAX_PERMUTATIONS,
        truncation_tolerance=TRUNCATION,
        seed=seed,
        max_evals=EVAL_BUDGET,
        check_every=1,
        engine=engine,
    )
    census = result.extras["census"]
    # shapley_mc fits v(N) once before the run; the census counts the run.
    ok = (
        bool(np.all(np.isfinite(result.values)))
        and 0 < census["n_permutations_run"] < MAX_PERMUTATIONS
        and result.extras["stop_reason"] == "eval_budget"
        and census["n_evaluations"] >= EVAL_BUDGET
        and census["n_evaluations"] + 1 == utility.n_evaluations - evals_before
    )
    return {
        "evals": census["n_evaluations"],
        "values": result.values,
        "cache": engine.stats()["cache"],
        "ok": ok,
    }


def flips_found(data: dict, values: np.ndarray) -> float:
    """Share of flipped labels among the lowest-valued 20% of rows."""
    bottom = np.argsort(values, kind="stable")[: int(FLIP_FRACTION * N_TRAIN)]
    return float(np.isin(bottom, data["flipped"]).mean())


def run(seed: int, seconds: float, trace: bool) -> tuple[int, int, dict, int]:
    tracer = Tracer() if trace else None
    datasets, setup_times = time_setup(lambda: build(seed, tracer), SETUP_REPEATS)

    def request(index: int, tracing: bool) -> dict:
        timer = PacedTimer()
        outs = [
            timer.time(
                value_once,
                data["traced_utility" if tracing else "utility"],
                (seed * 100_003 + index) * N_DATASETS + position,
                tracer if tracing else None,
            )
            for position, data in enumerate(datasets)
        ]
        return {
            "wall": timer.scaled,
            "raw": timer.raw,
            "evals": sum(out["evals"] for out in outs),
            "values": [out["values"] for out in outs],
            "hits": sum(out["cache"]["hits"] for out in outs),
            "misses": sum(out["cache"]["misses"] for out in outs),
            "ok": all(out["ok"] for out in outs),
        }

    traced, untraced, attempted, failed = timed_loop(seconds, tracer, request)
    # Identify must find the injected errors: averaged over the datasets,
    # the bottom 20% of each dataset's values (over all of a run's requests)
    # holds at least twice the chance share of flipped labels, and on each
    # dataset the full data beats predicting the majority class. Otherwise
    # every request fails.
    samples = traced + untraced
    found = [
        flips_found(data, np.mean([s["values"][position] for s in samples], axis=0))
        for position, data in enumerate(datasets)
    ]
    if np.mean(found) < 2 * FLIP_FRACTION or min(d["gain"] for d in datasets) <= 0:
        failed = attempted
    if trace:
        return attempted, failed, layer_metrics(tracer, traced, untraced), len(traced)
    values = serial_metrics(untraced, per_evals=REQUEST_EVALS)
    setup_times += time_setup(lambda: build(seed, None), SETUP_REPEATS)[1]
    values["setup_s"] = statistics.median(setup_times)
    return attempted, failed, values, len(untraced)


def layer_metrics(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> dict:
    n = len(traced)
    traced_wall = sum(s["raw"] for s in traced)
    hits = sum(s["hits"] for s in traced)
    misses = sum(s["misses"] for s in traced)
    self_sum = (
        tracer.self_time["importance.engine"]
        + tracer.self_time["importance.utility"]
        + tracer.busy["learn.fit"]
        + tracer.busy["learn.predict"]
        + tracer.busy["learn.metric"]
    )
    return {
        "learn.fit.calls": tracer.calls["learn.fit"] / n,
        "learn.fit.busy_s": tracer.busy["learn.fit"] / n,
        "learn.fit.share": tracer.busy["learn.fit"] / traced_wall,
        "learn.predict.busy_s": tracer.busy["learn.predict"] / n,
        "learn.metric.busy_s": tracer.busy["learn.metric"] / n,
        "importance.utility.calls": tracer.calls["importance.utility"] / n,
        "importance.utility.self_s": tracer.self_time["importance.utility"] / n,
        "importance.engine.self_s": tracer.self_time["importance.engine"] / n,
        "importance.cache.hits": hits / n,
        "importance.cache.misses": misses / n,
        "importance.cache.hit_rate": hits / max(1, hits + misses),
        **paired_overhead(traced, untraced),
        "trace.self_coverage": self_sum / traced_wall,
    }
