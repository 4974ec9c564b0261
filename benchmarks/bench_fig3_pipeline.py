"""Experiment F3 — Figure 3: debug a preprocessing pipeline via provenance.

Paper storyline: build the join-join-filter-UDF-encode pipeline over the
letters scenario, compute Datascope importance over the *source* training
table, remove the 25 lowest-importance source tuples through provenance, and
measure the accuracy change (paper: +0.027 after removing harmful tuples
from error-injected data). Shape to reproduce: the removal does not hurt —
and with injected label errors, it helps — and the provenance shortcut
equals a full pipeline re-run (F3-plan: the query plan renders with all
operators).
"""

import os
import time

import numpy as np

import repro.core as nde
from repro.datasets import generate_hiring_data
from repro.errors import inject_label_errors
from repro.learn import (
    CellImputer,
    ColumnTransformer,
    KNeighborsClassifier,
    OneHotEncoder,
    Pipeline,
    StandardScaler,
    clone,
)
from repro.learn.model_selection import split_frame
from repro.pipeline import execute, plan_summary, render_plan, PipelinePlan
from repro.text import SentenceBertTransformer
from repro.viz import format_records

REMOVE_K = 25


def build_pipeline():
    plan = PipelinePlan()
    train = plan.source("train_df")
    jobs = plan.source("jobdetail_df")
    social = plan.source("social_df")
    encoder = ColumnTransformer(
        [
            (SentenceBertTransformer(n_features=32), "letter_text"),
            (Pipeline([CellImputer(), OneHotEncoder()]), "degree"),
            (StandardScaler(), ["age", "employer_rating"]),
        ]
    )
    return (
        train.join(jobs, on="job_id")
        .join(social, on="person_id")
        .filter(lambda df: df["sector"] == "healthcare", "sector == 'healthcare'")
        .with_column("has_twitter", lambda df: df["twitter"].notnull(), "has_twitter")
        .encode(encoder, label_column="sentiment")
    )


def run_figure3() -> dict:
    data = generate_hiring_data(n=900, seed=7)
    train, valid = split_frame(data["letters"], fractions=(0.75, 0.25), seed=1)
    dirty, __ = inject_label_errors(train, "sentiment", fraction=0.2, seed=5)
    sink = build_pipeline()
    sources = {
        "train_df": dirty,
        "jobdetail_df": data["jobdetail"],
        "social_df": data["social"],
    }
    train_result = execute(sink, sources, fit=True)
    valid_result = execute(sink, dict(sources, train_df=valid), fit=False)

    importances = nde.datascope(train_result, valid_result, source="train_df")
    lowest = importances.lowest(dirty, REMOVE_K)
    X_clean, y_clean = nde.remove(
        train_result, "train_df", dirty.row_ids[lowest].tolist()
    )
    model = KNeighborsClassifier(5)
    acc_before = (
        clone(model)
        .fit(train_result.X, train_result.y)
        .score(valid_result.X, valid_result.y)
    )
    acc_after = (
        clone(model).fit(X_clean, y_clean).score(valid_result.X, valid_result.y)
    )

    # Cross-check: provenance removal == full pipeline re-run on filtered input.
    keep = ~np.isin(dirty.row_ids, dirty.row_ids[lowest])
    rerun = execute(sink, dict(sources, train_df=dirty.filter(keep)), fit=False)
    provenance_exact = bool(
        np.allclose(X_clean, rerun.X) and np.array_equal(y_clean, rerun.y)
    )

    # F3-task: iterative cleaning through the pipeline (the attendee task of
    # the hands-on session — repairs land on source tuples via provenance).
    from repro.cleaning import CleaningOracle, pipeline_iterative_cleaning

    oracle = CleaningOracle(train)
    curve = pipeline_iterative_cleaning(
        sink,
        sources,
        dict(sources, train_df=valid),
        train_source="train_df",
        oracle=oracle,
        model=KNeighborsClassifier(5),
        batch_size=25,
        n_rounds=3,
    )
    return {
        "plan": render_plan(sink),
        "plan_counts": plan_summary(sink),
        "n_encoded": len(train_result.X),
        "acc_before": float(acc_before),
        "acc_after": float(acc_after),
        "delta": float(acc_after - acc_before),
        "provenance_exact": provenance_exact,
        "cleaning_curve": list(zip(curve.budgets(), curve.accuracies())),
    }


def test_fig3_pipeline_debugging(benchmark, write_report):
    result = benchmark.pedantic(run_figure3, rounds=1, iterations=1)

    table = format_records(
        [
            {"quantity": "encoded training rows", "value": result["n_encoded"]},
            {"quantity": "accuracy before removal", "value": result["acc_before"]},
            {"quantity": f"accuracy after removing {REMOVE_K} tuples",
             "value": result["acc_after"]},
            {"quantity": "accuracy delta (paper: +0.027)", "value": result["delta"]},
            {"quantity": "provenance removal == pipeline re-run",
             "value": str(result["provenance_exact"])},
        ]
    )
    curve_text = "\n".join(
        f"  cleaned {budget:>3} source tuples → validation accuracy {acc:.4f}"
        for budget, acc in result["cleaning_curve"]
    )
    write_report(
        "fig3_pipeline",
        result["plan"] + "\n\n" + table
        + "\n\niterative pipeline cleaning (F3-task):\n" + curve_text,
    )

    counts = result["plan_counts"]
    assert counts == {"source": 3, "join": 2, "filter": 1, "map": 1, "encode": 1}
    assert result["provenance_exact"]
    assert result["delta"] >= -0.01  # removing flagged tuples must not hurt
    curve = result["cleaning_curve"]
    assert curve[-1][1] >= curve[0][1] - 0.02  # cleaning does not hurt


# ---------------------------------------------------------------------------
# Experiment F3-exact — exact PTIME valuation vs Monte-Carlo over the same
# pipeline. Smoke sizes via REPRO_BENCH_EXACT_N / REPRO_BENCH_EXACT_PERMS,
# reported to exact_knn_smoke.{txt,json} instead of exact_knn.{txt,json}.
# ---------------------------------------------------------------------------
EXACT_N = int(os.environ.get("REPRO_BENCH_EXACT_N", "600"))
EXACT_PERMS = int(os.environ.get("REPRO_BENCH_EXACT_PERMS", "8"))
EXACT_SMOKE = bool(os.environ.get("REPRO_BENCH_EXACT_N", "").strip())


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks with ties averaged (what Spearman expects)."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.arange(len(values), dtype=float)
    __, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    sums = np.zeros(len(counts))
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = _average_ranks(np.asarray(a)), _average_ranks(np.asarray(b))
    ra, rb = ra - ra.mean(), rb - rb.mean()
    denom = float(np.sqrt((ra**2).sum() * (rb**2).sum()))
    return float((ra * rb).sum() / denom) if denom else 0.0


def bottom_k_overlap(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """Fraction of the k lowest-valued rows (the removal set) shared."""
    bottom_a = set(np.argsort(a, kind="stable")[:k].tolist())
    bottom_b = set(np.argsort(b, kind="stable")[:k].tolist())
    return len(bottom_a & bottom_b) / k


def run_exact_vs_mc() -> dict:
    data = generate_hiring_data(n=EXACT_N, seed=7)
    train, valid = split_frame(data["letters"], fractions=(0.75, 0.25), seed=1)
    dirty, __ = inject_label_errors(train, "sentiment", fraction=0.2, seed=5)
    sink = build_pipeline()
    sources = {
        "train_df": dirty,
        "jobdetail_df": data["jobdetail"],
        "social_df": data["social"],
    }
    train_result = execute(sink, sources, fit=True)
    valid_result = execute(sink, dict(sources, train_df=valid), fit=False)

    t0 = time.perf_counter()
    exact = nde.datascope(
        train_result, valid_result, source="train_df", k=1, method="exact_knn"
    )
    exact_s = time.perf_counter() - t0

    def mc_run(seed: int):
        t0 = time.perf_counter()
        result = nde.datascope(
            train_result, valid_result, source="train_df",
            method="shapley_mc", model=KNeighborsClassifier(1),
            n_permutations=EXACT_PERMS, seed=seed,
        )
        return result, time.perf_counter() - t0

    mc_a, mc_a_s = mc_run(seed=0)
    mc_b, mc_b_s = mc_run(seed=1)

    rids = sorted(exact.by_row_id)
    assert sorted(mc_a.by_row_id) == rids
    ex = np.asarray([exact.by_row_id[r] for r in rids])
    va = np.asarray([mc_a.by_row_id[r] for r in rids])
    vb = np.asarray([mc_b.by_row_id[r] for r in rids])
    k = max(5, len(rids) // 10)

    compiled = exact.extras["compiled"]
    return {
        "n_source_rows": int(dirty.num_rows),
        "n_players": int(compiled.n_players),
        "n_encoded": int(train_result.n_rows),
        "form": compiled.form,
        "compile_fingerprint": compiled.fingerprint,
        "mc_permutations": EXACT_PERMS,
        "mc_evaluations": int(mc_a.extras["encoded"].extras["n_evaluations"]),
        "exact_s": exact_s,
        "mc_s": mc_a_s,
        "mc_b_s": mc_b_s,
        "speedup": mc_a_s / max(exact_s, 1e-9),
        "spearman_exact_vs_mc": spearman(ex, va),
        "spearman_mc_vs_mc": spearman(va, vb),
        "bottom_k": k,
        "bottom_k_overlap_exact_vs_mc": bottom_k_overlap(ex, va, k),
        "bottom_k_overlap_mc_vs_mc": bottom_k_overlap(va, vb, k),
    }


def test_fig3_exact_vs_mc(benchmark, write_report):
    result = benchmark.pedantic(run_exact_vs_mc, rounds=1, iterations=1)

    table = format_records(
        [
            {"quantity": "players (source rows surviving)",
             "value": result["n_players"]},
            {"quantity": "canonical form", "value": result["form"]},
            {"quantity": "exact valuation wall time (s)",
             "value": f"{result['exact_s']:.4f}"},
            {"quantity": f"MC wall time, {result['mc_permutations']} perms (s)",
             "value": f"{result['mc_s']:.4f}"},
            {"quantity": "speedup (MC / exact)",
             "value": f"{result['speedup']:.1f}x"},
            {"quantity": "Spearman(exact, MC)",
             "value": f"{result['spearman_exact_vs_mc']:.3f}"},
            {"quantity": "Spearman(MC, MC') — MC self-agreement",
             "value": f"{result['spearman_mc_vs_mc']:.3f}"},
            {"quantity": f"bottom-{result['bottom_k']} overlap exact vs MC",
             "value": f"{result['bottom_k_overlap_exact_vs_mc']:.2f}"},
            {"quantity": f"bottom-{result['bottom_k']} overlap MC vs MC'",
             "value": f"{result['bottom_k_overlap_mc_vs_mc']:.2f}"},
        ]
    )
    # Smoke sizes write their own, untracked files: the committed pair
    # holds the default-size numbers.
    name = "exact_knn_smoke" if EXACT_SMOKE else "exact_knn"
    write_report(name, table, records=result)

    # Exact is a compile + closed form; MC retrains per marginal. The gap
    # must be wide even on throttled CI hardware — but smoke sizes shrink
    # the MC side too, so condition the gate like the pool benchmarks.
    assert result["speedup"] >= (3.0 if EXACT_SMOKE else 10.0)
    # Equal-or-better rank agreement: the exact values must agree with an
    # MC estimate at least as well as two MC estimates agree with each
    # other — same signal, a fraction of the cost, zero variance.
    assert (
        result["spearman_exact_vs_mc"]
        >= result["spearman_mc_vs_mc"] - 0.05
    )
    assert (
        result["bottom_k_overlap_exact_vs_mc"]
        >= result["bottom_k_overlap_mc_vs_mc"] - 0.15
    )
