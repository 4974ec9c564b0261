"""mlinspect-style pipeline inspections (Grafberger et al. [24, 25]).

Inspections examine a provenance-carrying pipeline run and report *issues* —
data-distribution problems that silently arise inside preprocessing, such as
a filter disproportionately shrinking a demographic group, or join keys
failing to match. Each inspection is a small callable so screening policies
(:mod:`repro.pipeline.screening`) can mix and match them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..frame import DataFrame
from .execute import PipelineResult

__all__ = [
    "Issue",
    "group_shrinkage",
    "join_match_rate",
    "missing_value_report",
    "train_test_overlap",
    "label_error_screen",
    "feature_constant_screen",
]


@dataclass
class Issue:
    """One finding of an inspection."""

    check: str
    severity: str  # "info" | "warning" | "error"
    message: str
    details: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.severity}] {self.check}: {self.message}"


def group_shrinkage(
    source_frame: DataFrame,
    result: PipelineResult,
    column: str,
    threshold: float = 0.5,
) -> list[Issue]:
    """Detect groups whose share of the data shrank through the pipeline.

    Compares the distribution of ``column`` in the source frame against the
    pipeline output; a group whose retention rate is below ``threshold``
    times the overall retention rate is flagged (the classic "the filter
    silently dropped most of group X" bug from the mlinspect paper).
    """
    issues: list[Issue] = []
    before = source_frame.column(column).value_counts()
    after = result.frame.column(column).value_counts() if column in result.frame else {}
    total_before = sum(before.values()) or 1
    total_after = sum(after.values())
    overall_retention = total_after / total_before if total_before else 0.0
    for group, count_before in before.items():
        count_after = after.get(group, 0)
        retention = count_after / count_before if count_before else 0.0
        if overall_retention > 0 and retention < threshold * overall_retention:
            issues.append(
                Issue(
                    check="group_shrinkage",
                    severity="warning",
                    message=(
                        f"group {column}={group!r} retained {retention:.0%} of rows "
                        f"vs {overall_retention:.0%} overall"
                    ),
                    details={
                        "column": column,
                        "group": group,
                        "before": count_before,
                        "after": count_after,
                        "overall_retention": overall_retention,
                    },
                )
            )
    return issues


def join_match_rate(
    result: PipelineResult, side_source: str, threshold: float = 0.9
) -> list[Issue]:
    """Flag joins where many output rows lack a partner from a side table.

    A low match rate usually means dirty join keys (typos, format drift) —
    the error family :func:`repro.errors.inject_typos` produces.
    """
    ids = result.provenance.source_ids(side_source)
    matched = int((ids >= 0).any(axis=1).sum())
    total = len(result.provenance) or 1
    rate = matched / total
    if rate < threshold:
        return [
            Issue(
                check="join_match_rate",
                severity="warning",
                message=(
                    f"only {rate:.0%} of output rows matched a tuple from "
                    f"{side_source!r} (threshold {threshold:.0%})"
                ),
                details={"side_source": side_source, "match_rate": rate},
            )
        ]
    return []


def missing_value_report(result: PipelineResult, threshold: float = 0.2) -> list[Issue]:
    """Columns of the pipeline output with a high missing-cell rate."""
    issues = []
    for name, nulls in result.frame.null_counts().items():
        rate = nulls / max(result.frame.num_rows, 1)
        if rate > threshold:
            issues.append(
                Issue(
                    check="missing_values",
                    severity="warning",
                    message=f"column {name!r} is {rate:.0%} missing in the pipeline output",
                    details={"column": name, "rate": rate},
                )
            )
    return issues


def train_test_overlap(
    train_result: PipelineResult, test_frame: DataFrame, source: str
) -> list[Issue]:
    """Detect data leakage: test tuples flowing into the training matrix.

    Compares the *source row ids* feeding the training output against the
    test frame's row ids — the provenance-based leakage check ArgusEyes [72]
    runs in CI.
    """
    ids = train_result.provenance.source_ids(source)
    train_ids = set(ids[ids >= 0].tolist())
    overlap = train_ids & {int(r) for r in test_frame.row_ids}
    if overlap:
        return [
            Issue(
                check="train_test_overlap",
                severity="error",
                message=(
                    f"{len(overlap)} tuples of source {source!r} appear in both the "
                    "training output and the test set (data leakage)"
                ),
                details={"n_overlap": len(overlap), "source": source},
            )
        ]
    return []


def label_error_screen(
    result: PipelineResult, flag_fraction_threshold: float = 0.05, seed: int = 0
) -> list[Issue]:
    """Run confident learning on the encoded output to screen for label errors."""
    from ..importance.confident import confident_learning

    if result.X is None or result.y is None:
        raise ValueError("label_error_screen needs an encoded pipeline result")
    if len(np.unique(result.y)) < 2:
        return [
            Issue(
                check="label_errors",
                severity="error",
                message="pipeline output contains fewer than two classes",
            )
        ]
    report = confident_learning(result.X, result.y, seed=seed)
    flagged = report.extras["flagged"]
    rate = float(np.mean(flagged))
    if rate > flag_fraction_threshold:
        return [
            Issue(
                check="label_errors",
                severity="warning",
                message=(
                    f"confident learning flags {rate:.1%} of training labels as "
                    f"suspect (threshold {flag_fraction_threshold:.0%})"
                ),
                details={"flag_rate": rate, "n_flagged": int(flagged.sum()),
                         "flagged_positions": np.flatnonzero(flagged)},
            )
        ]
    return []


def feature_constant_screen(result: PipelineResult) -> list[Issue]:
    """Flag encoded feature dimensions with zero variance (dead features)."""
    if result.X is None:
        raise ValueError("feature_constant_screen needs an encoded pipeline result")
    if len(result.X) == 0:
        return [Issue("constant_features", "error", "pipeline output is empty")]
    variances = result.X.var(axis=0)
    dead = np.flatnonzero(variances == 0.0)
    if len(dead):
        return [
            Issue(
                check="constant_features",
                severity="info",
                message=f"{len(dead)} of {result.X.shape[1]} encoded features are constant",
                details={"dead_dimensions": dead},
            )
        ]
    return []
