"""Fault-tolerant pipeline execution: policies, guards, and quarantine.

:func:`repro.pipeline.execute.execute` runs every node under an
:class:`ErrorPolicy`, through one evaluation function per operator kind.
The default policy is fail-fast: one malformed row inside a UDF (or one
poisonous join key) aborts the whole run with the operator's own exception
and no record of which source tuples were responsible. This module supplies
the primitives that turn those crashes into a first-class,
provenance-attributed signal instead:

- :class:`ErrorPolicy` — what to do when an operator fails on a row
  (``fail_fast`` | ``skip_and_quarantine`` | ``substitute_default``), plus
  retry-with-backoff for transient failures and a wall-clock timeout guard;
  both guards apply under every mode;
- :class:`ExecutionPolicy` — per-node / per-kind policy resolution with a
  default, so one pipeline can e.g. quarantine around UDFs but stay
  fail-fast at the encode boundary;
- :class:`Quarantine` — the record of every dropped row, carrying its
  why-provenance so quarantined rows feed straight into
  :mod:`repro.importance` / :class:`repro.errors.ErrorReport` consumers as
  *identified* data errors rather than lost information.

Under a non-fail-fast policy the executor keeps the vectorised fast path:
it first evaluates the operator over the whole frame and only falls back to
row-wise evaluation when that raises, so clean data pays nothing. The
output guards (the map cell-type check and the encode label and non-finite
checks) also run only under a non-fail-fast policy. :class:`OperatorError`
is raised only where no row-wise fallback exists: a failed encoder fit
under a non-fail-fast policy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..obs import metrics as _obs_metrics
from ..obs import trace as _obs

__all__ = [
    "FAIL_FAST",
    "SKIP_AND_QUARANTINE",
    "SUBSTITUTE_DEFAULT",
    "ErrorPolicy",
    "ExecutionPolicy",
    "OperatorError",
    "OperatorTimeoutError",
    "TransientError",
    "Quarantine",
    "QuarantineRecord",
    "call_with_timeout",
    "retry_call",
]

FAIL_FAST = "fail_fast"
SKIP_AND_QUARANTINE = "skip_and_quarantine"
SUBSTITUTE_DEFAULT = "substitute_default"
_MODES = (FAIL_FAST, SKIP_AND_QUARANTINE, SUBSTITUTE_DEFAULT)


class TransientError(RuntimeError):
    """Marker for failures worth retrying (flaky I/O, injected chaos, ...)."""


class OperatorError(RuntimeError):
    """An operator failed; carries node context for diagnostics."""

    def __init__(
        self, message: str, node_id: int = -1, node_kind: str = "", node_label: str = ""
    ) -> None:
        super().__init__(message)
        self.node_id = node_id
        self.node_kind = node_kind
        self.node_label = node_label


class OperatorTimeoutError(OperatorError):
    """An operator exceeded its wall-clock timeout budget."""


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorPolicy:
    """How one operator responds to failures.

    Attributes
    ----------
    on_error:
        ``fail_fast`` re-raises the operator's own exception (the
        default), ``skip_and_quarantine`` drops the offending rows into the
        run's :class:`Quarantine`, and ``substitute_default`` keeps the rows
        with :attr:`default` standing in for the value the operator could
        not produce.
    default:
        Substitute value. For filters its truthiness decides whether the
        row survives; for maps it becomes the output cell.
    max_retries / backoff / backoff_factor / retry_on:
        Retry-with-backoff for *transient* operator failures. Only
        exception types in ``retry_on`` are retried; the delay before
        attempt ``i`` is ``backoff * backoff_factor**(i - 1)`` seconds.
    timeout:
        Wall-clock budget in seconds for one operator evaluation (and,
        during row-wise fallback, for each row). ``None`` disables the
        guard.
    guard_types:
        Under a non-fail-fast policy, treat map-output cells whose Python
        type disagrees with the column majority (e.g. a stray string in a
        numeric column) as row failures — the silent-corruption guard.
    guard_nonfinite:
        Under a non-fail-fast policy, quarantine output rows whose encoded
        feature vector contains non-finite values (NaN/inf that survived
        imputation) instead of shipping them to the trainer.
    """

    on_error: str = FAIL_FAST
    default: Any = None
    max_retries: int = 0
    backoff: float = 0.05
    backoff_factor: float = 2.0
    retry_on: tuple[type, ...] = (TransientError,)
    timeout: float | None = None
    guard_types: bool = True
    guard_nonfinite: bool = True

    def __post_init__(self) -> None:
        if self.on_error not in _MODES:
            raise ValueError(
                f"unknown on_error mode {self.on_error!r}; expected one of {_MODES}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    @property
    def is_fail_fast(self) -> bool:
        return self.on_error == FAIL_FAST

    @property
    def keeps_row_on_error(self) -> bool:
        return self.on_error == SUBSTITUTE_DEFAULT

    # Convenience constructors --------------------------------------------
    @classmethod
    def fail_fast(cls, **overrides: Any) -> "ErrorPolicy":
        return cls(on_error=FAIL_FAST, **overrides)

    @classmethod
    def skip(cls, **overrides: Any) -> "ErrorPolicy":
        return cls(on_error=SKIP_AND_QUARANTINE, **overrides)

    @classmethod
    def substitute(cls, default: Any, **overrides: Any) -> "ErrorPolicy":
        return cls(on_error=SUBSTITUTE_DEFAULT, default=default, **overrides)


@dataclass
class ExecutionPolicy:
    """Policy resolution for a whole pipeline.

    Precedence: ``per_node[node.id]`` > ``per_kind[node.kind]`` >
    ``default``.
    """

    default: ErrorPolicy = field(default_factory=ErrorPolicy)
    per_kind: dict[str, ErrorPolicy] = field(default_factory=dict)
    per_node: dict[int, ErrorPolicy] = field(default_factory=dict)

    def resolve(self, node: Any) -> ErrorPolicy:
        if node.id in self.per_node:
            return self.per_node[node.id]
        if node.kind in self.per_kind:
            return self.per_kind[node.kind]
        return self.default

    @classmethod
    def robust(
        cls,
        max_retries: int = 1,
        backoff: float = 0.01,
        timeout: float | None = None,
        default: Any = None,
        on_error: str = SKIP_AND_QUARANTINE,
        **overrides: Any,
    ) -> "ExecutionPolicy":
        """The quarantine-everything profile used by ``nde.execute_robust``."""
        return cls(
            default=ErrorPolicy(
                on_error=on_error,
                default=default,
                max_retries=max_retries,
                backoff=backoff,
                timeout=timeout,
                **overrides,
            )
        )


# ----------------------------------------------------------------------
# Quarantine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QuarantineRecord:
    """One row dropped (or patched) by a non-fail-fast policy.

    ``sources`` is the row's why-provenance — the exact
    ``(source_name, row_id)`` tuples that produced it — so every quarantined
    row is attributable to the raw input tables where the error lives.
    """

    node_id: int
    node_kind: str
    node_label: str
    reason: str  # "error" | "timeout" | "corrupt_type" | "nonfinite" | "missing_label"
    error_type: str
    message: str
    sources: frozenset[tuple[str, int]]
    attempts: int = 1
    substituted: bool = False


class Quarantine:
    """Accumulates :class:`QuarantineRecord`\\ s across one pipeline run."""

    def __init__(self, records: Iterable[QuarantineRecord] = ()) -> None:
        self.records: list[QuarantineRecord] = list(records)

    def add(
        self,
        node: Any,
        reason: str,
        error: BaseException | None,
        sources: frozenset[tuple[str, int]],
        attempts: int = 1,
        substituted: bool = False,
    ) -> None:
        self.records.append(
            QuarantineRecord(
                node_id=node.id,
                node_kind=node.kind,
                node_label=node.describe(),
                reason=reason,
                error_type=type(error).__name__ if error is not None else "",
                message=str(error) if error is not None else reason,
                sources=frozenset(sources),
                attempts=attempts,
                substituted=substituted,
            )
        )
        if _obs.enabled():
            _obs_metrics.counter(f"pipeline.quarantine.{reason}").inc()
            _obs_metrics.counter("pipeline.quarantine.total").inc()

    # Introspection -------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def dropped(self) -> list[QuarantineRecord]:
        return [r for r in self.records if not r.substituted]

    def sources(self) -> set[str]:
        return {name for r in self.records for name, __ in r.sources}

    def source_tuples(self) -> set[tuple[str, int]]:
        return {t for r in self.records for t in r.sources}

    def row_ids(self, source: str) -> np.ndarray:
        """Unique, sorted row ids of ``source`` implicated in any record."""
        ids = {rid for r in self.records for name, rid in r.sources if name == source}
        return np.asarray(sorted(ids), dtype=np.int64)

    def by_node(self) -> dict[int, list[QuarantineRecord]]:
        out: dict[int, list[QuarantineRecord]] = {}
        for record in self.records:
            out.setdefault(record.node_id, []).append(record)
        return out

    def by_reason(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for record in self.records:
            out[record.reason] = out.get(record.reason, 0) + 1
        return out

    def to_error_report(self, source: str):
        """Adapt to :class:`repro.errors.ErrorReport` so quarantined tuples
        plug into the same scoring/cleaning machinery as injected errors."""
        from ..errors.report import ErrorReport

        return ErrorReport(
            kind="quarantined",
            column="",
            row_ids=self.row_ids(source),
            params={"reasons": self.by_reason(), "source": source},
        )

    @staticmethod
    def merge(parts: Sequence["Quarantine"]) -> "Quarantine":
        out = Quarantine()
        for part in parts:
            out.records.extend(part.records)
        return out

    def summary(self) -> str:
        if not self.records:
            return "quarantine: empty"
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(self.by_reason().items()))
        return (
            f"quarantine: {len(self.records)} rows across "
            f"{len(self.by_node())} operators ({reasons})"
        )


# ----------------------------------------------------------------------
# Guards: timeout + retry
# ----------------------------------------------------------------------
def call_with_timeout(fn: Callable[[], Any], timeout: float | None) -> Any:
    """Run ``fn`` with a wall-clock budget.

    The call runs in a daemon worker thread; if it is still running after
    ``timeout`` seconds an :class:`OperatorTimeoutError` is raised. (The
    worker cannot be forcibly killed — it is abandoned, which is acceptable
    for the CPU-light UDFs and injected-latency faults this guards.)
    """
    if timeout is None:
        return fn()
    box: dict[str, Any] = {}

    def worker() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised in caller
            box["error"] = exc

    thread = threading.Thread(target=worker, daemon=True)
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise OperatorTimeoutError(f"operator exceeded timeout of {timeout:g}s")
    if "error" in box:
        raise box["error"]
    return box["value"]


def retry_call(
    fn: Callable[[], Any],
    policy: ErrorPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Any, int]:
    """Call ``fn`` under the policy's retry/backoff/timeout guards.

    Returns ``(value, attempts)``. Exceptions outside ``policy.retry_on``
    propagate immediately; retryable ones propagate once the retry budget is
    exhausted.
    """
    attempts = policy.max_retries + 1
    for attempt in range(1, attempts + 1):
        try:
            return call_with_timeout(fn, policy.timeout), attempt
        except policy.retry_on:
            if attempt == attempts:
                raise
            sleep(policy.backoff * policy.backoff_factor ** (attempt - 1))
    raise AssertionError("unreachable")  # pragma: no cover


# ----------------------------------------------------------------------
# Cell-type guard (silent-corruption detection for map outputs)
# ----------------------------------------------------------------------
def _type_bucket(value: Any) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float) and np.isnan(value):
        return "missing"
    if isinstance(value, (bool, np.bool_)):
        return "num"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return "num"
    if isinstance(value, (str, np.str_)):
        return "str"
    return "other"


def deviant_cell_positions(cells: Sequence[Any]) -> np.ndarray:
    """Positions whose cell type disagrees with the column's majority type.

    Used as the map-operator output guard: a UDF column that is numeric for
    99% of rows and a string for the rest almost certainly suffered silent
    per-row corruption; those rows are the deviants. Missing cells are never
    deviant, and a column with no clear majority reports nothing.
    """
    buckets = [_type_bucket(c) for c in cells]
    counts: dict[str, int] = {}
    for bucket in buckets:
        if bucket != "missing":
            counts[bucket] = counts.get(bucket, 0) + 1
    if len(counts) <= 1:
        return np.empty(0, dtype=np.int64)
    majority = max(counts, key=lambda k: counts[k])
    return np.asarray(
        [i for i, b in enumerate(buckets) if b not in ("missing", majority)],
        dtype=np.int64,
    )
