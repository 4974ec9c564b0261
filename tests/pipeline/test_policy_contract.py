"""One operator path: every fail-fast policy behaves like no policy at all.

``execute`` runs every node under an ``ErrorPolicy``, and ``policy=None``
means ``ExecutionPolicy()``. Under each fail-fast policy below, a failing
operator re-raises its own exception, checked by exact type so that a
wrapper such as ``OperatorError`` fails the check, and the output guards of
the non-fail-fast policies never drop or patch a row.
"""

import numpy as np
import pytest

import repro.core as nde
import repro.pipeline
from repro.frame import DataFrame
from repro.learn import ColumnTransformer, StandardScaler
from repro.obs.atomicio import SimulatedCrash
from repro.pipeline import (
    ErrorPolicy,
    ExecutionPolicy,
    OperatorError,
    PipelinePlan,
    TransientError,
    execute,
    execute_robust,
)

FAIL_FAST = {
    "none": None,
    "bare": ExecutionPolicy(),
    "retry": ExecutionPolicy(default=ErrorPolicy.fail_fast(max_retries=1)),
    "timeout": ExecutionPolicy(default=ErrorPolicy.fail_fast(timeout=5.0)),
}

every_fail_fast_policy = pytest.mark.parametrize(
    "policy", list(FAIL_FAST.values()), ids=list(FAIL_FAST)
)


def frame(n: int = 5) -> DataFrame:
    return DataFrame(
        {
            "k": list(range(n)),
            "value": np.linspace(0.0, 1.0, n),
            "label": ["pos" if i % 2 else "neg" for i in range(n)],
        }
    )


def scaled(column: str) -> ColumnTransformer:
    return ColumnTransformer([(StandardScaler(), [column])])


def raising(error: BaseException, row_id: int | None = None):
    """A UDF that raises ``error`` on every frame holding ``row_id`` (on
    every frame when ``row_id`` is None) and doubles ``value`` otherwise."""

    def udf(df):
        if row_id is None or row_id in df.row_ids.tolist():
            raise error
        return df["value"].to_numpy() * 2.0

    return udf


class TestOwnExceptionUnderFailFast:
    @every_fail_fast_policy
    def test_udf(self, policy):
        sink = PipelinePlan().source("t").with_column(
            "feat", raising(ValueError("cannot parse cell")), "udf"
        )
        with pytest.raises(Exception) as info:
            execute(sink, {"t": frame()}, policy=policy)
        assert type(info.value) is ValueError

    @every_fail_fast_policy
    def test_predicate(self, policy):
        sink = PipelinePlan().source("t").filter(
            raising(TypeError("'>' not supported for str and float")), "pred"
        )
        with pytest.raises(Exception) as info:
            execute(sink, {"t": frame()}, policy=policy)
        assert type(info.value) is TypeError

    @every_fail_fast_policy
    def test_join(self, policy):
        plan = PipelinePlan()
        sink = plan.source("t").join(plan.source("side"), on="k")
        side = DataFrame({"other_key": [0, 1], "w": [5.0, 6.0]})
        with pytest.raises(Exception) as info:
            execute(sink, {"t": frame(), "side": side}, policy=policy)
        assert type(info.value) is KeyError

    @every_fail_fast_policy
    def test_encoder_fit(self, policy):
        sink = PipelinePlan().source("t").encode(scaled("missing"), "label")
        with pytest.raises(Exception) as info:
            execute(sink, {"t": frame()}, policy=policy)
        assert type(info.value) is KeyError

    @every_fail_fast_policy
    def test_encoder_transform(self, policy):
        sink = PipelinePlan().source("t").encode(scaled("value"), "label")
        execute(sink, {"t": frame()})
        with pytest.raises(Exception) as info:
            execute(sink, {"t": frame().drop(["value"])}, fit=False, policy=policy)
        assert type(info.value) is KeyError

    @every_fail_fast_policy
    def test_transient_error_after_the_retries(self, policy):
        calls = []

        def flaky(df):
            calls.append(df.num_rows)
            raise TransientError("flaky source")

        sink = PipelinePlan().source("t").with_column("feat", flaky, "flaky")
        with pytest.raises(Exception) as info:
            execute(sink, {"t": frame()}, policy=policy)
        assert type(info.value) is TransientError
        retries = 0 if policy is None else policy.default.max_retries
        assert calls == [5] * (retries + 1)


class TestGuardsOnlyUnderNonFailFast:
    @every_fail_fast_policy
    def test_deviant_cell_keeps_every_row(self, policy):
        cells = [0.0, 1.0, "#CORRUPT#", 3.0, 4.0]
        sink = PipelinePlan().source("t").with_column(
            "feat", lambda df: list(cells), "corrupting"
        )
        result = execute(sink, {"t": frame()}, policy=policy)
        expected = frame()
        expected["feat"] = cells
        assert result.frame.equals(expected)
        assert len(result.quarantine) == 0

    @every_fail_fast_policy
    def test_missing_label_and_nonfinite_rows_are_kept(self, policy):
        data = frame()
        data["label"] = ["pos", None, "neg", "pos", "neg"]

        def with_nan(df):
            values = df["value"].to_numpy() * 2.0
            values[df.row_ids == 3] = np.nan
            return values

        sink = (
            PipelinePlan()
            .source("t")
            .with_column("feat", with_nan, "nan")
            .encode(scaled("feat"), "label")
        )
        result = execute(sink, {"t": data}, policy=policy)
        assert result.n_rows == 5
        assert not np.isfinite(result.X).all()
        assert len(result.quarantine) == 0

    def test_skip_policy_runs_the_guards(self):
        cells = [0.0, 1.0, "#CORRUPT#", 3.0, 4.0]
        sink = PipelinePlan().source("t").with_column(
            "feat", lambda df: list(cells), "corrupting"
        )
        result = execute_robust(sink, {"t": frame()})
        assert result.n_rows == 4
        assert [r.reason for r in result.quarantine] == ["corrupt_type"]


class TestOperatorErrorRemainsForFailedFits:
    def test_non_fail_fast_fit_failure_is_wrapped(self):
        sink = PipelinePlan().source("t").encode(scaled("missing"), "label")
        with pytest.raises(OperatorError) as info:
            execute_robust(sink, {"t": frame()})
        assert info.value.node_kind == sink.kind
        assert type(info.value.__cause__) is KeyError

    def test_non_fail_fast_transform_failure_is_quarantined(self):
        sink = PipelinePlan().source("t").encode(scaled("value"), "label")
        execute(sink, {"t": frame()}, fit=True)
        result = execute_robust(sink, {"t": frame().drop(["value"])}, fit=False)
        assert result.n_rows == 0
        assert len(result.quarantine) == 5


class TestInterruptsPropagate:
    @pytest.mark.parametrize(
        "interrupt", [KeyboardInterrupt, SystemExit, SimulatedCrash]
    )
    def test_robust_run_does_not_quarantine_an_interrupt(self, interrupt):
        sink = PipelinePlan().source("t").with_column(
            "feat", raising(interrupt("stop"), row_id=1), "interrupted"
        )
        with pytest.raises(interrupt):
            execute_robust(sink, {"t": frame(3)})


def test_facade_execute_robust_is_the_pipeline_function():
    assert nde.execute_robust is repro.pipeline.execute_robust
