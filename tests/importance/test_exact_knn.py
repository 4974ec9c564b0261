"""Differential tests for the exact PTIME KNN-Shapley path.

Exact values give an analytic ground truth, so these tests pin the new
path against two independent oracles:

- subset enumeration over the *same* grouped game (≤ 12 players), built
  on :func:`repro.importance.grouped_knn_utility` — the definitional
  Shapley value, no approximation anywhere; and
- high-budget Monte-Carlo Shapley over the identical game, which must
  agree within 3 standard errors.

Both are run for all four canonical pipeline shapes: identity, map
(filters drop rows), join (driving-table attribution), and fork
(side-table attribution with fan-out).
"""

from math import comb

import numpy as np
import pytest

from repro.frame import DataFrame
from repro.importance import (
    exact_knn_shapley,
    grouped_knn_utility,
    knn_shapley_brute_force,
    shapley_mc,
)
from repro.importance.utility import SubsetUtility
from repro.learn import ColumnTransformer, StandardScaler
from repro.pipeline import PipelinePlan, compile_pipeline, datascope_importance, execute


def grouped_brute_force(x, y, xv, yv, groups, k=1):
    """Definitional Shapley of the grouped KNN game by subset enumeration."""
    m = len(groups)
    assert m <= 12, "brute force infeasible"
    cache = {}

    def value(bits):
        if bits not in cache:
            subset = [p for p in range(m) if bits >> p & 1]
            cache[bits] = grouped_knn_utility(subset, groups, x, y, xv, yv, k)
        return cache[bits]

    values = np.zeros(m)
    for j in range(m):
        for bits in range(2**m):
            if bits >> j & 1:
                continue
            size = bin(bits).count("1")
            weight = 1.0 / (m * comb(m - 1, size))
            values[j] += weight * (value(bits | (1 << j)) - value(bits))
    return values


def make_game(n, seed, n_classes=2, n_valid=6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = rng.integers(0, n_classes, size=n)
    xv = rng.normal(size=(n_valid, 2))
    yv = rng.integers(0, n_classes, size=n_valid)
    return x, y, xv, yv


NUMERIC_ENCODER = lambda: ColumnTransformer([(StandardScaler(), ["a", "b"])])  # noqa: E731


class TestDifferentialAgainstBruteForce:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_identity_groups_match_per_row_brute_force(self, k):
        x, y, xv, yv = make_game(8, seed=k)
        groups = [np.array([i]) for i in range(8)]
        exact = exact_knn_shapley(x, y, xv, yv, groups, k=k)
        brute = knn_shapley_brute_force(x, y, xv, yv, k=k)
        np.testing.assert_allclose(exact.values, brute.values, atol=1e-8)
        assert exact.stop_reason == "exact"
        assert exact.converged
        assert np.all(exact.stderr == 0.0)

    @pytest.mark.parametrize("k", [1, 2])
    def test_map_form_with_null_players(self, k):
        # Filtered-out source rows are null players: exactly zero, and the
        # surviving singleton groups match the grouped brute force.
        x, y, xv, yv = make_game(9, seed=11)
        groups = [
            np.array([0]), np.array([], dtype=np.int64), np.array([2]),
            np.array([4]), np.array([], dtype=np.int64), np.array([7]),
        ]
        exact = exact_knn_shapley(x, y, xv, yv, groups, k=k)
        brute = grouped_brute_force(x, y, xv, yv, groups, k=k)
        np.testing.assert_allclose(exact.values, brute, atol=1e-8)
        assert exact.values[1] == 0.0 and exact.values[4] == 0.0
        assert exact.census["form"] == "map"
        assert exact.census["n_null_players"] == 2

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_fork_form_matches_grouped_brute_force(self, seed):
        x, y, xv, yv = make_game(11, seed=seed, n_classes=3)
        groups = [
            np.array([0, 1, 2]), np.array([3]), np.array([4, 5]),
            np.array([], dtype=np.int64), np.array([6, 7, 8, 9, 10]),
        ]
        exact = exact_knn_shapley(x, y, xv, yv, groups, k=1)
        brute = grouped_brute_force(x, y, xv, yv, groups, k=1)
        np.testing.assert_allclose(exact.values, brute, atol=1e-8)
        assert exact.census["form"] == "fork"

    def test_fork_form_rejects_k_above_one(self):
        x, y, xv, yv = make_game(4, seed=0)
        groups = [np.array([0, 1]), np.array([2, 3])]
        with pytest.raises(ValueError, match="fork.*k=2"):
            exact_knn_shapley(x, y, xv, yv, groups, k=2)

    def test_overlapping_groups_rejected(self):
        x, y, xv, yv = make_game(4, seed=0)
        with pytest.raises(ValueError, match="overlap"):
            exact_knn_shapley(x, y, xv, yv, [np.array([0, 1]), np.array([1])], k=1)

    def test_out_of_range_groups_rejected(self):
        x, y, xv, yv = make_game(4, seed=0)
        with pytest.raises(ValueError, match="outside"):
            exact_knn_shapley(x, y, xv, yv, [np.array([0, 9])], k=1)

    def test_repeated_row_counts_once(self):
        """A group that lists a row twice plays the game of the group that
        lists it once: map form, equal values and census at any k."""
        x, y, xv, yv = make_game(4, seed=0)
        repeated = [np.array([2, 2]), np.array([1])]
        single = [np.array([2]), np.array([1])]
        for k in (1, 3):
            got = exact_knn_shapley(x, y, xv, yv, repeated, k=k)
            want = exact_knn_shapley(x, y, xv, yv, single, k=k)
            assert got.census == {**want.census, "form": "map"}
            assert np.array_equal(got.values, want.values)


# ---------------------------------------------------------------------------
# End-to-end through the compiler, one test per canonical pipeline shape.
# ---------------------------------------------------------------------------
def _train_frame(n, seed, keys=None):
    rng = np.random.default_rng(seed)
    data = {
        "a": rng.normal(size=n),
        "b": rng.normal(size=n),
        "y": rng.integers(0, 2, size=n),
    }
    if keys is not None:
        data["key"] = keys
    return DataFrame(data, row_ids=np.arange(100, 100 + n))


def _exact_by_row(result, valid_x, valid_y, source, k=1):
    imp = datascope_importance(
        result, valid_x, valid_y, source=source, k=k, method="exact_knn"
    )
    compiled = imp.extras["compiled"]
    values = np.asarray(
        [imp.by_row_id[int(rid)] for rid in compiled.player_row_ids]
    )
    return imp, compiled, values


class TestPipelineShapes:
    def test_identity_pipeline(self):
        frame = _train_frame(9, seed=1)
        plan = PipelinePlan()
        sink = plan.source("t").encode(NUMERIC_ENCODER(), label_column="y")
        result = execute(sink, {"t": frame})
        rng = np.random.default_rng(9)
        vx, vy = rng.normal(size=(5, 2)), rng.integers(0, 2, size=5)
        imp, compiled, values = _exact_by_row(result, vx, vy, "t", k=2)
        assert compiled.form == "map"
        brute = grouped_brute_force(result.X, result.y, vx, vy, compiled.groups, k=2)
        np.testing.assert_allclose(values, brute, atol=1e-8)

    def test_map_pipeline_with_filter(self):
        frame = _train_frame(12, seed=2)
        plan = PipelinePlan()
        sink = (
            plan.source("t")
            .filter(lambda df: df["a"] > -0.5, "a > -0.5")
            .with_column("ab", lambda df: df["a"] * df["b"], "ab")
            .encode(NUMERIC_ENCODER(), label_column="y")
        )
        result = execute(sink, {"t": frame})
        assert 0 < result.n_rows < 12  # the filter actually dropped rows
        rng = np.random.default_rng(5)
        vx, vy = rng.normal(size=(6, 2)), rng.integers(0, 2, size=6)
        imp, compiled, values = _exact_by_row(result, vx, vy, "t", k=1)
        assert compiled.form == "map"
        brute = grouped_brute_force(result.X, result.y, vx, vy, compiled.groups, k=1)
        np.testing.assert_allclose(values, brute, atol=1e-8)
        # Filtered-out source rows carry no value at all.
        survivors = set(compiled.player_row_ids.tolist())
        for rid in frame.row_ids.tolist():
            if rid not in survivors:
                assert rid not in imp.by_row_id

    def test_join_pipeline_driving_table(self):
        # Left-deep join: train drives, side is 1:1 per output row.
        keys = ["k%d" % (i % 4) for i in range(10)]
        train = _train_frame(10, seed=3, keys=keys)
        side = DataFrame(
            {"key": ["k0", "k1", "k2", "k3"], "w": [0.1, -0.2, 0.3, 0.4]},
            row_ids=[0, 1, 2, 3],
        )
        plan = PipelinePlan()
        sink = (
            plan.source("train_df")
            .join(plan.source("side_df"), on="key")
            .encode(NUMERIC_ENCODER(), label_column="y")
        )
        result = execute(sink, {"train_df": train, "side_df": side})
        rng = np.random.default_rng(4)
        vx, vy = rng.normal(size=(5, 2)), rng.integers(0, 2, size=5)
        imp, compiled, values = _exact_by_row(result, vx, vy, "train_df", k=3)
        assert compiled.form == "map"
        assert compiled.node_classes[sink.inputs[0].id] == "join"
        brute = grouped_brute_force(result.X, result.y, vx, vy, compiled.groups, k=3)
        np.testing.assert_allclose(values, brute, atol=1e-8)

    def test_fork_pipeline_side_table_attribution(self):
        # Attributing to the side table: one side row feeds many outputs.
        keys = ["k%d" % (i % 3) for i in range(9)]
        train = _train_frame(9, seed=6, keys=keys)
        side = DataFrame(
            {"key": ["k0", "k1", "k2"], "w": [0.5, -0.5, 0.0]},
            row_ids=[50, 51, 52],
        )
        plan = PipelinePlan()
        join = plan.source("train_df").join(plan.source("side_df"), on="key")
        sink = join.encode(NUMERIC_ENCODER(), label_column="y")
        result = execute(sink, {"train_df": train, "side_df": side})
        rng = np.random.default_rng(8)
        vx, vy = rng.normal(size=(6, 2)), rng.integers(0, 2, size=6)
        imp, compiled, values = _exact_by_row(result, vx, vy, "side_df", k=1)
        assert compiled.form == "fork"
        assert compiled.node_classes[join.id] == "fork"
        assert all(len(g) == 3 for g in compiled.groups)
        brute = grouped_brute_force(result.X, result.y, vx, vy, compiled.groups, k=1)
        np.testing.assert_allclose(values, brute, atol=1e-8)


class TestAgainstMonteCarlo:
    @pytest.mark.parametrize(
        "shape,groups_of",
        [
            ("map", lambda: [np.array([i]) for i in range(7)]),
            (
                "fork",
                lambda: [
                    np.array([0, 1]), np.array([2]), np.array([3, 4, 5]),
                    np.array([6]),
                ],
            ),
        ],
    )
    def test_exact_within_three_stderr_of_high_budget_mc(self, shape, groups_of):
        """Monte-Carlo over the *same* grouped game must agree within 3σ."""
        x, y, xv, yv = make_game(7, seed=13)
        groups = groups_of()
        m = len(groups)
        utility = SubsetUtility(
            lambda idx: grouped_knn_utility(idx, groups, x, y, xv, yv, k=1), m
        )
        mc = shapley_mc(utility, n_permutations=600, seed=0)
        exact = exact_knn_shapley(x, y, xv, yv, groups, k=1)
        stderr = np.asarray(mc.extras["stderr"])
        assert np.all(
            np.abs(exact.values - mc.values) <= 3.0 * stderr + 1e-8
        ), (exact.values, mc.values, stderr)

    def test_exact_within_three_stderr_on_a_small_pipeline(self):
        """End to end: compile a join pipeline, then MC the compiled game."""
        keys = ["k%d" % (i % 3) for i in range(8)]
        train = _train_frame(8, seed=21, keys=keys)
        side = DataFrame(
            {"key": ["k0", "k1", "k2"], "w": [1.0, 2.0, 3.0]}, row_ids=[0, 1, 2]
        )
        plan = PipelinePlan()
        sink = (
            plan.source("train_df")
            .join(plan.source("side_df"), on="key")
            .filter(lambda df: df["a"] > -1.5, "a > -1.5")
            .encode(NUMERIC_ENCODER(), label_column="y")
        )
        result = execute(sink, {"train_df": train, "side_df": side})
        rng = np.random.default_rng(2)
        vx, vy = rng.normal(size=(5, 2)), rng.integers(0, 2, size=5)
        imp, compiled, values = _exact_by_row(result, vx, vy, "train_df", k=1)
        utility = SubsetUtility(
            lambda idx: grouped_knn_utility(
                idx, compiled.groups, result.X, result.y, vx, vy, k=1
            ),
            compiled.n_players,
        )
        mc = shapley_mc(utility, n_permutations=1500, seed=1)
        stderr = np.asarray(mc.extras["stderr"])
        assert np.all(np.abs(values - mc.values) <= 3.0 * stderr + 1e-8)
