"""The tie-exact neighbour-order kernel and the KNN code that runs on it.

``neighbor_order(D, k)`` must equal ``np.argsort(D, axis=1,
kind="stable")[:, :k]`` on every input: nearest first, ties to the lower
column index, NaN last. The inputs aim at the kernel's shortcuts: tie-heavy
integer distances, NaN cells and rows, ``±inf``, ``±0.0``, 0 and 1 columns,
and every ``k`` from 0 past the column count (so every tie boundary too).
``knn_shapley`` must equal, bit for bit, the direct formula (stable sort,
label ``==``, ``np.add.at``), which is written out below as the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.importance import knn_shapley
from repro.learn import KNeighborsClassifier
from repro.learn.models import neighbor_order, pairwise_distances
from repro.unlearning import RemovalAwareKNN

SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0]

CELLS = st.one_of(
    st.sampled_from([0.0, 1.0, 2.0, 3.0]),
    st.sampled_from(SPECIALS),
    st.floats(min_value=-1e3, max_value=1e3),
)


def stable_order(D, k=None):
    return np.argsort(D, axis=1, kind="stable")[:, :k]


@st.composite
def distance_matrices(draw, cells=CELLS, max_cols=40):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0, max_cols))
    D = draw(arrays(np.float64, (m, n), elements=cells))
    nan_rows = draw(arrays(np.bool_, m))
    D[nan_rows] = np.nan
    return D


def assert_matches_stable(D):
    n = D.shape[1]
    for k in [None, *range(n + 4)]:
        got = neighbor_order(D, k)
        assert np.array_equal(got, stable_order(D, k)), (D, k, got)
        assert got.shape == (len(D), n if k is None else min(k, n))


class TestNeighborOrder:
    @given(D=distance_matrices())
    @settings(max_examples=300, deadline=None)
    def test_equals_stable_argsort(self, D):
        assert_matches_stable(D)

    @given(D=distance_matrices(cells=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    @settings(max_examples=200, deadline=None)
    def test_equals_stable_argsort_on_tie_heavy_integers(self, D):
        assert_matches_stable(D)

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_columns(self, n):
        assert_matches_stable(np.zeros((3, n)))
        assert_matches_stable(np.full((3, n), np.nan))

    def test_k_cutting_a_tie_takes_the_lower_indices(self):
        D = np.asarray([[1.0, 0.0, 1.0, 1.0, 0.0], [2.0, 2.0, 2.0, 2.0, 2.0]])
        assert neighbor_order(D, 3).tolist() == [[1, 4, 0], [0, 1, 2]]

    def test_signed_zeros_tie_and_nan_ranks_last(self):
        D = np.asarray([[0.0, -0.0, np.nan, -np.inf], [np.nan, 0.0, np.nan, -0.0]])
        for k in (None, 1, 2, 3):
            assert np.array_equal(neighbor_order(D, k), stable_order(D, k))
        assert neighbor_order(D, 1).tolist() == [[3], [1]]

    def test_negative_k_raises(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            neighbor_order(np.zeros((2, 3)), -1)


def direct_knn_shapley(x_train, y_train, x_valid, y_valid, k, block_size):
    """The closed form on a stable argsort, a direct label compare and
    ``np.add.at``: the reference ``knn_shapley`` must equal bit for bit."""
    n = len(y_train)
    ranks = np.arange(1, n + 1, dtype=float)
    coeff = np.minimum(k, ranks) / (k * ranks)
    values = np.zeros(n)
    for start in range(0, len(y_valid), block_size):
        block = slice(start, start + block_size)
        distances = pairwise_distances(x_valid[block], x_train)
        order = np.argsort(distances, axis=1, kind="stable")
        match = (y_train[order] == y_valid[block][:, None]).astype(float)
        base = match[:, -1] / n * min(k, n) / k
        diffs = (match[:, :-1] - match[:, 1:]) * coeff[:-1]
        s = np.empty_like(match)
        s[:, -1] = base
        s[:, :-1] = base[:, None] + np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
        np.add.at(values, order, s)
    return values / len(y_valid)


MIXED = np.asarray([None, "a", 1, 1.0, True, np.nan, "b"], dtype=object)
LABELS = {
    "int": lambda rng, size: rng.integers(0, 3, size=size),
    "str": lambda rng, size: rng.choice(["neg", "pos", "neutral"], size=size),
    "nan_float": lambda rng, size: rng.choice([0.0, 1.0, np.nan], size=size),
    "mixed_object": lambda rng, size: MIXED[rng.integers(0, len(MIXED), size=size)],
}


class TestKnnShapleyBitIdentity:
    @pytest.mark.parametrize("labels", sorted(LABELS))
    @pytest.mark.parametrize("block_size", [1, 3, 1024])
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_equals_direct_formula(self, labels, block_size, seed):
        rng = np.random.default_rng(seed)
        n, n_valid = int(rng.integers(1, 25)), int(rng.integers(1, 9))
        k = int(rng.integers(1, 7))
        # Integer coordinates put many distance ties on the stable path.
        X = rng.integers(0, 3, size=(n, 2)).astype(float)
        Xv = rng.integers(0, 3, size=(n_valid, 2)).astype(float)
        if seed % 2:
            X, Xv = X + rng.normal(size=X.shape), Xv + rng.normal(size=Xv.shape)
        y, yv = LABELS[labels](rng, n), LABELS[labels](rng, n_valid)
        got = knn_shapley(X, y, Xv, yv, k=k, block_size=block_size).values
        assert np.array_equal(got, direct_knn_shapley(X, y, Xv, yv, k, block_size))

    def test_label_match_follows_numpy_promotion(self):
        # 2**53 + 1 == 2.0**53 under numpy's float promotion, not in Python.
        X, Xv = np.asarray([[0.0], [1.0], [2.0]]), np.asarray([[0.5], [1.5]])
        y = np.asarray([2**53, 2**53 + 1, 7])
        yv = np.asarray([2.0**53, 7.0])
        got = knn_shapley(X, y, Xv, yv, k=2).values
        assert np.array_equal(got, direct_knn_shapley(X, y, Xv, yv, 2, 1024))


class TestKNeighbors:
    @pytest.mark.parametrize("model_cls", [KNeighborsClassifier, RemovalAwareKNN])
    def test_duplicate_training_rows_tie_to_the_lower_index(self, model_cls):
        X = np.asarray([[5.0], [0.0], [0.0], [0.0]])
        model = model_cls(1).fit(X, np.asarray(["far", "first", "second", "third"]))
        assert model.predict(np.asarray([[0.0]])).tolist() == ["first"]
        __, neighbors = model.kneighbors(np.asarray([[0.1]]), n_neighbors=3)
        assert neighbors.tolist() == [[1, 2, 3]]

    def test_forgotten_row_passes_the_tie_on(self):
        X = np.asarray([[5.0], [0.0], [0.0]])
        model = RemovalAwareKNN(1).fit(X, np.asarray(["far", "first", "second"]))
        assert model.forget([1]).predict(np.asarray([[0.0]])).tolist() == ["second"]

    @pytest.mark.parametrize("model_cls", [KNeighborsClassifier, RemovalAwareKNN])
    @pytest.mark.parametrize("n_neighbors", [0, -1])
    def test_n_neighbors_below_one_raises(self, model_cls, n_neighbors):
        X = np.arange(6, dtype=float)[:, None]
        model = model_cls(2).fit(X, np.arange(6) % 2)
        with pytest.raises(ValueError, match="n_neighbors must be >= 1"):
            model.kneighbors(X[:2], n_neighbors=n_neighbors)
