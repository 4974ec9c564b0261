"""Tests for amortized Shapley estimation and RAG corpus importance."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.datasets import make_classification
from repro.importance import (
    RetrievalCorpus,
    SubsetUtility,
    Utility,
    amortized_shapley,
    rag_importance,
)
from repro.learn import LogisticRegression


class TestAmortized:
    def test_tracks_exact_values_on_additive_game(self):
        """For an additive game whose values are a linear function of the
        features, the amortized regressor recovers them almost exactly."""
        rng = np.random.default_rng(0)
        n, d = 80, 3
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        w = np.asarray([1.0, -2.0, 0.5])
        point_values = X @ w

        game = SubsetUtility(lambda S: float(sum(point_values[i] for i in S)), n)
        game.x_train = X  # amortized_shapley reads features from the utility
        game.y_train = y
        result = amortized_shapley(game, n_labelled=40, n_permutations=3, seed=0)
        rho, __ = spearmanr(result.values, point_values)
        assert rho > 0.95

    def test_detects_label_errors_cheaply(self):
        rng = np.random.default_rng(1)
        X, y = make_classification(n=140, n_features=3, seed=1)
        Xtr, ytr = X[:100], y[:100].copy()
        Xv, yv = X[100:], y[100:]
        flipped = rng.choice(100, size=15, replace=False)
        ytr[flipped] = 1 - ytr[flipped]
        mask = np.zeros(100, bool)
        mask[flipped] = True
        utility = Utility(LogisticRegression(max_iter=40), Xtr, ytr, Xv, yv)
        result = amortized_shapley(utility, n_labelled=50, n_permutations=5, seed=0)
        assert result.detection_precision_at_k(mask, 15) > 0.3  # ≫ 15% base

    def test_covers_all_points(self):
        X, y = make_classification(n=60, seed=2)
        utility = Utility(LogisticRegression(max_iter=30), X[:40], y[:40], X[40:], y[40:])
        result = amortized_shapley(utility, n_labelled=20, n_permutations=2, seed=0)
        assert len(result) == 40
        assert result.extras["n_labelled"] == 20


@pytest.fixture(scope="module")
def corpus():
    countries = [
        ("france", "paris"), ("japan", "tokyo"), ("kenya", "nairobi"),
        ("brazil", "brasilia"), ("canada", "ottawa"), ("norway", "oslo"),
        ("egypt", "cairo"), ("india", "delhi"), ("chile", "santiago"),
        ("ghana", "accra"),
    ]
    documents = [
        f"the capital city of {country} is {capital}" for country, capital in countries
    ]
    answers = [capital for __, capital in countries]
    # One poisoned document: wrong capital for france, phrased competitively.
    documents.append("the capital city of france is lyon")
    answers.append("lyon")
    from repro.text import TextEmbedder

    # A wider embedding keeps hash collisions from dominating the single
    # distinguishing token per document.
    store = RetrievalCorpus(
        documents, np.asarray(answers), embedder=TextEmbedder(n_features=256)
    )
    return store, countries


class TestRAG:
    def test_retrieval_answers_queries(self, corpus):
        store, countries = corpus
        queries = [f"what is the capital city of {c}" for c, __ in countries[1:]]
        truth = [capital for __, capital in countries[1:]]
        assert store.accuracy(queries, truth, k=1) >= 0.8

    def test_importance_flags_poisoned_document(self, corpus):
        store, countries = corpus
        queries = [f"what is the capital city of {c}" for c, __ in countries]
        truth = [capital for __, capital in countries]
        result = rag_importance(store, queries, truth, k=3)
        # The poisoned doc (last) must rank at the very bottom: it never
        # helps any query and competes with the correct france document.
        assert int(result.lowest(1)[0]) == len(store) - 1
        assert result.values[-1] <= 0
        assert result.values[-1] < result.values[:-1].min()

    def test_pruning_improves_accuracy(self, corpus):
        store, countries = corpus
        queries = [f"what is the capital city of {c}" for c, __ in countries]
        truth = [capital for __, capital in countries]
        result = rag_importance(store, queries, truth, k=3)
        pruned = store.without(result.lowest(1).tolist())
        assert pruned.accuracy(queries, truth, k=3) >= store.accuracy(
            queries, truth, k=3
        )

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_raises(self, corpus, k):
        store, __ = corpus
        for call in (store.retrieve, store.answer):
            with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
                call(["what is the capital city of chile"], k=k)

    def test_without_validates(self, corpus):
        store, __ = corpus
        with pytest.raises(ValueError):
            store.without(range(len(store)))

    def test_corpus_validates_lengths(self):
        with pytest.raises(ValueError):
            RetrievalCorpus(["doc"], np.asarray(["a", "b"]))
        with pytest.raises(ValueError):
            RetrievalCorpus([], np.asarray([]))
