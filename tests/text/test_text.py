"""Unit tests for the offline text features."""

import numpy as np
import pytest

from repro.text import (
    HashingVectorizer,
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    SentenceBertTransformer,
    SentimentLexicon,
    TextEmbedder,
    stable_hash,
)
from repro.text.lexicon import BLOCK_TEXTS


class TestLexicon:
    def test_tokenize_lowercases_and_strips(self):
        assert SentimentLexicon.tokenize("Hello, World!") == ["hello", "world"]

    def test_tokenize_empty(self):
        assert SentimentLexicon.tokenize("... 123 !") == []

    def test_counts(self):
        lex = SentimentLexicon()
        pos, neg, hedge = lex.counts("an outstanding but careless report, sometimes")
        assert (pos, neg, hedge) == (1, 1, 1)

    def test_polarity_positive_text(self):
        assert SentimentLexicon().polarity("outstanding excellent work") == 1.0

    def test_polarity_neutral_is_zero(self):
        assert SentimentLexicon().polarity("the cat sat on the mat") == 0.0

    def test_word_banks_disjoint(self):
        assert POSITIVE_WORDS & NEGATIVE_WORDS == frozenset()


class TestHashing:
    def test_stable_hash_deterministic(self):
        assert stable_hash("token") == stable_hash("token")

    def test_stable_hash_seed_changes_value(self):
        assert stable_hash("token", seed=0) != stable_hash("token", seed=1)

    def test_vector_dimensionality(self):
        vec = HashingVectorizer(n_features=32).transform_one("a small text")
        assert vec.shape == (32,)

    def test_vectors_normalised(self):
        vec = HashingVectorizer(n_features=64).transform_one("some words here")
        assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_empty_text_is_zero_vector(self):
        assert np.allclose(HashingVectorizer().transform_one(""), 0.0)

    def test_same_text_same_vector(self):
        hv = HashingVectorizer()
        assert np.allclose(hv.transform_one("abc def"), hv.transform_one("abc def"))

    @pytest.mark.parametrize("cell, kind", [(None, "NoneType"), (3, "int")])
    def test_non_str_cell_raises_type_error_naming_it(self, cell, kind):
        # The bad cell sits in the second block, so its position counts
        # the whole first block.
        texts = ["a b"] * (BLOCK_TEXTS + 2) + [cell, None]
        with pytest.raises(TypeError, match=f"position {BLOCK_TEXTS + 2} is {kind}"):
            HashingVectorizer(8).transform(texts)

    def test_different_texts_differ(self):
        hv = HashingVectorizer(n_features=256)
        a = hv.transform_one("completely different words entirely")
        b = hv.transform_one("nothing shared between these texts")
        assert not np.allclose(a, b)

    def test_batch_transform_shape(self):
        for texts in (["a", "b c"], []):
            out = HashingVectorizer(n_features=16).transform(texts)
            assert out.shape == (len(texts), 16)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            HashingVectorizer(n_features=0)
        with pytest.raises(ValueError):
            HashingVectorizer(ngram_range=(2, 1))


class TestEmbedder:
    def test_output_dim(self):
        emb = TextEmbedder(n_features=32)
        assert emb.embed_one("hello").shape == (36,)
        assert emb.output_dim == 36

    def test_missing_text_embeds_to_zero(self):
        emb = TextEmbedder()
        assert np.allclose(emb.embed_one(None), 0.0)
        assert np.allclose(emb.embed_one("   "), 0.0)

    def test_sentiment_dimensions_reflect_polarity(self):
        emb = TextEmbedder(n_features=8)
        positive = emb.embed_one("outstanding excellent meticulous work")
        negative = emb.embed_one("careless negligent troubling conduct")
        # dim -4 = positive rate, dim -3 = negative rate
        assert positive[-4] > positive[-3]
        assert negative[-3] > negative[-4]

    def test_transform_accepts_column(self, letters_small):
        train, __, __ = letters_small
        emb = TextEmbedder(n_features=16)
        out = emb.fit_transform(train.column("letter_text"))
        assert out.shape == (train.num_rows, 20)

    def test_sentencebert_alias(self):
        assert issubclass(SentenceBertTransformer, TextEmbedder)

    def test_deterministic(self):
        a = TextEmbedder().embed_one("a stable embedding")
        b = TextEmbedder().embed_one("a stable embedding")
        assert np.allclose(a, b)

    def test_embeddings_separate_sentiment_linearly(self, letters_small):
        """The core requirement: sentiment must be learnable from embeddings."""
        from repro.learn import LogisticRegression

        train, valid, __ = letters_small
        emb = TextEmbedder(n_features=48)
        X = emb.fit_transform(train.column("letter_text"))
        y = np.asarray(train.column("sentiment").to_list())
        Xv = emb.transform(valid.column("letter_text"))
        yv = np.asarray(valid.column("sentiment").to_list())
        model = LogisticRegression().fit(X, y)
        assert model.score(Xv, yv) > 0.8
