"""The batched text kernel against the per-text code it replaced.

The reference functions below are the per-character tokenizer and the
per-text ``transform_one``/``embed_one`` bodies that ``repro.text`` used
before tokenization, hashing and lexicon counts became one batched kernel.
The kernel must reproduce them bit for bit (``np.array_equal``).
"""

import sys
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_hiring_data
from repro.learn.preprocessing.encoders import as_cells
from repro.text import (
    HEDGE_WORDS,
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    HashingVectorizer,
    SentimentLexicon,
    TextEmbedder,
    stable_hash,
)
from repro.text import lexicon


def reference_tokenize(text):
    out = []
    word = []
    for ch in text.lower():
        if ch.isalpha():
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return out


def reference_transform_one(vectorizer, text):
    vec = np.zeros(vectorizer.n_features)
    tokens = reference_tokenize(text)
    lo, hi = vectorizer.ngram_range
    for size in range(lo, hi + 1):
        for start in range(len(tokens) - size + 1):
            h = stable_hash(" ".join(tokens[start : start + size]))
            bucket = h % vectorizer.n_features
            sign = 1.0 if (not vectorizer.signed or (h >> 16) & 1 == 0) else -1.0
            vec[bucket] += sign
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def reference_counts(text):
    tokens = reference_tokenize(text)
    pos = sum(1 for t in tokens if t in POSITIVE_WORDS)
    neg = sum(1 for t in tokens if t in NEGATIVE_WORDS)
    hedge = sum(1 for t in tokens if t in HEDGE_WORDS)
    return pos, neg, hedge


def reference_embed_one(embedder, text):
    if text is None or not str(text).strip():
        return np.zeros(embedder.output_dim)
    text = str(text)
    vectorizer = HashingVectorizer(
        n_features=embedder.n_features, ngram_range=embedder.ngram_range
    )
    hashed = reference_transform_one(vectorizer, text)
    tokens = reference_tokenize(text)
    n_tokens = max(len(tokens), 1)
    pos, neg, hedge = reference_counts(text)
    stats = np.asarray(
        [pos / n_tokens, neg / n_tokens, hedge / n_tokens, np.log1p(n_tokens) / 10.0]
    )
    return np.concatenate([hashed, stats])


def reference_embed(embedder, X):
    cells = as_cells(X)
    if not len(cells):
        return np.empty((0, embedder.output_dim))
    return np.vstack([reference_embed_one(embedder, c) for c in cells])


def reference_hash(vectorizer, texts):
    return np.vstack([reference_transform_one(vectorizer, t) for t in texts])


def separator_probes():
    """``"a" + ch + "b"`` for every code point of the categories that decide
    where a token ends: decimal digits, letter and other numerics (Nl, No:
    word characters that are not letters), combining marks, ``_`` and every
    seventh letter."""
    chars = ["_"]
    for cp in range(sys.maxunicode + 1):
        category = unicodedata.category(chr(cp))
        if category in ("Nd", "Nl", "No", "Mn", "Mc", "Me") or (
            category[0] == "L" and cp % 7 == 0
        ):
            chars.append(chr(cp))
    return ["a" + ch + "b" for ch in chars]


@pytest.fixture(scope="module")
def letter_texts():
    """Letters of the hiring scenario: more than one block's worth."""
    letters = generate_hiring_data(n=1500, seed=11)["letters"]
    texts = letters.column("letter_text").to_list()
    assert len(texts) > lexicon.BLOCK_TEXTS
    return texts


ODD_CELLS = [None, np.nan, "", "   ", "... 123 !", 42, "Outstanding, yet careless."]


class TestTokenize:
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_matches_reference_on_unicode_text(self, text):
        assert SentimentLexicon.tokenize(text) == reference_tokenize(text)

    def test_matches_reference_at_each_separator(self):
        for probe in separator_probes():
            assert SentimentLexicon.tokenize(probe) == reference_tokenize(probe), probe

    def test_matches_reference_at_every_code_point(self, monkeypatch):
        """``"a" + ch + "B"`` for every non-surrogate code point, a few
        thousand probes per text. A fresh separator table keeps the suite's
        process from holding a full-Unicode one afterwards."""
        monkeypatch.setattr(lexicon, "_SEPARATORS", type(lexicon._SEPARATORS)())
        points = [cp for cp in range(sys.maxunicode + 1) if not 0xD800 <= cp <= 0xDFFF]
        for start in range(0, len(points), 4096):
            text = " ".join("a" + chr(cp) + "B" for cp in points[start : start + 4096])
            assert SentimentLexicon.tokenize(text) == reference_tokenize(text), hex(points[start])

    @pytest.mark.parametrize("text", ["aⅫb", "x²y", "½", "rank①two", "İstanbul", "ǅemal"])
    def test_numerics_and_case_folding(self, text):
        assert SentimentLexicon.tokenize(text) == reference_tokenize(text)

    def test_counts_match_reference(self, letter_texts):
        lex = SentimentLexicon()
        for text in letter_texts[:200]:
            assert lex.counts(text) == reference_counts(text)


class TestEmbedding:
    def test_letters_bit_identical(self, letter_texts):
        emb = TextEmbedder(n_features=32)
        assert np.array_equal(emb.transform(letter_texts), reference_embed(emb, letter_texts))

    def test_embed_one_bit_identical(self, letter_texts):
        emb = TextEmbedder(n_features=32)
        for text in letter_texts[:20] + ODD_CELLS:
            assert np.array_equal(emb.embed_one(text), reference_embed_one(emb, text))

    @pytest.mark.parametrize("as_array", [False, True])
    def test_odd_cells_bit_identical(self, as_array):
        cells = np.array(ODD_CELLS, dtype=object) if as_array else list(ODD_CELLS)
        emb = TextEmbedder(n_features=16)
        assert np.array_equal(emb.transform(cells), reference_embed(emb, cells))

    @pytest.mark.parametrize("ngram_range", [(1, 1), (1, 3), (2, 2)])
    def test_ngram_ranges_bit_identical(self, letter_texts, ngram_range):
        texts = letter_texts[:300]
        emb = TextEmbedder(n_features=24, ngram_range=ngram_range)
        assert np.array_equal(emb.transform(texts), reference_embed(emb, texts))

    def test_block_boundaries_bit_identical(self, monkeypatch, letter_texts):
        # Blocks of 3 present texts split this column, missing cells and
        # all, in many places.
        monkeypatch.setattr(lexicon, "BLOCK_TEXTS", 3)
        cells = np.array(ODD_CELLS + letter_texts[:11] + ODD_CELLS, dtype=object)
        emb = TextEmbedder(n_features=16)
        assert np.array_equal(emb.transform(cells), reference_embed(emb, cells))


class TestHashingReference:
    @pytest.mark.parametrize("ngram_range", [(1, 1), (1, 2), (1, 3), (2, 2)])
    @pytest.mark.parametrize("signed", [True, False])
    def test_transform_bit_identical(self, letter_texts, ngram_range, signed):
        texts = letter_texts[:300] + ["", "... 123 !", "solo"]
        hv = HashingVectorizer(n_features=64, ngram_range=ngram_range, signed=signed)
        assert np.array_equal(hv.transform(texts), reference_hash(hv, texts))

    def test_transform_one_bit_identical(self, letter_texts):
        hv = HashingVectorizer(n_features=64, signed=False)
        for text in letter_texts[:20] + ["", "   ", "a a a a"]:
            assert np.array_equal(hv.transform_one(text), reference_transform_one(hv, text))

    def test_full_column_bit_identical(self, letter_texts):
        hv = HashingVectorizer(n_features=32)
        assert np.array_equal(hv.transform(letter_texts), reference_hash(hv, letter_texts))

    def test_generator_input_split_by_blocks(self, monkeypatch, letter_texts):
        monkeypatch.setattr(lexicon, "BLOCK_TEXTS", 4)
        hv = HashingVectorizer(n_features=32)
        texts = letter_texts[:10]
        assert np.array_equal(hv.transform(t for t in texts), reference_hash(hv, texts))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(alphabet="ab c²_Ⅻ.", max_size=12), max_size=6))
    def test_repetitive_texts_bit_identical(self, texts):
        hv = HashingVectorizer(n_features=8, ngram_range=(1, 3))
        expected = reference_hash(hv, texts) if texts else np.empty((0, 8))
        assert np.array_equal(hv.transform(texts), expected)
