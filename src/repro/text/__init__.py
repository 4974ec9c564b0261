"""Deterministic offline text features (SentenceBERT stand-in).

A token is a maximal run of letters in the lower-cased text (see
:mod:`repro.text.lexicon`). ``HashingVectorizer.transform`` and
``TextEmbedder.transform`` are the one implementation: they encode a column
in blocks of ``BLOCK_TEXTS`` texts, tokenizing each text once and hashing
each distinct n-gram of a block once. ``transform_one``, ``embed_one`` and
``SentimentLexicon.counts`` are one-row calls of the same kernel.
"""

from .embedder import SentenceBertTransformer, TextEmbedder
from .hashing import HashingVectorizer, stable_hash
from .lexicon import HEDGE_WORDS, NEGATIVE_WORDS, POSITIVE_WORDS, SentimentLexicon

__all__ = [
    "SentenceBertTransformer",
    "TextEmbedder",
    "HashingVectorizer",
    "stable_hash",
    "SentimentLexicon",
    "POSITIVE_WORDS",
    "NEGATIVE_WORDS",
    "HEDGE_WORDS",
]
