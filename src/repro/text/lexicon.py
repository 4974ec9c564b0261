"""A small sentiment lexicon for the recommendation-letter scenario.

The hands-on session trains a classifier to predict the *sentiment* of a
recommendation letter. With no pretrained language model available offline,
sentiment signal enters the feature space through this lexicon: the letter
generator in :mod:`repro.datasets.letters` composes letters from phrases
whose polarity words appear here, and :class:`repro.text.TextEmbedder` emits
lexicon-hit counts as dense features.

A *token* is a maximal run of letters (``str.isalpha``) in the lower-cased
text. Everything else separates tokens: spaces, punctuation, digits, ``_``,
combining marks, and numeric symbols such as ``Ⅻ``, ``²`` or ``½``.

Every text feature in :mod:`repro.text` is computed a block of texts at a
time from a :class:`TokenBlock`: each text is tokenized once, and its tokens
are interned to integer ids shared by the whole block.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import count, islice
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "POSITIVE_WORDS",
    "NEGATIVE_WORDS",
    "HEDGE_WORDS",
    "BLOCK_TEXTS",
    "SentimentLexicon",
    "TokenBlock",
    "blocks",
]

POSITIVE_WORDS = frozenset(
    """
    outstanding exceptional excellent remarkable meticulous diligent
    dependable dedicated innovative resourceful insightful thorough
    conscientious proactive collaborative inspiring exemplary talented
    reliable trustworthy brilliant crucial impressive commendable
    admirable superb stellar motivated versatile rigorous thoughtful
    """.split()
)

NEGATIVE_WORDS = frozenset(
    """
    undermined concerning troubling unreliable careless negligent
    dismissive combative disorganized inconsistent uncooperative
    problematic disappointing inadequate sloppy abrasive hostile
    evasive unprofessional erratic indifferent mediocre struggled
    failed missed lacked resisted ignored slowed jeopardized
    """.split()
)

HEDGE_WORDS = frozenset(
    """
    sometimes occasionally somewhat perhaps arguably partly however
    although though yet nonetheless willingness develop improve
    """.split()
)

#: Texts tokenized and interned together. A block's token strings, ids and
#: n-gram keys live only while it is encoded, so this bounds the transient
#: memory of a transform; results do not depend on it.
BLOCK_TEXTS = 1024

#: Runs of word characters other than decimal digits and ``_``: letters,
#: plus the numerics that are not decimal digits (``Ⅻ``, ``²``, ``½``).
_RUNS = re.compile(r"[^\W\d_]+")


def _letter_runs(run: str) -> list[str]:
    """A run's tokens: the run itself, or its pieces between numerics."""
    if run.isalpha():
        return [run]
    out: list[str] = []
    word: list[str] = []
    for ch in run:
        if ch.isalpha():
            word.append(ch)
        elif word:
            out.append("".join(word))
            word = []
    if word:
        out.append("".join(word))
    return out


def blocks(items: Iterable) -> Iterator[list]:
    """Consecutive lists of at most :data:`BLOCK_TEXTS` items."""
    it = iter(items)
    while block := list(islice(it, BLOCK_TEXTS)):
        yield block


class TokenBlock:
    """A block of texts, each tokenized once, with tokens interned to ids.

    The k-th token of the block, in reading order, is ``vocab[ids[k]]`` and
    comes from text ``rows[k]``; text ``i`` has ``lengths[i]`` tokens.
    """

    def __init__(self, texts: Iterable[str]) -> None:
        # A token seen for the first time gets the next id.
        index: defaultdict[str, int] = defaultdict(count().__next__)
        ids: list[int] = []
        lengths: list[int] = []
        for text in texts:
            tokens = SentimentLexicon.tokenize(text)
            ids += map(index.__getitem__, tokens)
            lengths.append(len(tokens))
        self.vocab = list(index)
        self.ids = np.array(ids, dtype=np.int64)
        self.lengths = np.array(lengths, dtype=np.int64)
        self.rows = np.repeat(np.arange(len(lengths)), self.lengths)


class SentimentLexicon:
    """Counts polarity-bearing tokens in a text."""

    def __init__(
        self,
        positive: frozenset[str] = POSITIVE_WORDS,
        negative: frozenset[str] = NEGATIVE_WORDS,
        hedges: frozenset[str] = HEDGE_WORDS,
    ) -> None:
        self.positive = positive
        self.negative = negative
        self.hedges = hedges

    @staticmethod
    def tokenize(text: str) -> list[str]:
        """Lower-cased alphabetic tokens."""
        runs = _RUNS.findall(text.lower())
        if "".join(runs).isalpha():
            return runs
        return [token for run in runs for token in _letter_runs(run)]

    def block_counts(self, block: TokenBlock) -> np.ndarray:
        """(positive, negative, hedge) token counts, one row per text."""
        hits = np.array(
            [(t in self.positive, t in self.negative, t in self.hedges) for t in block.vocab],
            dtype=np.int64,
        ).reshape(-1, 3)
        out = np.zeros((len(block.lengths), 3), dtype=np.int64)
        np.add.at(out, block.rows, hits[block.ids])
        return out

    def counts(self, text: str) -> tuple[int, int, int]:
        """(positive, negative, hedge) token counts: a one-row :meth:`block_counts`."""
        pos, neg, hedge = self.block_counts(TokenBlock([text]))[0].tolist()
        return pos, neg, hedge

    def polarity(self, text: str) -> float:
        """Normalised polarity in [-1, 1]."""
        pos, neg, __ = self.counts(text)
        total = pos + neg
        return (pos - neg) / total if total else 0.0
