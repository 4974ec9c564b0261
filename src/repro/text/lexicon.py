"""A small sentiment lexicon for the recommendation-letter scenario.

The hands-on session trains a classifier to predict the *sentiment* of a
recommendation letter. With no pretrained language model available offline,
sentiment signal enters the feature space through this lexicon: the letter
generator in :mod:`repro.datasets.letters` composes letters from phrases
whose polarity words appear here, and :class:`repro.text.TextEmbedder` emits
lexicon-hit counts as dense features.

A *token* is a maximal run of letters (``str.isalpha``) in the lower-cased
text. Everything else separates tokens: spaces, punctuation, digits, ``_``,
combining marks, and numeric symbols such as ``Ⅻ``, ``²`` or ``½``. The
tokenizer turns every separator into a space with one ``str.translate``
table and splits on whitespace; no letter is whitespace, so the pieces are
exactly those runs.

Every text feature in :mod:`repro.text` is computed a block of texts at a
time from a :class:`TokenBlock`: each text is tokenized once, and its tokens
are interned to integer ids shared by the whole block.
"""

from __future__ import annotations

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


class _Separators(dict):
    """The ``str.translate`` table of :meth:`SentimentLexicon.tokenize`.

    It maps a code point to itself when ``chr(code).isalpha()`` and to a
    space (32) otherwise. An entry is made the first time a code point is
    looked up and then kept, so the table holds one entry per distinct code
    point of the lower-cased texts the process has tokenized: ~40 for
    English letters. That bounds it: text holding every non-surrogate code
    point fills 1,110,631 entries, ~75 MiB of RSS on 64-bit CPython 3.11.
    """

    def __missing__(self, code: int) -> int:
        self[code] = out = code if chr(code).isalpha() else 32
        return out


_SEPARATORS = _Separators()


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
        """Lower-cased alphabetic tokens: the maximal ``str.isalpha`` runs."""
        return text.lower().translate(_SEPARATORS).split()

    def block_counts(self, block: TokenBlock) -> np.ndarray:
        """(positive, negative, hedge) token counts, one row per text."""
        hits = np.array(
            [(t in self.positive, t in self.negative, t in self.hedges) for t in block.vocab],
            dtype=np.float64,
        ).reshape(-1, 3)
        n_rows = len(block.lengths)
        # Sums of 0/1 weights are small integers, exact in float64.
        counts = [
            np.bincount(block.rows, weights, minlength=n_rows) for weights in hits[block.ids].T
        ]
        return np.stack(counts, axis=1).astype(np.int64)

    def counts(self, text: str) -> tuple[int, int, int]:
        """(positive, negative, hedge) token counts: a one-row :meth:`block_counts`."""
        pos, neg, hedge = self.block_counts(TokenBlock([text]))[0].tolist()
        return pos, neg, hedge

    def polarity(self, text: str) -> float:
        """Normalised polarity in [-1, 1]."""
        pos, neg, __ = self.counts(text)
        total = pos + neg
        return (pos - neg) / total if total else 0.0
