"""Deterministic hashed bag-of-words features (the hashing trick).

:meth:`HashingVectorizer.transform` is the one implementation: it encodes a
column a :data:`~repro.text.lexicon.BLOCK_TEXTS` block at a time, hashing
each distinct n-gram of a block once. :meth:`HashingVectorizer.transform_one`
is a one-row call of it.
"""

from __future__ import annotations

import zlib
from typing import Iterable

import numpy as np

from .lexicon import TokenBlock, blocks

__all__ = ["stable_hash", "HashingVectorizer"]


def stable_hash(token: str, seed: int = 0) -> int:
    """Process-independent 32-bit hash (CRC32). Python's ``hash`` is salted."""
    return zlib.crc32(f"{seed}:{token}".encode("utf-8"))


class HashingVectorizer:
    """Map texts to fixed-width token-count vectors via feature hashing.

    Each word n-gram (its tokens joined by single spaces) adds ±1 to bucket
    ``stable_hash(gram) % n_features``, and each row is scaled to unit norm
    (an all-zero row stays zero).

    Parameters
    ----------
    n_features:
        Output dimensionality (hash buckets).
    ngram_range:
        Inclusive (lo, hi) range of word-n-gram lengths to hash.
    signed:
        Use the hash parity as a sign, which makes collisions cancel in
        expectation (as in scikit-learn's ``HashingVectorizer``).
    """

    def __init__(
        self,
        n_features: int = 128,
        ngram_range: tuple[int, int] = (1, 2),
        signed: bool = True,
    ) -> None:
        if n_features < 1:
            raise ValueError("n_features must be positive")
        lo, hi = ngram_range
        if not 1 <= lo <= hi:
            raise ValueError(f"invalid ngram_range: {ngram_range}")
        self.n_features = int(n_features)
        self.ngram_range = (int(lo), int(hi))
        self.signed = bool(signed)

    def transform_one(self, text: str) -> np.ndarray:
        """One text's vector: a one-row :meth:`transform`."""
        return self.transform([text])[0]

    def transform(self, texts: Iterable[str]) -> np.ndarray:
        """A ``(len(texts), n_features)`` matrix, one unit-norm row per text.

        Raises ``TypeError`` naming the position and type of the first text
        that is not a ``str``.
        """
        parts, offset = [], 0
        for block in blocks(texts):
            for position, text in enumerate(block, offset):
                if not isinstance(text, str):
                    raise TypeError(
                        f"text at position {position} is {type(text).__name__}, not str"
                    )
            parts.append(self.transform_block(TokenBlock(block)))
            offset += len(block)
        return np.vstack(parts) if parts else np.empty((0, self.n_features))

    def transform_block(self, block: TokenBlock) -> np.ndarray:
        """One unit-norm row of hashed n-gram counts per text of ``block``."""
        lo, hi = self.ngram_range
        width, n_vocab, ids = self.n_features, len(block.vocab), block.ids
        # Tokens from each position to the end of its text, itself included.
        left = np.cumsum(block.lengths)[block.rows] - np.arange(len(ids))
        # The n-grams of the current size: where each starts, a dense code
        # per distinct n-gram, and the n-gram of each code.
        starts, codes, grams = np.arange(len(ids)), ids, block.vocab
        cells, signs = [], []
        for size in range(1, hi + 1):
            if size > 1:
                # An n-gram is an (n-1)-gram and the token after it; coding
                # the pairs densely again keeps keys below len(ids) * n_vocab.
                keep = left[starts] >= size
                starts, codes = starts[keep], codes[keep]
                keys, codes = np.unique(
                    codes * n_vocab + ids[starts + size - 1], return_inverse=True
                )
                head, tail = np.divmod(keys, n_vocab)
                grams = [
                    f"{grams[h]} {block.vocab[t]}"
                    for h, t in zip(head.tolist(), tail.tolist())
                ]
            if size >= lo:
                hashes = np.array([stable_hash(g) for g in grams], dtype=np.int64)
                cells.append(block.rows[starts] * width + (hashes % width)[codes])
                sign = 1 - 2 * ((hashes >> 16) & 1) if self.signed else np.ones_like(hashes)
                signs.append(sign[codes])
        n_rows = len(block.lengths)
        counts = np.bincount(
            np.concatenate(cells),
            weights=np.concatenate(signs),
            minlength=n_rows * width,
        )
        # With no n-gram at all, bincount ignores the weights and counts in ints.
        counts = counts.astype(np.float64, copy=False).reshape(n_rows, width)
        norms = np.linalg.norm(counts, axis=1, keepdims=True)
        return np.divide(counts, norms, out=counts, where=norms > 0)
