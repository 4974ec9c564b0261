"""Dense text embedding: the offline stand-in for SentenceBERT.

The paper's Figure 3 pipeline encodes ``letter_text`` with a
``SentenceBertTransformer``. No pretrained model is available offline, so we
build a deterministic embedding with the same *shape* of behaviour: a dense
fixed-width vector in which sentiment-bearing content is linearly separable.
The embedding concatenates hashed n-gram features (topical content) with
lexicon statistics (polarity signal).

:meth:`TextEmbedder.transform` is the one implementation. It encodes a column
a :data:`~repro.text.lexicon.BLOCK_TEXTS` block at a time, tokenizing each
text once for both parts of its row; :meth:`TextEmbedder.embed_one` is a
one-row call of it.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..learn.base import Transformer
from ..learn.preprocessing.encoders import as_cells
from .hashing import HashingVectorizer
from .lexicon import SentimentLexicon, TokenBlock, blocks

__all__ = ["TextEmbedder", "SentenceBertTransformer"]


class TextEmbedder(Transformer):
    """Embed texts into ``n_features + 4`` dense dimensions.

    The last four dimensions are interpretable lexicon statistics:
    positive-hit rate, negative-hit rate, hedge rate, and log-length.
    Missing texts embed to the zero vector.
    """

    def __init__(self, n_features: int = 64, ngram_range: tuple[int, int] = (1, 2)) -> None:
        self.n_features = int(n_features)
        self.ngram_range = ngram_range
        self._vectorizer = HashingVectorizer(n_features=self.n_features, ngram_range=ngram_range)
        self._lexicon = SentimentLexicon()

    @property
    def output_dim(self) -> int:
        return self.n_features + 4

    def fit(self, X: Any, y: Any = None) -> "TextEmbedder":
        self.fitted_ = True  # stateless; hashing needs no vocabulary
        return self

    def embed_one(self, text: str | None) -> np.ndarray:
        """One text's embedding: a one-row :meth:`transform`."""
        return self.transform([text])[0]

    def transform(self, X: Any) -> np.ndarray:
        cells = as_cells(X)
        out = np.zeros((len(cells), self.output_dim))
        present = [i for i, cell in enumerate(cells) if cell is not None and str(cell).strip()]
        for rows in blocks(present):
            block = TokenBlock(str(cells[i]) for i in rows)
            n_tokens = np.maximum(block.lengths, 1).astype(float)
            out[rows, : self.n_features] = self._vectorizer.transform_block(block)
            out[rows, self.n_features : -1] = (
                self._lexicon.block_counts(block) / n_tokens[:, None]
            )
            # The length statistic is damped to the same O(0.1) scale as the
            # rate features: the hashed block is unit-norm, and an unscaled
            # log-length would dominate every distance computation.
            out[rows, -1] = np.log1p(n_tokens) / 10.0
        return out

    def embed(self, texts: Iterable[str]) -> np.ndarray:
        """Convenience alias used outside transformer pipelines."""
        return self.transform(list(texts))


class SentenceBertTransformer(TextEmbedder):
    """Alias matching the class name used in the paper's code snippets."""
