"""Data importance for retrieval-augmented generation (Lyu et al. [47]).

In a RAG system the "training data" is the retrieval corpus: answers are
produced by retrieving the nearest documents to a query and aggregating
their content. Corpus quality therefore determines answer quality, and the
importance question becomes *which corpus entries help or hurt the
downstream answers*.

Because retrieval-then-vote **is** a K-nearest-neighbour model over the
embedding space, the exact KNN-Shapley machinery applies verbatim — the
observation that makes corpus debugging tractable. This module provides the
minimal RAG substrate (embedded corpus, retrieve, answer) plus the
importance computation and a prune-and-remeasure helper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..learn.models.knn import neighbor_order, pairwise_distances
from ..text import TextEmbedder
from .base import ImportanceResult
from .knn_shapley import knn_shapley

__all__ = ["RetrievalCorpus", "rag_importance"]


@dataclass
class RetrievalCorpus:
    """An embedded document corpus with per-document answers.

    Parameters
    ----------
    documents:
        The raw corpus texts.
    answers:
        The answer each document supports (the "generation" a retrieval hit
        contributes; a categorical stand-in for free-form generation).
    embedder:
        Text embedder shared between documents and queries.
    """

    documents: list[str]
    answers: np.ndarray
    embedder: TextEmbedder = field(default_factory=lambda: TextEmbedder(n_features=48))

    def __post_init__(self) -> None:
        self.answers = np.asarray(self.answers)
        if len(self.documents) != len(self.answers):
            raise ValueError("documents and answers must have equal length")
        if len(self.documents) == 0:
            raise ValueError("empty corpus")
        self.embeddings_ = self.embedder.transform(list(self.documents))

    def __len__(self) -> int:
        return len(self.documents)

    def retrieve(self, queries: Sequence[str], k: int = 3) -> np.ndarray:
        """Indices of the k nearest documents per query (``k >= 1``)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = self.embedder.transform(list(queries))
        distances = pairwise_distances(q, self.embeddings_)
        return neighbor_order(distances, min(k, len(self)))

    def answer(self, queries: Sequence[str], k: int = 3) -> np.ndarray:
        """Majority answer among the retrieved documents.

        Vote ties are broken toward the answer whose best supporting
        document ranks nearest — the natural retrieval semantics (and the
        vote *counts* stay those of the plain KNN game that
        :func:`rag_importance` scores exactly).
        """
        hits = self.retrieve(queries, k=k)
        out = []
        for row in hits:
            votes: dict[Any, int] = {}
            best_rank: dict[Any, int] = {}
            for rank, doc in enumerate(row.tolist()):
                answer = self.answers[doc].item() if hasattr(
                    self.answers[doc], "item"
                ) else self.answers[doc]
                votes[answer] = votes.get(answer, 0) + 1
                best_rank.setdefault(answer, rank)
            winner = min(votes, key=lambda a: (-votes[a], best_rank[a]))
            out.append(winner)
        return np.asarray(out)

    def accuracy(self, queries: Sequence[str], truth: Any, k: int = 3) -> float:
        truth = np.asarray(truth)
        return float(np.mean(self.answer(queries, k=k) == truth))

    def without(self, positions: Sequence[int]) -> "RetrievalCorpus":
        """A copy of the corpus with the given documents removed."""
        drop = set(int(p) for p in positions)
        keep = [i for i in range(len(self)) if i not in drop]
        if not keep:
            raise ValueError("cannot remove the entire corpus")
        return RetrievalCorpus(
            documents=[self.documents[i] for i in keep],
            answers=self.answers[keep],
            embedder=self.embedder,
        )


def rag_importance(
    corpus: RetrievalCorpus,
    queries: Sequence[str],
    truth: Any,
    k: int = 3,
) -> ImportanceResult:
    """Exact KNN-Shapley importance of each corpus document.

    The validation set is the query workload with its reference answers;
    the utility is the retrieval-vote correctness — precisely the KNN game,
    so the closed-form recursion gives exact values in O(|corpus| log
    |corpus|) per query.
    """
    truth = np.asarray(truth)
    q_embed = corpus.embedder.transform(list(queries))
    result = knn_shapley(
        corpus.embeddings_, corpus.answers, q_embed, truth, k=k
    )
    result.method = f"rag_knn_shapley(k={k})"
    result.extras["n_queries"] = len(truth)
    return result
