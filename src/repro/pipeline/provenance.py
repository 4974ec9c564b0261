"""Fine-grained why-provenance for pipeline outputs.

Following the semiring framework of Green et al. [27], each output row of a
pipeline carries the *set of source tuples* that produced it (why-
provenance: the additive structure collapses because our pipelines are
select-project-join, not aggregating). A source tuple is identified by
``(source_name, row_id)`` with row ids taken from
:attr:`repro.frame.DataFrame.row_ids`.

The sets are stored by column, in Datascope's canonical map/fork/join form
(Karlaš et al., arXiv 2204.11131): an output row descends from at most one
tuple per source, so one row-id column per source holds all of it, and
every operator is an array operation instead of a loop over rows.

This is what makes pipeline-aware debugging possible: importance computed on
*encoded training matrices* can be pushed back through joins and filters to
the raw input tables where errors actually live (Section 2.2 of the paper).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Provenance"]

#: Fills a slot of a row-id matrix that holds no tuple.
EMPTY = -1


def _padded(matrix: np.ndarray | None, n_rows: int, width: int) -> np.ndarray:
    """``matrix`` widened to ``width`` columns (or created) with empty slots."""
    if matrix is None:
        return np.full((n_rows, width), EMPTY, dtype=np.int64)
    if matrix.shape[1] == width:
        return matrix
    pad = np.full((n_rows, width - matrix.shape[1]), EMPTY, dtype=np.int64)
    return np.concatenate([matrix, pad], axis=1)


class Provenance:
    """Per-output-row sets of contributing source tuples.

    ``columns`` maps each source name to an int64 row-id matrix of shape
    ``(rows, width)``. Row ``i`` descends from the tuples whose ids are the
    non-negative entries of row ``i`` of each matrix; ``-1`` fills a slot
    with no tuple (a left-join row no right tuple matched). Width is 1
    unless a join brings one source in from both inputs (a self-join),
    whose output concatenates the two sides' matrices; a repeated id in a
    row is one tuple, as in a set.

    The constructor takes the set form, one frozenset of
    ``(source, row_id)`` tuples per row, and :attr:`tuples` gives it back
    on demand; the executor builds and combines the columns directly.
    """

    def __init__(self, tuples: Sequence[frozenset[tuple[str, int]]]) -> None:
        rows = []
        for row in tuples:
            prov = Provenance._of({}, 1)
            for name, rid in sorted(row):
                prov = Provenance.union_rows(prov, Provenance.for_source(name, [rid]))
            rows.append(prov)
        stacked = Provenance.concat(rows)
        self.columns: dict[str, np.ndarray] = stacked.columns
        self._n_rows = len(stacked)

    @classmethod
    def _of(cls, columns: Mapping[str, np.ndarray], n_rows: int) -> "Provenance":
        prov = cls.__new__(cls)
        prov.columns = dict(columns)
        prov._n_rows = n_rows
        return prov

    # ------------------------------------------------------------------
    # Constructors used by the executor
    # ------------------------------------------------------------------
    @classmethod
    def for_source(cls, name: str, row_ids: np.ndarray) -> "Provenance":
        ids = np.array(row_ids, dtype=np.int64).reshape(-1, 1)
        if ids.size and ids.min() < 0:
            raise ValueError(
                f"provenance row ids must be non-negative ({EMPTY} marks an "
                "empty slot)"
            )
        return cls._of({name: ids}, len(ids))

    def take(self, positions: np.ndarray) -> "Provenance":
        positions = np.asarray(positions, dtype=np.int64)
        return Provenance._of(
            {name: m[positions] for name, m in self.columns.items()}, len(positions)
        )

    @staticmethod
    def union_rows(left: "Provenance", right: "Provenance") -> "Provenance":
        """Row-wise union (join output: both inputs contributed)."""
        if len(left) != len(right):
            raise ValueError("provenance length mismatch in union")
        columns = dict(left.columns)
        for name, m in right.columns.items():
            columns[name] = (
                np.concatenate([columns[name], m], axis=1) if name in columns else m
            )
        return Provenance._of(columns, len(left))

    @staticmethod
    def join(
        left: "Provenance",
        lpos: np.ndarray,
        right: "Provenance",
        rpos: np.ndarray,
    ) -> "Provenance":
        """Provenance of a join output, from the positions the join returned.

        Output row ``i`` unites ``left``'s row ``lpos[i]`` with ``right``'s
        row ``rpos[i]``; ``rpos[i] == -1`` (an unmatched left row) adds no
        right tuple.
        """
        rpos = np.asarray(rpos, dtype=np.int64)
        # One appended row of empty slots, which position -1 selects.
        matched = {
            name: np.concatenate([m, _padded(None, 1, m.shape[1])])[rpos]
            for name, m in right.columns.items()
        }
        return Provenance.union_rows(
            left.take(lpos), Provenance._of(matched, len(rpos))
        )

    @staticmethod
    def concat(parts: Sequence["Provenance"]) -> "Provenance":
        """Stack parts vertically, filling absent sources with empty slots."""
        parts = list(parts)
        widths: dict[str, int] = {}
        for part in parts:
            for name, m in part.columns.items():
                widths[name] = max(widths.get(name, 0), m.shape[1])
        columns = {
            name: np.concatenate(
                [_padded(part.columns.get(name), len(part), w) for part in parts]
            )
            for name, w in widths.items()
        }
        return Provenance._of(columns, sum(len(part) for part in parts))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    @property
    def tuples(self) -> list[frozenset[tuple[str, int]]]:
        """The set form: one frozenset of ``(source, row_id)`` per row."""
        rows: list[list[tuple[str, int]]] = [[] for __ in range(self._n_rows)]
        for name, m in self.columns.items():
            at, slot = np.nonzero(m >= 0)
            for i, rid in zip(at.tolist(), m[at, slot].tolist()):
                rows[i].append((name, rid))
        return [frozenset(row) for row in rows]

    def row(self, position: int) -> frozenset[tuple[str, int]]:
        """The source tuples of one output row."""
        return self.take([position]).tuples[0]

    def sources(self) -> set[str]:
        return {name for name, m in self.columns.items() if (m >= 0).any()}

    def source_ids(self, source: str) -> np.ndarray:
        """``source``'s row-id matrix, at least one column wide, with a
        repeated id in a row set to ``-1`` so each tuple appears once.

        A source no row descends from gives one column of ``-1``. The
        result may be the stored matrix: do not write to it.
        """
        m = self.columns.get(source)
        if m is None:
            return _padded(None, self._n_rows, 1)
        if m.shape[1] == 1:
            return m
        m = np.sort(m, axis=1)
        m[:, 1:][m[:, 1:] == m[:, :-1]] = EMPTY
        return m

    def source_row_ids(self, source: str) -> np.ndarray:
        """Row ids of ``source`` that contribute to *each* output row.

        Requires every output row to descend from exactly one tuple of the
        source (true for the paper's pipelines, where side tables are joined
        onto a training base table); raises otherwise.
        """
        ids = self.source_ids(source)
        counts = (ids >= 0).sum(axis=1)
        bad = np.flatnonzero(counts != 1)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"output row {i} descends from {int(counts[i])} tuples of "
                f"{source!r}; expected exactly one"
            )
        return ids.max(axis=1)

    def outputs_of(self, source: str, row_ids: Iterable[int]) -> np.ndarray:
        """Output positions that any of the given source tuples contributed to."""
        wanted = np.asarray([int(rid) for rid in row_ids], dtype=np.int64)
        hits = np.isin(self.source_ids(source), wanted[wanted >= 0]).any(axis=1)
        return np.flatnonzero(hits)

    def lineage_table(self) -> list[dict]:
        """Readable dump: one record per output row."""
        return [
            {
                "output_row": i,
                "sources": ", ".join(
                    f"{name}[{rid}]" for name, rid in sorted(row)
                ),
            }
            for i, row in enumerate(self.tuples)
        ]
