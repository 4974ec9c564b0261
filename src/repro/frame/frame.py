"""A column-oriented DataFrame with stable row identity.

This is the relational substrate for the whole library. It deliberately
mimics the small subset of the pandas API that real-world ML preprocessing
pipelines use (selection, filtering, joins, group-by, column assignment), as
surveyed in the tutorial's Section 2.2, while adding one feature pandas does
not have: every row carries a **stable row id** (:attr:`DataFrame.row_ids`)
that survives filtering, sorting, and joining. Those ids are what the
provenance machinery in :mod:`repro.pipeline` tracks back to source tuples.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .column import Column

__all__ = ["DataFrame"]


def _as_column(values: Any) -> Column:
    return values.copy() if isinstance(values, Column) else Column(values)


def _normalise_key(value: Any) -> Any:
    """Canonical form used by fuzzy joins: case/whitespace-insensitive."""
    if isinstance(value, str):
        return " ".join(value.strip().lower().split())
    return value


def _deletion_variants(text: str) -> set[str]:
    """The string plus every single-character deletion of it.

    Two strings within one edit (insert/delete/substitute/adjacent swap)
    share at least one deletion variant — the SymSpell indexing trick that
    makes edit-distance-1 joins linear instead of quadratic.
    """
    return {text} | {text[:i] + text[i + 1 :] for i in range(len(text))}


def _indexable(left: np.dtype, right: np.dtype) -> bool:
    """Whether numpy equality of the two key dtypes is the dict's equality:
    integers of one signedness, or both unicode strings. Other pairings
    (floats, bools, objects, int against float) keep the dict, where
    ``1 == 1.0 == True``."""
    return left.kind == right.kind and left.kind in "iuU"


def _index_match(left_key: Column, right_key: Column, how: str):
    """Exact-key join positions from a sorted index of the right keys.

    ``np.unique`` keeps each distinct right key's first position (the
    first match wins, as in the dict loop); each left key is found by
    ``searchsorted`` plus an equality check. Masked keys never match.
    """
    present = np.flatnonzero(~right_key.mask)
    keys, first = np.unique(right_key.values[present], return_index=True)
    probe = left_key.values
    match = np.full(len(probe), -1, dtype=np.int64)
    if len(keys):
        slot = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        hit = ~left_key.mask & (keys[slot] == probe)
        match[hit] = present[first[slot[hit]]]
    lpos = np.flatnonzero(match >= 0) if how == "inner" else np.arange(len(probe))
    return lpos, match[lpos]


def _dict_match(left_key: Column, right_key: Column, how: str, fuzzy: bool | str):
    """Join positions from a dict of right keys; fuzzy modes and key
    pairings :func:`_indexable` rejects."""
    edit_tolerant = fuzzy == "edit"

    def canon(value: Any) -> Any:
        return _normalise_key(value) if fuzzy else value

    right_index: dict[Any, int] = {}
    variant_index: dict[str, int] = {}
    for pos in range(len(right_key)):
        if right_key.mask[pos]:
            continue
        raw = right_key.values[pos]
        key = canon(raw.item() if right_key.values.dtype.kind != "U" else str(raw))
        if key not in right_index:  # first match wins (dimension table)
            right_index[key] = pos
            if edit_tolerant and isinstance(key, str):
                for variant in _deletion_variants(key):
                    variant_index.setdefault(variant, pos)

    left_positions: list[int] = []
    right_positions: list[int] = []
    for pos in range(len(left_key)):
        if left_key.mask[pos]:
            match = -1
        else:
            raw = left_key.values[pos]
            key = canon(raw.item() if left_key.values.dtype.kind != "U" else str(raw))
            match = right_index.get(key, -1)
            if match == -1 and edit_tolerant and isinstance(key, str):
                for variant in _deletion_variants(key):
                    if variant in variant_index:
                        match = variant_index[variant]
                        break
        if match == -1 and how == "inner":
            continue
        left_positions.append(pos)
        right_positions.append(match)
    return (
        np.asarray(left_positions, dtype=np.int64),
        np.asarray(right_positions, dtype=np.int64),
    )


class DataFrame:
    """An ordered collection of equally-long named :class:`Column` objects.

    Parameters
    ----------
    data:
        Mapping from column name to array-like / :class:`Column`.
    row_ids:
        Optional stable identifiers (one per row). Defaults to ``0..n-1``.
        Row ids identify *source tuples* for provenance purposes: two frames
        derived from the same source share ids for the surviving rows.
    """

    def __init__(self, data: Mapping[str, Any], row_ids: Any = None) -> None:
        self._columns: dict[str, Column] = {}
        length: int | None = None
        for name, values in data.items():
            col = _as_column(values)
            if length is None:
                length = len(col)
            elif len(col) != length:
                raise ValueError(
                    f"column {name!r} has length {len(col)}, expected {length}"
                )
            self._columns[str(name)] = col
        if length is None:
            length = 0
        if row_ids is None:
            self.row_ids = np.arange(length, dtype=np.int64)
        else:
            self.row_ids = np.asarray(row_ids, dtype=np.int64).copy()
            if len(self.row_ids) != length:
                raise ValueError("row_ids length does not match data")

    @classmethod
    def _adopt(cls, columns: dict[str, Column], row_ids: np.ndarray) -> "DataFrame":
        """A frame over columns and row ids an operator has just built.

        :meth:`__init__` copies what a caller passes in. An operator's
        columns are fresh arrays of equal length that nothing else holds,
        so the frame takes them as they are instead of copying them again.
        """
        if not columns and len(row_ids):
            # As in __init__: a frame without columns has no rows.
            raise ValueError("row_ids length does not match data")
        frame = cls.__new__(cls)
        frame._columns = columns
        frame.row_ids = row_ids
        return frame

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        return len(self.row_ids)

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_columns)

    def __len__(self) -> int:
        return self.num_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from ..viz.table import format_table

        return format_table(self, max_rows=10)

    def column(self, name: str) -> Column:
        if name not in self._columns:
            raise KeyError(f"no such column: {name!r}; have {self.columns}")
        return self._columns[name]

    def __getitem__(self, key: Any):
        """Column by name, projection by name list, or filter by bool mask."""
        if isinstance(key, str):
            return self.column(key)
        if isinstance(key, (list, tuple)) and all(isinstance(k, str) for k in key):
            return self.select(list(key))
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return self.filter(key)
        raise TypeError(f"unsupported DataFrame index: {type(key).__name__}")

    def __setitem__(self, name: str, values: Any) -> None:
        col = _as_column(values)
        if self._columns and len(col) != self.num_rows:
            raise ValueError(
                f"column {name!r} has length {len(col)}, expected {self.num_rows}"
            )
        if not self._columns:
            self.row_ids = np.arange(len(col), dtype=np.int64)
        self._columns[str(name)] = col

    # ------------------------------------------------------------------
    # Copying and equality
    # ------------------------------------------------------------------
    def copy(self) -> "DataFrame":
        return DataFrame._adopt(
            {name: col.copy() for name, col in self._columns.items()},
            self.row_ids.copy(),
        )

    def equals(self, other: "DataFrame") -> bool:
        if not isinstance(other, DataFrame):
            return False
        if self.columns != other.columns or self.num_rows != other.num_rows:
            return False
        for name in self.columns:
            a, b = self._columns[name], other._columns[name]
            if not np.array_equal(a.mask, b.mask):
                return False
            present = ~a.mask
            if a.dtype_kind != b.dtype_kind:
                return False
            if a.dtype_kind == "float":
                if not np.allclose(
                    a.values[present].astype(float),
                    b.values[present].astype(float),
                    equal_nan=True,
                ):
                    return False
            elif not np.array_equal(a.values[present], b.values[present]):
                return False
        return True

    # ------------------------------------------------------------------
    # Row selection
    # ------------------------------------------------------------------
    def take(self, indices: Any) -> "DataFrame":
        """Rows at the given *positions* (not row ids)."""
        idx = np.asarray(indices, dtype=np.int64)
        return DataFrame._adopt(
            {name: col.take(idx) for name, col in self._columns.items()},
            self.row_ids[idx],
        )

    def filter(self, keep: Any) -> "DataFrame":
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.num_rows,):
            raise ValueError(
                f"filter mask shape {keep.shape} != ({self.num_rows},)"
            )
        return self.take(np.flatnonzero(keep))

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(np.arange(min(n, self.num_rows)))

    def sample(self, n: int, rng: np.random.Generator | int | None = None) -> "DataFrame":
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        idx = rng.choice(self.num_rows, size=min(n, self.num_rows), replace=False)
        return self.take(np.sort(idx))

    def sort_values(self, by: str, ascending: bool = True) -> "DataFrame":
        col = self.column(by)
        order = np.argsort(col.values, kind="stable")
        # Missing cells sort last regardless of direction.
        order = np.concatenate([order[~col.mask[order]], order[col.mask[order]]])
        if not ascending:
            present = order[~col.mask[order]]
            missing = order[col.mask[order]]
            order = np.concatenate([present[::-1], missing])
        return self.take(order)

    def positions_of(self, row_ids: Iterable[int]) -> np.ndarray:
        """Positions of the given stable row ids (raises if any is absent)."""
        lookup = {rid: pos for pos, rid in enumerate(self.row_ids.tolist())}
        out = []
        for rid in row_ids:
            if int(rid) not in lookup:
                raise KeyError(f"row id {rid} not present in frame")
            out.append(lookup[int(rid)])
        return np.asarray(out, dtype=np.int64)

    # ------------------------------------------------------------------
    # Column manipulation
    # ------------------------------------------------------------------
    def select(self, names: Sequence[str]) -> "DataFrame":
        return self._project(list(names), "select")

    def drop(self, names: str | Sequence[str]) -> "DataFrame":
        dropped = {names} if isinstance(names, str) else set(names)
        unknown = dropped - set(self._columns)
        if unknown:
            raise KeyError(f"cannot drop unknown columns: {sorted(unknown)}")
        return self._project([c for c in self.columns if c not in dropped], "drop")

    def _project(self, names: list[str], operator: str) -> "DataFrame":
        """The frame of ``names``' columns; ``operator`` names the caller."""
        if not names and self.num_rows:
            raise ValueError(
                f"{operator} leaves an empty projection: a frame without "
                f"columns has no rows, and this one has {self.num_rows}"
            )
        return DataFrame._adopt(
            {str(name): self.column(name).copy() for name in names}, self.row_ids.copy()
        )

    def rename(self, mapping: Mapping[str, str]) -> "DataFrame":
        return DataFrame._adopt(
            {
                str(mapping.get(name, name)): col.copy()
                for name, col in self._columns.items()
            },
            self.row_ids.copy(),
        )

    def assign(self, **columns: Any) -> "DataFrame":
        out = self.copy()
        for name, values in columns.items():
            out[name] = values
        return out

    def map_column(self, name: str, func: Callable[[Any], Any], into: str | None = None) -> "DataFrame":
        """Apply a UDF to one column; result stored under ``into`` (or in place)."""
        out = self.copy()
        out[into or name] = self.column(name).map(func)
        return out

    # ------------------------------------------------------------------
    # Row mutation (used by cleaning oracles)
    # ------------------------------------------------------------------
    def set_rows(self, positions: Any, replacement: "DataFrame") -> "DataFrame":
        """Return a copy with rows at ``positions`` replaced.

        ``replacement`` must have the same columns and one row per position.
        Row ids at the replaced positions are preserved: cleaning a tuple
        does not change its identity.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if replacement.num_rows != len(pos):
            raise ValueError(
                f"{len(pos)} positions but replacement has {replacement.num_rows} rows"
            )
        if set(replacement.columns) != set(self.columns):
            raise ValueError("replacement columns do not match")
        out = self.copy()
        for name in self.columns:
            rep = replacement.column(name)
            col = out.column(name).set_values(pos, rep.values)
            # Re-apply missingness from the replacement rows.
            missing_pos = pos[rep.mask]
            if len(missing_pos):
                col = col.set_missing(missing_pos)
            out._columns[name] = col
        return out

    def set_cell(self, position: int, name: str, value: Any) -> "DataFrame":
        out = self.copy()
        out._columns[name] = out.column(name).set_values([position], [value])
        return out

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------
    def join(
        self,
        other: "DataFrame",
        on: str,
        how: str = "left",
        suffix: str = "_right",
        fuzzy: bool | str = False,
        return_indices: bool = False,
    ):
        """Join on an equality key, keeping the *left* frame's row ids.

        Left/inner joins where the right side is a key-unique dimension table
        are the shape that dominates real ML preprocessing pipelines (side
        tables joined onto training data). Each output row descends from
        exactly one left row, so left row ids remain valid provenance.

        A left row matches the *first* right row with an equal key, and a
        missing key matches nothing. Exact (non-fuzzy) joins whose key
        columns are both integers of one signedness, or both unicode
        strings, probe a sorted numpy index of the right keys; fuzzy joins
        and other key pairings (floats, bools, objects, int against float,
        where ``1 == 1.0``) look keys up in a dict. Both paths return the
        same rows.

        Parameters
        ----------
        on:
            Key column present in both frames.
        how:
            ``"left"`` (unmatched left rows survive with missing right cells)
            or ``"inner"``.
        fuzzy:
            ``False`` — exact keys only. ``True`` or ``"normalize"`` — match
            string keys case- and whitespace-insensitively. ``"edit"`` —
            additionally tolerate one edit (insertion, deletion,
            substitution, or adjacent transposition) per key, the typo
            family :func:`repro.errors.inject_typos` produces; exact
            normalised matches always win over edit-distance ones.
        return_indices:
            Also return ``(left_positions, right_positions)`` arrays, with
            ``-1`` marking unmatched right positions. Used by the provenance
            tracker.
        """
        if how not in ("left", "inner"):
            raise ValueError(f"unsupported join type: {how!r}")
        if fuzzy not in (False, True, "normalize", "edit"):
            raise ValueError(f"unsupported fuzzy mode: {fuzzy!r}")
        left_key = self.column(on)
        right_key = other.column(on)
        if not fuzzy and _indexable(left_key.values.dtype, right_key.values.dtype):
            lpos, rpos = _index_match(left_key, right_key, how)
        else:
            lpos, rpos = _dict_match(left_key, right_key, how, fuzzy)

        data: dict[str, Column] = {
            name: col.take(lpos) for name, col in self._columns.items()
        }
        for name, col in other._columns.items():
            if name == on:
                continue
            out_name = name if name not in data else f"{name}{suffix}"
            if other.num_rows == 0:
                # No partner rows exist at all: every cell is missing.
                fill = "" if col.dtype_kind == "string" else 0
                taken = Column(
                    np.full(len(lpos), fill, dtype=col.values.dtype),
                    mask=np.ones(len(lpos), dtype=bool),
                )
            else:
                matched = rpos.copy()
                matched[matched < 0] = 0  # placeholder; masked below
                taken = col.take(matched)
                taken.mask[rpos < 0] = True
            data[out_name] = taken
        joined = DataFrame._adopt(data, self.row_ids[lpos])
        if return_indices:
            return joined, lpos, rpos
        return joined

    @staticmethod
    def concat_rows(frames: Sequence["DataFrame"]) -> "DataFrame":
        """Stack frames vertically; all must share the same columns."""
        frames = list(frames)
        if not frames:
            raise ValueError("cannot concatenate zero frames")
        names = frames[0].columns
        for frame in frames[1:]:
            if frame.columns != names:
                raise ValueError("frames have mismatching columns")
        data = {
            name: Column.concat([f.column(name) for f in frames]) for name in names
        }
        row_ids = np.concatenate([f.row_ids for f in frames])
        return DataFrame._adopt(data, row_ids)

    def groupby(self, by: str | Sequence[str]) -> "GroupBy":
        keys = [by] if isinstance(by, str) else list(by)
        return GroupBy(self, keys)

    # ------------------------------------------------------------------
    # Deduplication and summary
    # ------------------------------------------------------------------
    def duplicate_mask(self, subset: Sequence[str] | None = None) -> np.ndarray:
        """True for every row that repeats an earlier row (on ``subset``).

        The first occurrence of each value combination is not marked, so
        ``filter(~mask)`` keeps exactly one representative per group — the
        repair for the duplicate-row error family in :mod:`repro.errors`.
        """
        names = list(subset) if subset is not None else self.columns
        lists = {name: self.column(name).to_list() for name in names}
        seen: set[tuple] = set()
        mask = np.zeros(self.num_rows, dtype=bool)
        for position in range(self.num_rows):
            key = tuple(lists[name][position] for name in names)
            if key in seen:
                mask[position] = True
            else:
                seen.add(key)
        return mask

    def drop_duplicates(self, subset: Sequence[str] | None = None) -> "DataFrame":
        """Keep the first occurrence of each value combination."""
        return self.filter(~self.duplicate_mask(subset))

    def describe(self) -> "DataFrame":
        """Per-column summary: kind, missing count, and basic statistics."""
        records: dict[str, list] = {
            "column": [], "kind": [], "missing": [], "unique": [],
            "mean": [], "std": [], "min": [], "max": [],
        }
        for name, col in self._columns.items():
            records["column"].append(name)
            records["kind"].append(col.dtype_kind)
            records["missing"].append(col.null_count())
            records["unique"].append(len(col.unique()))
            if col.is_numeric:
                records["mean"].append(col.mean())
                records["std"].append(col.std())
                records["min"].append(float(col.min()) if col.min() is not None else None)
                records["max"].append(float(col.max()) if col.max() is not None else None)
            else:
                records["mean"].append(None)
                records["std"].append(None)
                records["min"].append(None)
                records["max"].append(None)
        return DataFrame(records)

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_rows(self) -> list[dict[str, Any]]:
        lists = {name: col.to_list() for name, col in self._columns.items()}
        return [
            {name: lists[name][i] for name in self.columns}
            for i in range(self.num_rows)
        ]

    def iterrows(self):
        for pos, row in enumerate(self.to_rows()):
            yield pos, row

    def to_numpy(self, columns: Sequence[str] | None = None) -> np.ndarray:
        """Dense float matrix of the given (numeric) columns."""
        names = list(columns) if columns is not None else [
            c for c in self.columns if self.column(c).is_numeric
        ]
        if not names:
            return np.empty((self.num_rows, 0), dtype=float)
        mats = []
        for name in names:
            col = self.column(name)
            if not col.is_numeric:
                raise TypeError(f"column {name!r} is not numeric")
            mats.append(col.to_numpy(fill=np.nan).astype(float))
        return np.column_stack(mats)

    def null_counts(self) -> dict[str, int]:
        return {name: col.null_count() for name, col in self._columns.items()}


class GroupBy:
    """Deferred group-by produced by :meth:`DataFrame.groupby`."""

    _AGGREGATORS: dict[str, Callable[[Column], Any]] = {
        "mean": lambda c: c.mean(),
        "sum": lambda c: c.sum(),
        "min": lambda c: c.min(),
        "max": lambda c: c.max(),
        "median": lambda c: c.median(),
        "std": lambda c: c.std(),
        "count": lambda c: len(c) - c.null_count(),
        "nunique": lambda c: len(c.unique()),
        "mode": lambda c: c.mode(),
    }

    def __init__(self, frame: DataFrame, keys: list[str]) -> None:
        self._frame = frame
        self._keys = keys
        for key in keys:
            frame.column(key)  # validate

    def groups(self) -> dict[tuple, np.ndarray]:
        """Mapping from key tuple to member row positions."""
        key_lists = [self._frame.column(k).to_list() for k in self._keys]
        out: dict[tuple, list[int]] = {}
        for pos in range(self._frame.num_rows):
            key = tuple(key_list[pos] for key_list in key_lists)
            out.setdefault(key, []).append(pos)
        return {k: np.asarray(v, dtype=np.int64) for k, v in out.items()}

    def size(self) -> DataFrame:
        groups = self.groups()
        data: dict[str, list] = {k: [] for k in self._keys}
        sizes = []
        for key, positions in sorted(groups.items(), key=lambda kv: str(kv[0])):
            for name, part in zip(self._keys, key):
                data[name].append(part)
            sizes.append(len(positions))
        data["size"] = sizes
        return DataFrame(data)

    def agg(self, spec: Mapping[str, str]) -> DataFrame:
        """Aggregate columns; ``spec`` maps column name to aggregator name."""
        for name, agg in spec.items():
            self._frame.column(name)
            if agg not in self._AGGREGATORS:
                raise ValueError(
                    f"unknown aggregator {agg!r}; have {sorted(self._AGGREGATORS)}"
                )
        groups = self.groups()
        data: dict[str, list] = {k: [] for k in self._keys}
        for name, agg in spec.items():
            data[f"{name}_{agg}"] = []
        for key, positions in sorted(groups.items(), key=lambda kv: str(kv[0])):
            for name, part in zip(self._keys, key):
                data[name].append(part)
            member = self._frame.take(positions)
            for name, agg in spec.items():
                value = self._AGGREGATORS[agg](member.column(name))
                data[f"{name}_{agg}"].append(value)
        return DataFrame(data)
