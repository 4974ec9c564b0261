"""Columnar provenance, the exact-key join index and the array group check,
each against a row-by-row reference of the same contract."""

from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frame import Column, DataFrame
from repro.frame import frame as frame_module
from repro.importance.exact_knn import _check_groups
from repro.pipeline import Provenance, execute, letters_pipeline
from repro.pipeline.canonical import compile_pipeline


# ----------------------------------------------------------------------
# Exact-key join: numpy index against the dict loop
# ----------------------------------------------------------------------
def reference_join(left: DataFrame, right: DataFrame, on: str, how: str):
    """The dict-loop join, row by row: the first right row with an equal
    key wins, masked keys never match, and unmatched right cells are
    missing."""
    left_key, right_key = left.column(on), right.column(on)

    def key_of(col: Column, pos: int) -> Any:
        raw = col.values[pos]
        return str(raw) if col.values.dtype.kind == "U" else raw.item()

    index: dict[Any, int] = {}
    for pos in range(right.num_rows):
        if not right_key.mask[pos]:
            index.setdefault(key_of(right_key, pos), pos)
    lpos, rpos = [], []
    for pos in range(left.num_rows):
        match = -1 if left_key.mask[pos] else index.get(key_of(left_key, pos), -1)
        if match == -1 and how == "inner":
            continue
        lpos.append(pos)
        rpos.append(match)
    lpos = np.asarray(lpos, dtype=np.int64)
    rpos = np.asarray(rpos, dtype=np.int64)
    data = {name: left.column(name).take(lpos) for name in left.columns}
    for name in right.columns:
        if name == on:
            continue
        col = right.column(name)
        out_name = name if name not in data else f"{name}_right"
        if right.num_rows == 0:
            fill = "" if col.dtype_kind == "string" else 0
            taken = Column(
                np.full(len(lpos), fill, dtype=col.values.dtype),
                mask=np.ones(len(lpos), dtype=bool),
            )
        else:
            taken = col.take(np.where(rpos < 0, 0, rpos))
            taken.mask[rpos < 0] = True
        data[out_name] = taken
    return DataFrame(data, row_ids=left.row_ids[lpos]), lpos, rpos


ALPHABET = ["a", "b", "ab", "ba", "", "bb"]
#: (left key dtype, right key dtype); the first four take the index.
KEY_DTYPES = [
    ("int64", "int64"),
    ("int32", "int64"),
    ("uint8", "uint64"),
    ("U", "U"),
    ("float64", "float64"),
    ("int64", "float64"),
    ("bool", "int64"),
]


def keyed_frame(draw, n: int, dtype: str, extra: dict) -> DataFrame:
    codes = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    mask = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if dtype == "U":
        values = np.asarray([ALPHABET[c] for c in codes], dtype=str)
    elif dtype == "bool":
        values = np.asarray(codes, dtype=np.int64) % 2 == 1
    else:
        values = np.asarray(codes).astype(dtype)
    data = {"k": Column(values, mask=np.asarray(mask, dtype=bool))}
    data.update({name: make(n) for name, make in extra.items()})
    return DataFrame(data, row_ids=np.arange(100, 100 + n))


@st.composite
def join_inputs(draw):
    left_dtype, right_dtype = draw(st.sampled_from(KEY_DTYPES))
    n_left = draw(st.integers(0, 12))
    n_right = draw(st.integers(0, 8))
    left = keyed_frame(
        draw, n_left, left_dtype, {"v": lambda n: np.arange(n, dtype=float)}
    )
    right = keyed_frame(
        draw,
        n_right,
        right_dtype,
        {
            "v": lambda n: np.asarray([f"s{i}" for i in range(n)], dtype=str),
            "w": lambda n: np.arange(n, dtype=np.int64) * 10,
        },
    )
    return left, right, draw(st.sampled_from(["left", "inner"]))


def assert_frames_identical(got: DataFrame, want: DataFrame) -> None:
    assert got.columns == want.columns
    assert np.array_equal(got.row_ids, want.row_ids)
    for name in want.columns:
        a, b = got.column(name), want.column(name)
        assert a.values.dtype == b.values.dtype, name
        assert np.array_equal(a.values, b.values), name
        assert np.array_equal(a.mask, b.mask), name


class TestExactKeyJoin:
    @given(join_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_loop(self, inputs):
        left, right, how = inputs
        got, lpos, rpos = left.join(right, on="k", how=how, return_indices=True)
        want, want_l, want_r = reference_join(left, right, "k", how)
        assert lpos.dtype == rpos.dtype == np.int64
        assert np.array_equal(lpos, want_l)
        assert np.array_equal(rpos, want_r)
        assert_frames_identical(got, want)

    @pytest.mark.parametrize(
        "left_dtype, right_dtype, indexed",
        [(l, r, i < 4) for i, (l, r) in enumerate(KEY_DTYPES)]
        + [("int64", "uint64", False)],
    )
    def test_key_dtype_selects_the_path(
        self, monkeypatch, left_dtype, right_dtype, indexed
    ):
        calls = []
        dict_match = frame_module._dict_match
        monkeypatch.setattr(
            frame_module,
            "_dict_match",
            lambda *args: calls.append(args) or dict_match(*args),
        )

        def frame(dtype):
            values = ["a", "b"] if dtype == "U" else np.asarray([0, 1]).astype(dtype)
            return DataFrame({"k": values})

        frame(left_dtype).join(frame(right_dtype), on="k")
        assert bool(calls) is not indexed

    def test_fuzzy_string_join_keeps_the_dict(self, monkeypatch):
        calls = []
        dict_match = frame_module._dict_match
        monkeypatch.setattr(
            frame_module,
            "_dict_match",
            lambda *args: calls.append(args) or dict_match(*args),
        )
        left = DataFrame({"k": ["Ann ", "bob"]})
        right = DataFrame({"k": ["ann", "BOB"], "w": [1, 2]})
        assert left.join(right, on="k", fuzzy=True)["w"].to_list() == [1, 2]
        assert calls


# ----------------------------------------------------------------------
# Provenance operators against a frozenset model
# ----------------------------------------------------------------------
SOURCES = ["s", "t", "u"]


@st.composite
def provenance_chain(draw):
    """A pool of (Provenance, frozenset rows) pairs grown by random ops."""
    pool = []
    for name in draw(st.lists(st.sampled_from(SOURCES), min_size=1, max_size=3)):
        ids = draw(st.lists(st.integers(0, 5), max_size=6))
        model = [frozenset({(name, rid)}) for rid in ids]
        pool.append((Provenance.for_source(name, np.asarray(ids, dtype=np.int64)), model))
    for __ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["take", "join", "self_join", "concat"]))
        prov, model = pool[draw(st.integers(0, len(pool) - 1))]
        if op == "take":
            positions = draw(st.lists(st.integers(0, max(len(model) - 1, 0)), max_size=6))
            if not model:
                positions = []
            pool.append((prov.take(np.asarray(positions, dtype=np.int64)),
                         [model[p] for p in positions]))
        elif op in ("join", "self_join"):
            right, right_model = (
                (prov, model) if op == "self_join"
                else pool[draw(st.integers(0, len(pool) - 1))]
            )
            if not model:
                continue
            lpos = draw(st.lists(st.integers(0, len(model) - 1), max_size=6))
            rpos = [
                draw(st.integers(-1, len(right_model) - 1)) for __ in lpos
            ]
            joined = Provenance.join(
                prov, np.asarray(lpos, dtype=np.int64),
                right, np.asarray(rpos, dtype=np.int64),
            )
            pool.append((joined, [
                model[lp] | (right_model[rp] if rp >= 0 else frozenset())
                for lp, rp in zip(lpos, rpos)
            ]))
        else:
            picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
            pool.append((Provenance.concat([pool[p][0] for p in picks]),
                         [row for p in picks for row in pool[p][1]]))
    return pool


def reference_source_row_ids(model, source):
    out = []
    for i, row in enumerate(model):
        matches = [rid for name, rid in row if name == source]
        if len(matches) != 1:
            raise ValueError(
                f"output row {i} descends from {len(matches)} tuples of "
                f"{source!r}; expected exactly one"
            )
        out.append(matches[0])
    return out


class TestProvenanceModel:
    @given(provenance_chain(), st.lists(st.integers(-1, 6), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_operators_match_frozenset_model(self, pool, wanted):
        for prov, model in pool:
            assert len(prov) == len(model)
            assert prov.tuples == model
            assert [prov.row(i) for i in range(len(prov))] == model
            assert prov.sources() == {name for row in model for name, __ in row}
            assert Provenance(model).tuples == model
            for source in SOURCES:
                hits = {(source, rid) for rid in wanted}
                assert prov.outputs_of(source, wanted).tolist() == [
                    i for i, row in enumerate(model) if row & hits
                ]
                try:
                    want = reference_source_row_ids(model, source)
                except ValueError as exc:
                    with pytest.raises(ValueError) as got:
                        prov.source_row_ids(source)
                    assert str(got.value) == str(exc)
                else:
                    assert prov.source_row_ids(source).tolist() == want

    def test_self_join_rows_hold_two_tuples_of_one_source(self):
        prov = Provenance.for_source("t", np.asarray([4, 5]))
        joined = Provenance.join(prov, np.asarray([0, 1]), prov, np.asarray([1, 1]))
        assert joined.columns["t"].shape == (2, 2)
        assert joined.tuples == [frozenset({("t", 4), ("t", 5)}), frozenset({("t", 5)})]
        with pytest.raises(ValueError, match="output row 0 descends from 2 tuples"):
            joined.source_row_ids("t")

    def test_unmatched_rows_and_concat_pad_with_empty_slots(self):
        left = Provenance.for_source("l", np.asarray([0, 1]))
        right = Provenance.for_source("r", np.asarray([7]))
        joined = Provenance.join(left, np.asarray([0, 1]), right, np.asarray([0, -1]))
        assert joined.columns["r"].tolist() == [[7], [-1]]
        stacked = Provenance.concat([joined, left])
        assert stacked.columns["r"].tolist() == [[7], [-1], [-1], [-1]]
        assert stacked.tuples[1:] == [frozenset({("l", 1)}), frozenset({("l", 0)}),
                                      frozenset({("l", 1)})]

    def test_negative_row_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Provenance.for_source("t", np.asarray([0, -3]))
        with pytest.raises(ValueError, match="non-negative"):
            Provenance([frozenset({("t", -1)})])


# ----------------------------------------------------------------------
# Candidate-group check of the exact kernel
# ----------------------------------------------------------------------
RANGE = "candidate group indexes rows outside the training set"
OVERLAP = "candidate groups overlap"


class TestCheckGroups:
    @pytest.mark.parametrize(
        "groups, message",
        [
            ([[0, 1], [1, 2]], OVERLAP),
            ([[0], [5]], RANGE),
            ([[-1], [0]], RANGE),
            # Both faults: the first group holding one decides.
            ([[0, 9], [0]], RANGE),
            ([[0], [0], [9]], OVERLAP),
            ([[0], [1, 0, 9]], RANGE),  # a range fault before an overlap in one group
        ],
    )
    def test_first_fault_decides_the_message(self, groups, message):
        with pytest.raises(ValueError, match=message):
            _check_groups([np.asarray(g) for g in groups], n_train=4)

    def test_valid_groups_come_back_sorted(self):
        groups = [np.asarray([3, 1]), np.asarray([], dtype=np.int64), np.asarray([0, 2])]
        cleaned = _check_groups(groups, n_train=4)
        assert [g.tolist() for g in cleaned] == [[1, 3], [], [0, 2]]
        assert all(g.dtype == np.int64 for g in cleaned)

    def test_repeat_within_one_group_is_no_overlap(self):
        cleaned = _check_groups([np.asarray([2, 2]), np.asarray([1])], n_train=3)
        assert [g.tolist() for g in cleaned] == [[2], [1]]


# ----------------------------------------------------------------------
# The compile fingerprint is pinned
# ----------------------------------------------------------------------
#: Compile fingerprints of the Fig. 3 pipeline over the shared fixtures,
#: recorded before provenance was stored by column.
FINGERPRINTS = {
    "train_df": "2cbc0bf9b535c95aa16ce1e5c127afba21c9496288ba8a943dd719e09f1e54e3",
    "jobdetail_df": "c626d92d11670c84fde51e10c705b6f65df4dcbc5df87a5ee5bab49ef4472ae2",
    "social_df": "0c7d251442821e2e14f0f266ac8a7f2536161762d69f70d6e800367ca00ea9ab",
}


@pytest.mark.parametrize("source", sorted(FINGERPRINTS))
def test_fig3_compile_fingerprint_is_unchanged(sources, source):
    __, sink = letters_pipeline(sector="healthcare")
    compiled = compile_pipeline(execute(sink, sources), source=source)
    assert compiled.fingerprint == FINGERPRINTS[source]
