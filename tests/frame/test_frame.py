"""Unit tests for repro.frame.DataFrame."""

import numpy as np
import pytest

from repro.frame import Column, DataFrame


class TestConstruction:
    def test_shape_and_columns(self, simple_frame):
        assert simple_frame.shape == (5, 4)
        assert simple_frame.columns == ["a", "b", "c", "flag"]

    def test_default_row_ids(self, simple_frame):
        assert simple_frame.row_ids.tolist() == [0, 1, 2, 3, 4]

    def test_custom_row_ids(self):
        df = DataFrame({"a": [1, 2]}, row_ids=[10, 20])
        assert df.row_ids.tolist() == [10, 20]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            DataFrame({"a": [1, 2], "b": [1]})

    def test_row_ids_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            DataFrame({"a": [1, 2]}, row_ids=[1])

    def test_empty_frame(self):
        df = DataFrame({})
        assert df.shape == (0, 0)


class TestSelection:
    def test_getitem_column(self, simple_frame):
        assert isinstance(simple_frame["a"], Column)

    def test_getitem_projection(self, simple_frame):
        sub = simple_frame[["a", "c"]]
        assert sub.columns == ["a", "c"]
        assert sub.row_ids.tolist() == simple_frame.row_ids.tolist()

    def test_getitem_bool_mask(self, simple_frame):
        sub = simple_frame[simple_frame["a"] > 3]
        assert sub.num_rows == 2
        assert sub.row_ids.tolist() == [3, 4]

    def test_getitem_unknown_column_raises(self, simple_frame):
        with pytest.raises(KeyError):
            simple_frame["nope"]

    def test_getitem_bad_type_raises(self, simple_frame):
        with pytest.raises(TypeError):
            simple_frame[3.14]

    def test_take_preserves_row_ids(self, simple_frame):
        sub = simple_frame.take([4, 0])
        assert sub.row_ids.tolist() == [4, 0]
        assert sub["a"].to_list() == [5, 1]

    def test_head(self, simple_frame):
        assert simple_frame.head(2).num_rows == 2

    def test_sample_no_duplicates(self, simple_frame):
        sub = simple_frame.sample(3, rng=0)
        assert len(set(sub.row_ids.tolist())) == 3

    def test_filter_shape_mismatch_raises(self, simple_frame):
        with pytest.raises(ValueError):
            simple_frame.filter(np.asarray([True]))

    def test_positions_of(self, simple_frame):
        pos = simple_frame.positions_of([4, 2])
        assert pos.tolist() == [4, 2]

    def test_positions_of_missing_raises(self, simple_frame):
        with pytest.raises(KeyError):
            simple_frame.positions_of([99])


class TestSort:
    def test_sort_ascending(self):
        df = DataFrame({"v": [3.0, 1.0, 2.0]})
        assert df.sort_values("v")["v"].to_list() == [1.0, 2.0, 3.0]

    def test_sort_descending(self):
        df = DataFrame({"v": [3.0, 1.0, 2.0]})
        assert df.sort_values("v", ascending=False)["v"].to_list() == [3.0, 2.0, 1.0]

    def test_missing_sorts_last(self):
        df = DataFrame({"v": [3.0, None, 1.0]})
        assert df.sort_values("v")["v"].to_list() == [1.0, 3.0, None]
        assert df.sort_values("v", ascending=False)["v"].to_list() == [3.0, 1.0, None]


class TestColumnManipulation:
    def test_setitem_adds_column(self, simple_frame):
        simple_frame["d"] = [9] * 5
        assert "d" in simple_frame

    def test_setitem_length_mismatch_raises(self, simple_frame):
        with pytest.raises(ValueError):
            simple_frame["d"] = [1, 2]

    def test_drop(self, simple_frame):
        assert simple_frame.drop("a").columns == ["b", "c", "flag"]

    def test_drop_unknown_raises(self, simple_frame):
        with pytest.raises(KeyError):
            simple_frame.drop("zz")

    def test_empty_projection_names_the_operator(self):
        frame = DataFrame({"a": [1, 2], "b": ["x", "y"]})
        with pytest.raises(ValueError, match=r"^select leaves an empty projection"):
            frame.select([])
        with pytest.raises(ValueError, match=r"^drop leaves an empty projection"):
            frame.drop(["a", "b"])
        empty = frame.head(0).select([])
        assert empty.num_rows == 0 and empty.columns == []

    def test_rename(self, simple_frame):
        assert "alpha" in simple_frame.rename({"a": "alpha"})

    def test_assign_returns_copy(self, simple_frame):
        out = simple_frame.assign(d=[0] * 5)
        assert "d" in out and "d" not in simple_frame

    def test_map_column(self, simple_frame):
        out = simple_frame.map_column("a", lambda v: v * 2, into="a2")
        assert out["a2"].to_list() == [2.0, 4.0, 6.0, 8.0, 10.0]


class TestSetRows:
    def test_set_rows_replaces_values(self, simple_frame):
        replacement = simple_frame.take([0])
        out = simple_frame.set_rows([4], replacement)
        assert out["a"].to_list()[4] == 1

    def test_set_rows_preserves_row_ids(self, simple_frame):
        out = simple_frame.set_rows([4], simple_frame.take([0]))
        assert out.row_ids.tolist() == simple_frame.row_ids.tolist()

    def test_set_rows_restores_missing_state(self, simple_frame):
        clean = simple_frame.take([2])  # row 2 has missing b
        out = simple_frame.set_rows([0], clean)
        assert out["b"].to_list()[0] is None

    def test_set_rows_count_mismatch_raises(self, simple_frame):
        with pytest.raises(ValueError):
            simple_frame.set_rows([0, 1], simple_frame.take([0]))

    def test_set_cell(self, simple_frame):
        out = simple_frame.set_cell(0, "a", 99)
        assert out["a"].to_list()[0] == 99


class TestJoin:
    def setup_method(self):
        self.left = DataFrame(
            {"k": ["a", "b", "c", None], "v": [1, 2, 3, 4]}, row_ids=[10, 11, 12, 13]
        )
        self.right = DataFrame({"k": ["a", "b"], "w": [100, 200]})

    def test_left_join_keeps_unmatched(self):
        out = self.left.join(self.right, on="k", how="left")
        assert out.num_rows == 4
        assert out["w"].to_list() == [100, 200, None, None]

    def test_left_join_keeps_left_row_ids(self):
        out = self.left.join(self.right, on="k", how="left")
        assert out.row_ids.tolist() == [10, 11, 12, 13]

    def test_inner_join_drops_unmatched(self):
        out = self.left.join(self.right, on="k", how="inner")
        assert out.num_rows == 2
        assert out.row_ids.tolist() == [10, 11]

    def test_missing_key_never_matches(self):
        out = self.left.join(self.right, on="k", how="inner")
        assert 13 not in out.row_ids.tolist()

    def test_fuzzy_join_normalises_keys(self):
        messy = DataFrame({"k": ["  A ", "b"], "v": [1, 2]})
        out = messy.join(self.right, on="k", how="inner", fuzzy=True)
        assert out.num_rows == 2

    def test_exact_join_misses_messy_keys(self):
        messy = DataFrame({"k": ["  A ", "b"], "v": [1, 2]})
        out = messy.join(self.right, on="k", how="inner", fuzzy=False)
        assert out.num_rows == 1

    def test_column_name_collision_gets_suffix(self):
        right = DataFrame({"k": ["a"], "v": [99]})
        out = self.left.join(right, on="k", how="left")
        assert "v_right" in out.columns

    def test_return_indices(self):
        out, lpos, rpos = self.left.join(
            self.right, on="k", how="left", return_indices=True
        )
        assert lpos.tolist() == [0, 1, 2, 3]
        assert rpos.tolist() == [0, 1, -1, -1]

    def test_bad_how_raises(self):
        with pytest.raises(ValueError):
            self.left.join(self.right, on="k", how="outer")


class TestConcatAndGroupBy:
    def test_concat_rows(self):
        a = DataFrame({"v": [1]}, row_ids=[0])
        b = DataFrame({"v": [2]}, row_ids=[5])
        out = DataFrame.concat_rows([a, b])
        assert out["v"].to_list() == [1, 2]
        assert out.row_ids.tolist() == [0, 5]

    def test_concat_mismatched_columns_raises(self):
        with pytest.raises(ValueError):
            DataFrame.concat_rows([DataFrame({"v": [1]}), DataFrame({"w": [1]})])

    def test_groupby_agg_mean(self):
        df = DataFrame({"g": ["a", "a", "b"], "v": [1.0, 3.0, 10.0]})
        out = df.groupby("g").agg({"v": "mean"})
        rows = {r["g"]: r["v_mean"] for r in out.to_rows()}
        assert rows == {"a": 2.0, "b": 10.0}

    def test_groupby_size(self):
        df = DataFrame({"g": ["a", "a", "b"]})
        out = df.groupby("g").size()
        assert {r["g"]: r["size"] for r in out.to_rows()} == {"a": 2, "b": 1}

    def test_groupby_multi_key(self):
        df = DataFrame({"g": ["a", "a"], "h": ["x", "y"], "v": [1.0, 2.0]})
        out = df.groupby(["g", "h"]).agg({"v": "sum"})
        assert out.num_rows == 2

    def test_groupby_unknown_agg_raises(self):
        df = DataFrame({"g": ["a"], "v": [1.0]})
        with pytest.raises(ValueError):
            df.groupby("g").agg({"v": "frobnicate"})


class TestConversionAndEquality:
    def test_to_rows(self, simple_frame):
        rows = simple_frame.to_rows()
        assert rows[2]["b"] is None
        assert rows[0]["a"] == 1

    def test_to_numpy_selected(self, simple_frame):
        mat = simple_frame.to_numpy(["a", "c"])
        assert mat.shape == (5, 2)
        assert np.isnan(mat[1, 1])

    def test_to_numpy_non_numeric_raises(self, simple_frame):
        with pytest.raises(TypeError):
            simple_frame.to_numpy(["b"])

    def test_equals_self_copy(self, simple_frame):
        assert simple_frame.equals(simple_frame.copy())

    def test_not_equals_after_edit(self, simple_frame):
        other = simple_frame.set_cell(0, "a", 99)
        assert not simple_frame.equals(other)

    def test_copy_is_deep(self, simple_frame):
        clone = simple_frame.copy()
        clone["a"] = [0] * 5
        assert simple_frame["a"].to_list() == [1, 2, 3, 4, 5]

    def test_null_counts(self, simple_frame):
        assert simple_frame.null_counts() == {"a": 0, "b": 1, "c": 1, "flag": 0}


#: Operators that build a frame from others, each over the frames of
#: ``_alias_inputs``: join with and without unmatched keys, both kinds.
DERIVED = {
    "take": lambda f: f["left"].take([3, 0, 0]),
    "filter": lambda f: f["left"].filter(np.array([True, False, True, True])),
    "sort_values": lambda f: f["left"].sort_values("x", ascending=False),
    "join-left-unmatched": lambda f: f["left"].join(f["partial"], on="k"),
    "join-inner-unmatched": lambda f: f["left"].join(f["partial"], on="k", how="inner"),
    "join-left-matched": lambda f: f["keyed"].join(f["total"], on="k"),
    "join-inner-matched": lambda f: f["keyed"].join(f["total"], on="k", how="inner"),
    "concat_rows": lambda f: DataFrame.concat_rows([f["left"], f["left"].head(2)]),
    "copy": lambda f: f["left"].copy(),
    "select": lambda f: f["left"].select(["x", "k"]),
    "rename": lambda f: f["left"].rename({"v": "value"}),
}


def _alias_inputs() -> dict:
    return {
        "left": DataFrame(
            {"k": ["a", "b", "c", None], "v": [1, 2, 3, 4], "x": [0.5, None, 2.0, 3.0]},
            row_ids=[10, 11, 12, 13],
        ),
        "partial": DataFrame({"k": ["a", "b"], "w": [100, 200]}),
        "keyed": DataFrame({"k": [3, 1, 2], "v": [1.0, 2.0, None]}, row_ids=[5, 6, 7]),
        "total": DataFrame({"k": [1, 2, 3, 4], "w": ["p", "q", "r", "s"]}),
    }


def _arrays(frame: DataFrame) -> list:
    columns = [frame[name] for name in frame.columns]
    return [frame.row_ids] + [a for col in columns for a in (col.values, col.mask)]


@pytest.mark.parametrize("op", list(DERIVED))
def test_derived_frame_shares_no_array_with_its_inputs(op):
    """An operator's frame copies each input column once, never zero
    times: writing to it can never reach an input."""
    inputs = _alias_inputs()
    out = DERIVED[op](inputs)
    assert out.num_rows > 0
    for mine in _arrays(out):
        for theirs in (a for frame in inputs.values() for a in _arrays(frame)):
            assert not np.shares_memory(mine, theirs)
