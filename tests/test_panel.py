"""Panel file formats: CSV and JSON round trips, parse failures."""

import json

import numpy as np
import pytest

from distnn import (
    DistributionalMatrix,
    EmptyInputError,
    PanelParseError,
    SizeMismatchError,
)
from distnn.panel import (
    Panel,
    load_panel,
    read_matrix_json,
    read_panel_csv,
    write_matrix_json,
    write_panel_csv,
)


def sample_panel():
    matrix = DistributionalMatrix(
        [
            [[1.5, 0.5], [10.0], None],
            [[2.25, -1.0], [11.0], [7.0, 8.0, 9.0]],
        ]
    )
    return Panel(matrix=matrix, row_keys=("q1", "q2"), col_keys=("acme", "beta", "gamma"))


def assert_panels_equal(a, b):
    assert a.row_keys == b.row_keys and a.col_keys == b.col_keys
    assert np.array_equal(a.matrix.mask, b.matrix.mask)
    for i, j in a.matrix.observed_cells():
        assert np.array_equal(a.matrix.entry(i, j).samples, b.matrix.entry(i, j).samples)


class TestCsvRoundTrip:
    def test_identity(self, tmp_path):
        panel = sample_panel()
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert_panels_equal(panel, read_panel_csv(path))

    def test_axis_order_is_first_appearance(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("row,col,value\nb,y,1\na,x,2\nb,x,3\n", encoding="utf-8")
        panel = read_panel_csv(path)
        assert panel.row_keys == ("b", "a")
        assert panel.col_keys == ("y", "x")

    def test_groups_become_sample_arrays(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("row,col,value\nr,c,3\nr,c,1\nr,c,2\n", encoding="utf-8")
        panel = read_panel_csv(path)
        assert np.array_equal(panel.matrix.entry(0, 0).samples, [1, 2, 3])

    def test_written_file_is_stable(self, tmp_path):
        panel = sample_panel()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_panel_csv(panel, p1)
        write_panel_csv(read_panel_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvErrors:
    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(PanelParseError) as err:
            read_panel_csv(path)
        assert err.value.line == 1

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row,col,value\nr,c,1\nr,c,oops\n", encoding="utf-8")
        with pytest.raises(PanelParseError) as err:
            read_panel_csv(path)
        assert err.value.line == 3

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row,col,value\nr,c\n", encoding="utf-8")
        with pytest.raises(PanelParseError) as err:
            read_panel_csv(path)
        assert err.value.line == 2

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row,col,value\nr,c,inf\n", encoding="utf-8")
        with pytest.raises(PanelParseError):
            read_panel_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(PanelParseError):
            read_panel_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row,col,value\n", encoding="utf-8")
        with pytest.raises(PanelParseError):
            read_panel_csv(path)


class TestJsonRoundTrip:
    def test_identity(self, tmp_path):
        panel = sample_panel()
        path = tmp_path / "panel.json"
        write_matrix_json(panel, path)
        assert_panels_equal(panel, read_matrix_json(path))

    def test_load_dispatches_on_extension(self, tmp_path):
        panel = sample_panel()
        write_matrix_json(panel, tmp_path / "m.json")
        write_panel_csv(panel, tmp_path / "m.csv")
        assert_panels_equal(load_panel(tmp_path / "m.json"), load_panel(tmp_path / "m.csv"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PanelParseError):
            read_matrix_json(path)


class TestJsonErrors:
    @pytest.mark.parametrize(
        "entries",
        [
            [{"row": "r", "col": "nope", "samples": [1.0]}],
            [{"row": "nope", "col": "c", "samples": [1.0]}],
            [{"row": "r", "col": "c", "samples": [1, 2]},
             {"row": "r", "col": "c", "samples": [9]}],
            [{"row": "r", "col": "c", "samples": ["abc"]}],
        ],
        ids=["unknown-col", "unknown-row", "repeated-cell", "non-numeric"],
    )
    def test_bad_entry_is_parse_error(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": ["r"], "cols": ["c"], "entries": entries}))
        with pytest.raises(PanelParseError):
            read_matrix_json(path)

    def test_repeated_axis_key_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": ["r", "r"], "cols": ["c"], "entries": []}))
        with pytest.raises(PanelParseError):
            read_matrix_json(path)

    def test_empty_axes_are_typed(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": [], "cols": [], "entries": []}))
        with pytest.raises(EmptyInputError):
            read_matrix_json(path)


class TestMatrixShapeErrors:
    def test_empty_matrix(self):
        with pytest.raises(EmptyInputError):
            DistributionalMatrix([])
        with pytest.raises(EmptyInputError):
            DistributionalMatrix([[]])

    def test_ragged_rows(self):
        with pytest.raises(SizeMismatchError):
            DistributionalMatrix([[[1.0], [2.0]], [[3.0]]])
