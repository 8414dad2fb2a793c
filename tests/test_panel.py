"""Panel file formats: CSV and JSON round trips, parse failures."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import (
    DistnnError,
    DistributionalMatrix,
    EmptyInputError,
    IndexOutOfRangeError,
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
        path.write_text("row,col,value\nb,y,1\na,x,2\nb,x,3\nc,z,4\na,y,5\nb,y,6\n",
                        encoding="utf-8")
        panel = read_panel_csv(path)
        assert panel.row_keys == ("b", "a", "c")
        assert panel.col_keys == ("y", "x", "z")
        assert observed_cells(panel) == {("b", "y"): [1, 6], ("a", "x"): [2], ("b", "x"): [3],
                                         ("c", "z"): [4], ("a", "y"): [5]}

    def test_csv_moves_a_column_the_first_row_misses(self, tmp_path):
        panel = sample_panel()
        panel = Panel(panel.matrix.mask_cell(0, 0), panel.row_keys, panel.col_keys)
        write_panel_csv(panel, tmp_path / "panel.csv")
        back = read_panel_csv(tmp_path / "panel.csv")
        assert back.col_keys == ("beta", "acme", "gamma")
        assert observed_cells(back) == observed_cells(panel)
        write_matrix_json(panel, tmp_path / "panel.json")
        assert_panels_equal(panel, read_matrix_json(tmp_path / "panel.json"))

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

    def test_line_after_quoted_newline_is_the_file_line(self, tmp_path):
        # record 2 spans file lines 2-3, so the bad value sits on line 4
        path = tmp_path / "p.csv"
        path.write_text('row,col,value\n"a\nb",c,1\nr,c,xyz\n', encoding="utf-8")
        with pytest.raises(PanelParseError) as err:
            read_panel_csv(path)
        assert err.value.line == 4
        assert str(err.value).startswith("line 4:")

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


class TestByteOrderMark:
    """A leading U+FEFF, as spreadsheet "CSV UTF-8" exports write, is read
    past; written files never start with one."""

    BOM = "\ufeff".encode("utf-8")

    @pytest.mark.parametrize("name, write", [("panel.csv", write_panel_csv),
                                             ("panel.json", write_matrix_json)])
    def test_marked_file_reads_as_the_plain_one(self, tmp_path, name, write):
        panel = sample_panel()
        plain, marked = tmp_path / name, tmp_path / f"marked-{name}"
        write(panel, plain)
        assert not plain.read_bytes().startswith(self.BOM)
        marked.write_bytes(self.BOM + plain.read_bytes())
        assert_panels_equal(load_panel(plain), load_panel(marked))

    def test_marked_quoted_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(self.BOM + b'"row","col","value"\na,x,1\n')
        assert observed_cells(read_panel_csv(path)) == {("a", "x"): [1.0]}

    def test_mark_alone_is_an_empty_file(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(self.BOM)
        with pytest.raises(PanelParseError, match="file is empty"):
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
            [{"row": "r", "col": "c", "samples": "12"}],
            [{"row": "r", "col": "c", "samples": [True, False]}],
            [{"row": "r", "col": "c", "samples": {"1": 2}}],
            [{"row": "r", "col": "c", "samples": [10**400]}],
        ],
        ids=["unknown-col", "unknown-row", "repeated-cell", "non-numeric",
             "string-samples", "boolean-samples", "object-samples",
             "int-beyond-float"],
    )
    def test_bad_entry_is_parse_error(self, tmp_path, entries):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"rows": ["r"], "cols": ["c"], "entries": entries}))
        with pytest.raises(PanelParseError):
            read_matrix_json(path)

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    @pytest.mark.parametrize("keys", ["rc", {"r": 1, "c": 2}, 2],
                             ids=["string", "object", "number"])
    def test_axis_that_is_not_an_array_is_parse_error(self, tmp_path, axis, keys):
        payload = {"rows": ["r"], "cols": ["c"],
                   "entries": [{"row": "r", "col": "c", "samples": [1.0]}]}
        payload[axis] = keys
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(PanelParseError, match="must be arrays"):
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


class TestUnreadableFiles:
    @pytest.mark.parametrize(
        "name, data",
        [
            ("p.csv", b"row,col,value\nr,c,\xff\n"),
            ("m.json", b'{"rows": ["\xff"], "cols": [], "entries": []}'),
            ("m.json", b"[" * 100_000 + b"]" * 100_000),
        ],
        ids=["csv-not-utf8", "json-not-utf8", "json-nested-too-deep"],
    )
    def test_undecodable_file(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(PanelParseError):
            load_panel(path)

    def test_csv_field_over_parser_limit_reports_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("row,col,value\nr,c," + "1" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(PanelParseError) as err:
            read_panel_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("name", ["missing.csv", "missing.json", "."])
    def test_missing_path_or_directory(self, tmp_path, name):
        with pytest.raises(PanelParseError):
            load_panel(tmp_path / name)


class TestUnwritableFiles:
    @pytest.mark.parametrize("write", [write_panel_csv, write_matrix_json])
    def test_missing_directory_is_typed(self, tmp_path, write):
        path = tmp_path / "missing" / "out"
        with pytest.raises(DistnnError, match=f"^cannot write {path}: ") as err:
            write(sample_panel(), path)
        assert not isinstance(err.value, PanelParseError)


class TestCellIndex:
    def test_known_keys(self):
        assert sample_panel().cell_index("q2", "gamma") == (1, 2)

    @pytest.mark.parametrize("row, col", [("q3", "acme"), ("q1", "delta")])
    def test_unknown_key_raises(self, row, col):
        with pytest.raises(IndexOutOfRangeError,
                           match=rf"^target \({row}, {col}\) not found in panel axes$"):
            sample_panel().cell_index(row, col)


class TestMatrixShapeErrors:
    def test_empty_matrix(self):
        with pytest.raises(EmptyInputError):
            DistributionalMatrix([])
        with pytest.raises(EmptyInputError):
            DistributionalMatrix([[]])

    def test_ragged_rows(self):
        with pytest.raises(SizeMismatchError):
            DistributionalMatrix([[[1.0], [2.0]], [[3.0]]])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_panel_or_typed_error(path):
    """load_panel returns a Panel or raises a DistnnError; any other
    exception escapes and fails the test."""
    try:
        assert isinstance(load_panel(path), Panel)
    except DistnnError:
        pass


AXIS_KEYS = st.lists(st.sampled_from(["a", "b", "c"]), max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
MATRIX_DOCS = st.fixed_dictionaries({
    "rows": AXIS_KEYS | JSON_VALUES,
    "cols": AXIS_KEYS | JSON_VALUES,
    "entries": st.lists(
        st.fixed_dictionaries({
            "row": st.sampled_from(["a", "b", "d"]) | JSON_VALUES,
            "col": st.sampled_from(["a", "b", "d"]) | JSON_VALUES,
            "samples": st.lists(st.integers() | st.floats(), max_size=3) | JSON_VALUES,
        })
        | JSON_VALUES,
        max_size=4,
    ),
})
CSV_KEYS = st.sampled_from(["r", "c", "", '"', '"a,b"']) | st.text(max_size=3)
CSV_VALUES = st.sampled_from(["1", "-2.5", "1e3", "1e999", "nan", "\r"]) | st.text(max_size=3)
CSV_TEXT = st.lists(
    st.tuples(CSV_KEYS, CSV_KEYS, CSV_VALUES).map(",".join)
    | st.lists(CSV_KEYS, max_size=4).map(",".join),
    max_size=6,
).map("\n".join)
KEY_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=4,
)


@st.composite
def panels(draw):
    """Panels of 1-4 rows and columns with distinct text keys and at least
    one observed cell."""
    n_rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row_keys = draw(st.lists(KEY_TEXT, min_size=n_rows, max_size=n_rows, unique=True))
    col_keys = draw(st.lists(KEY_TEXT, min_size=n_cols, max_size=n_cols, unique=True))
    cell = st.none() | st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4)
    entries = [[draw(cell) for _ in range(n_cols)] for _ in range(n_rows)]
    entries[draw(st.integers(0, n_rows - 1))][draw(st.integers(0, n_cols - 1))] = [0.0]
    return Panel(DistributionalMatrix(entries), tuple(row_keys), tuple(col_keys))


def observed_cells(panel):
    m = panel.matrix
    return {(panel.row_keys[i], panel.col_keys[j]): m.entry(i, j).samples.tolist()
            for i, j in m.observed_cells()}


class TestReaderFuzz:
    """Whatever bytes a panel file holds, the readers return a Panel or raise
    a DistnnError."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.binary(max_size=200)
           | CSV_TEXT.map(lambda t: ("row,col,value\n" + t).encode("utf-8")))
    def test_csv_bytes(self, fuzz_dir, data):
        path = fuzz_dir / "p.csv"
        path.write_bytes(data)
        assert_panel_or_typed_error(path)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.binary(max_size=200)
           | MATRIX_DOCS.map(lambda doc: json.dumps(doc).encode("utf-8"))
           | JSON_VALUES.map(lambda doc: json.dumps(doc).encode("utf-8")))
    def test_json_bytes(self, fuzz_dir, data):
        path = fuzz_dir / "m.json"
        path.write_bytes(data)
        assert_panel_or_typed_error(path)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(panel=panels())
    def test_csv_round_trip(self, fuzz_dir, panel):
        path = fuzz_dir / "round.csv"
        write_panel_csv(panel, path)
        assert observed_cells(read_panel_csv(path)) == observed_cells(panel)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(panel=panels())
    def test_json_round_trip(self, fuzz_dir, panel):
        path = fuzz_dir / "round.json"
        write_matrix_json(panel, path)
        assert_panels_equal(panel, read_matrix_json(path))
