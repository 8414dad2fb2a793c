"""The JSON writer of result files and matrix panels against the standard
library's ``json.dump``."""

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import DistributionalMatrix
from distnn.panel import Panel, _write_json, write_matrix_json


def oracle(payload) -> str:
    """The text the writer must produce: ``json.dump`` with every non-finite
    float replaced by None, then a newline."""
    def nulled(obj):
        if isinstance(obj, float):
            return obj if math.isfinite(obj) else None
        if isinstance(obj, dict):
            return {k: nulled(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [nulled(v) for v in obj]
        return obj

    fh = io.StringIO()
    json.dump(nulled(payload), fh, indent=1, sort_keys=True, allow_nan=False)
    return fh.getvalue() + "\n"


floats = st.floats() | st.sampled_from([-0.0, 5e-324, -2.5e-310, math.nan, math.inf, -math.inf])
scalars = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-2**80, max_value=2**80) | floats
           | floats.map(np.float64) | st.text())
payloads = st.recursive(
    scalars,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.lists(floats, min_size=1) | st.dictionaries(st.text(), children)),
    max_leaves=25,
)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "out.json"


class TestWriteJson:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(payload=st.dictionaries(st.text(), payloads))
    def test_bytes_match_json_dump(self, payload, out):
        _write_json(out, payload)
        assert out.read_bytes() == oracle(payload).encode("utf-8")

    @pytest.mark.parametrize("payload", [
        {},
        {"": [], "a": {}, "b": ()},
        {"é€😀": "\"\\\n\t\x00\x7f é€😀"},
        {"x": [1.5, -0.0, 5e-324, 1e308, 1e16, 0.1]},
        {"x": [1.5, math.nan, math.inf, -math.inf, np.float64(2.5), np.float64(math.nan)]},
        {"x": [1.5, 2, True, None, "s"], "y": (np.float64(1e-7),), "z": 2**100},
        {"b": {"d": [[], [[0.5]], {"c": ()}]}, "a": [{"k": -math.inf}]},
    ], ids=["empty", "empty-members", "strings", "floats", "non-finite", "mixed", "nested"])
    def test_cases_match_json_dump(self, payload, out):
        _write_json(out, payload)
        assert out.read_bytes() == oracle(payload).encode("utf-8")

    @pytest.mark.parametrize("payload", [
        {"x": np.int64(1)},
        {"x": [1.5, np.int64(1)]},
        {"x": {1, 2}},
        {"x": {1: "a"}},
        {"x": {(1,): "a"}},
        {2: "a"},
    ], ids=["np-int64", "np-int64-in-floats", "set", "int-key", "tuple-key", "top-level-key"])
    def test_what_json_cannot_write_is_a_type_error(self, payload, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(TypeError):
            _write_json(path, payload)
        assert not path.exists()


def test_matrix_panel_bytes_match_json_dump(tmp_path):
    # ragged and missing cells, keys of several JSON types
    rng = np.random.default_rng(36)
    entries = [[rng.normal(size=n) for n in (3, 7)], [None, rng.normal(size=1) * 1e300]]
    panel = Panel(DistributionalMatrix(entries), ("a", 2), ("é", None))
    path = tmp_path / "panel.json"
    write_matrix_json(panel, path)
    payload = {
        "rows": ["a", 2],
        "cols": ["é", None],
        "entries": [{"row": panel.row_keys[i], "col": panel.col_keys[j],
                     "samples": panel.matrix.entry(i, j).samples.tolist()}
                    for i, j in panel.matrix.observed_cells()],
    }
    assert path.read_bytes() == (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("utf-8")
