"""Panel file formats: long-format CSV and a JSON matrix representation.

The CSV format is UTF-8 with header ``row,col,value`` and ``.`` as the
decimal separator; the sample array of a matrix entry is the group of values
sharing a (row, col) key pair. Axes are ordered by first appearance of each
key. Only JSON keeps its axes exactly: a written CSV holds observed cells only,
so reading it back moves a column the first row misses and drops a key with no
observed cell; column order sets the order in which row distances are summed.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import DistnnError, IndexOutOfRangeError, PanelParseError
from .matrix import DistributionalMatrix

__all__ = ["Panel", "read_panel_csv", "write_panel_csv", "read_matrix_json", "write_matrix_json"]

CSV_HEADER = ["row", "col", "value"]


@dataclass(frozen=True)
class Panel:
    """A distributional matrix together with its string axis keys."""

    matrix: DistributionalMatrix
    row_keys: tuple
    col_keys: tuple

    def cell_index(self, row_key: str, col_key: str):
        """The (row, col) indices of a cell; IndexOutOfRangeError for an unknown key."""
        try:
            return self.row_keys.index(row_key), self.col_keys.index(col_key)
        except ValueError:
            raise IndexOutOfRangeError(
                f"target ({row_key}, {col_key}) not found in panel axes") from None


def _matrix_from_groups(groups, row_keys, col_keys) -> Panel:
    entries = [
        [groups.get((r, c)) for c in col_keys]
        for r in row_keys
    ]
    return Panel(
        matrix=DistributionalMatrix(entries),
        row_keys=tuple(row_keys),
        col_keys=tuple(col_keys),
    )


@contextmanager
def _open_text(path, mode="r", **kwargs):
    """Open ``path`` as UTF-8 text to read or, with mode "w", to write. A file
    that cannot be read or decoded raises PanelParseError; one that cannot
    be written raises DistnnError."""
    try:
        with open(path, mode, encoding="utf-8", **kwargs) as fh:
            yield fh
    except OSError as exc:
        if mode == "w":
            raise DistnnError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise PanelParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise PanelParseError(f"file is not UTF-8 text: {exc.reason}") from None


def read_panel_csv(path) -> Panel:
    """Parse a long-format CSV panel; raises PanelParseError with the
    offending line number on malformed input."""
    groups: dict = {}
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise PanelParseError("file is empty")
            if [h.strip() for h in header] != CSV_HEADER:
                raise PanelParseError(
                    f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
                )
            for record in reader:
                if not record:
                    continue
                # the file line the record ends on: a quoted field may hold newlines
                line_no = reader.line_num
                if len(record) != 3:
                    raise PanelParseError(
                        f"expected 3 fields, got {len(record)}", line=line_no
                    )
                row_key, col_key, raw_value = record
                try:
                    value = float(raw_value)
                except ValueError:
                    raise PanelParseError(
                        f"value {raw_value!r} is not a number", line=line_no
                    ) from None
                if not math.isfinite(value):
                    raise PanelParseError(f"value {raw_value!r} is not finite", line=line_no)
                groups.setdefault((row_key, col_key), []).append(value)
        except csv.Error as exc:
            raise PanelParseError(str(exc), line=reader.line_num) from None
    if not groups:
        raise PanelParseError("no records found")
    # a key's first record opens the first group that holds it
    return _matrix_from_groups(groups, dict.fromkeys(r for r, _ in groups),
                               dict.fromkeys(c for _, c in groups))


def write_panel_csv(panel: Panel, path) -> None:
    """Write observed entries in axis order; samples are written sorted."""
    with _open_text(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        m = panel.matrix
        for i, j in m.observed_cells():
            for value in m.entry(i, j).samples:
                writer.writerow([panel.row_keys[i], panel.col_keys[j], repr(float(value))])


def write_matrix_json(panel: Panel, path) -> None:
    payload = {
        "rows": list(panel.row_keys),
        "cols": list(panel.col_keys),
        "entries": [
            {
                "row": panel.row_keys[i],
                "col": panel.col_keys[j],
                "samples": [float(v) for v in panel.matrix.entry(i, j).samples],
            }
            for i, j in panel.matrix.observed_cells()
        ],
    }
    with _open_text(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_matrix_json(path) -> Panel:
    """Parse the JSON matrix format; raises PanelParseError on malformed
    input, such as a repeated axis key, an entry off the axes or given twice,
    or ``samples`` that is not an array of numbers."""
    with _open_text(path) as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise PanelParseError(f"invalid JSON: {exc}") from None
    try:
        row_keys = list(payload["rows"])
        col_keys = list(payload["cols"])
        rows, cols = set(row_keys), set(col_keys)
        if len(rows) < len(row_keys) or len(cols) < len(col_keys):
            raise PanelParseError("a key appears more than once in rows or cols")
        groups = {}
        for rec in payload["entries"]:
            key = (rec["row"], rec["col"])
            if key[0] not in rows or key[1] not in cols:
                raise PanelParseError(f"entry {key!r} is not on the rows/cols axes")
            if key in groups:
                raise PanelParseError(f"entry {key!r} appears more than once")
            samples = rec["samples"]
            if not isinstance(samples, list) or not all(
                    type(v) in (int, float) for v in samples):
                raise PanelParseError(
                    f"entry {key!r}: samples must be an array of numbers")
            groups[key] = [float(v) for v in samples]
    except PanelParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PanelParseError(f"malformed matrix JSON: {exc}") from None
    return _matrix_from_groups(groups, row_keys, col_keys)


def load_panel(path) -> Panel:
    """Dispatch on extension: .json for the matrix format, CSV otherwise."""
    if str(path).endswith(".json"):
        return read_matrix_json(path)
    return read_panel_csv(path)
