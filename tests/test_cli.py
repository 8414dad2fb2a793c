"""Command-line interface: exit codes, output schemas, reproducibility."""

import hashlib
import json
import operator
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distnn import DistributionalMatrix, Panel, TuneConfig, empirical, estimator
from distnn.cli import _tune_config, build_parser, main
from distnn.panel import write_matrix_json, write_panel_csv
from test_tuning import _overflow_panel


def strict_json(path):
    """Parse a file as strict JSON: NaN and Infinity are rejected."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(path.read_text(), parse_constant=reject)

DUPLICATE_ROW_CSV = """row,col,value
r1,c1,0
r1,c1,2
r1,c2,10
r1,c2,12
r1,c3,5
r1,c3,6
r2,c1,0
r2,c1,2
r2,c2,10
r2,c2,12
r2,c3,5
r2,c3,6
r3,c1,100
r3,c1,102
r3,c2,110
r3,c2,112
"""


@pytest.fixture
def duplicate_csv(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text(DUPLICATE_ROW_CSV, encoding="utf-8")
    return path


# row b's entry in column x has no spread, so no KDE fits it
FLAT_NEIGHBOR_CSV = "row,col,value\n" + "".join(
    f"{r},{c},{v}\n"
    for r, c, values in [("a", "x", "123"), ("a", "y", "123"), ("b", "x", "555"),
                         ("b", "y", "124"), ("c", "y", "123")]
    for v in values
)


@pytest.fixture
def flat_csv(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT_NEIGHBOR_CSV, encoding="utf-8")
    return path


class TestImputeCommand:
    def test_duplicate_row_fixture(self, duplicate_csv, tmp_path):
        out = tmp_path / "out.json"
        code = main([
            "impute", "--input", str(duplicate_csv),
            "--row", "r3", "--col", "c3", "--eta", "1e9",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["estimate"]["samples"] == [5.0, 6.0]
        assert payload["result"]["neighbors"]["rows"] == ["r1", "r2"]
        assert payload["config"]["seed"] == 0

    def test_all_missing_on_fully_observed(self, tmp_path):
        path = tmp_path / "full.csv"
        path.write_text("row,col,value\nr,c,1\nr2,c,2\n", encoding="utf-8")
        out = tmp_path / "out.json"
        code = main(["impute", "--input", str(path), "--all-missing",
                     "--eta", "1.0", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"] == [] and payload["failures"] == []

    def test_all_missing_records_each_failure_in_row_major_order(self, tmp_path):
        # row a has no observed cell to tune on; rows b and c are identical,
        # so tuning picks eta 0, and nobody observes column w
        path = tmp_path / "panel.json"
        entries = [{"row": r, "col": c, "samples": v}
                   for r in "bc" for c, v in (("x", [0, 1]), ("y", [5, 6]))]
        path.write_text(json.dumps({"rows": ["a", "b", "c"], "cols": ["x", "y", "w"],
                                    "entries": entries}), encoding="utf-8")
        out = tmp_path / "out.json"
        assert main(["impute", "--input", str(path), "--all-missing", "--budget", "5",
                     "--output", str(out)]) == 0
        payload = strict_json(out)
        assert payload["results"] == []
        assert payload["failures"] == [
            {"row": "a", "col": c, "error": f"row 0 has no observed entries besides column {j}"}
            for j, c in enumerate("xyw")
        ] + [
            {"row": r, "col": "w",
             "error": f"no neighbors for target ({i}, 2) at threshold eta=0.0"}
            for i, r in ((1, "b"), (2, "c"))
        ]

    def test_malformed_csv_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("row,col,value\nr,c,xyz\n", encoding="utf-8")
        code = main(["impute", "--input", str(path), "--row", "r", "--col", "c",
                     "--eta", "1", "--output", str(tmp_path / "o.json")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_bad_target_exits_one(self, duplicate_csv, tmp_path):
        code = main(["impute", "--input", str(duplicate_csv),
                     "--row", "nope", "--col", "c1", "--eta", "1",
                     "--output", str(tmp_path / "o.json")])
        assert code == 1

    def test_no_neighbors_exits_two_with_machine_readable_error(self, duplicate_csv, tmp_path):
        out = tmp_path / "o.json"
        code = main(["impute", "--input", str(duplicate_csv),
                     "--row", "r3", "--col", "c3", "--eta", "1e-6",
                     "--output", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["error"] == "no_neighbors"

    def test_fallback_nearest_rescues_no_neighbors(self, duplicate_csv, tmp_path):
        out = tmp_path / "o.json"
        code = main(["impute", "--input", str(duplicate_csv),
                     "--row", "r3", "--col", "c3", "--eta", "1e-6",
                     "--fallback-nearest", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["result"]["neighbors"]["rows"]) == 1

    def test_fallback_result_is_strict_json(self, duplicate_csv, tmp_path):
        out = tmp_path / "o.json"
        code = main(["impute", "--input", str(duplicate_csv),
                     "--row", "r3", "--col", "c3", "--eta", "1e-6",
                     "--fallback-nearest", "--output", str(out)])
        assert code == 0
        result = strict_json(out)["result"]
        assert result["eta"] is None and result["fallback"] is True

    def test_result_without_fallback_has_no_fallback_key(self, duplicate_csv, tmp_path):
        out = tmp_path / "o.json"
        main(["impute", "--input", str(duplicate_csv), "--row", "r3",
              "--col", "c3", "--eta", "1e9", "--fallback-nearest",
              "--output", str(out)])
        result = strict_json(out)["result"]
        assert result["eta"] == 1e9 and "fallback" not in result

    def test_empty_matrix_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"rows": [], "cols": [], "entries": []}', encoding="utf-8")
        code = main(["impute", "--input", str(path), "--all-missing",
                     "--eta", "1", "--output", str(tmp_path / "o.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_tuned_eta_path(self, duplicate_csv, tmp_path):
        out = tmp_path / "o.json"
        code = main(["impute", "--input", str(duplicate_csv),
                     "--row", "r1", "--col", "c3", "--tune", "--budget", "10",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["estimate"]["samples"] == [5.0, 6.0]

    def test_rerun_reproduces_output_byte_for_byte(self, duplicate_csv, tmp_path):
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        args = ["impute", "--input", str(duplicate_csv), "--row", "r3",
                "--col", "c3", "--eta", "1e9"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestTuneCommand:
    def test_writes_trial_log(self, duplicate_csv, tmp_path):
        out = tmp_path / "tune.json"
        code = main(["tune", "--input", str(duplicate_csv),
                     "--row", "r1", "--col", "c1", "--budget", "8",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["trials"]) == 8
        losses = [t["mean_loss"] for t in payload["trials"] if t["n_valid_cells"]]
        assert payload["best_eta"] > 0 or payload["best_eta"] == 0.0
        assert min(losses) == min(
            t["mean_loss"] for t in payload["trials"] if t["n_valid_cells"]
        )


    def test_non_finite_loss_is_null(self, duplicate_csv, tmp_path):
        # r3's held-out cells have neighbors only at eta >= 1e4, so the
        # smaller candidates score an infinite loss
        out = tmp_path / "tune.json"
        code = main(["tune", "--input", str(duplicate_csv),
                     "--row", "r3", "--col", "c3", "--budget", "8",
                     "--eta-min", "1e-3", "--eta-max", "1e5",
                     "--output", str(out)])
        assert code == 0
        losses = [t["mean_loss"] for t in strict_json(out)["trials"]]
        assert losses[0] is None and losses[-1] is not None


class TestBandsCommand:
    def test_bootstrap_band_output(self, duplicate_csv, tmp_path):
        out = tmp_path / "bands.json"
        code = main(["bands", "--input", str(duplicate_csv),
                     "--row", "r3", "--col", "c3", "--eta", "1e9",
                     "--levels", "9", "--seed", "5", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        band = payload["band"]
        assert len(band["levels"]) == 9
        assert band["method"] == "bootstrap" and band["simultaneous"]
        assert all(lo <= hi for lo, hi in zip(band["lower"], band["upper"]))

    def test_kde_band(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["row,col,value"]
        for r in ("a", "b", "c", "d"):
            for c in ("x", "y"):
                for v in rng.normal(size=25):
                    lines.append(f"{r},{c},{float(v)!r}")
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "bands.json"
        code = main(["bands", "--input", str(path), "--row", "a", "--col", "y",
                     "--eta", "100", "--method", "asymptotic-kde",
                     "--levels", "5", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["band"]["method"] == "asymptotic_kde"

    def test_no_neighbors_exit_code(self, duplicate_csv, tmp_path):
        code = main(["bands", "--input", str(duplicate_csv),
                     "--row", "r3", "--col", "c3", "--eta", "1e-9",
                     "--output", str(tmp_path / "b.json")])
        assert code == 2


def _limit_panel():
    """Ragged cells of one value, -1.7e308 in even columns and 1.7e308 in odd
    ones: rows lie at distance 0, and any sum of two cells overflows."""
    missing = {(0, 0), (1, 1), (2, 2)}
    return [[None if (r, c) in missing else np.full(1 + (r + c) % 3, (-1.0) ** (c + 1) * 1.7e308)
             for c in range(3)] for r in range(6)]


class TestNoNumpyWarnings:
    """Samples near the float limits give infinite distances and losses,
    written as null, and no command warns on the way. A
    neighbour of the limit panel has an infinite variance, so the KDE band
    refuses it."""

    @pytest.mark.parametrize("panel, codes", [
        (_overflow_panel(), (0, 0, 0, 0)),
        (_limit_panel(), (0, 0, 0, 1)),
    ], ids=["1e300", "1.7e308-ragged"])
    def test_commands_run_under_warnings_as_errors(self, panel, codes, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(["row,col,value"] + [
            f"r{r},c{c},{v!r}" for r, row in enumerate(panel) for c, cell in enumerate(row)
            if cell is not None for v in cell.tolist()]) + "\n", encoding="utf-8")
        target = ["--input", str(path), "--row", "r0", "--col", "c0", "--budget", "8"]
        commands = [["impute", "--input", str(path), "--all-missing", "--tune", "--budget", "8"],
                    ["tune", *target],
                    ["bands", *target, "--levels", "9"],
                    ["bands", *target, "--levels", "9", "--method", "asymptotic-kde"]]
        for argv, code in zip(commands, codes):
            out = tmp_path / f"{argv[0]}.json"
            out.unlink(missing_ok=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([*argv, "--output", str(out)]) == code
            if code == 0:
                strict_json(out)


_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-308, 1e-150, 1.0, 1e150, 1e300, 1e308, 1.7e308]),
    st.floats(min_value=5e-324, max_value=1.7e308),
)
_VALUES = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _MAGNITUDES)


@st.composite
def _small_panels(draw):
    """A 4-6 x 3-4 panel, its cells of one sample count or of 1 to 3
    each, a quarter of them missing. Its values span the finite floats of
    either sign, 5e-324 to 1.7e308 in size, or are steps of one such size."""
    rows, cols = draw(st.integers(4, 6)), draw(st.integers(3, 4))
    ragged, n = draw(st.booleans()), draw(st.integers(1, 3))
    values = _VALUES if draw(st.booleans()) else st.builds(
        operator.mul, st.sampled_from([-1.0, -0.75, -0.5, 0.0, 0.25, 0.5, 1.0]),
        st.just(draw(_MAGNITUDES)))
    sizes = st.integers(1, 3) if ragged else st.just(n)
    return [[None if draw(st.integers(0, 3)) == 0 else
             draw(st.lists(values, min_size=k, max_size=k)) if (k := draw(sizes)) else None
             for _ in range(cols)] for _ in range(rows)]


def _write_csv(panel, path):
    path.write_text("\n".join(["row,col,value"] + [
        f"r{r},c{c},{v!r}" for r, row in enumerate(panel) for c, cell in enumerate(row)
        if cell is not None for v in cell]) + "\n", encoding="utf-8")


class TestNoWarningAtAnyMagnitude:
    """Every panel command, on any small panel whose values span the finite
    floats, exits 0, 1 or 2 without a warning, and writes strict JSON or
    no file."""

    @given(panel=_small_panels())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_commands_exit_cleanly(self, panel):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            _write_csv(panel, path)
            target = ["--input", str(path), "--row", "r0", "--col", "c0", "--budget", "8"]
            commands = [["impute", "--input", str(path), "--all-missing", "--tune", "--budget", "8"],
                        ["tune", *target],
                        ["bands", *target, "--levels", "9"],
                        ["bands", *target, "--levels", "9", "--method", "asymptotic-kde"]]
            for argv in commands:
                out = Path(tmp) / f"{argv[0]}.json"
                out.unlink(missing_ok=True)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([*argv, "--output", str(out)])
                assert code in (0, 1, 2)
                if out.exists():
                    strict_json(out)


@st.composite
def _ragged_json_panels(draw):
    """A 4-7 x 3-4 panel of cells of 1 to 6 samples, a quarter of them
    missing; the samples come from a drawn seed, whole numbers (ties) in
    some panels."""
    rows, cols = draw(st.integers(4, 7)), draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tied = draw(st.booleans())
    return [[None if draw(st.integers(0, 3)) == 0 else
             rng.integers(-2, 3, n).astype(float) if tied else rng.normal(r % 3, 1.0, n)
             for n in draw(st.lists(st.integers(1, 6), min_size=cols, max_size=cols))]
            for r in range(rows)]


class TestKeptGridsAcrossRows:
    """``impute --all-missing --tune`` reads one panel's ragged held-out
    grids in every row; each of its results equals that of a single-cell
    run, which loads the panel afresh."""

    @given(panel=_ragged_json_panels())
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    def test_each_result_equals_a_single_cell_run(self, panel):
        m = DistributionalMatrix(panel)
        with tempfile.TemporaryDirectory() as tmp:
            path, out, one = (Path(tmp) / name for name in ("panel.json", "all.json", "one.json"))
            write_matrix_json(Panel(m, tuple(f"r{i}" for i in range(m.n_rows)),
                                    tuple(f"c{j}" for j in range(m.n_cols))), path)
            tuned = ["--input", str(path), "--tune", "--budget", "8"]
            assert main(["impute", *tuned, "--all-missing", "--output", str(out)]) == 0
            payload = strict_json(out)
            for res in payload["results"]:
                cell = ["--row", res["row"], "--col", res["col"]]
                assert main(["impute", *tuned, *cell, "--output", str(one)]) == 0
                assert strict_json(one)["result"] == res
            for failure in payload["failures"]:
                cell = ["--row", failure["row"], "--col", failure["col"]]
                assert main(["impute", *tuned, *cell, "--output", str(one)]) in (1, 2)


class TestByteOrderMark:
    @pytest.mark.parametrize("name", ["panel.csv", "panel.json"])
    def test_marked_panel_gives_the_plain_results(self, tmp_path, name):
        rng = np.random.default_rng(8)
        m = DistributionalMatrix([[None if (r + c) % 4 == 0 else
                                   rng.normal(r % 3, 1.0, 3 + (r * c) % 4) for c in range(4)]
                                  for r in range(7)])
        plain, marked = tmp_path / name, tmp_path / f"marked-{name}"
        panel = Panel(m, tuple(f"r{i}" for i in range(7)), tuple(f"c{j}" for j in range(4)))
        (write_matrix_json if name.endswith(".json") else write_panel_csv)(panel, plain)
        marked.write_bytes("\ufeff".encode("utf-8") + plain.read_bytes())
        payloads = []
        for path in (plain, marked):
            out = tmp_path / "o.json"
            assert main(["impute", "--input", str(path), "--all-missing", "--tune",
                         "--budget", "8", "--output", str(out)]) == 0
            payloads.append(strict_json(out))
        assert payloads[0]["results"] and payloads[0]["failures"] == payloads[1]["failures"]
        assert payloads[0]["results"] == payloads[1]["results"]


class TestSimulateCommand:
    def test_writes_csv_and_json(self, tmp_path):
        prefix = tmp_path / "sim"
        code = main(["simulate", "--sweep", "n_samples", "--values", "10", "30",
                     "--trials", "3", "--rows", "10", "--cols", "6",
                     "--budget", "8", "--seed", "1",
                     "--output-prefix", str(prefix)])
        assert code == 0
        summary = json.loads((tmp_path / "sim.json").read_text())
        assert summary["config"]["seed"] == 1
        assert "fit_exponent" in summary["summary"]
        header = (tmp_path / "sim.csv").read_text().splitlines()[0]
        assert "mean_error" in header


class TestVerifyCommand:
    def test_uniform_barycenter_table(self, tmp_path, capsys):
        prefix = tmp_path / "check"
        code = main(["verify", "uniform-barycenter", "--trials", "500",
                     "--output-prefix", str(prefix)])
        assert code == 0
        payload = json.loads((tmp_path / "check.json").read_text())
        assert len(payload["rows"]) == 9
        assert "z=" in capsys.readouterr().out

    def test_barycenter_rate_summary(self, tmp_path, capsys):
        prefix = tmp_path / "rate"
        code = main(["verify", "barycenter-rate", "--seed", "3", "--output-prefix", str(prefix)])
        assert code == 0
        payload = strict_json(tmp_path / "rate.json")
        # the rate check fixes its own trial counts, so --trials is not echoed
        assert payload["config"] == {"command": "verify", "subject": "barycenter-rate", "seed": 3}
        assert set(payload["summary"]) == {"k_list", "k_errors", "doubling_ratios", "n_list",
                                           "n_errors", "slope_exponent"}
        assert "slope in n:" in capsys.readouterr().out


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            "tune --input {panel} --row r1 --col c1 --budget 0 --output {tmp}/o.json",
            "impute --input {panel} --row r1 --col c3 --budget 0 --output {tmp}/o.json",
            "tune --input {panel} --row r1 --col c1 --eta-min 1 --output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e9 --reps-samples 0 "
            "--output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e9 --reps-samples -1 "
            "--reps-neighbors -1 --output {tmp}/o.json",
            "simulate --values 30 10 --output-prefix {tmp}/s",
            "simulate --values 10 --trials 0 --output-prefix {tmp}/s",
            "simulate --values 10 --n 0 --output-prefix {tmp}/s",
            "simulate --values 10 --cols 0 --output-prefix {tmp}/s",
            "simulate --values 10 --min-neighbors 0 --output-prefix {tmp}/s",
            "verify uniform-barycenter --trials 5 --output-prefix {tmp}/v",
            "impute --input {tmp}/missing.csv --row r --col c --eta 1 --output {tmp}/o.json",
            "impute --input {tmp} --row r --col c --eta 1 --output {tmp}/o.json",
            "impute --input {panel} --row r3 --col c3 --eta 1e9 "
            "--output {tmp}/no-such-dir/o.json",
            "simulate --values 10 20 --trials 2 --rows 8 --cols 3 --eta 1e9 "
            "--output-prefix {tmp}/no-such-dir/s",
            "bands --input {flat} --row c --col x --eta 100 --method asymptotic-kde "
            "--output {tmp}/o.json",
            "tune --input {panel} --row r3 --col c3 --eta-min 1 --eta-max inf "
            "--output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e-9 --reps-samples 0 "
            "--output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e-9 --alpha 1.5 "
            "--output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e-9 --alpha 1.5 "
            "--method asymptotic-kde --output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e9 --reps-samples 0 "
            "--method asymptotic-kde --output {tmp}/o.json",
            "bands --input {panel} --row r3 --col c3 --eta 1e-9 --reps-neighbors 0 "
            "--method asymptotic-kde --output {tmp}/o.json",
        ],
        ids=["tune-budget", "impute-budget", "eta-min-alone", "reps-zero",
             "reps-negative", "values-decreasing", "trials-zero", "n-zero", "cols-zero",
             "min-neighbors-zero", "verify-trials", "missing-input",
             "directory-input", "unwritable-json", "unwritable-csv", "kde-no-spread",
             "eta-max-infinite", "reps-zero-no-neighbors", "alpha-no-neighbors",
             "kde-alpha-no-neighbors", "kde-reps-zero", "kde-reps-zero-no-neighbors"],
    )
    def test_exits_one_with_error_line(self, argv, duplicate_csv, flat_csv, tmp_path, capsys):
        code = main(argv.format(panel=duplicate_csv, flat=flat_csv, tmp=tmp_path).split())
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("bad_too", [[], ["--reps-samples", "0", "--alpha", "1.5"]],
                             ids=["alone", "with-bad-reps-and-alpha"])
    @pytest.mark.parametrize("levels", ["0", "-3"])
    @pytest.mark.parametrize("method", ["bootstrap", "asymptotic-kde"])
    def test_empty_level_grid_exits_one(self, method, levels, bad_too, duplicate_csv,
                                        tmp_path, capsys):
        # the level grid is checked first, before the replicates and alpha
        code = main(["bands", "--input", str(duplicate_csv), "--row", "r3", "--col", "c3",
                     "--eta", "1e9", "--method", method, f"--levels={levels}", *bad_too,
                     "--output", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: levels must be a non-empty 1-D array")
        assert "Traceback" not in err and not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            "impute --input {panel} --row r1 --col c1 --no-such-option",
            "impute --row r1 --col c1 --eta 1",
            "bands --input {panel} --row r3 --col c3 --method nope",
            "tune --input {panel} --row r1",
            "",
        ],
        ids=["unknown-option", "input-missing", "bad-method", "col-missing", "no-command"],
    )
    def test_usage_error_exits_one(self, argv, duplicate_csv, capsys):
        code = main(argv.format(panel=duplicate_csv).split())
        err = capsys.readouterr().err
        assert code == 1
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            "impute --input {panel} --row r3 --col c3 --tune",
            "tune --input {panel} --row r3 --col c3 --search random_log_uniform",
            "bands --input {panel} --row r3 --col c3",
            "simulate --values 10 20 --trials 2",
            "verify uniform-barycenter --trials 100",
        ],
        ids=["impute", "tune", "bands", "simulate", "verify"],
    )
    @pytest.mark.parametrize("seed", ["-1", "1.5"])
    def test_bad_seed_is_a_usage_error(self, argv, seed, duplicate_csv, tmp_path,
                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(argv.format(panel=duplicate_csv).split() + ["--seed", seed])
        err = capsys.readouterr().err
        assert code == 1
        assert "--seed: expected a non-negative integer" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == [duplicate_csv.name]  # no output

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["impute", "--help"])
        assert exc.value.code == 0
        assert "--all-missing" in capsys.readouterr().out

    def test_unwritable_output_names_the_path(self, duplicate_csv, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "o.json"
        code = main(["impute", "--input", str(duplicate_csv), "--row", "r3",
                     "--col", "c3", "--eta", "1e9", "--output", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


class TestPerRowReuse:
    def test_one_table_build_per_row_with_a_missing_cell(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        missing = {0: (1, 3), 1: (0,), 2: (2, 3), 4: (1, 2)}
        lines = ["row,col,value"]
        for r in range(6):
            for c in range(5):
                if c not in missing.get(r, ()):
                    lines += [f"r{r},c{c},{v!r}" for v in rng.normal(r, 1.0, 4).tolist()]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        builds = []
        build = estimator._w2sq_table
        monkeypatch.setattr(estimator, "_w2sq_table",
                            lambda m, i: builds.append(i) or build(m, i))
        out = tmp_path / "o.json"
        code = main(["impute", "--input", str(path), "--all-missing", "--tune",
                     "--budget", "8", "--output", str(out)])
        assert code == 0
        payload = strict_json(out)
        assert len(payload["results"]) + len(payload["failures"]) == 7
        assert builds == sorted(missing)


class TestKeptGridBuilds:
    def test_each_kept_grid_is_built_once_per_call(self, tmp_path, monkeypatch):
        """The ragged counterpart of one table build per row: the rows of
        one call share the matrix's kept grids, so no entry is built twice."""
        rng = np.random.default_rng(5)
        missing = {(0, 1), (1, 3), (2, 0), (3, 2), (5, 1), (6, 3)}
        m = DistributionalMatrix([
            [None if (r, c) in missing else rng.normal(r % 3, 1.0, int(rng.integers(2, 9)))
             for c in range(4)] for r in range(8)
        ])
        path = tmp_path / "panel.json"
        write_matrix_json(Panel(m, tuple(f"r{i}" for i in range(8)), tuple(f"c{j}" for j in range(4))), path)
        builds, owners = [], []
        grid = empirical._ColumnGrids.grid

        def counted(grids, v, rows):
            before = set(grids.entries)
            out = grid(grids, v, rows)
            owners.append(grids)
            builds.extend(set(grids.entries) - before)
            return out

        monkeypatch.setattr(empirical._ColumnGrids, "grid", counted)
        out = tmp_path / "o.json"
        assert main(["impute", "--input", str(path), "--all-missing", "--tune",
                     "--budget", "8", "--output", str(out)]) == 0
        payload = strict_json(out)
        assert len(payload["results"]) + len(payload["failures"]) == len(missing)
        # every row reads one grids object, and builds each entry it keeps once
        assert all(grids is owners[0] for grids in owners)
        assert len(owners) > len(builds) > 1
        assert sorted(builds) == sorted(owners[0].entries)


class TestKeptRowTables:
    """The row tables of one call share their pairs: each (column, unordered
    row pair) is computed once, the counterpart of one build per row."""

    MISSING = {(0, 1), (1, 3), (2, 0), (3, 2), (5, 1), (6, 3)}

    def _counted_call(self, tmp_path, monkeypatch):
        """One call on a ragged 9 x 4 panel: its output, every pair computed,
        the matrices read, and the pair counts of one computation per
        (column, unordered pair) and of one per table row."""
        rng = np.random.default_rng(7)
        m = DistributionalMatrix([
            [None if (r, c) in self.MISSING else rng.normal(r % 3, 1.0, int(rng.integers(2, 9)))
             for c in range(4)] for r in range(9)
        ])
        path = tmp_path / "panel.json"
        write_matrix_json(Panel(m, tuple(f"r{i}" for i in range(9)), tuple(f"c{j}" for j in range(4))), path)
        pairs, matrices = [], []
        compute, table = estimator._w2sq_pairs, estimator._w2sq_table

        def counted(block, rows, i):
            pairs.extend((id(block), frozenset((i, u))) for u in rows.tolist())
            return compute(block, rows, i)

        monkeypatch.setattr(estimator, "_w2sq_pairs", counted)
        monkeypatch.setattr(estimator, "_w2sq_table", lambda m, i: matrices.append(m) or table(m, i))
        out = tmp_path / "o.json"
        assert main(["impute", "--input", str(path), "--all-missing", "--tune",
                     "--budget", "8", "--output", str(out)]) == 0
        # the rows with a missing cell build the tables; rows 4, 7 and 8 build none
        rows = {r for r, _ in self.MISSING}
        once = sum(int(m.mask[i, c] and m.mask[u, c] and (i in rows or u in rows))
                   for c in range(4) for i in range(9) for u in range(i + 1, 9))
        per_row = sum(int(m.mask[:, c].sum()) - 1 for i in rows for c in range(4) if m.mask[i, c])
        return out.read_bytes(), pairs, matrices, once, per_row

    def test_each_pair_is_computed_once_per_call(self, tmp_path, monkeypatch):
        _, pairs, matrices, once, per_row = self._counted_call(tmp_path, monkeypatch)
        assert len(pairs) == len(set(pairs)) == once < per_row
        assert all(m is matrices[0] for m in matrices)
        assert len(matrices[0]._tables) == len({r for r, _ in self.MISSING})

    def test_tables_past_the_budget_are_not_kept(self, tmp_path, monkeypatch):
        with pytest.MonkeyPatch.context() as patch:
            kept = self._counted_call(tmp_path, patch)[0]
        # one value short of one 9 x 4 table
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", 35)
        out, pairs, matrices, _, per_row = self._counted_call(tmp_path, monkeypatch)
        assert len(pairs) == per_row
        assert matrices and all(m._tables == {} for m in matrices)
        assert out == kept


class TestConfigEcho:
    """Each command echoes exactly its computing options; output paths and
    the separate row/col arguments never appear."""

    IMPUTE_KEYS = {"command", "input", "eta", "tune", "budget", "var_alpha",
                   "min_overlap", "fallback_nearest", "all_missing", "target",
                   "seed"}

    @pytest.mark.parametrize(
        "argv, keys",
        [
            ("impute --input {panel} --row r3 --col c3 --eta 1e9 --output {tmp}/o.json",
             IMPUTE_KEYS),
            ("impute --input {panel} --all-missing --eta 1e9 --output {tmp}/o.json",
             IMPUTE_KEYS),
            ("tune --input {panel} --row r1 --col c1 --budget 4 --output {tmp}/o.json",
             {"command", "input", "target", "budget", "search", "eta_min",
              "eta_max", "min_overlap", "seed"}),
            ("bands --input {panel} --row r3 --col c3 --eta 1e9 --levels 5 "
             "--output {tmp}/o.json",
             {"command", "input", "target", "eta", "alpha", "levels",
              "simultaneous", "method", "reps_samples", "reps_neighbors", "seed"}),
            ("simulate --values 10 30 --trials 3 --rows 10 --cols 6 --budget 8 "
             "--seed 1 --output-prefix {tmp}/o",
             {"command", "kind", "base", "sweep", "values", "trials", "rows",
              "cols", "n", "eta", "budget", "min_neighbors", "seed"}),
            ("verify uniform-barycenter --trials 200 --output-prefix {tmp}/o",
             {"command", "subject", "trials", "seed"}),
        ],
        ids=["impute", "impute-all-missing", "tune", "bands", "simulate",
             "verify-uniform-barycenter"],
    )
    def test_config_keys(self, argv, keys, duplicate_csv, tmp_path):
        assert main(argv.format(panel=duplicate_csv, tmp=tmp_path).split()) == 0
        assert set(strict_json(tmp_path / "o.json")["config"]) == keys

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("tune --input p.csv --row r --col c --budget 7 --search random_log_uniform "
             "--eta-min 1 --eta-max 2 --seed 3 --min-overlap 2",
             TuneConfig(budget=7, search="random_log_uniform", eta_min=1.0, eta_max=2.0,
                        seed=3, min_overlap=2)),
            ("impute --input p.csv --row r --col c --budget 7 --seed 3 --min-overlap 2",
             TuneConfig(budget=7, seed=3, min_overlap=2)),
            ("bands --input p.csv --row r --col c --budget 7 --seed 3",
             TuneConfig(budget=7, seed=3)),
        ],
        ids=["tune", "impute", "bands"],
    )
    def test_every_tuning_option_reaches_the_config(self, argv, expected):
        # no option left at a value TuneConfig's default would also give, so
        # a renamed option cannot fall back to the default unnoticed
        assert _tune_config(build_parser().parse_args(argv.split())) == expected


def _golden_panel(path, seed, ragged):
    """A 10 x 5 CSV panel with about a quarter of the cells missing (never in
    the first row); 16 samples per cell, or 6 to 25 when ``ragged``."""
    rng = np.random.default_rng(seed)
    lines = ["row,col,value"]
    for r in range(10):
        for c in range(5):
            if r > 0 and rng.random() < 0.25:
                continue
            n = int(rng.integers(6, 26)) if ragged else 16
            lines += [f"r{r},c{c},{v!r}" for v in rng.normal(r % 3 + c, 1.0 + r / 10, n).tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestGoldenOutputs:
    """``impute --all-missing --tune`` results and ``bands`` envelopes,
    pinned by sha256 of the parts that do not echo the temporary path. The
    ragged panel's ``std`` values are left out: they moved to the two-pass
    formula, by at most 1.5e-13 relative on the benchmark panels."""

    @pytest.mark.parametrize("ragged, seed, sha", [
        (False, 12, "5d6a7c7ddd75399bd52ea1d0f761d438f4f97860bf38b95b66192384492bcda3"),
        (True, 13, "d47b6d1efe9d23ff28c1cc3e96b245dbedf2cd6387ec1417476d446bfd5abdfa"),
    ], ids=["equal-n", "ragged"])
    def test_all_missing_tuned_output(self, ragged, seed, sha, tmp_path):
        _golden_panel(tmp_path / "panel.csv", seed, ragged)
        out = tmp_path / "out.json"
        assert main(["impute", "--input", str(tmp_path / "panel.csv"), "--all-missing",
                     "--tune", "--output", str(out)]) == 0
        payload = strict_json(out)
        kept = {"results": payload["results"], "failures": payload["failures"]}
        assert len(kept["results"]) == (10 if ragged else 5)
        if ragged:
            for result in kept["results"]:
                del result["summaries"]["std"]
        digest = hashlib.sha256(json.dumps(kept, sort_keys=True).encode()).hexdigest()
        assert digest == sha

    @pytest.mark.parametrize("ragged, seed, cell, sha", [
        (False, 12, ("r1", "c0"), "35a58dcace453f652a6a375f3e02372d30157305ee47d63e85fbf9e7ba3c4d6a"),
        (True, 13, ("r1", "c1"), "37445d6962baa2e733dde24ebd9a83c244fea9e88ba371ee73be4c160601ea69"),
    ], ids=["equal-n", "ragged"])
    def test_bootstrap_bands_output(self, ragged, seed, cell, sha, tmp_path):
        """``bands --method bootstrap`` on a missing cell, with tuned eta;
        the ragged panel's neighbours have six different sample counts."""
        _golden_panel(tmp_path / "panel.csv", seed, ragged)
        out = tmp_path / "out.json"
        assert main(["bands", "--input", str(tmp_path / "panel.csv"), "--row", cell[0],
                     "--col", cell[1], "--method", "bootstrap", "--output", str(out)]) == 0
        band = strict_json(out)["band"]
        kept = {"lower": band["lower"], "upper": band["upper"]}
        digest = hashlib.sha256(json.dumps(kept).encode()).hexdigest()
        assert digest == sha


class TestGoldenBytes:
    """sha256 of whole result files, so that indentation, separators, key
    order and float text are pinned along with the values. Each command runs
    in the temporary directory on relative paths, so the echoed ``input``
    is the same on every run. The cases write non-finite numbers as null:
    the fallback's eta of infinity, and the infinite mean loss of a trial
    whose eta finds no neighbour."""

    @pytest.mark.parametrize("argv, sha", [
        ("impute --input ragged.csv --row r1 --col c1 --eta 1e-12 --fallback-nearest "
         "--output out.json", "7093c2df98db6d1c74e1e32c05e53cd8251fcacec7749888aa3ce42c819a3739"),
        ("impute --input equal.csv --all-missing --tune --output out.json", "c24f47861c57ee4f179ad269799f84ac055604f88c1cda964faa92017ef4899c"),
        ("impute --input ragged.csv --all-missing --tune --output out.json", "cc5cda21b5e1ab96b212793c123e276c587f4daa8163883f662dba5d805972fd"),
        ("tune --input ragged.csv --row r1 --col c1 --eta-min 1e-9 --eta-max 10 --budget 12 "
         "--output out.json", "ee1cbc6f663240d4eac3651f11882fe98c4495fe72c2de0494979713091008e9"),
        ("bands --input ragged.csv --row r1 --col c1 --method bootstrap --levels 19 "
         "--output out.json", "c21bf3a58afca84251f4aec8e2dc52143304bee3d88037e0c8f9dfdb593fa8ea"),
        ("bands --input equal.csv --row r1 --col c0 --method asymptotic-kde --levels 19 "
         "--output out.json", "ffdfc003bc8f7af8399b0da816b1663e0e168ebdb3e32f1128caf38ef21cadda"),
        ("simulate --values 10 30 --trials 3 --rows 10 --cols 6 --budget 8 --seed 1 "
         "--output-prefix out", "19a345ae7da87ccd284d05aad84cc0eff175130dfa19b182058beeaef2f4bc56"),
        ("verify uniform-barycenter --trials 200 --output-prefix out", "88d2969264f08d35991266514005eb7b4c6e1f6d0a21e95eda515768c5f31248"),
    ], ids=["impute", "impute-all-missing-equal-n", "impute-all-missing-ragged", "tune",
            "bands-bootstrap", "bands-asymptotic-kde", "simulate", "verify"])
    def test_output_file_bytes(self, argv, sha, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _golden_panel(tmp_path / "equal.csv", 12, ragged=False)
        _golden_panel(tmp_path / "ragged.csv", 13, ragged=True)
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert hashlib.sha256((tmp_path / "out.json").read_bytes()).hexdigest() == sha
