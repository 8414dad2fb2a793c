"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from workloads import TOL, OutputError, compare, recheck_distances, strict_json  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def reference(name):
    return json.loads((HERE / "reference" / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    if not trace:
        for m in wanted:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_gate_rejects_swapped_neighbour_row():
    ref = reference("panel_equal")
    got = copy.deepcopy(ref)
    cell = next(c for c in got["cells"].values() if len(c["rows"]) >= 2)
    cell["rows"][0], cell["rows"][1] = cell["rows"][1], cell["rows"][0]
    assert compare(ref, ref) == []
    assert compare(ref, got)


def test_gate_tolerance_on_summaries():
    ref = reference("panel_ragged")
    key = sorted(ref["cells"])[0]
    value = ref["cells"][key]["summaries"]["mean"]
    for factor, rejected in ((0.1, False), (10.0, True)):
        got = copy.deepcopy(ref)
        got["cells"][key]["summaries"]["mean"] = value + factor * TOL * max(1.0, abs(value))
        assert bool(compare(ref, got)) is rejected


def test_gate_rejects_moved_sweep_and_band():
    sweep = reference("scaling_sweep")
    got = copy.deepcopy(sweep)
    got["mean_errors"][0] *= 1.0 + 1e-6
    assert compare(sweep, got)
    bands = reference("bands")
    got = copy.deepcopy(bands)
    target = sorted(got)[0]
    got[target]["bootstrap"][0][10] -= 1e-6
    assert compare(bands, got)


def test_recheck_flags_a_wrong_distance():
    import numpy as np

    from distnn.estimator import impute

    panel = workloads.build_panel(np.random.default_rng(5), 5, 12, 6, (30, 30), 0.7)
    m = panel.matrix
    i, j = map(int, np.argwhere(~m.mask)[0])
    ns = impute(m, i, j, float("inf")).neighbors
    cell = (i, j, ns.rows.tolist(), ns.distances.tolist())
    assert recheck_distances(m, [cell]) == []
    cell[3][0] *= 1.0 + 1e-6
    assert recheck_distances(m, [cell])


@pytest.mark.parametrize("n_cols", [6, 10, 20])
def test_close_rows_observe_every_missing_column(n_cols):
    import numpy as np

    from distnn.synthetic import DgpSpec, generate

    rng = np.random.default_rng(9)
    panel = workloads.build_panel(rng, 4, 30, n_cols, (20, 30), 0.7)
    _, truth = generate(DgpSpec(n_per_entry=30, seed=4, **workloads.PANEL_DGP), 30, n_cols)
    order = np.argsort(truth.loc[:, 0], kind="stable")
    observed = panel.matrix.mask[order]
    assert (~observed).sum(axis=1).tolist() == [round(0.3 * n_cols)] * 30
    for r in range(30):
        for near in range(max(r - 2, 0), min(r + 3, 30)):
            if near != r:
                assert observed[near][~observed[r]].all()


def test_strict_json_rejects_infinity():
    assert strict_json('{"eta": 1.5}') == {"eta": 1.5}
    with pytest.raises(OutputError):
        strict_json('{"eta": Infinity}')


def _copy_checkout(dest, with_program):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src" / "distnn", dest / "src" / "distnn",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_run_fails_on_a_perturbed_reference(tmp_path):
    _copy_checkout(tmp_path, with_program=True)
    path = tmp_path / "perfbench" / "reference" / "panel_equal.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    key = sorted(ref["cells"])[0]
    ref["cells"][key]["summaries"]["median"] += 1e-3
    path.write_text(json.dumps(ref), encoding="utf-8")
    proc = run_bench(tmp_path, "panel_equal", 0)
    assert proc.returncode != 0
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_fails_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    proc = run_bench(tmp_path, "bands", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
