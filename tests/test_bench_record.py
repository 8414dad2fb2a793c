"""The ``BENCH_<label>.json`` recorder, on canned harness output."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_record_holds_commit_machine_metrics_and_shas(tmp_path, monkeypatch):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        detail = {"machine": {"cores": 2}, "outputs_sha256": {workload: f"out{seed}"},
                  "gate_outputs_sha256": {workload: "gate"}}
        result = {"correct": seed != 12,
                  "metrics": {"ops_per_s": {"value": float(seed), "unit": "1/s"}}}
        return detail, result

    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    assert bench_record.main(["--checkout", str(ROOT), "--label", "x", "--workload", "bands",
                              "--seed", "11", "12", "--seconds", "0.5",
                              "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_x.json").read_text(encoding="utf-8"))
    assert calls == [(str(ROOT), "bands", 11, 0.5), (str(ROOT), "bands", 12, 0.5)]
    assert record["commit"] == bench_record.git(str(ROOT), "rev-parse", "HEAD")
    assert record["machine"] == {"cores": 2}
    assert [r["correct"] for r in record["runs"]] == [True, False]
    assert record["runs"][1] == {
        "workload": "bands", "seed": 12, "seconds": 0.5, "correct": False,
        "metrics": {"ops_per_s": {"value": 12.0, "unit": "1/s"}},
        "outputs_sha256": {"bands": "out12"}, "gate_outputs_sha256": {"bands": "gate"},
    }


def test_two_checkouts_alternate_and_write_one_record_each(tmp_path, monkeypatch):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        side = "parent" if checkout.endswith("parent") else "change"
        value = 1.0 if side == "parent" else 2.0
        calls.append((side, workload, seed))
        detail = {"machine": {"cores": 2}, "outputs_sha256": {workload: f"out{seed}"},
                  "gate_outputs_sha256": {workload: "gate"}}
        result = {"correct": True, "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}
        return detail, result

    monkeypatch.setattr(bench_record, "git", lambda checkout, *args: f"git {args[0]} {checkout}")
    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    assert bench_record.main(["--checkout", "a/parent", "b/change", "--label", "p", "c",
                              "--workload", "bands", "panel_equal", "--seed", "11", "12",
                              "--seconds", "0.5", "--out-dir", str(tmp_path)]) == 0
    assert calls == [
        ("parent", "bands", 11), ("change", "bands", 11),
        ("change", "bands", 12), ("parent", "bands", 12),
        ("parent", "panel_equal", 11), ("change", "panel_equal", 11),
        ("change", "panel_equal", 12), ("parent", "panel_equal", 12),
    ]
    for label, side, value in (("p", "parent", 1.0), ("c", "change", 2.0)):
        record = json.loads((tmp_path / f"BENCH_{label}.json").read_text(encoding="utf-8"))
        assert record["label"] == label
        assert record["commit"].startswith("git rev-parse ") and record["commit"].endswith(side)
        assert [(r["workload"], r["seed"]) for r in record["runs"]] == [
            ("bands", 11), ("bands", 12), ("panel_equal", 11), ("panel_equal", 12)]
        assert {r["metrics"]["ops_per_s"]["value"] for r in record["runs"]} == {value}


def test_labels_must_match_the_checkouts(tmp_path):
    for labels in (["p"], ["p", "p"]):
        with pytest.raises(SystemExit):
            bench_record.main(["--checkout", str(ROOT), str(ROOT), "--label", *labels,
                               "--workload", "bands", "--seed", "11", "--seconds", "0.5",
                               "--out-dir", str(tmp_path)])
    assert not list(tmp_path.iterdir())


def test_two_checkouts_end_with_the_ab_verdict(tmp_path, monkeypatch, capsys):
    parent_ops = {11: 10.0, 12: 11.0, 13: 12.0, 14: 13.0}
    change_ops = {"bands": {11: 8.0, 12: 8.0, 13: 8.0, 14: 14.0},
                  "panel_equal": {s: v + 1.0 for s, v in parent_ops.items()}}
    change_setup = {"bands": 1.2, "panel_equal": 1.3}

    def fake_run_once(checkout, workload, seed, seconds):
        parent = checkout.endswith("parent")
        metrics = {
            "setup_s": {"value": 1.0 if parent else change_setup[workload], "unit": "s"},
            "ops_per_s": {"value": parent_ops[seed] if parent else change_ops[workload][seed],
                          "unit": "1/s"},
        }
        detail = {"machine": {"cores": 2}, "outputs_sha256": {}, "gate_outputs_sha256": {}}
        return detail, {"correct": True, "metrics": metrics}

    monkeypatch.setattr(bench_record, "git", lambda checkout, *args: "")
    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    assert bench_record.main(["--checkout", "a/parent", "b/change", "--label", "p", "c",
                              "--workload", "bands", "panel_equal",
                              "--seed", "11", "12", "13", "14",
                              "--seconds", "0.5", "--out-dir", str(tmp_path)]) == 0
    # medians and quartiles of four runs; bounds 0.25 (setup_s) and 0.2 (ops_per_s)
    assert capsys.readouterr().out.splitlines()[2:] == [
        "bands setup_s: parent 1 (IQR 0), change 1.2, change better in 0/4 pairs",
        "bands ops_per_s: parent 11.5 (IQR 1.5), change 8, change better in 1/4 pairs WORSE",
        "panel_equal setup_s: parent 1 (IQR 0), change 1.3, change better in 0/4 pairs WORSE",
        "panel_equal ops_per_s: parent 11.5 (IQR 1.5), change 12.5, change better in 4/4 pairs",
    ]


def _runs(workload, values, correct=None):
    correct = correct or [True] * len(values)
    return {"runs": [{"workload": workload, "seed": seed, "correct": ok,
                      "metrics": {"ops_per_s": {"value": v}}}
                     for seed, (v, ok) in enumerate(zip(values, correct))]}


OPS = [{"name": "ops_per_s", "better": "higher", "bound": 0.2}]


def test_verdict_marks_a_spread_wider_than_the_bound_unresolved():
    # parent IQR 5 > 0.2 * 10; the change's runs overlap the parent's
    parent = _runs("bands", [6.0, 8.0, 10.0, 13.0, 14.0])
    assert bench_record.verdict(parent, _runs("bands", [7.0, 9.0, 10.5, 12.0, 15.0]), OPS) == [
        "bands ops_per_s: parent 10 (IQR 5), change 10.5, change better in 4/5 pairs UNRESOLVED"]
    # every change run beats every parent run: resolved however wide the spread
    assert bench_record.verdict(parent, _runs("bands", [15.0, 16.0, 17.0, 18.0, 19.0]), OPS) == [
        "bands ops_per_s: parent 10 (IQR 5), change 17, change better in 5/5 pairs"]


def test_verdict_leaves_out_pairs_with_a_failed_run():
    parent = _runs("bands", [10.0, 10.0, 10.0, 1.0], [True, True, True, False])
    change = _runs("bands", [11.0, 11.0, 1.0, 11.0], [True, True, False, True])
    assert bench_record.verdict(parent, change, OPS) == [
        "bands: 2/4 pairs left out, a run not correct FAILED",
        "bands ops_per_s: parent 10 (IQR 0), change 11, change better in 2/2 pairs"]


def test_verdict_needs_runs_that_pair_up():
    with pytest.raises(ValueError, match="do not pair up"):
        bench_record.verdict(_runs("bands", [1.0, 2.0]), _runs("panel_equal", [1.0, 2.0]), OPS)
    with pytest.raises(ValueError):
        bench_record.verdict(_runs("bands", [1.0, 2.0]), _runs("bands", [1.0]), OPS)


def test_verdict_counts_the_pairs_with_equal_shas():
    parent = _runs("bands", [10.0, 10.0, 10.0], [True, True, False])
    change = _runs("bands", [10.0, 10.0, 10.0])
    for p, c, out, gate in zip(parent["runs"], change["runs"],
                               [("a", "a"), ("b", "x"), ("c", "c")], [("g", "g")] * 3):
        p["outputs_sha256"], c["outputs_sha256"] = {"bands": out[0]}, {"bands": out[1]}
        p["gate_outputs_sha256"], c["gate_outputs_sha256"] = {"bands": gate[0]}, {"bands": gate[1]}
    # a pair with a failed run still counts: its outputs are compared all the same
    assert bench_record.verdict(parent, change, OPS) == [
        "bands: 1/3 pairs left out, a run not correct FAILED",
        "bands shas: outputs equal in 2/3 pairs, gates equal in 3/3 pairs",
        "bands ops_per_s: parent 10 (IQR 0), change 10, change better in 0/2 pairs"]


def test_record_holds_the_probe_free_rate_and_the_verdict_compares_it(tmp_path, monkeypatch, capsys):
    raw = {"parent": {11: 20.0, 12: 22.0, 13: None}, "change": {11: 25.0, 12: 21.0, 13: 30.0}}

    def fake_run_once(checkout, workload, seed, seconds):
        detail = {"machine": {"cores": 2}, "outputs_sha256": {}, "gate_outputs_sha256": {},
                  "raw_ops_per_s": raw[checkout.rsplit("/", 1)[1]][seed], "host_slowdown": 1.25}
        return detail, {"correct": True, "metrics": {"ops_per_s": {"value": 10.0, "unit": "1/s"}}}

    monkeypatch.setattr(bench_record, "git", lambda checkout, *args: "")
    monkeypatch.setattr(bench_record, "run_once", fake_run_once)
    assert bench_record.main(["--checkout", "a/parent", "b/change", "--label", "p", "c",
                              "--workload", "bands", "--seed", "11", "12", "13",
                              "--seconds", "0.5", "--out-dir", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_c.json").read_text(encoding="utf-8"))
    assert [(r["raw_ops_per_s"], r["host_slowdown"]) for r in record["runs"]] == [
        (25.0, 1.25), (21.0, 1.25), (30.0, 1.25)]
    # seed 13's parent run lacks the rate, so its pair is left out of that line
    # alone; a worse median is not tagged, since the rate has no bound
    assert capsys.readouterr().out.splitlines()[2:] == [
        "bands ops_per_s: parent 10 (IQR 0), change 10, change better in 0/3 pairs",
        "bands raw_ops_per_s: parent 21 (IQR 1), change 23, change better in 1/2 pairs",
    ]
    worse = {"runs": [dict(r, raw_ops_per_s=1.0) for r in record["runs"]]}
    assert bench_record.verdict(record, worse, OPS)[-1] == (
        "bands raw_ops_per_s: parent 25 (IQR 4.5), change 1, change better in 0/3 pairs")
