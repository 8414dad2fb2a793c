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
