"""Record benchmark runs of distnn checkouts as ``BENCH_<label>.json``.

    python3 tools/bench_record.py --checkout DIR --label LABEL \\
        --workload bands --seed 11 12 13 --seconds 8
    python3 tools/bench_record.py --checkout PARENT CHANGE --label base new \\
        --workload bands --seed 11 12 13 --seconds 8

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout for every workload and seed given, and writes one JSON file
per checkout (into ``--out-dir``, default the current directory) holding its
commit, the machine record of the harness's detail line, and for each run
its workload, seed, seconds, ``correct`` flag, metrics, output and gate
checksums, and the detail line's ``raw_ops_per_s`` (the rate without the
host probe's scaling) and ``host_slowdown``. ``uncommitted_changes`` is
true when tracked files differ from the commit. With several checkouts,
one label each, the runs alternate: every (workload, seed) runs once in
each checkout before the next starts, and the order of the checkouts
reverses from one (workload, seed) to the next, so that a drift in the
host's speed falls on both sides alike.
The harness's exit code is recorded, not raised, so a run whose output check
failed is still kept, with ``correct`` false.

With two checkouts, the first read as the parent and the second as the
change, the last lines are the A/B verdict: for each workload and each
end-to-end metric of ``BENCHMARK.json``, both medians, the parent's
interquartile range, the (workload, seed) pairs in which the change was
better (ties count for neither side), ``WORSE`` where the change's median
is worse than the parent's by more than the metric's bound, a share of the
parent's median, and ``UNRESOLVED`` where the parent's IQR is wider than
that bound and some change run is no better than some parent run. A pair
in which either run is not correct is left out of the medians, and its
workload gets a ``FAILED`` line. Each workload whose runs recorded
checksums also gets a line with the count of pairs, of all its pairs, in
which the parent's and the change's ``outputs_sha256`` are equal, and the
same for ``gate_outputs_sha256``: the byte-identity gate of a change that
keeps its outputs. The panel workloads' output and gate checksums echo the
run directory, so they differ between two checkouts whatever the change.
Each workload's last line compares ``raw_ops_per_s`` in the same format,
over the pairs whose runs both recorded it, with no ``WORSE`` or
``UNRESOLVED`` tag: the harness has no bound for it. Runs pair up by
position and must share workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

WORKLOADS = ("panel_equal", "panel_ragged", "scaling_sweep", "bands")
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def git(checkout: str, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One harness run: its detail record and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} at seed {seed}: harness exited with "
                         f"{proc.returncode} and printed no result")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _metrics(run: dict) -> dict:
    """A run's end-to-end metrics, with its probe-free rate where it was recorded."""
    if run.get("raw_ops_per_s") is None:
        return run["metrics"]
    return {**run["metrics"], "raw_ops_per_s": {"value": run["raw_ops_per_s"]}}


def verdict(parent: dict, change: dict, end_to_end: list) -> list[str]:
    """The A/B lines for two records whose runs pair up in order."""
    runs = list(zip(parent["runs"], change["runs"], strict=True))
    for p, c in runs:
        if (p["workload"], p["seed"]) != (c["workload"], c["seed"]):
            raise ValueError(f"runs do not pair up: {p['workload']} at seed {p['seed']} "
                             f"against {c['workload']} at seed {c['seed']}")
    # the probe-free rate: judged, but never WORSE or UNRESOLVED, having no bound
    metrics = [*end_to_end, {"name": "raw_ops_per_s", "better": "higher", "bound": None}]
    lines = []
    for workload in dict.fromkeys(p["workload"] for p, _ in runs):
        mine = [(p, c) for p, c in runs if p["workload"] == workload]
        pairs = [(_metrics(p), _metrics(c)) for p, c in mine if p["correct"] and c["correct"]]
        if len(pairs) < len(mine):
            lines.append(f"{workload}: {len(mine) - len(pairs)}/{len(mine)} pairs left out, "
                         "a run not correct FAILED")
        if any(p.get("outputs_sha256") or p.get("gate_outputs_sha256") for p, _ in mine):
            same = [sum(p.get(key) == c.get(key) for p, c in mine)
                    for key in ("outputs_sha256", "gate_outputs_sha256")]
            lines.append(f"{workload} shas: outputs equal in {same[0]}/{len(mine)} pairs, "
                         f"gates equal in {same[1]}/{len(mine)} pairs")
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            values = np.array([(p[name]["value"], c[name]["value"])
                               for p, c in pairs if name in p and name in c])
            if values.size == 0:
                continue
            q1, base, q3 = np.percentile(values[:, 0], [25, 50, 75])
            median = np.median(values[:, 1])
            won = int(np.sum(sign * (values[:, 1] - values[:, 0]) > 0.0))
            tags = []
            if metric["bound"] is not None:
                bound = metric["bound"] * abs(base)
                if sign * (median - base) < -bound:
                    tags.append(" WORSE")
                if q3 - q1 > bound and np.min(sign * values[:, 1]) <= np.max(sign * values[:, 0]):
                    tags.append(" UNRESOLVED")
            lines.append(f"{workload} {name}: parent {base:.4g} (IQR {q3 - q1:.3g}), "
                         f"change {median:.4g}, change better in {won}/{len(values)} pairs"
                         + "".join(tags))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", nargs="+", required=True,
                    help="root of each checkout to measure")
    ap.add_argument("--label", nargs="+", required=True,
                    help="one per checkout: its file name is BENCH_<label>.json")
    ap.add_argument("--workload", choices=WORKLOADS, nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)
    if len(args.label) != len(args.checkout) or len(set(args.label)) != len(args.label):
        ap.error("give one distinct --label per --checkout")

    checkouts = [os.path.abspath(c) for c in args.checkout]
    records = [
        {"label": label, "commit": git(c, "rev-parse", "HEAD"),
         "uncommitted_changes": bool(git(c, "status", "--porcelain", "--untracked-files=no")),
         "machine": None, "runs": []}
        for c, label in zip(checkouts, args.label)
    ]
    sides = list(zip(checkouts, records))
    pairs = [(workload, seed) for workload in args.workload for seed in args.seed]
    for p, (workload, seed) in enumerate(pairs):
        for checkout, record in sides if p % 2 == 0 else sides[::-1]:
            detail, result = run_once(checkout, workload, seed, args.seconds)
            record["machine"] = record["machine"] or detail["machine"]
            record["runs"].append({
                "workload": workload,
                "seed": seed,
                "seconds": args.seconds,
                "correct": result.get("correct", False),
                "metrics": result.get("metrics", {}),
                "outputs_sha256": detail["outputs_sha256"],
                "gate_outputs_sha256": detail["gate_outputs_sha256"],
                **{key: detail[key] for key in ("raw_ops_per_s", "host_slowdown") if key in detail},
            })
    for record in records:
        path = os.path.join(args.out_dir, f"BENCH_{record['label']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
        print(path)
    if len(records) == 2:
        with open(BENCHMARK, encoding="utf-8") as fh:
            end_to_end = json.load(fh)["end_to_end"]
        print("\n".join(verdict(*records, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
