"""Record benchmark runs of a distnn checkout as ``BENCH_<label>.json``.

    python3 tools/bench_record.py --checkout DIR --label LABEL \\
        --workload bands --seed 11 12 13 --seconds 8

Runs ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in DIR for every workload and seed given, and writes one JSON file (into
``--out-dir``, default the current directory) holding DIR's commit, the
machine record of the harness's detail line, and for each run its workload,
seed, seconds, ``correct`` flag, metrics and output and gate checksums.
``uncommitted_changes`` is true when tracked files differ from the commit.
The harness's exit code is recorded, not raised, so a run whose output check
failed is still kept, with ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("panel_equal", "panel_ragged", "scaling_sweep", "bands")


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", required=True, help="root of the checkout to measure")
    ap.add_argument("--label", required=True, help="file name is BENCH_<label>.json")
    ap.add_argument("--workload", choices=WORKLOADS, nargs="+", required=True)
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", default=".")
    args = ap.parse_args(argv)

    checkout = os.path.abspath(args.checkout)
    commit = git(checkout, "rev-parse", "HEAD")
    status = git(checkout, "status", "--porcelain", "--untracked-files=no")
    machine, runs = None, []
    for workload in args.workload:
        for seed in args.seed:
            detail, result = run_once(checkout, workload, seed, args.seconds)
            machine = machine or detail["machine"]
            runs.append({
                "workload": workload,
                "seed": seed,
                "seconds": args.seconds,
                "correct": result.get("correct", False),
                "metrics": result.get("metrics", {}),
                "outputs_sha256": detail["outputs_sha256"],
                "gate_outputs_sha256": detail["gate_outputs_sha256"],
            })
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "commit": commit, "uncommitted_changes": bool(status),
                   "machine": machine, "runs": runs}, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
