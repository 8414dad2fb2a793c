"""Benchmark of distnn: one workload per run, each in fresh single-threaded
processes, with every metric printed by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload panel_equal --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
its per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the machine record, unscaled times, output checksums
and any failed check. ``--tiny`` runs the workload's small gate-sized input.

Set-up time is the median over ``SETUP_RUNS`` extra processes that only set
up, plus the measuring process. The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("panel_equal", "panel_ragged", "scaling_sweep", "bands")
SETUP_RUNS = 2
BLAS_THREADS = 1
SETUP_TIMEOUT_S = 25
WORKER_TIMEOUT_S = 110
DETAIL_KEYS = (
    "calls", "passes", "host_samples", "host_slowdown", "raw_ops_per_s",
    "calib_s", "machine", "outputs_sha256", "gate_outputs_sha256",
    "trace_file", "problems",
)


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, mode: str, workdir: str, timeout: float) -> dict:
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--workdir", workdir, "--t0", repr(time.time()),
    ] + (["--tiny"] if args.tiny else [])
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{mode} process of {args.workload} timed out after {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"{mode} process of {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "distnn", "__init__.py")):
        print("error: run from the root of a distnn checkout (src/distnn not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    try:
        if args.trace:
            res = run_worker(args, "trace", os.path.join(workdir, "main"), WORKER_TIMEOUT_S)
            setups = []
        else:
            setups = [
                run_worker(args, "setup", os.path.join(workdir, f"setup{k}"), SETUP_TIMEOUT_S)
                for k in range(SETUP_RUNS)
            ]
            res = run_worker(args, "measure", os.path.join(workdir, "main"), WORKER_TIMEOUT_S)
            setups.append(res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {key: res.get(key) for key in DETAIL_KEYS}
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny,
                  setup_samples_s=[s["setup_s"] for s in setups],
                  raw_setup_samples_s=[s["raw_setup_s"] for s in setups])
    print(json.dumps({"detail": detail}))
    if "attempted" not in res:
        return 1

    if args.trace:
        values = dict(res["layers"], **{"host.calib_s": res["calib_s"]})
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if not res["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
