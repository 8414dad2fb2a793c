"""One workload in one process: set up, run the closed loop, check outputs.

Started by ``run.py`` with the BLAS thread count pinned in its environment;
prints one JSON object as its last line of standard output. Modes:

- ``setup``: build the inputs, report set-up time and exit;
- ``measure``: repeat calls until ``--seconds`` have passed, untraced;
- ``trace``: repeat pairs of passes, one untraced and one traced, until
  ``--seconds`` have passed, and report per-layer metrics per traced pass.

Set-up time runs from ``--t0``, the wall-clock time at which the parent
started this process, to the first timed call. In ``setup`` and ``measure``
mode, times are scaled by the host's slowdown (see ``HostProbe``); the
unscaled figures are reported beside them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
REFERENCE_SEED = 0


def import_distnn():
    """Import distnn from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import distnn

    if os.path.dirname(os.path.dirname(os.path.abspath(distnn.__file__))) != SRC:
        raise SystemExit(f"distnn was imported from {distnn.__file__}, not {SRC}")
    return distnn


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for k in range(3_000_000):
        acc = (acc + k * k) % 1_000_003
    return time.perf_counter() - start


def _blas_runtime_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads_runtime": _blas_runtime_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


class HostProbe:
    """Samples the host's speed while the workload runs.

    On a shared host the same code runs a fifth slower or faster from one
    second to the next, and the level also drifts between runs. Every
    ``INTERVAL_S`` a SIGALRM handler, which runs in the main thread between
    bytecodes, times a fixed loop of small-array numpy operations like the
    ones distnn spends its time in. The slowdown over an interval of time is
    the mean of the loop times taken in it, widened about its middle to at
    least ``WINDOW_S`` so that a short call is not scaled by one noisy
    sample, over ``REF_S``.
    """

    INTERVAL_S = 0.1
    WINDOW_S = 1.0
    REF_S = 0.003
    LOOP = 400

    def __init__(self):
        import numpy as np

        self._np = np
        self._rows = np.random.default_rng(0).random((64, 200))
        self.times = []
        self.samples = []
        self.seconds = 0.0

    def _sample(self, signum=None, frame=None):
        np, rows = self._np, self._rows
        start = time.perf_counter()
        acc = 0.0
        for k in range(self.LOOP):
            acc += float(np.mean((rows[k % 64] - rows[(k + 1) % 64]) ** 2))
        elapsed = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(elapsed)
        self.seconds += elapsed

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self, start: float, end: float) -> float:
        mid, half = (start + end) / 2, max((end - start) / 2, self.WINDOW_S / 2)
        lo = bisect.bisect_left(self.times, mid - half)
        hi = bisect.bisect_right(self.times, mid + half)
        if hi == lo:
            lo = min((k for k in (lo - 1, lo) if 0 <= k < len(self.times)),
                     key=lambda k: abs(self.times[k] - mid))
            hi = lo + 1
        return sum(self.samples[lo:hi]) / (hi - lo) / self.REF_S


def _quantile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _measure(wl, seconds: float, probe: HostProbe) -> dict:
    """Closed loop of calls. A call's time is net of the probe's own time and
    divided by the host's slowdown during the call."""
    calls, ops, failed = [], 0, 0
    start = time.perf_counter()
    k = 0
    while True:
        t0, p0 = time.perf_counter(), probe.seconds
        raw = wl.call(k)
        t1, p1 = time.perf_counter(), probe.seconds
        n_ops, n_failed = wl.account(k, raw)
        calls.append((t0, t1, t1 - t0 - (p1 - p0), n_ops))
        ops += n_ops
        failed += n_failed
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    scaled = [(net / probe.slowdown(t0, t1), n) for t0, t1, net, n in calls]
    busy = sum(s for s, _ in scaled)
    raw_busy = sum(net for _, _, net, _ in calls)
    latencies = [s / n for s, n in scaled]
    if wl.calls_per_pass > 1:
        # Each call of a pass is another target, repeated once a pass. A
        # target's latency is its median over the passes, so that the tail
        # is set by slow targets and not by one slow second of the host.
        by_target = {}
        for idx, latency in enumerate(latencies):
            by_target.setdefault(idx % wl.calls_per_pass, []).append(latency)
        latencies = [statistics.median(v) for v in by_target.values()]
    return {
        "calls": k, "attempted": ops, "failed": failed,
        "host_samples": len(probe.samples),
        "host_slowdown": raw_busy / busy,
        "raw_ops_per_s": ops / raw_busy,
        "ops_per_s": ops / busy,
        "op_p50_ms": 1e3 * _quantile(latencies, 50),
        "op_p90_ms": 1e3 * _quantile(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _trace(wl, seconds: float, name: str, seed: int) -> dict:
    from tracing import Tracer, instrument, layer_metrics

    tr = Tracer()
    root = tr.span("bench.call", wl.call)
    walls = {False: 0.0, True: 0.0}
    ops = failed = passes = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            if traced:
                instrument(tr)
            for k in range(wl.calls_per_pass):
                tr.op = passes * wl.calls_per_pass + k
                t0 = time.perf_counter()
                raw = root(k) if traced else wl.call(k)
                walls[traced] += time.perf_counter() - t0
                n_ops, n_failed = wl.account(k, raw)
                ops += n_ops
                failed += n_failed
            tr.restore()
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    trace_dir = os.path.join(HERE, ".work", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_file = os.path.join(trace_dir, f"{name}-seed{seed}.jsonl")
    tr.write(trace_file)
    metrics = layer_metrics(tr, passes)
    metrics["trace.overhead_s"] = (walls[True] - walls[False]) / passes
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return {"calls": 2 * passes * wl.calls_per_pass, "attempted": ops, "failed": failed,
            "passes": passes, "layers": metrics,
            "trace_file": os.path.relpath(trace_file, ROOT)}


def run_gate(name: str, workdir: str) -> tuple:
    """Run the workload's tiny input at the reference seed and compare the
    digest of one pass with the one stored from an accepted commit."""
    from workloads import WORKLOADS, compare

    gate_dir = os.path.join(workdir, "gate")
    os.makedirs(gate_dir, exist_ok=True)
    wl = WORKLOADS[name](REFERENCE_SEED, gate_dir, True)
    for k in range(wl.calls_per_pass):
        wl.account(k, wl.call(k))
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    return compare(reference, wl.digest()) + wl.check(), wl.outputs()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    # The probe needs numpy; importing distnn would load it first anyway.
    import numpy  # noqa: F401

    result, problems = {}, []
    # A traced run reports no set-up time, and the probe would add its own
    # time to whichever span it interrupts.
    with contextlib.nullcontext() if args.mode == "trace" else HostProbe() as probe:
        before = time.time() - args.t0
        p0, s0 = time.perf_counter(), probe.seconds if probe else 0.0
        import_distnn()
        from workloads import WORKLOADS, OutputError

        wl = WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
        if probe:
            p1, s1 = time.perf_counter(), probe.seconds
            result["raw_setup_s"] = before + p1 - p0
            result["setup_s"] = before + (p1 - p0 - (s1 - s0)) / probe.slowdown(p0, p1)
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        try:
            if probe:
                result.update(_measure(wl, args.seconds, probe))
            else:
                result.update(_trace(wl, args.seconds, args.workload, args.seed))
        except OutputError as exc:
            problems.append(str(exc))
    if not problems:
        problems += wl.check()
        gate_problems, gate_outputs = run_gate(args.workload, args.workdir)
        problems += [f"gate: {p}" for p in gate_problems]
        result["outputs_sha256"] = wl.outputs()
        result["gate_outputs_sha256"] = gate_outputs
    result["problems"] = problems
    result["calib_s"] = calibrate()
    result["machine"] = machine()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
