"""The benchmark's workloads: inputs built from a seed, the call that is
timed, and the checks on what each call returned.

A workload is built once (its set-up), then called in a closed loop: one
client, each call starting after the previous one returned. ``call`` is the
only code inside the timed region; ``account`` reads the call's output
afterwards, counts its ops and failures, and keeps what the checks need.
One pass is ``calls_per_pass`` calls and always does the same work for a
given seed, so repeated passes must give identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from distnn import cli, estimator, experiments, inference
from distnn import panel as panel_io
from distnn.errors import DistnnError
from distnn.estimator import row_distance
from distnn.matrix import DistributionalMatrix
from distnn.panel import Panel
from distnn.synthetic import DgpSpec, generate

# Agreement with the reference, per float: |got - ref| <= TOL * max(1, |ref|).
# Inputs are O(1..10); float64 reductions over at most a few hundred rows and
# samples, taken in another order, move results by ~1e-13, while a changed
# neighbour set or estimator moves them by 1e-4 or more.
TOL = 1e-9

# Cells whose accepted neighbours are re-measured with the per-pair
# estimator.row_distance after the timed loop.
RECHECK_CELLS = 8

# The ragged panel's work per cell follows its row-distance geometry: with
# latent factors drawn per seed, step_barycenter's member count varied by
# +-9% between seeds, so --seed picks only its samples, sample counts and
# missing cells (+-2%).
RAGGED_DGP_SEED = 0

HETERO_UNIFORM = dict(
    kind="heteroscedastic",
    base_family="uniform",
    location_range=(-5.0, 5.0),
    scale_range=(1.0, 5.0),
)

# The panels spread their rows' locations three times wider than the sweep's
# criterion-5a configuration. Over [-5, 5], neighbouring rows of 30 lie
# closer in squared W2 than the sampling noise of 100 to 200 samples
# (about 0.03), so a tuned eta could fall below that noise and admit only
# rows that miss the target column.
PANEL_DGP = dict(HETERO_UNIFORM, location_range=(-15.0, 15.0))


class OutputError(Exception):
    """An output failed a correctness check."""


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _reject_constant(name):
    raise OutputError(f"output is not strict JSON: it contains {name}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity, which strict JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


def compare(ref, got, where="") -> list:
    """Differences between a reference digest and a new one.

    Strings, ints and bools must be equal; floats must agree within TOL;
    dicts and lists must have the same keys and lengths.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(ref):
            out += compare(ref[key], got[key], f"{where}/{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: lengths differ"]
        out = []
        for idx, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{where}[{idx}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        same = _close(got, ref)
    else:
        same = type(ref) is type(got) and ref == got
    return [] if same else [f"{where}: {got!r} differs from reference {ref!r}"]


def _close(got: float, ref: float) -> bool:
    return abs(got - ref) <= TOL * max(1.0, abs(ref))


def build_panel(rng, dgp_seed: int, n_rows: int, n_cols: int, n_range: tuple, p: float) -> Panel:
    """A synthetic heteroscedastic-uniform panel drawn with ``dgp_seed``, a
    share ``1 - p`` of each row's cells missing at random columns.

    Every cell draws ``n_range[1]`` samples; a ragged panel keeps a random
    subset of each, of a size drawn uniformly from ``n_range``.
    """
    n_lo, n_hi = n_range
    dgp = DgpSpec(n_per_entry=n_hi, seed=dgp_seed, **PANEL_DGP)
    full, truth = generate(dgp, n_rows, n_cols)
    # Each row misses the same number of cells, so the work per imputed cell
    # varies little from one seed to the next. Taken in order of the rows'
    # latent locations, a row's missing columns are drawn from those that
    # the two rows before it observe, so the two nearest rows on either side
    # of every missing cell observe its column. Under missingness completely
    # at random, a row whose only close rows all miss the target column has
    # no neighbour at its tuned eta, and that cell fails.
    n_missing = round((1.0 - p) * n_cols)
    if 3 * n_missing > n_cols:
        raise ValueError("at most a third of each row's cells may be missing")
    keep = np.ones((n_rows, n_cols), dtype=bool)
    order = np.argsort(truth.loc[:, 0], kind="stable")
    for r, i in enumerate(order):
        free = np.flatnonzero(keep[order[max(r - 2, 0):r]].all(axis=0))
        keep[i, rng.choice(free, size=n_missing, replace=False)] = False
    entries = []
    for i in range(n_rows):
        row = []
        for j in range(n_cols):
            samples = full.entry(i, j).samples
            if not keep[i, j]:
                samples = None
            elif n_lo < n_hi:
                k = int(rng.integers(n_lo, n_hi + 1))
                samples = samples[np.sort(rng.choice(n_hi, size=k, replace=False))]
            row.append(samples)
        entries.append(row)
    return Panel(
        matrix=DistributionalMatrix(entries),
        row_keys=tuple(f"r{i:03d}" for i in range(n_rows)),
        col_keys=tuple(f"c{j:02d}" for j in range(n_cols)),
    )


def recheck_distances(m, cells) -> list:
    """Re-measure accepted neighbours with the exact per-pair path.

    ``cells`` holds (i, j, rows, distances) as the program reported them.
    """
    problems = []
    for i, j, rows, distances in cells:
        for u, d in zip(rows, distances):
            exact = row_distance(m, i, u, j)
            if not _close(float(d), exact):
                problems.append(
                    f"cell ({i}, {j}) neighbour {u}: distance {d!r} but "
                    f"row_distance gives {exact!r}"
                )
    return problems


class PanelImpute:
    """``distnn impute --all-missing --tune --budget 50`` on a panel file,
    called in-process through ``distnn.cli.main``. One call imputes every
    missing cell; an op is one imputed cell."""

    calls_per_pass = 1

    def __init__(self, seed: int, workdir: str, tiny: bool, ragged: bool):
        rng = np.random.default_rng([seed, 1 if ragged else 0])
        if ragged:
            shape, n_range = ((12, 6), (20, 40)) if tiny else ((30, 10), (100, 200))
        else:
            shape, n_range = ((16, 8), (40, 40)) if tiny else ((60, 20), (200, 200))
        dgp_seed = RAGGED_DGP_SEED if ragged else int(rng.integers(2**31))
        panel = build_panel(rng, dgp_seed, shape[0], shape[1], n_range, 0.7)
        self.input = os.path.join(workdir, "panel.json" if ragged else "panel.csv")
        self.output = os.path.join(workdir, "impute.json")
        write = panel_io.write_matrix_json if ragged else panel_io.write_panel_csv
        write(panel, self.input)
        self.n_cells = int((~panel.matrix.mask).sum())
        self.recheck_seed = seed
        self.text = None
        self.shas = set()
        self.argv = [
            "impute", "--input", self.input, "--all-missing", "--tune",
            "--budget", "50", "--output", self.output,
        ]

    def call(self, k: int):
        return cli.main(self.argv)

    def account(self, k: int, code) -> tuple:
        if code != cli.EXIT_OK:
            raise OutputError(f"distnn impute exited with code {code}")
        with open(self.output, encoding="utf-8") as fh:
            text = fh.read()
        self.text = text
        self.shas.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
        payload = strict_json(text)
        ops = len(payload["results"]) + len(payload["failures"])
        if ops != self.n_cells:
            raise OutputError(f"{ops} cells in output, {self.n_cells} missing in input")
        return ops, len(payload["failures"])

    def digest(self) -> dict:
        payload = strict_json(self.text)
        cells = {}
        for res in payload["results"]:
            cells[f"{res['row']}/{res['col']}"] = {
                "eta": res["eta"],
                "rows": res["neighbors"]["rows"],
                "distances": res["neighbors"]["distances"],
                "summaries": res["summaries"],
            }
        failures = sorted(f"{f['row']}/{f['col']}" for f in payload["failures"])
        return {"cells": cells, "failures": failures}

    def outputs(self) -> dict:
        return {"impute_json": sorted(self.shas)}

    def check(self) -> list:
        if len(self.shas) != 1:
            return [f"repeated calls gave {len(self.shas)} different outputs"]
        panel = panel_io.load_panel(self.input)
        results = strict_json(self.text)["results"]
        problems = []
        for res in results:
            if any(d > res["eta"] for d in res["neighbors"]["distances"]):
                problems.append(f"cell {res['row']}/{res['col']}: a neighbour lies beyond eta")
        rng = np.random.default_rng([self.recheck_seed, 7])
        picked = rng.choice(len(results), size=min(RECHECK_CELLS, len(results)), replace=False)
        cells = []
        for idx in sorted(picked.tolist()):
            res = results[idx]
            i, j = panel.cell_index(res["row"], res["col"])
            rows = [panel.row_keys.index(key) for key in res["neighbors"]["rows"]]
            cells.append((i, j, rows, res["neighbors"]["distances"]))
        return problems + recheck_distances(panel.matrix, cells)


class ScalingSweep:
    """``experiments.run_scaling`` at the criterion-5a configuration with
    fewer trials per value. An op is one trial."""

    calls_per_pass = 1

    def __init__(self, seed: int, workdir: str, tiny: bool):
        rng = np.random.default_rng([seed, 2])
        dgp = DgpSpec(n_per_entry=100, seed=int(rng.integers(2**31)), **HETERO_UNIFORM)
        if tiny:
            size = dict(values=(20, 40), trials=2, n_rows=30, n_cols=8,
                        tune_budget=10, baseline_resamples=10)
        else:
            size = dict(values=(50, 100, 250, 500, 1000), trials=4, n_rows=200,
                        n_cols=30, tune_budget=50, baseline_resamples=100)
        self.spec = experiments.ExperimentSpec(
            dgp=dgp, sweep="n_samples", eta_policy="tuned", min_neighbors=2,
            seed=int(rng.integers(2**31)), **size,
        )
        self.n_trials = len(self.spec.values) * self.spec.trials
        self.last = None
        self.shas = set()

    def call(self, k: int):
        try:
            return experiments.run_scaling(self.spec)
        except DistnnError as exc:
            return exc

    def account(self, k: int, result) -> tuple:
        if isinstance(result, DistnnError):
            return self.n_trials, self.n_trials
        self.last = {
            "values": [float(v) for v in result.values],
            "mean_errors": [float(v) for v in result.mean_errors],
            "baseline_means": [float(v) for v in result.baseline_means],
            "mean_neighbors": [float(v) for v in result.mean_neighbors],
            "n_failed": [int(v) for v in result.n_failed],
        }
        self.shas.add(sha256_json(self.last))
        return self.n_trials, int(result.n_failed.sum())

    def digest(self) -> dict:
        return self.last

    def outputs(self) -> dict:
        return {"sweep": sorted(self.shas)}

    def check(self) -> list:
        if self.last is None:
            return ["no sweep completed"]
        if len(self.shas) != 1:
            return [f"repeated calls gave {len(self.shas)} different outputs"]
        problems = []
        for key in ("mean_errors", "baseline_means"):
            if not all(math.isfinite(v) and v > 0.0 for v in self.last[key]):
                problems.append(f"{key} not all finite and positive")
        if not all(v >= self.spec.min_neighbors for v in self.last["mean_neighbors"]):
            problems.append("mean_neighbors below min_neighbors")
        return problems


class Bands:
    """Bootstrap and asymptotic-KDE bands for one missing cell in each row
    of a panel loaded once through ``panel.load_panel``. An op is one target
    cell; neighbours are the nearest rows under a fixed eta."""

    ETA = math.inf
    MAX_NEIGHBORS = 12
    ALPHA = 0.05

    def __init__(self, seed: int, workdir: str, tiny: bool):
        rng = np.random.default_rng([seed, 3])
        shape, n = ((10, 8), 40) if tiny else ((60, 20), 200)
        path = os.path.join(workdir, "panel.csv")
        panel = build_panel(rng, int(rng.integers(2**31)), shape[0], shape[1], (n, n), 0.7)
        panel_io.write_panel_csv(panel, path)
        self.panel = panel_io.load_panel(path)
        m = self.panel.matrix
        self.targets = []
        for i in range(m.n_rows):
            missing = np.nonzero(~m.mask[i])[0]
            if missing.size:
                self.targets.append((i, int(rng.choice(missing))))
        self.calls_per_pass = len(self.targets)
        self.levels = inference.default_levels(99)
        self.recheck = set(
            rng.choice(len(self.targets), size=min(RECHECK_CELLS, len(self.targets)),
                       replace=False).tolist()
        )
        self.digests = {}
        self.neighbor_sets = {}
        self.problems = []

    def call(self, k: int):
        m = self.panel.matrix
        i, j = self.targets[k % len(self.targets)]
        try:
            boot = inference.bootstrap_band(
                m, i, j, self.ETA, self.ALPHA, self.levels, reps_samples=10,
                reps_neighbors=10, seed=k % len(self.targets),
                max_neighbors=self.MAX_NEIGHBORS,
            )
            result = estimator.impute(m, i, j, self.ETA, max_neighbors=self.MAX_NEIGHBORS)
            sigma = inference.SigmaFunction.from_result(m, result)
            n_j = min(m.entry(u, j).n for u in result.neighbors.rows)
            asym = inference.asymptotic_band(result, sigma, n_j, self.ALPHA, self.levels)
        except DistnnError as exc:
            return exc
        return boot, asym, result

    def account(self, k: int, raw) -> tuple:
        t = k % len(self.targets)
        if isinstance(raw, DistnnError):
            digest = {"error": type(raw).__name__}
        else:
            boot, asym, result = raw
            for band in (boot, asym):
                if not (np.all(np.isfinite(band.lower)) and np.all(np.isfinite(band.upper))):
                    self.problems.append(f"target {t}: {band.method} band not finite")
                if np.any(band.lower > band.upper):
                    self.problems.append(f"target {t}: {band.method} band has lower > upper")
            ns = result.neighbors
            digest = {
                "rows": [self.panel.row_keys[u] for u in ns.rows],
                "bootstrap": [boot.lower.tolist(), boot.upper.tolist()],
                "asymptotic": [asym.lower.tolist(), asym.upper.tolist()],
            }
            if t in self.recheck:
                self.neighbor_sets[t] = (ns.target_row, ns.target_col,
                                         ns.rows.tolist(), ns.distances.tolist())
        if t not in self.digests:
            self.digests[t] = digest
        elif sha256_json(self.digests[t]) != sha256_json(digest):
            self.problems.append(f"target {t}: repeated call gave a different band")
        return 1, int("error" in digest)

    def digest(self) -> dict:
        keys = self.panel.row_keys, self.panel.col_keys
        return {
            f"{keys[0][i]}/{keys[1][j]}": self.digests[t]
            for t, (i, j) in enumerate(self.targets) if t in self.digests
        }

    def outputs(self) -> dict:
        return {"bands": sha256_json(self.digest())}

    def check(self) -> list:
        if not self.digests:
            return ["no band completed"]
        return self.problems + recheck_distances(
            self.panel.matrix, self.neighbor_sets.values()
        )


WORKLOADS = {
    "panel_equal": lambda seed, workdir, tiny: PanelImpute(seed, workdir, tiny, ragged=False),
    "panel_ragged": lambda seed, workdir, tiny: PanelImpute(seed, workdir, tiny, ragged=True),
    "scaling_sweep": ScalingSweep,
    "bands": Bands,
}
