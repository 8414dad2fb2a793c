"""Per-layer tracing of distnn from outside the library.

The tracer wraps the public functions of each ``distnn`` module where their
callers look them up: it rebinds the name each caller module imported (such
as ``cli.tune_eta`` or ``estimator.w2sq``) and wraps methods on their class.
Spans are kept in memory as ``[name, start, end, parent, op, child_s]`` and
written out at the end; a span's self time is its duration minus
``child_s``, the time its child spans and timed leaves cover (children are
nested and sequential, so their durations add up to the covered time).

Two hot functions are not spanned, because a span per call would cost more
than the call: ``empirical.w2sq`` and ``synthetic.w2sq_error`` are timed
leaves (call count and total time, credited to the enclosing span's child
time), and ``DistributionalMatrix.entry`` and ``TrueDistributions.sample``
are only counted.
"""

from __future__ import annotations

import collections
import json
import os
import time

import numpy as np

from distnn import cli, empirical, estimator, experiments, inference, matrix
from distnn import panel as panel_io
from distnn import synthetic, tuning

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.leaf_s = collections.Counter()
        self.op = -1
        self._stack = []
        self._patched = []

    def _credit(self, seconds: float) -> None:
        if self._stack:
            self.spans[self._stack[-1]][5] += seconds

    def _after(self, hook, args, kwargs, out) -> None:
        # Bookkeeping stays out of every layer's self time.
        start = _clock()
        hook(self.counts, args, kwargs, out)
        self._credit(_clock() - start)

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                rec[1], rec[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if after is not None:
                self._after(after, args, kwargs, out)
            return out

        return wrapped

    def leaf(self, name, fn, after=None):
        counts, leaf_s, calls = self.counts, self.leaf_s, name + ".calls"

        def wrapped(*args, **kwargs):
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                counts[calls] += 1
                leaf_s[name] += elapsed
                self._credit(elapsed)
            if after is not None:
                self._after(after, args, kwargs, out)
            return out

        return wrapped

    def counter(self, name, fn, amount=None):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name] += 1 if amount is None else amount(args, kwargs)
            return fn(*args, **kwargs)

        return wrapped

    def patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, child_s in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "self_s": end - start - child_s,
                }) + "\n")


def instrument(tr: Tracer) -> None:
    """Wrap every layer's public entry points; undone by ``tr.restore()``."""
    DM = matrix.DistributionalMatrix
    entry = DM.entry

    def w2sq_kind(counts, args, kwargs, out):
        a, b = args
        equal = (isinstance(a, empirical.EmpiricalDistribution)
                 and isinstance(b, empirical.EmpiricalDistribution) and a.n == b.n)
        counts["empirical.w2sq.equal_calls" if equal else "empirical.w2sq.ragged_calls"] += 1
        counts["empirical.w2sq.bytes_computed"] += 8 * (
            a.step_values().shape[0] + b.step_values().shape[0])

    def tune_counts(counts, args, kwargs, out):
        m, i, j = args[:3]
        held = int(m.mask[i].sum()) - int(m.mask[i, j])
        counts["tuning.heldout_cells"] += held
        counts["tuning.pairs"] += held * len(out.trials)
        counts["tuning.valid_pairs"] += sum(t.n_valid_cells for t in out.trials)

    def neighbor_counts(counts, args, kwargs, out):
        m, i, j = args[:3]
        counts["estimator.rows_scanned"] += m.n_rows - 1
        counts["estimator.eligible_rows"] += int(m.mask[:, j].sum()) - int(m.mask[i, j])
        counts["estimator.accepted_rows"] += out.size

    def panel_counts(counts, args, kwargs, out):
        m = out.matrix
        counts["panel.input_bytes"] += os.path.getsize(args[0])
        counts["panel.records"] += sum(entry(m, i, j).n for i, j in m.observed_cells())

    def cli_output(counts, args, kwargs, out):
        argv = args[0]
        counts["cli.output_bytes"] += os.path.getsize(argv[argv.index("--output") + 1])

    def generated(counts, args, kwargs, out):
        m, truth = out
        counts["synthetic.samples_drawn"] += m.n_rows * int(truth.n_per_col.sum())

    def members(counts, args, kwargs, out):
        counts["empirical.step_barycenter.members"] += len(args[0])

    def replicates(counts, args, kwargs, out):
        counts["inference.replicates"] += kwargs["reps_samples"] * kwargs["reps_neighbors"]

    def kde_fits(counts, args, kwargs, out):
        counts["inference.kde_fits"] += len(out.density_at_quantile_fns)

    w2sq = tr.leaf("empirical.w2sq", empirical.w2sq, after=w2sq_kind)
    tr.patch(estimator, "w2sq", w2sq)
    tr.patch(tuning, "w2sq", w2sq)
    tr.patch(estimator, "barycenter", tr.span("empirical.barycenter", empirical.barycenter))
    step = tr.span("empirical.step_barycenter", empirical.step_barycenter, after=members)
    tr.patch(estimator, "step_barycenter", step)
    tr.patch(tuning, "step_barycenter", step)

    tr.patch(DM, "__init__", tr.span("matrix.construct", DM.__init__))
    tr.patch(DM, "entry", tr.counter("matrix.entry.calls", entry))
    tr.patch(DM, "mask_cell", tr.span("matrix.mask_cell", DM.mask_cell))

    tune = tr.span("tuning.tune_eta", tuning.tune_eta, after=tune_counts)
    tr.patch(cli, "tune_eta", tune)
    tr.patch(experiments, "tune_eta", tune)
    tr.patch(estimator, "find_neighbors",
             tr.span("estimator.find_neighbors", estimator.find_neighbors, after=neighbor_counts))
    impute = tr.span("estimator.impute", estimator.impute)
    for mod in (estimator, cli, experiments, inference):
        tr.patch(mod, "impute", impute)

    TD = synthetic.TrueDistributions
    tr.patch(experiments, "generate", tr.span("synthetic.generate", synthetic.generate, after=generated))
    tr.patch(TD, "w2sq_error", tr.leaf("synthetic.w2sq_error", TD.w2sq_error))
    tr.patch(TD, "sample", tr.counter("synthetic.samples_drawn", TD.sample,
                                      amount=lambda args, kwargs: args[3]))
    tr.patch(experiments, "run_scaling", tr.span("experiments.run_scaling", experiments.run_scaling))

    load = tr.span("panel.load_panel", panel_io.load_panel, after=panel_counts)
    tr.patch(cli, "load_panel", load)
    tr.patch(panel_io, "load_panel", load)
    tr.patch(cli, "main", tr.span("cli.main", cli.main, after=cli_output))

    SF = inference.SigmaFunction
    tr.patch(inference, "bootstrap_band",
             tr.span("inference.bootstrap_band", inference.bootstrap_band, after=replicates))
    tr.patch(inference, "asymptotic_band",
             tr.span("inference.asymptotic_band", inference.asymptotic_band))
    tr.patch(SF, "from_samples", staticmethod(
        tr.span("inference.kde_fit", SF.from_samples, after=kde_fits)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass; latencies are over all spans."""
    durations = collections.defaultdict(list)
    self_times = collections.defaultdict(float)
    for name, start, end, parent, op, child_s in tr.spans:
        durations[name].append(end - start)
        self_times[name] += end - start - child_s
    counts = tr.counts

    def calls(name):
        return len(durations[name]) / passes

    def total(name):
        return float(np.sum(durations[name])) / passes

    def self_s(name):
        return self_times[name] / passes

    def pct_ms(name, q):
        d = durations[name]
        return 1e3 * float(np.percentile(d, q)) if d else 0.0

    def per_pass(key):
        return counts[key] / passes

    return {
        "tuning.tune_eta.calls": calls("tuning.tune_eta"),
        "tuning.tune_eta.s": total("tuning.tune_eta"),
        "tuning.tune_eta.self_s": self_s("tuning.tune_eta"),
        "tuning.tune_eta.p50_ms": pct_ms("tuning.tune_eta", 50),
        "tuning.tune_eta.p90_ms": pct_ms("tuning.tune_eta", 90),
        "tuning.heldout_cells": per_pass("tuning.heldout_cells"),
        "tuning.valid_ratio": _ratio(counts["tuning.valid_pairs"], counts["tuning.pairs"]),
        "estimator.impute.calls": calls("estimator.impute"),
        "estimator.impute.s": total("estimator.impute"),
        "estimator.impute.p90_ms": pct_ms("estimator.impute", 90),
        "estimator.find_neighbors.s": total("estimator.find_neighbors"),
        "estimator.find_neighbors.self_s": self_s("estimator.find_neighbors"),
        "estimator.rows_scanned": per_pass("estimator.rows_scanned"),
        "estimator.accept_ratio": _ratio(counts["estimator.accepted_rows"],
                                         counts["estimator.eligible_rows"]),
        "estimator.neighbors_mean": _ratio(counts["estimator.accepted_rows"],
                                           len(durations["estimator.find_neighbors"])),
        "empirical.w2sq.calls": per_pass("empirical.w2sq.calls"),
        "empirical.w2sq.equal_calls": per_pass("empirical.w2sq.equal_calls"),
        "empirical.w2sq.ragged_calls": per_pass("empirical.w2sq.ragged_calls"),
        "empirical.w2sq.s": tr.leaf_s["empirical.w2sq"] / passes,
        "empirical.w2sq.bytes_computed": per_pass("empirical.w2sq.bytes_computed"),
        "empirical.barycenter.calls": calls("empirical.barycenter"),
        "empirical.barycenter.s": total("empirical.barycenter"),
        "empirical.step_barycenter.calls": calls("empirical.step_barycenter"),
        "empirical.step_barycenter.s": total("empirical.step_barycenter"),
        "empirical.step_barycenter.members": per_pass("empirical.step_barycenter.members"),
        "matrix.entry.calls": per_pass("matrix.entry.calls"),
        "matrix.construct.calls": calls("matrix.construct"),
        "matrix.construct.s": total("matrix.construct"),
        "matrix.mask_cell.s": total("matrix.mask_cell"),
        "synthetic.generate.calls": calls("synthetic.generate"),
        "synthetic.generate.s": total("synthetic.generate"),
        "synthetic.samples_drawn": per_pass("synthetic.samples_drawn"),
        "synthetic.w2sq_error.calls": per_pass("synthetic.w2sq_error.calls"),
        "synthetic.w2sq_error.s": tr.leaf_s["synthetic.w2sq_error"] / passes,
        "experiments.run_scaling.s": total("experiments.run_scaling"),
        "experiments.run_scaling.self_s": self_s("experiments.run_scaling"),
        "panel.load_panel.s": total("panel.load_panel"),
        "panel.records": per_pass("panel.records"),
        "panel.input_bytes": per_pass("panel.input_bytes"),
        "cli.main.s": total("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": per_pass("cli.output_bytes"),
        "inference.bootstrap_band.s": total("inference.bootstrap_band"),
        "inference.bootstrap_band.self_s": self_s("inference.bootstrap_band"),
        "inference.bootstrap_band.p90_ms": pct_ms("inference.bootstrap_band", 90),
        "inference.replicates": per_pass("inference.replicates"),
        "inference.asymptotic_band.s": total("inference.asymptotic_band"),
        "inference.kde_fits": per_pass("inference.kde_fits"),
    }
