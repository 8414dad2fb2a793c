"""Data-driven selection of the neighbor threshold eta.

For a target cell (i, j), each observed entry in row i (other than column j)
is held out in turn and re-imputed; a candidate eta is scored by the mean
squared Wasserstein distance between the re-imputed estimates and the
held-out empirical entries. Hold-out is structural: an entry's own samples
never enter its own estimate, because neighbor distances exclude the target
column and the barycenter uses other rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .empirical import from_samples, step_barycenter, w2sq
from .errors import AllTrialsFailedError, NoObservedCellsError, OutOfDomainError
from .estimator import _leave_out_distances, _ranked_rows, _w2sq_table
from .matrix import DistributionalMatrix

__all__ = ["TuneConfig", "TuneTrial", "TuneReport", "tune_eta"]


@dataclass(frozen=True)
class TuneConfig:
    """Search configuration for the eta threshold.

    When ``eta_min``/``eta_max`` are omitted, the range defaults to the 1st
    and 99th percentiles of the finite row-distance distribution for the
    target row, grounding the search in the data scale.
    """

    budget: int = 50
    search: str = "log_grid"  # or "random_log_uniform"
    eta_min: float | None = None
    eta_max: float | None = None
    seed: int = 0
    min_overlap: int = 1

    def __post_init__(self):
        if self.budget < 1:
            raise OutOfDomainError("budget must be at least 1")
        if self.search not in ("log_grid", "random_log_uniform"):
            raise OutOfDomainError(f"unknown search strategy: {self.search!r}")
        if (self.eta_min is None) != (self.eta_max is None):
            raise OutOfDomainError("eta_min and eta_max must be given together")
        if self.eta_min is not None and not (0.0 < self.eta_min < self.eta_max):
            raise OutOfDomainError("need 0 < eta_min < eta_max")
        if self.min_overlap < 1:
            raise OutOfDomainError("min_overlap must be at least 1")


@dataclass(frozen=True)
class TuneTrial:
    eta: float
    mean_loss: float
    n_valid_cells: int
    n_no_neighbor_cells: int


@dataclass(frozen=True)
class TuneReport:
    """Best threshold and the full trial log that produced it."""

    best_eta: float
    trials: tuple

    def best_trial(self) -> TuneTrial:
        return min(
            (t for t in self.trials if t.n_valid_cells >= 1),
            key=lambda t: (t.mean_loss, t.eta),
        )


def _candidate_etas(cfg: TuneConfig, finite_dists: np.ndarray) -> np.ndarray:
    if cfg.eta_min is not None:
        lo, hi = cfg.eta_min, cfg.eta_max
    else:
        if finite_dists.size == 0:
            return np.array([0.0])
        ref = from_samples(finite_dists)
        lo, hi = ref.quantile(0.01), ref.quantile(0.99)
        if hi <= 0.0:
            return np.array([0.0])
        if lo >= hi:
            return np.array([hi])
        if lo <= 0.0:
            lo = hi * 1e-6
    if cfg.budget == 1:
        return np.array([lo])
    if cfg.search == "log_grid":
        return np.geomspace(lo, hi, cfg.budget)
    rng = np.random.default_rng(cfg.seed)
    draws = np.exp(rng.uniform(np.log(lo), np.log(hi), cfg.budget))
    return np.sort(draws)


def _prefix_losses(entries, held_out, needed_ks):
    """Validation loss of the barycenter of the first k entries, per needed k."""
    losses = {}
    sizes = {d.n for d in entries}
    if sizes == {held_out.n}:
        stacked = np.vstack([d.samples for d in entries])
        cums = np.cumsum(stacked, axis=0)
        for k in needed_ks:
            bary = cums[k - 1] / k
            losses[k] = float(np.mean((bary - held_out.samples) ** 2))
    else:
        for k in needed_ks:
            losses[k] = w2sq(step_barycenter(entries[:k]), held_out)
    return losses


def tune_eta(m: DistributionalMatrix, i: int, j: int, cfg: TuneConfig | None = None) -> TuneReport:
    """Choose eta by leave-one-out validation over row i's observed entries.

    Candidate losses are means over held-out cells; a cell where no neighbor
    exists at a candidate eta is penalized with the worst finite loss seen at
    that eta (infinite if none), so a tiny eta cannot win by abstaining.
    Ties break toward the smaller eta.
    """
    if cfg is None:
        cfg = TuneConfig()
    m._check_index(i, j)
    held_cols = [v for v in range(m.n_cols) if v != j and m.mask[i, v]]
    if not held_cols:
        raise NoObservedCellsError(f"row {i} has no observed entries besides column {j}")

    table = _w2sq_table(m, i)
    target_dists, _ = _leave_out_distances(table, j, cfg.min_overlap)
    finite = target_dists[_ranked_rows(m, target_dists, i, j)]
    candidates = _candidate_etas(cfg, finite)

    n_cells = len(held_cols)
    losses = np.full((candidates.shape[0], n_cells), np.nan)
    for cell_idx, v in enumerate(held_cols):
        dists, _ = _leave_out_distances(table, v, cfg.min_overlap)
        sorted_rows = _ranked_rows(m, dists, i, v)
        if sorted_rows.size == 0:
            continue
        ks = np.searchsorted(dists[sorted_rows], candidates, side="right")
        needed = sorted(set(int(k) for k in ks if k > 0))
        if not needed:
            continue
        entries = [m.entry(u, v) for u in sorted_rows]
        loss_by_k = _prefix_losses(entries, m.entry(i, v), needed)
        for c_idx, k in enumerate(ks):
            if k > 0:
                losses[c_idx, cell_idx] = loss_by_k[int(k)]

    trials = []
    for c_idx, eta in enumerate(candidates):
        row = losses[c_idx]
        valid = row[~np.isnan(row)]
        n_fail = n_cells - valid.size
        if valid.size == 0:
            mean_loss = math.inf
        elif n_fail == 0:
            mean_loss = float(np.mean(valid))
        else:
            penalty = float(np.max(valid))
            mean_loss = float((np.sum(valid) + n_fail * penalty) / n_cells)
        trials.append(
            TuneTrial(
                eta=float(eta),
                mean_loss=mean_loss,
                n_valid_cells=int(valid.size),
                n_no_neighbor_cells=int(n_fail),
            )
        )

    if all(t.n_valid_cells == 0 for t in trials):
        raise AllTrialsFailedError(
            f"every candidate eta produced no neighbors for all held-out cells of row {i}"
        )
    best = min(
        (t for t in trials if t.n_valid_cells >= 1),
        key=lambda t: (t.mean_loss, t.eta),
    )
    return TuneReport(best_eta=best.eta, trials=tuple(trials))
