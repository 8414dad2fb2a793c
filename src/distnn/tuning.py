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
from .estimator import _row_state
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


def _prefix_losses(m: DistributionalMatrix, state, v: int, min_overlap: int, needed):
    """Validation loss at row i's held-out column v of the barycenter of the k
    nearest rows, indexed by k (NaN where not computed); covers ``needed``.

    Kept in row i's state: only which k a target needs depends on its column.
    With equal sample counts every k comes from one cumulative sum.
    """
    key = (v, min_overlap)
    known = state.losses.get(key)
    if known is not None and not np.isnan(known[needed]).any():
        return known
    rows = state.ranked(m, v, min_overlap).rows
    entries = [m.entry(u, v) for u in rows]
    held_out = m.entry(state.row, v)
    losses = np.full(rows.size + 1, np.nan) if known is None else known.copy()
    if all(d.n == held_out.n for d in entries):
        cums = np.cumsum(np.vstack([d.samples for d in entries]), axis=0)
        ks = np.arange(1, rows.size + 1)
        losses[1:] = np.mean((cums / ks[:, None] - held_out.samples) ** 2, axis=1)
    else:
        for k in np.unique(needed[np.isnan(losses[needed])]):
            losses[k] = w2sq(step_barycenter(entries[:k]), held_out)
    losses.setflags(write=False)
    state.losses[key] = losses
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

    state = _row_state(m, i)
    candidates = _candidate_etas(cfg, state.ranked(m, j, cfg.min_overlap).sorted_dists)

    n_cells = len(held_cols)
    losses = np.full((candidates.shape[0], n_cells), np.nan)
    for cell_idx, v in enumerate(held_cols):
        sorted_dists = state.ranked(m, v, cfg.min_overlap).sorted_dists
        ks = np.searchsorted(sorted_dists, candidates, side="right")
        hit = ks > 0
        if hit.any():
            loss_by_k = _prefix_losses(m, state, v, cfg.min_overlap, ks[hit])
            losses[hit, cell_idx] = loss_by_k[ks[hit]]

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
