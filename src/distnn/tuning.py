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

from .empirical import _check_seed, _order_index
# perfbench/tracing.py wraps tuning.w2sq and tuning.step_barycenter by name
from .empirical import step_barycenter, w2sq  # noqa: F401
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
        if self.eta_min is not None and not (0.0 < self.eta_min < self.eta_max < math.inf):
            raise OutOfDomainError("need 0 < eta_min < eta_max < inf")
        if self.min_overlap < 1:
            raise OutOfDomainError("min_overlap must be at least 1")
        _check_seed(self.seed)


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
        return _best(self.trials)


def _best(trials) -> TuneTrial:
    """The trial with the least mean loss among those with a valid cell;
    ties go to the smaller eta."""
    return min(
        (t for t in trials if t.n_valid_cells >= 1),
        key=lambda t: (t.mean_loss, t.eta),
    )


def _candidate_etas(cfg: TuneConfig, sorted_dists: np.ndarray) -> np.ndarray:
    if cfg.eta_min is not None:
        lo, hi = cfg.eta_min, cfg.eta_max
    else:
        if sorted_dists.size == 0:
            return np.array([0.0])
        # the 1st and 99th percentiles, as EmpiricalDistribution.quantile reads them
        lo, hi = sorted_dists[_order_index((0.01, 0.99), sorted_dists.size) - 1].tolist()
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


def tune_eta(m: DistributionalMatrix, i: int, j: int, cfg: TuneConfig | None = None) -> TuneReport:
    """Choose eta by leave-one-out validation over row i's observed entries.

    Candidate losses are means over held-out cells; a cell where no neighbor
    exists at a candidate eta is penalized with the worst finite loss seen at
    that eta (infinite if none), so a tiny eta cannot win by abstaining.
    Ties break toward the smaller eta.
    """
    if cfg is None:
        cfg = TuneConfig()
    i, j = m._check_index(i, j)
    held_cols = [v for v in range(m.n_cols) if v != j and m.mask[i, v]]
    if not held_cols:
        raise NoObservedCellsError(f"row {i} has no observed entries besides column {j}")

    state = _row_state(m, i, cfg.min_overlap)
    candidates = _candidate_etas(cfg, state.sorted_dists[j])

    losses = np.empty((candidates.shape[0], len(held_cols)))
    for c, (v, found) in enumerate(zip(held_cols, state.heldout_losses(m, held_cols))):
        losses[:, c] = found[state.within(v, candidates)]

    valid = ~np.isnan(losses)
    n_valid = np.sum(valid, axis=1)
    if not n_valid.any():
        raise AllTrialsFailedError(
            f"every candidate eta produced no neighbors for all held-out cells of row {i}"
        )
    worst = np.max(losses, axis=1, where=valid, initial=-np.inf)
    mean_loss = np.mean(np.where(valid, losses, worst[:, None]), axis=1)
    mean_loss[n_valid == 0] = math.inf
    trials = tuple(
        TuneTrial(eta=float(eta), mean_loss=float(loss), n_valid_cells=int(k),
                  n_no_neighbor_cells=len(held_cols) - int(k))
        for eta, loss, k in zip(candidates, mean_loss, n_valid)
    )
    return TuneReport(best_eta=_best(trials).eta, trials=trials)
