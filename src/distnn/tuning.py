"""Data-driven selection of the neighbor threshold eta.

For a target cell (i, j), each observed entry in row i (other than column j)
is held out in turn and re-imputed; a candidate eta is scored by the mean
squared Wasserstein distance between the re-imputed estimates and the
held-out empirical entries. Hold-out is structural: an entry's own samples
never enter its own estimate, because neighbor distances exclude the target
column and the barycenter uses other rows only.

The missing cells of a row hold out the same entries, so they are scored
in one pass over the row, the first time one of them is asked, and each
gets the bits of scoring it alone. The trial log is held as arrays;
:class:`TuneTrial` objects are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .empirical import (_check_count, _check_seed, _check_threshold, _chunk_rows, _order_index,
                        _row_losses)
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
        _check_count("budget", self.budget)
        if self.search not in ("log_grid", "random_log_uniform"):
            raise OutOfDomainError(f"unknown search strategy: {self.search!r}")
        if (self.eta_min is None) != (self.eta_max is None):
            raise OutOfDomainError("eta_min and eta_max must be given together")
        if self.eta_min is not None:
            _check_threshold("eta_min", self.eta_min)
            _check_threshold("eta_max", self.eta_max)
            if not (0.0 < self.eta_min < self.eta_max < math.inf):
                raise OutOfDomainError("need 0 < eta_min < eta_max < inf")
        _check_count("min_overlap", self.min_overlap)
        _check_seed(self.seed)


@dataclass(frozen=True)
class TuneTrial:
    eta: float
    mean_loss: float
    n_valid_cells: int
    n_no_neighbor_cells: int


@dataclass(frozen=True, eq=False, repr=False)
class TuneReport:
    """Best threshold and the full trial log that produced it.

    The log is held as arrays, one entry per candidate in ascending order:
    ``etas``, their ``mean_losses`` and ``n_valid`` counts of held-out cells
    with a neighbour, of ``n_held``. ``trials`` builds it as
    :class:`TuneTrial` objects when first read. The best trial is the
    first least mean loss among those with a valid cell, as ``min`` over
    the trials in order finds it: ties go to the smaller eta, and a NaN loss
    neither replaces the best so far nor, once first, is replaced.
    """

    etas: np.ndarray
    mean_losses: np.ndarray
    n_valid: np.ndarray
    n_held: int

    @cached_property
    def _best(self) -> int:
        valid = np.flatnonzero(self.n_valid)
        losses = self.mean_losses[valid]
        return int(valid[0] if np.isnan(losses[0]) else valid[np.nanargmin(losses)])

    @property
    def best_eta(self) -> float:
        return float(self.etas[self._best])

    @cached_property
    def trials(self) -> tuple:
        return tuple(
            TuneTrial(eta=eta, mean_loss=loss, n_valid_cells=k, n_no_neighbor_cells=self.n_held - k)
            for eta, loss, k in zip(self.etas.tolist(), self.mean_losses.tolist(),
                                    self.n_valid.tolist())
        )

    def best_trial(self) -> TuneTrial:
        return self.trials[self._best]

    def __repr__(self) -> str:
        return f"TuneReport(best_eta={self.best_eta!r}, trials={self.trials!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.best_eta, self.trials) == (other.best_eta, other.trials)

    def __hash__(self):
        return hash((self.best_eta, self.trials))


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


# samples near the float limits give infinite losses, which are scored as such
@np.errstate(over="ignore", invalid="ignore")
def _score(m: DistributionalMatrix, state, cols: list, cfg: TuneConfig) -> dict:
    """For each target column in ``cols`` of the state's row: its candidate
    etas, their mean losses and counts of valid held-out cells. The held-out
    cells, which every target shares, are the row's observed columns not in
    ``cols``.

    All the targets' candidates are scored together, a chunk of them at a
    time under the gather budget: each held-out column ranks them in one
    call, and each candidate's losses are reduced as one row of a
    (candidates x held) table, so a target's slice has the bits of scoring
    it alone.
    """
    held = [v for v in np.flatnonzero(m.mask[state.row]).tolist() if v not in cols]
    per_col = [_candidate_etas(cfg, state.sorted_dists[c]) for c in cols]
    candidates = np.concatenate(per_col, dtype=float)
    columns = [(m._blocks[v], np.append(state.ranked[v], state.row)) for v in held]
    found = _row_losses(columns, lambda c: m._grids.grid(held[c], columns[c][1]))
    mean_loss = np.empty(candidates.shape[0])
    n_valid = np.empty(candidates.shape[0], dtype=np.int64)
    step = _chunk_rows(len(held))
    for lo in range(0, candidates.shape[0], step):
        part = candidates[lo:lo + step]
        losses = np.empty((part.shape[0], len(held)))
        for c, (v, col_losses) in enumerate(zip(held, found)):
            losses[:, c] = col_losses[state.within(v, part)]
        valid = ~np.isnan(losses)
        n_valid[lo:lo + step] = np.sum(valid, axis=1)
        worst = np.max(losses, axis=1, where=valid, initial=-np.inf)
        mean_loss[lo:lo + step] = np.mean(np.where(valid, losses, worst[:, None]), axis=1)
    mean_loss[n_valid == 0] = math.inf
    for arr in (candidates, mean_loss, n_valid):
        arr.setflags(write=False)
    ends = np.cumsum([etas.shape[0] for etas in per_col]).tolist()
    return {c: (candidates[a:b], mean_loss[a:b], n_valid[a:b])
            for c, a, b in zip(cols, [0] + ends[:-1], ends)}


def tune_eta(m: DistributionalMatrix, i: int, j: int, cfg: TuneConfig | None = None) -> TuneReport:
    """Choose eta by leave-one-out validation over row i's observed entries.

    Candidate losses are means over held-out cells; a cell where no neighbor
    exists at a candidate eta is penalized with the worst finite loss seen at
    that eta (infinite if none), so a tiny eta cannot win by abstaining.
    Ties break toward the smaller eta. The first call for a missing cell
    scores every missing cell of row i in one pass (they hold out the same
    cells) and keeps the scores with the row's state, by ``cfg``; an
    observed target, whose own cell is not held out, is scored alone.
    """
    if cfg is None:
        cfg = TuneConfig()
    i, j = m._check_index(i, j)
    observed = m.mask[i]
    n_held = int(np.count_nonzero(observed)) - int(observed[j])
    if not n_held:
        raise NoObservedCellsError(f"row {i} has no observed entries besides column {j}")

    state = _row_state(m, i, cfg.min_overlap)
    if observed[j]:
        scores = _score(m, state, [j], cfg)
    else:
        scores = state.scores.get(cfg)
        if scores is None:
            scores = state.scores[cfg] = _score(m, state, np.flatnonzero(~observed).tolist(), cfg)
    etas, mean_loss, n_valid = scores[j]
    if not n_valid.any():
        raise AllTrialsFailedError(
            f"every candidate eta produced no neighbors for all held-out cells of row {i}"
        )
    return TuneReport(etas, mean_loss, n_valid, n_held)
