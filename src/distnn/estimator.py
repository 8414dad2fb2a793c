"""Nearest-neighbor imputation of distributions in a partially observed matrix.

To impute cell (i, j): measure each candidate row u (observed in column j) by
the average squared Wasserstein distance to row i over the columns, other
than j, observed in both rows; keep rows within a threshold eta; return the
Wasserstein barycenter of the neighbors' column-j entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .empirical import StepQuantile, _heldout_losses, _w2sq_pairs, barycenter, step_barycenter, summaries, w2sq
from .errors import NoNeighborsError, OutOfDomainError
from .matrix import DistributionalMatrix, shared_columns

__all__ = [
    "NeighborSet",
    "ImputationResult",
    "row_distance",
    "find_neighbors",
    "impute",
]


@dataclass(frozen=True, eq=False)
class NeighborSet:
    """Rows accepted as neighbors of a target cell, with their distances.

    Members are listed in row-index order. Rows with no shared columns
    (infinite distance) never appear. ``fallback`` is set when the
    neighbour floor replaced the rows within eta by the nearest rows at any
    distance; ``eta`` is then math.inf.
    """

    target_row: int
    target_col: int
    eta: float
    rows: np.ndarray
    distances: np.ndarray
    overlap_counts: np.ndarray
    fallback: bool = False

    @property
    def size(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class ImputationResult:
    """Estimated distribution for one cell plus neighbor diagnostics."""

    estimate: StepQuantile  # an EmpiricalDistribution when the neighbours share n
    neighbors: NeighborSet
    summaries: dict
    var_alpha: float


def row_distance(m: DistributionalMatrix, i: int, u: int, exclude: int, min_overlap: int = 1) -> float:
    """Average squared W2 between rows i and u over shared columns, excluding one.

    Returns math.inf when fewer than ``min_overlap`` shared columns exist
    (in particular when there are none).
    """
    cols = shared_columns(m, i, u, exclude)
    if cols.shape[0] < max(1, min_overlap):
        return math.inf
    total = 0.0
    for v in cols:
        total += w2sq(m.entry(i, v), m.entry(u, v))
    return total / cols.shape[0]


def _w2sq_table(m: DistributionalMatrix, i: int) -> np.ndarray:
    """W2^2 between row i's entry and every other row's entry, per column.

    NaN marks pairs where either entry is missing; row i itself is NaN
    throughout. Each column is computed in one pass over its block, with the
    bits of per-pair w2sq.
    """
    mask = m.mask
    table = np.full(mask.shape, np.nan)
    for c in np.flatnonzero(mask[i]).tolist():
        rows = np.flatnonzero(mask[:, c])
        rows = rows[rows != i]
        table[rows, c] = _w2sq_pairs(m._blocks[c], rows, i)
    return table


def _leave_out_distances(table: np.ndarray, exclude: int, min_overlap: int):
    """Distances rho(i, u) and overlap counts for every row u, from row i's table.

    Column ``exclude`` is left out. The kept columns are summed in column
    order, as :func:`row_distance` does, so both give the same value.
    """
    kept = ~np.isnan(table)
    kept[:, exclude] = False
    counts = np.sum(kept, axis=1)
    # cumsum adds left to right, unlike the pairwise np.sum
    sums = np.cumsum(np.where(kept, table, 0.0), axis=1)[:, -1]
    dists = np.full(table.shape[0], math.inf)
    ok = counts >= min_overlap
    dists[ok] = sums[ok] / counts[ok]
    return dists, counts


def _ranked_rows(m: DistributionalMatrix, dists: np.ndarray, i: int, col: int) -> np.ndarray:
    """Rows u != i observed in ``col`` at finite distance, nearest first.

    Ties keep row-index order, so any distance cut-off keeps a prefix.
    """
    eligible = m.mask[:, col].copy()
    eligible[i] = False
    rows = np.nonzero(eligible & np.isfinite(dists))[0]
    return rows[np.argsort(dists[rows], kind="stable")]


class _Ranking(NamedTuple):
    """Row i's distances with one column left out, and the rows they rank."""

    dists: np.ndarray
    overlaps: np.ndarray
    rows: np.ndarray  # as _ranked_rows orders them
    sorted_dists: np.ndarray  # dists[rows]

    def within(self, eta):
        """Count of ranked rows, a prefix, at distance <= eta (each of an array of etas)."""
        return np.searchsorted(self.sorted_dists, eta, side="right")


class _RowState:
    """Row i's W2^2 table and the leave-one-column-out work derived from it.

    Nothing here depends on a target's threshold, so every cell of row i
    shares it: for each left-out column, the ranking of rows and the
    held-out losses of that column's cell. Stored arrays are read-only and
    each memo entry is written whole, so threads sharing a matrix can at
    worst compute an entry twice, with the same value.
    """

    __slots__ = ("row", "table", "_ranked", "_losses")

    def __init__(self, m: DistributionalMatrix, i: int):
        self.row = i
        self.table = _w2sq_table(m, i)
        self.table.setflags(write=False)
        self._ranked = {}
        self._losses = {}

    def ranked(self, m: DistributionalMatrix, col: int, min_overlap: int) -> _Ranking:
        key = (col, min_overlap)
        found = self._ranked.get(key)
        if found is None:
            dists, overlaps = _leave_out_distances(self.table, col, min_overlap)
            rows = _ranked_rows(m, dists, self.row, col)
            found = _Ranking(dists, overlaps, rows, dists[rows])
            for arr in found:
                arr.setflags(write=False)
            self._ranked[key] = found
        return found

    def heldout_losses(self, m: DistributionalMatrix, col: int, min_overlap: int) -> np.ndarray:
        """Loss at row i's held-out cell in ``col`` of the barycenter of the
        k nearest rows, indexed by k (NaN at k = 0: no neighbor)."""
        key = (col, min_overlap)
        found = self._losses.get(key)
        if found is None:
            rows = np.append(self.ranked(m, col, min_overlap).rows, self.row)
            found = _heldout_losses(m._blocks[col], rows)
            found.setflags(write=False)
            self._losses[key] = found
        return found


def _row_state(m: DistributionalMatrix, i: int) -> _RowState:
    """Row i's state, kept on the matrix until another row's replaces it.

    The slot holds one row: ``missing_cells()`` runs row by row, so one slot
    serves every cell of a row in turn without holding tables of past rows.
    """
    state = m._row_state
    if state is None or state.row != i:
        state = _RowState(m, i)
        m._row_state = state
    return state


def find_neighbors(
    m: DistributionalMatrix,
    i: int,
    j: int,
    eta: float,
    min_overlap: int = 1,
    max_neighbors: int | None = None,
    min_neighbors: int = 0,
) -> NeighborSet:
    """Rows u != i observed in column j with finite rho(i, u) <= eta.

    When fewer than ``min_neighbors`` rows pass eta, the nearest
    ``min_neighbors`` rows at any finite distance are kept instead (fewer
    if fewer are ranked), and the set reports ``fallback`` with eta
    math.inf. ``max_neighbors`` optionally keeps only the closest rows (ties
    broken by row index); useful for capping the neighborhood to a fixed
    size. Raises OutOfDomainError unless eta is a number >= 0 (math.inf
    allowed, NaN not), min_overlap >= 1, max_neighbors is None or >= 1 and
    min_neighbors >= 0.
    """
    if not (isinstance(eta, numbers.Real) and eta >= 0.0):
        raise OutOfDomainError(f"eta must be a non-negative number, got {eta!r}")
    if min_overlap < 1:
        raise OutOfDomainError("min_overlap must be at least 1")
    if max_neighbors is not None and max_neighbors < 1:
        raise OutOfDomainError("max_neighbors must be None or at least 1")
    if min_neighbors < 0:
        raise OutOfDomainError("min_neighbors must be at least 0")
    i, j = m._check_index(i, j)
    ranking = _row_state(m, i).ranked(m, j, min_overlap)
    k = int(ranking.within(eta))
    fallback = k < min_neighbors
    if fallback:
        k, eta = min(min_neighbors, ranking.rows.shape[0]), math.inf
    if max_neighbors is not None:
        k = min(k, max_neighbors)
    rows = np.sort(ranking.rows[:k])
    return NeighborSet(
        target_row=i,
        target_col=j,
        eta=float(eta),
        rows=rows,
        distances=ranking.dists[rows],
        overlap_counts=ranking.overlaps[rows],
        fallback=fallback,
    )


def impute(
    m: DistributionalMatrix,
    i: int,
    j: int,
    eta: float,
    var_alpha: float = 0.05,
    min_overlap: int = 1,
    max_neighbors: int | None = None,
    min_neighbors: int = 0,
) -> ImputationResult:
    """Estimate the distribution at (i, j) as the neighbors' barycenter in column j.

    ``min_neighbors`` is the neighbour floor of :func:`find_neighbors`.
    Raises :class:`NoNeighborsError` when no row qualifies, at the
    neighbour set's eta (math.inf when the floor fired). The target's own
    samples, when observed, never enter the estimate.
    """
    neighbors = find_neighbors(m, i, j, eta, min_overlap, max_neighbors, min_neighbors)
    if neighbors.size == 0:
        raise NoNeighborsError(i, j, math.inf if neighbors.fallback else eta)
    entries = [m._cell(u, j) for u in neighbors.rows.tolist()]
    estimate = (barycenter if len({d.n for d in entries}) == 1 else step_barycenter)(entries)
    return ImputationResult(
        estimate=estimate,
        neighbors=neighbors,
        summaries=summaries(estimate, var_alpha),
        var_alpha=var_alpha,
    )
