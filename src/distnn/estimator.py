"""Nearest-neighbor imputation of distributions in a partially observed matrix.

To impute cell (i, j): measure each candidate row u (observed in column j) by
the average squared Wasserstein distance to row i over the columns, other
than j, observed in both rows; keep rows within a threshold eta; return the
Wasserstein barycenter of the neighbors' column-j entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import empirical
from .empirical import (StepQuantile, _check_count, _check_threshold, _w2sq_pairs, barycenter,
                        step_barycenter, summaries, w2sq)
from .errors import NoNeighborsError
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
    _check_count("min_overlap", min_overlap)
    cols = shared_columns(m, i, u, exclude)
    if cols.shape[0] < min_overlap:
        return math.inf
    total = 0.0
    for v in cols:
        total += w2sq(m.entry(i, v), m.entry(u, v))
    return total / cols.shape[0]


# samples near the float limits give infinite distances, which are handled as such
@np.errstate(over="ignore", invalid="ignore")
def _w2sq_table(m: DistributionalMatrix, i: int) -> np.ndarray:
    """W2^2 between row i's entry and every other row's entry, per column.

    NaN marks pairs where either entry is missing; row i itself is NaN
    throughout. Each column is computed in one pass over its block, with the
    bits of per-pair w2sq. The pair (i, u) is symmetric, bit for bit, so the
    row of a table kept on the matrix (``m._tables``) is taken as it is, and
    only the rows without one are computed. The tables are read-only and the
    mapping is replaced whole; they hold at most ``_GATHER_ELEMENTS`` values
    in all, and a table past that is returned but not kept.
    """
    kept = m._tables
    if i in kept:
        return kept[i]
    mask = m.mask
    table = np.full(mask.shape, np.nan)
    for u, other in kept.items():
        table[u] = other[i]
    todo = mask.copy()
    todo[[i, *kept]] = False
    for c in np.flatnonzero(mask[i]).tolist():
        rows = np.flatnonzero(todo[:, c])
        if rows.size:
            table[rows, c] = _w2sq_pairs(m._blocks[c], rows, i)
    table.setflags(write=False)
    if (len(kept) + 1) * table.size <= empirical._GATHER_ELEMENTS:
        m._tables = {**kept, i: table}
    return table


class _RowState:
    """Row i's leave-one-column-out distances and rankings, for every column
    at once, at one ``min_overlap``.

    ``dists[u, j]`` is rho(i, u) with column j left out and ``overlaps[u, j]``
    its count of shared columns; ``ranked[j]`` lists the rows u != i observed
    in column j at finite distance, nearest first (ties in row-index order,
    so any cut-off keeps a prefix), ``sorted_dists[j]`` their distances.
    Each column's sum starts from the running sum of the W2^2 terms of the
    columns before it, then one left-to-right pass over row i's observed
    columns adds each one's terms to the sums of the columns before it. So
    each sum adds its terms in column order from zero, as
    :func:`row_distance` does, and never subtracts one: both give the same
    bits. Nothing here depends on a target's threshold, so every cell of row
    i shares it. ``scores`` holds :func:`tuning.tune_eta`'s scoring of the
    row's missing cells, by ``TuneConfig``. Stored arrays are read-only and
    each memo entry is written whole, so threads sharing a matrix can at
    worst compute an entry twice, with the same value.
    """

    __slots__ = ("row", "min_overlap", "dists", "overlaps", "ranked", "sorted_dists", "scores")

    def __init__(self, m: DistributionalMatrix, i: int, min_overlap: int):
        self.row, self.min_overlap = i, min_overlap
        table = _w2sq_table(m, i)
        kept = ~np.isnan(table)
        self.overlaps = kept.sum(axis=1, keepdims=True) - kept
        terms = np.where(kept, table, 0.0)
        sums = np.zeros(table.shape)
        np.cumsum(terms[:, :-1], axis=1, out=sums[:, 1:])
        for v in np.flatnonzero(kept.any(axis=0)).tolist():
            sums[:, :v] += terms[:, v, None]
        self.dists = np.divide(sums, self.overlaps, out=np.full(table.shape, math.inf),
                               where=self.overlaps >= min_overlap)
        # row i's own table row is NaN, so it is at distance inf and never ranked
        keys = np.where(m.mask & np.isfinite(self.dists), self.dists, math.inf).T
        order = np.argsort(keys, axis=1, kind="stable")
        sorted_keys = np.take_along_axis(keys, order, axis=1)
        for arr in (self.dists, self.overlaps, order, sorted_keys):
            arr.setflags(write=False)
        counts = np.isfinite(keys).sum(axis=1).tolist()
        self.ranked = [order[j, :k] for j, k in enumerate(counts)]
        self.sorted_dists = [sorted_keys[j, :k] for j, k in enumerate(counts)]
        self.scores = {}

    def within(self, col: int, eta):
        """Count of column ``col``'s ranked rows, a prefix, at distance <= eta (per eta)."""
        return np.searchsorted(self.sorted_dists[col], eta, side="right")


def _row_state(m: DistributionalMatrix, i: int, min_overlap: int) -> _RowState:
    """Row i's state at ``min_overlap``, kept on the matrix until another
    (row, min_overlap) pair's replaces it.

    The slot holds one state: ``missing_cells()`` runs row by row, so one slot
    serves every cell of a row in turn without holding the work of past rows.
    """
    state = m._row_state
    if state is None or (state.row, state.min_overlap) != (i, min_overlap):
        state = _RowState(m, i, min_overlap)
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
    allowed, NaN not), min_overlap an integer >= 1, max_neighbors None or an
    integer >= 1 and min_neighbors an integer >= 0.
    """
    _check_threshold("eta", eta)
    _check_count("min_overlap", min_overlap)
    if max_neighbors is not None:
        _check_count("max_neighbors", max_neighbors)
    _check_count("min_neighbors", min_neighbors, lo=0)
    i, j = m._check_index(i, j)
    state = _row_state(m, i, min_overlap)
    ranked = state.ranked[j]
    k = int(state.within(j, eta))
    fallback = k < min_neighbors
    if fallback:
        k, eta = min(min_neighbors, ranked.shape[0]), math.inf
    if max_neighbors is not None:
        k = min(k, max_neighbors)
    rows = np.sort(ranked[:k])
    return NeighborSet(
        target_row=i,
        target_col=j,
        eta=float(eta),
        rows=rows,
        distances=state.dists[rows, j],
        overlap_counts=state.overlaps[rows, j],
        fallback=fallback,
    )


# samples near the float limits give infinite quantiles and summaries (JSON null)
@np.errstate(over="ignore", invalid="ignore")
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
