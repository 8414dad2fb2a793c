"""Nearest-neighbor imputation of distributions in a partially observed matrix.

To impute cell (i, j): measure each candidate row u (observed in column j) by
the average squared Wasserstein distance to row i over the columns, other
than j, observed in both rows; keep rows within a threshold eta; return the
Wasserstein barycenter of the neighbors' column-j entries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .empirical import _one_size, barycenter, step_barycenter, summaries, w2sq
from .errors import NoNeighborsError, OutOfDomainError
from .matrix import DistributionalMatrix, shared_columns

__all__ = [
    "NeighborSet",
    "ImputationResult",
    "ImputationBatch",
    "row_distance",
    "find_neighbors",
    "impute",
    "impute_all",
]


@dataclass(frozen=True, eq=False)
class NeighborSet:
    """Rows accepted as neighbors of a target cell, with their distances.

    Members are listed in row-index order. Rows with no shared columns
    (infinite distance) never appear.
    """

    target_row: int
    target_col: int
    eta: float
    rows: np.ndarray
    distances: np.ndarray
    overlap_counts: np.ndarray

    @property
    def size(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class ImputationResult:
    """Estimated distribution for one cell plus neighbor diagnostics."""

    estimate: object  # EmpiricalDistribution or StepQuantile
    neighbors: NeighborSet
    summaries: dict
    var_alpha: float


@dataclass(frozen=True)
class ImputationBatch:
    """Per-cell outcomes of a batch imputation; failures never abort the batch."""

    results: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


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
    throughout. Columns whose observed entries share one sample count are
    computed in a single vectorized pass; other columns use per-pair w2sq.
    """
    n_rows, n_cols = m.n_rows, m.n_cols
    table = np.full((n_rows, n_cols), np.nan)
    for c in range(n_cols):
        if not m.mask[i, c]:
            continue
        target = m.entry(i, c)
        rows = [u for u in range(n_rows) if u != i and m.mask[u, c]]
        if not rows:
            continue
        entries = [m.entry(u, c) for u in rows]
        if _one_size(entries + [target]):
            stacked = np.vstack([d.samples for d in entries])
            table[rows, c] = np.mean(
                (stacked - target.samples[None, :]) ** 2, axis=1
            )
        else:
            for u, d in zip(rows, entries):
                table[u, c] = w2sq(d, target)
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


class _RowState:
    """Row i's W2^2 table and the leave-one-column-out work derived from it.

    Nothing here depends on a target's threshold, so every cell of row i
    shares it: the ranking of rows for each left-out column and, filled in
    by tuning, the held-out losses of each column. Stored arrays are
    read-only and each memo entry is written whole, so threads sharing a
    matrix can at worst compute an entry twice, with the same value.
    """

    __slots__ = ("row", "table", "_ranked", "losses")

    def __init__(self, m: DistributionalMatrix, i: int):
        self.row = i
        self.table = _w2sq_table(m, i)
        self.table.setflags(write=False)
        self._ranked = {}
        self.losses = {}  # (held column, min_overlap) -> loss for every prefix size

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
) -> NeighborSet:
    """Rows u != i observed in column j with finite rho(i, u) <= eta.

    ``max_neighbors`` optionally keeps only the closest rows (ties broken by
    row index); useful for capping the neighborhood to a fixed size. Raises
    OutOfDomainError unless eta is a number >= 0 (math.inf allowed, NaN
    not), min_overlap >= 1 and max_neighbors is None or >= 1.
    """
    if not (isinstance(eta, numbers.Real) and eta >= 0.0):
        raise OutOfDomainError(f"eta must be a non-negative number, got {eta!r}")
    if min_overlap < 1:
        raise OutOfDomainError("min_overlap must be at least 1")
    if max_neighbors is not None and max_neighbors < 1:
        raise OutOfDomainError("max_neighbors must be None or at least 1")
    m._check_index(i, j)
    dists, overlaps, ranked, sorted_dists = _row_state(m, i).ranked(m, j, min_overlap)
    k = int(np.searchsorted(sorted_dists, eta, side="right"))
    if max_neighbors is not None:
        k = min(k, max_neighbors)
    rows = np.sort(ranked[:k])
    return NeighborSet(
        target_row=i,
        target_col=j,
        eta=float(eta),
        rows=rows,
        distances=dists[rows],
        overlap_counts=overlaps[rows],
    )


def _barycenter_of(entries):
    return barycenter(entries) if _one_size(entries) else step_barycenter(entries)


def impute(
    m: DistributionalMatrix,
    i: int,
    j: int,
    eta: float,
    var_alpha: float = 0.05,
    min_overlap: int = 1,
    max_neighbors: int | None = None,
) -> ImputationResult:
    """Estimate the distribution at (i, j) as the neighbors' barycenter in column j.

    Raises :class:`NoNeighborsError` when no row qualifies; callers may retry
    with a larger eta. The target's own samples, when observed, never enter
    the estimate.
    """
    neighbors = find_neighbors(m, i, j, eta, min_overlap, max_neighbors)
    if neighbors.size == 0:
        raise NoNeighborsError(i, j, eta)
    entries = [m.entry(u, j) for u in neighbors.rows]
    estimate = _barycenter_of(entries)
    return ImputationResult(
        estimate=estimate,
        neighbors=neighbors,
        summaries=summaries(estimate, var_alpha),
        var_alpha=var_alpha,
    )


def impute_all(
    m: DistributionalMatrix,
    eta,
    var_alpha: float = 0.05,
    missing_only: bool = True,
    min_overlap: int = 1,
    max_neighbors: int | None = None,
) -> ImputationBatch:
    """Impute every target cell independently.

    ``eta`` is either a scalar threshold or a mapping from (row, col) to a
    per-target threshold. Cells without neighbors are recorded in
    ``failures`` and never abort the batch.
    """
    targets = m.missing_cells() if missing_only else [
        (i, j) for i in range(m.n_rows) for j in range(m.n_cols)
    ]
    batch = ImputationBatch()
    for cell in targets:
        cell_eta = eta[cell] if isinstance(eta, dict) else eta
        try:
            batch.results[cell] = impute(
                m, cell[0], cell[1], cell_eta, var_alpha, min_overlap, max_neighbors
            )
        except NoNeighborsError as exc:
            batch.failures[cell] = str(exc)
    return batch
