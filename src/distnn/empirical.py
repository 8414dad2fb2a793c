"""Empirical one-dimensional distributions and their Wasserstein geometry.

An empirical distribution places mass 1/n on each of n observed samples. Its
quantile function is the right-continuous step function that equals the k-th
order statistic on the interval ((k-1)/n, k/n]. The squared 2-Wasserstein
distance between two distributions on the line is the integral over (0, 1) of
the squared difference of their quantile functions, which for step quantiles
reduces to exact sums. The Wasserstein barycenter of a collection is the
distribution whose quantile function is the arithmetic mean of the members'
quantile functions; for equal sample counts this is the coordinate-wise mean
of the order statistics.

Both kinds are one class, :class:`StepQuantile`, which computes every
summary; :class:`EmpiricalDistribution` is its case of the grid k/n. A
distributional matrix stores each column as one block, its cells' sorted
samples back to back (:func:`_column_block`); only this module and
``inference.bootstrap_band``, which resamples a column's cells in place,
read a block. A reader's path follows only the counts of the cells it
reads, never a hidden cell's.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyCollectionError,
    EmptyInputError,
    NonFiniteSampleError,
    OutOfDomainError,
    SizeMismatchError,
)

__all__ = [
    "EmpiricalDistribution",
    "StepQuantile",
    "from_samples",
    "w2_equal_n",
    "w2_general",
    "w2sq",
    "barycenter",
    "step_barycenter",
    "summaries",
]

_EPS = np.finfo(float).eps


def _order_index(t, n):
    """Map levels t in (0, 1) to order-statistic ranks k = ceil(t*n).

    Products t*n within a few ulps of an integer are snapped to that integer
    so that levels written as k/n land on the k-th order statistic despite
    floating-point rounding.
    """
    tn = np.asarray(t, dtype=float) * n
    nearest = np.rint(tn)
    snap = np.abs(tn - nearest) <= 4.0 * _EPS * np.maximum(1.0, np.abs(tn))
    k = np.where(snap, nearest, np.ceil(tn)).astype(np.int64)
    return np.clip(k, 1, n)


def _check_count(name: str, value, lo: int = 1) -> int:
    """``value`` as a Python int, so that no numpy integer wraps in later
    arithmetic; OutOfDomainError unless it is an integer >= ``lo``, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise OutOfDomainError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _check_level(name: str, value, scalar: bool = True, closed: bool = False):
    """``value`` as a float, or a float array unless ``scalar``; OutOfDomainError
    unless it holds real numbers, not bools, inside (0, 1), or (0, 1] if ``closed``."""
    if not scalar:
        try:
            t = np.asarray(value)
        except (TypeError, ValueError):  # ragged nesting
            t = np.asarray(None)
        if t.dtype.kind in "iuf" and np.all((t > 0.0) & (t < 1.0)):
            return t.astype(float, copy=False)
    elif isinstance(value, numbers.Real) and not isinstance(value, bool) and (
            0.0 < value < 1.0 or closed and value == 1.0):
        return float(value)
    raise OutOfDomainError(f"{name} must lie in (0, {'1]' if closed else '1)'}")


def _check_threshold(name: str, value) -> None:
    """OutOfDomainError unless ``value`` is a real number >= 0 (inf allowed), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not value >= 0.0:
        raise OutOfDomainError(f"{name} must be a non-negative number, got {value!r}")


def _check_levels(levels):
    levels = _check_level("levels", levels, scalar=False)
    if levels.ndim != 1 or levels.size == 0:
        raise OutOfDomainError("levels must be a non-empty 1-D array")
    if np.any(np.diff(levels) <= 0.0):
        raise OutOfDomainError("levels must be strictly increasing")
    return levels


def _check_seed(seed):
    """OutOfDomainError unless ``seed`` is a numpy seed: an integer >= 0, not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise OutOfDomainError(f"seed must be a non-negative integer, got {seed!r}")


def _readonly(arr):
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StepQuantile:
    """Piecewise-constant quantile function, exact on (0, 1].

    ``edges`` are strictly increasing breakpoints in (0, 1] ending at 1;
    ``values[l]`` is the function value on (edges[l-1], edges[l]] with
    edges[-1] read as 0. Equivalently a discrete measure with atom
    ``values[l]`` of mass ``edges[l] - edges[l-1]``. Every summary is
    computed here; :class:`EmpiricalDistribution` is the grid k/n.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if edges.ndim != 1 or edges.size == 0 or edges.shape != values.shape:
            raise SizeMismatchError("edges and values must be equal-length 1-D arrays")
        if edges[-1] != 1.0 or np.any(edges <= 0.0) or np.any(np.diff(edges) <= 0.0):
            raise OutOfDomainError("edges must increase strictly within (0, 1] and end at 1")
        if np.any(np.diff(values) < 0.0):
            raise OutOfDomainError("quantile values must be non-decreasing")
        object.__setattr__(self, "edges", _readonly(edges))
        object.__setattr__(self, "values", _readonly(values))

    def _piece_widths(self):
        """Piece widths, or None when every piece is 1/n wide (see :func:`_integral`)."""
        return _widths(self.edges)

    def _pieces(self, t) -> np.ndarray:
        """Index of the piece (edges[l-1], edges[l]] holding each level t."""
        return np.searchsorted(self.edges, t, side="left")

    def _negated(self) -> "StepQuantile":
        """The quantile function of the negated variable: the values reversed
        and negated, on the cumulative sums of the reversed widths."""
        edges = np.cumsum(self._piece_widths()[::-1])
        edges[-1] = 1.0
        # valid by construction; the checks would only see cumsum's rounding
        negated = object.__new__(StepQuantile)
        negated.__dict__.update(edges=edges, values=-self.values[::-1])
        return negated

    def quantile(self, t):
        """The value of the piece holding t, for levels t in (0, 1)."""
        out = self.values[self._pieces(_check_level("quantile level", t, scalar=False))]
        return float(out) if out.ndim == 0 else out

    def step_edges(self) -> np.ndarray:
        return self.edges

    def step_values(self) -> np.ndarray:
        return self.values

    # sums of values near the float limits overflow: the mean is refitted, the std can be infinite
    @np.errstate(over="ignore", invalid="ignore")
    def mean(self) -> float:
        widths = self._piece_widths()
        mean = float(_integral(widths, self.values.copy()))
        if widths is None and not math.isfinite(mean):  # the k/n grid's sum overflowed
            values = self.values[:, None]
            mean = float(_refit_overflow(np.array([mean]), values.shape[0], lambda: [values])[0])
        return mean

    @np.errstate(over="ignore", invalid="ignore")
    def std(self) -> float:
        """Population standard deviation, by the two-pass formula."""
        return float(np.sqrt(_integral(self._piece_widths(), (self.values - self.mean()) ** 2)))

    def var_at_risk(self, alpha: float) -> float:
        """Value-at-risk: the (1 - alpha) quantile of the negated variable."""
        return self._negated().quantile(1.0 - _check_level("alpha", alpha))

    def __repr__(self):
        return f"StepQuantile(pieces={self.edges.shape[0]})"


class EmpiricalDistribution(StepQuantile):
    """Sorted sample array carrying mass 1/n per atom: the step quantile
    function on the grid k/n, k = 1..n, whose value on ((k-1)/n, k/n] is
    the k-th order statistic. Only the samples are stored.

    Construct through :func:`from_samples`; the stored array is sorted
    ascending and marked read-only.
    """

    def __init__(self, samples: np.ndarray):
        object.__setattr__(self, "values", samples)

    @property
    def samples(self) -> np.ndarray:
        return self.values

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Breakpoints k/n, k = 1..n."""
        return np.arange(1, self.n + 1, dtype=float) / self.n

    def _piece_widths(self):
        return None

    def _pieces(self, t) -> np.ndarray:
        """k - 1 for the order statistic k = ceil(t*n), levels k/n snapped to k."""
        return _order_index(t, self.n) - 1

    def _negated(self) -> "EmpiricalDistribution":
        return _presorted(-self.values[::-1])

    def __repr__(self):
        return f"EmpiricalDistribution(n={self.n})"


def _presorted(sorted_samples: np.ndarray) -> EmpiricalDistribution:
    return EmpiricalDistribution(_readonly(np.asarray(sorted_samples, dtype=float)))


def _holds_bool(raw) -> bool:
    """True when a list or tuple, at any depth, holds a boolean, which
    ``np.asarray`` would cast to a number when floats sit beside it."""
    if not isinstance(raw, (list, tuple)):
        return False
    types = set(map(type, raw))
    if bool in types or np.bool_ in types:
        return True
    return (list in types or tuple in types) and any(map(_holds_bool, raw))


def from_samples(raw) -> EmpiricalDistribution:
    """Build an empirical distribution from raw samples in any order.

    Nested input is flattened. Raises OutOfDomainError unless every value is
    real (booleans and text are not), EmptyInputError if there is none and
    NonFiniteSampleError for NaN or infinite values.
    """
    try:
        arr = np.asarray(raw)
        if _holds_bool(raw) or arr.dtype.kind in "bcSU" or (arr.dtype.kind == "O" and any(
                isinstance(v, (bool, np.bool_, str, bytes)) for v in arr.flat)):
            raise TypeError("non-real samples")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        raise OutOfDomainError("samples must be real numbers") from None
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise EmptyInputError("sample array is empty")
    if np.any(~np.isfinite(arr)):
        raise NonFiniteSampleError("sample array contains NaN or infinite values")
    return EmpiricalDistribution(_readonly(np.sort(arr, kind="stable")))


def _widths(edges) -> np.ndarray:
    """Piece widths edges[g] - edges[g-1] of a grid, edges[-1] read as 0."""
    widths = edges.copy()
    widths[1:] -= edges[:-1]
    return widths


# Every chunked loop (merged-grid gathers and running sums, the row table's
# ragged pairs) builds arrays of at most about this many values (_chunk_rows).
# A ragged gather (_gather) holds two: the chunk's int64 ranks and their values.
_GATHER_ELEMENTS = 1 << 20


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` values that fit the gather budget, at least one."""
    return max(1, _GATHER_ELEMENTS // max(width, 1))


def _column_block(cells):
    """One column's block from its cells' sorted samples (None where missing).

    A block is a read-only triple ``(values, starts, sizes)``: the cells'
    samples back to back in one 1-D array, cell r's ``sizes[r]`` sorted
    samples starting at ``values[starts[r]]``, and ``sizes[r]`` 0 where the
    cell is missing.
    """
    sizes = np.array([0 if s is None else s.shape[0] for s in cells], dtype=np.int64)
    values = np.concatenate([np.empty(0), *(s for s in cells if s is not None)])
    return _readonly(values), _readonly(np.cumsum(sizes) - sizes), _readonly(sizes)


def _full_block(values):
    """The block of a C-contiguous rows x n array of sorted samples, without a copy."""
    rows, n = values.shape
    return _readonly(values.reshape(-1)), _readonly(np.arange(rows) * n), _readonly(np.full(rows, n))


def _block_cell(block, r) -> EmpiricalDistribution:
    """Cell r of a column block, a view of its samples."""
    values, starts, sizes = block
    return EmpiricalDistribution(values[starts[r]:starts[r] + sizes[r]])


def _block_rows(block, rows, n):
    """The samples of cells ``rows``, which all hold n, as a new len(rows) x n
    array: rows of a read-only window whose row s is values[s:s + n]. numpy
    raises ValueError if the window does not fit the block, and IndexError
    for a start past its last row."""
    values, starts, _ = block
    return np.ndarray((values.size - n + 1, n), values.dtype, values, 0, values.strides * 2)[starts[rows]]


def _block_grid(block, rows):
    """Cells ``rows`` of a column block on their merged breakpoint grid.

    Returns ``(edges, widths, take)``: ``take(lo, hi)`` gathers the values of
    members lo..hi-1 on every piece (edges[g-1], edges[g]], of width
    ``widths[g]``, as a new (hi - lo) x pieces array. When the members share
    one sample count n, the grid is k/n, ``widths`` is None (see
    :func:`_integral`) and a member's values are its samples. Otherwise
    member r's value on piece g is its order statistic ceil(mid * n_r), mid
    the piece's midpoint, gathered from the block. This is exact:
    mid lies half a piece or more from each breakpoint k/n_r, and a piece
    next to k/n_r is at least 1/(n_r * n_max) wide, so mid * n_r lies at
    least 1/(2 * n_max) from every integer, far beyond its rounding.
    """
    values, starts, sizes = block
    counts = sizes[rows]
    distinct = sorted(set(counts.tolist()))
    if len(distinct) == 1:
        n = distinct[0]

        def take(lo, hi):
            return _block_rows(block, rows[lo:hi], n)

        return np.arange(1, n + 1, dtype=float) / n, None, take
    edges = np.unique(np.concatenate([np.arange(1, n + 1, dtype=float) / n for n in distinct]))
    widths = _widths(edges)
    mids = edges - 0.5 * widths
    starts = starts[rows]

    def take(lo, hi):
        return _gather(values, starts[lo:hi, None], counts[lo:hi, None], mids)

    return edges, widths, take


def _gather(flat, starts, sizes, mids):
    """The order statistic ceil(mid * n) of cells with samples
    ``flat[start:start + n]`` at levels ``mids`` (broadcast together)."""
    ranks = mids * sizes
    ranks = np.ceil(ranks, out=ranks).astype(np.int64)
    ranks += starts
    ranks -= 1
    return flat[ranks]


class _ColumnGrids:
    """One matrix's ragged merged grids, each gathered once for every row.

    An entry, keyed by (column, the sorted distinct counts of the cells
    read), holds the :func:`_block_grid` grid of those counts and the values
    on it of every observed cell of the column whose count is among them,
    one row per cell, in one gather (it fits the budget). A read of any
    cells of that key is then a row gather from the entry, with the bits of
    gathering from the block: a value is the same order statistic of the
    same cell. The entries hold at most ``_GATHER_ELEMENTS`` values in all;
    a column that does not fit is gathered per read. A hidden cell is not
    observed, so its samples and its count enter no entry. Entries are
    read-only and the mapping is replaced whole, so threads sharing it can
    at worst build an entry twice, with the same bits.
    """

    __slots__ = ("blocks", "mask", "entries")

    def __init__(self, blocks, mask):
        self.blocks, self.mask, self.entries = blocks, mask, {}

    def grid(self, v: int, rows):
        """:func:`_block_grid` of observed cells ``rows`` of column v."""
        block = self.blocks[v]
        sizes = block[2]
        counts = tuple(sorted(set(sizes[rows].tolist())))
        key = v, counts
        entries = self.entries
        if key not in entries:
            edges, widths, _ = grid = _block_grid(block, rows)
            if widths is None:
                return grid
            cells = np.flatnonzero(self.mask[:, v] & np.isin(sizes, counts))
            used = sum(kept.size for _, _, kept, _ in entries.values())
            if used + cells.size * edges.size > _GATHER_ELEMENTS:
                return grid
            edges, widths, take = _block_grid(block, cells)
            kept = take(0, cells.size)
            at = np.zeros(sizes.size, dtype=np.int64)
            at[cells] = np.arange(cells.size)
            entry = tuple(map(_readonly, (edges, widths, kept, at)))
            self.entries = entries = {**entries, key: entry}
        edges, widths, kept, at = entries[key]
        at = at[rows]
        return edges, widths, lambda lo, hi: kept[at[lo:hi]]


def _running_sums(rows, carry=None) -> None:
    """Turn ``rows[r]`` into ``carry + rows[0] + ... + rows[r]`` in place.

    One whole-row ``np.add`` per row, over every value of the row at once
    (a slab of columns side by side sums all of them together). These are
    ``np.cumsum(axis=0)``'s additions in its order, so the bits are the
    same, without its strided loop. Rows summed a chunk at a time, each
    chunk passing its last row as the next one's ``carry``, have the bits
    of one sum over all rows.
    """
    if carry is not None:
        rows[0] += carry
    for r in range(1, rows.shape[0]):
        np.add(rows[r - 1], rows[r], out=rows[r])


def _integral(widths, f) -> np.ndarray:
    """Integral over (0, 1) of step functions given on a :func:`_block_grid`
    grid, one per row of ``f`` (last axis: the grid's pieces). Overwrites
    ``f`` when ``widths`` is given."""
    if widths is None:
        # np.mean's bits (a pairwise sum, then one division), less its overhead
        return np.add.reduce(f, axis=-1) / f.shape[-1]
    f *= widths
    return np.sum(f, axis=-1)


def _row_losses(columns, grid=None) -> list:
    """Held-out losses of one row, for each ``(block, rows)`` in ``columns``:
    the loss of the barycenter of cells rows[:k] against cell rows[-1], the
    integral of their squared quantile gap, indexed by k (NaN at k = 0).
    ``grid(c)``, where given, is column c's :func:`_block_grid`, as tuning
    reads it from a matrix's :class:`_ColumnGrids`.

    Every prefix barycenter is a row of the running sums of the cells. The
    columns' grids (:func:`_block_grid`) sit side by side in one slab of
    rows x (their widths summed), deepest column first, filled a chunk of
    rows at a time under the gather budget, in one buffer. Slab row r is
    read only over the columns with more than r ranked rows, a prefix of it,
    so no value is gathered or computed past a column's own rows and
    widths. The sums, the division by k, the gap and its square take that
    prefix of each run of rows at once; each column is integrated over its
    own span.
    """
    losses = [np.full(rows.shape[0], np.nan) for _, rows in columns]
    order = sorted((c for c, (_, rows) in enumerate(columns) if rows.shape[0] > 1),
                   key=lambda c: -columns[c][1].shape[0])
    if not order:
        return losses
    grids = [_block_grid(*columns[c]) if grid is None else grid(c) for c in order]
    counts = [columns[c][1].shape[0] - 1 for c in order]
    ends = np.cumsum([edges.size for edges, _, _ in grids]).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    # (first row, end row, slab width) of each run of rows that read the same
    # columns: rows from the (j+1)-th largest count up to the j-th read the
    # first j columns
    runs, top = [], 0
    for k, end in zip(counts[::-1], ends[::-1]):
        if k > top:
            runs.append((top, k, end))
            top = k
    depth, width = counts[0], ends[-1]
    step = _chunk_rows(width)
    slab = np.empty((min(step, depth), width))
    target = np.empty(width)
    for (_, _, take), k, (s, e) in zip(grids, counts, spans):
        target[s:e] = take(k, k + 1)[0]
    carry = None
    for lo in range(0, depth, step):
        hi = min(lo + step, depth)
        part = slab[:hi - lo]
        for (_, _, take), k, (s, e) in zip(grids, counts, spans):
            if k > lo:
                part[:min(k, hi) - lo, s:e] = take(lo, min(k, hi))
        pieces = [(max(a, lo) - lo, min(b, hi) - lo, w) for a, b, w in runs if a < hi and b > lo]
        for a, b, w in pieces:
            before = part[a - 1] if a else carry
            _running_sums(part[a:b, :w], None if before is None else before[:w])
        carry = part[-1].copy()
        for a, b, w in pieces:
            sums = part[a:b, :w]
            sums /= np.arange(lo + a + 1, lo + b + 1)[:, None]
            sums -= target[:w]
            sums *= sums
        for c, (_, widths, _), k, (s, e) in zip(order, grids, counts, spans):
            if k > lo:
                losses[c][lo + 1:min(k, hi) + 1] = _integral(widths, part[:min(k, hi) - lo, s:e])
    return losses


def _w2sq_pairs(block, rows, i) -> np.ndarray:
    """``w2sq(cell u, cell i)`` for every u in ``rows``, bit for bit, from one
    column block.

    When every cell read holds cell i's count n_i, this is the mean squared
    gap of their samples. Otherwise the pairs go ``_chunk_rows(n_i + n_max)``
    at a time, since a pair's merged grid has at most n_i + n_u pieces, and
    a chunk's grids come from one sort of exact integer keys. Over a pair's
    common denominator n_i * n_u, cell i's breakpoint k/n_i is k * n_u and
    cell u's l/n_u is l * n_i; two breakpoints are equal exactly when their
    keys are, and their floats are then equal too (both are the rounded value
    of one fraction). Adding pair * span keeps each pair's keys in a run of
    its own. Widths, midpoints and values then follow :func:`_block_grid`,
    and each pair is reduced over its own slice as :func:`_integral` reduces
    its grid: a mean when n_u equals n_i.
    """
    values, starts, sizes = block
    n_i = int(sizes[i])
    counts = sizes[rows]
    if (counts == n_i).all():
        return _integral(None, (_block_rows(block, rows, n_i) - values[starts[i]:starts[i] + n_i]) ** 2)
    step = _chunk_rows(n_i + int(counts.max()))
    if rows.size > step:
        return np.concatenate([_w2sq_pairs(block, rows[lo:lo + step], i) for lo in range(0, rows.size, step)])
    span = n_i * int(counts.max()) + 1
    base = np.arange(rows.size, dtype=np.int64) * span
    mine = base[:, None] + counts[:, None] * np.arange(1, n_i + 1)
    theirs = np.arange(1, int(counts.sum()) + 1)
    theirs -= np.repeat(np.cumsum(counts) - counts, counts)
    theirs *= n_i
    theirs += np.repeat(base, counts)
    # both runs are sorted, so the stable sort merges them. Each array is
    # dropped after its last read, and rewritten in place where the bits
    # allow, so a chunk holds about six arrays of its size at once
    keys = np.concatenate((mine.ravel(), theirs))
    del mine, theirs
    keys.sort(kind="stable")
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    pair = keys // span
    keys -= pair * span
    n_u = counts[pair]
    edges = keys / (n_i * n_u)
    del keys
    first = np.searchsorted(pair, np.arange(rows.size + 1))
    widths = _widths(edges)
    widths[first[:-1]] = edges[first[:-1]]
    edges -= 0.5 * widths
    theirs = starts[rows[pair]]
    del pair
    f = _gather(values, theirs, n_u, edges)
    del theirs, n_u
    f -= _gather(values, starts[i], n_i, edges)
    del edges
    f *= f
    widths *= f
    # np.add.reduce has np.mean's and np.sum's bits, less their overhead
    return np.array([
        np.add.reduce(f[lo:hi]) / n_i if n == n_i else np.add.reduce(widths[lo:hi])
        for lo, hi, n in zip(first[:-1].tolist(), first[1:].tolist(), counts.tolist())
    ])


def w2sq(a, b) -> float:
    """Squared 2-Wasserstein distance between two step quantile functions:
    the integral over (0, 1) of their squared gap.

    Accepts EmpiricalDistribution and StepQuantile in any combination. Two
    empirical distributions of one count n share the grid k/n, and the
    integral is their mean squared order-statistic gap. Otherwise the gap is
    constant on each piece of the merged breakpoints, and each argument is
    read at the piece's midpoint by ``searchsorted`` on its own breakpoints.
    """
    if isinstance(a, EmpiricalDistribution) and isinstance(b, EmpiricalDistribution) and a.n == b.n:
        return float(_integral(None, (a.values - b.values) ** 2))
    steps = (a.step_edges(), b.step_edges())
    edges = np.unique(np.concatenate(steps))
    widths = _widths(edges)
    mids = edges - 0.5 * widths
    va, vb = (d.step_values()[np.searchsorted(s, mids, side="left")] for d, s in zip((a, b), steps))
    return float(_integral(widths, (va - vb) ** 2))


def w2_equal_n(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """W2 between equal-size empirical distributions: the RMS order-statistic gap."""
    if a.n != b.n:
        raise SizeMismatchError(f"sample counts differ: {a.n} != {b.n}")
    return w2_general(a, b)


def w2_general(a, b) -> float:
    """W2 via exact integration of the quantile difference; sizes may differ."""
    return float(np.sqrt(w2sq(a, b)))


def _refit_overflow(mean, k, chunks):
    """``mean``, k members' sum over k, where every entry that is not finite
    while its members are is taken again as the sum of member / k: the sum
    overflowed below the float limit. That sum is held within the members'
    least and greatest values, as a mean is, which its rounding can pass
    at the float limit. ``chunks()`` yields the members' values, a run of
    rows at a time, one column per entry. Finite entries keep their bits."""
    redo = np.flatnonzero(~np.isfinite(mean))
    if redo.size:
        sums, lo, hi = 0.0, np.inf, -np.inf
        for rows in chunks():
            rows = rows[:, redo]
            sums = sums + np.sum(rows / k, axis=0)
            lo, hi = np.minimum(lo, rows.min(axis=0)), np.maximum(hi, rows.max(axis=0))
        finite = np.isfinite(lo) & np.isfinite(hi)
        mean[redo[finite]] = np.clip(sums, lo, hi)[finite]
    return mean


@np.errstate(over="ignore", invalid="ignore")
def barycenter(ds) -> EmpiricalDistribution:
    """Wasserstein barycenter of equal-size empirical distributions.

    The k-th order statistic of the result is the mean of the members' k-th
    order statistics.
    """
    ds = list(ds)
    if not ds:
        raise EmptyCollectionError("barycenter of an empty collection")
    n = ds[0].n
    if any(d.n != n for d in ds):
        raise SizeMismatchError(
            "equal-size barycenter requires uniform sample counts; "
            "use step_barycenter for ragged collections"
        )
    stacked = np.vstack([d.samples for d in ds])
    return _presorted(_refit_overflow(stacked.mean(axis=0), len(ds), lambda: [stacked]))


@np.errstate(over="ignore", invalid="ignore")
def step_barycenter(ds) -> StepQuantile:
    """Exact Wasserstein barycenter of empirical distributions of any sizes.

    The mean of step quantile functions is itself a step function on the
    merged breakpoint grid of the members.
    """
    ds = list(ds)
    if not ds:
        raise EmptyCollectionError("barycenter of an empty collection")
    if not all(isinstance(d, EmpiricalDistribution) for d in ds):
        raise OutOfDomainError("step_barycenter takes empirical distributions only")
    edges, _, take = _block_grid(_column_block([d.samples for d in ds]), np.arange(len(ds)))
    step = _chunk_rows(edges.size)
    total = None
    for lo in range(0, len(ds), step):
        sums = take(lo, min(lo + step, len(ds)))
        _running_sums(sums, total)
        # a copy, so the chunk is freed before the next one is gathered
        total, sums = sums[-1].copy(), None
    # 0.0 + turns an all-zero -0.0 sum into +0.0, as summing from zero does
    mean = _refit_overflow((0.0 + total) / len(ds), len(ds), lambda: (
        take(lo, min(lo + step, len(ds))) for lo in range(0, len(ds), step)))
    return StepQuantile(edges, mean)


@np.errstate(over="ignore", invalid="ignore")
def summaries(d, var_alpha: float = 0.05) -> dict:
    """Mean, median, population std, and VaR(alpha) of a distribution.

    VaR is the (1 - alpha) quantile of the negated variable, so for a
    degenerate distribution at c it equals -c.
    """
    _check_level("var_alpha", var_alpha)
    return {
        "mean": d.mean(),
        "median": float(d.quantile(0.5)),
        "std": d.std(),
        "var_at_risk": d.var_at_risk(var_alpha),
    }
