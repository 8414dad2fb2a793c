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
distributional matrix stores each column as one block of sorted samples
(:func:`_column_block`), and only this module reads a block.
"""

from __future__ import annotations

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


def _check_levels(levels):
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise OutOfDomainError("levels must be a non-empty 1-D array")
    if np.any(~np.isfinite(levels)) or np.any((levels <= 0.0) | (levels >= 1.0)):
        raise OutOfDomainError("levels must lie strictly inside (0, 1)")
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
        t = np.asarray(t, dtype=float)
        if np.any(~np.isfinite(t)) or np.any((t <= 0.0) | (t >= 1.0)):
            raise OutOfDomainError("quantile level must lie in (0, 1)")
        out = self.values[self._pieces(t)]
        return float(out) if out.ndim == 0 else out

    def step_edges(self) -> np.ndarray:
        return self.edges

    def step_values(self) -> np.ndarray:
        return self.values

    def mean(self) -> float:
        return float(_integral(self._piece_widths(), self.values.copy()))

    def std(self) -> float:
        """Population standard deviation, by the two-pass formula."""
        return float(np.sqrt(_integral(self._piece_widths(), (self.values - self.mean()) ** 2)))

    def var_at_risk(self, alpha: float) -> float:
        """Value-at-risk: the (1 - alpha) quantile of the negated variable."""
        if not (0.0 < alpha < 1.0):
            raise OutOfDomainError("alpha must lie in (0, 1)")
        return self._negated().quantile(1.0 - alpha)

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


# Gathers and running sums over a merged grid hold at most about this many
# values at once (see _chunk_rows).
_GATHER_ELEMENTS = 1 << 20


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` values that fit the gather budget, at least one."""
    return max(1, _GATHER_ELEMENTS // max(width, 1))


def _column_block(cells):
    """One column's block from its cells' sorted samples (None where missing).

    A block is read-only: a rows x n array when every present cell holds n
    samples (NaN rows where missing), else ``(flat, offsets)`` with cell r's
    samples at ``flat[offsets[r]:offsets[r + 1]]``. Only this module reads
    the layout.
    """
    present = [s for s in cells if s is not None]
    if len({s.shape[0] for s in present}) == 1:
        n = present[0].shape[0]
        return _readonly(np.array([np.full(n, np.nan) if s is None else s for s in cells]))
    sizes = [0 if s is None else s.shape[0] for s in cells]
    return (_readonly(np.concatenate([np.empty(0)] + present)),
            _readonly(np.array([0] + sizes).cumsum()))


def _block_cell(block, r) -> EmpiricalDistribution:
    """Cell r of a column block, a view of its samples."""
    if isinstance(block, tuple):
        flat, offsets = block
        return EmpiricalDistribution(flat[offsets[r]:offsets[r + 1]])
    return EmpiricalDistribution(block[r])


def _block_grid(block, rows):
    """Cells ``rows`` of a column block on their merged breakpoint grid.

    Returns ``(edges, widths, take)``: ``take(lo, hi)`` gathers the values of
    members lo..hi-1 on every piece (edges[g-1], edges[g]], of width
    ``widths[g]``, as a new (hi - lo) x pieces array. When the members share
    one sample count n, the grid is k/n and ``widths`` is None (see
    :func:`_integral`). Otherwise member r's value on piece g is its order
    statistic ceil(mid * n_r), mid the piece's midpoint. This is exact:
    mid lies half a piece or more from each breakpoint k/n_r, and a piece
    next to k/n_r is at least 1/(n_r * n_max) wide, so mid * n_r lies at
    least 1/(2 * n_max) from every integer, far beyond its rounding.
    """
    rows = np.asarray(rows)
    if not isinstance(block, tuple):
        n = block.shape[1]

        def take(lo, hi):
            return block[rows[lo:hi]]
    else:
        flat, offsets = block
        starts = offsets[rows]
        sizes = offsets[rows + 1] - starts
        distinct = sorted(set(sizes.tolist()))
        if len(distinct) > 1:
            edges = np.unique(np.concatenate([np.arange(1, n + 1, dtype=float) / n
                                              for n in distinct]))
            widths = _widths(edges)
            mids = edges - 0.5 * widths

            def take(lo, hi):
                return _gather(flat, starts[lo:hi, None], sizes[lo:hi, None], mids)

            return edges, widths, take
        n, ranks = distinct[0], np.arange(distinct[0])

        def take(lo, hi):
            return flat[starts[lo:hi, None] + ranks]

    return np.arange(1, n + 1, dtype=float) / n, None, take


def _gather(flat, starts, sizes, mids):
    """The order statistic ceil(mid * n) of cells with samples
    ``flat[start:start + n]`` at levels ``mids`` (broadcast together)."""
    ranks = np.ceil(mids * sizes).astype(np.int64)
    ranks += starts - 1
    return flat[ranks]


def _merged_grid(ds):
    """The members' step quantile functions on their merged breakpoint grid.

    Returns ``(edges, widths, take)`` as :func:`_block_grid` does; empirical
    members are read from a column block of their samples, other step
    quantile functions by ``searchsorted`` on their own edges.
    """
    if all(isinstance(d, EmpiricalDistribution) for d in ds):
        return _block_grid(_column_block([d.samples for d in ds]), np.arange(len(ds)))
    steps = [d.step_edges() for d in ds]
    edges = np.unique(np.concatenate(steps))
    widths = _widths(edges)
    mids = edges - 0.5 * widths

    def take(lo, hi):
        return np.array([d.step_values()[np.searchsorted(s, mids, side="left")]
                         for d, s in zip(ds[lo:hi], steps[lo:hi])])

    return edges, widths, take


def _running_sums(take, count: int, width: int):
    """Cumulative sums down ``count`` gathered rows, a chunk of rows at a time.

    Yields ``(lo, sums)`` with ``sums[r]`` the sum of rows 0..lo+r, a new
    array the caller may overwrite. Each chunk's first row takes the
    running sum before the chunk's ``np.cumsum``, so every row has the bits
    of one cumulative sum over all rows, in O(chunk * width) memory.
    """
    step = _chunk_rows(width)
    carry = None
    for lo in range(0, count, step):
        sums = take(lo, min(lo + step, count))
        if carry is not None:
            sums[0] += carry
        np.cumsum(sums, axis=0, out=sums)
        carry = sums[-1].copy()
        yield lo, sums


def _integral(widths, f) -> np.ndarray:
    """Integral over (0, 1) of step functions given on a :func:`_merged_grid`
    grid, one per row of ``f`` (last axis: the grid's pieces). Overwrites
    ``f`` when ``widths`` is given."""
    if widths is None:
        # np.mean's bits (a pairwise sum, then one division), less its overhead
        return np.add.reduce(f, axis=-1) / f.shape[-1]
    f *= widths
    return np.sum(f, axis=-1)


def _heldout_losses(block, rows) -> np.ndarray:
    """Loss of the barycenter of block cells rows[:k] against cell rows[-1],
    the integral of their squared quantile gap, indexed by k (NaN at k = 0).

    Every prefix barycenter is one row of a cumulative sum over the cells'
    merged grid, taken a chunk of rows at a time.
    """
    _, widths, take = _block_grid(block, rows)
    count = len(rows) - 1
    target = take(count, count + 1)[0]
    losses = np.empty(count + 1)
    losses[0] = np.nan
    for lo, sums in _running_sums(take, count, target.size):
        hi = lo + sums.shape[0]
        sums /= np.arange(lo + 1, hi + 1)[:, None]
        sums -= target
        sums *= sums
        losses[lo + 1:hi + 1] = _integral(widths, sums)
    return losses


def _w2sq_pairs(block, rows, i) -> np.ndarray:
    """``w2sq(cell u, cell i)`` for every u in ``rows``, bit for bit, from one
    column block.

    On a rows x n block this is the mean squared order-statistic gap. On a
    ragged one, all pairs' merged grids come from one sort of exact integer
    keys. Over a pair's common denominator n_i * n_u, cell i's breakpoint
    k/n_i is k * n_u and cell u's l/n_u is l * n_i; two breakpoints are
    equal exactly when their keys are, and their floats are then equal too
    (both are the rounded value of one fraction). Adding pair * span keeps
    each pair's keys in a run of its own. Widths, midpoints and values then follow
    :func:`_block_grid`, and each pair is reduced over its own slice as
    :func:`_integral` reduces its grid: a mean when n_u equals n_i.
    """
    rows = np.asarray(rows)
    if not isinstance(block, tuple):
        return _integral(None, (block[rows] - block[i]) ** 2)
    if rows.size == 0:
        return np.empty(0)
    flat, offsets = block
    start_i = offsets[i]
    n_i = int(offsets[i + 1] - start_i)
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    span = n_i * int(sizes.max()) + 1
    base = np.arange(rows.size, dtype=np.int64) * span
    mine = base[:, None] + sizes[:, None] * np.arange(1, n_i + 1)
    theirs = np.arange(1, int(sizes.sum()) + 1) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    theirs = theirs * n_i + np.repeat(base, sizes)
    # both runs are sorted, so the stable sort merges them
    keys = np.sort(np.concatenate((mine.ravel(), theirs)), kind="stable")
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    pair = keys // span
    n_u = sizes[pair]
    edges = (keys - pair * span) / (n_i * n_u)
    first = np.searchsorted(pair, np.arange(rows.size + 1))
    widths = _widths(edges)
    widths[first[:-1]] = edges[first[:-1]]
    mids = edges - 0.5 * widths
    f = (_gather(flat, starts[pair], n_u, mids) - _gather(flat, start_i, n_i, mids)) ** 2
    weighted = widths * f
    return np.array([
        np.mean(f[lo:hi]) if n == n_i else np.sum(weighted[lo:hi])
        for lo, hi, n in zip(first[:-1].tolist(), first[1:].tolist(), sizes.tolist())
    ])


def w2sq(a, b) -> float:
    """Squared 2-Wasserstein distance between two step-quantile carriers.

    Accepts EmpiricalDistribution and StepQuantile in any combination; exact
    integration over the merged breakpoint grid, with an order-statistic fast
    path when both are empirical with equal n.
    """
    _, widths, take = _merged_grid((a, b))
    va, vb = take(0, 2)
    return float(_integral(widths, (va - vb) ** 2))


def w2_equal_n(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """W2 between equal-size empirical distributions: the RMS order-statistic gap."""
    if a.n != b.n:
        raise SizeMismatchError(f"sample counts differ: {a.n} != {b.n}")
    return w2_general(a, b)


def w2_general(a, b) -> float:
    """W2 via exact integration of the quantile difference; sizes may differ."""
    return float(np.sqrt(w2sq(a, b)))


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
    return _presorted(stacked.mean(axis=0))


def step_barycenter(ds) -> StepQuantile:
    """Exact Wasserstein barycenter of empirical distributions of any sizes.

    The mean of step quantile functions is itself a step function on the
    merged breakpoint grid of the members.
    """
    ds = list(ds)
    if not ds:
        raise EmptyCollectionError("barycenter of an empty collection")
    edges, _, take = _merged_grid(ds)
    for _, sums in _running_sums(take, len(ds), edges.size):
        pass
    # 0.0 + turns an all-zero -0.0 sum into +0.0, as summing from zero does
    return StepQuantile(edges, (0.0 + sums[-1]) / len(ds))


def summaries(d, var_alpha: float = 0.05) -> dict:
    """Mean, median, population std, and VaR(alpha) of a distribution.

    VaR is the (1 - alpha) quantile of the negated variable, so for a
    degenerate distribution at c it equals -c.
    """
    if not (0.0 < var_alpha < 1.0):
        raise OutOfDomainError("var_alpha must lie in (0, 1)")
    return {
        "mean": d.mean(),
        "median": float(d.quantile(0.5)),
        "std": d.std(),
        "var_at_risk": d.var_at_risk(var_alpha),
    }
