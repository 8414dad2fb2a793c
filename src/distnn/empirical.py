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
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Sorted sample array carrying mass 1/n per atom.

    Construct through :func:`from_samples`; the stored array is sorted
    ascending and marked read-only.
    """

    samples: np.ndarray

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def quantile(self, t):
        """Step quantile: the k-th order statistic with k = ceil(t*n), t in (0,1)."""
        t = np.asarray(t, dtype=float)
        if np.any(~np.isfinite(t)) or np.any((t <= 0.0) | (t >= 1.0)):
            raise OutOfDomainError("quantile level must lie in (0, 1)")
        out = self.samples[_order_index(t, self.n) - 1]
        return float(out) if out.ndim == 0 else out

    def step_edges(self) -> np.ndarray:
        """Breakpoints k/n, k = 1..n, of the step quantile function."""
        return np.arange(1, self.n + 1, dtype=float) / self.n

    def step_values(self) -> np.ndarray:
        return self.samples

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def std(self) -> float:
        """Population standard deviation (divide by n)."""
        return float(np.std(self.samples))

    def var_at_risk(self, alpha: float) -> float:
        """Value-at-risk: the (1 - alpha) step quantile of the negated samples."""
        negated = _presorted(-self.samples[::-1])
        return negated.quantile(_check_alpha_complement(alpha))

    def __repr__(self):
        return f"EmpiricalDistribution(n={self.n})"


def _presorted(sorted_samples: np.ndarray) -> EmpiricalDistribution:
    arr = np.asarray(sorted_samples, dtype=float)
    arr.setflags(write=False)
    return EmpiricalDistribution(arr)


def _check_alpha_complement(alpha):
    if not (0.0 < alpha < 1.0):
        raise OutOfDomainError("alpha must lie in (0, 1)")
    return 1.0 - alpha


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
    out = np.sort(arr, kind="stable")
    out.setflags(write=False)
    return EmpiricalDistribution(out)


@dataclass(frozen=True, eq=False)
class StepQuantile:
    """Piecewise-constant quantile function, exact on (0, 1].

    ``edges`` are strictly increasing breakpoints in (0, 1] ending at 1;
    ``values[l]`` is the function value on (edges[l-1], edges[l]] with
    edges[-1] read as 0. Equivalently a discrete measure with atom
    ``values[l]`` of mass ``edges[l] - edges[l-1]``.
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
        edges.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def quantile(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(~np.isfinite(t)) or np.any((t <= 0.0) | (t >= 1.0)):
            raise OutOfDomainError("quantile level must lie in (0, 1)")
        out = self.values[np.searchsorted(self.edges, t, side="left")]
        return float(out) if out.ndim == 0 else out

    def step_edges(self) -> np.ndarray:
        return self.edges

    def step_values(self) -> np.ndarray:
        return self.values

    def weights(self) -> np.ndarray:
        return np.diff(np.concatenate(([0.0], self.edges)))

    def mean(self) -> float:
        return float(np.sum(self.weights() * self.values))

    def std(self) -> float:
        w = self.weights()
        m = np.sum(w * self.values)
        return float(np.sqrt(max(0.0, np.sum(w * self.values**2) - m * m)))

    def var_at_risk(self, alpha: float) -> float:
        t = _check_alpha_complement(alpha)
        atoms = -self.values[::-1]
        cum = np.cumsum(self.weights()[::-1])
        cum[-1] = 1.0
        return float(atoms[np.searchsorted(cum, t, side="left")])

    def __repr__(self):
        return f"StepQuantile(pieces={self.edges.shape[0]})"


def _one_size(ds) -> bool:
    """True when every member is empirical and all share one sample count."""
    return all(isinstance(d, EmpiricalDistribution) for d in ds) and len({d.n for d in ds}) == 1


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


def _block_grid(flat, offsets, rows):
    """Cells ``rows`` of a column block on their merged breakpoint grid.

    Cell r's sorted samples are ``flat[offsets[r]:offsets[r + 1]]``. Returns
    ``(edges, widths, take)``: ``take(lo, hi)`` gathers the values of
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
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    distinct = sorted(set(sizes.tolist()))
    if len(distinct) == 1:
        n = distinct[0]
        ranks = np.arange(n)

        def take(lo, hi):
            return flat[starts[lo:hi, None] + ranks]

        return np.arange(1, n + 1, dtype=float) / n, None, take
    edges = np.unique(np.concatenate([np.arange(1, n + 1, dtype=float) / n for n in distinct]))
    widths = _widths(edges)
    mids = edges - 0.5 * widths

    def take(lo, hi):
        return _gather(flat, starts[lo:hi, None], sizes[lo:hi, None], mids)

    return edges, widths, take


def _gather(flat, starts, sizes, mids):
    """The order statistic ceil(mid * n) of cells with samples
    ``flat[start:start + n]`` at levels ``mids`` (broadcast together)."""
    ranks = np.ceil(mids * sizes).astype(np.int64)
    ranks += starts - 1
    return flat[ranks]


def _merged_grid(ds):
    """The members' step quantile functions on their merged breakpoint grid.

    Returns ``(edges, widths, take)`` as :func:`_block_grid` does; empirical
    members are gathered from their samples, other step quantile functions
    read by ``searchsorted`` on their own edges.
    """
    if all(isinstance(d, EmpiricalDistribution) for d in ds):
        offsets = np.array([0] + [d.n for d in ds]).cumsum()
        return _block_grid(np.concatenate([d.samples for d in ds]), offsets, np.arange(len(ds)))
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
        return np.mean(f, axis=-1)
    f *= widths
    return np.sum(f, axis=-1)


def _w2sq_pairs(flat, offsets, rows, i) -> np.ndarray:
    """``w2sq(cell u, cell i)`` for every u in ``rows``, bit for bit, from one
    column block (cells as in :func:`_block_grid`).

    All pairs' merged grids come from one sort of exact integer keys. Over
    a pair's common denominator n_i * n_u, cell i's breakpoint k/n_i is
    k * n_u and cell u's l/n_u is l * n_i; two breakpoints are equal exactly
    when their keys are, and their floats are then equal too (both are the
    rounded value of one fraction). Adding pair * span keeps each pair's
    keys in a run of its own. Widths, midpoints and values then follow
    :func:`_block_grid`, and each pair is reduced over its own slice as
    :func:`_integral` reduces its grid: a mean when n_u equals n_i.
    """
    rows = np.asarray(rows)
    if rows.size == 0:
        return np.empty(0)
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
