"""Confidence bands for the estimated quantile function.

The asymptotic band is built from the normal limit of the estimated
quantile: at level t the half-width is z * sigma(t) / sqrt(n_j * |N|) where
sigma^2(t) averages (t - t^2) / f^2(Q(t)) over the neighbors, using either
the exact neighbor densities (oracle mode, available for synthetic data) or
kernel density estimates fit to the neighbor samples. The bootstrap band
resamples both the neighbor set and each chosen neighbor's samples and takes
percentile envelopes of the replicated barycenter quantiles. Simultaneous
coverage over a level grid uses Bonferroni's correction: the per-level alpha
is alpha divided by the number of levels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import empirical, estimator
from .empirical import (
    EmpiricalDistribution, _check_count, _check_level, _check_levels, _check_seed, _order_index,
    from_samples,
)
from .errors import DegenerateDensityError, NoNeighborsError, OutOfDomainError
from .estimator import ImputationResult
# perfbench/tracing.py wraps inference.impute by name
from .estimator import impute  # noqa: F401
from .matrix import DistributionalMatrix

__all__ = [
    "SigmaFunction",
    "ConfidenceBand",
    "sigma_sq",
    "asymptotic_band",
    "bootstrap_band",
    "default_levels",
]


def default_levels(count: int = 99) -> np.ndarray:
    """Evenly spaced interior levels; endpoints are excluded because the
    normal limit degrades at the support boundary. OutOfDomainError unless
    ``count`` is an integer >= 1."""
    # the message of an empty grid, which the CLI reports for --levels 0
    count = _check_count("levels must be a non-empty 1-D array: count", count)
    return np.arange(1, count + 1, dtype=float) / (count + 1)


@dataclass(frozen=True, eq=False)
class SigmaFunction:
    """Per-neighbor density-at-quantile evaluators feeding the variance analog.

    ``mode`` is "oracle" when built from exact synthetic densities and "kde"
    when estimated from neighbor samples.
    """

    mode: str
    density_at_quantile_fns: tuple

    @classmethod
    def from_true_distributions(cls, truth, neighbor_rows, col: int) -> "SigmaFunction":
        fns = tuple(
            (lambda t, u=u: truth.density_at_quantile(u, col, t))
            for u in neighbor_rows
        )
        return cls(mode="oracle", density_at_quantile_fns=fns)

    @classmethod
    def from_samples(cls, sample_arrays) -> "SigmaFunction":
        """Gaussian KDE with Silverman bandwidth on each neighbor's samples,
        evaluated at the neighbor's empirical step quantile.

        Each neighbor is an EmpiricalDistribution, used as it is, or raw
        samples, checked by ``empirical.from_samples``. DegenerateDensityError
        means no KDE fits them, as for a single sample, all samples equal or
        a variance that overflows.
        """
        fns = []
        for arr in sample_arrays:
            emp = arr if isinstance(arr, EmpiricalDistribution) else from_samples(arr)
            fns.append(functools.partial(_kde_at_quantile, emp, *_silverman_kernel(emp)))
        return cls(mode="kde", density_at_quantile_fns=tuple(fns))

    @classmethod
    def from_result(cls, m: DistributionalMatrix, result: ImputationResult) -> "SigmaFunction":
        ns = result.neighbors
        return cls.from_samples([m.entry(u, ns.target_col) for u in ns.rows])


def _silverman_kernel(emp: EmpiricalDistribution):
    """``(1 / sqrt(2 h^2), n * sqrt(2 pi h^2))`` for the Gaussian kernel of
    variance h^2 = var(x, ddof=1) * (3n/4)^(-2/5), Silverman's rule in one
    dimension: the exponent's scale and the density's normaliser.

    The variance is taken about the middle sample, so that the rounding of
    the mean scales with the spread and not with the samples' magnitude.
    """
    n, x = emp.n, emp.samples
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        h2 = np.var(x - x[n // 2], ddof=1) * (0.75 * n) ** -0.4 if n >= 2 else np.nan
        norm = n * np.sqrt(2.0 * np.pi * h2)
    if not (np.isfinite(h2) and h2 > 0.0 and np.isfinite(norm)):
        raise DegenerateDensityError(
            f"cannot fit a KDE to a neighbor's {n} samples: "
            "it needs two distinct values and a finite variance"
        )
    return 1.0 / np.sqrt(2.0 * h2), norm


def _kde_at_quantile(emp: EmpiricalDistribution, scale: float, norm: float, t) -> np.ndarray:
    """The KDE sum_i exp(-(q - x_i)^2 / (2 h^2)) / norm at q = Q(t), over a
    block of levels at a time so that at most ``_chunk_rows`` rows of n
    values are held. Each level's sum is the same for any block size. The
    levels are those ``sigma_sq`` has checked, so Q(t) is read by rank."""
    q = np.atleast_1d(emp.samples[_order_index(t, emp.n) - 1])
    x = emp.samples
    out = np.empty(q.shape)
    step = empirical._chunk_rows(x.shape[0])
    for lo in range(0, q.shape[0], step):
        z = (q[lo:lo + step, None] - x) * scale
        out[lo:lo + step] = np.exp(-(z * z)).sum(axis=1)
    return out / norm


def sigma_sq(sigma: SigmaFunction, t):
    """Variance analog: mean over neighbors of (t - t^2) / f^2(Q(t))."""
    t = np.atleast_1d(_check_level("sigma_sq levels", t, scalar=False))
    total = np.zeros_like(t)
    for fn in sigma.density_at_quantile_fns:
        dens = np.asarray(fn(t), dtype=float)
        if np.any(~np.isfinite(dens)) or np.any(dens <= 0.0):
            raise DegenerateDensityError(
                "neighbor density non-positive or non-finite at requested level"
            )
        with np.errstate(over="ignore"):
            total += (t - t * t) / dens**2
    if not np.all(np.isfinite(total)):
        raise DegenerateDensityError("the variance analog overflows at a requested level")
    out = total / len(sigma.density_at_quantile_fns)
    return float(out[0]) if out.shape == (1,) else out


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Lower/upper envelopes for the quantile function on a level grid."""

    levels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    alpha: float
    method: str  # asymptotic_oracle | asymptotic_kde | bootstrap
    simultaneous: bool

    def half_widths(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)


def _per_level_alpha(alpha: float, n_levels: int, simultaneous: bool) -> float:
    alpha = _check_level("alpha", alpha)
    return alpha / n_levels if simultaneous else alpha


def asymptotic_band(
    result: ImputationResult,
    sigma: SigmaFunction,
    n_j: int,
    alpha: float,
    levels,
    simultaneous: bool = True,
) -> ConfidenceBand:
    """Normal-limit band around the estimated quantile function.

    Half-width at level t is z_{1-alpha'/2} * sigma(t) / sqrt(n_j * |N|),
    with alpha' Bonferroni-divided across levels when simultaneous.
    """
    levels = _check_levels(levels)
    if result.neighbors.size < 1:
        raise NoNeighborsError(
            result.neighbors.target_row, result.neighbors.target_col, result.neighbors.eta
        )
    n_j = _check_count("n_j", n_j)
    alpha_eff = _per_level_alpha(alpha, levels.shape[0], simultaneous)
    z = float(ndtri(1.0 - alpha_eff / 2.0))
    centers = np.asarray(result.estimate.quantile(levels), dtype=float)
    sig = np.sqrt(np.atleast_1d(sigma_sq(sigma, levels)))
    half = z * sig / np.sqrt(n_j * result.neighbors.size)
    return ConfidenceBand(
        levels=levels,
        lower=centers - half,
        upper=centers + half,
        alpha=float(alpha),
        method=f"asymptotic_{sigma.mode}",
        simultaneous=bool(simultaneous),
    )


def _check_reps(reps_samples: int, reps_neighbors: int) -> int:
    """The replicate count, the counts' product; OutOfDomainError unless both
    are integers >= 1 and it is below 2**32 (one word per spawn key)."""
    n_reps = _check_count("reps_samples", reps_samples) * _check_count("reps_neighbors", reps_neighbors)
    if n_reps >= 2**32:
        raise OutOfDomainError(f"reps_samples * reps_neighbors must be below 2**32, got {n_reps}")
    return n_reps


_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's hash of a word, a Python int or a uint32 array; its
    constant ``h`` steps by ``mult`` at every call."""
    def hash_word(v):
        nonlocal h
        v = v ^ h
        h = h * mult & _MASK32
        v = v * h & _MASK32
        return v ^ v >> 16
    return hash_word


def _mix(x, y):
    v = (0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32) & _MASK32
    return v ^ v >> 16


def _spawn_states(seed: int, n: int) -> list:
    """``default_rng(c).bit_generator.state`` for each c in
    ``SeedSequence(seed).spawn(n)``, for 1 <= n < 2**32, in one pass.

    This is numpy's SeedSequence hash (``numpy/random/bit_generator.pyx``)
    and PCG64's seeding step, both kept stable by NEP 19. A child's entropy
    is the seed's 32-bit words, padded with zeros to the pool's 4 words,
    then its index, so the index enters last: the pool before it is
    computed once on Python ints masked to 32 bits, and the index's mixing
    and the 8 output words on uint32 arrays over all children, which wrap.
    """
    seed = int(seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in [*words[4:], np.arange(n, dtype=np.uint32)]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    # generate_state(4, np.uint64): 8 words, each 64-bit value's low word first
    output = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [output(pool[w % 4]).astype(np.uint64) for w in range(8)]
    s_hi, s_lo, i_hi, i_lo = ((out[w] | out[w + 1] << 32).tolist() for w in range(0, 8, 2))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        state = ((inc + (a << 64 | b)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


# samples near the float limits give infinite quantiles (JSON null)
@np.errstate(over="ignore", invalid="ignore")
def bootstrap_band(
    m: DistributionalMatrix,
    i: int,
    j: int,
    eta: float,
    alpha: float,
    levels,
    reps_samples: int = 10,
    reps_neighbors: int = 10,
    seed: int = 0,
    simultaneous: bool = True,
    min_overlap: int = 1,
    max_neighbors: int | None = None,
) -> ConfidenceBand:
    """Percentile bootstrap band for the imputed quantile function.

    Each of ``reps_neighbors * reps_samples`` replicates resamples the
    neighbor multiset with replacement, resamples each chosen neighbor's
    column-j samples with replacement, and re-evaluates the barycenter
    quantile on the level grid. The band is the per-level empirical
    (alpha'/2, 1 - alpha'/2) envelope of the replicates; deterministic for a
    fixed seed, and independent of replicate evaluation order. Only the
    neighbor set is searched (:func:`estimator.find_neighbors`); no
    barycenter or summaries are built.

    Replicate r draws the stream of ``default_rng(c)`` for child c = r of
    ``SeedSequence(seed).spawn``: every child's PCG64 state is computed in
    one pass (:func:`_spawn_states`) and set in turn on one generator owned
    by the call. It draws first the k chosen neighbor indices, then, in one
    call, the resample indices of every chosen neighbor in the order chosen,
    the same stream as one call per neighbor. The samples are read in place
    from the column block, unpadded, so a replicate's work follows the
    counts it resamples. A cell's samples are sorted, so its sorted resample
    is the samples at the sorted drawn positions: mixed counts shift each
    chosen neighbor's positions into a range of its own, sort them all as
    integers at once and read only the k x levels ranked ones; equal counts
    gather the values and sort them by rows, which is faster there. The
    replicates' quantile rows are kept in blocks of as many replicates as
    the gather budget holds; each block is summed by k adds of whole rows
    into zeroed curves, in the order chosen, and one division by k ends the
    loop. A seed gives the same band, bit for bit, as evaluating each
    resample one at a time and summing from 0.0.
    """
    levels = _check_levels(levels)
    n_reps = _check_reps(reps_samples, reps_neighbors)
    _check_seed(seed)
    alpha_eff = _per_level_alpha(alpha, levels.shape[0], simultaneous)
    neighbors = estimator.find_neighbors(m, i, j, eta, min_overlap, max_neighbors)
    if neighbors.size == 0:
        raise NoNeighborsError(i, j, eta)
    values, starts, sizes = m._blocks[j]
    starts, sizes = starts[neighbors.rows], sizes[neighbors.rows]
    k, n_max = sizes.shape[0], int(sizes.max())
    ranks = _order_index(levels, sizes[:, None]) - 1
    equal = sizes.min() == n_max
    states = _spawn_states(seed, n_reps)
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    curves = np.zeros((n_reps, levels.shape[0]))
    block = min(empirical._chunk_rows(k * levels.shape[0]), n_reps)
    rows = np.empty((block, k, levels.shape[0]))
    for r in range(n_reps):
        b = r % block
        bit_generator.state = states[r]
        chosen = rng.integers(0, k, size=k)
        # One call gives the values and the generator state of one call per
        # chosen neighbor: bounds under 2**32 draw 32-bit halves, and PCG64
        # keeps a spare half between calls. The scalar bound is about 3x
        # faster per value than an array of bounds, so mixed counts alone
        # use the array. tests/test_inference.py::TestOneDrawCallPerReplicate
        # checks the property.
        if equal:
            picks = rng.integers(0, n_max, size=(k, n_max))
            picks += starts[chosen, None]
            rows[b] = np.sort(values[picks], axis=1)[:, ranks[0]]
        else:
            n_chosen = sizes[chosen]
            slot = np.cumsum(n_chosen) - n_chosen  # each chosen neighbor's range
            picks = np.sort(rng.integers(0, np.repeat(n_chosen, n_chosen)) + np.repeat(slot, n_chosen))
            rows[b] = values[picks[slot[:, None] + ranks[chosen]] + (starts[chosen] - slot)[:, None]]
        if b == block - 1 or r == n_reps - 1:
            # k adds in the order chosen: np.add.reduce would sum pairwise
            done = curves[r - b:r + 1]
            for u in range(k):
                done += rows[:b + 1, u]
    curves /= k
    curves.sort(axis=0)

    lo_rank, hi_rank = _order_index([alpha_eff / 2.0, 1.0 - alpha_eff / 2.0], n_reps)
    return ConfidenceBand(
        levels=levels,
        lower=curves[lo_rank - 1],
        upper=curves[hi_rank - 1],
        alpha=float(alpha),
        method="bootstrap",
        simultaneous=bool(simultaneous),
    )
