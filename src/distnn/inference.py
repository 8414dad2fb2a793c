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

from . import empirical
from .empirical import EmpiricalDistribution, _check_levels, _check_seed, _order_index, from_samples
from .errors import DegenerateDensityError, NoNeighborsError, OutOfDomainError
from .estimator import ImputationResult, impute
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
    normal limit degrades at the support boundary."""
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
    values are held. Each level's sum is the same for any block size."""
    q = np.atleast_1d(emp.quantile(t))
    x = emp.samples
    out = np.empty(q.shape)
    step = empirical._chunk_rows(x.shape[0])
    for lo in range(0, q.shape[0], step):
        z = (q[lo:lo + step, None] - x) * scale
        out[lo:lo + step] = np.exp(-(z * z)).sum(axis=1)
    return out / norm


def sigma_sq(sigma: SigmaFunction, t):
    """Variance analog: mean over neighbors of (t - t^2) / f^2(Q(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(~np.isfinite(t)) or np.any((t <= 0.0) | (t >= 1.0)):
        raise OutOfDomainError("sigma_sq levels must lie in (0, 1)")
    total = np.zeros_like(t)
    for fn in sigma.density_at_quantile_fns:
        dens = np.asarray(fn(t), dtype=float)
        if np.any(~np.isfinite(dens)) or np.any(dens <= 0.0):
            raise DegenerateDensityError(
                "neighbor density non-positive or non-finite at requested level"
            )
        total += (t - t * t) / dens**2
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
    if not (0.0 < alpha < 1.0):
        raise OutOfDomainError("alpha must lie in (0, 1)")
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
    if n_j < 1:
        raise OutOfDomainError("n_j must be at least 1")
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


def _check_reps(reps_samples: int, reps_neighbors: int) -> None:
    if min(reps_samples, reps_neighbors) < 1:
        raise OutOfDomainError("need at least one bootstrap replicate")


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
    fixed seed, and independent of replicate evaluation order.

    Replicate r draws from its own generator, spawned from ``seed``: first
    the k chosen neighbor indices, then, in one call, the resample indices
    of every chosen neighbor in the order chosen, the same stream as one
    call per neighbor. The sorted samples sit in one k x n_max block padded
    with +inf, which sorts after every sample and above each neighbor's
    level ranks, so for any mix of sample counts a replicate gathers, sorts
    and reads its k resamples with one array operation each, and averages
    the k quantile rows in the order chosen. A seed gives the same band as
    evaluating each resample one at a time.
    """
    levels = _check_levels(levels)
    _check_reps(reps_samples, reps_neighbors)
    _check_seed(seed)
    alpha_eff = _per_level_alpha(alpha, levels.shape[0], simultaneous)
    result = impute(m, i, j, eta, min_overlap=min_overlap, max_neighbors=max_neighbors)
    neighbor_samples = [m.entry(u, j).samples for u in result.neighbors.rows]
    k = len(neighbor_samples)
    sizes = np.array([s.shape[0] for s in neighbor_samples])
    n_max = int(sizes.max())
    slots = np.arange(n_max)
    flat = np.full(k * n_max, np.inf)  # row u: neighbor u's samples, then +inf
    flat[(slots < sizes[:, None]).ravel()] = np.concatenate(neighbor_samples)
    ranks = _order_index(levels, sizes[:, None]) - 1
    n_reps = reps_neighbors * reps_samples
    seeds = np.random.SeedSequence(seed).spawn(n_reps)
    curves = np.empty((n_reps, levels.shape[0]))
    # row 0 stays zero so the running sum starts from 0.0, as a loop would
    rows = np.zeros((k + 1, levels.shape[0]))
    for r in range(n_reps):
        rng = np.random.default_rng(seeds[r])
        chosen = rng.integers(0, k, size=k)
        # One call gives the values and the generator state of one call per
        # chosen neighbor: bounds under 2**32 draw 32-bit halves, and PCG64
        # keeps a spare half between calls. The scalar bound is about 3x
        # faster per value than an array of bounds, so mixed counts alone
        # use the array. tests/test_inference.py::TestOneDrawCallPerReplicate
        # checks the property.
        if sizes.min() == n_max:
            picks = rng.integers(0, n_max, size=(k, n_max))
        else:
            n_chosen = sizes[chosen]
            picks = np.tile(slots, (k, 1))  # pad slots read the chosen row's +inf
            picks[slots < n_chosen[:, None]] = rng.integers(0, np.repeat(n_chosen, n_chosen))
        picks += n_max * chosen[:, None]
        rows[1:] = np.take_along_axis(np.sort(flat[picks], axis=1), ranks[chosen], axis=1)
        curves[r] = np.cumsum(rows, axis=0)[-1] / k
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
