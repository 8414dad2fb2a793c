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

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .empirical import _check_levels, _presorted
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

        Raises DegenerateDensityError when no KDE fits a neighbor's samples,
        such as a single sample or samples that are all equal.
        """
        fns = []
        for arr in sample_arrays:
            emp = _presorted(np.sort(np.asarray(arr, dtype=float)))
            try:
                kde = stats.gaussian_kde(arr, bw_method="silverman")
            except (np.linalg.LinAlgError, ValueError) as exc:
                raise DegenerateDensityError(
                    f"cannot fit a KDE to a neighbor's {emp.n} samples: "
                    "it needs two distinct values and a finite variance"
                ) from exc
            fns.append(lambda t, e=emp, k=kde: k(np.atleast_1d(e.quantile(t))))
        return cls(mode="kde", density_at_quantile_fns=fns)

    @classmethod
    def from_result(cls, m: DistributionalMatrix, result: ImputationResult) -> "SigmaFunction":
        ns = result.neighbors
        return cls.from_samples(
            [m.entry(u, ns.target_col).samples for u in ns.rows]
        )


def sigma_sq(sigma: SigmaFunction, t):
    """Variance analog: mean over neighbors of (t - t^2) / f^2(Q(t))."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any((t <= 0.0) | (t >= 1.0)):
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
    z = float(stats.norm.ppf(1.0 - alpha_eff / 2.0))
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
    """
    levels = _check_levels(levels)
    if min(reps_neighbors, reps_samples) < 1:
        raise OutOfDomainError("need at least one bootstrap replicate")
    alpha_eff = _per_level_alpha(alpha, levels.shape[0], simultaneous)
    result = impute(m, i, j, eta, min_overlap=min_overlap, max_neighbors=max_neighbors)
    neighbor_samples = [m.entry(u, j).samples for u in result.neighbors.rows]
    k = len(neighbor_samples)
    n_reps = reps_neighbors * reps_samples
    seeds = np.random.SeedSequence(seed).spawn(n_reps)
    curves = np.empty((n_reps, levels.shape[0]))
    for r in range(n_reps):
        rng = np.random.default_rng(seeds[r])
        chosen = rng.integers(0, k, size=k)
        acc = np.zeros(levels.shape[0])
        for u in chosen:
            base = neighbor_samples[u]
            resampled = np.sort(base[rng.integers(0, base.shape[0], size=base.shape[0])])
            acc += _presorted(resampled).quantile(levels)
        curves[r] = acc / k
    curves.sort(axis=0)

    lo_rank = _replicate_rank(alpha_eff / 2.0, n_reps)
    hi_rank = _replicate_rank(1.0 - alpha_eff / 2.0, n_reps)
    return ConfidenceBand(
        levels=levels,
        lower=curves[lo_rank - 1],
        upper=curves[hi_rank - 1],
        alpha=float(alpha),
        method="bootstrap",
        simultaneous=bool(simultaneous),
    )


def _replicate_rank(t: float, n: int) -> int:
    """Step-quantile rank ceil(t*n), clipped to [1, n]."""
    return int(min(max(int(np.ceil(t * n)), 1), n))
