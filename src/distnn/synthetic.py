"""Location-scale data-generating processes over a latent factor model.

Each cell's true distribution is an affine transform of a base family:
its quantile function is ``loc + scale * Q0(t)``. Two latent structures are
provided: a homoscedastic one where the location is the inner product of
row and column factors on [0,1]^d and the scale is constant, and a
heteroscedastic one where each row carries a location and each column a
scale, both affine images of uniform factors on [0,1]. Sampling is by
inverse transform so the exact quantile and density of every cell stay
available for oracle scoring and oracle variance functions. Scoring against
the truth integrates every piece of a step-quantile estimate in closed form
from the base's partial moments, for all three bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.special import ndtr, ndtri

from .empirical import _check_seed
from .errors import OutOfDomainError
from .matrix import DistributionalMatrix

__all__ = [
    "BaseFamily",
    "LatentFactors",
    "DgpSpec",
    "TrueDistributions",
    "generate",
    "true_w2",
]

@dataclass(frozen=True, eq=False)
class BaseFamily:
    """Standardized base distribution with exact quantile and density."""

    name: str
    ppf: object
    pdf: object
    m1: float  # E[Q0(U)]
    m2: float  # E[Q0(U)^2]
    # x -> (P1, P2) = (2∫^x y f0(y) dy, 3∫^x y² f0(y) dy), each up to a constant
    partial_moments: object

    def pdf_at_ppf(self, t):
        return self.pdf(self.ppf(t))


def _uniform_base() -> BaseFamily:
    return BaseFamily(
        name="uniform",
        ppf=lambda t: np.asarray(t, dtype=float),
        pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        m1=0.5,
        m2=1.0 / 3.0,
        partial_moments=lambda x: (x**2, x**3),
    )


def _gaussian_base() -> BaseFamily:
    return BaseFamily(
        name="gaussian",
        ppf=ndtri,
        pdf=stats.norm.pdf,
        m1=0.0,
        m2=1.0,
        partial_moments=_gaussian_partial_moments,
    )


def _gaussian_partial_moments(x):
    """(-2φ(x), 3(Φ(x) - xφ(x))), with xφ(x) taken as 0 at ±inf."""
    phi = stats.norm.pdf(x)
    return -2.0 * phi, 3.0 * (ndtr(x) - np.where(np.isfinite(x), x, 0.0) * phi)


def _truncated_gaussian_base(cut: float) -> BaseFamily:
    if not cut > 0.0:
        raise OutOfDomainError(f"truncation must be positive, got {cut!r}")
    frozen = stats.truncnorm(-cut, cut)
    mass = ndtr(cut) - ndtr(-cut)

    def partial_moments(x):
        p1, p2 = _gaussian_partial_moments(x)
        return p1 / mass, p2 / mass

    return BaseFamily(
        name="truncated_gaussian",
        ppf=frozen.ppf,
        pdf=frozen.pdf,
        m1=0.0,
        m2=float(frozen.var()),
        partial_moments=partial_moments,
    )


def make_base(name: str, truncation: float = 4.0) -> BaseFamily:
    if name == "uniform":
        return _uniform_base()
    if name == "gaussian":
        return _gaussian_base()
    if name == "truncated_gaussian":
        return _truncated_gaussian_base(truncation)
    raise OutOfDomainError(f"unknown base family: {name!r}")


@dataclass(frozen=True, eq=False)
class LatentFactors:
    """Uniform latent vectors on [0, 1]^d for rows and columns."""

    row_factors: np.ndarray
    col_factors: np.ndarray
    d: int
    seed: int


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of a synthetic distributional matrix.

    ``kind`` selects the latent structure: "homoscedastic" (inner-product
    locations, constant scale sigma**2) or "heteroscedastic" (row locations
    drawn over ``location_range``, column scales over ``scale_range``).
    ``n_per_entry`` is the sample count per entry, a scalar or one value per
    column. Truncated-Gaussian bases cut at ``truncation`` standard
    deviations.
    """

    kind: str = "heteroscedastic"
    base_family: str = "uniform"
    sigma: float = 1.0
    location_range: tuple = (-5.0, 5.0)
    scale_range: tuple = (1.0, 5.0)
    n_per_entry: object = 100
    seed: int = 0
    latent_dim: int = 1
    truncation: float = 4.0

    def __post_init__(self):
        if self.kind not in ("homoscedastic", "heteroscedastic"):
            raise OutOfDomainError(f"unknown kind: {self.kind!r}")
        if self.scale_range[0] <= 0.0 or self.scale_range[1] < self.scale_range[0]:
            raise OutOfDomainError("scale_range must be positive and ordered")
        if self.location_range[1] < self.location_range[0]:
            raise OutOfDomainError("location_range must be ordered")
        if self.sigma < 0.0:
            raise OutOfDomainError("sigma must be non-negative")
        if self.latent_dim < 1:
            raise OutOfDomainError("latent_dim must be at least 1")
        _check_seed(self.seed)

    def n_for_columns(self, n_cols: int) -> np.ndarray:
        ns = np.asarray(self.n_per_entry, dtype=np.int64)
        if ns.ndim == 0:
            ns = np.full(n_cols, int(ns), dtype=np.int64)
        if ns.shape[0] != n_cols or np.any(ns < 1):
            raise OutOfDomainError("n_per_entry must be positive, scalar or one per column")
        return ns


class TrueDistributions:
    """Exact per-cell quantile, density, and scoring for a generated matrix."""

    def __init__(self, base: BaseFamily, loc: np.ndarray, scale: np.ndarray,
                 n_per_col: np.ndarray, factors: LatentFactors, spec: DgpSpec):
        self.base = base
        self.loc = loc
        self.scale = scale
        self.n_per_col = n_per_col
        self.factors = factors
        self.spec = spec

    def quantile(self, i: int, j: int, t):
        return self.loc[i, j] + self.scale[i, j] * self.base.ppf(t)

    def density_at_quantile(self, i: int, j: int, t):
        """f(Q(t)) of cell (i, j); degenerate cells (scale 0) are rejected."""
        s = self.scale[i, j]
        if s <= 0.0:
            raise OutOfDomainError("cell distribution is degenerate (scale 0)")
        return self.base.pdf_at_ppf(t) / s

    def cell_summaries(self, i: int, j: int, var_alpha: float = 0.05) -> dict:
        loc = self.loc[i, j]
        s = self.scale[i, j]
        base = self.base
        std = s * float(np.sqrt(base.m2 - base.m1**2))
        return {
            "mean": loc + s * base.m1,
            "median": float(loc + s * base.ppf(0.5)),
            "std": std,
            "var_at_risk": float(-(loc + s * base.ppf(var_alpha))),
        }

    def w2sq_cells(self, cell_a, cell_b) -> float:
        """Exact squared W2 between two cells' true distributions.

        Both are affine images of the same base, so the squared quantile
        difference integrates in closed form from the base moments.
        """
        (ia, ja), (ib, jb) = cell_a, cell_b
        ds = self.scale[ia, ja] - self.scale[ib, jb]
        dl = self.loc[ia, ja] - self.loc[ib, jb]
        return float(ds * ds * self.base.m2 + 2.0 * ds * dl * self.base.m1 + dl * dl)

    def w2sq_error(self, i: int, j: int, estimate) -> float:
        """Exact squared W2 between a step-quantile estimate and the truth.

        Every piece integrates in closed form from the base's partial
        moments, for all three bases.
        """
        return float(_w2sq_steps_to_base(self.base, estimate.step_values(),
                                         estimate.step_edges(),
                                         self.loc[i, j], self.scale[i, j]))

    def sample(self, i: int, j: int, n: int, rng) -> np.ndarray:
        u = rng.random(n)
        np.maximum(u, 1e-300, out=u)
        return self.loc[i, j] + self.scale[i, j] * self.base.ppf(u)


def _w2sq_steps_to_base(base: BaseFamily, values, edges, loc, s):
    """Exact squared W2 between step quantiles and loc + s * Q0.

    ``values`` holds one step function per row on the shared right ``edges``
    (the last is 1). On a piece (l, e] with value v and c = v - loc,
    ∫(c - s Q0(t))² dt = c²(e - l) - c s ΔP1 + s² ΔP2 / 3, with the partial
    moments read at Q0(e) and Q0(l). Sums over the last axis.
    """
    points = np.concatenate(([0.0], edges))
    p1, p2 = base.partial_moments(base.ppf(points))
    shifted = values - loc
    term = (
        shifted**2 * (points[1:] - points[:-1])
        - shifted * s * (p1[1:] - p1[:-1])
        + s * s * (p2[1:] - p2[:-1]) / 3.0
    )
    return term.sum(axis=-1)


def generate(spec: DgpSpec, n_rows: int, n_cols: int):
    """Draw a fully observed distributional matrix and its exact truths.

    Returns ``(matrix, truth)``; entries are i.i.d. samples pushed through
    each cell's true quantile function. Equal seeds give identical output.
    """
    rng = np.random.default_rng(spec.seed)
    d = 1 if spec.kind == "heteroscedastic" else spec.latent_dim
    row_f = rng.random((n_rows, d))
    col_f = rng.random((n_cols, d))
    factors = LatentFactors(row_factors=row_f, col_factors=col_f, d=d, seed=spec.seed)
    base = make_base(spec.base_family, spec.truncation)

    if spec.kind == "heteroscedastic":
        lo, hi = spec.location_range
        s_lo, s_hi = spec.scale_range
        loc = np.broadcast_to(
            lo + (hi - lo) * row_f[:, 0:1], (n_rows, n_cols)
        ).copy()
        scale = np.broadcast_to(
            s_lo + (s_hi - s_lo) * col_f[:, 0], (n_rows, n_cols)
        ).copy()
    else:
        loc = row_f @ col_f.T
        scale = np.full((n_rows, n_cols), spec.sigma**2)

    n_per_col = spec.n_for_columns(n_cols)
    columns = []
    for j in range(n_cols):
        u = rng.random((n_rows, int(n_per_col[j])))
        np.maximum(u, 1e-300, out=u)
        block = loc[:, j : j + 1] + scale[:, j : j + 1] * base.ppf(u)
        block.sort(axis=1)
        block.setflags(write=False)
        columns.append(block)
    matrix = DistributionalMatrix._of_blocks(columns, np.ones((n_rows, n_cols), dtype=bool))
    truth = TrueDistributions(base, loc, scale, n_per_col, factors, spec)
    return matrix, truth


def true_w2(truth: TrueDistributions, cell_a, cell_b) -> float:
    """Exact W2 between the true distributions of two cells."""
    return float(np.sqrt(max(0.0, truth.w2sq_cells(cell_a, cell_b))))
