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

import contextvars
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .empirical import _check_count, _check_level, _check_seed, _check_threshold, _full_block
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

# |Q0(u)| of the Gaussian base at the smallest draw, 1e-300 (about 37.04)
_GAUSSIAN_TAIL = -float(ndtri(1e-300))


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


def _uniform_base() -> BaseFamily:
    return BaseFamily(
        name="uniform",
        ppf=lambda t: np.asarray(t, dtype=float),
        pdf=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        m1=0.5,
        m2=1.0 / 3.0,
        partial_moments=lambda x: (x**2, x**3),
    )


def _phi(x):
    """The standard normal density, by the formula of SciPy's norm.pdf."""
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


def _gaussian_base(cut: float) -> BaseFamily:
    """The standard normal truncated to [-cut, cut], cut in (0, inf]. At inf, lo and
    mass are exactly 0 and 1, so every value is the plain Gaussian's, bit for bit.
    A finite cut's ppf reads each half from its own tail and is clipped to the cut."""
    if not cut > 0.0:
        raise OutOfDomainError(f"truncation must be positive, got {cut!r}")
    lo = float(ndtr(-cut))
    mass = float(ndtr(cut)) - lo
    edge = min(cut, 40.0)  # cut φ(cut) is exactly 0 from 38.6 on; the cap keeps inf·0 and cut² finite

    def ppf(t):
        t = np.asarray(t, dtype=float)
        x = ndtri(lo + np.where(t > 0.5, 1.0 - t, t) * mass)
        return np.clip(np.where(t > 0.5, -x, x), -cut, cut)

    def partial_moments(x):
        """(-2φ(x), 3(Φ(x) - xφ(x))) / mass, with xφ(x) taken as 0 at ±inf."""
        phi = _phi(x)
        return -2.0 * phi / mass, 3.0 * (ndtr(x) - np.where(np.isfinite(x), x, 0.0) * phi) / mass

    return BaseFamily(
        name="gaussian" if cut == math.inf else "truncated_gaussian",
        ppf=ndtri if cut == math.inf else ppf,
        pdf=lambda x: _phi(np.asarray(x, dtype=float)) / mass * (np.abs(x) <= cut),
        m1=0.0,
        m2=float(1.0 - 2.0 * edge * _phi(edge) / mass),
        partial_moments=partial_moments,
    )


def make_base(name: str, truncation: float = 4.0) -> BaseFamily:
    if name == "uniform":
        return _uniform_base()
    if name == "gaussian":
        return _gaussian_base(math.inf)
    if name == "truncated_gaussian":
        return _gaussian_base(truncation)
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
    deviations, a real number (``generate`` refuses one that is not
    positive). A spec whose range widths or sample bound (the largest
    |location| plus the largest scale times the base's largest |quantile|
    over the draws) overflow raises OutOfDomainError.
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
        if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                   for v in (self.sigma, *self.location_range, *self.scale_range)):
            raise OutOfDomainError("sigma, location_range and scale_range must be finite")
        if self.scale_range[0] <= 0.0 or self.scale_range[1] < self.scale_range[0]:
            raise OutOfDomainError("scale_range must be positive and ordered")
        if self.location_range[1] < self.location_range[0]:
            raise OutOfDomainError("location_range must be ordered")
        _check_threshold("sigma", self.sigma)
        _check_count("latent_dim", self.latent_dim)
        if isinstance(self.truncation, bool) or not isinstance(self.truncation, numbers.Real):
            raise OutOfDomainError(f"truncation must be a real number, got {self.truncation!r}")
        (lo, hi), (s_lo, s_hi) = self.location_range, self.scale_range
        # |Q0(u)| at most q over the draws' range [1e-300, 1); rounding is
        # monotone, so a finite bound on |loc| + scale * q keeps every sample finite
        q = {"uniform": 1.0, "gaussian": _GAUSSIAN_TAIL}.get(
            self.base_family, min(self.truncation, _GAUSSIAN_TAIL))
        bound = (max(abs(lo), abs(hi)) + s_hi * q if self.kind == "heteroscedastic"
                 else self.latent_dim + self.sigma * self.sigma * q)
        if not all(map(math.isfinite, (hi - lo, s_hi - s_lo, bound))):
            raise OutOfDomainError("location_range, scale_range and sigma must keep the samples finite")
        _check_seed(self.seed)

    def n_for_columns(self, n_cols: int) -> np.ndarray:
        # as objects, so that no count is cast to float or wrapped before it is checked
        counts = np.asarray(self.n_per_entry, dtype=object)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in counts.flat):
            raise OutOfDomainError("n_per_entry must hold integer sample counts")
        if any(n > np.iinfo(np.int64).max for n in counts.flat):
            raise OutOfDomainError("n_per_entry is out of range: counts must fit in int64")
        if counts.shape not in ((), (n_cols,)) or any(n < 1 for n in counts.flat):
            raise OutOfDomainError("n_per_entry must be positive, scalar or one per column")
        return np.full(n_cols, counts, dtype=np.int64)


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
        return self.base.pdf(self.base.ppf(t)) / s

    def cell_summaries(self, i: int, j: int, var_alpha: float = 0.05) -> dict:
        loc = self.loc[i, j]
        s = self.scale[i, j]
        base = self.base
        std = s * float(np.sqrt(base.m2 - base.m1**2))
        return {
            "mean": loc + s * base.m1,
            "median": float(loc + s * base.ppf(0.5)),
            "std": std,
            "var_at_risk": float(-(loc + s * base.ppf(_check_level("var_alpha", var_alpha)))),
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


def _usable_cpus() -> int:
    """The CPUs this process may run on, read at each call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _finish_in_order(finish, draws) -> list:
    """``[finish(j, u) for j, u in enumerate(draws)]``, with the draws taken
    in order in this thread while a second thread finishes the draw before.

    Generator fills, sorts and ufuncs on large arrays release the GIL, so
    the two stages overlap, and at most one drawn array waits at a time.
    With one usable CPU each draw is finished here, in turn. The thread
    lives only inside the call and runs ``finish`` in a copy of the caller's
    context, so numpy's error state there is the caller's; an exception
    raised by ``finish`` propagates from it.
    """
    # on one CPU a one-thread pool ran scaling_sweep about 6% slower than
    # this loop (2-core x86-64 host, numpy 2.4)
    if _usable_cpus() < 2:
        return [finish(j, u) for j, u in enumerate(draws)]
    run = contextvars.copy_context().run
    done, pending = [], []
    with ThreadPoolExecutor(1) as pool:
        for j, u in enumerate(draws):
            pending.append(pool.submit(run, finish, j, u))
            if len(pending) == 2:
                done.append(pending.pop(0).result())
        done.extend(f.result() for f in pending)
    return done


def generate(spec: DgpSpec, n_rows: int, n_cols: int):
    """Draw a fully observed distributional matrix and its exact truths.

    Returns ``(matrix, truth)``; entries are i.i.d. samples pushed through
    each cell's true quantile function. Equal seeds give identical output.
    Raises OutOfDomainError unless n_rows and n_cols are integers >= 1.
    """
    _check_count("n_rows", n_rows)
    _check_count("n_cols", n_cols)
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

    def finish(j, u):
        np.maximum(u, 1e-300, out=u)
        block = base.ppf(u)
        block *= scale[:, j : j + 1]
        block += loc[:, j : j + 1]
        block.sort(axis=1)
        return _full_block(block)

    draws = (rng.random((n_rows, int(n))) for n in n_per_col)
    columns = _finish_in_order(finish, draws)
    matrix = DistributionalMatrix._of_blocks(columns, np.ones((n_rows, n_cols), dtype=bool))
    truth = TrueDistributions(base, loc, scale, n_per_col, factors, spec)
    return matrix, truth


def true_w2(truth: TrueDistributions, cell_a, cell_b) -> float:
    """Exact W2 between the true distributions of two cells."""
    return float(np.sqrt(max(0.0, truth.w2sq_cells(cell_a, cell_b))))
