"""Exact reference values: closed forms for uniform distributions and a
brute-force discrete transport solver used to verify the fast routines."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .empirical import EmpiricalDistribution, _check_count
from .errors import OutOfDomainError, SizeMismatchError, TooLargeError

__all__ = [
    "UniformPair",
    "uniform_w2_sq",
    "uniform_empirical_expected_w2_sq",
    "uniform_pair_empirical_expected_w2_sq",
    "uniform_barycenter_expected_w2_sq",
    "brute_force_w2_sq",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 6


@dataclass(frozen=True)
class UniformPair:
    """Two uniform distributions U(a, b) and U(c, d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a < self.b and self.c < self.d):
            raise OutOfDomainError("intervals must have positive width")


def uniform_w2_sq(p: UniformPair) -> float:
    """Squared W2 between U(a, b) and U(c, d):
    (1/3) * [(a-c)^2 + (b-d)^2 + (a-c)(b-d)].
    """
    da = p.a - p.c
    db = p.b - p.d
    return (da * da + db * db + da * db) / 3.0


def uniform_empirical_expected_w2_sq(a: float, b: float, n: int) -> float:
    """Expected squared W2 between U(a, b) and its n-sample empirical version:
    (b-a)^2 / (6n).
    """
    n = _check_count("n", n)
    return (b - a) ** 2 / (6.0 * n)


def uniform_pair_empirical_expected_w2_sq(p: UniformPair, n: int) -> float:
    """Expected squared W2 between two independent n-sample empirical uniforms:
    W2^2(U(a,b), U(c,d)) + (b-a)(d-c) / (3(n+1)).
    """
    n = _check_count("n", n)
    return uniform_w2_sq(p) + (p.b - p.a) * (p.d - p.c) / (3.0 * (n + 1))


def uniform_barycenter_expected_w2_sq(intervals, n: int) -> float:
    """Expected squared W2 between the empirical barycenter of m uniform
    distributions (n samples each) and their true barycenter:
    (bbar-abar)^2 / (6m(n+1)) + (bbar-abar)^2 / (6n(n+1)),
    where abar and bbar are the means of the interval endpoints. The true
    barycenter is itself U(abar, bbar).

    Exact when the intervals share a common width (locations are free);
    with ragged widths the sampling-variance term depends on the mean
    squared width rather than the squared mean width.
    """
    intervals = list(intervals)
    if not intervals:
        raise OutOfDomainError("need at least one interval")
    n = _check_count("n", n)
    m = len(intervals)
    a_bar = sum(a for a, _ in intervals) / m
    b_bar = sum(b for _, b in intervals) / m
    width_sq = (b_bar - a_bar) ** 2
    return width_sq / (6.0 * m * (n + 1)) + width_sq / (6.0 * n * (n + 1))


def brute_force_w2_sq(a: EmpiricalDistribution, b: EmpiricalDistribution) -> float:
    """Exact squared W2 between equal-size discrete distributions by
    enumerating every coupling permutation; n is capped at
    ``BRUTE_FORCE_MAX_N`` to keep the search trivially correct and fast.
    """
    if a.n != b.n:
        raise SizeMismatchError(f"sample counts differ: {a.n} != {b.n}")
    if a.n > BRUTE_FORCE_MAX_N:
        raise TooLargeError(f"brute force capped at n={BRUTE_FORCE_MAX_N}")
    x = a.samples
    y = b.samples
    best = np.inf
    for perm in permutations(range(a.n)):
        cost = float(np.mean((x - y[list(perm)]) ** 2))
        if cost < best:
            best = cost
    return best
