"""Distributional matrix container, observation mask, and MCAR masking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .empirical import EmpiricalDistribution, from_samples
from .errors import EmptyInputError, IndexOutOfRangeError, OutOfDomainError, SizeMismatchError

__all__ = ["DistributionalMatrix", "MaskSpec", "apply_mcar", "shared_columns"]


class DistributionalMatrix:
    """Dense grid of optional empirical distributions plus a boolean mask.

    ``entries[i][j]`` is an :class:`EmpiricalDistribution` where observed and
    None where missing; ``mask[i, j]`` is True exactly where an entry is
    present. Immutable after construction; masking helpers return new
    matrices that share entry objects.
    """

    # the estimator's work for the row it last served (see estimator._row_state)
    _row_state = None

    def __init__(self, entries):
        rows = []
        n_cols = None
        for i, row in enumerate(entries):
            row = list(row)
            if n_cols is None:
                n_cols = len(row)
            elif len(row) != n_cols:
                raise SizeMismatchError("all rows must have the same number of columns")
            converted = []
            for cell in row:
                if cell is None:
                    converted.append(None)
                elif isinstance(cell, EmpiricalDistribution):
                    converted.append(cell)
                else:
                    converted.append(from_samples(cell))
            rows.append(tuple(converted))
        if not rows or n_cols == 0:
            raise EmptyInputError("matrix must have at least one row and one column")
        self._entries = tuple(rows)
        mask = np.array(
            [[cell is not None for cell in row] for row in self._entries], dtype=bool
        )
        mask.setflags(write=False)
        self._mask = mask

    @property
    def n_rows(self) -> int:
        return len(self._entries)

    @property
    def n_cols(self) -> int:
        return len(self._entries[0])

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def entry(self, i: int, j: int):
        self._check_index(i, j)
        return self._entries[i][j]

    def is_observed(self, i: int, j: int) -> bool:
        self._check_index(i, j)
        return bool(self._mask[i, j])

    def missing_cells(self):
        """Index pairs of unobserved cells, in row-major order."""
        rows, cols = np.nonzero(~self._mask)
        return list(zip(rows.tolist(), cols.tolist()))

    def observed_cells(self):
        rows, cols = np.nonzero(self._mask)
        return list(zip(rows.tolist(), cols.tolist()))

    def mask_cell(self, i: int, j: int) -> "DistributionalMatrix":
        """A copy of the matrix with cell (i, j) forced missing."""
        self._check_index(i, j)
        rows = [list(row) for row in self._entries]
        rows[i][j] = None
        return DistributionalMatrix(rows)

    def _check_index(self, i: int, j: int):
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise IndexOutOfRangeError(
                f"cell ({i}, {j}) outside {self.n_rows}x{self.n_cols} matrix"
            )

    def __repr__(self):
        observed = int(self._mask.sum())
        return (
            f"DistributionalMatrix({self.n_rows}x{self.n_cols}, "
            f"{observed} observed)"
        )


@dataclass(frozen=True)
class MaskSpec:
    """MCAR observation model: each cell kept independently with probability p."""

    p: float
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise OutOfDomainError("observation probability must lie in (0, 1]")


def apply_mcar(full: DistributionalMatrix, spec: MaskSpec, protect=None) -> DistributionalMatrix:
    """Drop entries of a fully observed matrix independently with probability 1-p.

    ``protect``, when given as a cell (i, j), is forced missing regardless of
    its draw (the experiment's hold-out target); all other cells are
    unaffected by the protection. Deterministic for a fixed seed.
    """
    if not np.all(full.mask):
        raise OutOfDomainError("apply_mcar expects a fully observed matrix")
    rng = np.random.default_rng(spec.seed)
    keep = rng.random((full.n_rows, full.n_cols)) < spec.p
    if protect is not None:
        pi, pj = protect
        full._check_index(pi, pj)
        keep[pi, pj] = False
    rows = []
    for i in range(full.n_rows):
        rows.append(
            [full.entry(i, j) if keep[i, j] else None for j in range(full.n_cols)]
        )
    return DistributionalMatrix(rows)


def shared_columns(m: DistributionalMatrix, i: int, u: int, exclude: int) -> np.ndarray:
    """Columns other than ``exclude`` observed in both rows i and u, sorted."""
    m._check_index(i, 0)
    m._check_index(u, 0)
    m._check_index(0, exclude)
    if i == u:
        raise OutOfDomainError("shared_columns requires two distinct rows")
    both = m.mask[i] & m.mask[u]
    both[exclude] = False
    return np.nonzero(both)[0]
