"""Distributional matrix container, observation mask, and MCAR masking.

Each column is one read-only block of sorted samples, in the format of
``empirical._column_block``. Hiding a cell copies only the mask; its
samples stay in the shared block, behind the mask.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .empirical import EmpiricalDistribution, _block_cell, _check_seed, _column_block, _readonly, from_samples
from .errors import EmptyInputError, IndexOutOfRangeError, OutOfDomainError, SizeMismatchError

__all__ = ["DistributionalMatrix", "MaskSpec", "apply_mcar", "shared_columns"]


class DistributionalMatrix:
    """Dense grid of optional empirical distributions plus a boolean mask.

    ``entry(i, j)`` is a read-only :class:`EmpiricalDistribution` view of
    the cell's samples where observed and None where missing; ``mask[i, j]``
    is True exactly where an entry is present. Column j is stored as one
    block (see the module docstring). Immutable after construction; masking
    helpers return new matrices that share every block.
    """

    # the estimator's work for the row it last served (see estimator._row_state)
    _row_state = None

    def __init__(self, entries):
        rows = []
        n_cols = None
        for row in entries:
            row = list(row)
            if n_cols is None:
                n_cols = len(row)
            elif len(row) != n_cols:
                raise SizeMismatchError("all rows must have the same number of columns")
            rows.append([
                None if cell is None
                else from_samples(cell.samples if isinstance(cell, EmpiricalDistribution)
                                  else cell).samples
                for cell in row
            ])
        if not rows or n_cols == 0:
            raise EmptyInputError("matrix must have at least one row and one column")
        self._blocks = tuple(_column_block([row[j] for row in rows]) for j in range(n_cols))
        self._mask = _readonly(np.array([[s is not None for s in row] for row in rows]))

    @classmethod
    def _of_blocks(cls, blocks, mask) -> "DistributionalMatrix":
        """A matrix over the given column blocks, observed where ``mask`` is True."""
        m = cls.__new__(cls)
        m._blocks = tuple(blocks)
        m._mask = _readonly(mask)
        return m

    @property
    def n_rows(self) -> int:
        return self._mask.shape[0]

    @property
    def n_cols(self) -> int:
        return self._mask.shape[1]

    @property
    def mask(self) -> np.ndarray:
        return self._mask

    def entry(self, i: int, j: int):
        return self._cell(*self._check_index(i, j))

    def _cell(self, i: int, j: int):
        """``entry(i, j)`` without the bounds check."""
        return _block_cell(self._blocks[j], i) if self._mask[i, j] else None

    def is_observed(self, i: int, j: int) -> bool:
        return bool(self._mask[self._check_index(i, j)])

    def missing_cells(self):
        """Index pairs of unobserved cells, in row-major order."""
        rows, cols = np.nonzero(~self._mask)
        return list(zip(rows.tolist(), cols.tolist()))

    def observed_cells(self):
        rows, cols = np.nonzero(self._mask)
        return list(zip(rows.tolist(), cols.tolist()))

    def mask_cell(self, i: int, j: int) -> "DistributionalMatrix":
        """A copy of the matrix with cell (i, j) forced missing."""
        mask = self._mask.copy()
        mask[self._check_index(i, j)] = False
        return self._of_blocks(self._blocks, mask)

    def _check_index(self, i: int, j: int):
        """(i, j) as ints; IndexOutOfRangeError unless both index the matrix."""
        try:
            cell = operator.index(i), operator.index(j)
        except TypeError:
            cell = None
        if cell is None or not (0 <= cell[0] < self.n_rows and 0 <= cell[1] < self.n_cols):
            raise IndexOutOfRangeError(
                f"cell ({i!r}, {j!r}) outside {self.n_rows}x{self.n_cols} matrix"
            )
        return cell

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
        _check_seed(self.seed)


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
        keep[full._check_index(*protect)] = False
    return full._of_blocks(full._blocks, keep)


def shared_columns(m: DistributionalMatrix, i: int, u: int, exclude: int) -> np.ndarray:
    """Columns other than ``exclude`` observed in both rows i and u, sorted."""
    (i, exclude), (u, _) = m._check_index(i, exclude), m._check_index(u, 0)
    if i == u:
        raise OutOfDomainError("shared_columns requires two distinct rows")
    both = m.mask[i] & m.mask[u]
    both[exclude] = False
    return np.nonzero(both)[0]
