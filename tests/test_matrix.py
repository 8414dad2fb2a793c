"""Matrix container, MCAR masking, and shared-column bookkeeping."""

import numpy as np
import pytest

from distnn import (
    DistributionalMatrix,
    IndexOutOfRangeError,
    MaskSpec,
    OutOfDomainError,
    apply_mcar,
    from_samples,
    shared_columns,
)


def full_matrix(n_rows, n_cols, seed=0):
    rng = np.random.default_rng(seed)
    return DistributionalMatrix(
        [[rng.normal(size=3) for _ in range(n_cols)] for _ in range(n_rows)]
    )


class TestConstruction:
    def test_mask_tracks_presence(self):
        m = DistributionalMatrix([[[1, 2], None], [None, [3]]])
        assert np.array_equal(m.mask, [[True, False], [False, True]])
        assert m.entry(0, 1) is None
        assert np.array_equal(m.entry(1, 1).samples, [3])

    def test_raw_arrays_accepted(self):
        m = DistributionalMatrix([[[3, 1]]])
        assert np.array_equal(m.entry(0, 0).samples, [1, 3])

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            DistributionalMatrix([[[1]], [[1], [2]]])

    def test_mask_cell(self):
        m = full_matrix(2, 2)
        m2 = m.mask_cell(0, 1)
        assert m.is_observed(0, 1) and not m2.is_observed(0, 1)
        assert m2.entry(1, 1) is m.entry(1, 1)

    def test_missing_cells_in_row_major_order(self):
        m = full_matrix(3, 4)
        assert m.missing_cells() == []
        assert m.mask_cell(2, 1).mask_cell(0, 3).missing_cells() == [(0, 3), (2, 1)]

    def test_index_errors(self):
        m = full_matrix(2, 2)
        with pytest.raises(IndexOutOfRangeError):
            m.entry(2, 0)
        with pytest.raises(IndexOutOfRangeError):
            m.entry(0, -3)


class TestApplyMcar:
    def test_p_one_keeps_everything(self):
        m = full_matrix(3, 3)
        assert np.all(apply_mcar(m, MaskSpec(p=1.0, seed=1)).mask)

    def test_protect_forces_single_missing(self):
        m = full_matrix(3, 3)
        masked = apply_mcar(m, MaskSpec(p=1.0, seed=1), protect=(0, 0))
        assert not masked.is_observed(0, 0)
        assert masked.mask.sum() == 8

    def test_deterministic_per_seed(self):
        m = full_matrix(6, 6)
        a = apply_mcar(m, MaskSpec(p=0.5, seed=7))
        b = apply_mcar(m, MaskSpec(p=0.5, seed=7))
        c = apply_mcar(m, MaskSpec(p=0.5, seed=8))
        assert np.array_equal(a.mask, b.mask)
        assert not np.array_equal(a.mask, c.mask)

    def test_protection_does_not_disturb_other_cells(self):
        m = full_matrix(6, 6)
        plain = apply_mcar(m, MaskSpec(p=0.5, seed=3))
        protected = apply_mcar(m, MaskSpec(p=0.5, seed=3), protect=(2, 2))
        diff = plain.mask != protected.mask
        assert diff.sum() <= 1 and not protected.is_observed(2, 2)

    def test_requires_fully_observed(self):
        m = DistributionalMatrix([[[1], None]])
        with pytest.raises(OutOfDomainError):
            apply_mcar(m, MaskSpec(p=0.5))

    def test_retained_fraction_within_three_sigma(self):
        p = 0.37
        cells = 120 * 120
        m = full_matrix(120, 120)
        masked = apply_mcar(m, MaskSpec(p=p, seed=5))
        fraction = masked.mask.mean()
        sigma = np.sqrt(p * (1 - p) / cells)
        assert abs(fraction - p) < 3 * sigma

    def test_invalid_probability(self):
        with pytest.raises(Exception):
            MaskSpec(p=0.0)
        with pytest.raises(Exception):
            MaskSpec(p=1.2)


class TestSharedColumns:
    def test_full_overlap_minus_excluded(self):
        m = full_matrix(3, 4)
        assert np.array_equal(shared_columns(m, 0, 1, exclude=0), [1, 2, 3])

    def test_fully_missing_row(self):
        m = DistributionalMatrix([[[1], [2], [3]], [None, None, None]])
        assert shared_columns(m, 0, 1, exclude=0).size == 0

    def test_hand_intersection(self):
        # row 0 observed in {0,1,2}, row 1 in {1,3}; excluding 1 leaves nothing
        m = DistributionalMatrix(
            [
                [[1], [1], [1], None],
                [None, [1], None, [1]],
            ]
        )
        assert shared_columns(m, 0, 1, exclude=1).size == 0

    def test_symmetry_and_exclusion(self):
        rng = np.random.default_rng(0)
        entries = [
            [[1.0] if rng.random() < 0.6 else None for _ in range(6)] for _ in range(5)
        ]
        for row in entries:
            if all(cell is None for cell in row):
                row[0] = [1.0]
        m = DistributionalMatrix(entries)
        for i in range(5):
            for u in range(5):
                if i == u:
                    continue
                for j in range(6):
                    a = shared_columns(m, i, u, j)
                    b = shared_columns(m, u, i, j)
                    assert np.array_equal(a, b)
                    assert j not in a

    def test_same_row_rejected(self):
        m = full_matrix(2, 2)
        with pytest.raises(OutOfDomainError):
            shared_columns(m, 1, 1, exclude=0)
