"""Neighbor search and barycenter imputation."""

import math

import numpy as np
import pytest

from distnn import (
    DistributionalMatrix,
    EmpiricalDistribution,
    NoNeighborsError,
    OutOfDomainError,
    StepQuantile,
    bootstrap_band,
    find_neighbors,
    from_samples,
    impute,
    row_distance,
    w2sq,
)


def shifted_rows_matrix():
    """Rows are constant shifts of a base row, so all distances are exact."""
    base = [[0.0, 1.0], [10.0, 11.0], [5.0, 6.0]]
    rows = []
    for shift in (0.0, 0.0, 1.0, 3.0):
        rows.append([[v + shift for v in cell] for cell in base])
    return DistributionalMatrix(rows)


class TestRowDistance:
    def test_identical_rows(self):
        m = shifted_rows_matrix()
        assert row_distance(m, 0, 1, exclude=2) == 0.0

    def test_no_shared_columns_is_infinite(self):
        m = DistributionalMatrix([[[1], None], [None, [2]]])
        assert row_distance(m, 0, 1, exclude=1) == math.inf

    def test_mean_of_squared_distances(self):
        # shared-column W2^2 values 1 and 3 average to 2
        m = DistributionalMatrix(
            [
                [[0.0], [0.0], [9.0]],
                [[1.0], [math.sqrt(3.0)], [0.0]],
            ]
        )
        assert row_distance(m, 0, 1, exclude=2) == pytest.approx(2.0, rel=1e-12)

    def test_constant_shift_squares(self):
        m = shifted_rows_matrix()
        assert row_distance(m, 0, 3, exclude=0) == pytest.approx(9.0, rel=1e-12)

    def test_min_overlap_guard(self):
        m = DistributionalMatrix([[[1], [1]], [[1], [1]]])
        assert math.isfinite(row_distance(m, 0, 1, exclude=0, min_overlap=1))
        assert row_distance(m, 0, 1, exclude=0, min_overlap=2) == math.inf


class TestFindNeighbors:
    def test_vacuous_threshold_accepts_all(self):
        m = shifted_rows_matrix()
        ns = find_neighbors(m, 0, 0, eta=1e9)
        assert np.array_equal(ns.rows, [1, 2, 3])

    def test_zero_threshold_keeps_duplicates(self):
        m = shifted_rows_matrix()
        ns = find_neighbors(m, 0, 0, eta=0.0)
        assert np.array_equal(ns.rows, [1])

    def test_below_all_distances_empty(self):
        rows = [
            [[0.0], [0.0]],
            [[5.0], [5.0]],
        ]
        m = DistributionalMatrix(rows)
        ns = find_neighbors(m, 0, 0, eta=1.0)
        assert ns.size == 0

    def test_threshold_tie_is_inclusive(self):
        m = shifted_rows_matrix()
        ns = find_neighbors(m, 0, 0, eta=1.0)  # row 2 sits exactly at distance 1
        assert 2 in ns.rows

    def test_monotone_nesting_in_eta(self):
        m = shifted_rows_matrix()
        small = set(find_neighbors(m, 0, 0, eta=0.5).rows.tolist())
        large = set(find_neighbors(m, 0, 0, eta=5.0).rows.tolist())
        assert small <= large

    def test_max_neighbors_keeps_closest(self):
        m = shifted_rows_matrix()
        ns = find_neighbors(m, 0, 0, eta=1e9, max_neighbors=2)
        assert np.array_equal(ns.rows, [1, 2])

    def test_unobserved_target_column_rows_excluded(self):
        m = DistributionalMatrix(
            [
                [[0.0], [0.0]],
                [[0.0], None],
                [[0.0], [0.0]],
            ]
        )
        ns = find_neighbors(m, 0, 1, eta=10.0)
        assert np.array_equal(ns.rows, [2])

    def test_negative_eta_rejected(self):
        with pytest.raises(Exception):
            find_neighbors(shifted_rows_matrix(), 0, 0, eta=-1.0)

    @pytest.mark.parametrize("call", [find_neighbors, impute, bootstrap_band])
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": math.nan},
            {"eta": -1.0},
            {"eta": "1.0"},
            {"eta": None},
            {"eta": 1.0, "min_overlap": 0},
            {"eta": 1.0, "min_overlap": -3},
            {"eta": 1.0, "max_neighbors": 0},
            {"eta": 1.0, "max_neighbors": -1},
            {"eta": 1.0, "min_neighbors": -1},
        ],
    )
    def test_bad_arguments_are_out_of_domain(self, call, kwargs):
        m = shifted_rows_matrix().mask_cell(0, 0)
        if call is bootstrap_band:
            if "min_neighbors" in kwargs:
                pytest.skip("bootstrap_band has no neighbour floor")
            kwargs = {**kwargs, "alpha": 0.1, "levels": [0.5]}
        with pytest.raises(OutOfDomainError):
            call(m, 0, 0, **kwargs)

    def test_infinite_eta_accepts_every_finite_row(self):
        ns = find_neighbors(shifted_rows_matrix(), 0, 0, eta=math.inf)
        assert np.array_equal(ns.rows, [1, 2, 3])


class TestImpute:
    def test_single_neighbor_copies_entry(self):
        m = shifted_rows_matrix()
        result = impute(m, 0, 0, eta=0.0)
        assert np.array_equal(result.estimate.samples, m.entry(1, 0).samples)

    def test_two_neighbor_order_statistic_average(self):
        m = DistributionalMatrix(
            [
                [[1, 1], None],
                [[1, 1], [0, 2]],
                [[1, 1], [4, 6]],
            ]
        )
        result = impute(m, 0, 1, eta=1.0)
        assert np.array_equal(result.estimate.samples, [2, 4])

    def test_identical_rows_idempotent(self):
        m = DistributionalMatrix([[[3, 7], [1, 2]]] * 4)
        result = impute(m, 0, 1, eta=100.0)
        assert np.array_equal(result.estimate.samples, [1, 2])

    def test_no_neighbors_is_typed_error(self):
        rows = [[[0.0], [0.0]], [[9.0], [9.0]]]
        m = DistributionalMatrix(rows)
        with pytest.raises(NoNeighborsError) as err:
            impute(m, 0, 0, eta=0.5)
        assert err.value.row == 0 and err.value.col == 0

    def test_result_carries_summaries_and_neighbors(self):
        m = shifted_rows_matrix()
        result = impute(m, 0, 2, eta=1e9, var_alpha=0.1)
        assert set(result.summaries) == {"mean", "median", "std", "var_at_risk"}
        assert result.neighbors.size == 3

    def test_ragged_neighbors_give_step_quantile(self):
        m = DistributionalMatrix(
            [
                [[0.0], None],
                [[0.0], [0.0]],
                [[0.0], [0.0, 2.0]],
            ]
        )
        result = impute(m, 0, 1, eta=1.0)
        assert isinstance(result.estimate, StepQuantile)
        assert np.all(np.diff(result.estimate.values) >= 0)

    @pytest.mark.parametrize("trial", range(10))
    def test_estimate_is_barycenter_of_neighbor_entries(self, trial):
        rng = np.random.default_rng(600 + trial)
        rows = []
        for _ in range(5):
            rows.append([rng.normal(size=4) for _ in range(3)])
        m = DistributionalMatrix(rows).mask_cell(0, 2)
        result = impute(m, 0, 2, eta=1e9)
        entries = [m.entry(u, 2) for u in result.neighbors.rows]
        objective = sum(w2sq(result.estimate, e) for e in entries)
        for cand in entries:
            assert objective <= sum(w2sq(cand, e) for e in entries) + 1e-12

    def test_translation_equivariance_in_target_column(self):
        # two neighbors and integer samples keep the barycenter arithmetic
        # exact, so the shift carries through bit for bit
        rng = np.random.default_rng(13)
        rows = [[rng.integers(-3, 4, size=3).astype(float) for _ in range(3)] for _ in range(3)]
        m = DistributionalMatrix(rows).mask_cell(0, 1)
        base = impute(m, 0, 1, eta=1e9).estimate
        shifted_rows = [
            [cell if j != 1 else cell + 5.0 for j, cell in enumerate(row)]
            for row in rows
        ]
        m2 = DistributionalMatrix(shifted_rows).mask_cell(0, 1)
        shifted = impute(m2, 0, 1, eta=1e9).estimate
        assert base.n == 3 and impute(m, 0, 1, eta=1e9).neighbors.size == 2
        assert np.array_equal(shifted.samples, base.samples + 5.0)

    def test_target_column_exclusion_invariance(self):
        # distances never involve the target column, so perturbing it can
        # change the barycenter but not who the neighbors are
        rng = np.random.default_rng(14)
        rows = [[rng.normal(size=3) for _ in range(3)] for _ in range(5)]
        m = DistributionalMatrix(rows)
        base = find_neighbors(m.mask_cell(0, 1), 0, 1, eta=2.0)
        perturbed_rows = [
            [cell if j != 1 else cell + rng.normal(size=3) * 100 for j, cell in enumerate(row)]
            for row in rows
        ]
        m2 = DistributionalMatrix(perturbed_rows)
        perturbed = find_neighbors(m2.mask_cell(0, 1), 0, 1, eta=2.0)
        assert np.array_equal(base.rows, perturbed.rows)
        assert np.allclose(base.distances, perturbed.distances, rtol=0, atol=0)

    def test_own_observed_entry_never_used(self):
        rng = np.random.default_rng(15)
        rows = [[rng.normal(size=3) for _ in range(3)] for _ in range(4)]
        m = DistributionalMatrix(rows)
        with_own = impute(m, 0, 1, eta=1e9)
        replaced = [list(r) for r in rows]
        replaced[0][1] = rng.normal(size=3) + 50
        m2 = DistributionalMatrix(replaced)
        without_own = impute(m2, 0, 1, eta=1e9)
        assert np.array_equal(with_own.estimate.samples, without_own.estimate.samples)



class TestNeighborFloor:
    """``min_neighbors``: the nearest rows at any distance when too few pass eta."""

    def test_floor_takes_the_nearest_rows(self):
        # distances to row 0 leaving column 0 out: rows 1, 2, 3 at 0, 1, 9
        m = shifted_rows_matrix().mask_cell(0, 0)
        floored = impute(m, 0, 0, eta=0.5, min_neighbors=2)
        nearest = impute(m, 0, 0, eta=math.inf, max_neighbors=2)
        assert np.array_equal(floored.neighbors.rows, [1, 2])
        assert np.array_equal(floored.neighbors.rows, nearest.neighbors.rows)
        assert np.array_equal(floored.neighbors.distances, nearest.neighbors.distances)
        assert np.array_equal(floored.estimate.samples, nearest.estimate.samples)
        assert floored.neighbors.fallback and floored.neighbors.eta == math.inf
        assert not nearest.neighbors.fallback

    def test_floor_is_capped_by_the_ranked_rows(self):
        m = shifted_rows_matrix().mask_cell(0, 0)
        ns = find_neighbors(m, 0, 0, eta=0.0, min_neighbors=10)
        assert np.array_equal(ns.rows, [1, 2, 3])
        assert ns.fallback and ns.eta == math.inf

    @pytest.mark.parametrize("eta", [0.0, 1.0, 1e9])
    def test_met_floor_changes_nothing(self, eta):
        m = shifted_rows_matrix().mask_cell(0, 0)
        plain = impute(m, 0, 0, eta=eta)
        floored = impute(m, 0, 0, eta=eta, min_neighbors=1)
        assert not floored.neighbors.fallback and floored.neighbors.eta == eta
        assert np.array_equal(floored.neighbors.rows, plain.neighbors.rows)
        assert np.array_equal(floored.estimate.samples, plain.estimate.samples)
        assert floored.summaries == plain.summaries

    def test_no_ranked_row_fails_at_infinite_eta(self):
        # no other row shares a column with row 0 besides the target column
        m = DistributionalMatrix([[[0.0], None], [None, [1.0]], [[2.0], None]])
        with pytest.raises(NoNeighborsError) as err:
            impute(m, 0, 1, eta=1.0, min_neighbors=1)
        assert err.value.eta == math.inf
        with pytest.raises(NoNeighborsError) as err:
            impute(m, 0, 1, eta=1.0)
        assert err.value.eta == 1.0


class TestEveryCell:
    def test_every_cell_of_a_full_grid_is_imputed(self):
        m = shifted_rows_matrix()
        for i in range(m.n_rows):
            for j in range(m.n_cols):
                result = impute(m, i, j, eta=1e9)
                assert result.neighbors.size == m.n_rows - 1

    def test_equal_n_estimates_are_empirical(self):
        m = shifted_rows_matrix()
        for i in range(m.n_rows):
            for j in range(m.n_cols):
                assert isinstance(impute(m, i, j, eta=1e9).estimate, EmpiricalDistribution)

    def test_duplicate_row_instance(self):
        m = DistributionalMatrix(
            [
                [[1, 2], [3, 4], [5, 6]],
                [[1, 2], [3, 4], [5, 6]],
                [[9, 9], [9, 9], None],
            ]
        )
        with pytest.raises(NoNeighborsError):
            impute(m, 2, 2, eta=0.0)
        assert np.array_equal(impute(m, 2, 2, eta=1e9).estimate.samples, [5, 6])
