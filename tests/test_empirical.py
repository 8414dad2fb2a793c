"""Tests for the empirical distribution primitives.

Reference values are either hand-derived from the step-quantile definition
or computed by independent oracles defined here (rank enumeration, measure
refinement to a common atom count, permutation search).
"""

import math
import warnings

import numpy as np
import pytest

from distnn import (
    EmptyCollectionError,
    EmptyInputError,
    NonFiniteSampleError,
    OutOfDomainError,
    SizeMismatchError,
    StepQuantile,
    barycenter,
    brute_force_w2_sq,
    from_samples,
    step_barycenter,
    summaries,
    w2_equal_n,
    w2_general,
    w2sq,
)
from distnn import empirical


def quantile_by_enumeration(sorted_samples, t):
    """Oracle: the smallest k with k/n >= t, scanning ranks one by one."""
    n = len(sorted_samples)
    for k in range(1, n + 1):
        if k / n >= t:
            return sorted_samples[k - 1]
    return sorted_samples[-1]


def w2sq_by_refinement(x, y):
    """Oracle for unequal sizes: repeat atoms up to lcm(nx, ny) so both
    measures have equal atom counts, then use the sorted-matching sum."""
    nx, ny = len(x), len(y)
    common = math.lcm(nx, ny)
    rx = np.repeat(np.sort(x), common // nx)
    ry = np.repeat(np.sort(y), common // ny)
    return float(np.mean((rx - ry) ** 2))


class TestFromSamples:
    def test_sorts_input(self):
        assert np.array_equal(from_samples([3, 1, 2]).samples, [1, 2, 3])

    def test_singleton(self):
        d = from_samples([5])
        assert d.n == 1 and d.samples[0] == 5

    def test_duplicates_preserved(self):
        assert np.array_equal(from_samples([1, 1, 1]).samples, [1, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            from_samples([])

    @pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf, 0.0], [-np.inf]])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteSampleError):
            from_samples(bad)

    @pytest.mark.parametrize("bad", [
        [1.5, True], (False, 2.0), [1.5, np.bool_(True)], [[1.5, 2.0], [True, 3.0]],
    ])
    def test_boolean_beside_floats_rejected(self, bad):
        with pytest.raises(OutOfDomainError):
            from_samples(bad)

    def test_stored_array_read_only(self):
        d = from_samples([2, 1])
        with pytest.raises(ValueError):
            d.samples[0] = 7


class TestQuantile:
    def test_midpoint(self):
        assert from_samples([1, 2, 3, 4]).quantile(0.5) == 2

    def test_singleton_any_level(self):
        d = from_samples([7])
        for t in (0.001, 0.5, 0.999):
            assert d.quantile(t) == 7

    def test_above_half_on_two_atoms(self):
        # k = ceil(0.75 * 2) = 2
        d = from_samples([0, 10])
        assert d.quantile(0.75) == 10
        assert d.quantile(0.75) == quantile_by_enumeration(d.samples, 0.75)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 97])
    def test_matches_rank_enumeration(self, n):
        rng = np.random.default_rng(n)
        d = from_samples(rng.normal(size=n))
        for t in rng.uniform(1e-6, 1 - 1e-6, 50):
            assert d.quantile(t) == quantile_by_enumeration(d.samples, t)

    @pytest.mark.parametrize("n", [3, 10, 100, 2000])
    def test_breakpoints_hit_order_statistics(self, n):
        # levels written as k/n must land on the k-th order statistic even
        # when t*n rounds slightly above k in floating point
        d = from_samples(np.arange(n, dtype=float))
        ks = np.arange(1, n + 1)
        assert np.array_equal(d.quantile(ks[:-1] / n), d.samples[: n - 1])

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.5, np.nan])
    def test_domain(self, t):
        with pytest.raises(OutOfDomainError):
            from_samples([1, 2]).quantile(t)


class TestW2EqualN:
    def test_identity(self):
        d = from_samples([1, 2, 3])
        assert w2_equal_n(d, d) == 0.0

    def test_constant_shift(self):
        assert w2_equal_n(from_samples([0, 0]), from_samples([2, 2])) == 2.0

    def test_hand_sum(self):
        # ((0-1)^2 + (1-3)^2) / 2 = 2.5
        got = w2_equal_n(from_samples([0, 1]), from_samples([1, 3]))
        assert got == pytest.approx(math.sqrt(2.5), rel=1e-15)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            w2_equal_n(from_samples([1]), from_samples([1, 2]))

    def test_symmetry_and_input_order_irrelevance(self):
        a = from_samples([3, 0, 5])
        b = from_samples([5, 3, 0])
        assert w2_equal_n(a, b) == 0.0


class TestW2General:
    def test_identity(self):
        d = from_samples([0, 1])
        assert w2_general(d, d) == 0.0

    def test_matches_equal_n_bit_for_bit(self):
        a, b = from_samples([0, 1]), from_samples([1, 3])
        assert w2_general(a, b) == w2_equal_n(a, b)

    def test_piecewise_integration_hand_case(self):
        # quantile gap is 0 on (0, .5] and 2 on (.5, 1]
        got = w2_general(from_samples([0]), from_samples([0, 2]))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_support_ordering(self):
        u01 = from_samples([0, 1])
        assert w2_general(u01, from_samples([2, 3])) < w2_general(u01, from_samples([4, 5]))

    @pytest.mark.parametrize("trial", range(30))
    def test_ragged_matches_refinement_oracle(self, trial):
        rng = np.random.default_rng(1000 + trial)
        nx, ny = rng.integers(1, 7, size=2)
        x = rng.integers(-5, 6, size=nx).astype(float)
        y = rng.integers(-5, 6, size=ny).astype(float)
        expected = w2sq_by_refinement(x, y)
        assert w2sq(from_samples(x), from_samples(y)) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_reads_no_column_block(self, monkeypatch):
        # the per-pair reference reads each argument on its own breakpoints,
        # not through the column-block readers of the fast paths it checks
        rng = np.random.default_rng(7)
        cell = from_samples(rng.normal(size=137))
        pairs = [
            (from_samples(rng.normal(size=200)), from_samples(rng.normal(size=200))),
            (from_samples(rng.normal(size=150)), from_samples(rng.normal(size=173))),
            (StepQuantile([0.1, 0.35, 0.5, 0.8, 1.0], [-1.0, -0.2, 0.3, 0.9, 2.0]), cell),
            (cell, StepQuantile(cell.step_edges(), cell.samples + 0.5)),
        ]
        expected = [w2sq(a, b).hex() for a, b in pairs]

        def refuse(*args, **kwargs):
            raise AssertionError("w2sq read a column block")

        for name in ("_gather", "_block_grid", "_block_rows", "_column_block"):
            monkeypatch.setattr(empirical, name, refuse)
        assert [w2sq(a, b).hex() for a, b in pairs] == expected
        assert [w2sq(b, a).hex() for a, b in pairs] == expected

    @pytest.mark.parametrize("trial", range(20))
    def test_equal_n_agreement(self, trial):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(1, 30))
        a = from_samples(rng.normal(size=n))
        b = from_samples(rng.normal(size=n))
        ga = w2_general(a, b) ** 2
        ea = w2_equal_n(a, b) ** 2
        assert ga == pytest.approx(ea, rel=1e-12, abs=1e-15)


class TestBarycenter:
    def test_order_statistic_means(self):
        b = barycenter([from_samples([1, 3]), from_samples([5, 7])])
        assert np.array_equal(b.samples, [3, 5])

    def test_single_input_identity(self):
        d = from_samples([2, 9, 4])
        assert np.array_equal(barycenter([d]).samples, d.samples)

    def test_column_means_of_sorted(self):
        b = barycenter([from_samples([0, 0]), from_samples([0, 2]), from_samples([0, 4])])
        assert np.array_equal(b.samples, [0, 2])

    def test_empty_collection(self):
        with pytest.raises(EmptyCollectionError):
            barycenter([])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            barycenter([from_samples([1]), from_samples([1, 2])])

    @pytest.mark.parametrize("trial", range(25))
    def test_minimizes_sum_of_squared_w2_locally(self, trial):
        # brute-force local oracle: perturbing any barycenter atom by grid
        # steps never lowers the objective
        rng = np.random.default_rng(3000 + trial)
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        ds = [from_samples(rng.integers(-3, 4, size=n)) for _ in range(k)]
        center = barycenter(ds)
        objective = sum(w2sq(center, d) for d in ds)
        for atom in range(n):
            for delta in (-1.0, -0.5, 0.5, 1.0):
                cand_samples = center.samples.copy()
                cand_samples[atom] += delta
                cand = from_samples(cand_samples)
                cand_obj = sum(w2sq(cand, d) for d in ds)
                assert objective <= cand_obj + 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_sorted_matching_is_optimal_coupling(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(1, 6))
        a = from_samples(rng.integers(-4, 5, size=n))
        b = from_samples(rng.integers(-4, 5, size=n))
        assert w2_equal_n(a, b) ** 2 == pytest.approx(
            brute_force_w2_sq(a, b), rel=1e-12, abs=1e-15
        )


class TestBarycenterNearTheFloatLimit:
    """The members' sum overflows where their mean does not: those entries
    are the sum of member / k, and every finite mean keeps its bits."""

    @pytest.mark.parametrize("top", [1.5e308, np.finfo(float).max])
    @pytest.mark.parametrize("k", [2, 3, 9, 11])
    def test_equal_members_return_their_samples(self, top, k):
        # at the largest double, the sum of three of its thirds rounds past it
        a = from_samples([1e308, top])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(barycenter([a] * k).samples, a.samples)
            assert np.array_equal(step_barycenter([a] * k).values, a.samples)

    def test_only_the_overflowing_entries_are_taken_again(self):
        a, b = from_samples([0.1, 1.5e308]), from_samples([0.7, 1.7e308])
        c, d = from_samples([-0.3, 1.7e308]), from_samples([0.2, 1e307])
        got = barycenter([a, b, c, d]).samples
        stacked = np.vstack([a.samples, b.samples, c.samples, d.samples])
        assert got[0] == stacked[:, 0].mean()
        assert got[1] == np.sum(stacked[:, 1] / 4)
        assert np.isfinite(got).all()

    def test_an_entry_with_a_non_finite_member_keeps_its_mean(self):
        # only the library builds such a member: from_samples refuses it
        a, b = from_samples([1e308]), empirical._presorted([-np.inf])
        assert np.isnan(barycenter([a, a, b]).samples).all()

    @pytest.mark.parametrize("budget", [1, 1 << 20])
    def test_ragged_members_are_finite_without_a_warning(self, budget, monkeypatch):
        # the merged grid is 1/3, 1/2, 2/3, 1: the first member's order
        # statistics 1, 1, 2, 2 on it, the second one's 1, 2, 2, 3
        monkeypatch.setattr(empirical, "_GATHER_ELEMENTS", budget)
        a, b = from_samples([1e308, 1.5e308]), from_samples([1.2e308, 1.6e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_barycenter([a, b, a])
        on_grid = [np.array([1e308, 1e308, 1.5e308, 1.5e308]),
                   np.array([1.2e308, 1.6e308, 1.6e308, 1.7e308])]
        assert np.array_equal(got.edges, [1 / 3, 0.5, 2 / 3, 1.0])
        assert np.array_equal(got.values, on_grid[0] / 3 + on_grid[1] / 3 + on_grid[0] / 3)

    def test_finite_ragged_means_keep_their_bits(self):
        ds = [from_samples([0.1, 0.2]), from_samples([0.3, 0.5, 0.9]), from_samples([0.4])]
        got = step_barycenter(ds).values
        edges, _, take = empirical._block_grid(
            empirical._column_block([d.samples for d in ds]), np.arange(3))
        assert np.array_equal(got, np.cumsum(take(0, 3), axis=0)[-1] / 3)


class TestStepBarycenter:
    def test_matches_equal_n_barycenter_as_measure(self):
        ds = [from_samples([0, 2]), from_samples([1, 5])]
        assert w2sq(step_barycenter(ds), barycenter(ds)) == 0.0

    def test_empty_collection(self):
        with pytest.raises(EmptyCollectionError):
            step_barycenter([])

    def test_step_quantile_member_rejected(self):
        step = StepQuantile([0.5, 1.0], [0.0, 1.0])
        with pytest.raises(OutOfDomainError, match="empirical distributions only"):
            step_barycenter([from_samples([0.0, 2.0]), step])

    def test_ragged_hand_case(self):
        # members [0] and [0, 2]: mean quantile is 0 on (0, .5] and 1 on (.5, 1]
        b = step_barycenter([from_samples([0]), from_samples([0, 2])])
        assert np.array_equal(b.edges, [0.5, 1.0])
        assert np.array_equal(b.values, [0.0, 1.0])

    @pytest.mark.parametrize("trial", range(15))
    def test_not_beaten_by_member_entries(self, trial):
        rng = np.random.default_rng(5000 + trial)
        ds = [
            from_samples(rng.normal(size=int(rng.integers(1, 8))))
            for _ in range(int(rng.integers(2, 5)))
        ]
        center = step_barycenter(ds)
        objective = sum(w2sq(center, d) for d in ds)
        for cand in ds:
            assert objective <= sum(w2sq(cand, d) for d in ds) + 1e-12


class TestSummaries:
    def test_degenerate(self):
        got = summaries(from_samples([1, 1, 1]), 0.05)
        assert got == {"mean": 1, "median": 1, "std": 0, "var_at_risk": -1}

    def test_population_std_two_points(self):
        got = summaries(from_samples([-2, 2]), 0.05)
        assert got["mean"] == 0 and got["std"] == 2

    def test_var_by_negation_oracle(self):
        samples = np.arange(1, 101, dtype=float)
        negated = from_samples(-samples)
        expected = negated.quantile(0.95)
        got = summaries(from_samples(samples), 0.05)
        assert got["var_at_risk"] == expected == -6

    def test_alpha_domain(self):
        with pytest.raises(OutOfDomainError):
            summaries(from_samples([1]), 1.0)

    def test_overflowing_std_is_infinite_without_warnings(self):
        """Called directly, outside the panel commands' error state."""
        d = from_samples([1e308, -1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert summaries(d)["std"] == d.std() == math.inf

    def test_overflowing_mean_gives_no_warning(self):
        # the k/n grid's sum overflows here, so the mean is taken again as the
        # sum of each value over n, held within the values' range
        d = from_samples([1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = summaries(d)
            assert got["mean"] == d.mean() == 1.7e308
            assert got["std"] == d.std() == 0.0

    def test_step_quantile_summaries_match_empirical(self):
        rng = np.random.default_rng(11)
        d = from_samples(rng.normal(size=40))
        step = StepQuantile(d.step_edges(), d.samples)
        assert summaries(step, 0.1) == pytest.approx(summaries(d, 0.1))


class TestStepQuantile:
    def test_validation(self):
        with pytest.raises(OutOfDomainError):
            StepQuantile(np.array([0.5, 0.9]), np.array([0.0, 1.0]))  # no final 1
        with pytest.raises(OutOfDomainError):
            StepQuantile(np.array([0.5, 1.0]), np.array([1.0, 0.0]))  # decreasing

    def test_unequal_shapes(self):
        with pytest.raises(SizeMismatchError, match="equal-length"):
            StepQuantile(np.array([0.5, 1.0]), np.array([0.0]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_var_at_risk_alpha_domain(self, alpha):
        with pytest.raises(OutOfDomainError, match="alpha must lie in"):
            StepQuantile(np.array([0.5, 1.0]), np.array([0.0, 1.0])).var_at_risk(alpha)

    def test_step_evaluation(self):
        s = StepQuantile(np.array([0.25, 1.0]), np.array([-1.0, 3.0]))
        assert s.quantile(0.1) == -1.0
        assert s.quantile(0.25) == -1.0
        assert s.quantile(0.26) == 3.0
