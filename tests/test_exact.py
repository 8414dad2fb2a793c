"""Closed-form uniform results and the brute-force transport reference."""

import numpy as np
import pytest

from distnn import (
    OutOfDomainError,
    SizeMismatchError,
    TooLargeError,
    UniformPair,
    brute_force_w2_sq,
    from_samples,
    uniform_barycenter_expected_w2_sq,
    uniform_empirical_expected_w2_sq,
    uniform_pair_empirical_expected_w2_sq,
    uniform_w2_sq,
    w2_equal_n,
)


class TestUniformW2:
    def test_identity(self):
        assert uniform_w2_sq(UniformPair(0, 1, 0, 1)) == 0.0

    def test_shift_by_two(self):
        # (1/3) * (4 + 4 + 4) = 4
        assert uniform_w2_sq(UniformPair(0, 1, 2, 3)) == 4.0

    def test_width_change(self):
        # (1/3) * (0 + 1 + 0) = 1/3
        assert uniform_w2_sq(UniformPair(0, 2, 0, 1)) == pytest.approx(1 / 3, rel=1e-15)

    def test_invalid_interval(self):
        with pytest.raises(OutOfDomainError):
            UniformPair(1, 1, 0, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: uniform_empirical_expected_w2_sq(0, 1, 0),
            lambda: uniform_pair_empirical_expected_w2_sq(UniformPair(0, 1, 0, 1), 0),
            lambda: uniform_barycenter_expected_w2_sq([], 5),
            lambda: uniform_barycenter_expected_w2_sq([(0, 1)], 0),
        ],
        ids=["empirical-n", "pair-n", "no-intervals", "barycenter-n"],
    )
    def test_invalid_count_is_out_of_domain(self, call):
        with pytest.raises(OutOfDomainError):
            call()


class TestEmpiricalExpectations:
    def test_unit_interval_single_sample(self):
        assert uniform_empirical_expected_w2_sq(0, 1, 1) == pytest.approx(1 / 6)

    def test_width_six(self):
        assert uniform_empirical_expected_w2_sq(0, 6, 6) == pytest.approx(1.0)

    def test_scales_with_squared_width(self):
        base = uniform_empirical_expected_w2_sq(0, 1, 10)
        assert uniform_empirical_expected_w2_sq(0, 3, 10) == pytest.approx(9 * base)

    def test_pair_identical_intervals(self):
        p = UniformPair(0, 1, 0, 1)
        assert uniform_pair_empirical_expected_w2_sq(p, 1) == pytest.approx(1 / 6)

    def test_pair_limit_is_true_distance(self):
        p = UniformPair(0, 1, 2, 3)
        assert uniform_pair_empirical_expected_w2_sq(p, 10**9) == pytest.approx(4.0, rel=1e-8)

    def test_pair_hand_value(self):
        p = UniformPair(0, 1, 0, 2)
        assert uniform_pair_empirical_expected_w2_sq(p, 2) == pytest.approx(1 / 3 + 2 / 9)


class TestBarycenterExpectation:
    def test_single_interval_reduces_to_empirical_formula(self):
        assert uniform_barycenter_expected_w2_sq([(0, 1)], 1) == pytest.approx(1 / 6)
        for n in (1, 5, 50):
            assert uniform_barycenter_expected_w2_sq([(0, 1)], n) == pytest.approx(
                uniform_empirical_expected_w2_sq(0, 1, n)
            )

    def test_ten_by_ten(self):
        assert uniform_barycenter_expected_w2_sq([(0, 1)] * 10, 10) == pytest.approx(1 / 330)

    def test_degenerate_width_is_zero(self):
        assert uniform_barycenter_expected_w2_sq([(2, 2), (5, 5)], 4) == 0.0


class TestBruteForce:
    def test_identity(self):
        d = from_samples([1, 2])
        assert brute_force_w2_sq(d, d) == 0.0

    def test_matches_sorted_matching(self):
        a, b = from_samples([0, 1]), from_samples([1, 3])
        assert brute_force_w2_sq(a, b) == pytest.approx(2.5, rel=1e-15)

    @pytest.mark.parametrize("trial", range(20))
    def test_agrees_with_fast_formula(self, trial):
        rng = np.random.default_rng(900 + trial)
        a = from_samples(rng.normal(size=4))
        b = from_samples(rng.normal(size=4))
        assert brute_force_w2_sq(a, b) == pytest.approx(
            w2_equal_n(a, b) ** 2, rel=1e-12, abs=1e-15
        )

    def test_size_cap(self):
        d = from_samples(np.arange(7))
        with pytest.raises(TooLargeError):
            brute_force_w2_sq(d, d)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            brute_force_w2_sq(from_samples([1]), from_samples([1, 2]))
