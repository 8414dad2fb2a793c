"""Asymptotic and bootstrap confidence bands."""

import numpy as np
import pytest

from distnn import (
    DegenerateDensityError,
    DgpSpec,
    DistributionalMatrix,
    OutOfDomainError,
    SigmaFunction,
    asymptotic_band,
    bootstrap_band,
    default_levels,
    generate,
    impute,
    sigma_sq,
)
from distnn import inference


def uniform_sigma(width):
    """Oracle-style evaluator for a single Unif(a, a+width) neighbor:
    density is 1/width everywhere on the support."""
    return SigmaFunction(
        mode="oracle",
        density_at_quantile_fns=(lambda t: np.full_like(np.atleast_1d(t), 1.0 / width),),
    )


class TestSigmaSq:
    def test_single_uniform_neighbor(self):
        sig = uniform_sigma(3.0)
        for t in (0.1, 0.5, 0.9):
            assert sigma_sq(sig, t) == pytest.approx((t - t * t) * 9.0, rel=1e-14)

    def test_two_identical_unit_uniform_neighbors_at_half(self):
        sig = SigmaFunction(
            mode="oracle",
            density_at_quantile_fns=(
                lambda t: np.ones_like(np.atleast_1d(t)),
                lambda t: np.ones_like(np.atleast_1d(t)),
            ),
        )
        assert sigma_sq(sig, 0.5) == pytest.approx(0.25, rel=1e-14)

    def test_t_factorization_for_constant_densities(self):
        sig = uniform_sigma(2.0)
        a = sigma_sq(sig, 0.5) / (0.5 - 0.25)
        b = sigma_sq(sig, 0.25) / (0.25 - 0.0625)
        assert a == pytest.approx(b, rel=1e-14)

    def test_degenerate_density_rejected(self):
        sig = SigmaFunction(
            mode="oracle",
            density_at_quantile_fns=(lambda t: np.zeros_like(np.atleast_1d(t)),),
        )
        with pytest.raises(DegenerateDensityError):
            sigma_sq(sig, 0.5)

    def test_domain(self):
        with pytest.raises(Exception):
            sigma_sq(uniform_sigma(1.0), 0.0)


def simple_result():
    m = DistributionalMatrix(
        [
            [[0.0, 1.0], None],
            [[0.0, 1.0], [2.0, 3.0]],
            [[0.0, 1.0], [4.0, 5.0]],
        ]
    )
    return m, impute(m, 0, 1, eta=1.0)


class TestAsymptoticBand:
    def test_alpha_near_one_collapses(self):
        _, result = simple_result()
        band = asymptotic_band(
            result, uniform_sigma(1.0), n_j=2, alpha=1 - 1e-12,
            levels=[0.25, 0.5, 0.75], simultaneous=False,
        )
        assert np.all(band.half_widths() < 1e-9)

    def test_half_width_scales_as_inverse_sqrt_product(self):
        _, result = simple_result()
        levels = [0.2, 0.5, 0.8]
        h1 = asymptotic_band(result, uniform_sigma(1.0), 50, 0.05, levels).half_widths()
        h2 = asymptotic_band(result, uniform_sigma(1.0), 100, 0.05, levels).half_widths()
        assert np.allclose(h1 / h2, np.sqrt(2.0), rtol=1e-12)

    def test_bonferroni_divides_alpha(self):
        from scipy import stats

        _, result = simple_result()
        levels = default_levels(20)
        sim = asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels, simultaneous=True)
        point = asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels, simultaneous=False)
        # per-level alpha' = 0.05 / 20 = 0.0025
        ratio = sim.half_widths() / point.half_widths()
        expected = stats.norm.ppf(1 - 0.0025 / 2) / stats.norm.ppf(1 - 0.05 / 2)
        assert np.allclose(ratio, expected, rtol=1e-12)

    def test_band_centered_on_estimate(self):
        _, result = simple_result()
        levels = np.array([0.3, 0.7])
        band = asymptotic_band(result, uniform_sigma(1.0), 10, 0.05, levels)
        centers = result.estimate.quantile(levels)
        assert np.allclose(0.5 * (band.lower + band.upper), centers)
        assert np.all(band.lower <= centers) and np.all(centers <= band.upper)

    def test_nesting_in_alpha(self):
        _, result = simple_result()
        levels = [0.25, 0.5, 0.75]
        wide = asymptotic_band(result, uniform_sigma(1.0), 10, 0.01, levels)
        narrow = asymptotic_band(result, uniform_sigma(1.0), 10, 0.10, levels)
        assert np.all(wide.lower <= narrow.lower) and np.all(narrow.upper <= wide.upper)


class TestBootstrapBand:
    def test_degenerate_neighbors_zero_width(self):
        m = DistributionalMatrix(
            [
                [[9.0], None],
                [[9.0], [5.0, 5.0, 5.0]],
                [[9.0], [5.0, 5.0, 5.0]],
            ]
        )
        band = bootstrap_band(m, 0, 1, eta=1.0, alpha=0.05, levels=[0.3, 0.7], seed=1)
        assert np.allclose(band.lower, 5.0) and np.allclose(band.upper, 5.0)

    def test_single_replicate_zero_width(self):
        m, _ = simple_result()
        band = bootstrap_band(
            m, 0, 1, eta=1.0, alpha=0.05, levels=[0.5],
            reps_samples=1, reps_neighbors=1, seed=3,
        )
        assert band.upper[0] == band.lower[0]

    def test_deterministic_per_seed(self):
        m, _ = simple_result()
        kwargs = dict(alpha=0.05, levels=[0.25, 0.75])
        b1 = bootstrap_band(m, 0, 1, 1.0, seed=7, **kwargs)
        b2 = bootstrap_band(m, 0, 1, 1.0, seed=7, **kwargs)
        b3 = bootstrap_band(m, 0, 1, 1.0, seed=8, **kwargs)
        assert np.array_equal(b1.lower, b2.lower) and np.array_equal(b1.upper, b2.upper)
        assert not (
            np.array_equal(b1.lower, b3.lower) and np.array_equal(b1.upper, b3.upper)
        )

    def test_nesting_in_alpha(self):
        m, _ = simple_result()
        levels = [0.25, 0.5, 0.75]
        wide = bootstrap_band(m, 0, 1, 1.0, 0.02, levels, seed=5)
        narrow = bootstrap_band(m, 0, 1, 1.0, 0.40, levels, seed=5, simultaneous=False)
        assert np.all(wide.lower <= narrow.lower) and np.all(narrow.upper <= wide.upper)

    def test_method_tag(self):
        m, _ = simple_result()
        band = bootstrap_band(m, 0, 1, 1.0, 0.05, [0.5], seed=2)
        assert band.method == "bootstrap" and band.simultaneous

    @pytest.mark.parametrize(
        "kwargs", [{"alpha": 1.5}, {"alpha": 0.0}, {"reps_samples": 0}, {"reps_neighbors": -1}]
    )
    def test_bad_arguments_fail_before_the_neighbour_search(self, kwargs, monkeypatch):
        m, _ = simple_result()
        monkeypatch.setattr(inference, "impute", lambda *a, **k: pytest.fail("searched"))
        with pytest.raises(OutOfDomainError):
            bootstrap_band(m, 0, 1, **{"eta": 1.0, "alpha": 0.05, "levels": [0.5], **kwargs})


class TestKdeMode:
    def test_kde_sigma_positive_and_band_builds(self):
        rng = np.random.default_rng(17)
        m = DistributionalMatrix(
            [
                [rng.normal(size=30), None],
                [rng.normal(size=30), rng.normal(size=50)],
                [rng.normal(size=30), rng.normal(size=50)],
            ]
        )
        result = impute(m, 0, 1, eta=10.0)
        sigma = SigmaFunction.from_result(m, result)
        assert sigma.mode == "kde"
        val = sigma_sq(sigma, 0.5)
        assert np.isfinite(val) and val > 0
        band = asymptotic_band(result, sigma, 50, 0.05, default_levels(9))
        assert band.method == "asymptotic_kde"
        assert np.all(band.upper >= band.lower)

    @pytest.mark.parametrize("flat", [[5.0, 5.0, 5.0], [5.0]], ids=["equal", "single"])
    def test_neighbor_without_spread_is_degenerate(self, flat):
        m = DistributionalMatrix(
            [
                [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],
                [flat, [1.0, 2.0, 4.0]],
                [None, [1.0, 2.0, 3.0]],
            ]
        )
        result = impute(m, 2, 0, eta=100.0)
        assert result.neighbors.rows.tolist() == [0, 1]
        with pytest.raises(DegenerateDensityError, match="KDE"):
            SigmaFunction.from_result(m, result)


class TestOracleCoverageSmoke:
    def test_pointwise_coverage_near_nominal(self):
        # small version of the oracle-mode coverage experiment
        trials, hits = 120, 0
        root = np.random.SeedSequence(2024)
        for child in root.spawn(trials):
            rng = np.random.default_rng(child)
            spec = DgpSpec(
                kind="heteroscedastic",
                base_family="uniform",
                location_range=(-0.001, 0.001),
                scale_range=(1.0, 5.0),
                n_per_entry=2000,
                seed=int(rng.integers(2**63)),
            )
            full, truth = generate(spec, 12, 4)
            i, j = 0, 0
            masked = full.mask_cell(i, j)
            result = impute(masked, i, j, eta=np.inf, max_neighbors=4)
            sigma = SigmaFunction.from_true_distributions(
                truth, result.neighbors.rows, j
            )
            band = asymptotic_band(
                result, sigma, n_j=2000, alpha=0.05, levels=[0.5], simultaneous=False
            )
            true_median = truth.quantile(i, j, 0.5)
            hits += int(band.lower[0] <= true_median <= band.upper[0])
        coverage = hits / trials
        assert 0.85 <= coverage <= 1.0
