"""Synthetic data-generating processes and their exact scoring."""

import numpy as np
import pytest
from scipy import integrate

from distnn import DgpSpec, DistributionalMatrix, from_samples, generate, true_w2, w2sq
from distnn.empirical import StepQuantile
from distnn.errors import OutOfDomainError
from distnn.exact import uniform_empirical_expected_w2_sq
from distnn.synthetic import TrueDistributions, make_base


def toy_truth(locs, scales, base="uniform"):
    loc = np.asarray(locs, dtype=float)
    scale = np.asarray(scales, dtype=float)
    spec = DgpSpec(base_family=base, n_per_entry=1)
    return TrueDistributions(
        make_base(base), loc, scale,
        np.ones(loc.shape[1], dtype=np.int64), None, spec,
    )


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = DgpSpec(n_per_entry=20, seed=99)
        m1, t1 = generate(spec, 4, 5)
        m2, t2 = generate(spec, 4, 5)
        for i in range(4):
            for j in range(5):
                assert np.array_equal(m1.entry(i, j).samples, m2.entry(i, j).samples)
        assert np.array_equal(t1.loc, t2.loc)

    def test_seed_changes_output(self):
        m1, _ = generate(DgpSpec(n_per_entry=20, seed=1), 3, 3)
        m2, _ = generate(DgpSpec(n_per_entry=20, seed=2), 3, 3)
        assert not np.array_equal(m1.entry(0, 0).samples, m2.entry(0, 0).samples)

    def test_homoscedastic_sigma_zero_degenerate(self):
        spec = DgpSpec(kind="homoscedastic", sigma=0.0, n_per_entry=10, seed=3, latent_dim=2)
        m, truth = generate(spec, 3, 4)
        for i in range(3):
            for j in range(4):
                expected = float(
                    truth.factors.row_factors[i] @ truth.factors.col_factors[j]
                )
                assert np.allclose(m.entry(i, j).samples, expected, rtol=0, atol=1e-15)

    def test_heteroscedastic_identity_factors(self):
        spec = DgpSpec(
            kind="heteroscedastic",
            location_range=(0.0, 0.0),
            scale_range=(1.0, 1.0),
            n_per_entry=500,
            seed=4,
        )
        m, truth = generate(spec, 2, 2)
        assert np.all(truth.loc == 0.0) and np.all(truth.scale == 1.0)
        samples = m.entry(0, 0).samples
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_per_column_sample_counts(self):
        spec = DgpSpec(n_per_entry=[3, 5], seed=0)
        m, truth = generate(spec, 2, 2)
        assert m.entry(0, 0).n == 3 and m.entry(0, 1).n == 5

    def test_entries_follow_true_quantiles(self):
        # one-sample sanity check from the exact expectation for uniforms
        spec = DgpSpec(base_family="uniform", n_per_entry=50, seed=7)
        m, truth = generate(spec, 12, 8)
        errors, expected = [], []
        for i in range(12):
            for j in range(8):
                errors.append(truth.w2sq_error(i, j, m.entry(i, j)))
                width = truth.scale[i, j]
                expected.append(
                    uniform_empirical_expected_w2_sq(0.0, width, 50)
                )
        errors = np.asarray(errors)
        expected = np.asarray(expected)
        z = (errors.mean() - expected.mean()) / (errors.std(ddof=1) / np.sqrt(errors.size))
        assert abs(z) < 3.0


class TestTrueW2:
    def test_pure_shift(self):
        truth = toy_truth([[0.0], [2.0], [4.0]], [[1.0], [1.0], [1.0]])
        assert true_w2(truth, (0, 0), (1, 0)) == pytest.approx(2.0, rel=1e-14)
        assert true_w2(truth, (0, 0), (2, 0)) == pytest.approx(4.0, rel=1e-14)

    def test_identical_cells(self):
        truth = toy_truth([[1.0], [1.0]], [[2.0], [2.0]])
        assert true_w2(truth, (0, 0), (1, 0)) == 0.0

    def test_strict_support_ordering(self):
        truth = toy_truth([[0.0], [2.0], [4.0]], [[1.0], [1.0], [1.0]])
        assert true_w2(truth, (0, 0), (1, 0)) < true_w2(truth, (0, 0), (2, 0))

    @pytest.mark.parametrize("base", ["uniform", "gaussian", "truncated_gaussian"])
    def test_matches_quadrature_oracle(self, base):
        truth = toy_truth([[0.5], [-1.0]], [[1.5], [2.5]], base=base)
        fam = truth.base

        def integrand(t):
            qa = 0.5 + 1.5 * fam.ppf(t)
            qb = -1.0 + 2.5 * fam.ppf(t)
            return (qa - qb) ** 2

        expected, _ = integrate.quad(integrand, 0.0, 1.0)
        assert true_w2(truth, (0, 0), (1, 0)) ** 2 == pytest.approx(expected, rel=1e-9)


def piecewise_quad(truth, est, loc, s, **quad_kw):
    """Reference W2² to loc + s * Q0 by adaptive quadrature on each piece."""
    fam = truth.base
    total = 0.0
    left = 0.0
    for edge, value in zip(est.step_edges(), est.step_values()):
        total += integrate.quad(
            lambda t, v=value: (v - (loc + s * fam.ppf(t))) ** 2, left, edge,
            full_output=1, **quad_kw,
        )[0]
        left = edge
    return total


class TestW2sqError:
    @pytest.mark.parametrize("base", ["uniform", "gaussian", "truncated_gaussian"])
    def test_matches_piecewise_quadrature(self, base):
        truth = toy_truth([[0.3]], [[1.7]], base=base)
        rng = np.random.default_rng(5)
        est = from_samples(rng.normal(0.3, 1.0, size=24))
        rel = 1e-12 if base == "uniform" else 1e-8
        expected = piecewise_quad(truth, est, 0.3, 1.7)
        assert truth.w2sq_error(0, 0, est) == pytest.approx(expected, rel=rel)

    def test_zero_for_matching_step_function(self):
        truth = toy_truth([[0.0]], [[1.0]])
        grid = np.linspace(0.005, 1.0, 200)
        est = StepQuantile(grid, grid)  # not the true quantile, but close
        small = truth.w2sq_error(0, 0, est)
        assert 0 < small < 1e-4

    def test_agrees_with_generic_w2sq_on_uniform_atoms(self):
        # a uniform cell compared against an empirical estimate two ways:
        # the analytic path and a fine discretization of the truth
        truth = toy_truth([[0.0]], [[2.0]])
        est = from_samples([0.1, 0.5, 1.9])
        analytic = truth.w2sq_error(0, 0, est)
        n_fine = 20000
        fine = from_samples((np.arange(1, n_fine + 1) - 0.5) / n_fine * 2.0)
        approx = w2sq(est, fine)
        assert analytic == pytest.approx(approx, abs=2e-6)

    @pytest.mark.parametrize("base", ["gaussian", "truncated_gaussian"])
    @pytest.mark.parametrize("edges", [(0.001, 0.6, 1.0), (0.5, 0.999, 1.0)])
    def test_three_piece_step_is_exact(self, base, edges):
        # both boundary pieces carry the singular tails of the base quantile
        truth = toy_truth([[0.3]], [[1.7]], base=base)
        est = StepQuantile(np.asarray(edges), np.array([-1.0, 0.4, 2.0]))
        expected = piecewise_quad(truth, est, 0.3, 1.7, epsabs=0, epsrel=1e-13, limit=200)
        assert truth.w2sq_error(0, 0, est) == pytest.approx(expected, rel=1e-12)

    def test_large_gaussian_sample_is_finite(self):
        truth = toy_truth([[0.3]], [[1.7]], base="gaussian")
        rng = np.random.default_rng(5)
        est = from_samples(rng.normal(0.3, 1.7, size=16_385))
        got = truth.w2sq_error(0, 0, est)
        assert np.isfinite(got)
        assert got == pytest.approx(piecewise_quad(truth, est, 0.3, 1.7), rel=1e-8)

    @pytest.mark.parametrize("base", ["uniform", "gaussian", "truncated_gaussian"])
    @pytest.mark.parametrize("value", [0.0, 1.3])
    def test_single_sample_scores_second_moment(self, base, value):
        # ∫(c - s Q0)² = c² - 2 c s m1 + s² m2 with c = v - loc
        truth = toy_truth([[0.3]], [[1.7]], base=base)
        fam = truth.base
        c = value - 0.3
        expected = c * c - 2.0 * c * 1.7 * fam.m1 + 1.7**2 * fam.m2
        got = truth.w2sq_error(0, 0, from_samples([value]))
        assert got == pytest.approx(expected, rel=1e-12)


class TestSpecChecks:
    @pytest.mark.parametrize("field, value, message", [
        ("location_range", (5.0, -5.0), "location_range"),
        ("sigma", -1.0, "sigma"),
        ("latent_dim", 0, "latent_dim"),
    ])
    def test_bad_field_is_out_of_domain(self, field, value, message):
        with pytest.raises(OutOfDomainError, match=message):
            DgpSpec(**{field: value})

    def test_per_column_counts_must_be_positive(self):
        for counts in [(5, 0), -2**64, (3, 3, 3), [[3], [3]]]:
            with pytest.raises(OutOfDomainError, match="n_per_entry must be positive"):
                DgpSpec(n_per_entry=counts).n_for_columns(2)

    @pytest.mark.parametrize("counts", [2.5, 2.0, "3", True, np.nan, (5, 9.5), ("5", "9"),
                                        (3, True), [4, np.True_]])
    def test_sample_counts_must_be_integers(self, counts):
        with pytest.raises(OutOfDomainError, match="n_per_entry must hold integer sample counts"):
            DgpSpec(n_per_entry=counts).n_for_columns(2)

    @pytest.mark.parametrize("counts", [2**63, np.uint64(2**63), (np.uint64(2**63), np.uint64(3)),
                                        2**64, (3, 2**63), (-1, 2**63)])
    def test_counts_beyond_int64_are_out_of_range(self, counts):
        with pytest.raises(OutOfDomainError, match="n_per_entry is out of range"):
            DgpSpec(n_per_entry=counts).n_for_columns(2)

    @pytest.mark.parametrize("counts", [3, np.int32(3), np.uint8(3), (3, 3), np.array([3, 3])])
    def test_integer_counts_of_any_width(self, counts):
        ns = DgpSpec(n_per_entry=counts).n_for_columns(2)
        assert ns.dtype == np.int64 and ns.tolist() == [3, 3]

    def test_density_of_a_zero_scale_cell(self):
        _, truth = generate(DgpSpec(kind="homoscedastic", sigma=0.0, n_per_entry=3), 2, 2)
        with pytest.raises(OutOfDomainError, match="degenerate"):
            truth.density_at_quantile(0, 0, 0.5)

    def test_unknown_base_family(self):
        with pytest.raises(OutOfDomainError, match="unknown base family: 'cauchy'"):
            make_base("cauchy")


class TestTruncation:
    @pytest.mark.parametrize("cut", [0.0, -1.0, float("nan")])
    def test_make_base_rejects_non_positive_cut(self, cut):
        with pytest.raises(OutOfDomainError):
            make_base("truncated_gaussian", cut)

    @pytest.mark.parametrize("cut", [0.0, -2.0])
    def test_generate_fails_with_typed_error(self, cut):
        spec = DgpSpec(base_family="truncated_gaussian", truncation=cut, n_per_entry=5)
        with pytest.raises(OutOfDomainError):
            generate(spec, 3, 2)


class TestLipschitzWitness:
    def test_unit_location_range_has_unit_constant(self):
        spec = DgpSpec(
            kind="heteroscedastic",
            location_range=(0.0, 1.0),
            scale_range=(2.0, 2.0),
            n_per_entry=5,
            seed=11,
        )
        _, truth = generate(spec, 10, 3)
        x = truth.factors.row_factors[:, 0]
        for i in range(10):
            for u in range(10):
                if i == u:
                    continue
                dist = true_w2(truth, (i, 0), (u, 0))
                assert dist <= abs(x[i] - x[u]) + 1e-12


class TestCellSummaries:
    def test_uniform_closed_forms(self):
        truth = toy_truth([[1.0]], [[2.0]])  # U(1, 3)
        got = truth.cell_summaries(0, 0, var_alpha=0.05)
        assert got["mean"] == pytest.approx(2.0)
        assert got["median"] == pytest.approx(2.0)
        assert got["std"] == pytest.approx(2.0 / np.sqrt(12.0))
        assert got["var_at_risk"] == pytest.approx(-(1.0 + 2.0 * 0.05))

    def test_matches_large_sample_empirical(self):
        spec = DgpSpec(base_family="truncated_gaussian", n_per_entry=200_000, seed=21)
        m, truth = generate(spec, 1, 1)
        emp = m.entry(0, 0)
        from distnn import summaries

        got = truth.cell_summaries(0, 0, var_alpha=0.05)
        est = summaries(emp, 0.05)
        for key in got:
            assert got[key] == pytest.approx(est[key], abs=0.05)

    def test_spec_validation(self):
        with pytest.raises(Exception):
            DgpSpec(scale_range=(0.0, 1.0))
        with pytest.raises(Exception):
            DgpSpec(kind="other")
