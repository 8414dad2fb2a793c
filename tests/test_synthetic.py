"""Synthetic data-generating processes and their exact scoring."""

import dataclasses
import os
import pickle
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from distnn import DgpSpec, DistributionalMatrix, from_samples, generate, true_w2, w2sq
from distnn.empirical import StepQuantile
from distnn.errors import OutOfDomainError
from distnn.exact import uniform_empirical_expected_w2_sq
from distnn.experiments import ExperimentSpec, run_scaling
from distnn import synthetic
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


def _generated_bytes(spec, n_rows, n_cols):
    m, truth = generate(spec, n_rows, n_cols)
    arrays = [a for block in m._blocks for a in block] + [m._mask, truth.loc, truth.scale]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestWorkerCount:
    """``generate`` finishes each column on a second thread when the process
    may use two CPUs or more, and in the calling thread on one. The bytes
    are the same at every CPU count."""

    SPECS = [
        DgpSpec(base_family=base, kind=kind, n_per_entry=n, seed=5, latent_dim=2)
        for base in ("uniform", "gaussian", "truncated_gaussian")
        for kind in ("heteroscedastic", "homoscedastic")
        for n in (7, [1, 4, 9, 2, 30])
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.base_family}-{s.kind}-{s.n_per_entry}")
    def test_blocks_and_masks_match_at_every_cpu_count(self, spec, monkeypatch):
        own = _generated_bytes(spec, 6, 5)
        for count in (1, 2, 4):
            _use_cpus(monkeypatch, count)
            assert _generated_bytes(spec, 6, 5) == own

    def test_scaling_result_matches_at_every_cpu_count(self, monkeypatch):
        spec = ExperimentSpec(dgp=DgpSpec(n_per_entry=10, seed=2), values=(10, 20), trials=2,
                              n_rows=12, n_cols=5, tune_budget=6, baseline_resamples=3,
                              min_neighbors=1, seed=4)
        results = []
        for count in (1, 2, 4):
            _use_cpus(monkeypatch, count)
            results.append(pickle.dumps(run_scaling(spec)))
        assert results == results[:1] * 3

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_columns_are_finished_off_the_calling_thread_from_two_cpus(self, count, monkeypatch):
        uniform = make_base("uniform")
        threads = []

        def ppf(u):
            threads.append(threading.current_thread())
            return uniform.ppf(u)

        monkeypatch.setattr(synthetic, "make_base",
                            lambda name, cut: dataclasses.replace(uniform, ppf=ppf))
        _use_cpus(monkeypatch, count)
        generate(DgpSpec(n_per_entry=5), 3, 4)
        on_caller = [t is threading.main_thread() for t in threads]
        assert on_caller == [count == 1] * 4

    @pytest.mark.parametrize("count", [1, 2, 4])
    @pytest.mark.parametrize("failing", [0, 2, 5])
    def test_an_error_in_a_column_propagates_and_no_thread_outlives_the_call(
            self, count, failing, monkeypatch):
        uniform = make_base("uniform")
        error = ArithmeticError("column failed")
        calls = []

        def ppf(u):
            calls.append(None)
            if len(calls) == failing + 1:
                raise error
            return uniform.ppf(u)

        monkeypatch.setattr(synthetic, "make_base",
                            lambda name, cut: dataclasses.replace(uniform, ppf=ppf))
        _use_cpus(monkeypatch, count)
        before = threading.active_count()
        with pytest.raises(ArithmeticError) as raised:
            generate(DgpSpec(n_per_entry=5), 3, 6)
        assert raised.value is error
        # the column after the failing one may have been handed off already
        assert failing + 1 <= len(calls) <= failing + 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("count", [1, 2])
    def test_columns_are_finished_under_the_callers_error_state(self, count, monkeypatch):
        _use_cpus(monkeypatch, count)
        # scale * u is subnormal, an underflow, which numpy ignores unless
        # told otherwise (DgpSpec refuses a spec whose samples overflow)
        spec = DgpSpec(location_range=(0.0, 0.0), scale_range=(1e-310, 1e-310), n_per_entry=20)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            generate(spec, 3, 4)
        with np.errstate(under="warn"), pytest.warns(RuntimeWarning, match="underflow"):
            m, _ = generate(spec, 3, 4)
        assert np.all((m._blocks[0][0] > 0.0) & (m._blocks[0][0] < 1e-300))

    def test_affinity_is_read_at_each_call(self, monkeypatch):
        _use_cpus(monkeypatch, 3)
        assert synthetic._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert synthetic._usable_cpus() == 1


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
        ("sigma", np.nan, "must be finite"),
        ("scale_range", (1.0, np.inf), "must be finite"),
        ("location_range", (0.0, np.nan), "must be finite"),
        ("location_range", (-np.inf, np.inf), "must be finite"),
        ("latent_dim", 1.5, "latent_dim must be an integer"),
        ("latent_dim", True, "latent_dim must be an integer"),
    ])
    def test_bad_field_is_out_of_domain(self, field, value, message):
        with pytest.raises(OutOfDomainError, match=message):
            DgpSpec(**{field: value})

    @pytest.mark.parametrize("fields", [
        dict(location_range=(-1e308, 1e308)),
        dict(scale_range=(1.0, 1e308), base_family="gaussian"),
        dict(kind="homoscedastic", sigma=1e200),
        dict(scale_range=(1.0, 1e307), base_family="truncated_gaussian", truncation=40.0),
    ], ids=["location-width", "gaussian-scale", "homoscedastic-sigma", "truncated-scale"])
    def test_overflowing_samples_are_out_of_domain(self, fields):
        with pytest.raises(OutOfDomainError, match="must keep the samples finite"):
            DgpSpec(**fields)

    @pytest.mark.parametrize("fields", [
        dict(scale_range=(1.0, 1e308)),
        dict(scale_range=(1.0, 1e307), base_family="truncated_gaussian", truncation=4.0),
        dict(kind="homoscedastic", sigma=1e154),
    ], ids=["uniform-scale", "truncated-scale", "homoscedastic-sigma"])
    def test_largest_finite_samples_are_kept(self, fields):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, _ = generate(DgpSpec(**fields), 3, 2)
        assert all(np.isfinite(values).all() for values, _, _ in m._blocks)

    @pytest.mark.parametrize("shape, message", [
        ((0, 3), "n_rows"), ((2.5, 3), "n_rows"), ((3, 0), "n_cols"), ((3, np.int64(-1)), "n_cols"),
    ], ids=["rows-0", "rows-2.5", "cols-0", "cols-negative"])
    def test_sizes_must_be_positive_integers(self, shape, message):
        with pytest.raises(OutOfDomainError, match=f"{message} must be an integer >= 1"):
            generate(DgpSpec(), *shape)

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


class TestGaussianBases:
    """Both Gaussian bases come from closed forms in scipy.special; scipy.stats
    is the reference here only."""

    def test_gaussian_is_scipy_bit_for_bit(self):
        rng = np.random.default_rng(8)
        x = np.concatenate([rng.normal(size=5000), rng.normal(scale=30.0, size=5000),
                            [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 38.6, 40.0]])
        base = make_base("gaussian")
        with np.errstate(over="ignore"):  # x**2 at ±1e308, in both
            phi = stats.norm.pdf(x)
            assert base.pdf(x).tobytes() == phi.tobytes()
            p1, p2 = base.partial_moments(x)
        assert base.ppf is ndtri
        assert p1.tobytes() == (-2.0 * phi).tobytes()
        assert p2.tobytes() == (3.0 * (ndtr(x) - np.where(np.isfinite(x), x, 0.0) * phi)).tobytes()
        assert (base.m1, base.m2) == (0.0, 1.0)

    @pytest.mark.parametrize("cut", [0.25, 1.0, 4.0, 8.0, 40.0])
    def test_truncated_matches_truncnorm(self, cut):
        base, ref = make_base("truncated_gaussian", cut), stats.truncnorm(-cut, cut)
        t = np.concatenate([[0.0, 1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 2**-53, 1.0],
                            np.random.default_rng(9).random(5000)])
        x, want = base.ppf(t), ref.ppf(t)
        assert np.all(np.abs(x - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        # the density's relative condition number at x is x², so both sides
        # differ from the exact value by up to about 1e-16 x² there
        pdf, pdf_want = base.pdf(x), ref.pdf(x)
        assert np.all(np.abs(pdf - pdf_want) <= 1e-14 * np.maximum(1.0, x * x) * pdf_want)
        outside = np.array([-np.inf, -2.0 * cut, 2.0 * cut, np.inf])
        assert base.pdf(outside).tolist() == ref.pdf(outside).tolist() == [0.0] * 4
        assert base.m1 == 0.0 and abs(base.m2 - ref.var()) <= 1e-14 * ref.var()

    @pytest.mark.parametrize("name, cut", [("gaussian", np.inf), ("truncated_gaussian", 0.25),
                                           ("truncated_gaussian", 37.0), ("truncated_gaussian", 40.0),
                                           ("truncated_gaussian", 1e6), ("truncated_gaussian", np.inf)])
    def test_draws_keep_the_sample_bound(self, name, cut):
        # the bound DgpSpec checks the spec's samples with
        base = make_base(name, cut)
        for u in (1e-300, 1 - 2**-53):
            assert abs(base.ppf(u)) <= min(cut, synthetic._GAUSSIAN_TAIL)

    def test_import_leaves_scipy_stats_out(self):
        code = "import sys, distnn; assert 'scipy.stats' not in sys.modules, 'scipy.stats imported'"
        subprocess.run([sys.executable, "-c", code], check=True)


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
