"""Simulation harness: power-law fits, sweeps, and Monte-Carlo verification."""

import copy

import numpy as np
import pytest

from distnn import DgpSpec, experiments, from_samples, generate, summaries
from distnn.errors import OutOfDomainError
from distnn.experiments import (
    ExperimentSpec,
    _run_trial,
    fit_power_law,
    run_denoising,
    run_quantity_eval,
    run_scaling,
    verify_uniform_barycenter_error,
    verify_barycenter_rate,
)
from distnn.synthetic import TrueDistributions, _w2sq_steps_to_base, make_base
from distnn.exact import uniform_barycenter_expected_w2_sq, uniform_empirical_expected_w2_sq


def small_spec(**overrides):
    defaults = dict(
        dgp=DgpSpec(kind="heteroscedastic", base_family="uniform", n_per_entry=20, seed=0),
        sweep="n_samples",
        values=(10, 20, 40),
        trials=4,
        n_rows=15,
        n_cols=8,
        eta_policy="tuned",
        tune_budget=10,
        min_neighbors=1,
        baseline_resamples=5,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestFitPowerLaw:
    def test_recovers_exact_parameters(self):
        x = np.array([1.0, 2.0, 5.0, 10.0, 40.0])
        y = 3.7 * x**-1.25
        fit = fit_power_law(x, y)
        assert fit.amplitude == pytest.approx(3.7, abs=1e-6)
        assert fit.exponent == pytest.approx(-1.25, abs=1e-6)
        assert np.max(np.abs(fit.residuals)) < 1e-12

    def test_zero_values_flagged_degenerate(self):
        fit = fit_power_law([1.0, 2.0], [0.0, 1.0])
        assert fit.degenerate and np.isnan(fit.exponent)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])


class TestRunScaling:
    def test_deterministic_per_seed(self):
        r1 = run_scaling(small_spec())
        r2 = run_scaling(small_spec())
        assert np.array_equal(r1.mean_errors, r2.mean_errors)
        assert np.array_equal(r1.baseline_means, r2.baseline_means)
        assert r1.fit.exponent == r2.fit.exponent

    def test_seed_changes_results(self):
        r1 = run_scaling(small_spec())
        r2 = run_scaling(small_spec(seed=4))
        assert not np.array_equal(r1.mean_errors, r2.mean_errors)

    def test_error_decreases_with_samples_for_identical_rows(self):
        # identical row locations leave pure sampling error, which must
        # shrink as entries grow
        spec = small_spec(
            dgp=DgpSpec(
                kind="heteroscedastic",
                base_family="uniform",
                location_range=(0.0, 0.0),
                n_per_entry=10,
                seed=0,
            ),
            values=(10, 160),
            trials=8,
        )
        r = run_scaling(spec)
        assert r.mean_errors[-1] < r.mean_errors[0]
        assert not r.fit.degenerate

    def test_near_degenerate_dgp_keeps_tiny_errors(self):
        spec = small_spec(
            dgp=DgpSpec(kind="homoscedastic", sigma=0.0, n_per_entry=10, seed=0),
            values=(5, 10),
            trials=3,
        )
        r = run_scaling(spec)
        assert np.all(r.mean_errors < 1e-2)

    def test_csv_rows_cover_both_methods(self):
        r = run_scaling(small_spec(values=(10, 20), trials=2))
        rows = r.csv_rows()
        assert len(rows) == 4
        assert {row["method"] for row in rows} == {"estimator", "single_entry_baseline"}

    def test_neighbor_product_sweep_uses_achieved_x(self):
        spec = small_spec(
            dgp=DgpSpec(kind="heteroscedastic", base_family="uniform", n_per_entry=50, seed=0),
            sweep="n_times_neighbors",
            values=(100, 200),
            trials=3,
            n_rows=10,
            n_cols=4,
        )
        r = run_scaling(spec)
        assert np.allclose(r.fit_x, 50.0 * r.mean_neighbors)
        assert np.allclose(r.mean_neighbors, [2.0, 4.0])

    def test_row_count_sweep_draws_each_value_of_rows(self, monkeypatch):
        drawn = []

        def recording_generate(dgp, n_rows, n_cols):
            drawn.append(n_rows)
            return generate(dgp, n_rows, n_cols)

        monkeypatch.setattr(experiments, "generate", recording_generate)
        r = run_scaling(small_spec(sweep="n_rows", values=(20, 40), trials=3, n_cols=6))
        assert drawn == [20, 20, 20, 40, 40, 40]
        assert r.fit_x.tolist() == [20.0, 40.0] and r.n_failed.tolist() == [0, 0]

    def test_fixed_target_cell(self):
        r1 = run_scaling(small_spec(values=(10, 20), trials=3, target=(2, 3)))
        r2 = run_scaling(small_spec(values=(10, 20), trials=3, target=(2, 3)))
        assert np.array_equal(r1.mean_errors, r2.mean_errors)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(values=(10, 10))
        with pytest.raises(ValueError):
            small_spec(sweep="columns")
        with pytest.raises(ValueError):
            small_spec(eta_policy="fixed")
        with pytest.raises(ValueError):
            small_spec(target=(1, 2, 3))

    @pytest.mark.parametrize("reps", [0, -1])
    def test_baseline_resamples_below_one_rejected(self, reps):
        with pytest.raises(OutOfDomainError, match="baseline_resamples"):
            small_spec(baseline_resamples=reps)


class TestRunDenoising:
    def test_reports_both_means(self):
        d = run_denoising(small_spec(trials=6))
        assert d.estimator_errors.size == 6
        assert d.baseline_errors.size == 6
        assert d.estimator_mean_error == pytest.approx(float(d.estimator_errors.mean()))

    def test_duplicate_rows_beat_baseline(self):
        spec = small_spec(
            dgp=DgpSpec(
                kind="heteroscedastic",
                base_family="uniform",
                location_range=(0.0, 0.0),
                n_per_entry=10,
                seed=0,
            ),
            trials=6,
        )
        d = run_denoising(spec)
        assert d.estimator_mean_error < d.baseline_mean_error


class TestRunQuantityEval:
    def test_shapes_and_exclusions(self):
        q = run_quantity_eval(small_spec(trials=5))
        for key in ("mean", "median", "std", "var_at_risk"):
            assert q.estimator_rel_errors[key].size + q.n_excluded[key] == 5
            assert q.baseline_rel_errors[key].size == q.estimator_rel_errors[key].size
        rows = q.csv_rows()
        assert len(rows) == 8

    def test_degenerate_truth_excluded(self):
        # location 0 and uniform base make the true 5% VaR -0.05*scale, fine,
        # but a zero true mean must be excluded: build a symmetric base cell
        spec = small_spec(
            dgp=DgpSpec(
                kind="heteroscedastic",
                base_family="gaussian",
                location_range=(0.0, 0.0),
                scale_range=(1.0, 1.0),
                n_per_entry=10,
                seed=0,
            ),
            trials=3,
        )
        q = run_quantity_eval(spec)
        # true mean and median are exactly 0 for every cell
        assert q.n_excluded["mean"] == 3 and q.n_excluded["median"] == 3
        assert q.estimator_rel_errors["std"].size == 3

    def test_deterministic(self):
        q1 = run_quantity_eval(small_spec(trials=4))
        q2 = run_quantity_eval(small_spec(trials=4))
        assert np.array_equal(q1.estimator_rel_errors["std"], q2.estimator_rel_errors["std"])


class TestVerifyUniformBarycenterError:
    def test_small_grid_z_scores(self):
        rows = verify_uniform_barycenter_error(m_list=(1, 5), n_list=(5, 20), trials=4000, seed=1)
        assert len(rows) == 4
        assert all(abs(r.z_score) < 5.0 for r in rows)

    def test_single_distribution_reduces_to_empirical_formula(self):
        assert uniform_barycenter_expected_w2_sq([(0.25, 1.75)], 7) == pytest.approx(
            uniform_empirical_expected_w2_sq(0.25, 1.75, 7)
        )

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            verify_uniform_barycenter_error(trials=10)


class TestVerifyBarycenterRate:
    def test_shapes_and_regimes(self):
        res = verify_barycenter_rate(
            k_list=(4, 8), n_list=(50, 100, 200), trials_k=400, trials_n=300,
            n_fixed=200, k_fixed=8, seed=2,
        )
        assert res.k_errors.shape == (2,)
        assert res.doubling_ratios.shape == (1,)
        assert 0.35 < res.doubling_ratios[0] < 0.65
        assert -2.2 < res.slope_fit.exponent < -0.5

    def test_summary_lists_every_figure(self):
        res = verify_barycenter_rate(
            k_list=(4, 8), n_list=(50, 100), trials_k=50, trials_n=50,
            n_fixed=50, k_fixed=4, seed=1,
        )
        assert res.summary() == {
            "k_list": [4, 8],
            "k_errors": res.k_errors.tolist(),
            "doubling_ratios": res.doubling_ratios.tolist(),
            "n_list": [50, 100],
            "n_errors": res.n_errors.tolist(),
            "slope_exponent": res.slope_fit.exponent,
        }

    def test_simulation_tracks_closed_form(self):
        res = verify_barycenter_rate(
            k_list=(4,), n_list=(50, 100), trials_k=3000, trials_n=1500,
            n_fixed=100, k_fixed=4, seed=3,
        )
        assert res.k_errors[0] == pytest.approx(res.k_closed[0], rel=0.1)
        for sim, closed in zip(res.n_errors, res.n_closed):
            assert sim == pytest.approx(closed, rel=0.1)


class TestBatchUniformScoring:
    def test_matches_truth_scorer(self):
        rng = np.random.default_rng(5)
        rows = np.sort(rng.uniform(0.5, 2.5, size=(6, 9)), axis=1)
        # the Monte-Carlo verifier scores whole batches of rows at once
        batch = _w2sq_steps_to_base(
            make_base("uniform"), rows, np.arange(1, 10) / 9.0, 0.5, 2.0)
        spec = DgpSpec(base_family="uniform", n_per_entry=9)
        truth = TrueDistributions(
            make_base("uniform"),
            np.array([[0.5]]),
            np.array([[2.0]]),
            np.array([9]),
            None,
            spec,
        )
        for row, expected in zip(rows, batch):
            assert truth.w2sq_error(0, 0, from_samples(row)) == pytest.approx(
                float(expected), rel=1e-12
            )


class TestSingleEntryBaseline:
    """A trial's baseline equals the per-draw loop below bit for bit: one
    resample drawn, sorted and scored at a time, errors added in draw order."""

    @pytest.mark.parametrize("n", [7, 50])
    @pytest.mark.parametrize("base", ["uniform", "gaussian", "truncated_gaussian"])
    def test_matches_per_draw_loop(self, base, n, monkeypatch):
        spec = small_spec(dgp=DgpSpec(base_family=base, n_per_entry=n, seed=0),
                          baseline_resamples=25)
        first_calls = []
        sample = TrueDistributions.sample

        def spy(truth, i, j, count, rng):
            if not first_calls:
                first_calls.append((truth, i, j, copy.deepcopy(rng.bit_generator.state)))
            return sample(truth, i, j, count, rng)

        monkeypatch.setattr(TrueDistributions, "sample", spy)
        record = _run_trial(spec, None, np.random.SeedSequence(11))
        truth, i, j, state = first_calls[0]
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        total, first = 0.0, None
        for _ in range(spec.baseline_resamples):
            draw = from_samples(sample(truth, i, j, n, rng))
            if first is None:
                first = draw
            total += truth.w2sq_error(i, j, draw)
        assert record.baseline_error == total / spec.baseline_resamples
        assert record.base_summaries == summaries(first)
