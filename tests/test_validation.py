"""One argument-check path: every public parameter that is a count, a level
or probability, a seed or a threshold is refused with OutOfDomainError
naming it, before any work and without a warning (the suite turns warnings
into errors)."""

import math
import re

import numpy as np
import pytest

from distnn import exact, experiments
from distnn.empirical import from_samples, summaries
from distnn.errors import OutOfDomainError
from distnn.estimator import find_neighbors, impute, row_distance
from distnn.experiments import (ExperimentSpec, run_denoising, verify_barycenter_rate,
                                verify_uniform_barycenter_error)
from distnn.inference import SigmaFunction, asymptotic_band, bootstrap_band, default_levels, sigma_sq
from distnn.matrix import DistributionalMatrix, MaskSpec, apply_mcar
from distnn.synthetic import DgpSpec, generate
from distnn.tuning import TuneConfig, tune_eta


def matrix():
    return DistributionalMatrix([
        [[0.0, 1.0], None],
        [[0.0, 1.0], [2.0, 3.0]],
        [[0.0, 1.0], [4.0, 5.0]],
    ])


def full_matrix():
    return DistributionalMatrix([[[1.0], [2.0]], [[3.0], [4.0]]])


def band(**kwargs):
    m = matrix()
    args = {"result": impute(m, 0, 1, math.inf), "sigma": SigmaFunction.from_samples([[0.0, 1.0, 3.0]]),
            "n_j": 2, "alpha": 0.05, "levels": [0.25, 0.5]}
    return asymptotic_band(**{**args, **kwargs})


def spec(**kwargs):
    return ExperimentSpec(**{"dgp": DgpSpec(n_per_entry=10), "values": (10, 20), "trials": 2,
                             "n_rows": 6, "n_cols": 3, "tune_budget": 4, **kwargs})


def truth():
    return generate(DgpSpec(n_per_entry=3), 2, 2)[1]


UNIFORM = exact.UniformPair(0.0, 1.0, 0.5, 2.0)

# id: (call, name the message must contain)
REFUSED = {
    # counts
    "TuneConfig-budget-bool": (lambda: TuneConfig(budget=True), "budget"),
    "TuneConfig-budget-str": (lambda: TuneConfig(budget="3"), "budget"),
    "tune_eta-budget-float": (lambda: tune_eta(matrix(), 0, 1, TuneConfig(budget=2.5)), "budget"),
    "TuneConfig-min_overlap-float": (lambda: TuneConfig(min_overlap=1.5), "min_overlap"),
    "find_neighbors-max_neighbors-float": (
        lambda: find_neighbors(matrix(), 0, 1, 1.0, max_neighbors=1.5), "max_neighbors"),
    "find_neighbors-min_neighbors-float": (
        lambda: find_neighbors(matrix(), 0, 1, 1.0, min_neighbors=0.5), "min_neighbors"),
    "find_neighbors-min_overlap-None": (
        lambda: find_neighbors(matrix(), 0, 1, 1.0, min_overlap=None), "min_overlap"),
    "row_distance-min_overlap-float": (lambda: row_distance(matrix(), 1, 2, 0, 1.5), "min_overlap"),
    "exact-empirical-n-float": (lambda: exact.uniform_empirical_expected_w2_sq(0, 1, 2.5), "n"),
    "exact-empirical-n-bool": (lambda: exact.uniform_empirical_expected_w2_sq(0, 1, True), "n"),
    "exact-empirical-n-None": (lambda: exact.uniform_empirical_expected_w2_sq(0, 1, None), "n"),
    "exact-pair-n-None": (lambda: exact.uniform_pair_empirical_expected_w2_sq(UNIFORM, None), "n"),
    "exact-barycenter-n-None": (
        lambda: exact.uniform_barycenter_expected_w2_sq([(0.0, 1.0)], None), "n"),
    "asymptotic_band-n_j-float": (lambda: band(n_j=2.5), "n_j"),
    "asymptotic_band-n_j-bool": (lambda: band(n_j=True), "n_j"),
    "ExperimentSpec-values-zero": (lambda: spec(values=(0, 5)), "values"),
    "verify_barycenter_rate-trials_k-zero": (lambda: verify_barycenter_rate(trials_k=0), "trials_k"),
    "verify_barycenter_rate-trials_k-float": (lambda: verify_barycenter_rate(trials_k=2.5), "trials_k"),
    "verify_barycenter_rate-k_fixed-zero": (lambda: verify_barycenter_rate(k_fixed=0), "k_fixed"),
    "verify_uniform_barycenter_error-m_list-zero": (
        lambda: verify_uniform_barycenter_error(m_list=(0,)), "m_list"),
    "verify_uniform_barycenter_error-trials-float": (
        lambda: verify_uniform_barycenter_error(trials=100.5), "trials"),
    # levels and probabilities
    "impute-var_alpha-str": (lambda: impute(matrix(), 0, 1, math.inf, var_alpha="x"), "var_alpha"),
    "impute-var_alpha-None": (lambda: impute(matrix(), 0, 1, math.inf, var_alpha=None), "var_alpha"),
    "var_at_risk-None": (lambda: from_samples([1.0, 2.0]).var_at_risk(None), "alpha"),
    "var_at_risk-array": (lambda: from_samples([1.0, 2.0]).var_at_risk(np.array([0.1, 0.2])), "alpha"),
    "quantile-str": (lambda: from_samples([1.0, 2.0]).quantile("a"), "level"),
    "sigma_sq-str": (lambda: sigma_sq(SigmaFunction.from_samples([[0.0, 1.0, 3.0]]), "a"), "levels"),
    "summaries-var_alpha-bool": (lambda: summaries(from_samples([1.0, 2.0]), True), "var_alpha"),
    "cell_summaries-var_alpha-above-one": (lambda: truth().cell_summaries(0, 0, 2.0), "var_alpha"),
    "MaskSpec-p-bool": (lambda: MaskSpec(p=True), "p"),
    "MaskSpec-p-str": (lambda: MaskSpec(p="a"), "p"),
    "asymptotic_band-alpha-str": (lambda: band(alpha="a"), "alpha"),
    "bootstrap_band-alpha-None": (lambda: bootstrap_band(matrix(), 0, 1, 1.0, None, [0.5]), "alpha"),
    # thresholds
    "find_neighbors-eta-bool": (lambda: find_neighbors(matrix(), 0, 1, True), "eta"),
    "TuneConfig-eta_min-str": (lambda: TuneConfig(eta_min="a", eta_max=2.0), "eta_min"),
    "ExperimentSpec-eta-negative": (lambda: spec(eta_policy="fixed", eta=-1.0), "eta"),
    "ExperimentSpec-eta-str": (lambda: spec(eta_policy="fixed", eta="x"), "eta"),
    "DgpSpec-sigma-str": (lambda: DgpSpec(sigma="a"), "sigma"),
    "DgpSpec-truncation-str": (lambda: DgpSpec(truncation="a"), "truncation"),
    "DgpSpec-truncation-bool": (lambda: DgpSpec(base_family="truncated_gaussian", truncation=True),
                                "truncation"),
    "ExperimentSpec-product-values-str": (
        lambda: spec(sweep="n_times_neighbors", values=("a", "b")), "values"),
    "ExperimentSpec-product-values-negative": (
        lambda: spec(sweep="n_times_neighbors", values=(-5.0, 3.0)), "values"),
    # a (row, col) pair
    "apply_mcar-protect-one-index": (
        lambda: apply_mcar(full_matrix(), MaskSpec(p=0.5), protect=(0,)), "protect"),
    "apply_mcar-protect-int": (lambda: apply_mcar(full_matrix(), MaskSpec(p=0.5), protect=0), "protect"),
    "ExperimentSpec-target-int": (lambda: spec(target=5), "target"),
    "ExperimentSpec-target-float": (lambda: spec(target=(1.5, 0)), "target"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_bad_argument_is_out_of_domain_and_named(case):
    call, name = REFUSED[case]
    with pytest.raises(OutOfDomainError, match=re.escape(name)):
        call()


ACCEPTED = {
    "TuneConfig-budget-lo": lambda: TuneConfig(budget=1),
    "TuneConfig-budget-int64": lambda: TuneConfig(budget=np.int64(3), min_overlap=np.uint8(1)),
    "find_neighbors-floor-lo": lambda: find_neighbors(matrix(), 0, 1, 0.0, min_neighbors=0, max_neighbors=1),
    "find_neighbors-uint8": lambda: find_neighbors(
        matrix(), 0, 1, np.float64(1.0), min_overlap=np.uint8(1), max_neighbors=np.int64(1),
        min_neighbors=np.uint8(2)),
    "row_distance-min_overlap-lo": lambda: row_distance(matrix(), 1, 2, 0, np.int64(1)),
    "exact-n-lo": lambda: exact.uniform_pair_empirical_expected_w2_sq(UNIFORM, np.uint8(1)),
    "asymptotic_band-n_j-int64": lambda: band(n_j=np.int64(1), alpha=np.float64(0.05),
                                              levels=np.array([0.25, 0.5])),
    "verify_uniform_barycenter_error-lo": lambda: verify_uniform_barycenter_error(
        m_list=(1,), n_list=(np.uint8(1),), trials=100),
    "var_at_risk-float64": lambda: from_samples([1.0, 2.0]).var_at_risk(np.float64(0.05)),
    "quantile-float64": lambda: from_samples([1.0, 2.0]).quantile(np.float64(0.5)),
    "summaries-float64": lambda: summaries(from_samples([1.0, 2.0]), np.float64(0.05)),
    "MaskSpec-p-closed-top": lambda: MaskSpec(p=np.float64(1.0)),
    "TuneConfig-eta-range-float64": lambda: TuneConfig(eta_min=np.float64(0.5), eta_max=np.float64(2.0)),
    "ExperimentSpec-lo": lambda: spec(values=(1, 2), eta_policy="fixed", eta=0.0),
    "DgpSpec-sigma-zero": lambda: DgpSpec(sigma=0.0),
    "DgpSpec-truncation-inf": lambda: generate(
        DgpSpec(base_family="truncated_gaussian", truncation=np.inf, n_per_entry=3), 2, 2),
    "ExperimentSpec-target-int64": lambda: spec(target=(np.int64(2), 1)),
    "ExperimentSpec-product-values-float": lambda: spec(sweep="n_times_neighbors", values=(40.0, 80.5)),
    "cell_summaries-float64": lambda: truth().cell_summaries(0, 0, np.float64(0.05)),
    # uint8 counts whose products and sums would wrap as uint8
    "default_levels-uint8": lambda: default_levels(np.uint8(255)),
    "exact-n-uint8": lambda: exact.uniform_pair_empirical_expected_w2_sq(UNIFORM, np.uint8(255)),
    "asymptotic_band-n_j-uint8": lambda: band(n_j=np.uint8(255)),
    "bootstrap_band-reps-uint8": lambda: bootstrap_band(
        matrix(), 0, 1, 1.0, 0.05, [0.5], reps_samples=np.uint8(16), reps_neighbors=np.uint8(16)),
    "verify_uniform_barycenter_error-uint8": lambda: verify_uniform_barycenter_error(
        m_list=(np.uint8(16),), n_list=(np.uint8(16),), trials=100),
    "run_denoising-uint8": lambda: run_denoising(
        spec(trials=np.uint8(2), baseline_resamples=np.uint8(255))),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_boundary_argument_is_accepted(case):
    ACCEPTED[case]()


def test_verifier_counts_are_checked_before_any_draw(monkeypatch):
    monkeypatch.setattr(experiments, "_simulate_uniform_barycenter",
                        lambda *args: pytest.fail("drew before checking"))
    with pytest.raises(OutOfDomainError, match="n_list"):
        verify_barycenter_rate(n_list=(100, 0))
    with pytest.raises(OutOfDomainError, match="n_list"):
        verify_uniform_barycenter_error(n_list=(5, 0))
