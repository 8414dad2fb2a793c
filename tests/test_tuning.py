"""Leave-one-out selection of the neighbor threshold."""

import math

import numpy as np
import pytest

from distnn import (
    AllTrialsFailedError,
    DistributionalMatrix,
    NoObservedCellsError,
    OutOfDomainError,
    TuneConfig,
    impute,
    tune_eta,
    w2sq,
)
from distnn.errors import NoNeighborsError


def identical_rows_matrix(n_rows=4, n_cols=3):
    row = [[float(c), float(c) + 1.0] for c in range(n_cols)]
    return DistributionalMatrix([row for _ in range(n_rows)])


def two_cluster_matrix(shift=10.0, n_cols=4, rows_per_cluster=3):
    """Degenerate singleton entries: within-cluster distance 0, across
    clusters exactly shift**2."""
    rows = []
    for _ in range(rows_per_cluster):
        rows.append([[float(c)] for c in range(n_cols)])
    for _ in range(rows_per_cluster):
        rows.append([[float(c) + shift] for c in range(n_cols)])
    return DistributionalMatrix(rows)


def manual_trial_loss(m, i, j, eta):
    """Independent re-implementation of one candidate evaluation: impute
    each held-out observed cell of row i directly and average the scores,
    applying the worst-finite-loss penalty to no-neighbor cells."""
    losses, fails = [], 0
    for v in range(m.n_cols):
        if v == j or not m.is_observed(i, v):
            continue
        try:
            result = impute(m, i, v, eta)
            losses.append(w2sq(result.estimate, m.entry(i, v)))
        except NoNeighborsError:
            fails += 1
    if not losses:
        return math.inf, 0, fails
    if fails:
        penalty = max(losses)
        mean = (sum(losses) + fails * penalty) / (len(losses) + fails)
    else:
        mean = sum(losses) / len(losses)
    return mean, len(losses), fails


class TestTuneEta:
    def test_identical_rows_pick_smallest_candidate(self):
        m = identical_rows_matrix().mask_cell(0, 0)
        report = tune_eta(m, 0, 0, TuneConfig(budget=10))
        assert report.best_eta == min(t.eta for t in report.trials)
        assert report.best_trial().mean_loss == 0.0

    def test_budget_one_returns_lone_candidate(self):
        m = identical_rows_matrix().mask_cell(0, 0)
        report = tune_eta(m, 0, 0, TuneConfig(budget=1, eta_min=0.5, eta_max=2.0))
        assert len(report.trials) == 1
        assert report.best_eta == 0.5

    def test_two_cluster_rows_select_within_cluster_threshold(self):
        shift = 10.0
        m = two_cluster_matrix(shift).mask_cell(0, 0)
        report = tune_eta(
            m, 0, 0, TuneConfig(budget=30, eta_min=1e-3, eta_max=1e4)
        )
        assert report.best_eta < shift**2
        cross = [t for t in report.trials if t.eta >= shift**2]
        assert cross and all(
            report.best_trial().mean_loss < t.mean_loss for t in cross
        )

    @pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
    def test_trial_log_matches_manual_evaluation(self, ragged):
        rng = np.random.default_rng(8)
        rows = [
            [rng.normal(size=rng.integers(3, 8) if ragged else 4) for _ in range(5)]
            for _ in range(6)
        ]
        m = DistributionalMatrix(rows).mask_cell(1, 2)
        report = tune_eta(m, 1, 2, TuneConfig(budget=12))
        for trial in report.trials:
            mean, valid, fails = manual_trial_loss(m, 1, 2, trial.eta)
            assert trial.n_valid_cells == valid
            assert trial.n_no_neighbor_cells == fails
            if valid:
                assert trial.mean_loss == pytest.approx(mean, rel=1e-10)

    def test_best_loss_not_beaten(self):
        rng = np.random.default_rng(9)
        rows = [[rng.normal(size=3) for _ in range(4)] for _ in range(5)]
        m = DistributionalMatrix(rows).mask_cell(0, 0)
        report = tune_eta(m, 0, 0, TuneConfig(budget=20))
        best = report.best_trial()
        assert best.eta == report.best_eta
        for t in report.trials:
            if t.n_valid_cells >= 1:
                assert best.mean_loss <= t.mean_loss

    def test_random_search_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        rows = [[rng.normal(size=3) for _ in range(4)] for _ in range(5)]
        m = DistributionalMatrix(rows).mask_cell(0, 0)
        cfg = TuneConfig(budget=15, search="random_log_uniform", seed=3)
        r1 = tune_eta(m, 0, 0, cfg)
        r2 = tune_eta(m, 0, 0, cfg)
        assert [t.eta for t in r1.trials] == [t.eta for t in r2.trials]
        r3 = tune_eta(m, 0, 0, TuneConfig(budget=15, search="random_log_uniform", seed=4))
        assert [t.eta for t in r1.trials] != [t.eta for t in r3.trials]

    def test_candidates_sorted_ascending_for_tie_break(self):
        rng = np.random.default_rng(11)
        rows = [[rng.normal(size=3) for _ in range(4)] for _ in range(5)]
        m = DistributionalMatrix(rows).mask_cell(0, 0)
        cfg = TuneConfig(budget=15, search="random_log_uniform", seed=3)
        etas = [t.eta for t in tune_eta(m, 0, 0, cfg).trials]
        assert etas == sorted(etas)

    def test_hold_out_integrity(self):
        # replacing a held-out entry's samples changes scores, never estimates
        rng = np.random.default_rng(12)
        rows = [[rng.normal(size=3) for _ in range(4)] for _ in range(5)]
        m = DistributionalMatrix(rows)
        est_before = impute(m, 0, 1, eta=5.0).estimate
        replaced = [list(r) for r in rows]
        replaced[0][1] = rng.normal(size=3) + 100.0
        est_after = impute(DistributionalMatrix(replaced), 0, 1, eta=5.0).estimate
        assert np.array_equal(est_before.samples, est_after.samples)

    def test_no_observed_cells(self):
        # row 0 has nothing to hold out besides the target column itself
        m = DistributionalMatrix([[None, [1.0]], [[1.0], [1.0]]])
        with pytest.raises(NoObservedCellsError):
            tune_eta(m, 0, 1)

    def test_all_trials_failed(self):
        # the only other row shares no columns with row 0, so every held-out
        # cell fails at every eta
        m = DistributionalMatrix(
            [
                [[1.0], [1.0], None],
                [None, None, [1.0]],
            ]
        )
        with pytest.raises(AllTrialsFailedError):
            tune_eta(m, 0, 0, TuneConfig(budget=5, eta_min=0.1, eta_max=10.0))

    def test_config_validation(self):
        with pytest.raises(Exception):
            TuneConfig(budget=0)
        with pytest.raises(Exception):
            TuneConfig(eta_min=2.0, eta_max=1.0)
        with pytest.raises(Exception):
            TuneConfig(eta_min=1.0)
        with pytest.raises(Exception):
            TuneConfig(search="bayesian")
        with pytest.raises(OutOfDomainError):
            TuneConfig(min_overlap=0)
