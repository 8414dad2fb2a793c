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
    TuneReport,
    TuneTrial,
    empirical,
    estimator,
    impute,
    tune_eta,
    tuning,
    w2sq,
)
from distnn.cli import main
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
        for lo, hi in [(1.0, math.inf), (math.inf, math.inf), (-math.inf, 1.0), (1.0, math.nan)]:
            with pytest.raises(OutOfDomainError):
                TuneConfig(eta_min=lo, eta_max=hi)


def reference_tune(m, i, j, cfg):
    """One cell scored alone, as tune_eta scored each cell before it scored
    a row's missing cells together: the cell's (candidates x held) loss
    table from a cold row state, its trials as objects and the best by
    Python's ``min``. Returns (best trial, trials)."""
    held = [v for v in range(m.n_cols) if v != j and m.mask[i, v]]
    if not held:
        raise NoObservedCellsError(f"row {i} has no observed entries besides column {j}")
    state = estimator._RowState(m, i, cfg.min_overlap)
    candidates = tuning._candidate_etas(cfg, state.sorted_dists[j])
    losses = np.empty((candidates.shape[0], len(held)))
    columns = [(m._blocks[v], np.append(state.ranked[v], i)) for v in held]
    for c, (v, found) in enumerate(zip(held, empirical._row_losses(columns))):
        losses[:, c] = found[state.within(v, candidates)]
    valid = ~np.isnan(losses)
    n_valid = np.sum(valid, axis=1)
    if not n_valid.any():
        raise AllTrialsFailedError(
            f"every candidate eta produced no neighbors for all held-out cells of row {i}"
        )
    worst = np.max(losses, axis=1, where=valid, initial=-np.inf)
    mean_loss = np.mean(np.where(valid, losses, worst[:, None]), axis=1)
    mean_loss[n_valid == 0] = math.inf
    trials = tuple(
        TuneTrial(eta=float(eta), mean_loss=float(loss), n_valid_cells=int(k),
                  n_no_neighbor_cells=len(held) - int(k))
        for eta, loss, k in zip(candidates, mean_loss, n_valid)
    )
    best = min((t for t in trials if t.n_valid_cells >= 1), key=lambda t: (t.mean_loss, t.eta))
    return best, trials


def _bits(trials):
    return [(t.eta.hex(), t.mean_loss.hex(), t.n_valid_cells, t.n_no_neighbor_cells)
            for t in trials]


def _outcome(call):
    """A tuning's best trial and log as bits, or its error as type and message."""
    try:
        best, trials = call()
    except (NoObservedCellsError, AllTrialsFailedError) as exc:
        return type(exc), str(exc)
    return _bits([best]), _bits(trials)


def _panel(seed, ragged, n_rows=6, n_cols=4, p_missing=0.3):
    rng = np.random.default_rng(seed)
    return [[rng.normal(r % 3, 1.0, int(rng.integers(2, 7)) if ragged else 4)
             if rng.random() >= p_missing else None for _ in range(n_cols)]
            for r in range(n_rows)]


def _shifted_row_panel():
    """Row 0 lies at one distance from every other row, which are identical:
    row 0's candidate range is the single eta [hi]."""
    rows = identical_rows_matrix(n_rows=5, n_cols=4)
    entries = [[rows.entry(i, j).samples for j in range(4)] for i in range(5)]
    entries[0] = [s + 1.0 for s in entries[0]]
    entries[0][1] = entries[2][3] = entries[3][3] = None
    return entries


def _overflow_panel():
    """Column 3 holds 1e300 in even rows and -1e300 in odd ones: rows of
    one sign lie at distance 0 there, rows of two at an overflowing one, so
    a held-out cell of column 3 whose neighbours mix signs has an infinite
    loss."""
    rng = np.random.default_rng(5)
    missing = {(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2), (6, 3)}
    return [[None if (r, c) in missing else
             np.full(3, 1e300 if r % 2 == 0 else -1e300) if c == 3 else rng.normal(0.0, 1.0, 3)
             for c in range(4)] for r in range(8)]


PANELS = {
    "equal": _panel(1, ragged=False),
    "ragged": _panel(2, ragged=True),
    "identical": [[None if (r, c) in {(0, 0), (0, 2), (1, 1)} else [float(c), c + 1.0]
                   for c in range(4)] for r in range(4)],
    "shifted-row": _shifted_row_panel(),
    "overflow": _overflow_panel(),
}

CONFIGS = {
    "log-grid": TuneConfig(budget=12),
    "random": TuneConfig(budget=9, search="random_log_uniform", seed=4),
    "range": TuneConfig(budget=7, eta_min=0.05, eta_max=20.0),
    "budget-1": TuneConfig(budget=1),
    "budget-1-range": TuneConfig(budget=1, eta_min=0.5, eta_max=2.0),
    "min-overlap-2": TuneConfig(budget=10, min_overlap=2),
}


class TestRowPass:
    """Scoring a row's missing cells together gives each cell the bits of
    scoring it alone."""

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("panel", PANELS.values(), ids=PANELS.keys())
    @pytest.mark.parametrize("reverse", [False, True], ids=["row-major", "reversed"])
    def test_every_cell_matches_the_per_cell_reference(self, panel, cfg, reverse):
        m = DistributionalMatrix(panel)
        cold = DistributionalMatrix(panel)
        cells = [(i, j) for i in range(m.n_rows) for j in range(m.n_cols)]
        for i, j in cells[::-1] if reverse else cells:
            def tuned():
                report = tune_eta(m, i, j, cfg)
                assert report.best_eta == report.best_trial().eta
                return report.best_trial(), report.trials
            # the overflow panel's squared gaps overflow on both sides alike
            with np.errstate(over="ignore", invalid="ignore"):
                assert _outcome(tuned) == _outcome(lambda: reference_tune(cold, i, j, cfg))

    @pytest.mark.parametrize("ragged", [False, True], ids=["equal", "ragged"])
    def test_configs_take_turns_on_one_matrix(self, ragged):
        panel = PANELS["ragged" if ragged else "equal"]
        m, cold = DistributionalMatrix(panel), DistributionalMatrix(panel)
        for i, j in m.missing_cells():
            for cfg in CONFIGS.values():
                assert (_outcome(lambda: (tune_eta(m, i, j, cfg).best_trial(),
                                          tune_eta(m, i, j, cfg).trials))
                        == _outcome(lambda: reference_tune(cold, i, j, cfg)))

    def test_degenerate_ranges_are_reached(self):
        m = DistributionalMatrix(PANELS["identical"])
        assert [t.eta for t in tune_eta(m, 0, 0).trials] == [0.0]
        m = DistributionalMatrix(PANELS["shifted-row"])
        (trial,) = tune_eta(m, 0, 1).trials
        assert trial.eta == 1.0

    def test_overflowing_losses_are_reached(self):
        m = DistributionalMatrix(PANELS["overflow"])
        losses = []
        for i, j in m.missing_cells():
            try:
                losses += [t.mean_loss for t in tune_eta(m, i, j, TuneConfig(budget=12)).trials]
            except AllTrialsFailedError:
                pass
        assert math.inf in losses

    @pytest.mark.parametrize("losses, n_valid", [
        ([math.inf, 2.0, 2.0, 1.0], [1, 1, 1, 0]),
        ([math.inf, math.inf, math.inf], [0, 1, 1]),
        ([math.nan, 1.0, 0.5], [1, 1, 1]),
        ([math.nan, 1.0, 0.5], [0, 1, 1]),
        ([1.0, math.nan, 0.5], [1, 1, 1]),
        ([2.0, math.nan, 2.0, math.inf], [1, 1, 1, 1]),
    ])
    def test_best_trial_is_min_over_the_trials(self, losses, n_valid):
        """Ties, infinite and NaN losses resolve as ``min`` over the trials in
        ascending eta, keyed by (loss, eta), resolves them."""
        report = TuneReport(np.arange(1.0, len(losses) + 1), np.array(losses),
                            np.array(n_valid), 3)
        expected = min((t for t in report.trials if t.n_valid_cells >= 1),
                       key=lambda t: (t.mean_loss, t.eta))
        assert report.best_trial() is expected
        assert report.best_eta == expected.eta

    def test_report_reads_as_its_trials(self):
        m = DistributionalMatrix(PANELS["equal"])
        report = tune_eta(m, *m.missing_cells()[0], TuneConfig(budget=5))
        assert report.trials is report.trials
        assert repr(report) == f"TuneReport(best_eta={report.best_eta!r}, trials={report.trials!r})"
        twin = tune_eta(DistributionalMatrix(PANELS["equal"]), *m.missing_cells()[0],
                        TuneConfig(budget=5))
        rebuilt = TuneReport(report.etas, report.mean_losses, report.n_valid, report.n_held)
        assert report == twin == rebuilt and hash(report) == hash(twin) == hash(rebuilt)
        assert len({report, twin, rebuilt}) == 1
        assert report.__eq__(report.trials) is NotImplemented and report != report.trials
        assert [t.eta for t in report.trials] == report.etas.tolist()

    def test_one_pass_per_row_under_all_missing_tune(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        missing = {1: (1,), 2: (0, 2, 4), 3: (3,)}
        lines = ["row,col,value"]
        for r in range(6):
            for c in range(6):
                if c not in missing.get(r, ()):
                    lines += [f"r{r},c{c},{v!r}" for v in rng.normal(r, 1.0, 4).tolist()]
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        passes = []
        score = tuning._score
        monkeypatch.setattr(tuning, "_score", lambda m, state, cols, cfg:
                            passes.append((state.row, tuple(cols))) or score(m, state, cols, cfg))
        code = main(["impute", "--input", str(path), "--all-missing", "--tune",
                     "--budget", "8", "--output", str(tmp_path / "o.json")])
        assert code == 0
        assert passes == sorted(missing.items())
