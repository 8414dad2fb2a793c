"""Simulation studies: error-scaling sweeps with power-law fits, denoising
comparisons against the single-entry baseline, distributional-quantity
relative errors, and Monte-Carlo verification of the exact uniform
barycenter formulas.

Every study holds out one target cell per trial, imputes it, and scores the
squared Wasserstein distance to the exact true distribution (the truth is
analytic, so scoring adds no estimation error of its own). The single-entry
baseline for a target is the average scoring error of fresh i.i.d. sample
arrays drawn from the target's true distribution.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .empirical import _check_count, _check_seed, _check_threshold, _chunk_rows, _presorted
from .empirical import summaries as distribution_summaries
from .errors import ExperimentAbortedError, NoNeighborsError, OutOfDomainError
from .estimator import impute
from .exact import uniform_barycenter_expected_w2_sq
from .synthetic import DgpSpec, _w2sq_steps_to_base, generate, make_base
from .tuning import TuneConfig, tune_eta

__all__ = [
    "ExperimentSpec",
    "PowerLawFit",
    "ScalingResult",
    "DenoisingResult",
    "QuantityEvalResult",
    "MonteCarloRow",
    "RateResult",
    "fit_power_law",
    "run_scaling",
    "run_denoising",
    "run_quantity_eval",
    "verify_uniform_barycenter_error",
    "verify_barycenter_rate",
]

QUANTITIES = ("mean", "median", "std", "var_at_risk")
MAX_FAILURE_FRACTION = 0.2  # a study aborts when a larger share of trials finds no neighbors


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of y = amplitude * x**exponent on log-log axes."""

    amplitude: float
    exponent: float
    residuals: np.ndarray
    degenerate: bool = False


def fit_power_law(x, y) -> PowerLawFit:
    """Fit a power law by ordinary least squares on (log x, log y).

    Non-positive or non-finite inputs cannot be fit and yield a result
    flagged ``degenerate`` with NaN parameters.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise OutOfDomainError("need two or more (x, y) pairs")
    if (
        np.any(~np.isfinite(x))
        or np.any(~np.isfinite(y))
        or np.any(x <= 0.0)
        or np.any(y <= 0.0)
    ):
        return PowerLawFit(math.nan, math.nan, np.array([]), degenerate=True)
    lx, ly = np.log(x), np.log(y)
    exponent, log_amp = np.polyfit(lx, ly, 1)
    residuals = ly - (log_amp + exponent * lx)
    return PowerLawFit(float(np.exp(log_amp)), float(exponent), residuals)


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation study: a DGP, a sweep variable, and an eta policy.

    ``sweep`` is one of "n_samples", "n_rows", "n_times_neighbors"; for the
    last, each sweep value is a target n*|N| product realized by keeping the
    nearest k = round(value / n) rows out of a pool of
    ``rows_per_neighbor * k`` rows, so the neighborhood width stays constant
    while the effective sample size grows, n being the DGP's largest count;
    the fit's x is the trials' mean achieved n_j * |N|, n_j the target's.
    An ``n_samples`` sweep value is the sample count of every entry; the
    other sweeps keep the DGP's counts, one per column where it gives them.
    ``eta_policy`` is "tuned" (leave-one-out per trial, ``tune_budget``
    candidates) or "fixed" (requires ``eta`` >= 0). ``min_neighbors`` is the
    estimator's neighbour floor, ``impute(..., min_neighbors=)``: when fewer
    rows fall inside the threshold, the nearest ``min_neighbors`` rows are
    used instead. ``trials``, ``n_rows``, ``n_cols``, ``tune_budget``,
    ``min_neighbors``, ``rows_per_neighbor``, ``baseline_resamples`` and an
    ``n_samples`` or ``n_rows`` sweep's values must each be an integer >= 1,
    an ``n_times_neighbors`` sweep's values finite numbers > 0, and a fixed
    ``target`` a pair of integers >= 0, or construction raises OutOfDomainError.
    """

    dgp: DgpSpec
    sweep: str = "n_samples"
    values: tuple = (50, 100, 200, 400)
    trials: int = 50
    n_rows: int = 50
    n_cols: int = 30
    eta_policy: str = "tuned"
    eta: float | None = None
    tune_budget: int = 50
    min_neighbors: int = 2
    rows_per_neighbor: int = 10
    baseline_resamples: int = 100
    target: object = "random"  # or a fixed (row, col) pair
    seed: int = 0

    def __post_init__(self):
        if self.sweep not in ("n_samples", "n_rows", "n_times_neighbors"):
            raise OutOfDomainError(f"unknown sweep variable: {self.sweep!r}")
        if self.sweep == "n_times_neighbors" and not all(
                isinstance(v, numbers.Real) and not isinstance(v, bool) and 0.0 < v < math.inf
                for v in self.values):
            raise OutOfDomainError("n_times_neighbors sweep values must be finite numbers > 0")
        if len(self.values) < 1 or any(
            b <= a for a, b in zip(self.values, self.values[1:])
        ):
            raise OutOfDomainError("sweep values must be strictly increasing")
        if self.sweep != "n_times_neighbors":
            if np.asarray(self.values).dtype.kind not in "iu":
                raise OutOfDomainError(f"{self.sweep} sweep values must be integers")
            _check_count(f"{self.sweep} sweep values", min(self.values))
        for name in ("n_rows", "n_cols", "trials", "tune_budget", "min_neighbors",
                     "rows_per_neighbor", "baseline_resamples"):
            # kept as Python ints, which the trials' products cannot wrap
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        if self.eta_policy not in ("tuned", "fixed"):
            raise OutOfDomainError(f"unknown eta policy: {self.eta_policy!r}")
        if self.eta_policy == "fixed":
            _check_threshold("eta", self.eta)
        if self.target != "random":
            if not isinstance(self.target, (tuple, list)) or len(self.target) != 2:
                raise OutOfDomainError(f'target must be "random" or a (row, col) pair, got {self.target!r}')
            object.__setattr__(self, "target", tuple(_check_count("target", v, 0) for v in self.target))
        _check_seed(self.seed)


@dataclass(frozen=True)
class _TrialRecord:
    error: float
    baseline_error: float
    n_neighbors: int
    n_j: int
    est_summaries: dict
    base_summaries: dict
    true_summaries: dict


def _run_trial(spec: ExperimentSpec, value, seed_seq, var_alpha=0.05) -> _TrialRecord:
    rng = np.random.default_rng(seed_seq)
    n_rows = spec.n_rows
    n_per_entry = spec.dgp.n_per_entry
    cap = None
    if value is not None:
        if spec.sweep == "n_samples":
            n_per_entry = int(value)
        elif spec.sweep == "n_rows":
            n_rows = int(value)
        else:
            n = int(np.max(spec.dgp.n_for_columns(spec.n_cols)))
            cap = max(1, int(round(value / n)))
            n_rows = max(spec.n_rows, spec.rows_per_neighbor * cap)
    dgp = replace(spec.dgp, n_per_entry=n_per_entry, seed=int(rng.integers(2**63)))
    full, truth = generate(dgp, n_rows, spec.n_cols)
    if spec.target == "random":
        i = int(rng.integers(n_rows))
        j = int(rng.integers(spec.n_cols))
    else:
        i, j = spec.target
    masked = full.mask_cell(i, j)

    if cap is not None:
        result = impute(masked, i, j, math.inf, var_alpha, max_neighbors=cap)
    else:
        if spec.eta_policy == "fixed":
            eta = spec.eta
        else:
            cfg = TuneConfig(budget=spec.tune_budget, seed=int(rng.integers(2**63)))
            eta = tune_eta(masked, i, j, cfg).best_eta
        result = impute(masked, i, j, eta, var_alpha, min_neighbors=spec.min_neighbors)

    error = truth.w2sq_error(i, j, result.estimate)
    n_j = int(truth.n_per_col[j])
    reps = spec.baseline_resamples
    # one call draws the same values, in order, as one call per resample
    draws = np.sort(truth.sample(i, j, reps * n_j, rng).reshape(reps, n_j), axis=1)
    first_draw = _presorted(draws[0])
    baseline_total = 0.0
    for draw_error in _w2sq_steps_to_base(truth.base, draws, first_draw.step_edges(),
                                          truth.loc[i, j], truth.scale[i, j]).tolist():
        baseline_total += draw_error
    return _TrialRecord(
        error=error,
        baseline_error=baseline_total / reps,
        n_neighbors=result.neighbors.size,
        n_j=n_j,
        est_summaries=result.summaries,
        base_summaries=distribution_summaries(first_draw, var_alpha),
        true_summaries=truth.cell_summaries(i, j, var_alpha),
    )


@dataclass(frozen=True, eq=False)
class ScalingResult:
    sweep: str
    values: np.ndarray
    fit_x: np.ndarray
    mean_errors: np.ndarray
    std_errors: np.ndarray
    baseline_means: np.ndarray
    mean_neighbors: np.ndarray
    n_failed: np.ndarray
    fit: PowerLawFit
    eta_policy: str

    def csv_rows(self):
        rows = []
        for idx, v in enumerate(self.values):
            common = {
                "sweep_value": float(v),
                "fit_x": float(self.fit_x[idx]),
                "mean_neighbors": float(self.mean_neighbors[idx]),
                "n_failed": int(self.n_failed[idx]),
            }
            for method, mean, std in (
                ("estimator", self.mean_errors[idx], self.std_errors[idx]),
                ("single_entry_baseline", self.baseline_means[idx], math.nan),
            ):
                rows.append(dict(common, method=method, mean_error=float(mean),
                                 std_error=float(std)))
        return rows

    def summary(self) -> dict:
        return {
            "sweep": self.sweep,
            "eta_policy": self.eta_policy,
            "fit_amplitude": self.fit.amplitude,
            "fit_exponent": self.fit.exponent,
            "fit_degenerate": self.fit.degenerate,
            "values": [float(v) for v in self.values],
            "fit_x": [float(v) for v in self.fit_x],
            "mean_errors": [float(v) for v in self.mean_errors],
            "baseline_means": [float(v) for v in self.baseline_means],
        }


def _run_trials(spec: ExperimentSpec, value, seeds, what, var_alpha=0.05):
    """Run one trial per seed; return the records of those that found
    neighbors and the count of those that did not. Raises
    ExperimentAbortedError when the failures exceed MAX_FAILURE_FRACTION."""
    records = []
    for seed_seq in seeds:
        try:
            records.append(_run_trial(spec, value, seed_seq, var_alpha))
        except NoNeighborsError:
            pass
    n_failed = len(seeds) - len(records)
    if n_failed > MAX_FAILURE_FRACTION * len(seeds):
        raise ExperimentAbortedError(
            f"{what}: {n_failed}/{len(seeds)} trials failed, above the "
            f"{MAX_FAILURE_FRACTION:.0%} abort threshold"
        )
    return records, n_failed


def run_scaling(spec: ExperimentSpec) -> ScalingResult:
    """Sweep one variable, scoring mean squared W2 error per value, then fit
    a power law to the means on log-log axes. Raises OutOfDomainError, before
    any trial runs, for a sweep of fewer than two values."""
    if len(spec.values) < 2:
        raise OutOfDomainError("a sweep needs two or more values to fit a power law")
    root = np.random.SeedSequence(spec.seed)
    children = root.spawn(len(spec.values) * spec.trials)
    mean_errors, std_errors, baselines, mean_k, fit_x, failed = [], [], [], [], [], []
    for vi, value in enumerate(spec.values):
        records, n_failed = _run_trials(
            spec, value, children[vi * spec.trials:(vi + 1) * spec.trials],
            f"sweep value {value}")
        errors = np.asarray([rec.error for rec in records])
        mean_errors.append(errors.mean())
        std_errors.append(errors.std(ddof=1) / np.sqrt(errors.size) if errors.size > 1 else 0.0)
        baselines.append(float(np.mean([rec.baseline_error for rec in records])))
        mean_k.append(float(np.mean([rec.n_neighbors for rec in records])))
        if spec.sweep == "n_times_neighbors":
            fit_x.append(float(np.mean([rec.n_j * rec.n_neighbors for rec in records])))
        else:
            fit_x.append(float(value))
        failed.append(n_failed)
    fit = fit_power_law(np.asarray(fit_x), np.asarray(mean_errors))
    return ScalingResult(
        sweep=spec.sweep,
        values=np.asarray(spec.values, dtype=float),
        fit_x=np.asarray(fit_x),
        mean_errors=np.asarray(mean_errors),
        std_errors=np.asarray(std_errors),
        baseline_means=np.asarray(baselines),
        mean_neighbors=np.asarray(mean_k),
        n_failed=np.asarray(failed, dtype=np.int64),
        fit=fit,
        eta_policy=spec.eta_policy,
    )


@dataclass(frozen=True, eq=False)
class DenoisingResult:
    estimator_mean_error: float
    baseline_mean_error: float
    estimator_errors: np.ndarray
    baseline_errors: np.ndarray
    n_failed: int


def run_denoising(spec: ExperimentSpec) -> DenoisingResult:
    """Mean estimator error versus the single-entry baseline at one setting."""
    records, n_failed = _run_trials(
        spec, None, np.random.SeedSequence(spec.seed).spawn(spec.trials), "denoising")
    errors = np.asarray([rec.error for rec in records])
    base = np.asarray([rec.baseline_error for rec in records])
    return DenoisingResult(
        estimator_mean_error=float(errors.mean()),
        baseline_mean_error=float(base.mean()),
        estimator_errors=errors,
        baseline_errors=base,
        n_failed=n_failed,
    )


@dataclass(frozen=True, eq=False)
class QuantityEvalResult:
    """Relative errors of derived scalar quantities, estimator vs baseline."""

    estimator_rel_errors: dict
    baseline_rel_errors: dict
    n_excluded: dict
    n_failed: int

    def csv_rows(self):
        rows = []
        for q in self.estimator_rel_errors:
            for method, errs in (
                ("estimator", self.estimator_rel_errors[q]),
                ("single_entry_baseline", self.baseline_rel_errors[q]),
            ):
                lo, med, hi = np.quantile(errs, [0.25, 0.5, 0.75])
                rows.append(
                    {
                        "quantity": q,
                        "method": method,
                        "q1": float(lo),
                        "median": float(med),
                        "q3": float(hi),
                        "min": float(np.min(errs)),
                        "max": float(np.max(errs)),
                        "n_excluded": int(self.n_excluded[q]),
                    }
                )
        return rows


def run_quantity_eval(spec: ExperimentSpec, quantities=QUANTITIES, var_alpha: float = 0.05) -> QuantityEvalResult:
    """Relative error of mean/median/std/VaR estimates, estimator vs a single
    fresh sample array; cells whose true value is below 1e-9 in magnitude are
    excluded and counted."""
    records, n_failed = _run_trials(
        spec, None, np.random.SeedSequence(spec.seed).spawn(spec.trials),
        "quantity eval", var_alpha)
    est = {q: [] for q in quantities}
    base = {q: [] for q in quantities}
    excluded = {q: 0 for q in quantities}
    for rec in records:
        for q in quantities:
            truth_val = rec.true_summaries[q]
            if abs(truth_val) < 1e-9:
                excluded[q] += 1
                continue
            est[q].append(abs(rec.est_summaries[q] - truth_val) / abs(truth_val))
            base[q].append(abs(rec.base_summaries[q] - truth_val) / abs(truth_val))
    return QuantityEvalResult(
        estimator_rel_errors={q: np.asarray(v) for q, v in est.items()},
        baseline_rel_errors={q: np.asarray(v) for q, v in base.items()},
        n_excluded=excluded,
        n_failed=n_failed,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo verification of the exact uniform barycenter error formulas.

@dataclass(frozen=True)
class MonteCarloRow:
    m: int
    n: int
    simulated_mean: float
    closed_form: float
    z_score: float
    trials: int


def _simulate_uniform_barycenter(a, b, n, trials, rng):
    """Mean and SE of W2^2(empirical barycenter, true barycenter) for uniform
    collections with intervals (a_i, b_i) and n samples each."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0]
    a_bar, b_bar = float(a.mean()), float(b.mean())
    uniform = make_base("uniform")
    edges = np.arange(1, n + 1, dtype=float) / n
    errors = np.empty(trials)
    chunk = _chunk_rows(m * n)
    for lo in range(0, trials, chunk):
        # scaled and shifted in place (the same products and sums), and each
        # chunk's draws dropped once averaged, so one chunk is held at a time
        x = rng.random((min(chunk, trials - lo), m, n))
        x *= (b - a)[None, :, None]
        x += a[None, :, None]
        x.sort(axis=2)
        x = x.mean(axis=1)
        errors[lo : lo + x.shape[0]] = _w2sq_steps_to_base(uniform, x, edges, a_bar, b_bar - a_bar)
        x = None
    se = errors.std(ddof=1) / np.sqrt(trials) if trials > 1 else math.inf
    return float(errors.mean()), float(se)


def verify_uniform_barycenter_error(m_list=(1, 5, 20), n_list=(5, 20, 100), trials: int = 10_000, seed: int = 0):
    """Compare the simulated mean barycenter error of uniform collections to
    the exact closed form; returns one row per (m, n) cell with its z-score.

    Collections share a common width with seeded random locations, the
    regime where the closed form is exact.
    """
    # fewer than 100 trials give no meaningful z-score
    trials = _check_count("trials", trials, lo=100)
    m_list = [_check_count("each entry of m_list", m) for m in m_list]
    n_list = [_check_count("each entry of n_list", n) for n in n_list]
    _check_seed(seed)
    root = np.random.SeedSequence(seed)
    rows = []
    for m in m_list:
        for n in n_list:
            rng = np.random.default_rng(root.spawn(1)[0])
            a = rng.uniform(-2.0, 2.0, m)
            b = a + rng.uniform(0.5, 2.5)
            sim_mean, sim_se = _simulate_uniform_barycenter(a, b, n, trials, rng)
            closed = uniform_barycenter_expected_w2_sq(list(zip(a, b)), n)
            z = (sim_mean - closed) / sim_se
            rows.append(
                MonteCarloRow(
                    m=m, n=n, simulated_mean=sim_mean,
                    closed_form=closed, z_score=float(z), trials=trials,
                )
            )
    return rows


@dataclass(frozen=True, eq=False)
class RateResult:
    """Barycenter error scaling across collection size k and sample count n."""

    k_list: tuple
    k_errors: np.ndarray
    k_closed: np.ndarray
    doubling_ratios: np.ndarray
    n_list: tuple
    n_errors: np.ndarray
    n_closed: np.ndarray
    slope_fit: PowerLawFit

    def summary(self) -> dict:
        return {
            "k_list": list(self.k_list),
            "k_errors": [float(v) for v in self.k_errors],
            "doubling_ratios": [float(v) for v in self.doubling_ratios],
            "n_list": list(self.n_list),
            "n_errors": [float(v) for v in self.n_errors],
            "slope_exponent": self.slope_fit.exponent,
        }


def verify_barycenter_rate(
    k_list=(8, 16, 32),
    n_list=(100, 250, 500, 1000, 2000),
    trials_k: int = 3000,
    trials_n: int = 600,
    n_fixed: int = 500,
    k_fixed: int = 32,
    seed: int = 0,
) -> RateResult:
    """Check the multiplicative 1/(nk) + 1/n^2 barycenter error shape.

    At fixed n, doubling the number of distributions k should roughly halve
    the mean error (the 1/(nk) regime); at fixed k the log-log slope in n
    sits between the 1/n and 1/n^2 regimes. Unit-width uniform intervals at
    seeded random locations keep the closed-form target constant across k.
    """
    trials_k = _check_count("trials_k", trials_k)
    trials_n = _check_count("trials_n", trials_n)
    n_fixed = _check_count("n_fixed", n_fixed)
    k_fixed = _check_count("k_fixed", k_fixed)
    k_list = [_check_count("each entry of k_list", k) for k in k_list]
    n_list = [_check_count("each entry of n_list", n) for n in n_list]
    _check_seed(seed)
    root = np.random.SeedSequence(seed)
    settings = ([(k, n_fixed, trials_k) for k in k_list]
                + [(k_fixed, n, trials_n) for n in n_list])
    errors, closed = [], []
    for k, n, trials in settings:
        rng = np.random.default_rng(root.spawn(1)[0])
        a = rng.uniform(-1.0, 1.0, k)
        b = a + 1.0
        mean, _ = _simulate_uniform_barycenter(a, b, n, trials, rng)
        errors.append(mean)
        closed.append(uniform_barycenter_expected_w2_sq(list(zip(a, b)), n))
    n_k = len(k_list)
    k_errors = np.asarray(errors[:n_k])
    n_errors = np.asarray(errors[n_k:])
    return RateResult(
        k_list=tuple(k_list),
        k_errors=k_errors,
        k_closed=np.asarray(closed[:n_k]),
        doubling_ratios=k_errors[1:] / k_errors[:-1],
        n_list=tuple(n_list),
        n_errors=n_errors,
        n_closed=np.asarray(closed[n_k:]),
        slope_fit=fit_power_law(np.asarray(n_list, dtype=float), n_errors),
    )
