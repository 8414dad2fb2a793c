"""Command-line interface: impute, tune, bands, simulate, and verify.

Every output file embeds the fully resolved configuration including the
seed, and timestamps are never written, so re-running a command with the
recorded configuration reproduces its output byte for byte.

Output is strict JSON: a non-finite number is written as null.

Exit codes: 0 success, 1 usage, parse, target or other input error, 2 no
neighbors found (with --fallback-nearest: no row at a finite distance).

``impute --fallback-nearest`` is the estimator's neighbour floor at one row,
``impute(..., min_neighbors=1)``: the CLI keeps no fallback rule of its own.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, fields

from .empirical import EmpiricalDistribution
from .errors import (
    AllTrialsFailedError,
    DistnnError,
    NoNeighborsError,
    NoObservedCellsError,
)
from .estimator import impute
from .experiments import (
    ExperimentSpec,
    run_scaling,
    verify_uniform_barycenter_error,
    verify_barycenter_rate,
)
from .inference import (
    SigmaFunction,
    _check_reps,
    _per_level_alpha,
    asymptotic_band,
    bootstrap_band,
    default_levels,
)
from .panel import _open_text, _write_json, load_panel
from .synthetic import DgpSpec
from .tuning import TuneConfig, tune_eta

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NO_NEIGHBORS = 2


def _write_csv(path, rows) -> None:
    with _open_text(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _estimate_payload(estimate) -> dict:
    if isinstance(estimate, EmpiricalDistribution):
        return {"kind": "samples", "samples": estimate.samples.tolist()}
    return {"kind": "quantile_grid", "levels": estimate.edges.tolist(),
            "values": estimate.values.tolist()}


def _result_payload(panel, result) -> dict:
    ns = result.neighbors
    payload = {
        "row": panel.row_keys[ns.target_row],
        "col": panel.col_keys[ns.target_col],
        "eta": ns.eta,
        "neighbors": {
            "rows": [panel.row_keys[u] for u in ns.rows],
            "distances": [float(d) for d in ns.distances],
            "overlap_counts": [int(c) for c in ns.overlap_counts],
        },
        "estimate": _estimate_payload(result.estimate),
        "summaries": result.summaries,
    }
    if ns.fallback:
        payload["fallback"] = True
    return payload


# parsed arguments that are not configuration: the handler and the output
# paths; row and col are echoed as one "target" pair
_NOT_ECHOED = ("func", "output", "output_prefix", "row", "col")


def _config(args, *drop, **extra) -> dict:
    """The configuration an output file echoes: every parsed option except
    ``drop``, the target cell when the command has one, and ``extra``."""
    options = vars(args)
    config = {k: v for k, v in options.items() if k not in _NOT_ECHOED + drop}
    if "row" in options:
        config["target"] = (None if options.get("all_missing")
                            else [args.row, args.col])
    return {**config, **extra}


def _no_neighbors(args, config, exc) -> int:
    _write_json(args.output, {"config": config, "error": "no_neighbors",
                              "message": str(exc)})
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_NO_NEIGHBORS


def _tune_config(args) -> TuneConfig:
    """TuneConfig of the parsed options named as its fields; defaults for the rest."""
    return TuneConfig(**{f.name: getattr(args, f.name) for f in fields(TuneConfig) if hasattr(args, f.name)})


def _resolve_eta(panel, cell, args):
    if args.eta is not None:
        return float(args.eta)
    return tune_eta(panel.matrix, cell[0], cell[1], _tune_config(args)).best_eta


def _cmd_impute(args) -> int:
    panel = load_panel(args.input)
    config = _config(args)

    def impute_cell(cell):
        result = impute(panel.matrix, cell[0], cell[1], _resolve_eta(panel, cell, args),
                        args.var_alpha, args.min_overlap,
                        min_neighbors=int(args.fallback_nearest))
        return _result_payload(panel, result)

    if args.all_missing:
        results, failures = [], []
        for cell in panel.matrix.missing_cells():
            try:
                results.append(impute_cell(cell))
            except (NoNeighborsError, NoObservedCellsError, AllTrialsFailedError) as exc:
                failures.append({"row": panel.row_keys[cell[0]],
                                 "col": panel.col_keys[cell[1]],
                                 "error": str(exc)})
        _write_json(args.output, {"config": config, "results": results,
                                  "failures": failures})
        return EXIT_OK

    # target and tuning errors exit 1 through main
    cell = panel.cell_index(args.row, args.col)
    try:
        result = impute_cell(cell)
    except NoNeighborsError as exc:
        return _no_neighbors(args, config, exc)
    _write_json(args.output, {"config": config, "result": result})
    return EXIT_OK


def _cmd_tune(args) -> int:
    panel = load_panel(args.input)
    cell = panel.cell_index(args.row, args.col)
    report = tune_eta(panel.matrix, cell[0], cell[1], _tune_config(args))
    _write_json(args.output, {
        "config": _config(args),
        "best_eta": report.best_eta,
        "trials": [asdict(t) for t in report.trials],
    })
    return EXIT_OK


def _cmd_bands(args) -> int:
    panel = load_panel(args.input)
    cell = panel.cell_index(args.row, args.col)
    eta = _resolve_eta(panel, cell, args)
    levels = default_levels(args.levels)
    config = _config(args, "tune", "budget", eta=eta)
    try:
        if args.method == "bootstrap":
            band = bootstrap_band(
                panel.matrix, cell[0], cell[1], eta, args.alpha, levels,
                reps_samples=args.reps_samples,
                reps_neighbors=args.reps_neighbors,
                seed=args.seed, simultaneous=args.simultaneous,
            )
        else:
            # bad options fail before the neighbour search, in bootstrap_band's order
            _check_reps(args.reps_samples, args.reps_neighbors)
            _per_level_alpha(args.alpha, levels.shape[0], args.simultaneous)
            result = impute(panel.matrix, cell[0], cell[1], eta)
            sigma = SigmaFunction.from_result(panel.matrix, result)
            n_j = min(
                panel.matrix.entry(u, cell[1]).n for u in result.neighbors.rows
            )
            band = asymptotic_band(result, sigma, n_j, args.alpha, levels,
                                   args.simultaneous)
    except NoNeighborsError as exc:
        return _no_neighbors(args, config, exc)
    _write_json(args.output, {
        "config": config,
        "band": {
            "levels": [float(v) for v in band.levels],
            "lower": [float(v) for v in band.lower],
            "upper": [float(v) for v in band.upper],
            "alpha": band.alpha,
            "method": band.method,
            "simultaneous": band.simultaneous,
        },
    })
    return EXIT_OK


def _cmd_simulate(args) -> int:
    dgp = DgpSpec(
        kind=args.kind,
        base_family=args.base,
        n_per_entry=args.n,
    )
    spec = ExperimentSpec(
        dgp=dgp,
        sweep=args.sweep,
        values=tuple(args.values),
        trials=args.trials,
        n_rows=args.rows,
        n_cols=args.cols,
        eta_policy="fixed" if args.eta is not None else "tuned",
        eta=args.eta,
        tune_budget=args.budget,
        min_neighbors=args.min_neighbors,
        seed=args.seed,
    )
    result = run_scaling(spec)
    rows = result.csv_rows()
    _write_csv(f"{args.output_prefix}.csv", rows)
    _write_json(f"{args.output_prefix}.json",
                {"config": _config(args), "summary": result.summary()})
    print(f"fitted exponent: {result.fit.exponent:.4f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.subject == "uniform-barycenter":
        rows = verify_uniform_barycenter_error(trials=args.trials, seed=args.seed)
        table = [asdict(r) for r in rows]
        _write_csv(f"{args.output_prefix}.csv", table)
        _write_json(f"{args.output_prefix}.json", {
            "config": _config(args),
            "rows": table,
            "max_abs_z": max(abs(r.z_score) for r in rows),
        })
        for r in rows:
            print(f"m={r.m:3d} n={r.n:4d} simulated={r.simulated_mean:.6g} "
                  f"closed={r.closed_form:.6g} z={r.z_score:+.2f}")
        return EXIT_OK
    result = verify_barycenter_rate(seed=args.seed)
    _write_json(f"{args.output_prefix}.json", {
        "config": _config(args, "trials"),
        "summary": result.summary(),
    })
    for k, err in zip(result.k_list, result.k_errors):
        print(f"k={k:3d} mean_error={err:.6g}")
    print(f"doubling ratios: {[round(float(r), 4) for r in result.doubling_ratios]}")
    print(f"slope in n: {result.slope_fit.exponent:.4f}")
    return EXIT_OK


def _seed(text: str) -> int:
    """Type of every ``--seed``: numpy seeds are non-negative integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_panel_command(sub, name, func, help, target_required=True):
    """Subcommand over a panel's target cell that may tune eta and writes one file."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--input", required=True, help="panel CSV or matrix JSON")
    p.add_argument("--row", required=target_required, help="target row key")
    p.add_argument("--col", required=target_required, help="target column key")
    p.add_argument("--budget", type=int, default=50, help="tuning candidate budget")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", default=f"{name}_result.json")
    p.set_defaults(func=func)
    return p


def _add_eta_args(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--eta", type=float, default=None,
                       help="fixed distance threshold")
    group.add_argument("--tune", action="store_true",
                       help="select eta by leave-one-out validation (default)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distnn",
        description="Distributional matrix completion with Wasserstein "
                    "nearest neighbors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_panel_command(sub, "impute", _cmd_impute,
                           "impute one target cell or all missing cells",
                           target_required=False)
    p.add_argument("--all-missing", action="store_true",
                   help="impute every missing cell")
    _add_eta_args(p)
    p.add_argument("--var-alpha", type=float, default=0.05)
    p.add_argument("--min-overlap", type=int, default=1)
    p.add_argument("--fallback-nearest", action="store_true",
                   help="fall back to the single nearest row when no "
                        "neighbor passes the threshold")

    p = _add_panel_command(sub, "tune", _cmd_tune,
                           "select the eta threshold for a target cell")
    p.add_argument("--search", choices=["log_grid", "random_log_uniform"],
                   default="log_grid")
    p.add_argument("--eta-min", type=float, default=None)
    p.add_argument("--eta-max", type=float, default=None)
    p.add_argument("--min-overlap", type=int, default=1)

    p = _add_panel_command(sub, "bands", _cmd_bands,
                           "confidence bands for an imputed quantile function")
    _add_eta_args(p)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--levels", type=int, default=99,
                   help="number of evenly spaced interior levels")
    p.add_argument("--pointwise", dest="simultaneous", action="store_false",
                   help="per-level coverage instead of simultaneous")
    p.add_argument("--method", choices=["bootstrap", "asymptotic-kde"],
                   default="bootstrap")
    p.add_argument("--reps-samples", type=int, default=10)
    p.add_argument("--reps-neighbors", type=int, default=10)

    p = sub.add_parser("simulate", help="run a synthetic scaling study")
    p.add_argument("--kind", choices=["homoscedastic", "heteroscedastic"],
                   default="heteroscedastic")
    p.add_argument("--base", choices=["uniform", "truncated_gaussian", "gaussian"],
                   default="uniform")
    p.add_argument("--sweep", choices=["n_samples", "n_rows", "n_times_neighbors"],
                   default="n_samples")
    p.add_argument("--values", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--rows", type=int, default=50)
    p.add_argument("--cols", type=int, default=30)
    p.add_argument("--n", type=int, default=100,
                   help="samples per entry (base value)")
    p.add_argument("--eta", type=float, default=None,
                   help="fixed eta; omit to tune per trial")
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--min-neighbors", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output-prefix", default="simulate_result")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="Monte-Carlo checks against exact formulas")
    p.add_argument("subject", choices=["uniform-barycenter", "barycenter-rate"])
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output-prefix", default="verify_result")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse printed its usage error; --help exits 0
        if not exc.code:
            raise
        return EXIT_BAD_INPUT
    except DistnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
