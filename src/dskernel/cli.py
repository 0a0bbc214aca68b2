"""Command-line entry point.

Subcommands: simulate, scale, density, denoise, laplacian, scrna, bench.
Parameter errors exit with status 1 and a one-line "error: ..." message on
stderr; usage errors exit with argparse's status 2. Non-fatal notes (rejected
zero-total rows, negative corrected distances) are one-line "note: ..."
messages on stderr and leave the exit status alone.
"""

import argparse
import csv
import sys
from itertools import repeat

import numpy as np

from . import counts as counts_mod
from . import density as density_mod
from . import geometry, harness
from .errors import ConvergenceError, ParameterError, ParseError
from .geometry import _write_csv
from .scaling import POINTS_SOLVE


def _parse_s(text):
    """An exponent s: "limit" or a float, either as ``ds_kde`` accepts it."""
    try:
        s = density_mod.S_LIMIT if text == "limit" else float(text)
        density_mod._check_s(s)
    except ValueError:  # ParameterError included
        raise argparse.ArgumentTypeError(
            f"must be limit or a finite s > 0 other than 1, got {text!r}") from None
    return s


def _nonnegative_int(text):
    """A seed or a per-class cell count: an integer, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="generate a synthetic circle dataset")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--m", type=int, default=2000)
    p.add_argument("--noise", default="none", choices=geometry.NOISE_MODELS)
    p.add_argument("--two-circles", action="store_true")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True, help="points CSV path")
    p.add_argument("--sidecar", required=True, help="ground-truth sidecar CSV path")
    p.set_defaults(run=_cmd_simulate)


def _add_scale(sub):
    p = sub.add_parser("scale", help="solve the doubly stochastic scaling")
    p.add_argument("--input", required=True, help="points CSV")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--tol", type=float, default=POINTS_SOLVE.tol)
    p.add_argument("--max-iter", type=int, default=POINTS_SOLVE.max_iter)
    p.add_argument("--out", required=True, help="log_d CSV path")
    p.add_argument("--residuals-out", help="residual history CSV path")
    p.set_defaults(run=_cmd_scale)


def _add_density(sub):
    p = sub.add_parser("density", help="doubly stochastic kernel density estimate")
    p.add_argument("--input", required=True, help="points CSV")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--s", type=_parse_s, default=2.0, help='exponent or "limit"')
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tol", type=float, default=POINTS_SOLVE.tol)
    p.add_argument("--max-iter", type=int, default=POINTS_SOLVE.max_iter)
    p.add_argument("--sidecar", help="sidecar CSV with true densities")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_density)


def _add_denoise(sub):
    p = sub.add_parser("denoise", help="noise/signal magnitudes and corrected distances")
    p.add_argument("--input", required=True, help="points CSV")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--s", type=_parse_s, default=2.0)
    p.add_argument("--dim", type=int)
    p.add_argument("--debias", action="store_true")
    p.add_argument("--tol", type=float, default=POINTS_SOLVE.tol)
    p.add_argument("--max-iter", type=int, default=POINTS_SOLVE.max_iter)
    p.add_argument("--sidecar", help="sidecar CSV with true noise magnitudes")
    p.add_argument("--out", required=True)
    p.add_argument("--dists-out", help="optional full corrected-distance matrix CSV")
    p.set_defaults(run=_cmd_denoise)


def _add_laplacian(sub):
    p = sub.add_parser("laplacian", help="operator error of robust vs traditional Laplacians")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, action="append", required=True,
                   help="repeatable for a sweep")
    p.add_argument("--family", choices=["robust", "traditional", "both"], default="both")
    p.add_argument("--test-function", choices=["paper-circle"], default="paper-circle")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--noise", default="none", choices=geometry.NOISE_MODELS)
    p.add_argument("--s", type=_parse_s, default=2.0)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_laplacian)


def _add_scrna(sub):
    p = sub.add_parser("scrna", help="count-matrix pipeline (matrix-market or CSV)")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["matrix-market", "csv"], default="matrix-market")
    p.add_argument("--labels", help="CSV with one label per row")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--s", type=_parse_s, default=2.0)
    p.add_argument("--subsample", type=_nonnegative_int, default=500,
                   help="cells per class, with --labels only (0 keeps every cell)")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--tol", type=float, default=harness.COUNTS_SOLVE.tol)
    p.add_argument("--max-iter", type=int, default=harness.COUNTS_SOLVE.max_iter)
    p.add_argument("--out", required=True)
    p.add_argument("--transitions-out", help="transition-error table CSV")
    p.set_defaults(run=_cmd_scrna)


def _add_bench(sub):
    p = sub.add_parser("bench", help="reproduce a benchmark figure's data as CSV")
    p.add_argument("figure", choices=harness.EXPERIMENTS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--s", type=_parse_s, default=2.0)
    p.add_argument("--noise", choices=geometry.NOISE_MODELS)
    p.add_argument("--sweep", type=float, nargs="+")
    p.add_argument("--sweep-param", choices=["n", "epsilon"])
    p.set_defaults(run=_cmd_bench)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dskernel",
        description="doubly stochastic Gaussian-kernel normalization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_simulate, _add_scale, _add_density, _add_denoise,
                _add_laplacian, _add_scrna, _add_bench):
        add(sub)
    return parser


def _read_sidecar_column(path, column, n):
    """One float column of a sidecar CSV holding a row for each of ``n``
    points; without a sidecar, an endless column of empty cells."""
    if not path:
        return repeat("")
    reader = csv.DictReader(geometry.read_text_lines(path))
    if column not in (reader.fieldnames or ()):
        raise ParseError(f"no column {column!r}", line=1)
    values = []
    for row in reader:
        try:
            values.append(float(row[column]))
        except (TypeError, ValueError):  # a short row leaves the field None
            raise ParseError(f"{column}: cannot parse {row[column]!r}",
                             line=reader.line_num) from None
    if len(values) != n:
        raise ParameterError(f"sidecar has {len(values)} rows for {n} points")
    return np.array(values)


def _cmd_simulate(args):
    sample, noise = harness.circle_dataset(args.n, args.m, args.noise, args.seed,
                                           args.two_circles)
    geometry.save_dataset_csv(args.out, args.sidecar, sample, noise)


def _cmd_scale(args):
    points = geometry.load_points_csv(args.input)
    solution = harness.scale_points(points, args.epsilon, args.tol, args.max_iter).solution
    _write_csv(args.out, ["index", "log_d", "residual", "iterations"],
               ([i, v, solution.residual, solution.iterations]
                for i, v in enumerate(solution.log_d)))
    if args.residuals_out:
        _write_csv(args.residuals_out, ["iteration", "residual"],
                   enumerate(solution.residual_history, start=1))


def _cmd_density(args):
    points = geometry.load_points_csv(args.input)
    truth = _read_sidecar_column(args.sidecar, "true_density", len(points))
    pipe = harness.scale_points(points, args.epsilon, args.tol, args.max_iter)
    est = density_mod.ds_kde(pipe.scaled, args.s, dim=args.dim)
    _write_csv(args.out, ["index", "raw", "normalized", "true_density_if_known", "abs_error"],
               zip(range(len(est.raw)), est.raw, est.normalized, truth,
                   abs(est.normalized - truth) if args.sidecar else repeat("")))


def _cmd_denoise(args):
    points = geometry.load_points_csv(args.input)
    truth = _read_sidecar_column(args.sidecar, "true_noise_sq", len(points))
    pipe = harness.scale_points(points, args.epsilon, args.tol, args.max_iter)
    table = harness.estimate_table(pipe, points, args.s, args.dim, args.debias)
    _write_csv(args.out, ["index", "noise_sq_hat", "signal_sq_hat", "true_noise_sq_if_known"],
               zip(range(len(points)), table.noise_sq_hat, table.signal_sq_hat, truth))
    if args.dists_out:
        np.savetxt(args.dists_out, table.corrected_dists, delimiter=",")
        negatives = int((table.corrected_dists < 0).sum())
        if negatives:
            print(f"note: {negatives} corrected distances are negative "
                  "(expected after bias subtraction; ranking is unaffected)", file=sys.stderr)


def _cmd_laplacian(args):
    sweep = harness.laplacian_errors(args.n, args.epsilon, args.noise, args.seed,
                                     s=args.s, alpha=args.alpha)
    families = ("robust", "traditional") if args.family == "both" else (args.family,)
    _write_csv(args.out, ["epsilon", "family", "alpha", "max_error"],
               ([eps, fam, args.alpha, errs[fam]]
                for eps, errs in zip(args.epsilon, sweep) for fam in families))


def _cmd_scrna(args):
    if args.transitions_out and not args.labels:
        raise ParameterError("--transitions-out requires --labels")
    labels = counts_mod.read_labels(args.labels) if args.labels else None
    cm = counts_mod.ingest_counts(args.input, fmt=args.format, labels=labels)
    if cm.rejected_rows:
        print(f"note: rejected zero-total rows: {list(cm.rejected_rows)}", file=sys.stderr)
    if cm.labels is not None and args.subsample:
        cm = counts_mod.subsample_per_class(cm, args.subsample, args.seed)
    result = harness.count_pipeline(cm, args.epsilon, args.s, args.tol, args.max_iter)
    _write_csv(args.out, *harness.noise_table(result))
    if args.transitions_out:
        rows = harness.transition_errors(result["scaled"], result["qhat"], cm.labels)
        header = ["epsilon", "alpha", "family", "mean_error", "worst_class_error"]
        _write_csv(args.transitions_out, header, ([row[k] for k in header] for row in rows))


def _cmd_bench(args):
    config = harness.ExperimentConfig(
        experiment=args.figure, sweep=args.sweep, sweep_param=args.sweep_param,
        repeats=args.repeats, seed=args.seed, epsilon=args.epsilon, s=args.s,
        noise=args.noise, out=args.out)
    harness.run_experiment(config)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args)
    except (ParameterError, ParseError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
