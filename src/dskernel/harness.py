"""Experiment orchestration: builds each benchmark's data, runs the full
kernel -> scaling -> estimation pipeline, and writes aggregate CSV tables.
"""

import zlib
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral

import numpy as np

from . import __version__
from . import counts as counts_mod
from . import density, geometry, inference, laplacian
from .errors import ConvergenceError, ParameterError
from .kernel import _check_epsilon, gaussian_kernel, pairwise_sq_dists, standard_kde
from .scaling import POINTS_SOLVE, SolveSettings, assemble_W, sinkhorn_symmetric

# every solve on count data: the count pipeline of scrna and fig8
COUNTS_SOLVE = SolveSettings(1e-6, 10_000)
# the depth ranges of fig8's two cell clusters, a shallow and a deep one
FIG8_DEPTH_RANGES = ((400.0, 800.0), (2000.0, 4000.0))


def _figures_where(test):
    """The names of the figures whose entry passes ``test``, listed as in a sentence."""
    names = [name for name, figure in FIGURES.items() if test(figure)]
    return " and ".join([", ".join(names[:-1]), names[-1]] if len(names) > 1 else names)


@dataclass
class ExperimentConfig:
    experiment: str
    sweep: list = None
    sweep_param: str = None  # a second quantity of the figure's sweeps, if it has one
    repeats: int = 10
    seed: int = 0
    epsilon: float = 0.1
    s: object = 2.0
    noise: str = None
    out: str = None

    def __post_init__(self):
        if self.experiment not in FIGURES:
            raise ParameterError(f"unknown experiment {self.experiment!r}")
        if not isinstance(self.repeats, Integral) or self.repeats < 1:
            raise ParameterError(f"repeats must be an integer >= 1, got {self.repeats}")
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {self.seed}")
        _check_epsilon(self.epsilon)
        density._check_s(self.s)
        if self.noise is not None and self.noise not in geometry.NOISE_MODELS:
            raise ParameterError(f"unknown noise model {self.noise!r}")
        sweeps = FIGURES[self.experiment].sweeps
        if self.sweep_param is not None and len(sweeps) < 2:
            raise ParameterError(f"{self.experiment} takes no sweep parameter; only "
                                 f"{_figures_where(lambda f: len(f.sweeps) > 1)} does")
        if self.sweep_param not in (None, *sweeps):
            raise ParameterError(f"{self.experiment} sweeps {' or '.join(sweeps)}, "
                                 f"not {self.sweep_param!r}")
        if self.sweep is not None:
            if not self.sweep:
                raise ParameterError("a sweep needs at least one value")
            if not sweeps:
                raise ParameterError(f"{self.experiment} takes no sweep; only "
                                     f"{_figures_where(lambda f: f.sweeps)} do")
            if (not all(0 < v < np.inf for v in self.sweep)
                    or sorted(self.sweep) != list(self.sweep)):
                raise ParameterError("sweep values must be positive, finite and sorted")
            if self.sweep_kind == "n" and not all(float(v).is_integer() for v in self.sweep):
                raise ParameterError(f"n sweep values must be whole numbers, got {self.sweep}")

    @property
    def sweep_kind(self):
        """What the sweep varies, "n" or "epsilon"; None for a figure without one."""
        return self.sweep_param or next(iter(FIGURES[self.experiment].sweeps), None)


@dataclass
class PipelineResult:
    """A dataset's converged scaling solve and W, which holds its kernel
    (``scaled.operator``) and bandwidth, and its sample and noise if simulated."""

    solution: object
    scaled: object
    sample: object = None
    noise: object = None


def _solve(sq_dists, epsilon, tol, max_iter, sample=None, noise=None):
    """PipelineResult of the kernel of ``sq_dists`` and its solve, the one
    kernel -> solve -> W step of every pipeline here; raises ConvergenceError
    with the residual and iteration count when the solve stops short of ``tol``."""
    affinity = gaussian_kernel(sq_dists, epsilon)
    solution = sinkhorn_symmetric(affinity, tol=tol, max_iter=max_iter)
    return PipelineResult(solution, assemble_W(affinity, solution), sample, noise)


def scale_points(points, epsilon, tol, max_iter):
    """``_solve`` on the squared distances of ``points``: their kernel, solve and W."""
    return _solve(pairwise_sq_dists(points), epsilon, tol, max_iter)


def circle_dataset(n, m, noise_model="none", seed=0, two_circles=False):
    """Sample, embed and corrupt a circle dataset; returns (sample, noise).

    The seed is split into one stream each for sampling, embedding and noise.
    """
    if two_circles and n % 2:
        raise ParameterError(f"two circles need an even n, got {n}")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_sample, s_embed, s_noise = seq.spawn(3)
    if two_circles:
        sample = geometry.sample_two_circles(n_per_circle=n // 2, seed=s_sample)
    else:
        sample = geometry.sample_circle(n, geometry.CIRCLE_SIGMA_SQ, seed=s_sample)
    sample = geometry.embed_orthogonal(sample, m, seed=s_embed)
    return sample, geometry.apply_noise(sample, noise_model, seed=s_noise)


def circle_pipeline(n, m, epsilon, noise_model="none", seed=0, tol=POINTS_SOLVE.tol,
                    max_iter=POINTS_SOLVE.max_iter, two_circles=False):
    """Sample, embed, corrupt, and scale a circle dataset in one call; raises
    ConvergenceError, as ``_solve`` does, when the solve stops short of ``tol``."""
    sample, noise = circle_dataset(n, m, noise_model, seed, two_circles)
    return _solve(pairwise_sq_dists(noise.noisy_points), epsilon, tol, max_iter, sample, noise)


def _dskde_name(s):
    return "dskde_s_limit" if s == density.S_LIMIT else f"dskde_s{s:g}"


def _density_estimates(pipe, s_values, dim):
    """The normalized standard KDE and DS-KDE per exponent, by column name."""
    eps = pipe.scaled.epsilon
    estimates = {"kde": standard_kde(pipe.scaled.operator) / (np.pi * eps) ** (dim / 2.0)}
    for s in s_values:
        estimates[_dskde_name(s)] = density.ds_kde(pipe.scaled, s, dim=dim).normalized
    return estimates


def _density_errors(pipe, s_values, dim=1):
    """Max abs error of the normalized estimators against the true density."""
    truth = pipe.sample.density_values
    return {name: np.abs(est - truth).max()
            for name, est in _density_estimates(pipe, s_values, dim).items()}


def run_experiment(config):
    """Run one benchmark and return (header, rows); writes CSV if out is set.

    A parameter or convergence failure at a sweep point is recorded as a
    diagnostic row with status != "ok" rather than silently skipped; any
    other exception is a bug and propagates.
    """
    figure = FIGURES[config.experiment]
    header, rows, residuals = figure.run(config)
    if config.out:
        meta = {
            "experiment": config.experiment,
            "seed": config.seed,
            "repeats": config.repeats,
            "epsilon": config.epsilon,
            "s": config.s,
            "version": __version__,
            "max_scaling_residual": max(residuals) if residuals else "n/a",
        }
        for key in figure.ignores + (("epsilon",) if config.sweep_kind == "epsilon" else ()):
            del meta[key]
        if config.sweep is not None:
            meta["sweep"] = ";".join(str(v) for v in config.sweep)
        geometry._write_csv(config.out, header, rows, meta)
    return header, rows


def _noise_settings(config):
    if config.noise:
        return [config.noise]
    return ["none", "varying_ball", "outlier_gaussian"]


def _fig1(config):
    n = m = 2000
    header = ["noise", "index", "angle", "true_density", "kde", _dskde_name(config.s)]
    rows, residuals = [], []
    noises = _noise_settings(config)
    seeds = np.random.SeedSequence(config.seed).spawn(len(noises))
    for noise_model, seed in zip(noises, seeds):
        pipe = circle_pipeline(n, m, config.epsilon, noise_model, seed)
        residuals.append(pipe.solution.residual)
        est = _density_estimates(pipe, [config.s], pipe.sample.intrinsic_dim)
        rows += zip([noise_model] * n, range(n), pipe.sample.angles,
                    pipe.sample.density_values, est["kde"], est[header[-1]])
    return header, rows, residuals


def _sweep(config, noises, column, names, measure):
    """Mean and std over ``config.repeats`` circles of each ``measure(pipe)``
    entry in ``names``, per sweep value (default: the figure table's) and noise model.

    A sweep point stops at its first repeat that raises ParameterError or
    ConvergenceError and records the failure in its rows' status.
    """
    sweep_kind = config.sweep_kind
    header = [sweep_kind, "noise", column, "mean_max_error", "std_max_error", "status"]
    rows, residuals = [], []
    for value in config.sweep or FIGURES[config.experiment].sweeps[sweep_kind]:
        n = int(value) if sweep_kind == "n" else 2000
        eps = config.epsilon if sweep_kind == "n" else float(value)
        for noise_model in noises:
            per_name = {name: [] for name in names}
            status = "ok"
            seeds = np.random.SeedSequence(
                [config.seed, int(value * 1e6), zlib.crc32(noise_model.encode())]
            ).spawn(config.repeats)
            for seed in seeds:
                try:
                    pipe = circle_pipeline(n, n, eps, noise_model, seed)
                    errs = measure(pipe)
                except (ParameterError, ConvergenceError) as exc:
                    status = f"failed: {exc}"
                    break
                residuals.append(pipe.solution.residual)
                for name in names:
                    per_name[name].append(errs[name])
            for name, vals in per_name.items():
                rows.append([value, noise_model, name, np.mean(vals) if vals else "",
                             np.std(vals) if vals else "", status])
    return header, rows, residuals


def _density_sweep(config):
    s_values = [0.5, 2.0, density.S_LIMIT]
    names = ["kde"] + [_dskde_name(s) for s in s_values]
    return _sweep(config, _noise_settings(config), "method", names,
                  lambda pipe: _density_errors(pipe, s_values, pipe.sample.intrinsic_dim))


def _fig7(config):
    noises = [config.noise] if config.noise else ["none", "varying_ball"]
    return _sweep(config, noises, "family", ["robust", "traditional"],
                  lambda pipe: _laplacian_errors(pipe, config.s))


def estimate_table(pipe, points, s, dim, debias=False):
    """Noise and signal magnitudes and corrected distances of the ``points`` that
    ``pipe`` solved, at exponent ``s``; ``debias`` subtracts its bias at ``dim``."""
    eps = pipe.scaled.epsilon
    qhat = density.ds_kde(pipe.scaled, s)
    nhat = inference.noise_magnitude(pipe.solution, qhat, eps, debias=debias, dim=dim)
    return inference.signal_magnitude_and_distances(points, nhat, eps, s, dim,
                                                    scaled=pipe.scaled)


def _fig4(config):
    pipe = circle_pipeline(1000, 500, config.epsilon, "outlier_scaled_gaussian",
                           config.seed, two_circles=True)
    table = estimate_table(pipe, pipe.noise.noisy_points, config.s, pipe.sample.intrinsic_dim)
    header = ["index", "radius", "noisy_sq_norm", "noise_sq_hat", "true_noise_sq",
              "signal_sq_hat", "true_signal_sq"]
    y_sq = np.einsum("ij,ij->i", pipe.noise.noisy_points, pipe.noise.noisy_points)
    x_sq = np.einsum("ij,ij->i", pipe.sample.clean_points, pipe.sample.clean_points)
    rows = list(zip(range(len(y_sq)), pipe.sample.radius_labels, y_sq, table.noise_sq_hat,
                    pipe.noise.true_noise_sq, table.signal_sq_hat, x_sq))
    return header, rows, [pipe.solution.residual]


def _fig6(config):
    n = m = 1000
    k_max = 50
    sample, noise = circle_dataset(n, m, "varying_ball", config.seed)
    noisy = pairwise_sq_dists(noise.noisy_points)  # solved, then the kNN baseline
    pipe = _solve(noisy, config.epsilon, *POINTS_SOLVE, sample, noise)
    table = estimate_table(pipe, noise.noisy_points, config.s, sample.intrinsic_dim)
    clean = pairwise_sq_dists(sample.clean_points)
    acc_corr = inference.knn_recovery_accuracy(table.corrected_dists, clean, k_max)
    acc_noisy = inference.knn_recovery_accuracy(noisy, clean, k_max)
    header = ["k", "corrected_accuracy", "noisy_accuracy"]
    rows = list(zip(range(1, k_max + 1), acc_corr, acc_noisy))
    return header, rows, [pipe.solution.residual]


def _laplacian_errors(pipe, s, alpha=1.0):
    f, lap_f = geometry.test_function_and_laplacian(pipe.sample.angles)
    eps = pipe.scaled.epsilon
    qhat = density.ds_kde(pipe.scaled, s)
    robust = laplacian.robust_markov(pipe.scaled, qhat, alpha)
    trad = laplacian.traditional_markov(pipe.scaled.operator, alpha)
    return {"robust": laplacian.operator_error(robust, f, lap_f, eps),
            "traditional": laplacian.operator_error(trad, f, lap_f, eps)}


def laplacian_errors(n, epsilons, noise_model, seed, s=2.0, alpha=1.0):
    """Max operator errors of the robust vs traditional Laplacians at alpha, per epsilon."""
    laplacian._check_alpha(alpha)
    for eps in epsilons:
        _check_epsilon(eps)
    sample, noise = circle_dataset(n, n, noise_model, seed)
    d = pairwise_sq_dists(noise.noisy_points)
    # a pipeline passed only as an argument is freed before the next kernel is built
    return [_laplacian_errors(_solve(d, eps, *POINTS_SOLVE, sample, noise), s, alpha)
            for eps in epsilons]


def _median_rule(sq_dists):
    off = sq_dists[~np.eye(len(sq_dists), dtype=bool)]
    return float(np.median(off)) / 16.0


def median_sq_dist_epsilon(points):
    """Bandwidth rule of thumb for count data: median squared distance / 16."""
    return _median_rule(pairwise_sq_dists(points))


def count_pipeline(cm, epsilon=None, s=2.0, tol=COUNTS_SOLVE.tol,
                   max_iter=COUNTS_SOLVE.max_iter):
    """Count pipeline: normalize -> median-rule epsilon unless given -> scale
    -> DS-KDE -> noise estimate; raises ConvergenceError if the solve stops short."""
    y, predicted = counts_mod.normalize_counts(cm)
    d = pairwise_sq_dists(y)
    if epsilon is None:
        epsilon = _median_rule(d)
    pipe = _solve(d, epsilon, tol, max_iter)
    del d  # D is not needed past the kernel; free it before the n x n passes below
    qhat = density.ds_kde(pipe.scaled, s)
    nhat = inference.noise_magnitude(pipe.solution, qhat, epsilon)
    return {
        "counts": cm, "predicted_noise": predicted, "solution": pipe.solution,
        "scaled": pipe.scaled, "qhat": qhat, "noise_sq_hat": nhat,
    }


def noise_table(result):
    """Header and rows of a count pipeline's per-cell noise estimates; the
    label cells are empty for counts without labels, and a whole total is
    written as an integer, any other in full."""
    cm = result["counts"]
    labels = repeat("") if cm.labels is None else cm.labels
    totals = (int(t) if float(t).is_integer() else t for t in cm.totals)
    return (["index", "label", "total_count", "inv_count", "noise_sq_hat"],
            list(zip(range(len(cm.totals)), labels, totals,
                     result["predicted_noise"], result["noise_sq_hat"])))


def _fig8(config):
    cm = counts_mod.synth_poisson_counts(600, 5000, seed=config.seed,
                                         cluster_depth_ranges=FIG8_DEPTH_RANGES)
    result = count_pipeline(cm, s=config.s)
    return (*noise_table(result), [result["solution"].residual])


def transition_errors(scaled, qhat, labels):
    """Mean and worst-class transition errors per family at alpha = 0, 0.5 and 1.

    ``scaled`` is W, whose kernel ``scaled.operator`` the traditional family
    reads, and ``qhat`` the DS-KDE of W that the robust family compensates for.
    """
    rows = []
    for alpha in (0.0, 0.5, 1.0):
        families = {"robust": laplacian.robust_markov(scaled, qhat, alpha),
                    "traditional": laplacian.traditional_markov(scaled.operator, alpha)}
        for name, fam in families.items():
            mean_err, worst_err = laplacian.transition_error(fam, labels)
            rows.append({"epsilon": scaled.epsilon, "alpha": alpha, "family": name,
                         "mean_error": mean_err, "worst_class_error": worst_err})
    return rows


# The figure table, in the CLI's order: each figure's runner, which returns
# (header, rows, residuals); the quantities its sweep may vary with their
# default values, default first (a second one is what sweep_param may pick);
# and the settings it never reads, which its meta line leaves out (so does a
# sweep over epsilon leave out epsilon).
Figure = namedtuple("Figure", "run sweeps ignores", defaults=({}, ()))
FIGURES = {
    "fig1": Figure(_fig1, ignores=("repeats",)),
    "fig3": Figure(_density_sweep, {"n": (500, 1000, 2000, 3000)}, ("s",)),
    "fig4": Figure(_fig4, ignores=("repeats",)),
    "fig5": Figure(_density_sweep, {"epsilon": (0.025, 0.05, 0.1, 0.2, 0.4)}, ("s",)),
    "fig6": Figure(_fig6, ignores=("repeats",)),
    "fig7": Figure(_fig7, {"epsilon": (0.05, 0.1, 0.2, 0.4), "n": (1000, 2000, 5000)}),
    "fig8-synthetic": Figure(_fig8, ignores=("repeats", "epsilon")),
}
