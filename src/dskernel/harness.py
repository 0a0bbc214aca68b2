"""Experiment orchestration: builds each benchmark's data, runs the full
kernel -> scaling -> estimation pipeline, and writes aggregate CSV tables.
"""

import csv
import importlib.metadata
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import counts as counts_mod
from . import density, geometry, inference, laplacian
from .errors import ParameterError
from .geometry import _fmt
from .kernel import gaussian_kernel, pairwise_sq_dists, standard_kde
from .scaling import assemble_W, sinkhorn_symmetric

EXPERIMENTS = ("fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8-synthetic")

SIMULATION_PROFILE = {"tol": 1e-9, "max_iter": 100_000}
COUNTS_PROFILE = {"tol": 1e-6, "max_iter": 10_000}


@dataclass
class ExperimentConfig:
    experiment: str
    sweep: list = None
    sweep_param: str = None  # "n" or "epsilon"; defaulted per experiment
    repeats: int = 10
    seed: int = 0
    epsilon: float = 0.1
    s: object = 2.0
    dim: int = 1
    noise: str = None
    out: str = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(f"unknown experiment {self.experiment!r}")
        if self.repeats < 1:
            raise ParameterError("repeats must be at least 1")
        if self.sweep is not None:
            if any(v <= 0 for v in self.sweep) or sorted(self.sweep) != list(self.sweep):
                raise ParameterError("sweep values must be positive and sorted")


@dataclass
class PipelineResult:
    """Everything one simulated dataset produces along the standard pipeline."""

    sample: object
    noise: object
    affinity: object
    solution: object
    scaled: object


def circle_dataset(n, m, noise_model="none", seed=0, two_circles=False):
    """Sample, embed and corrupt a circle dataset; returns (sample, noise).

    The seed is split into one stream each for sampling, embedding and noise.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    s_sample, s_embed, s_noise = seq.spawn(3)
    if two_circles:
        sample = geometry.sample_two_circles(n_per_circle=n // 2, seed=s_sample)
    else:
        sample = geometry.sample_circle(n, sigma_sq=0.16 * np.pi**2, seed=s_sample)
    sample = geometry.embed_orthogonal(sample, m, seed=s_embed)
    return sample, geometry.apply_noise(sample, noise_model, seed=s_noise)


def circle_pipeline(n, m, epsilon, noise_model="none", seed=0,
                    tol=1e-9, max_iter=100_000, two_circles=False):
    """Sample, embed, corrupt, and scale a circle dataset in one call."""
    sample, noise = circle_dataset(n, m, noise_model, seed, two_circles)
    affinity = gaussian_kernel(pairwise_sq_dists(noise.noisy_points), epsilon)
    solution = sinkhorn_symmetric(affinity, tol=tol, max_iter=max_iter)
    scaled = assemble_W(affinity, solution) if solution.converged else None
    return PipelineResult(sample, noise, affinity, solution, scaled)


def _density_errors(pipe, s_values, dim=1):
    """Max abs error of the normalized estimators against the true density."""
    truth = pipe.sample.density_values
    eps = pipe.affinity.epsilon
    errors = {}
    kde = standard_kde(pipe.affinity) / (np.pi * eps) ** (dim / 2.0)
    errors["kde"] = np.abs(kde - truth).max()
    for s in s_values:
        est = density.ds_kde(pipe.scaled, s, dim=dim)
        name = "dskde_s_limit" if s == density.S_LIMIT else f"dskde_s{s:g}"
        errors[name] = np.abs(est.normalized - truth).max()
    return errors


def _write_csv(path, header, rows, meta):
    with open(path, "w", newline="") as fh:
        fh.write("# " + ", ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _package_version():
    try:
        return importlib.metadata.version("dskernel")
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def run_experiment(config):
    """Run one benchmark and return (header, rows); writes CSV if out is set.

    Any stage failure at a sweep point is recorded as a diagnostic row with
    status != "ok" rather than silently skipped.
    """
    runner = _RUNNERS[config.experiment]
    header, rows, residuals = runner(config)
    if config.out:
        meta = {
            "experiment": config.experiment,
            "seed": config.seed,
            "repeats": config.repeats,
            "epsilon": config.epsilon,
            "s": config.s,
            "version": _package_version(),
            "max_scaling_residual": max(residuals) if residuals else "n/a",
        }
        if config.sweep is not None:
            meta["sweep"] = ";".join(str(v) for v in config.sweep)
        _write_csv(config.out, header, rows, meta)
    return header, rows


def _noise_settings(config):
    if config.noise:
        return [config.noise]
    return ["none", "varying_ball", "outlier_gaussian"]


def _repeat_seeds(config, count):
    return np.random.SeedSequence(config.seed).spawn(count)


def _fig1(config):
    n = m = 2000
    header = ["noise", "index", "angle", "true_density", "kde", "dskde_s2"]
    rows, residuals = [], []
    seeds = _repeat_seeds(config, len(_noise_settings(config)))
    for noise_model, seed in zip(_noise_settings(config), seeds):
        pipe = circle_pipeline(n, m, config.epsilon, noise_model, seed)
        residuals.append(pipe.solution.residual)
        eps = config.epsilon
        kde = standard_kde(pipe.affinity) / (np.pi * eps) ** (config.dim / 2.0)
        est = density.ds_kde(pipe.scaled, 2.0, dim=config.dim)
        for i in range(n):
            rows.append([noise_model, i, _fmt(pipe.sample.angles[i]),
                         _fmt(pipe.sample.density_values[i]),
                         _fmt(kde[i]), _fmt(est.normalized[i])])
    return header, rows, residuals


def _error_sweep(config, sweep_kind):
    sweep = config.sweep or ([500, 1000, 2000, 3000] if sweep_kind == "n"
                             else [0.025, 0.05, 0.1, 0.2, 0.4])
    s_values = [0.5, 2.0, density.S_LIMIT]
    methods = ["kde", "dskde_s0.5", "dskde_s2", "dskde_s_limit"]
    header = [sweep_kind, "noise", "method", "mean_max_error", "std_max_error", "status"]
    rows, residuals = [], []
    for value in sweep:
        for noise_model in _noise_settings(config):
            per_method = {name: [] for name in methods}
            status = "ok"
            seeds = np.random.SeedSequence(
                [config.seed, int(value * 1e6), zlib.crc32(noise_model.encode())]
            ).spawn(config.repeats)
            for seed in seeds:
                n = int(value) if sweep_kind == "n" else 2000
                eps = config.epsilon if sweep_kind == "n" else float(value)
                try:
                    pipe = circle_pipeline(n, n, eps, noise_model, seed)
                    if pipe.scaled is None:
                        raise ParameterError("scaling did not converge")
                    residuals.append(pipe.solution.residual)
                    errs = _density_errors(pipe, s_values, config.dim)
                except Exception as exc:  # diagnostic row, never a silent skip
                    status = f"failed: {exc}"
                    break
                for name in methods:
                    per_method[name].append(errs[name])
            for name in methods:
                vals = per_method[name]
                rows.append([value, noise_model, name,
                             _fmt(float(np.mean(vals))) if vals else "",
                             _fmt(float(np.std(vals))) if vals else "",
                             status])
    return header, rows, residuals


def _fig3(config):
    return _error_sweep(config, "n")


def _fig5(config):
    return _error_sweep(config, "epsilon")


def _fig4(config):
    pipe = circle_pipeline(1000, 500, config.epsilon, "outlier_scaled_gaussian",
                           config.seed, two_circles=True)
    qhat = density.ds_kde(pipe.scaled, 2.0, dim=config.dim)
    nhat = inference.noise_magnitude(pipe.solution, qhat, config.epsilon)
    table = inference.signal_magnitude_and_distances(
        pipe.noise.noisy_points, nhat, config.epsilon, 2.0, config.dim)
    header = ["index", "radius", "noisy_sq_norm", "noise_sq_hat", "true_noise_sq",
              "signal_sq_hat", "true_signal_sq"]
    rows = []
    y_sq = np.einsum("ij,ij->i", pipe.noise.noisy_points, pipe.noise.noisy_points)
    x_sq = np.einsum("ij,ij->i", pipe.sample.clean_points, pipe.sample.clean_points)
    for i in range(len(nhat)):
        rows.append([i, _fmt(pipe.sample.radius_labels[i]), _fmt(y_sq[i]),
                     _fmt(nhat[i]), _fmt(pipe.noise.true_noise_sq[i]),
                     _fmt(table.signal_sq_hat[i]), _fmt(x_sq[i])])
    return header, rows, [pipe.solution.residual]


def _fig6(config):
    n = m = 1000
    k_max = 50
    pipe = circle_pipeline(n, m, config.epsilon, "varying_ball", config.seed)
    qhat = density.ds_kde(pipe.scaled, 2.0, dim=config.dim)
    nhat = inference.noise_magnitude(pipe.solution, qhat, config.epsilon)
    table = inference.signal_magnitude_and_distances(
        pipe.noise.noisy_points, nhat, config.epsilon, 2.0, config.dim)
    clean = pairwise_sq_dists(pipe.sample.clean_points)
    noisy = pairwise_sq_dists(pipe.noise.noisy_points)
    acc_corr = inference.knn_recovery_accuracy(table.corrected_dists, clean, k_max)
    acc_noisy = inference.knn_recovery_accuracy(noisy, clean, k_max)
    header = ["k", "corrected_accuracy", "noisy_accuracy"]
    rows = [[k + 1, _fmt(acc_corr[k]), _fmt(acc_noisy[k])] for k in range(k_max)]
    return header, rows, [pipe.solution.residual]


def _fig7(config):
    sweep_kind = config.sweep_param or "epsilon"
    sweep = config.sweep or ([1000, 2000, 5000] if sweep_kind == "n"
                             else [0.05, 0.1, 0.2, 0.4])
    header = [sweep_kind, "noise", "family", "mean_max_error", "std_max_error", "status"]
    rows, residuals = [], []
    noises = [config.noise] if config.noise else ["none", "varying_ball"]
    for value in sweep:
        for noise_model in noises:
            per_family = {"robust": [], "traditional": []}
            status = "ok"
            seeds = np.random.SeedSequence(
                [config.seed, int(value * 1e6), zlib.crc32(noise_model.encode())]
            ).spawn(config.repeats)
            for seed in seeds:
                n = int(value) if sweep_kind == "n" else 2000
                eps = config.epsilon if sweep_kind == "n" else float(value)
                try:
                    errs = laplacian_errors(n, eps, noise_model, seed, config.s)
                except Exception as exc:
                    status = f"failed: {exc}"
                    break
                residuals.append(errs.pop("residual"))
                for fam in per_family:
                    per_family[fam].append(errs[fam])
            for fam, vals in per_family.items():
                rows.append([value, noise_model, fam,
                             _fmt(float(np.mean(vals))) if vals else "",
                             _fmt(float(np.std(vals))) if vals else "",
                             status])
    return header, rows, residuals


def laplacian_errors(n, epsilon, noise_model, seed, s=2.0, alpha=1.0):
    """Max operator error of the robust vs traditional Laplacians at alpha."""
    pipe = circle_pipeline(n, n, epsilon, noise_model, seed)
    f, lap_f = geometry.test_function_and_laplacian(pipe.sample.angles)
    qhat = density.ds_kde(pipe.scaled, s)
    robust = laplacian.robust_markov(pipe.scaled, qhat, alpha)
    trad = laplacian.traditional_markov(pipe.affinity, alpha)
    return {
        "robust": laplacian.operator_error(robust, f, lap_f, epsilon),
        "traditional": laplacian.operator_error(trad, f, lap_f, epsilon),
        "residual": pipe.solution.residual,
    }


def median_sq_dist_epsilon(points, divisor=16.0):
    """Bandwidth rule of thumb for count data: median squared distance / divisor."""
    d = pairwise_sq_dists(points)
    off = d[~np.eye(len(d), dtype=bool)]
    return float(np.median(off)) / divisor


def poisson_noise_experiment(n=600, m=5000, seed=0, s=2.0, epsilon=None,
                             depth_range=(500.0, 2500.0), cluster_depth_ranges=None,
                             tol=1e-6, max_iter=10_000):
    """Synthetic Poisson pipeline: counts -> normalize -> scale -> noise estimate."""
    cm = counts_mod.synth_poisson_counts(
        n, m, seed=seed, depth_range=depth_range,
        cluster_depth_ranges=cluster_depth_ranges)
    y, predicted = counts_mod.normalize_counts(cm)
    if epsilon is None:
        epsilon = median_sq_dist_epsilon(y)
    affinity = gaussian_kernel(pairwise_sq_dists(y), epsilon)
    solution = sinkhorn_symmetric(affinity, tol=tol, max_iter=max_iter)
    scaled = assemble_W(affinity, solution)
    qhat = density.ds_kde(scaled, s)
    nhat = inference.noise_magnitude(solution, qhat, epsilon)
    return {
        "counts": cm, "normalized": y, "predicted_noise": predicted,
        "epsilon": epsilon, "affinity": affinity, "solution": solution,
        "scaled": scaled, "qhat": qhat, "noise_sq_hat": nhat,
    }


def _fig8(config):
    result = poisson_noise_experiment(
        seed=config.seed, s=config.s if config.s != density.S_LIMIT else 2.0,
        cluster_depth_ranges=((400.0, 800.0), (2000.0, 4000.0)))
    header = ["index", "label", "total_count", "inv_count", "noise_sq_hat"]
    rows = []
    cm = result["counts"]
    for i in range(len(cm.totals)):
        rows.append([i, cm.labels[i], int(cm.totals[i]),
                     _fmt(1.0 / cm.totals[i]), _fmt(result["noise_sq_hat"][i])])
    return header, rows, [result["solution"].residual]


def transition_errors(affinity, scaled, labels, epsilon, alphas=(0.0, 0.5, 1.0), s=2.0):
    """Mean and worst-class transition errors per (alpha, family) for one solve.

    ``affinity`` is the kernel at ``epsilon`` and ``scaled`` its W.
    """
    qhat = density.ds_kde(scaled, s)
    rows = []
    for alpha in alphas:
        robust = laplacian.robust_markov(scaled, qhat, alpha)
        trad = laplacian.traditional_markov(affinity, alpha)
        for fam in (robust, trad):
            mean_err, worst_err = laplacian.transition_error(fam, labels)
            rows.append({"epsilon": epsilon, "alpha": alpha, "family": fam.source_tag,
                         "mean_error": mean_err, "worst_class_error": worst_err})
    return rows


def transition_error_table(normalized, labels, epsilons, alphas=(0.0, 0.5, 1.0),
                           s=2.0, tol=1e-6, max_iter=10_000):
    """Mean and worst-class transition errors per (epsilon, alpha, family)."""
    rows = []
    for eps in epsilons:
        affinity = gaussian_kernel(pairwise_sq_dists(normalized), eps)
        solution = sinkhorn_symmetric(affinity, tol=tol, max_iter=max_iter)
        rows += transition_errors(affinity, assemble_W(affinity, solution), labels, eps,
                                  alphas, s)
    return rows


_RUNNERS = {
    "fig1": _fig1,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8-synthetic": _fig8,
}
