"""The tests' shared builders, reference implementations and call recorder.

The references are derived apart from the library code, so it is checked
against a separate computation rather than against itself: dense linear
algebra where it holds, and the dense log-domain formulas where kernel
entries leave the range of exp. The builders state each small dataset of
the suite once.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import scipy.io
from scipy import sparse
from scipy.special import logsumexp

import dskernel
from dskernel import density, geometry, harness, kernel, scaling


def clean_sample(n, seed=0, m=None):
    """``n`` points on the unit circle, their angles drawn with ``seed`` at
    ``geometry.CIRCLE_SIGMA_SQ``; with ``m``, embedded in R^m with ``seed + 1``."""
    sample = geometry.sample_circle(n, geometry.CIRCLE_SIGMA_SQ, seed=seed)
    if m is None:
        return sample
    return geometry.embed_orthogonal(sample, m, seed=seed + 1)


def clean_circle(n, epsilon, seed=0, m=None, tol=None):
    """``clean_sample(n, seed, m)`` and its Gaussian kernel at ``epsilon``, as a
    ``harness.PipelineResult``. With ``tol`` the kernel is also solved to it,
    else ``solution`` is None.
    """
    sample = clean_sample(n, seed, m)
    affinity = kernel.gaussian_kernel(kernel.pairwise_sq_dists(sample.clean_points), epsilon)
    solution = None if tol is None else scaling.sinkhorn_symmetric(affinity, tol=tol)
    return harness.PipelineResult(affinity, solution, sample)


def small_counts_experiment(**kwargs):
    """A new Poisson pipeline of 120 cells and 400 genes at seed 2, in fig8's
    two depth clusters; ``kwargs`` go to ``harness.poisson_noise_experiment``."""
    return harness.poisson_noise_experiment(
        n=120, m=400, seed=2, cluster_depth_ranges=harness.FIG8_DEPTH_RANGES, **kwargs)


def write_counts(directory, entries, labels=None):
    """Write ``entries`` to ``directory/counts.mtx`` and ``labels``, one per
    line, to ``directory/labels.csv``; returns the two paths."""
    mtx, labels_path = directory / "counts.mtx", directory / "labels.csv"
    scipy.io.mmwrite(str(mtx), sparse.coo_matrix(entries))
    if labels is not None:
        labels_path.write_text("\n".join(str(c) for c in labels) + "\n")
    return mtx, labels_path


def record_calls(monkeypatch, *functions):
    """Wrap each function in every dskernel namespace that holds it, under any
    name, and record the arguments of each call made through a wrapper.

    Returns {function name: [one {parameter: argument} dict per call]}.
    """
    modules = [dskernel] + [importlib.import_module(f"dskernel.{info.name}")
                            for info in pkgutil.iter_modules(dskernel.__path__)]
    calls = {fn.__name__: [] for fn in functions}
    for fn in functions:
        def recorded(*args, fn=fn, signature=inspect.signature(fn), **kwargs):
            calls[fn.__name__].append(signature.bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)

        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, name, recorded)
    return calls


def log_w_of(scaled):
    """The dense log W of an assembled W, diagonal -inf."""
    return scaled.operator.weighted_log(scaled.log_d)


def dense_ds_kde(log_w, s):
    """The DS-KDE of a dense log W, by n x n log-sum-exps."""
    n = log_w.shape[0]
    if s == density.S_LIMIT:
        w = np.exp(log_w)
        entropy = -np.sum(w * np.where(np.isfinite(log_w), log_w, 0.0), axis=1)
        return np.exp(entropy) / (n - 1)
    return np.exp(-np.log(n - 1) + logsumexp(s * log_w, axis=1) / (1.0 - s))


def dense_robust(log_w, raw, alpha):
    """The robust Markov matrix of a dense log W and its raw DS-KDE."""
    if alpha == 0.5:
        return np.exp(log_w)
    log_q = np.log(raw)
    log_m = log_w - (alpha - 0.5) * (log_q[:, None] + log_q[None, :])
    log_m -= logsumexp(log_m, axis=1, keepdims=True)
    return np.exp(log_m)


def dense_traditional(log_k, alpha):
    """The traditional Markov matrix of a dense log K."""
    log_deg = logsumexp(log_k, axis=1)
    log_m = log_k - alpha * (log_deg[:, None] + log_deg[None, :])
    log_m -= logsumexp(log_m, axis=1, keepdims=True)
    return np.exp(log_m)


def dense_leave(markov, labels):
    """Mean and worst-class probability of leaving the class in one step."""
    same = labels[:, None] == labels[None, :]
    leave = np.where(same, 0.0, markov).sum(axis=1)
    return leave.mean(), max(leave[labels == c].mean() for c in np.unique(labels))


def newton_symmetric_scaling(kernel, targets=None, tol=1e-13, max_iter=200):
    """Damped Newton solve of the symmetric scaling equations on log d.

    Solves F_i(u) = log(sum_j K_ij exp(u_j)) + u_i - log(t_i) = 0 for small n
    by a guarded Newton iteration with step halving. Returns log d.
    """
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    t = np.ones(n) if targets is None else np.asarray(targets, dtype=float)
    u = np.zeros(n)

    def residual(u):
        return np.log(kernel @ np.exp(u)) + u - np.log(t)

    f = residual(u)
    for _ in range(max_iter):
        if np.abs(f).max() <= tol:
            return u
        row = kernel @ np.exp(u)
        # d F_i / d u_k = delta_ik + K_ik exp(u_k) / row_i
        jac = np.eye(n) + kernel * np.exp(u)[None, :] / row[:, None]
        step = np.linalg.solve(jac, f)
        scale = 1.0
        for _ in range(60):
            trial = u - scale * step
            f_trial = residual(trial)
            if np.abs(f_trial).max() < np.abs(f).max():
                u, f = trial, f_trial
                break
            scale /= 2.0
        else:
            raise RuntimeError("newton oracle failed to make progress")
    raise RuntimeError("newton oracle did not converge")


def pairwise_corrected_dists(points, nhat):
    """Corrected distances ||y_i - y_j||^2 - N_i - N_j from the pairwise
    squared distances, with a zero diagonal."""
    corrected = kernel.pairwise_sq_dists(np.asarray(points, dtype=float))
    # grouping the noise terms keeps the matrix exactly symmetric
    corrected -= nhat[:, None] + nhat[None, :]
    np.fill_diagonal(corrected, 0.0)
    return corrected


def naive_matrix_market(path):
    """Accumulating coordinate-format reader; returns a dense float array."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header = lines[0].lower().split()
    symmetric = "symmetric" in header
    body = [ln for ln in lines[1:] if not ln.lstrip().startswith("%")]
    n_rows, n_cols, _ = (int(p) for p in body[0].split())
    dense = np.zeros((n_rows, n_cols))
    for ln in body[1:]:
        i, j, v = ln.split()
        i, j, v = int(i) - 1, int(j) - 1, float(v)
        dense[i, j] += v
        if symmetric and i != j:
            dense[j, i] += v
    return dense
