"""Independent reference implementations used only by the tests.

Everything here is written as directly as possible (dense linear algebra,
no log-domain tricks) so the library code is checked against a separately
derived computation rather than against itself.
"""

import numpy as np

from dskernel.kernel import pairwise_sq_dists


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
    corrected = pairwise_sq_dists(np.asarray(points, dtype=float))
    # grouping the noise terms keeps the matrix exactly symmetric
    corrected -= nhat[:, None] + nhat[None, :]
    np.fill_diagonal(corrected, 0.0)
    return corrected


def brute_force_ds_kde(w, s):
    """DS-KDE computed in plain linear arithmetic."""
    w = np.asarray(w, dtype=float).copy()
    np.fill_diagonal(w, 0.0)
    n = w.shape[0]
    return (w**s).sum(axis=1) ** (1.0 / (1.0 - s)) / (n - 1)


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
