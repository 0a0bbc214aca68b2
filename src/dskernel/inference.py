"""Noise magnitudes, signal magnitudes, corrected distances, and
nearest-neighbor recovery scoring. Corrected distances are read off log K.
"""

from dataclasses import dataclass

import numpy as np

from .density import S_LIMIT, _check_closed_form, raw_density
from .errors import ConvergenceError, ParameterError
from .kernel import pairwise_sq_dists


@dataclass(frozen=True)
class EstimateTable:
    """Per-point noise/signal magnitude estimates and corrected distances.

    By construction signal_sq_hat + noise_sq_hat = ||y_i||^2 and
    corrected_dists[i, j] = ||y_i - y_j||^2 - N_i - N_j; the diagonal of
    ``corrected_dists`` is meaningless and set to zero.
    """

    noise_sq_hat: np.ndarray
    signal_sq_hat: np.ndarray
    corrected_dists: np.ndarray
    epsilon: float
    s: object
    dim: int


def distance_bias(epsilon, dim, s):
    """The global additive bias eps * d * log(s) / (2(s-1)) of corrected distances."""
    _check_closed_form(epsilon, dim, s)
    if s == S_LIMIT:
        return epsilon * dim / 2.0
    return epsilon * dim * np.log(s) / (2.0 * (s - 1.0))


def noise_magnitude(solution, qhat, epsilon, debias=False, dim=None):
    """Estimate ||eta_i||^2 from the scaling factors and the raw DS-KDE.

    N_i = eps * (log d_i + 0.5 * log((n-1) * qhat_raw_i)). The exponent s
    surfaces as a small global upward bias eps*d*log(s)/(4(s-1)); pass
    ``debias=True`` together with ``dim`` >= 1 to subtract it; debiasing reads
    s from ``qhat``, a DensityEstimate.
    """
    if not solution.converged:
        raise ConvergenceError("scaling did not converge; refusing noise estimate")
    raw = raw_density(qhat)
    n = len(raw)
    nhat = epsilon * (solution.log_d + 0.5 * np.log((n - 1) * raw))
    if debias:
        if dim is None or not dim >= 1:
            raise ParameterError(f"debiasing requires an intrinsic dimension >= 1, got {dim}")
        nhat = nhat - distance_bias(epsilon, dim, qhat.s) / 2.0
    return nhat


def signal_magnitude_and_distances(noisy_points, nhat, epsilon, s, dim=None,
                                   scaled=None, qhat=None):
    """Fill an EstimateTable from noisy points and noise magnitude estimates.

    With ``scaled``, W of the kernel at ``epsilon``, the corrected distances
    D_ij - N_i - N_j are read off log K = -D/eps; without it they come from
    ``pairwise_sq_dists``. With ``qhat`` too, the estimates must agree with the
    affinity form to 1e-8 (undebiased ones only), checked in O(n): the forms
    differ by delta_i + delta_j, delta = N - eps*(log d + log((n-1) q)/2).
    """
    noisy_points = np.asarray(noisy_points, dtype=float)
    nhat = np.asarray(nhat, dtype=float)
    if noisy_points.shape[0] != nhat.shape[0]:
        raise ParameterError("noisy_points and noise estimates disagree in length")
    sq_norms = np.einsum("ij,ij->i", noisy_points, noisy_points)
    signal = sq_norms - nhat
    if scaled is None:
        corrected = pairwise_sq_dists(noisy_points)
        # grouping the noise terms keeps the matrix exactly symmetric
        corrected -= nhat[:, None] + nhat[None, :]
    else:
        if scaled.epsilon != epsilon:
            raise ParameterError(f"W's kernel is at epsilon {scaled.epsilon}, not {epsilon}")
        corrected = scaled.operator.weighted_log(nhat / epsilon)
        corrected *= -epsilon
        if qhat is not None:
            half = 0.5 * np.log((scaled.n - 1) * raw_density(qhat))
            delta = np.partition(nhat - epsilon * (scaled.log_d + half), (1, -2))
            gap = max(abs(delta[0] + delta[1]), abs(delta[-2] + delta[-1]))
            if gap > 1e-8:
                raise ParameterError(
                    f"affinity-form distances disagree with subtraction form by {gap:.2e}")
    np.fill_diagonal(corrected, 0.0)
    return EstimateTable(noise_sq_hat=nhat, signal_sq_hat=signal,
                         corrected_dists=corrected, epsilon=epsilon, s=s, dim=dim)


def _neighbor_order(dists):
    d = np.array(dists, dtype=float)
    np.fill_diagonal(d, np.inf)
    # stable sort breaks ties by smaller index
    return np.argsort(d, axis=1, kind="stable")


def knn_recovery_accuracy(dists_a, dists_clean, k_max):
    """Average overlap between k nearest neighbors under two distance matrices.

    Returns accuracies for k = 1..k_max: the mean over points of
    |kNN_a(i) intersect kNN_clean(i)| / k.
    """
    dists_a = np.asarray(dists_a, dtype=float)
    dists_clean = np.asarray(dists_clean, dtype=float)
    n = dists_a.shape[0]
    if dists_a.shape != dists_clean.shape or dists_a.shape != (n, n):
        raise ParameterError("distance matrices must be square and equally sized")
    if k_max >= n:
        raise ParameterError("k_max must be smaller than the number of points")
    order_a = _neighbor_order(dists_a)
    order_clean = _neighbor_order(dists_clean)
    clean_rank = np.empty_like(order_clean)
    rows = np.arange(n)[:, None]
    clean_rank[rows, order_clean] = np.arange(n)[None, :]
    rank_of_a = clean_rank[rows, order_a[:, :k_max]]
    accuracies = np.empty(k_max)
    for k in range(1, k_max + 1):
        overlap = (rank_of_a[:, :k] < k).sum(axis=1)
        accuracies[k - 1] = overlap.mean() / k
    return accuracies
