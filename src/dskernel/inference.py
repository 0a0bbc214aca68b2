"""Noise magnitudes, signal magnitudes, corrected distances, and
nearest-neighbor recovery scoring.
"""

from dataclasses import dataclass

import numpy as np

from .density import S_LIMIT, DensityEstimate, raw_density
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
    if s == S_LIMIT:
        return epsilon * dim / 2.0
    return epsilon * dim * np.log(s) / (2.0 * (s - 1.0))


def noise_magnitude(solution, qhat, epsilon, debias=False, dim=None):
    """Estimate ||eta_i||^2 from the scaling factors and the raw DS-KDE.

    N_i = eps * (log d_i + 0.5 * log((n-1) * qhat_raw_i)). The exponent s
    surfaces as a small global upward bias eps*d*log(s)/(4(s-1)); pass
    ``debias=True`` together with ``dim`` to subtract it. Debiasing reads s
    from ``qhat``, so it needs a DensityEstimate, not a bare array.
    """
    if not solution.converged:
        raise ConvergenceError("scaling did not converge; refusing noise estimate")
    raw = raw_density(qhat)
    n = len(raw)
    nhat = epsilon * (solution.log_d + 0.5 * np.log((n - 1) * raw))
    if debias:
        if dim is None:
            raise ParameterError("debiasing requires the intrinsic dimension")
        if not isinstance(qhat, DensityEstimate):
            raise ParameterError("debiasing requires a DensityEstimate, which carries s")
        nhat = nhat - distance_bias(epsilon, dim, qhat.s) / 2.0
    return nhat


def corrected_dists_from_affinity(scaled, qhat, epsilon=None):
    """Corrected distances straight from W: -eps*log((n-1) sqrt(q_i) W_ij sqrt(q_j)).

    Algebraically identical to the subtraction form given the matching noise
    estimates; kept as an independent route for cross-checking. Built as
    -eps * (h_i + h_j + log K_ij) with h = (log(n-1) + log q) / 2 + log d, in
    one n x n array that is exactly symmetric.
    """
    epsilon = scaled.epsilon if epsilon is None else epsilon
    raw = raw_density(qhat)
    half = 0.5 * (np.log(scaled.n - 1) + np.log(raw)) + scaled.log_d
    d = scaled.operator.weighted_log(half)
    d *= -epsilon
    np.fill_diagonal(d, 0.0)
    return d


def signal_magnitude_and_distances(noisy_points, nhat, epsilon, s, dim=None,
                                   scaled=None, qhat=None):
    """Fill an EstimateTable from noisy points and noise magnitude estimates.

    When ``scaled`` and ``qhat`` are supplied, the affinity-based form of the
    corrected distances is computed as well and verified to agree with the
    subtraction form to 1e-8. The check holds for undebiased estimates only.
    """
    noisy_points = np.asarray(noisy_points, dtype=float)
    nhat = np.asarray(nhat, dtype=float)
    if noisy_points.shape[0] != nhat.shape[0]:
        raise ParameterError("noisy_points and noise estimates disagree in length")
    sq_norms = np.einsum("ij,ij->i", noisy_points, noisy_points)
    signal = sq_norms - nhat
    corrected = pairwise_sq_dists(noisy_points)
    # grouping the noise terms keeps the matrix exactly symmetric
    corrected -= nhat[:, None] + nhat[None, :]
    np.fill_diagonal(corrected, 0.0)
    if scaled is not None and qhat is not None:
        alt = corrected_dists_from_affinity(scaled, qhat, epsilon)
        alt -= corrected  # both diagonals are zero
        np.abs(alt, out=alt)
        gap = alt.max()
        if gap > 1e-8:
            raise ParameterError(
                f"affinity-form distances disagree with subtraction form by {gap:.2e}")
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
