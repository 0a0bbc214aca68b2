"""Pairwise distances, the zero-diagonal Gaussian kernel, and the classical
degree-based normalization family.

Every kernel quantity is kept in log domain end to end; nothing here
materializes exp(-dist^2/eps) until a caller asks for linear-domain output.
This matters at the tiny bandwidths used for normalized count data, where
the kernel entries underflow catastrophically in linear arithmetic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ParameterError


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric Gaussian affinity stored as log K_ij; the diagonal is excluded.

    ``log_entries`` holds finite values everywhere; the diagonal slots are a
    placeholder (0.0) and are masked out of every reduction.
    """

    log_entries: np.ndarray
    epsilon: float

    @property
    def n(self):
        return self.log_entries.shape[0]

    def masked_log(self):
        """Log entries with the diagonal set to -inf, ready for reductions."""
        out = self.log_entries.copy()
        np.fill_diagonal(out, -np.inf)
        return out


def pairwise_sq_dists(points):
    """Squared Euclidean distance matrix via the expanded-form product.

    The points are centered first, since distances do not depend on the
    origin and a common offset would cancel catastrophically in the expanded
    form. Negative values from floating-point cancellation are clamped at
    zero and the upper triangle is mirrored so symmetry is exact.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ParameterError("need at least two points")
    points = points - points.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", points, points)
    d = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (points @ points.T)
    np.maximum(d, 0.0, out=d)
    d = np.triu(d, 1)
    d = d + d.T
    return d


def gaussian_kernel(sq_dists, epsilon):
    """Build the log-domain Gaussian affinity exp(-dist^2/eps) with zero diagonal."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    sq_dists = np.asarray(sq_dists, dtype=float)
    log_entries = -sq_dists / epsilon
    np.fill_diagonal(log_entries, 0.0)
    return AffinityMatrix(log_entries=log_entries, epsilon=float(epsilon))


def log_degrees(affinity):
    """log of the row sums of K, diagonal excluded."""
    return logsumexp(affinity.masked_log(), axis=1)


def degrees(affinity):
    """Row sums D_ii of the kernel matrix, computed by log-sum-exp."""
    if affinity.n < 2:
        raise ParameterError("need at least two points")
    return np.exp(log_degrees(affinity))


def standard_kde(affinity):
    """The classical kernel density estimate: degree over (n - 1).

    Callers divide by (pi * eps)^(d/2) to compare against a true density.
    """
    return degrees(affinity) / (affinity.n - 1)


def traditional_normalization(affinity, alpha):
    """Row-stochastic matrix obtained from D^-alpha K D^-alpha.

    Assembled entirely in log domain; each output row sums to 1 up to
    roundoff regardless of the bandwidth.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError("alpha must lie in [0, 1]")
    log_k = affinity.masked_log()
    log_deg = logsumexp(log_k, axis=1)
    log_p = log_k - alpha * (log_deg[:, None] + log_deg[None, :])
    log_p -= logsumexp(log_p, axis=1, keepdims=True)
    p = np.exp(log_p)
    np.fill_diagonal(p, 0.0)
    return p
