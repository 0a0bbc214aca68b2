"""Robust and traditional Markov normalizations and their graph Laplacians."""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import ParameterError
from .kernel import traditional_normalization
from .scaling import ScaledMatrix


@dataclass(frozen=True)
class MarkovFamily:
    """A row-stochastic matrix from either the robust or traditional family."""

    alpha: float
    markov: np.ndarray
    source_tag: str  # "robust" or "traditional"


def robust_markov(scaled, qhat, alpha):
    """Density-compensated row-stochastic matrix built from W.

    W is divided entrywise by (qhat_i qhat_j)^(alpha - 1/2) and row-normalized.
    At alpha = 0.5 the compensation vanishes and W itself is returned,
    bit-identically.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError("alpha must lie in [0, 1]")
    if alpha == 0.5:
        w = scaled.w if isinstance(scaled, ScaledMatrix) else np.asarray(scaled)
        return MarkovFamily(alpha=alpha, markov=w, source_tag="robust")
    raw = qhat.raw if hasattr(qhat, "raw") else np.asarray(qhat, dtype=float)
    if np.any(raw <= 0):
        raise ParameterError("density estimates must be strictly positive")
    log_q = np.log(raw)
    log_w = ScaledMatrix.from_linear(scaled).log_w
    log_tilde = log_w - (alpha - 0.5) * (log_q[:, None] + log_q[None, :])
    log_tilde -= logsumexp(log_tilde, axis=1, keepdims=True)
    # the -inf diagonal of log W gives exact zeros
    return MarkovFamily(alpha=alpha, markov=np.exp(log_tilde), source_tag="robust")


def traditional_markov(affinity, alpha):
    """The degree-normalized baseline, wrapped for side-by-side comparisons."""
    return MarkovFamily(alpha=alpha,
                        markov=traditional_normalization(affinity, alpha),
                        source_tag="traditional")


def apply_laplacian(family, f_values, epsilon):
    """Apply L = 4 (I - M) / eps to samples of a function."""
    f_values = np.asarray(f_values, dtype=float)
    return 4.0 / epsilon * (f_values - family.markov @ f_values)


def operator_error(family, f_values, reference_tf, epsilon):
    """Max abs deviation of the graph Laplacian's action from a reference."""
    reference_tf = np.asarray(reference_tf, dtype=float)
    if len(reference_tf) != len(f_values):
        raise ParameterError("function samples and reference disagree in length")
    return np.abs(apply_laplacian(family, f_values, epsilon) - reference_tf).max()


def transition_error(family, labels):
    """Random-walk probability of leaving one's own class.

    Returns (mean over points, worst per-class mean) of
    sum_{j: label_j != label_i} M_ij.
    """
    labels = np.asarray(labels)
    if len(labels) != family.markov.shape[0]:
        raise ParameterError("labels length must match the matrix size")
    same = labels[:, None] == labels[None, :]
    leave = np.where(same, 0.0, family.markov).sum(axis=1)
    classes = np.unique(labels)
    per_class = [leave[labels == c].mean() for c in classes]
    return leave.mean(), max(per_class)
