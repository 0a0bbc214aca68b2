"""Robust and traditional Markov normalizations and their graph Laplacians.

Both families are products with a kernel operator, never dense matrices:
the robust M f = W(q^-c f) / W(q^-c) with c = alpha - 1/2, which is W itself
at alpha = 1/2, and the traditional M f = K(D^-alpha f) / K(D^-alpha).
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .density import raw_density
from .errors import ParameterError
from .kernel import log_degrees


@dataclass(frozen=True)
class MarkovFamily:
    """A row-stochastic n x n matrix M from either the robust or the traditional
    family (``source_tag``), held as its product: ``apply(x)`` is M x for a
    vector or an n x k block x, one product with a kernel operator.
    """

    source_tag: str  # "robust" or "traditional"
    n: int
    apply: Callable


def _check_alpha(alpha):
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError("alpha must lie in [0, 1]")


def robust_markov(scaled, qhat, alpha):
    """Density-compensated row-stochastic matrix built from W (``assemble_W``).

    W is divided entrywise by (qhat_i qhat_j)^(alpha - 1/2) and row-normalized;
    the row factor cancels, so M = K diag(d q^-c) over its row sums. At
    alpha = 0.5 the compensation vanishes and M is W itself, unnormalized:
    its product is ``scaled.matvec``.
    """
    _check_alpha(alpha)
    if alpha == 0.5:
        return MarkovFamily("robust", scaled.n, scaled.matvec)
    log_u = scaled.log_d - (alpha - 0.5) * np.log(raw_density(qhat))
    return MarkovFamily("robust", scaled.n, partial(scaled.operator.row_mean, log_u))


def traditional_markov(affinity, alpha):
    """The degree-normalized baseline D^-alpha K D^-alpha, row-normalized.

    The row factor cancels, so M = K diag(D^-alpha) over its row sums.
    """
    _check_alpha(alpha)
    return MarkovFamily("traditional", affinity.n,
                        partial(affinity.row_mean, -alpha * log_degrees(affinity)))


def apply_laplacian(family, f_values, epsilon):
    """Apply L = 4 (I - M) / eps to samples of a function."""
    f_values = np.asarray(f_values, dtype=float)
    return 4.0 / epsilon * (f_values - family.apply(f_values))


def operator_error(family, f_values, reference_tf, epsilon):
    """Max abs deviation of the graph Laplacian's action from a reference."""
    reference_tf = np.asarray(reference_tf, dtype=float)
    if len(reference_tf) != len(f_values):
        raise ParameterError("function samples and reference disagree in length")
    return np.abs(apply_laplacian(family, f_values, epsilon) - reference_tf).max()


def transition_error(family, labels):
    """Random-walk probability of leaving one's own class.

    Returns (mean over points, worst per-class mean) of
    sum_{j: label_j != label_i} M_ij, read off M times the one-hot label block.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if n != family.n:
        raise ParameterError("labels length must match the matrix size")
    classes, index = np.unique(labels, return_inverse=True)
    one_hot = np.zeros((n, len(classes)))
    one_hot[np.arange(n), index] = 1.0
    to_class = family.apply(one_hot)
    to_class[np.arange(n), index] = 0.0
    leave = to_class.sum(axis=1)
    per_class = [leave[index == c].mean() for c in range(len(classes))]
    return leave.mean(), max(per_class)
