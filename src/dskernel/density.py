"""Density estimation from the doubly stochastic affinity matrix, plus the
1-D population scaling solver used to validate its small-bandwidth theory.

Both estimators are row reductions of W = diag(d) K diag(d) through the
kernel operator W holds: sum_j W_ij^s = d_i^s sum_j (K_ij d_j)^s is one pass
over the absorbed matrix, and so is the row entropy of W.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .kernel import KernelOperator, _check_epsilon
from .scaling import _check_converged, _scale_log_matrix

S_LIMIT = "limit"


@dataclass(frozen=True)
class DensityEstimate:
    """Per-point density estimates before and after the global constant.

    ``raw`` is the plain powered-row-sum statistic; ``normalized`` divides by
    the (pi eps)^(d/2)-type constant so it is directly comparable to the true
    density. ``normalized`` is None when the intrinsic dimension was not
    supplied.
    """

    raw: np.ndarray
    normalized: np.ndarray
    s: object


def _check_s(s):
    if s != S_LIMIT and (not 0 < s < np.inf or s == 1):
        raise ParameterError(f"s must be positive, finite and different from 1, got {s}")


def _check_closed_form(epsilon, dim, s):
    """The parameters of the global constants: 0 < eps < inf, dim >= 1 and s."""
    _check_epsilon(epsilon)
    if not dim >= 1:
        raise ParameterError(f"need an intrinsic dimension >= 1, got {dim}")
    _check_s(s)


def normalization_constant(epsilon, dim, s):
    """The Theorem-3 global constant relating the raw estimator to q.

    (pi eps)^(d/2) * s^(d / (2(s-1))) for s != 1, and its s -> 1 limit
    (pi e eps)^(d/2) for the perplexity estimator.
    """
    _check_closed_form(epsilon, dim, s)
    if s == S_LIMIT:
        return (np.pi * np.e * epsilon) ** (dim / 2.0)
    return (np.pi * epsilon) ** (dim / 2.0) * s ** (dim / (2.0 * (s - 1.0)))


def ds_kde(scaled, s, dim=None):
    """Doubly stochastic kernel density estimator with exponent ``s``.

    q_hat_i = (sum_j W_ij^s)^(1/(1-s)) / (n-1) for the W of ``assemble_W``,
    with log sum_j W_ij^s = s log d_i + log sum_j (K_ij d_j)^s from the
    operator. ``s=S_LIMIT`` gives the s -> 1 limit, the row perplexity
    exp(-sum_j W_ij log W_ij) / (n-1): one pass over the operator's absorbed
    matrix and log K, the excluded diagonal adding nothing. With ``dim`` the
    estimate is also normalized at the kernel's bandwidth ``scaled.epsilon``.
    """
    _check_s(s)
    log_d = scaled.log_d
    if s == S_LIMIT:
        raw = np.exp(scaled.operator.row_entropy(log_d)) / (scaled.n - 1)
    else:
        log_power_sum = s * log_d + scaled.operator.power_lse(log_d, s)
        raw = np.exp(-np.log(scaled.n - 1) + log_power_sum / (1.0 - s))
    normalized = None
    if dim is not None:
        normalized = raw / normalization_constant(scaled.epsilon, dim, s)
    return DensityEstimate(raw=raw, normalized=normalized, s=s)


def raw_density(qhat):
    """The raw values of a DensityEstimate, checked strictly positive."""
    if not np.all(qhat.raw > 0):
        raise ParameterError("density estimates must be strictly positive")
    return qhat.raw


@dataclass(frozen=True)
class PopulationScaling:
    """Solution of the continuum scaling equation on a circle grid, with the
    residual its scaling solve measured (at most the solve's tol, 1e-11)."""

    grid: np.ndarray  # the N uniformly spaced quadrature angles 2 pi k / N
    rho: np.ndarray
    residual: float


def solve_population_scaling_1d(density, epsilon):
    """Solve the integral scaling equation on the unit circle by quadrature.

    ``density`` maps angles to the arc-length density q. The equation
    (pi eps)^(-1/2) * integral rho(x) K_eps(x, y) rho(y) q(y) dmu(y) = 1 is
    discretized with the trapezoid rule on a uniform angle grid and handed to
    the discrete scaling engine with the quadrature weights folded into the
    matrix (diagonal included: this is the continuum problem, K(x, x) = 1).

    The grid is the smallest power of two N >= 256 with at least 8 points per
    sqrt(eps) of angle; an eps that needs more than 4096 is rejected. The
    trapezoid rule converges exponentially on a smooth periodic integrand, so
    a finer grid gives the same rho on the shared points to rounding. That
    assumes q is smooth on the grid scale: content at a multiple of N aliases.
    A q that is not one positive, finite value per angle raises ParameterError,
    and an unconverged solve ConvergenceError, as every solve does.
    """
    _check_epsilon(epsilon)
    resolving = [n for n in (256, 512, 1024, 2048, 4096)
                 if np.sqrt(epsilon) / (2.0 * np.pi / n) >= 8.0]
    if not resolving:
        raise ParameterError(f"epsilon too small for the population grid: epsilon="
                             f"{epsilon} needs more than 4096 points for 8 per sqrt(epsilon)")
    return _solve_on_grid(density, epsilon, resolving[0])


def _solve_on_grid(density, epsilon, size):
    """The population solve on ``size`` uniformly spaced angles: one scaling
    solve of log C = log K + (log w_i + log w_j) / 2, w = q h the weights."""
    h = 2.0 * np.pi / size
    theta = np.arange(size) * h
    q = np.asarray(density(theta), dtype=float)
    if q.shape != theta.shape or not np.all((q > 0) & (q < np.inf)):
        raise ParameterError("density must give one positive, finite value per grid angle")
    log_w = np.log(q * h)
    # the chordal log K = -4 sin^2(diff / 2) / eps, then log C, in one N x N buffer
    log_c = np.subtract.outer(theta, theta) / 2.0
    np.sin(log_c, out=log_c)
    np.square(log_c, out=log_c)
    log_c *= -4.0 / epsilon
    log_c += 0.5 * log_w[:, None]
    log_c += 0.5 * log_w
    # row targets q_k * h * sqrt(pi eps) make psi = rho * sqrt(q h) the scaled vector
    log_targets = log_w + 0.5 * np.log(np.pi * epsilon)
    sol = _scale_log_matrix(KernelOperator(log_c), tol=1e-11, max_iter=100_000,
                            log_targets=log_targets)
    _check_converged(sol)
    return PopulationScaling(theta, np.exp(sol.log_d - 0.5 * log_w), sol.residual)
