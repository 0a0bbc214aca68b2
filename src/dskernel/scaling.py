"""Symmetric matrix scaling in log domain.

Finds d > 0 such that d_i K_ij d_j has prescribed row sums (all ones for the
doubly stochastic case). The iteration is the damped symmetric fixed point

    log d  <-  (log d + log target - logsumexp_j(log K_ij + log d_j)) / 2

applied to all rows simultaneously, with a fallback to alternating Sinkhorn
sweeps (followed by symmetrization) if the residual stalls.

Every row log-sum-exp is one linear matrix-vector product, stabilized by
absorption (Schmitzer, SIAM J. Sci. Comput. 2019): log d is folded into a
stored matrix whose rows peak at exactly 1, and only its drift since then is
exponentiated. This one path is exact at every bandwidth, however far log K
reaches below the range of exp.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ParameterError

STALL_WINDOW = 50
STALL_IMPROVEMENT = 1e-3
# re-absorb once log d has drifted this far from the absorption point; every
# scaled row sum then lies in [e^-30, n e^30]
ABSORB_THRESHOLD = 30.0
_TINY = np.finfo(float).tiny


@dataclass
class ScalingSolution:
    """Scaling factors of one solve and how the solve went.

    ``absorptions`` counts how many times the stabilized matrix was built.
    ``fallback_iteration`` is the iteration at which the residual was found
    to stall and alternating sweeps took over from the next one; None if the
    damped fixed point ran to the end.
    """

    log_d: np.ndarray
    residual: float
    iterations: int
    converged: bool
    residual_history: np.ndarray = field(repr=False, default=None)
    absorptions: int = 0
    fallback_iteration: int | None = None


class _RowLogSumExp:
    """The row-wise map u -> logsumexp_j(log_a[i, j] + u[j]) by absorption.

    At the absorption point b the operator holds
    B_ij = exp(log_a[i, j] + b_j - m_i) with m_i = max_j(log_a[i, j] + b_j),
    so every row of B peaks at exactly 1, and evaluates
    log(B @ exp(u - b)) + m with one matrix-vector product. It re-absorbs
    (b <- u) when max |u - b| exceeds ABSORB_THRESHOLD. An entry of B that
    underflows lies below double resolution of its row sum, so the result
    is exact to roundoff for any u and any offset on log_a.
    """

    def __init__(self, log_a):
        self._log_a = log_a
        self._b = None
        self._m = None
        self._mat = np.empty_like(log_a)
        self.absorptions = 0

    def _absorb(self, u):
        mat = self._mat
        np.add(self._log_a, u[None, :], out=mat)
        self._m = mat.max(axis=1)
        mat -= self._m[:, None]
        np.exp(mat, out=mat)  # -inf slots become exact zeros
        # subnormal entries lie far below the resolution of their row sum and
        # slow every matrix-vector product severalfold; flush them to zero
        mat[mat < _TINY] = 0.0
        self._b = u.copy()
        self.absorptions += 1

    def __call__(self, u):
        if self._b is None or np.abs(u - self._b).max() > ABSORB_THRESHOLD:
            self._absorb(u)
        return np.log(self._mat @ np.exp(u - self._b)) + self._m


def _scale_log_matrix(log_a, tol, max_iter, log_targets=None, log_d0=None):
    """Core scaling loop on a raw log matrix (excluded slots hold -inf).

    The residual is the max relative deviation of the scaled row sums from
    the targets. Returns a ScalingSolution.
    """
    n = log_a.shape[0]
    # max propagates NaN, so one reduction rejects both NaN and +inf
    if not log_a.max() < np.inf:
        raise ParameterError("affinity matrix contains NaN or +inf in log domain")
    log_t = np.zeros(n) if log_targets is None else np.asarray(log_targets, float)
    row_lse = _RowLogSumExp(log_a)

    if log_d0 is not None:
        log_d = np.asarray(log_d0, dtype=float).copy()
        if log_d.shape != (n,) or not np.all(np.isfinite(log_d)):
            raise ParameterError("log_d0 must be a finite vector of length n")
    else:
        # D^(-1/2) start: one iteration of the accelerated scaling scheme
        log_d = 0.5 * (log_t - row_lse(np.zeros(n)))
    history = []
    fallback_iteration = None
    for iteration in range(1, max_iter + 1):
        if fallback_iteration is None:
            lse = row_lse(log_d)
            residual = np.abs(np.expm1(log_d + lse - log_t)).max()
            log_d = 0.5 * (log_d + log_t - lse)
        else:
            # alternating sweeps: scale rows, then columns (same operator by
            # symmetry), then symmetrize
            log_u = log_t - row_lse(log_d)
            log_d = log_t - row_lse(log_u)
            log_d = 0.5 * (log_d + log_u)
            lse = row_lse(log_d)
            residual = np.abs(np.expm1(log_d + lse - log_t)).max()
        history.append(residual)
        if residual <= tol:
            return ScalingSolution(log_d, residual, iteration, True, np.array(history),
                                   row_lse.absorptions, fallback_iteration)
        if (fallback_iteration is None and iteration > STALL_WINDOW
                and history[-STALL_WINDOW] > 0
                and 1.0 - history[-1] / history[-STALL_WINDOW] < STALL_IMPROVEMENT):
            fallback_iteration = iteration
    return ScalingSolution(log_d, history[-1], max_iter, False, np.array(history),
                           row_lse.absorptions, fallback_iteration)


def sinkhorn_symmetric(affinity, tol=1e-9, max_iter=100_000, log_d0=None):
    """Solve the symmetric scaling problem for a zero-diagonal affinity matrix.

    On convergence, max_i |sum_j d_i K_ij d_j - 1| <= tol with the sums
    evaluated by log-sum-exp. A non-converged run returns a diagnostic
    solution with ``converged=False``; the caller decides how to proceed.
    ``log_d0`` overrides the default starting vector; the fixed point is
    unique, so every start converges to the same scaling factors.
    """
    if affinity.n < 3:
        raise ParameterError("scaling factors are unique only for n > 2")
    return _scale_log_matrix(affinity.log_entries, tol, max_iter, log_d0=log_d0)


@dataclass(frozen=True)
class ScaledMatrix:
    """Doubly stochastic W = diag(d) K diag(d), stored as log W.

    The diagonal of ``log_w`` is -inf. The linear ``w`` is computed on first
    use and kept.
    """

    log_w: np.ndarray
    epsilon: float

    @classmethod
    def from_linear(cls, w):
        """W given as a nonnegative array, its diagonal excluded and its
        bandwidth unknown; a ScaledMatrix is returned as it is."""
        if isinstance(w, cls):
            return w
        w = np.asarray(w, dtype=float)
        if np.any(w < 0):
            raise ParameterError("W entries must be nonnegative")
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        np.fill_diagonal(log_w, -np.inf)
        return cls(log_w=log_w, epsilon=None)

    @property
    def n(self):
        return self.log_w.shape[0]

    @cached_property
    def w(self):
        return np.exp(self.log_w)


def assemble_W(affinity, solution):
    """Log W = log d_i + log d_j + log K_ij from a converged scaling solution.

    W is exactly symmetric, since log d_i + log d_j is and so is log K; its
    diagonal is zero, and every row sums to 1 within the solver tolerance.
    """
    if not solution.converged:
        raise ConvergenceError("scaling did not converge; refusing to assemble W")
    log_d = solution.log_d
    log_w = log_d[:, None] + log_d[None, :]
    log_w += affinity.log_entries
    return ScaledMatrix(log_w=log_w, epsilon=affinity.epsilon)


def scaling_factor_diagnostics(solution, epsilon, n, dim, density):
    """Implied per-point squared noise magnitudes from the scaling factors.

    Inverts the asymptotic form of d_i given the (true or estimated) density:
    eps * (log d_i + 0.5 * log((n-1) (pi eps)^(d/2) q_i)). On clean data the
    result is O(eps) close to zero; under noise it tracks ||eta_i||^2.
    """
    density = np.asarray(density, dtype=float)
    if np.any(density <= 0):
        raise ParameterError("density values must be strictly positive")
    log_const = np.log(n - 1) + 0.5 * dim * np.log(np.pi * epsilon)
    return epsilon * (solution.log_d + 0.5 * (log_const + np.log(density)))
