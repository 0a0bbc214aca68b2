"""Symmetric matrix scaling in log domain, and W held in operator form.

Finds d > 0 such that d_i K_ij d_j has prescribed row sums (all ones for the
doubly stochastic case). The iteration is the damped symmetric fixed point

    log d  <-  (log d + log target - logsumexp_j(log K_ij + log d_j)) / 2

applied to all rows simultaneously. A solve that has not met the tolerance
after ``max_iter`` steps, or whose residual is not finite, is returned with
``converged=False``.

Every row log-sum-exp is one matrix-vector product with the kernel, a
:class:`~dskernel.kernel.KernelOperator` stabilized by absorption
(Schmitzer, SIAM J. Sci. Comput. 2019): log d is folded into a stored matrix
whose rows peak at exactly 1, and only its drift since then is exponentiated.
This one path is exact at every bandwidth, however far log K reaches below
the range of exp.

The solve leaves that operator absorbed near the solution, and W is kept as
it plus log d: every row reduction of W after the solve (the DS-KDE, the
Markov normalizations, the Laplacians) is a product with the same absorbed
matrix, and assembling W costs O(n). The dense W is built afresh only when
a caller asks for it.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError
from .kernel import AffinityMatrix

SolveSettings = namedtuple("SolveSettings", "tol max_iter")
# every solve on points: the default here, in the harness and in the CLI
POINTS_SOLVE = SolveSettings(1e-9, 100_000)


@dataclass
class ScalingSolution:
    """Scaling factors of one solve and how the solve went.

    ``residual_history[k]`` is the residual before step k + 1 and
    ``residual`` its last entry; ``log_d`` is the vector after the last step.
    ``absorptions`` counts how many times the solve built the stabilized
    matrix.
    """

    log_d: np.ndarray
    residual: float
    iterations: int
    converged: bool
    residual_history: np.ndarray = field(repr=False, default=None)
    absorptions: int = 0


def _scale_log_matrix(operator, tol, max_iter, log_targets=None, log_d0=None):
    """Core scaling loop on a kernel operator over a raw log matrix (excluded
    slots hold -inf).

    The residual is the max relative deviation of the scaled row sums from
    the targets. The operator is absorbed afresh at the starting point, so
    the solve does not depend on what the operator reduced before. Returns a
    ScalingSolution.
    """
    if not max_iter >= 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    if not 0 < tol < np.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol}")
    n = operator.n
    log_t = np.zeros(n) if log_targets is None else np.asarray(log_targets, float)
    row_lse = operator.row_lse
    absorbed_before = operator.absorptions

    if log_d0 is not None:
        log_d = np.asarray(log_d0, dtype=float).copy()
        if log_d.shape != (n,) or not np.all(np.isfinite(log_d)):
            raise ParameterError("log_d0 must be a finite vector of length n")
        operator.absorb(log_d)
    else:
        # D^(-1/2) start: one iteration of the accelerated scaling scheme
        operator.absorb(np.zeros(n))
        log_d = 0.5 * (log_t - row_lse(np.zeros(n)))
    history = []
    for iteration in range(1, max_iter + 1):
        lse = row_lse(log_d)
        residual = np.abs(np.expm1(log_d + lse - log_t)).max()
        log_d = 0.5 * (log_d + log_t - lse)
        history.append(residual)
        if residual <= tol:
            return ScalingSolution(log_d, residual, iteration, True, np.array(history),
                                   operator.absorptions - absorbed_before)
        if not np.isfinite(residual):  # a NaN in log d spreads to every later step
            break
    return ScalingSolution(log_d, history[-1], len(history), False, np.array(history),
                           operator.absorptions - absorbed_before)


def sinkhorn_symmetric(affinity, tol=POINTS_SOLVE.tol, max_iter=POINTS_SOLVE.max_iter,
                       log_d0=None):
    """Solve the symmetric scaling problem for a zero-diagonal affinity matrix.

    On convergence, max_i |sum_j d_i K_ij d_j - 1| <= tol with the sums
    evaluated by log-sum-exp. A non-converged run returns a diagnostic
    solution with ``converged=False``; the caller decides how to proceed.
    ``log_d0`` overrides the default starting vector; the fixed point is
    unique, so every start converges to the same scaling factors. The solve
    runs on the affinity, a kernel operator, and leaves it absorbed near the
    solution for the steps after it. ``max_iter`` below 1, a ``tol`` that is
    not positive and finite, or a zero row of K raises ParameterError.
    """
    if affinity.n < 3:
        raise ParameterError("scaling factors are unique only for n > 2")
    return _scale_log_matrix(affinity, tol, max_iter, log_d0=log_d0)


@dataclass(frozen=True)
class ScaledMatrix:
    """Doubly stochastic W = diag(d) K diag(d), held as the kernel K (an
    :class:`~dskernel.kernel.AffinityMatrix`) and log d; ``assemble_W`` is
    its one builder, and ``epsilon`` is the kernel's bandwidth.

    Every row reduction of W is a product with ``operator`` at the weights
    ``log_d``, for example W x = operator.matvec(log_d, x). ``w``, the dense
    W with a zero diagonal, is built anew on each access; no step of the
    pipeline reads it.
    """

    operator: AffinityMatrix
    log_d: np.ndarray

    @property
    def n(self):
        return len(self.log_d)

    @property
    def epsilon(self):
        return self.operator.epsilon

    @property
    def w(self):
        return np.exp(self.operator.weighted_log(self.log_d))

    def matvec(self, x):
        """W x for a vector or an n x k block x."""
        return self.operator.matvec(self.log_d, x)


def assemble_W(affinity, solution):
    """W of a converged scaling solution: the affinity and log d, O(n).

    log W = log d_i + log d_j + log K_ij is exactly symmetric, since
    log d_i + log d_j is and so is log K; its diagonal is excluded, and every
    row of W sums to 1 within the solver tolerance.
    """
    if not solution.converged:
        raise ConvergenceError("scaling did not converge; refusing to assemble W")
    return ScaledMatrix(operator=affinity, log_d=solution.log_d)
