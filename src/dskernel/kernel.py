"""Pairwise distances, the zero-diagonal Gaussian kernel, its degrees and
classical KDE, and the kernel operator behind every row reduction.

:class:`AffinityMatrix`, the kernel, is a :class:`KernelOperator` and the
one owner of a dense log K: no other module reads it, so a sparse or
truncated kernel can stand behind the same methods.

Every kernel quantity is kept in log domain end to end. This matters at the
tiny bandwidths used for normalized count data, where the kernel entries
underflow catastrophically in linear arithmetic. Every row reduction of K
with diagonal weights (the degrees, the scaling solve, W = diag(d) K diag(d),
the DS-KDE and both Markov families) is a product with one
:class:`KernelOperator`. It holds K absorbed at a weight vector, so that each
reduction is one BLAS product or one elementwise pass over a matrix whose
rows peak at exactly 1 (absorption stabilization: Schmitzer, SIAM J. Sci.
Comput. 41, 2019). Nothing here materializes K = exp(-dist^2/eps) itself.
"""

import numpy as np

from .errors import ParameterError

# re-absorb once a weight vector has drifted this far from the absorption
# point; every weighted row sum then lies in [e^-30, n e^30]
ABSORB_THRESHOLD = 30.0
_TINY = np.finfo(float).tiny
_LOG_TINY = np.log(_TINY)
_LOG_EPS = np.log(np.finfo(float).eps)
_BLOCK_ENTRIES = 1 << 18  # entries per row block of an elementwise pass


def _row_blocks(n):
    rows = max(1, _BLOCK_ENTRIES // n)  # row slices of about _BLOCK_ENTRIES entries
    return (slice(r, r + rows) for r in range(0, n, rows))


def _row_logsumexp(t):
    """Row-wise log-sum-exp of t, overwriting t, as scipy 1.17's logsumexp
    computes it bit for bit: log1p(sum_j exp(t_ij - M) / k) + log k + M over
    the entries below the row max M, which k entries reach. A row with a
    non-finite max (all -inf, +inf or NaN) is that max."""
    t_max = t.max(axis=1, keepdims=True)
    at_max = t == t_max
    k = np.count_nonzero(at_max, axis=1)[:, None]
    t[at_max] = -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):  # rows of -inf or NaN
        t -= t_max
        np.exp(t, out=t)
        lse = np.log1p(t.sum(axis=1, keepdims=True) / k) + np.log(k) + t_max
    return np.where(np.isfinite(lse), lse, t_max)[:, 0]


class KernelOperator:
    """Row reductions of a matrix A, given as ``log_entries`` = log A, against
    weights e^u; :class:`AffinityMatrix` is the one over the Gaussian kernel.

    At its absorption point b the operator holds
    B_ij = exp(log A_ij + b_j - m_i) with m_i = max_j(log A_ij + b_j),
    so every row of B peaks at exactly 1, and reduces rows of A diag(e^u)
    as rows of B against g = exp(u - b). A weight vector with
    max |u - b| > ABSORB_THRESHOLD re-absorbs (b <- u) first; ``absorptions``
    counts the builds of B. An entry of B that underflows lies below double
    resolution of its row sum, so every reduction is exact to roundoff for
    any u and any offset on log A. Slots holding -inf (the diagonal of log K)
    are exact zeros of B and take part in no reduction.

    ``log_entries`` is kept by reference, never written; NaN or +inf in it
    raises ParameterError, and so does absorbing a row of only -inf.
    """

    def __init__(self, log_entries):
        # max propagates NaN, so one reduction rejects both NaN and +inf
        if not log_entries.max() < np.inf:
            raise ParameterError("affinity matrix contains NaN or +inf in log domain")
        self.log_entries = log_entries
        self.absorptions = 0
        self._b = None
        self._m = None
        self._mat = None

    @property
    def n(self):
        return self.log_entries.shape[0]

    def absorb(self, u):
        """Rebuild B at the absorption point ``u``."""
        if self._mat is None:
            self._mat = np.empty_like(self.log_entries)
        self._m = np.empty(self.n)
        for rows in _row_blocks(self.n):
            block = self._mat[rows]
            np.add(self.log_entries[rows], u, out=block)
            m = self._m[rows] = block.max(axis=1)
            if m.min() == -np.inf:  # the first such row is the first minimum
                raise ParameterError(f"row {rows.start + m.argmin()} of the matrix is zero")
            block -= m[:, None]
            # Every entry of B below the smallest normal double is an exact
            # zero, and reaches exp only as an exact zero of the exponent. It
            # lies far below the resolution of its row sum, a subnormal slows
            # every product severalfold, and numpy's exp takes a per-element
            # slow path for every exponent below about -707.70 (log 2^-1021),
            # log(tiny) = -708.40 included. Exponents are clipped at log(tiny)
            # (-inf times 0 is NaN); where more flush than the block's rows
            # (its -inf diagonal), the mask turns them into -0.0, and after
            # exp it zeroes them.
            keep = block >= _LOG_TINY
            np.maximum(block, _LOG_TINY, out=block)
            if keep.size - np.count_nonzero(keep) > len(block):
                block *= keep
            np.exp(block, out=block)
            keep &= block >= _TINY
            block *= keep
        self._b = u.copy()
        self.absorptions += 1

    def _weights(self, u):
        """exp(u - b), re-absorbing at ``u`` first if it has drifted too far."""
        if self._b is None or np.abs(u - self._b).max() > ABSORB_THRESHOLD:
            self.absorb(u)
        return np.exp(u - self._b)

    def row_lse(self, u):
        """log sum_j A_ij e^(u_j), one matrix-vector product."""
        g = self._weights(u)
        return np.log(self._mat @ g) + self._m

    def matvec(self, u, x):
        """e^(u_i) sum_j A_ij e^(u_j) x_j, the product with the symmetric
        diag(e^u) A diag(e^u), for a vector or an n x k block x.

        ``u + log(A e^u)`` must lie within the range of exp, as it does for
        the rows of a stochastic matrix.
        """
        g = self._weights(u)
        x = np.asarray(x, dtype=float)
        scale = np.exp(u + self._m)
        if x.ndim == 1:
            return scale * (self._mat @ (g * x))
        return scale[:, None] * (self._mat @ (g[:, None] * x))

    def row_mean(self, u, x):
        """sum_j A_ij e^(u_j) x_j / sum_j A_ij e^(u_j) for a vector or an n x k
        block x: x under the row-normalized A diag(e^u), one matrix product."""
        g = self._weights(u)
        x = np.asarray(x, dtype=float)
        block = x.reshape(len(x), -1)
        y = self._mat @ np.column_stack([g, g[:, None] * block])
        return (y[:, 1:] / y[:, :1]).reshape(x.shape)

    def power_lse(self, u, s):
        """log sum_j (A_ij e^(u_j))^s for an exponent s > 0.

        The powered row sums of B against g^s lie in [e^(-sT), n e^(sT)] for
        T = ABSORB_THRESHOLD, and the entries flushed from B add at most
        n (tiny e^(2T))^s relative to them. Where both stay within double
        range and resolution, as for s = 2 and s = 1/2, this is one blockwise
        pass over B; otherwise it is a blockwise log-sum-exp over log A.
        """
        log_n = np.log(self.n)
        if (log_n + s * (_LOG_TINY + 2.0 * ABSORB_THRESHOLD) < _LOG_EPS
                and log_n + s * ABSORB_THRESHOLD < _LOG_EPS - _LOG_TINY):
            g_s = self._weights(u) ** s
            sums = np.empty(self.n)
            for rows in _row_blocks(self.n):
                sums[rows] = self._mat[rows] ** s @ g_s
            return np.log(sums) + s * self._m
        lse = np.empty(self.n)
        for rows in _row_blocks(self.n):
            lse[rows] = _row_logsumexp(s * (self.log_entries[rows] + u))
        return lse

    def row_entropy(self, u):
        """-sum_j p_ij log p_ij of p_ij = e^(u_i) A_ij e^(u_j).

        One blockwise pass over B and log A; an entry with p_ij = 0 adds 0.
        """
        g = self._weights(u)
        acc = np.empty(self.n)
        for rows in _row_blocks(self.n):
            mat = self._mat[rows]
            t = self.log_entries[rows] + u
            t += u[rows, None]  # log p_ij
            t[mat == 0.0] = 0.0  # p log p -> 0; the excluded slots hold -inf
            t *= mat
            acc[rows] = t @ g
        return -np.exp(u + self._m) * acc

    def weighted_log(self, u):
        """The dense log(e^(u_i) A_ij e^(u_j)), summed as (u_i + u_j) + log A_ij
        so that it is exactly symmetric when log A is."""
        out = u[:, None] + u[None, :]
        out += self.log_entries
        return out


class AffinityMatrix(KernelOperator):
    """Symmetric Gaussian affinity at bandwidth ``epsilon``: the kernel operator
    over log K_ij with the diagonal excluded.

    The diagonal of ``log_entries`` holds -inf (K_ii = 0), so every row
    reduction reads the matrix as it is. A matrix built with any other
    diagonal is copied once with -inf written there; one holding NaN or +inf
    raises ParameterError.
    """

    def __init__(self, log_entries, epsilon):
        if not np.isneginf(np.diagonal(log_entries)).all():
            log_entries = np.array(log_entries, dtype=float)
            np.fill_diagonal(log_entries, -np.inf)
        super().__init__(log_entries)
        self.epsilon = epsilon


def pairwise_sq_dists(points):
    """Squared Euclidean distance matrix via the expanded-form product.

    The points are centered first, since distances do not depend on the
    origin and a common offset would cancel catastrophically in the expanded
    form. It is built in the Gram matrix's buffer: numpy computes X X^T with
    syrk, exactly symmetric, and adding sq_i + sq_j as one term keeps it so.
    Negative values from floating-point cancellation are clamped at zero.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ParameterError("need at least two points")
    points = points - points.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", points, points)
    d = points @ points.T
    d *= -2.0
    for rows in _row_blocks(len(d)):
        block = d[rows]
        block += sq_norms[rows, None] + sq_norms[None, :]
        np.maximum(block, 0.0, out=block)
    np.fill_diagonal(d, 0.0)
    return d


def _check_epsilon(epsilon):
    if not 0 < epsilon < np.inf:
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")


def gaussian_kernel(sq_dists, epsilon):
    """Build the log-domain Gaussian affinity exp(-dist^2/eps) with zero diagonal."""
    _check_epsilon(epsilon)
    with np.errstate(over="ignore"):  # past double range: -inf, an exact zero of K
        log_entries = np.asarray(sq_dists, dtype=float) / -epsilon
    np.fill_diagonal(log_entries, -np.inf)
    return AffinityMatrix(log_entries=log_entries, epsilon=float(epsilon))


def log_degrees(affinity):
    """log of the row sums of K, diagonal excluded."""
    return affinity.row_lse(np.zeros(affinity.n))


def standard_kde(affinity):
    """The classical kernel density estimate: degree over (n - 1).

    Callers divide by (pi * eps)^(d/2) to compare against a true density.
    """
    if affinity.n < 2:
        raise ParameterError("need at least two points")
    return np.exp(log_degrees(affinity)) / (affinity.n - 1)
