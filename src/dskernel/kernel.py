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
_LOG_TINY = np.log(np.finfo(float).tiny)
_LOG_EPS = np.log(np.finfo(float).eps)
# entries per row block of an elementwise pass: 512 KB of float64, so a
# block stays in L2 cache across its passes
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n):
    """Row slices of an n-column pass, about _BLOCK_ENTRIES entries each."""
    rows = max(1, _BLOCK_ENTRIES // n)
    return (slice(r, r + rows) for r in range(0, n, rows))


def _outer_sum_factors(x):
    """L = [x, 1] (n x 2) and R = [1; x] (2 x n), so that the row block
    ``np.matmul(L[rows], R)`` is the outer sum x_i + x_j over those rows.

    Each entry is x_i 1 + 1 x_j, two exact products and one rounding: np.add's
    value (only the sign of an exact zero sum may differ), so the outer sum
    stays exactly symmetric. BLAS writes it at about a third of the cost per
    entry of the broadcast add ``x[rows, None] + x``; the ones make k = 2,
    since numpy sends no k = 1 product to BLAS.
    """
    ones = np.ones(len(x))
    return np.column_stack([x, ones]), np.vstack([ones, x])


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

    ``log_entries`` is kept by reference, never written; a matrix that is not
    square, NaN or +inf in it, and absorbing a row of only -inf raise
    ParameterError.
    """

    def __init__(self, log_entries):
        if log_entries.ndim != 2 or log_entries.shape[0] != log_entries.shape[1]:
            raise ParameterError(f"need a square matrix, got shape {log_entries.shape}")
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
            m = np.max(block, axis=1, out=self._m[rows])
            if m.min() == -np.inf:  # the first such row is the first minimum
                raise ParameterError(f"row {rows.start + m.argmin()} of the matrix is zero")
            block -= m[:, None]
            # Every entry of B below the smallest normal double is an exact
            # zero: it lies far below the resolution of its row sum, and a
            # subnormal slows every product severalfold. The two paths below
            # give the same bits. A block that flushes at most 1/32 of its
            # entries (often only the -inf diagonal) sends them to exp as
            # -inf, in two passes. numpy's exp takes a per-element slow path
            # below about -707.70 (log 2^-1021), -inf included, so any other
            # block zeroes its flushed exponents before exp and B after it,
            # clipping at log(tiny) first because -inf times 0 is NaN.
            # Measured per entry of a cached block (2 vCPUs): at 22% flushed
            # (n = 800 circle, eps = 5e-3) two passes take 5.5 ns and the
            # clip, mask, exp and mask 1.6 ns; at 0.1% (n = 2000, eps = 0.1)
            # 0.6 ns and 1.6 ns.
            flush = np.less(block, _LOG_TINY)
            if np.count_nonzero(flush) <= flush.size // 32:
                np.copyto(block, -np.inf, where=flush)
                np.exp(block, out=block)
            else:
                keep = np.logical_not(flush, out=flush)
                np.maximum(block, _LOG_TINY, out=block)
                block *= keep
                np.exp(block, out=block)
                block *= keep
                del keep
            del flush  # freed before the next block's mask is made
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
        block = x.reshape(len(x), -1)
        y = self._mat @ (g[:, None] * block)
        return (np.exp(u + self._m)[:, None] * y).reshape(x.shape)

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
                mat = self._mat[rows]
                # the same bits as mat ** 2, which runs power's loop at about
                # twice np.square's cost per entry
                sums[rows] = (np.square(mat) if s == 2 else mat ** s) @ g_s
            return np.log(sums) + s * self._m
        from scipy.special import logsumexp  # only this pass loads scipy

        lse = np.empty(self.n)
        for rows in _row_blocks(self.n):
            lse[rows] = logsumexp(s * (self.log_entries[rows] + u), axis=1)
        return lse

    def row_entropy(self, u):
        """-sum_j p_ij log p_ij of p_ij = e^(u_i) A_ij e^(u_j).

        One blockwise pass over B and log A; an entry with p_ij = 0 adds 0.
        """
        g = self._weights(u)
        factors = _outer_sum_factors(u)
        acc = np.empty(self.n)
        for rows in _row_blocks(self.n):
            mat = self._mat[rows]
            t = self._log_p(factors, rows)
            t[mat == 0.0] = 0.0  # p log p -> 0; the excluded slots hold -inf
            t *= mat
            acc[rows] = t @ g
            del t  # freed before the next block's is made
        return -np.exp(u + self._m) * acc

    def weighted_log(self, u, scale=None):
        """The dense log(e^(u_i) A_ij e^(u_j)), summed as (u_i + u_j) + log A_ij
        so that it is exactly symmetric when log A is; with ``scale``, each
        entry is then multiplied by it in the same pass."""
        out = np.empty_like(self.log_entries)
        factors = _outer_sum_factors(u)
        for rows in _row_blocks(self.n):
            block = self._log_p(factors, rows, out=out[rows])
            if scale is not None:
                block *= scale
        return out

    def _log_p(self, factors, rows, out=None):
        """Rows ``rows`` of log p_ij = (u_i + u_j) + log A_ij, into ``out`` if
        given, for the ``_outer_sum_factors`` of u."""
        left, right = factors
        block = np.matmul(left[rows], right, out=out)
        block += self.log_entries[rows]
        return block


class AffinityMatrix(KernelOperator):
    """Symmetric Gaussian affinity at bandwidth ``epsilon``: the kernel operator
    over log K_ij with the diagonal excluded.

    The diagonal of ``log_entries`` holds -inf (K_ii = 0), so every row
    reduction reads the matrix as it is. A matrix built with any other
    diagonal is copied once with -inf written there; one that is not square
    and 2-D, or holds NaN or +inf, raises ParameterError.
    """

    def __init__(self, log_entries, epsilon):
        if np.ndim(log_entries) == 2 and not np.isneginf(np.diagonal(log_entries)).all():
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
    One pass per cache-sized row block scales the Gram block by -2, adds
    sq_i + sq_j, written by one rank-2 product, and clamps at zero the
    negative values left by floating-point cancellation.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ParameterError(f"need an (n, m) array of n >= 2 points, got shape {points.shape}")
    points = points - points.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", points, points)
    left, right = _outer_sum_factors(sq_norms)
    d = points @ points.T
    for rows in _row_blocks(len(d)):
        block = d[rows]
        block *= -2.0
        block += np.matmul(left[rows], right)
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
