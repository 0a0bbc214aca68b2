"""Doubly stochastic scaling of a Gaussian kernel, from scratch.

Samples a non-uniformly dense circle, builds the zero-diagonal Gaussian
affinity matrix, and finds the positive scaling factors d such that
diag(d) K diag(d) has unit row and column sums. The scaled matrix W is
symmetric, so one vector does both jobs.
"""

import numpy as np

from dskernel import (assemble_W, gaussian_kernel, pairwise_sq_dists,
                      sample_circle, sinkhorn_symmetric)

n = 800
epsilon = 0.1

sample = sample_circle(n, sigma_sq=0.16 * np.pi**2, seed=0)
affinity = gaussian_kernel(pairwise_sq_dists(sample.clean_points), epsilon)

solution = sinkhorn_symmetric(affinity, tol=1e-9)
print(f"converged in {solution.iterations} iterations, "
      f"residual {solution.residual:.2e}")

# W x is one product with the kernel operator, so the row sums need no
# dense W; W is exactly symmetric, so its column sums equal its row sums
row_sums = assemble_W(affinity, solution).matvec(np.ones(n))
print(f"max |row sum - 1| = {np.abs(row_sums - 1).max():.2e}")

# the scaling factors adapt to the sampling density: dense regions get
# smaller d_i, sparse regions larger, roughly like q^(-1/2)
order = np.argsort(sample.density_values)
d = np.exp(solution.log_d)
print(f"d at the 10 densest points:  {d[order[-10:]].mean():.3f}")
print(f"d at the 10 sparsest points: {d[order[:10]].mean():.3f}")
