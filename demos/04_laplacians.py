"""Robust vs traditional graph Laplacian normalizations under noise.

Both families approximate the Laplace-Beltrami operator at alpha = 1 on
clean data; under heteroskedastic noise the doubly stochastic (robust)
family degrades far more gracefully, especially at small bandwidths.
"""

from dskernel.harness import laplacian_errors

n = 1000
epsilons = (0.05, 0.1, 0.2)
noises = ("none", "varying_ball")
# one circle and one distance matrix per noise model, shared by every eps
errors = {noise: laplacian_errors(n, epsilons, noise, seed=0, alpha=1.0) for noise in noises}

print(f"{'eps':>6} {'noise':>14} {'robust':>8} {'traditional':>12}")
for i, eps in enumerate(epsilons):
    for noise in noises:
        errs = errors[noise][i]
        print(f"{eps:>6} {noise:>14} {errs['robust']:>8.3f} "
              f"{errs['traditional']:>12.3f}")
