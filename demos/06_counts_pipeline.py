"""Count-matrix pipeline: total-count normalization meets noise recovery.

For independent Poisson counts with row totals c_i, the total-count
normalized rows y_i = counts_i / c_i carry noise of squared magnitude
about 1/c_i. The scaling-factor noise estimator recovers exactly that,
without being told the model. Density-compensated (alpha = 0) robust
normalization also keeps random walks inside their own cluster where the
traditional normalization conflates depth with geometry.
"""

import numpy as np

from dskernel.counts import synth_poisson_counts
from dskernel.harness import count_pipeline, transition_errors

cm = synth_poisson_counts(600, 5000, seed=0,
                          cluster_depth_ranges=((400.0, 800.0), (2000.0, 4000.0)))
res = count_pipeline(cm)

nhat = res["noise_sq_hat"]
pred = res["predicted_noise"]
corr = np.corrcoef(nhat, pred)[0, 1]
print(f"epsilon (median rule): {res['scaled'].epsilon:.2e}")
print(f"corr(N_hat, 1/c_i) = {corr:.4f}")

rows = transition_errors(res["scaled"], res["qhat"], res["counts"].labels)
for row in rows[:2]:  # the alpha = 0 rows, robust then traditional
    print(f"alpha=0 {row['family']:>12}: worst-class transition error "
          f"{row['worst_class_error']:.3f}")
