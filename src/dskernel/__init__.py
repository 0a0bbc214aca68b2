"""Doubly stochastic normalization of the Gaussian kernel and the robust
inference tools built on it: density estimation, noise/signal magnitude
recovery, distance correction, and robust graph Laplacian normalizations.
"""

# set before the submodules load: harness writes it on its CSV meta lines
__version__ = "0.1.0"

from .counts import CountMatrix, ingest_counts, normalize_counts, synth_poisson_counts
from .density import (DensityEstimate, PopulationScaling, S_LIMIT, ds_kde,
                      normalization_constant, solve_population_scaling_1d)
from .errors import ConvergenceError, ParameterError, ParseError
from .geometry import (ManifoldSample, NoiseRealization, apply_noise,
                       embed_orthogonal, sample_circle, sample_two_circles,
                       test_function_and_laplacian, wrapped_normal_density)
from .harness import ExperimentConfig, circle_pipeline, run_experiment
from .inference import (EstimateTable, knn_recovery_accuracy, noise_magnitude,
                        signal_magnitude_and_distances)
from .kernel import (AffinityMatrix, KernelOperator, gaussian_kernel,
                     pairwise_sq_dists, standard_kde)
from .laplacian import (MarkovFamily, apply_laplacian, operator_error,
                        robust_markov, traditional_markov, transition_error)
from .scaling import ScaledMatrix, ScalingSolution, assemble_W, sinkhorn_symmetric

__all__ = [
    "AffinityMatrix", "ConvergenceError", "CountMatrix", "DensityEstimate",
    "EstimateTable", "ExperimentConfig", "KernelOperator", "ManifoldSample",
    "MarkovFamily",
    "NoiseRealization", "ParameterError", "ParseError", "PopulationScaling",
    "S_LIMIT", "ScaledMatrix", "ScalingSolution", "apply_laplacian",
    "apply_noise", "assemble_W", "circle_pipeline", "ds_kde",
    "embed_orthogonal", "gaussian_kernel", "ingest_counts",
    "knn_recovery_accuracy", "noise_magnitude", "normalization_constant",
    "normalize_counts", "operator_error", "pairwise_sq_dists", "robust_markov",
    "run_experiment", "sample_circle", "sample_two_circles",
    "signal_magnitude_and_distances",
    "sinkhorn_symmetric", "solve_population_scaling_1d", "standard_kde",
    "synth_poisson_counts", "test_function_and_laplacian",
    "traditional_markov", "transition_error",
    "wrapped_normal_density",
]
