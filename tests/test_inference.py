import numpy as np
import pytest

from dskernel import density, geometry, inference, kernel, scaling
from dskernel.errors import ConvergenceError, ParameterError

SIGMA_SQ = 0.16 * np.pi**2


def clean_circle_pipeline(n=500, m=500, epsilon=0.1, seed=0):
    sample = geometry.sample_circle(n, SIGMA_SQ, seed=seed)
    sample = geometry.embed_orthogonal(sample, m, seed=seed + 1)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(sample.clean_points), epsilon)
    sol = scaling.sinkhorn_symmetric(aff)
    scaled = scaling.assemble_W(aff, sol)
    return sample, aff, sol, scaled


def test_distance_bias_closed_forms():
    assert abs(inference.distance_bias(0.1, 1, 2.0) - 0.1 * np.log(2) / 2) < 1e-15
    # s -> 1 limit is eps * d / 2
    assert abs(inference.distance_bias(0.1, 1, "limit") - 0.05) < 1e-15
    assert abs(inference.distance_bias(0.2, 3, 1.0 + 1e-9) - 0.3) < 1e-6


def test_clean_noise_magnitude_has_known_small_bias():
    sample, aff, sol, scaled = clean_circle_pipeline(n=1000, m=1000, seed=2)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    # on clean data the estimate concentrates at eps*d*log(s)/(4(s-1))
    expected = 0.1 * np.log(2.0) / 4.0
    assert abs(nhat.mean() - expected) < 0.005
    debiased = inference.noise_magnitude(sol, qhat, 0.1, debias=True, dim=1)
    np.testing.assert_allclose(nhat - debiased, expected, rtol=0, atol=1e-12)


def test_clean_signal_magnitude_near_squared_radius():
    sample, aff, sol, scaled = clean_circle_pipeline(n=1000, m=1000, seed=3)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    table = inference.signal_magnitude_and_distances(
        sample.clean_points, nhat, 0.1, 2.0, dim=1, scaled=scaled, qhat=qhat)
    assert abs(table.signal_sq_hat.mean() - (1.0 - 0.1 * np.log(2.0) / 4.0)) < 0.005


def test_signal_plus_noise_identity_is_exact():
    sample, aff, sol, scaled = clean_circle_pipeline(n=300, m=100, seed=4)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    table = inference.signal_magnitude_and_distances(sample.clean_points, nhat, 0.1, 2.0)
    sq_norms = (sample.clean_points**2).sum(axis=1)
    np.testing.assert_allclose(table.signal_sq_hat + table.noise_sq_hat, sq_norms,
                               rtol=0, atol=1e-12)


def test_affinity_and_subtraction_distance_forms_agree():
    sample, aff, sol, scaled = clean_circle_pipeline(n=400, m=200, seed=5)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    sub = inference.signal_magnitude_and_distances(sample.clean_points, nhat, 0.1, 2.0)
    alt = inference.corrected_dists_from_affinity(scaled, qhat, 0.1)
    off = ~np.eye(400, dtype=bool)
    assert np.abs(alt[off] - sub.corrected_dists[off]).max() < 1e-8
    # the cross-checking constructor path must accept its own output
    inference.signal_magnitude_and_distances(sample.clean_points, nhat, 0.1, 2.0,
                                             scaled=scaled, qhat=qhat)


def test_corrected_distance_diagonal_is_zeroed():
    sample, aff, sol, scaled = clean_circle_pipeline(n=100, m=50, seed=6)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    table = inference.signal_magnitude_and_distances(sample.clean_points, nhat, 0.1, 2.0)
    assert np.all(np.diag(table.corrected_dists) == 0.0)
    assert np.array_equal(table.corrected_dists, table.corrected_dists.T)


def test_noise_magnitude_input_validation():
    sample, aff, sol, scaled = clean_circle_pipeline(n=100, m=50, seed=7)
    qhat = density.ds_kde(scaled, 2.0)
    with pytest.raises(ParameterError):
        inference.noise_magnitude(sol, np.zeros(100), 0.1)
    with pytest.raises(ParameterError):
        inference.noise_magnitude(sol, qhat, 0.1, debias=True)  # dim missing
    with pytest.raises(ParameterError):
        # a bare array does not say which exponent's bias to subtract
        inference.noise_magnitude(sol, qhat.raw, 0.1, debias=True, dim=1)
    with pytest.raises(ParameterError):
        inference.corrected_dists_from_affinity(scaled, np.zeros(100), 0.1)
    bad = scaling.ScalingSolution(log_d=sol.log_d, residual=1.0, iterations=1,
                                  converged=False)
    with pytest.raises(ConvergenceError):
        inference.noise_magnitude(bad, qhat, 0.1)
    with pytest.raises(ParameterError):
        inference.signal_magnitude_and_distances(sample.clean_points,
                                                 np.zeros(5), 0.1, 2.0)


def test_knn_recovery_identity_and_hand_example():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(30, 3))
    d = kernel.pairwise_sq_dists(pts)
    acc = inference.knn_recovery_accuracy(d, d, 5)
    np.testing.assert_allclose(acc, 1.0)
    # 4 collinear points; moving the last one next to the third flips exactly
    # one nearest neighbor (of the third point), leaving the other three intact
    base = np.array([0.0, 1.0, 3.0, 7.0])[:, None]
    moved = np.array([0.0, 1.0, 3.0, 3.5])[:, None]
    acc = inference.knn_recovery_accuracy(kernel.pairwise_sq_dists(moved),
                                          kernel.pairwise_sq_dists(base), 1)
    assert abs(acc[0] - 0.75) < 1e-12


def test_knn_recovery_rejects_bad_shapes():
    d = np.zeros((4, 4))
    with pytest.raises(ParameterError):
        inference.knn_recovery_accuracy(d, np.zeros((3, 3)), 2)
    with pytest.raises(ParameterError):
        inference.knn_recovery_accuracy(d, d, 4)


def test_corrected_distances_improve_knn_under_noise():
    n = m = 600
    seq = np.random.SeedSequence(9)
    s_sample, s_embed, s_noise = seq.spawn(3)
    sample = geometry.sample_circle(n, SIGMA_SQ, seed=s_sample)
    sample = geometry.embed_orthogonal(sample, m, seed=s_embed)
    noise = geometry.apply_noise(sample, "varying_ball", seed=s_noise)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(noise.noisy_points), 0.1)
    sol = scaling.sinkhorn_symmetric(aff)
    scaled = scaling.assemble_W(aff, sol)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    # the recovered magnitudes track the true ones tightly
    corr = np.corrcoef(nhat, noise.true_noise_sq)[0, 1]
    assert corr > 0.99
    table = inference.signal_magnitude_and_distances(noise.noisy_points, nhat, 0.1, 2.0)
    clean = kernel.pairwise_sq_dists(sample.clean_points)
    noisy = kernel.pairwise_sq_dists(noise.noisy_points)
    k = 30
    acc_corrected = inference.knn_recovery_accuracy(table.corrected_dists, clean, k)[-1]
    acc_noisy = inference.knn_recovery_accuracy(noisy, clean, k)[-1]
    assert acc_corrected > acc_noisy
