from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dskernel import cli, density, geometry, harness, inference, kernel, laplacian, scaling
from dskernel.errors import ConvergenceError, ParameterError
from oracles import clean_circle, pairwise_corrected_dists, record_calls


def test_distance_bias_closed_forms():
    assert abs(inference.distance_bias(0.1, 1, 2.0) - 0.1 * np.log(2) / 2) < 1e-15
    # s -> 1 limit is eps * d / 2
    assert abs(inference.distance_bias(0.1, 1, "limit") - 0.05) < 1e-15
    assert abs(inference.distance_bias(0.2, 3, 1.0 + 1e-9) - 0.3) < 1e-6


def test_distance_bias_rejects_what_ds_kde_rejects():
    for bad in (1.0, -2.0, 0.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="s must be positive, finite"):
            inference.distance_bias(0.1, 1, bad)
    for bad in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
            inference.distance_bias(bad, 1, 2.0)
    for bad in (0, -1, np.nan):
        with pytest.raises(ParameterError, match="intrinsic dimension >= 1"):
            inference.distance_bias(0.1, bad, 2.0)


def test_clean_noise_magnitude_has_known_small_bias():
    pipe = clean_circle(1000, 0.1, seed=2, m=1000, tol=scaling.POINTS_SOLVE.tol)
    sol, qhat = pipe.solution, density.ds_kde(pipe.scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    # on clean data the estimate concentrates at eps*d*log(s)/(4(s-1))
    expected = 0.1 * np.log(2.0) / 4.0
    assert abs(nhat.mean() - expected) < 0.005
    debiased = inference.noise_magnitude(sol, qhat, 0.1, debias=True, dim=1)
    np.testing.assert_allclose(nhat - debiased, expected, rtol=0, atol=1e-12)


def test_clean_signal_magnitude_near_squared_radius():
    pipe = clean_circle(1000, 0.1, seed=3, m=1000, tol=scaling.POINTS_SOLVE.tol)
    qhat = density.ds_kde(pipe.scaled, 2.0)
    nhat = inference.noise_magnitude(pipe.solution, qhat, 0.1)
    table = inference.signal_magnitude_and_distances(
        pipe.sample.clean_points, nhat, 0.1, 2.0, dim=1, scaled=pipe.scaled, qhat=qhat)
    assert abs(table.signal_sq_hat.mean() - (1.0 - 0.1 * np.log(2.0) / 4.0)) < 0.005


def test_signal_plus_noise_identity_is_exact():
    pipe = clean_circle(300, 0.1, seed=4, m=100, tol=scaling.POINTS_SOLVE.tol)
    points, scaled = pipe.sample.clean_points, pipe.scaled
    nhat = inference.noise_magnitude(pipe.solution, density.ds_kde(scaled, 2.0), 0.1)
    table = inference.signal_magnitude_and_distances(points, nhat, 0.1, 2.0, scaled=scaled)
    sq_norms = (points**2).sum(axis=1)
    np.testing.assert_allclose(table.signal_sq_hat + table.noise_sq_hat, sq_norms,
                               rtol=0, atol=1e-12)


def test_affinity_and_subtraction_distance_forms_agree():
    pipe = clean_circle(400, 0.1, seed=5, m=200, tol=scaling.POINTS_SOLVE.tol)
    points, scaled = pipe.sample.clean_points, pipe.scaled
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(pipe.solution, qhat, 0.1)
    sub = pairwise_corrected_dists(points, nhat)
    # the kernel route, with the affinity-form check of the noise estimates
    alt = inference.signal_magnitude_and_distances(points, nhat, 0.1, 2.0,
                                                   scaled=scaled, qhat=qhat)
    assert np.abs(alt.corrected_dists - sub).max() < 1e-8


def test_corrected_distance_diagonal_is_zeroed():
    pipe = clean_circle(100, 0.1, seed=6, m=50, tol=scaling.POINTS_SOLVE.tol)
    scaled = pipe.scaled
    nhat = inference.noise_magnitude(pipe.solution, density.ds_kde(scaled, 2.0), 0.1)
    table = inference.signal_magnitude_and_distances(pipe.sample.clean_points, nhat, 0.1, 2.0,
                                                     scaled=scaled)
    assert np.all(np.diag(table.corrected_dists) == 0.0)
    assert np.array_equal(table.corrected_dists, table.corrected_dists.T)


def test_noise_magnitude_input_validation():
    pipe = clean_circle(100, 0.1, seed=7, m=50, tol=scaling.POINTS_SOLVE.tol)
    sample, sol, scaled = pipe.sample, pipe.solution, pipe.scaled
    qhat = density.ds_kde(scaled, 2.0)
    zero = replace(qhat, raw=np.zeros(100))
    with pytest.raises(ParameterError):
        inference.noise_magnitude(sol, zero, 0.1)
    for dim in (None, 0, -1):
        with pytest.raises(ParameterError, match="intrinsic dimension >= 1"):
            inference.noise_magnitude(sol, qhat, 0.1, debias=True, dim=dim)
    nhat = inference.noise_magnitude(sol, qhat, 0.1)
    with pytest.raises(ParameterError):
        inference.signal_magnitude_and_distances(sample.clean_points, nhat, 0.1, 2.0,
                                                 scaled=scaled, qhat=zero)
    # the kernel route needs the kernel at the estimates' bandwidth
    with pytest.raises(ParameterError, match="kernel is at epsilon"):
        inference.signal_magnitude_and_distances(sample.clean_points, nhat, 0.2, 2.0,
                                                 scaled=scaled)
    bad = scaling.ScalingSolution(log_d=sol.log_d, residual=1.0, iterations=1,
                                  converged=False)
    with pytest.raises(ConvergenceError):
        inference.noise_magnitude(bad, qhat, 0.1)
    with pytest.raises(ParameterError):
        inference.signal_magnitude_and_distances(sample.clean_points,
                                                 np.zeros(5), 0.1, 2.0, scaled=scaled)


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
    for k_max in (0, -1, 2.5):
        with pytest.raises(ParameterError, match="k_max"):
            inference.knn_recovery_accuracy(d, d, k_max)


def test_corrected_distances_improve_knn_under_noise():
    pipe = harness.circle_pipeline(600, 600, 0.1, "varying_ball", 9)
    sample, noise, scaled = pipe.sample, pipe.noise, pipe.scaled
    nhat = inference.noise_magnitude(pipe.solution, density.ds_kde(scaled, 2.0), 0.1)
    # the recovered magnitudes track the true ones tightly
    corr = np.corrcoef(nhat, noise.true_noise_sq)[0, 1]
    assert corr > 0.99
    table = inference.signal_magnitude_and_distances(noise.noisy_points, nhat, 0.1, 2.0,
                                                     scaled=scaled)
    clean = kernel.pairwise_sq_dists(sample.clean_points)
    noisy = kernel.pairwise_sq_dists(noise.noisy_points)
    k = 30
    acc_corrected = inference.knn_recovery_accuracy(table.corrected_dists, clean, k)[-1]
    acc_noisy = inference.knn_recovery_accuracy(noisy, clean, k)[-1]
    assert acc_corrected > acc_noisy


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       epsilon=st.floats(1.0, 5.0), debias=st.booleans())
def test_kernel_route_matches_pairwise_route(n, dim, seed, epsilon, debias):
    points = np.random.default_rng(seed).normal(size=(n, dim))
    sq = kernel.pairwise_sq_dists(points)
    aff = kernel.gaussian_kernel(sq, epsilon)
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-12)
    assert sol.converged
    scaled = scaling.assemble_W(aff, sol)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, epsilon, debias=debias, dim=dim)
    pairwise = pairwise_corrected_dists(points, nhat)
    # the affinity-form check holds for undebiased estimates only
    got = inference.signal_magnitude_and_distances(
        points, nhat, epsilon, 2.0, dim, scaled=scaled, qhat=None if debias else qhat)
    d = got.corrected_dists
    # both routes round relative to the distances and the noise estimates
    scale = max(sq.max(), np.abs(nhat).max())
    assert np.abs(d - pairwise).max() <= 1e-14 * scale
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.array_equal(got.signal_sq_hat, np.einsum("ij,ij->i", points, points) - nhat)


def test_affinity_check_gap_is_the_dense_gap():
    """The O(n) check reports the largest off-diagonal gap between the
    corrected distances and the dense affinity form
    -eps * (h_i + h_j + log K_ij), h = log((n-1) q)/2 + log d."""
    n, epsilon = 200, 0.1
    pipe = clean_circle(n, epsilon, seed=10, m=100, tol=scaling.POINTS_SOLVE.tol)
    sample, aff, sol, scaled = pipe.sample, pipe.affinity, pipe.solution, pipe.scaled
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, epsilon)
    h = 0.5 * np.log((n - 1) * qhat.raw) + sol.log_d
    affinity_form = -epsilon * (h[:, None] + h[None, :] + aff.log_entries)
    off = ~np.eye(n, dtype=bool)
    debiased = inference.noise_magnitude(sol, qhat, epsilon, debias=True, dim=1)
    jitter = np.random.default_rng(0).normal(scale=1e-4, size=n)
    # mirrored jitter puts the worst pair at the smallest delta, then the largest
    for est in (debiased, nhat + jitter, nhat - jitter):
        pairwise = pairwise_corrected_dists(sample.clean_points, est)
        dense_gap = np.abs(affinity_form - pairwise)[off].max()
        assert dense_gap > 1e-6  # far above the 1e-8 threshold
        with pytest.raises(ParameterError, match="disagree with subtraction form") as exc:
            inference.signal_magnitude_and_distances(sample.clean_points, est, epsilon,
                                                     2.0, scaled=scaled, qhat=qhat)
        # the message carries the gap to three digits
        assert float(str(exc.value).rsplit(" ", 1)[1]) == pytest.approx(dense_gap, rel=5e-3)


def test_denoise_computes_pairwise_distances_once(monkeypatch, tmp_path):
    n, epsilon, s = 200, 0.1, 2.0
    pipe = harness.circle_pipeline(n, n, epsilon, "varying_ball", seed=11)
    points = pipe.noise.noisy_points
    f, lap_f = geometry.test_function_and_laplacian(pipe.sample.angles)
    calls = record_calls(monkeypatch, kernel.pairwise_sq_dists)["pairwise_sq_dists"]
    sizes = lambda: [len(call["points"]) for call in calls]
    # the dskernel denoise API sequence followed by both Laplacians
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(points), epsilon)
    sol = scaling.sinkhorn_symmetric(aff)
    scaled = scaling.assemble_W(aff, sol)
    qhat = density.ds_kde(scaled, s, dim=1)
    nhat = inference.noise_magnitude(sol, qhat, epsilon)
    inference.signal_magnitude_and_distances(points, nhat, epsilon, s, 1,
                                             scaled=scaled, qhat=qhat)
    for fam in (laplacian.robust_markov(scaled, qhat, 1.0),
                laplacian.traditional_markov(aff, 1.0)):
        laplacian.operator_error(fam, f, lap_f, epsilon)
    assert sizes() == [n]
    # the harness table behind fig4 and fig6 reuses the pipeline's kernel
    harness.estimate_table(pipe, points, s, dim=1)
    assert sizes() == [n]
    path = tmp_path / "points.csv"
    np.savetxt(path, points, delimiter=",")
    assert cli.main(["denoise", "--input", str(path), "--epsilon", str(epsilon),
                     "--out", str(tmp_path / "est.csv")]) == 0
    assert sizes() == [n, n]
