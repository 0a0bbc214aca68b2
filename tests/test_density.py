import numpy as np
import pytest

from dskernel import density, geometry, kernel, scaling
from dskernel.errors import ParameterError
from oracles import brute_force_ds_kde

SIGMA_SQ = 0.16 * np.pi**2


def scaled_circle(n=200, epsilon=0.1, seed=0):
    sample = geometry.sample_circle(n, SIGMA_SQ, seed=seed)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(sample.clean_points), epsilon)
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-12)
    return sample, scaling.assemble_W(aff, sol)


def test_uniform_w_gives_unit_density():
    # a constant kernel scales to the uniform W = 1 / (n - 1) off the diagonal
    aff = kernel.AffinityMatrix(log_entries=np.zeros((50, 50)), epsilon=0.1)
    w = scaling.assemble_W(aff, scaling.sinkhorn_symmetric(aff, tol=1e-12))
    est = density.ds_kde(w, 2.0)
    np.testing.assert_allclose(est.raw, 1.0, rtol=0, atol=1e-12)
    est_limit = density.ds_kde(w, density.S_LIMIT)
    np.testing.assert_allclose(est_limit.raw, 1.0, rtol=0, atol=1e-12)


def test_ds_kde_matches_brute_force():
    _, scaled = scaled_circle(n=120, seed=1)
    for s in (0.5, 2.0, 3.0):
        got = density.ds_kde(scaled, s)
        expected = brute_force_ds_kde(scaled.w, s)
        np.testing.assert_allclose(got.raw, expected, rtol=1e-10)


def test_entropy_limit_agrees_with_s_near_one():
    _, scaled = scaled_circle(n=150, seed=2)
    limit = density.ds_kde(scaled, density.S_LIMIT)
    near = density.ds_kde(scaled, 1.0 + 1e-6)
    np.testing.assert_allclose(limit.raw, near.raw, rtol=1e-4)


def test_normalization_constant_values_and_limit():
    # (pi*eps)^(d/2) * s^(d/(2(s-1))) at eps=0.1, d=1, s=2
    expected = np.sqrt(np.pi * 0.1) * 2.0 ** 0.5
    assert abs(density.normalization_constant(0.1, 1, 2.0) - expected) < 1e-14
    # s -> 1 limit is (pi*e*eps)^(d/2)
    lim = density.normalization_constant(0.1, 1, density.S_LIMIT)
    assert abs(lim - np.sqrt(np.pi * np.e * 0.1)) < 1e-14
    near = density.normalization_constant(0.1, 1, 1.0 + 1e-9)
    assert abs(near - lim) < 1e-7


def test_ds_kde_parameter_validation():
    _, scaled = scaled_circle(n=60)
    for bad in (1.0, -2.0, 0.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="s must be positive, finite"):
            density.ds_kde(scaled, bad)
    with pytest.raises(ParameterError):
        density.normalization_constant(0.0, 1, 2.0)


def test_normalized_estimate_tracks_true_density():
    sample, scaled = scaled_circle(n=1500, epsilon=0.1, seed=3)
    est = density.ds_kde(scaled, 2.0, dim=1)
    err = np.abs(est.normalized - sample.density_values).max()
    assert err < 0.08


def test_population_scaling_uniform_density_is_flat():
    q0 = 1.0 / (2.0 * np.pi)
    ps = density.solve_population_scaling_1d(
        lambda t: np.full_like(t, q0), 0.05, grid_size=1024)
    assert ps.residual <= 1e-8
    # rho is constant by symmetry and close to q^(-1/2)
    assert ps.rho.std() / ps.rho.mean() < 1e-10
    assert abs(ps.rho.mean() - q0 ** -0.5) / q0 ** -0.5 < 0.05


def test_population_scaling_approximates_inverse_sqrt_density():
    ps = density.solve_population_scaling_1d(
        lambda t: geometry.wrapped_normal_density(t, SIGMA_SQ), 0.025)
    q = geometry.wrapped_normal_density(ps.grid, SIGMA_SQ)
    rel = np.abs(ps.rho - q**-0.5) / q**-0.5
    assert rel.max() < 0.05


def test_population_scaling_grid_refinement_is_stable():
    fn = lambda t: geometry.wrapped_normal_density(t, SIGMA_SQ)
    coarse = density.solve_population_scaling_1d(fn, 0.05, grid_size=2048)
    fine = density.solve_population_scaling_1d(fn, 0.05, grid_size=4096)
    # compare on the shared subgrid
    np.testing.assert_allclose(coarse.rho, fine.rho[::2], rtol=1e-6)


def test_population_scaling_rejects_unresolvable_grid():
    fn = lambda t: geometry.wrapped_normal_density(t, SIGMA_SQ)
    with pytest.raises(ParameterError, match="grid_size"):
        density.solve_population_scaling_1d(fn, 1e-5, grid_size=1024)
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
            density.solve_population_scaling_1d(fn, bad, grid_size=256)
    with pytest.raises(ParameterError):
        density.solve_population_scaling_1d(lambda t: np.zeros_like(t), 0.05)

