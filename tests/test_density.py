import numpy as np
import pytest

from dskernel import density, geometry, kernel, scaling
from dskernel.errors import ParameterError
from dskernel.geometry import CIRCLE_SIGMA_SQ
from oracles import clean_circle, dense_ds_kde, log_w_of


def test_uniform_w_gives_unit_density():
    # a constant kernel scales to the uniform W = 1 / (n - 1) off the diagonal
    aff = kernel.AffinityMatrix(log_entries=np.zeros((50, 50)), epsilon=0.1)
    w = scaling.assemble_W(aff, scaling.sinkhorn_symmetric(aff, tol=1e-12))
    est = density.ds_kde(w, 2.0)
    np.testing.assert_allclose(est.raw, 1.0, rtol=0, atol=1e-12)
    est_limit = density.ds_kde(w, density.S_LIMIT)
    np.testing.assert_allclose(est_limit.raw, 1.0, rtol=0, atol=1e-12)


def test_ds_kde_matches_brute_force():
    scaled = clean_circle(120, 0.1, seed=1, tol=1e-12).scaled
    for s in (0.5, 2.0, 3.0):
        got = density.ds_kde(scaled, s)
        expected = dense_ds_kde(log_w_of(scaled), s)
        np.testing.assert_allclose(got.raw, expected, rtol=1e-10)


def test_entropy_limit_agrees_with_s_near_one():
    scaled = clean_circle(150, 0.1, seed=2, tol=1e-12).scaled
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
    scaled = clean_circle(60, 0.1, tol=1e-12).scaled
    for bad in (1.0, -2.0, 0.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="s must be positive, finite"):
            density.ds_kde(scaled, bad)
    for bad in (1.0, -2.0, np.nan):
        with pytest.raises(ParameterError, match="s must be positive, finite"):
            density.normalization_constant(0.1, 1, bad)
    for bad in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
            density.normalization_constant(bad, 1, 2.0)
    for bad in (0, -1, np.nan):
        with pytest.raises(ParameterError, match="intrinsic dimension >= 1"):
            density.normalization_constant(0.1, bad, 2.0)


def test_normalized_estimate_tracks_true_density():
    pipe = clean_circle(1500, 0.1, seed=3, tol=1e-12)
    est = density.ds_kde(pipe.scaled, 2.0, dim=1)
    err = np.abs(est.normalized - pipe.sample.density_values).max()
    assert err < 0.08


def test_population_scaling_uniform_density_is_flat():
    q0 = 1.0 / (2.0 * np.pi)
    ps = density.solve_population_scaling_1d(lambda t: np.full_like(t, q0), 0.05)
    assert ps.residual <= 1e-8
    # rho is constant by symmetry and close to q^(-1/2)
    assert ps.rho.std() / ps.rho.mean() < 1e-10
    assert abs(ps.rho.mean() - q0 ** -0.5) / q0 ** -0.5 < 0.05


def test_population_scaling_approximates_inverse_sqrt_density():
    ps = density.solve_population_scaling_1d(
        lambda t: geometry.wrapped_normal_density(t, CIRCLE_SIGMA_SQ), 0.025)
    q = geometry.wrapped_normal_density(ps.grid, CIRCLE_SIGMA_SQ)
    rel = np.abs(ps.rho - q**-0.5) / q**-0.5
    assert rel.max() < 0.05


def test_population_scaling_grid_refinement_is_stable():
    paper = lambda t: geometry.wrapped_normal_density(t, CIRCLE_SIGMA_SQ)
    wavy = lambda t: (1.0 + 0.5 * np.cos(60.0 * t)) / (2.0 * np.pi)
    for fn, epsilon in [(paper, 0.1), (paper, 0.025), (wavy, 0.1)]:
        coarse = density.solve_population_scaling_1d(fn, epsilon)
        fine = density._solve_on_grid(fn, epsilon, 4 * coarse.grid.size)
        # the chosen grid is every fourth point of the finer one
        np.testing.assert_array_equal(coarse.grid, fine.grid[::4])
        np.testing.assert_allclose(coarse.rho, fine.rho[::4], rtol=1e-12)


def test_population_scaling_rejects_unresolvable_grid():
    fn = lambda t: geometry.wrapped_normal_density(t, CIRCLE_SIGMA_SQ)
    with pytest.raises(ParameterError, match="epsilon too small.*epsilon=1e-05"):
        density.solve_population_scaling_1d(fn, 1e-5)
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
            density.solve_population_scaling_1d(fn, bad)
    with pytest.raises(ParameterError):
        density.solve_population_scaling_1d(lambda t: np.zeros_like(t), 0.05)

