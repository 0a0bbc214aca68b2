import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from dskernel import density, harness, inference, kernel, laplacian, scaling
from dskernel.errors import ConvergenceError, ParameterError
from oracles import (clean_circle, clean_sample, damped_symmetric_scaling, log_w_of,
                     newton_symmetric_scaling)


def test_w_holds_its_kernel_and_reads_epsilon_from_it():
    aff = clean_circle(60, 0.1)
    scaled = scaling.assemble_W(aff, scaling.sinkhorn_symmetric(aff))
    assert [f.name for f in dataclasses.fields(scaled)] == ["operator", "log_d"]
    assert scaled.operator is aff
    assert scaled.epsilon == aff.epsilon == 0.1


def test_a_solution_states_every_field():
    # every solve reports its residual history and its absorptions
    assert [f.name for f in dataclasses.fields(scaling.ScalingSolution)
            if f.default is not dataclasses.MISSING
            or f.default_factory is not dataclasses.MISSING] == []


def test_matches_newton_oracle_on_small_matrices():
    rng = np.random.default_rng(7)
    for n in (3, 4, 6):
        pts = rng.normal(size=(n, 2))
        sq = kernel.pairwise_sq_dists(pts)
        aff = kernel.gaussian_kernel(sq, 1.3)
        sol = scaling.sinkhorn_symmetric(aff, tol=1e-13, max_iter=200_000)
        assert sol.converged
        k_lin = np.exp(aff.log_entries)
        expected = newton_symmetric_scaling(k_lin)
        np.testing.assert_allclose(sol.log_d, expected, rtol=0, atol=1e-8)


def test_a_start_whose_first_residual_overflows_still_converges():
    # only a NaN residual ends the solve short of max_iter; +inf does not
    aff = clean_circle(120, 0.2, seed=3)
    far = scaling.sinkhorn_symmetric(aff, tol=1e-11, log_d0=np.full(120, 1000.0))
    assert far.residual_history[0] == np.inf and far.converged
    np.testing.assert_allclose(far.log_d, scaling.sinkhorn_symmetric(aff, tol=1e-11).log_d,
                               rtol=0, atol=1e-6)


def test_a_start_of_another_length_or_with_nan_is_rejected():
    aff = clean_circle(10, 0.1)
    for log_d0 in (np.zeros(9), np.append(np.zeros(9), np.nan)):
        with pytest.raises(ParameterError, match="^log_d0 must be a finite vector of length n$"):
            scaling.sinkhorn_symmetric(aff, log_d0=log_d0)


def test_a_nan_residual_of_a_damped_step_ends_the_solve(monkeypatch):
    # a NaN in log d would spread to every later step, so the solve stops there
    aff = clean_circle(10, 0.1)
    monkeypatch.setattr(aff, "row_lse", lambda u: np.full(aff.n, np.nan))
    sol = scaling.sinkhorn_symmetric(aff)
    assert sol.iterations == 1 and not sol.converged
    assert np.isnan(sol.residual)


@pytest.mark.parametrize("diagonal", [0.0, 5.0, np.nan])
def test_hand_built_diagonal_is_excluded(diagonal):
    aff = clean_circle(60, 0.2, seed=6)
    # a matrix that already excludes its diagonal is kept, not copied
    assert kernel.AffinityMatrix(aff.log_entries, aff.epsilon).log_entries is aff.log_entries
    log_k = aff.log_entries.copy()
    np.fill_diagonal(log_k, diagonal)
    hand = kernel.AffinityMatrix(log_entries=log_k, epsilon=aff.epsilon)
    assert np.all(np.isneginf(np.diag(hand.log_entries)))
    assert not np.isneginf(log_k[0, 0])  # the caller's array is left alone
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-12)
    sol_hand = scaling.sinkhorn_symmetric(hand, tol=1e-12)
    assert np.array_equal(sol_hand.log_d, sol.log_d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       depth=st.floats(1.0, 2500.0), spread=st.floats(0.0, 300.0))
def test_assembled_w_is_exactly_symmetric_with_excluded_diagonal(n, seed, depth, spread):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-depth, 0.0, size=(n, n)), 1)
    log_k = upper + upper.T  # diagonal 0.0, excluded on construction
    aff = kernel.AffinityMatrix(log_entries=log_k, epsilon=0.1)
    log_d = rng.uniform(-spread, spread, size=n)  # log W stays within exp range
    scaled = scaling.assemble_W(aff, scaling.ScalingSolution(log_d, 0.0, 1, True, np.zeros(1), 0))
    log_w = log_w_of(scaled)
    assert np.array_equal(log_w, log_w.T)
    assert np.all(np.isneginf(np.diag(log_w)))
    assert np.array_equal(scaled.w, np.exp(log_w))


def random_affinity(n, seed, epsilon):
    points = np.random.default_rng(seed).normal(size=(n, 2))
    return kernel.gaussian_kernel(kernel.pairwise_sq_dists(points), epsilon)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1),
       epsilon=st.floats(2.0, 5.0), shift=st.floats(-50.0, 50.0))
def test_kernel_offset_halves_into_log_d(n, seed, epsilon, shift):
    # K e^c is scaled by d e^(-c/2): log K + c gives log d - c/2
    aff = random_affinity(n, seed, epsilon)
    shifted = kernel.AffinityMatrix(log_entries=aff.log_entries + shift, epsilon=epsilon)
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-12)
    sol_shifted = scaling.sinkhorn_symmetric(shifted, tol=1e-12)
    assert sol.converged and sol_shifted.converged
    np.testing.assert_allclose(sol_shifted.log_d, sol.log_d - shift / 2.0, rtol=0, atol=1e-8)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), seed=st.integers(0, 2**32 - 1), epsilon=st.floats(2.0, 5.0))
def test_log_d_and_w_are_permutation_equivariant(n, seed, epsilon):
    aff = random_affinity(n, seed, epsilon)
    perm = np.random.default_rng(seed).permutation(n)
    permuted = kernel.AffinityMatrix(
        log_entries=aff.log_entries[np.ix_(perm, perm)], epsilon=epsilon)
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-12)
    sol_p = scaling.sinkhorn_symmetric(permuted, tol=1e-12)
    assert sol.converged and sol_p.converged
    np.testing.assert_allclose(sol_p.log_d, sol.log_d[perm], rtol=0, atol=1e-9)
    w = scaling.assemble_W(aff, sol).w
    w_p = scaling.assemble_W(permuted, sol_p).w
    np.testing.assert_allclose(w_p, w[np.ix_(perm, perm)], rtol=0, atol=1e-10)


def estimates_after_the_solve(points, epsilon):
    """log d and every estimate built on it, for properties of the whole pipeline."""
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(points), epsilon)
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-12)
    assert sol.converged
    scaled = scaling.assemble_W(aff, sol)
    qhat = density.ds_kde(scaled, 2.0)
    nhat = inference.noise_magnitude(sol, qhat, epsilon)
    table = inference.signal_magnitude_and_distances(points, nhat, epsilon, 2.0,
                                                     scaled=scaled)
    return {"log_d": sol.log_d, "w": scaled.w, "dskde_s2": qhat.raw,
            "dskde_limit": density.ds_kde(scaled, density.S_LIMIT).raw,
            "noise": nhat, "signal": table.signal_sq_hat,
            "corrected": table.corrected_dists,
            "robust_markov": laplacian.robust_markov(scaled, qhat, 1.0).apply(np.eye(scaled.n))}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       epsilon=st.floats(2.0, 5.0), offset=st.floats(-100.0, 100.0))
def test_log_d_is_invariant_to_rigid_motions(n, dim, seed, epsilon, offset):
    # K depends on the points only through their distances, and so does every
    # estimate after the solve except the signal magnitudes ||y_i||^2 - N_i,
    # which a rotation about the origin keeps but a translation does not
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    rotated = points @ rotation
    est = estimates_after_the_solve(points, epsilon)
    est_moved = estimates_after_the_solve(rotated + offset * rng.normal(size=dim), epsilon)
    est_rotated = estimates_after_the_solve(rotated, epsilon)
    np.testing.assert_allclose(est_moved["log_d"], est["log_d"], rtol=0, atol=1e-10)
    for name in ("dskde_s2", "dskde_limit"):
        np.testing.assert_allclose(est_moved[name], est[name], rtol=1e-9)
    for name in ("noise", "corrected"):
        np.testing.assert_allclose(est_moved[name], est[name], rtol=0, atol=1e-9)
    np.testing.assert_allclose(est_rotated["signal"], est["signal"], rtol=0, atol=1e-9)


def traditional_markov_at_one(points, epsilon):
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(points), epsilon)
    return laplacian.traditional_markov(aff, 1.0).apply(np.eye(len(points)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       epsilon=st.floats(2.0, 5.0))
def test_per_point_orthogonal_noise_leaves_w_unchanged(n, dim, seed, epsilon):
    # Point i moved by r_i along an axis of its own has ||y_i - y_j||^2 =
    # ||x_i - x_j||^2 + r_i^2 + r_j^2, so K(y) = diag(a) K(x) diag(a) with
    # a = e^(-r^2/eps). The symmetric scaling absorbs the diagonal exactly:
    # log d moves by r^2/eps and the noise estimates by r^2, while W, all that
    # is read off it and the corrected distances stay. The degrees of the
    # traditional family do not absorb it.
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    r = rng.uniform(0.0, 3.0, size=n)
    noisy = np.hstack([points, np.diag(r)])
    est = estimates_after_the_solve(points, epsilon)
    est_noisy = estimates_after_the_solve(noisy, epsilon)
    np.testing.assert_allclose(est_noisy["log_d"], est["log_d"] + r**2 / epsilon,
                               rtol=0, atol=1e-10)
    np.testing.assert_allclose(est_noisy["noise"], est["noise"] + r**2, rtol=0, atol=2e-10)
    for name in ("w", "robust_markov"):
        np.testing.assert_allclose(est_noisy[name], est[name], rtol=0, atol=1e-11)
    for name in ("dskde_s2", "dskde_limit"):
        np.testing.assert_allclose(est_noisy[name], est[name], rtol=1e-10)
    for name in ("signal", "corrected"):
        np.testing.assert_allclose(est_noisy[name], est[name], rtol=0, atol=2e-10)
    moved = np.abs(traditional_markov_at_one(noisy, epsilon)
                   - traditional_markov_at_one(points, epsilon)).max()
    assert moved > 1e-6


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(3, 30), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       epsilon=st.floats(2.0, 5.0), data=st.data())
def test_duplicate_points_get_equal_scaling_factors(n, dim, seed, epsilon, data):
    # a copy of point i is indistinguishable from it: swapping the two
    # relabels the same point set, so their factors agree and row j of W is
    # row i with its columns i and j swapped
    points = np.random.default_rng(seed).normal(size=(n, dim))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1).filter(lambda k: k != i))
    points[j] = points[i]
    est = estimates_after_the_solve(points, epsilon)
    log_d, w = est["log_d"], est["w"]
    assert abs(log_d[i] - log_d[j]) <= 1e-10
    swapped = np.arange(n)
    swapped[[i, j]] = swapped[[j, i]]
    np.testing.assert_allclose(w[j, swapped], w[i], rtol=0, atol=1e-12)


def test_underflowing_kernel_is_handled_in_log_domain():
    # tiny epsilon pushes every off-diagonal entry far below linear-domain range
    angles = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(pts), 2e-5)
    off_log = aff.log_entries[~np.eye(40, dtype=bool)]
    assert off_log.max() < -700  # exp() of the raw log K underflows everywhere
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-9, max_iter=50_000)
    assert sol.converged
    w = scaling.assemble_W(aff, sol)
    np.testing.assert_allclose(w.w.sum(axis=1), 1.0, rtol=0, atol=1e-8)


def test_isolated_outlier_far_below_exp_range_converges():
    # one point so far from the rest that its whole kernel row sits near
    # exp(-2133); its scaling factor must grow to about e^2133 to compensate
    pts = clean_sample(200).clean_points.copy()
    pts[0] = (9.0, 0.0)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(pts), 0.03)
    assert aff.log_entries[0].max() < -2100
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-9)
    assert sol.converged and sol.residual <= 1e-9
    assert sol.log_d[0] > 2100
    w = scaling.assemble_W(aff, sol)
    np.testing.assert_allclose(w.w.sum(axis=1), 1.0, rtol=0, atol=1e-8)


def test_small_bandwidth_circle_converges_within_budget():
    pipe = harness.circle_pipeline(1000, 1000, 1e-3, max_iter=300)
    assert pipe.solution.converged
    assert pipe.solution.iterations <= 300


@pytest.mark.parametrize("n, epsilon, budget", [(300, 1e-3, 500), (4, 0.1, 200)])
def test_circles_the_damped_fixed_point_stalled_on_converge_within_budget(n, epsilon, budget):
    # the damped fixed point alone stopped at residual 5.9e-4 after 3,000
    # iterations on (300, 1e-3), and at 1e-5 after 100,000 on the n=4 circle
    sol = harness.circle_pipeline(n, n, epsilon, max_iter=budget).solution
    assert sol.converged
    assert sol.iterations == len(sol.residual_history) <= budget
    assert sol.residual == sol.residual_history[-1]


def jittered_ring(n, seed):
    """``n`` points on the unit circle at equal angles, each moved by up to
    10 % of the spacing."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.1, 0.1, size=n)) / n
    return np.column_stack([np.cos(angles), np.sin(angles)])


@pytest.mark.parametrize("n, epsilon", [(6, 0.16), (10, 0.086)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jittered_rings_converge_within_budget(n, epsilon, seed):
    # a kernel close to a bipartite cycle graph, whose slow mode held the
    # damped fixed point alone above 1e-7 after 20,000 iterations
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(jittered_ring(n, seed)), epsilon)
    sol = scaling.sinkhorn_symmetric(aff, max_iter=200)
    assert sol.converged
    assert sol.iterations == len(sol.residual_history)


@pytest.mark.parametrize("noise_model, n, epsilon", [("varying_ball", 300, 0.1),
                                                     ("none", 800, 5e-3)])
def test_mixed_solve_matches_the_damped_fixed_point_in_fewer_iterations(noise_model, n,
                                                                        epsilon):
    _, noise = harness.circle_dataset(n, n, noise_model)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(noise.noisy_points), epsilon)
    tol, max_iter = scaling.POINTS_SOLVE
    reference, reference_iterations, reference_converged = damped_symmetric_scaling(
        aff, tol, max_iter)
    sol = scaling.sinkhorn_symmetric(aff)
    assert sol.converged and reference_converged
    np.testing.assert_allclose(sol.log_d, reference, rtol=0, atol=1e-8)
    assert sol.iterations <= 0.6 * reference_iterations


def test_solution_reports_absorptions():
    sol = harness.circle_pipeline(300, 300, 0.1).solution
    assert sol.converged
    assert sol.absorptions >= 1


@pytest.mark.filterwarnings("error")
def test_kernel_without_finite_entries_is_rejected_before_the_first_iteration():
    # at eps = 1e-310 most -D/eps overflow to -inf, an exact zero of K, and
    # whole rows of the kernel are zero; the first absorption names the first
    aff = clean_circle(60, 1e-310)
    empty = np.flatnonzero(np.isneginf(aff.log_entries).all(axis=1))
    assert 0 < empty[0] < empty[-1]
    with pytest.raises(ParameterError, match=f"^row {empty[0]} of the matrix is zero$"):
        scaling.sinkhorn_symmetric(aff, max_iter=1000)


def test_unconverged_solution_reports_every_iteration():
    sample, _ = harness.circle_dataset(300, 300)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(sample.clean_points), 2e-4)
    sol = scaling.sinkhorn_symmetric(aff, max_iter=200)
    assert not sol.converged
    assert sol.iterations == 200
    assert len(sol.residual_history) == 200
    assert sol.residual == sol.residual_history[-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(3, 60), seed=st.integers(0, 2**32 - 1),
       depth=st.floats(1.0, 2500.0), drift=st.floats(0.0, 400.0))
def test_row_logsumexp_operator_matches_scipy(n, seed, depth, drift):
    # symmetric log matrix with a -inf diagonal, entries in [-depth, 0]
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.uniform(-depth, 0.0, size=(n, n)), 1)
    log_a = upper + upper.T
    np.fill_diagonal(log_a, -np.inf)
    operator = kernel.KernelOperator(log_a)
    u = rng.uniform(-drift, drift, size=n)
    for step in range(12):
        # alternate steps that stay near the absorption point with jumps
        # of up to ``drift`` that force a re-absorption
        width = drift if step % 3 == 2 else 5.0
        u = u + rng.uniform(-width, width, size=n)
        expected = logsumexp(log_a + u, axis=1)
        # near a zero result the rounding of log_a + u, at the scale of the
        # largest exponent, bounds the error instead
        scale = depth + np.abs(u).max()
        np.testing.assert_allclose(operator.row_lse(u), expected, rtol=1e-12,
                                   atol=1e-15 * scale)
    assert operator.absorptions >= 1


def test_rejects_tiny_matrices_and_bad_entries():
    aff = clean_circle(10, 0.1)
    # NaN or +inf in log K is rejected when the affinity is built
    with pytest.raises(ParameterError, match=r"NaN or \+inf"):
        kernel.AffinityMatrix(log_entries=np.full((3, 3), np.nan), epsilon=0.1)
    log_k = aff.log_entries.copy()
    log_k[3, 7] = log_k[7, 3] = np.inf
    with pytest.raises(ParameterError, match=r"NaN or \+inf"):
        kernel.AffinityMatrix(log_entries=log_k, epsilon=0.1)
    with pytest.raises(ParameterError, match=r"^need a square matrix, got shape \(3, 4\)$"):
        kernel.gaussian_kernel(np.zeros((3, 4)) + 1.0, 0.1)
    # a matrix that is not 2-D is refused before its diagonal is read
    for shape, text in (((4,), r"\(4,\)"), ((2, 3, 4), r"\(2, 3, 4\)")):
        with pytest.raises(ParameterError, match=rf"^need a square matrix, got shape {text}$"):
            kernel.AffinityMatrix(np.zeros(shape), 0.1)
    two = kernel.AffinityMatrix(log_entries=aff.log_entries[:2, :2], epsilon=0.1)
    with pytest.raises(ParameterError):
        scaling.sinkhorn_symmetric(two)


@pytest.mark.parametrize("kwargs, name", [
    ({"max_iter": 0}, "max_iter"), ({"max_iter": -5}, "max_iter"),
    ({"tol": -1.0}, "tol"), ({"tol": 0.0}, "tol"), ({"tol": np.nan}, "tol"),
    ({"tol": np.inf}, "tol"),
    ({"max_iter": 1e5}, "max_iter"), ({"max_iter": 2.5}, "max_iter")])
def test_rejects_bad_solver_parameters(kwargs, name):
    with pytest.raises(ParameterError, match=name):
        scaling.sinkhorn_symmetric(clean_circle(10, 0.1), **kwargs)


def test_a_tolerance_below_roundoff_runs_out_its_budget():
    # once log d stops changing, the differences the mixing fits are zero and
    # its normal equations singular: the solve takes the damped step instead
    sol = scaling.sinkhorn_symmetric(clean_circle(50, 0.1), tol=1e-18, max_iter=1000)
    assert not sol.converged
    assert sol.iterations == len(sol.residual_history) == 1000
    assert sol.residual < 1e-14


def test_assemble_refuses_unconverged_solution():
    aff = clean_circle(200, 0.05, seed=9)
    sol = scaling.sinkhorn_symmetric(aff, tol=1e-14, max_iter=2)
    assert not sol.converged
    with pytest.raises(ConvergenceError):
        scaling.assemble_W(aff, sol)


def test_clean_data_diagnostics_are_small():
    # on clean data the noise magnitudes implied by the true density are O(epsilon)
    pipe = clean_circle(1000, 0.1, seed=10, m=1000, tol=scaling.POINTS_SOLVE.tol)
    oracle = density.DensityEstimate(raw=pipe.sample.density_values * np.sqrt(np.pi * 0.1),
                                     normalized=None, s=2.0)
    implied = inference.noise_magnitude(pipe.solution, oracle, 0.1)
    assert np.abs(implied).max() < 0.05


def test_diagnostics_reject_nonpositive_density():
    aff = clean_circle(20, 0.1)
    sol = scaling.sinkhorn_symmetric(aff)
    with pytest.raises(ParameterError):
        inference.noise_magnitude(sol, density.DensityEstimate(
            raw=np.zeros(20), normalized=None, s=2.0), 0.1)
