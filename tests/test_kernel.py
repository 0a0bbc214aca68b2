from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from dskernel import counts, geometry, kernel, laplacian
from dskernel.errors import ParameterError
from oracles import clean_sample


def random_points(n, m, seed=0):
    return np.random.default_rng(seed).normal(size=(n, m))


def test_pairwise_sq_dists_matches_cdist():
    pts = random_points(40, 7, seed=1)
    got = kernel.pairwise_sq_dists(pts)
    expected = cdist(pts, pts, "sqeuclidean")
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_pairwise_sq_dists_is_exactly_symmetric_with_zero_diagonal():
    pts = random_points(60, 5, seed=2) + 1e4  # large norms stress cancellation
    d = kernel.pairwise_sq_dists(pts)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert d.min() >= 0.0


def test_pairwise_sq_dists_needs_an_n_by_m_array_of_two_points_or_more():
    for points in (np.arange(3.0), np.ones((1, 4))):
        with pytest.raises(ParameterError) as exc:
            kernel.pairwise_sq_dists(points)
        assert str(exc.value) == ("need an (n, m) array of n >= 2 points, "
                                  f"got shape {points.shape}")


def test_gaussian_kernel_entries_and_diagonal():
    pts = random_points(25, 3, seed=3)
    sq = kernel.pairwise_sq_dists(pts)
    aff = kernel.gaussian_kernel(sq, 0.7)
    off = ~np.eye(25, dtype=bool)
    np.testing.assert_allclose(np.exp(aff.log_entries)[off], np.exp(-sq / 0.7)[off])
    masked = aff.log_entries
    assert np.all(np.isneginf(np.diag(masked)))
    assert aff.n == 25
    assert aff.epsilon == 0.7
    assert isinstance(aff, kernel.KernelOperator)
    assert not hasattr(aff, "operator")


def test_gaussian_kernel_rejects_nan_distances_when_built():
    sq = kernel.pairwise_sq_dists(random_points(5, 2))
    sq[1, 3] = sq[3, 1] = np.nan
    with pytest.raises(ParameterError, match=r"NaN or \+inf"):
        kernel.gaussian_kernel(sq, 0.7)


def test_gaussian_kernel_rejects_bad_epsilon():
    sq = kernel.pairwise_sq_dists(random_points(5, 2))
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ParameterError, match="epsilon must be positive and finite"):
            kernel.gaussian_kernel(sq, bad)


def test_degrees_match_direct_sum():
    pts = random_points(30, 4, seed=4)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(pts), 0.5)
    lin = np.exp(aff.log_entries)
    np.testing.assert_allclose(kernel.standard_kde(aff), lin.sum(axis=1) / 29, rtol=1e-12)


def test_standard_kde_needs_two_points():
    one = kernel.AffinityMatrix(np.zeros((1, 1)), epsilon=0.1)
    with pytest.raises(ParameterError, match="^need at least two points$"):
        kernel.standard_kde(one)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_traditional_normalization_row_stochastic(alpha):
    pts = random_points(35, 6, seed=5)
    aff = kernel.gaussian_kernel(kernel.pairwise_sq_dists(pts), 0.4)
    fam = laplacian.traditional_markov(aff, alpha)
    markov = fam.apply(np.eye(fam.n))
    np.testing.assert_allclose(markov.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(np.diag(markov) == 0.0)
    assert markov.min() >= 0.0


def test_pairwise_sq_dists_accurate_on_offset_data():
    # a large common offset must not cancel away the small differences
    pts = 1e4 + 1e-3 * random_points(50, 20, seed=6)
    got = kernel.pairwise_sq_dists(pts)
    expected = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    off = ~np.eye(50, dtype=bool)
    assert (np.abs(got[off] - expected[off]) / expected[off]).max() <= 1e-6


def _expanded_form_with_mirror(points):
    """Reference: the broadcast expanded form over the whole matrix, clamped,
    with its upper triangle mirrored."""
    points = points - points.mean(axis=0)
    sq = np.einsum("ij,ij->i", points, points)
    d = sq[:, None] + sq[None, :] - 2.0 * (points @ points.T)
    np.maximum(d, 0.0, out=d)
    d = np.triu(d, 1)
    return d + d.T


def test_pairwise_sq_dists_in_one_buffer_is_bit_identical():
    # n = 600 spans two row blocks
    sample = clean_sample(600, seed=1, m=600)
    noisy = geometry.apply_noise(sample, "varying_ball", seed=3).noisy_points
    cm = counts.synth_poisson_counts(600, 2000, seed=4)
    y, _ = counts.normalize_counts(cm)
    for points in (noisy, y):
        d = kernel.pairwise_sq_dists(points)
        assert np.array_equal(d, _expanded_form_with_mirror(points))
        assert np.array_equal(d, d.T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 60), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       block_entries=st.integers(1, 2000))
def test_row_blocks_change_no_bit(n, m, seed, block_entries):
    # one row per block up to many: the distance pass and the weighted log
    # give the one-block result bit for bit
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m)) + rng.uniform(-1e3, 1e3)
    u = rng.uniform(-5.0, 5.0, size=n)
    whole = kernel.pairwise_sq_dists(points)
    whole_log = kernel.gaussian_kernel(whole, 0.5).weighted_log(u)
    with mock.patch.object(kernel, "_BLOCK_ENTRIES", block_entries):
        d = kernel.pairwise_sq_dists(points)
        log_w = kernel.gaussian_kernel(d, 0.5).weighted_log(u)
    for got, expected in ((d, whole), (log_w, whole_log)):
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(got, got.T)
    assert np.all(np.diag(d) == 0.0)


# magnitudes from 1e-300 to 1e300 of both signs, both zeros, +-inf and NaN
_OUTER_SUM_ENTRIES = st.one_of(
    st.tuples(st.floats(1e-300, 1e300), st.booleans()).map(lambda t: -t[0] if t[1] else t[0]),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.lists(_OUTER_SUM_ENTRIES, min_size=1, max_size=60),
       block_entries=st.integers(1, 2000))
# seven rows in blocks of three: the last block holds one row
@example(x=[1e300, -1e300, np.inf, -np.inf, np.nan, 1e-300, -0.0], block_entries=21)
def test_outer_sum_factors_give_np_add_outer(x, block_entries):
    # each row block written by the rank-2 product into a NaN-filled matrix,
    # as weighted_log writes into an empty one, equals np.add's outer sum;
    # only the sign of an exact zero may differ
    x = np.array(x)
    n = len(x)
    left, right = kernel._outer_sum_factors(x)
    got = np.full((n, n), np.nan)
    with (mock.patch.object(kernel, "_BLOCK_ENTRIES", block_entries),
          np.errstate(over="ignore", invalid="ignore")):
        for rows in kernel._row_blocks(n):
            np.matmul(left[rows], right, out=got[rows])
        expected = np.add.outer(x, x)
    assert np.array_equal(got, expected, equal_nan=True)
