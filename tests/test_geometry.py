import numpy as np
import pytest

from dskernel import geometry
from dskernel.errors import ParameterError, ParseError
from dskernel.geometry import CIRCLE_SIGMA_SQ
from oracles import clean_sample


def test_wrapped_normal_density_integrates_to_one():
    theta = np.linspace(0.0, 2.0 * np.pi, 20001)
    q = geometry.wrapped_normal_density(theta, CIRCLE_SIGMA_SQ)
    mass = np.trapezoid(q, theta)
    assert abs(mass - 1.0) < 1e-6


def test_wrapped_normal_density_matches_long_series():
    theta = np.array([0.0, 0.3, np.pi, 5.1])
    sigma = np.sqrt(CIRCLE_SIGMA_SQ)
    ks = np.arange(-200, 201)
    expected = (np.exp(-0.5 * (theta[:, None] - 2 * np.pi * ks) ** 2 / CIRCLE_SIGMA_SQ)
                .sum(axis=1) / np.sqrt(2 * np.pi * CIRCLE_SIGMA_SQ))
    got = geometry.wrapped_normal_density(theta, CIRCLE_SIGMA_SQ)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    assert sigma > 0


def test_wrapped_normal_density_rejects_bad_variance():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="sigma_sq must be positive and finite"):
            geometry.wrapped_normal_density(np.array([0.0]), bad)


def test_sample_circle_shapes_and_density():
    sample = geometry.sample_circle(400, CIRCLE_SIGMA_SQ, radius=0.5, seed=11)
    assert sample.clean_points.shape == (400, 2)
    assert np.all((sample.angles >= 0) & (sample.angles < 2 * np.pi))
    np.testing.assert_allclose(np.linalg.norm(sample.clean_points, axis=1), 0.5)
    expected = geometry.wrapped_normal_density(sample.angles, CIRCLE_SIGMA_SQ) / 0.5
    np.testing.assert_allclose(sample.density_values, expected)


def test_sample_circle_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        geometry.sample_circle(2, CIRCLE_SIGMA_SQ)
    with pytest.raises(ParameterError):
        geometry.sample_circle(10, CIRCLE_SIGMA_SQ, radius=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        for kwargs in ({"sigma_sq": bad}, {"sigma_sq": CIRCLE_SIGMA_SQ, "radius": bad}):
            with pytest.raises(ParameterError, match="must be positive and finite"):
                geometry.sample_circle(10, **kwargs)


def test_sample_two_circles_structure():
    sample = geometry.sample_two_circles(n_per_circle=100, seed=2)
    assert sample.clean_points.shape == (200, 2)
    np.testing.assert_allclose(sample.radius_labels[:100], 1.0)
    np.testing.assert_allclose(sample.radius_labels[100:], 0.5)
    radii = np.linalg.norm(sample.clean_points, axis=1)
    np.testing.assert_allclose(radii, sample.radius_labels)
    # arc-length density of each circle is angular density / radius
    expected = geometry.wrapped_normal_density(sample.angles, CIRCLE_SIGMA_SQ)
    np.testing.assert_allclose(sample.density_values * sample.radius_labels, expected)


def test_embedding_is_isometric():
    sample = geometry.sample_circle(150, CIRCLE_SIGMA_SQ, seed=5)
    embedded = geometry.embed_orthogonal(sample, 700, seed=6)
    assert embedded.clean_points.shape == (150, 700)
    pre = np.linalg.norm(sample.clean_points[:, None] - sample.clean_points[None], axis=-1)
    post = np.linalg.norm(embedded.clean_points[:, None] - embedded.clean_points[None], axis=-1)
    assert np.abs(pre - post).max() < 1e-10


def test_embedding_rejects_too_small_dimension():
    sample = geometry.sample_circle(10, CIRCLE_SIGMA_SQ)
    with pytest.raises(ParameterError):
        geometry.embed_orthogonal(sample, 1)


def test_noise_none_is_identity():
    sample = geometry.sample_circle(50, CIRCLE_SIGMA_SQ, seed=1)
    noise = geometry.apply_noise(sample, "none", seed=3)
    assert np.all(noise.true_noise_sq == 0.0)
    np.testing.assert_array_equal(noise.noisy_points, sample.clean_points)


def test_varying_ball_radius_bounds():
    sample = clean_sample(500, seed=7, m=300)
    noise = geometry.apply_noise(sample, "varying_ball", seed=9)
    radii = geometry.varying_ball_radius(sample.angles)
    norms = np.sqrt(noise.true_noise_sq)
    assert np.all(norms <= radii + 1e-12)
    # at the far side of the circle the ball radius shrinks to 0.01
    assert abs(geometry.varying_ball_radius(np.pi) - 0.01) < 1e-15
    near_pi = np.abs(sample.angles - np.pi) < 0.05
    if near_pi.any():
        assert norms[near_pi].max() <= 0.011


def test_outlier_gaussian_zero_fraction():
    sample = clean_sample(10_000, seed=0, m=50)
    noise = geometry.apply_noise(sample, "outlier_gaussian", seed=2)
    zero_rows = np.all(noise.noise_vectors == 0.0, axis=1).mean()
    assert abs(zero_rows - 0.9) < 0.01


def test_outlier_scaled_gaussian_basics():
    sample = clean_sample(5000, seed=0, m=40)
    noise = geometry.apply_noise(sample, "outlier_scaled_gaussian", seed=2)
    zero_rows = np.all(noise.noise_vectors == 0.0, axis=1).mean()
    assert abs(zero_rows - 0.9) < 0.02
    assert noise.true_noise_sq.min() >= 0.0


def test_noise_models_are_mean_zero():
    sample = clean_sample(100_000, seed=4, m=3)
    for model, std in [("varying_ball", 0.5 / np.sqrt(3)),
                       ("outlier_gaussian", 1.0 / np.sqrt(12))]:
        noise = geometry.apply_noise(sample, model, seed=6)
        bound = 3.0 * std / np.sqrt(100_000)
        assert np.abs(noise.noise_vectors.mean(axis=0)).max() < bound


def test_unknown_noise_model_raises():
    sample = geometry.sample_circle(10, CIRCLE_SIGMA_SQ)
    with pytest.raises(ParameterError):
        geometry.apply_noise(sample, "cauchy")


def test_sampling_is_deterministic():
    a = geometry.sample_circle(64, CIRCLE_SIGMA_SQ, seed=123)
    b = geometry.sample_circle(64, CIRCLE_SIGMA_SQ, seed=123)
    np.testing.assert_array_equal(a.angles, b.angles)
    na = geometry.apply_noise(a, "varying_ball", seed=9)
    nb = geometry.apply_noise(b, "varying_ball", seed=9)
    np.testing.assert_array_equal(na.noise_vectors, nb.noise_vectors)


def test_test_function_values():
    f, lap = geometry.test_function_and_laplacian([0.0, np.pi / 2])
    assert abs(f[0] - 0.2) < 1e-15
    assert abs(lap[0] - 0.2) < 1e-15
    assert abs(f[1]) < 1e-15
    assert abs(lap[1]) < 1e-15


def test_test_function_laplacian_matches_second_difference():
    theta = np.linspace(0.1, 6.2, 97)
    h = 1e-4
    f_mid, lap = geometry.test_function_and_laplacian(theta)
    f_plus, _ = geometry.test_function_and_laplacian(theta + h)
    f_minus, _ = geometry.test_function_and_laplacian(theta - h)
    second = (f_plus - 2 * f_mid + f_minus) / h**2
    np.testing.assert_allclose(-second, lap, rtol=0, atol=1e-6)


def test_save_and_load_dataset_roundtrip(tmp_path):
    sample = clean_sample(30, seed=3, m=10)
    noise = geometry.apply_noise(sample, "varying_ball", seed=5)
    points_path = tmp_path / "points.csv"
    sidecar_path = tmp_path / "sidecar.csv"
    geometry.save_dataset_csv(points_path, sidecar_path, sample, noise)
    loaded = geometry.load_points_csv(points_path)
    np.testing.assert_allclose(loaded, noise.noisy_points, rtol=0, atol=1e-15)
    header = sidecar_path.read_text().splitlines()[0]
    assert header == "index,angle,radius,true_density,true_noise_sq"


def test_load_points_rejects_empty(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(Exception):
        geometry.load_points_csv(empty)


def test_load_points_rejects_non_finite_and_malformed_values(tmp_path):
    path = tmp_path / "points.csv"
    cases = [
        ("1,2\n3,nan\n", "line 2: column 2: non-finite"),
        ("1,2\n# comment\n\n-inf,4\n", "line 4: column 1: non-finite"),
        ("1,2\n3,x\n", "line 2: column 2: cannot parse 'x'"),
        ("1,2\n3,4,5\n", "line 2: expected 2 fields, found 3"),
        ("1,2\n3,\n", "line 2: column 2: cannot parse ''"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            geometry.load_points_csv(path)


def test_load_points_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "points.csv"
    path.write_bytes(b"1,2\n# caf\xe9\n3,4\n")
    with pytest.raises(ParseError, match="line 2: not utf-8 text"):
        geometry.load_points_csv(path)
