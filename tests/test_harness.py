import numpy as np
import pytest
from scipy import stats

from dskernel import density, harness, laplacian
from dskernel.errors import ConvergenceError, ParameterError


def test_circle_pipeline_is_deterministic():
    a = harness.circle_pipeline(80, 40, 0.1, "varying_ball", seed=5)
    b = harness.circle_pipeline(80, 40, 0.1, "varying_ball", seed=5)
    np.testing.assert_array_equal(a.solution.log_d, b.solution.log_d)
    np.testing.assert_array_equal(a.noise.noisy_points, b.noise.noisy_points)
    assert a.solution.converged


def test_circle_pipeline_two_circles():
    pipe = harness.circle_pipeline(100, 50, 0.1, "none", seed=1, two_circles=True)
    assert pipe.sample.clean_points.shape == (100, 50)
    assert set(np.unique(pipe.sample.radius_labels)) == {0.5, 1.0}


def test_non_converged_circle_refuses_w():
    pipe = harness.circle_pipeline(300, 300, 2e-4, max_iter=200)
    assert not pipe.solution.converged
    with pytest.raises(ConvergenceError):
        pipe.scaled


def test_experiment_config_validation():
    with pytest.raises(ParameterError):
        harness.ExperimentConfig(experiment="fig99")
    with pytest.raises(ParameterError):
        harness.ExperimentConfig(experiment="fig3", repeats=0)
    with pytest.raises(ParameterError):
        harness.ExperimentConfig(experiment="fig3", sweep=[100, 50])


def test_error_sweep_writes_deterministic_csv(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        config = harness.ExperimentConfig(experiment="fig3", sweep=[60, 90],
                                          repeats=2, seed=7, noise="none",
                                          out=str(out))
        header, rows = harness.run_experiment(config)
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().splitlines()
    assert lines[0].startswith("# experiment=fig3")
    assert lines[1].split(",")[:3] == ["n", "noise", "method"]
    assert all(row[-1] == "ok" for row in rows)


def test_fig6_experiment_shape(tmp_path):
    out = tmp_path / "fig6.csv"
    config = harness.ExperimentConfig(experiment="fig6", seed=0, out=str(out))
    header, rows = harness.run_experiment(config)
    assert header == ["k", "corrected_accuracy", "noisy_accuracy"]
    assert len(rows) == 50
    accs = np.array([[float(r[1]), float(r[2])] for r in rows])
    assert np.all((accs >= 0.0) & (accs <= 1.0))


def test_fig8_uses_the_limit_exponent():
    noise = {}
    for s in (2.0, density.S_LIMIT):
        header, rows = harness.run_experiment(
            harness.ExperimentConfig(experiment="fig8-synthetic", s=s))
        noise[s] = [row[header.index("noise_sq_hat")] for row in rows]
    assert len(noise[2.0]) == len(noise[density.S_LIMIT]) == 600
    assert noise[2.0] != noise[density.S_LIMIT]


def test_laplacian_errors_keys_and_magnitudes():
    errs = harness.laplacian_errors(500, 0.2, "none", seed=0)
    assert set(errs) == {"robust", "traditional", "residual"}
    assert errs["residual"] <= 1e-9
    assert 0.0 < errs["robust"] < 1.5
    assert 0.0 < errs["traditional"] < 1.5


def test_median_sq_dist_epsilon():
    pts = np.array([[0.0], [1.0], [2.0]])
    # off-diagonal squared distances are 1, 1, 4 -> median 1
    assert harness.median_sq_dist_epsilon(pts, divisor=4.0) == 0.25


def test_poisson_noise_experiment_tracks_inverse_depth():
    res = harness.poisson_noise_experiment(n=200, m=1000, seed=1)
    r = stats.pearsonr(res["noise_sq_hat"], res["predicted_noise"])[0]
    assert r > 0.9
    assert res["solution"].converged


def test_transition_error_table_structure():
    res = harness.poisson_noise_experiment(
        n=120, m=400, seed=2,
        cluster_depth_ranges=((400.0, 800.0), (2000.0, 4000.0)))
    rows = harness.transition_error_table(res["normalized"], res["counts"].labels,
                                          [res["epsilon"]], alphas=(0.0, 1.0))
    assert len(rows) == 4  # two alphas x two families
    for row in rows:
        assert row["family"] in ("robust", "traditional")
        assert 0.0 <= row["mean_error"] <= row["worst_class_error"] <= 1.0


def test_post_solve_steps_leave_the_dense_views_unbuilt(monkeypatch):
    scaled_seen, families = [], []

    def spy(build):
        def built(source, *args):
            family = build(source, *args)
            scaled_seen.append(source)
            families.append(family)
            return family
        return built

    monkeypatch.setattr(laplacian, "robust_markov", spy(laplacian.robust_markov))
    monkeypatch.setattr(laplacian, "traditional_markov", spy(laplacian.traditional_markov))
    harness.laplacian_errors(300, 0.1, "varying_ball", seed=0)
    res = harness.poisson_noise_experiment(
        n=120, m=400, seed=2, cluster_depth_ranges=((400.0, 800.0), (2000.0, 4000.0)))
    rows = harness.transition_errors(res["affinity"], res["scaled"], res["qhat"],
                                     res["counts"].labels, res["epsilon"])
    assert len(rows) == 6 and len(families) == 8
    for family in families:
        assert "markov" not in vars(family)
    for source in scaled_seen:
        assert "w" not in vars(source) and "log_w" not in vars(source)
