import numpy as np
import pytest
from scipy import stats

from dskernel import cli, counts, density, harness, kernel, scaling
from dskernel.errors import ConvergenceError, ParameterError
from oracles import record_calls, small_counts_experiment, write_counts


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
    with pytest.raises(ConvergenceError, match=r"^scaling stopped at residual \S+ after 200 "):
        harness.circle_pipeline(300, 300, 2e-4, max_iter=200)


def test_experiment_config_validation():
    with pytest.raises(ParameterError):
        harness.ExperimentConfig(experiment="fig99")
    with pytest.raises(ParameterError):
        harness.ExperimentConfig(experiment="fig3", repeats=0)
    with pytest.raises(ParameterError, match="repeats must be an integer"):
        harness.ExperimentConfig(experiment="fig3", repeats=2.5, sweep=[50])
    # a seed numpy's SeedSequence would refuse only once the first sweep point runs
    for bad in (-1, 2.5, 3.0, "7"):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            harness.ExperimentConfig(experiment="fig3", seed=bad)
    with pytest.raises(ParameterError):
        harness.ExperimentConfig(experiment="fig3", sweep=[100, 50])
    # a sweep or sweep parameter that the figure would not read
    for kwargs, message in [
            ({"experiment": "fig1", "sweep": [0.1]}, "fig1 takes no sweep"),
            ({"experiment": "fig4", "sweep": [0.1]}, "fig4 takes no sweep"),
            ({"experiment": "fig6", "sweep": [0.1]}, "fig6 takes no sweep"),
            ({"experiment": "fig8-synthetic", "sweep": [0.1]}, "fig8-synthetic takes no"),
            ({"experiment": "fig3", "sweep_param": "epsilon"}, "fig3 takes no sweep param"),
            ({"experiment": "fig5", "sweep_param": "n"}, "fig5 takes no sweep param"),
            ({"experiment": "fig7", "sweep_param": "m"}, "fig7 sweeps epsilon or n, not 'm'"),
            ({"experiment": "fig3", "sweep": [0.05, 0.1]}, "whole numbers"),
            ({"experiment": "fig7", "sweep": [60.5], "sweep_param": "n"}, "whole numbers"),
            ({"experiment": "fig5", "sweep": [0.1, np.inf]}, "finite"),
            # an empty sweep would run the default one under a meta line "sweep="
            ({"experiment": "fig3", "sweep": []}, "a sweep needs at least one value"),
            # settings that would fail every sweep point, checked before any data
            ({"experiment": "fig3", "epsilon": 0.0}, "epsilon must be positive and finite"),
            ({"experiment": "fig1", "epsilon": np.nan}, "epsilon must be positive and finite"),
            ({"experiment": "fig3", "noise": "bogus"}, "unknown noise model 'bogus'"),
            ({"experiment": "fig7", "s": 1.0, "noise": "none"}, "s must be positive, finite")]:
        with pytest.raises(ParameterError, match=message):
            harness.ExperimentConfig(**kwargs)


def test_a_bug_at_a_sweep_point_propagates(monkeypatch):
    # only parameter and convergence failures become diagnostic rows
    def broken(*args, **kwargs):
        raise TypeError("a bug")

    monkeypatch.setattr(harness, "circle_pipeline", broken)
    config = harness.ExperimentConfig(experiment="fig3", sweep=[60], repeats=1, noise="none")
    with pytest.raises(TypeError, match="a bug"):
        harness.run_experiment(config)


@pytest.mark.parametrize("n", [5, 7])
def test_two_circles_need_an_even_n(n):
    with pytest.raises(ParameterError, match=f"even n, got {n}"):
        harness.circle_dataset(n, 10, two_circles=True)
    sample, _ = harness.circle_dataset(n + 1, 10, two_circles=True)
    assert sample.clean_points.shape == (n + 1, 10)


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


def test_fig6_experiment_shape(monkeypatch, tmp_path):
    # one noisy D, solved and read by the kNN baseline, and one clean D
    calls = record_calls(monkeypatch, harness.circle_dataset, kernel.pairwise_sq_dists)
    out = tmp_path / "fig6.csv"
    config = harness.ExperimentConfig(experiment="fig6", seed=0, out=str(out))
    header, rows = harness.run_experiment(config)
    assert [len(calls["circle_dataset"]), len(calls["pairwise_sq_dists"])] == [1, 2]
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
    [errs] = harness.laplacian_errors(500, [0.2], "none", seed=0)
    assert set(errs) == {"robust", "traditional"}
    assert 0.0 < errs["robust"] < 1.5
    assert 0.0 < errs["traditional"] < 1.5


def test_laplacian_sweep_draws_one_circle_and_one_distance_matrix(monkeypatch, tmp_path):
    calls = record_calls(monkeypatch, harness.circle_dataset, kernel.pairwise_sq_dists)
    out = tmp_path / "lap.csv"
    assert cli.main(["laplacian", "--n", "60", "--epsilon", "0.1", "--epsilon", "0.2",
                     "--epsilon", "0.4", "--out", str(out)]) == 0
    assert [len(calls["circle_dataset"]), len(calls["pairwise_sq_dists"])] == [1, 1]
    assert len(out.read_text().splitlines()) == 1 + 3 * 2


def test_count_pipeline_computes_one_distance_matrix(monkeypatch):
    # the median rule and the kernel read the same D
    calls = record_calls(monkeypatch, kernel.pairwise_sq_dists)
    res = small_counts_experiment()
    assert len(calls["pairwise_sq_dists"]) == 1
    y, _ = counts.normalize_counts(res["counts"])
    assert res["scaled"].epsilon == harness.median_sq_dist_epsilon(y)
    # the input, its solve and the estimates; the normalized counts are not kept
    assert list(res) == ["counts", "predicted_noise", "solution", "scaled", "qhat",
                         "noise_sq_hat"]


def test_median_sq_dist_epsilon():
    pts = np.array([[0.0], [1.0], [2.0]])
    # off-diagonal squared distances are 1, 1, 4 -> median 1
    assert harness.median_sq_dist_epsilon(pts) == 0.0625


def test_count_pipeline_tracks_inverse_depth():
    res = harness.count_pipeline(counts.synth_poisson_counts(200, 1000, seed=1))
    r = stats.pearsonr(res["noise_sq_hat"], res["predicted_noise"])[0]
    assert r > 0.9
    assert res["solution"].converged


def test_transition_errors_structure():
    res = small_counts_experiment()
    rows = harness.transition_errors(res["scaled"], res["qhat"], res["counts"].labels)
    # three alphas x two families, at the solve's epsilon
    assert [(row["alpha"], row["family"]) for row in rows] == [
        (alpha, fam) for alpha in (0.0, 0.5, 1.0) for fam in ("robust", "traditional")]
    for row in rows:
        assert row["epsilon"] == res["scaled"].epsilon
        assert 0.0 <= row["mean_error"] <= row["worst_class_error"] <= 1.0


def test_post_solve_steps_leave_the_dense_views_unbuilt(monkeypatch, tmp_path):
    # every step after the solve reads W through its operator; the dense W
    # that ScaledMatrix.w builds is left to the tests and the benchmark checks
    def refuse(scaled):
        raise AssertionError("a pipeline step built the dense W")

    monkeypatch.setattr(scaling.ScaledMatrix, "w", property(refuse))
    harness.laplacian_errors(300, [0.1], "varying_ball", seed=0)
    res = small_counts_experiment()
    rows = harness.transition_errors(res["scaled"], res["qhat"], res["counts"].labels)
    assert len(rows) == 6
    sample, noise = harness.circle_dataset(200, 100, "varying_ball", seed=1)
    np.savetxt(tmp_path / "points.csv", noise.noisy_points, delimiter=",")
    assert cli.main(["denoise", "--input", str(tmp_path / "points.csv"), "--epsilon", "0.1",
                     "--out", str(tmp_path / "est.csv")]) == 0
    mtx, labels = write_counts(tmp_path, res["counts"].entries, res["counts"].labels)
    assert cli.main(["scrna", "--input", str(mtx), "--labels", str(labels),
                     "--epsilon", str(res["scaled"].epsilon), "--out", str(tmp_path / "scrna.csv"),
                     "--transitions-out", str(tmp_path / "transitions.csv")]) == 0
