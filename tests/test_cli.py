import csv

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse

from dskernel import cli, counts, density, harness, inference


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    points = root / "points.csv"
    sidecar = root / "sidecar.csv"
    code = run(["simulate", "--n", "250", "--m", "120", "--noise", "varying_ball",
                "--seed", "3", "--out", str(points), "--sidecar", str(sidecar)])
    assert code == 0
    return points, sidecar


def test_simulate_outputs(simulated):
    points, sidecar = simulated
    data = np.loadtxt(points, delimiter=",")
    assert data.shape == (250, 120)
    with open(sidecar) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 250
    assert float(rows[0]["true_density"]) > 0


def test_simulate_writes_the_circle_pipeline_points(simulated):
    points, _ = simulated
    pipe = harness.circle_pipeline(250, 120, 0.1, "varying_ball", seed=3)
    assert np.array_equal(np.loadtxt(points, delimiter=","), pipe.noise.noisy_points)


def test_scale_writes_log_d_and_residuals(simulated, tmp_path):
    points, _ = simulated
    out = tmp_path / "logd.csv"
    res = tmp_path / "residuals.csv"
    code = run(["scale", "--input", str(points), "--epsilon", "0.1",
                "--out", str(out), "--residuals-out", str(res)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 250
    assert float(rows[0]["residual"]) <= 1e-9
    with open(res) as fh:
        hist = list(csv.DictReader(fh))
    assert float(hist[-1]["residual"]) <= 1e-9


def test_density_with_sidecar_errors(simulated, tmp_path):
    points, sidecar = simulated
    out = tmp_path / "density.csv"
    code = run(["density", "--input", str(points), "--epsilon", "0.1",
                "--s", "2", "--dim", "1", "--sidecar", str(sidecar),
                "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    errs = np.array([float(r["abs_error"]) for r in rows])
    assert errs.max() < 0.5  # small sample, loose sanity bound


def test_density_accepts_limit_exponent(simulated, tmp_path):
    points, _ = simulated
    out = tmp_path / "density_limit.csv"
    code = run(["density", "--input", str(points), "--epsilon", "0.1",
                "--s", "limit", "--dim", "1", "--out", str(out)])
    assert code == 0


def test_denoise_outputs_and_distances(simulated, tmp_path):
    points, sidecar = simulated
    out = tmp_path / "denoise.csv"
    dists = tmp_path / "dists.csv"
    code = run(["denoise", "--input", str(points), "--epsilon", "0.1",
                "--dim", "1", "--sidecar", str(sidecar), "--out", str(out),
                "--dists-out", str(dists)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    est = np.array([float(r["noise_sq_hat"]) for r in rows])
    true = np.array([float(r["true_noise_sq_if_known"]) for r in rows])
    assert np.corrcoef(est, true)[0, 1] > 0.9
    d = np.loadtxt(dists, delimiter=",")
    assert d.shape == (250, 250)


def test_denoise_debias_subtracts_half_the_distance_bias(simulated, tmp_path):
    points, _ = simulated
    nhat = {}
    for name, flags in (("plain", []), ("debiased", ["--debias"])):
        out = tmp_path / f"{name}.csv"
        code = run(["denoise", "--input", str(points), "--epsilon", "0.1", "--dim", "1",
                    "--out", str(out)] + flags)
        assert code == 0
        with open(out) as fh:
            nhat[name] = np.array([float(r["noise_sq_hat"]) for r in csv.DictReader(fh)])
    shift = nhat["plain"] - nhat["debiased"]
    np.testing.assert_allclose(shift, inference.distance_bias(0.1, 1, 2.0) / 2.0,
                               rtol=0, atol=1e-12)


def test_laplacian_sweep(tmp_path):
    out = tmp_path / "lap.csv"
    code = run(["laplacian", "--n", "300", "--epsilon", "0.1", "--epsilon", "0.2",
                "--alpha", "1.0", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # two epsilons x both families
    assert {r["family"] for r in rows} == {"robust", "traditional"}


@pytest.fixture
def labelled_counts(tmp_path):
    cm = counts.synth_poisson_counts(
        80, 300, seed=5, cluster_depth_ranges=((400.0, 800.0), (2000.0, 4000.0)))
    mtx = tmp_path / "counts.mtx"
    scipy.io.mmwrite(str(mtx), sparse.coo_matrix(cm.entries))
    labels_path = tmp_path / "labels.csv"
    labels_path.write_text("\n".join(str(c) for c in cm.labels) + "\n")
    return mtx, labels_path


def test_scrna_pipeline(labelled_counts, tmp_path):
    mtx, labels_path = labelled_counts
    out = tmp_path / "scrna.csv"
    trans = tmp_path / "transitions.csv"
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--out", str(out),
                "--transitions-out", str(trans)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 80
    est = np.array([float(r["noise_sq_hat"]) for r in rows])
    inv = np.array([float(r["inv_count"]) for r in rows])
    assert np.corrcoef(est, inv)[0, 1] > 0.9
    with open(trans) as fh:
        trows = list(csv.DictReader(fh))
    assert len(trows) == 6  # three alphas x both families


def test_scrna_transitions_use_the_exponent(labelled_counts, tmp_path):
    mtx, labels_path = labelled_counts
    tables = {}
    for s in ("2", "limit"):
        trans = tmp_path / f"transitions-{s}.csv"
        code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                    "--epsilon", "0.0002", "--s", s, "--out", str(tmp_path / "scrna.csv"),
                    "--transitions-out", str(trans)])
        assert code == 0
        with open(trans) as fh:
            tables[s] = list(csv.DictReader(fh))
    for fam, same in (("robust", False), ("traditional", True)):
        rows_2, rows_limit = ([r for r in tables[s] if r["family"] == fam]
                              for s in ("2", "limit"))
        assert len(rows_2) == 3
        assert (rows_2 == rows_limit) is same


def test_scrna_computes_the_ds_kde_once(labelled_counts, tmp_path, monkeypatch):
    # the noise estimates and the transition table share one DS-KDE
    exponents = []
    ds_kde = density.ds_kde

    def counted(w, s, *args, **kwargs):
        exponents.append(s)
        return ds_kde(w, s, *args, **kwargs)

    monkeypatch.setattr(density, "ds_kde", counted)
    mtx, labels_path = labelled_counts
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--s", "limit", "--out", str(tmp_path / "scrna.csv"),
                "--transitions-out", str(tmp_path / "transitions.csv")])
    assert code == 0
    assert exponents == [density.S_LIMIT]


def test_scrna_warns_about_rejected_rows(tmp_path):
    cm = counts.synth_poisson_counts(40, 200, seed=5)
    entries = sparse.vstack([cm.entries, sparse.csr_matrix((1, 200))])  # last row all zero
    mtx = tmp_path / "counts.mtx"
    scipy.io.mmwrite(str(mtx), sparse.coo_matrix(entries))
    with pytest.warns(UserWarning, match=r"rejected zero-total rows: \[40\]"):
        code = run(["scrna", "--input", str(mtx), "--epsilon", "0.0002",
                    "--out", str(tmp_path / "scrna.csv")])
    assert code == 0


def test_bench_subcommand(tmp_path):
    out = tmp_path / "fig3.csv"
    code = run(["bench", "fig3", "--sweep", "60", "90", "--repeats", "1",
                "--noise", "none", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# experiment=fig3")


@pytest.mark.parametrize("figure,sweep", [("fig3", "60"), ("fig5", "0.4")])
def test_all_exponent_figures_do_not_record_s(tmp_path, figure, sweep):
    # fig3 and fig5 compare s = 0.5, 2 and the limit whatever --s says
    files = []
    for s in ("2", "limit"):
        out = tmp_path / f"{figure}-{s}.csv"
        code = run(["bench", figure, "--sweep", sweep, "--repeats", "1",
                    "--noise", "none", "--s", s, "--out", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    meta = files[0].decode().splitlines()[0]
    assert "s" not in {item.split("=")[0] for item in meta[2:].split(", ")}


def test_missing_input_is_a_one_line_error(tmp_path, capsys):
    code = run(["scale", "--input", str(tmp_path / "nope.csv"),
                "--epsilon", "0.1", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_bad_epsilon_is_reported(simulated, tmp_path, capsys):
    points, _ = simulated
    code = run(["scale", "--input", str(points), "--epsilon", "-1",
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_with_two():
    with pytest.raises(SystemExit) as exc:
        run(["scale"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("text, where", [("1,2\n3,x\n", "line 2: column 2"),
                                         ("1,2\n3,4\nnan,5\n", "line 3: column 1")])
def test_malformed_points_csv_is_a_one_line_error(tmp_path, capsys, text, where):
    points = tmp_path / "bad.csv"
    points.write_text(text)
    code = run(["scale", "--input", str(points), "--epsilon", "0.1",
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, name, text, where", [
    ("scale", "bad.csv", b"1,2\n3,\xff\n", "line 2"),
    ("scrna", "bad.mtx", b"%%MatrixMarket matrix coordinate integer general\n"
                         b"2 2 1\n1 1 \xff\n", "line 3"),
])
def test_non_utf8_input_is_a_one_line_error(tmp_path, capsys, command, name, text, where):
    path = tmp_path / name
    path.write_bytes(text)
    code = run([command, "--input", str(path), "--epsilon", "0.1",
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: not utf-8 text")
    assert len(err.strip().splitlines()) == 1
