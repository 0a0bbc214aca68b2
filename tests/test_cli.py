import csv
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse

import dskernel
from dskernel import cli, counts, density, harness, inference
from oracles import record_calls, write_counts


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


def test_denoise_outputs_and_distances(simulated, tmp_path, capsys):
    points, sidecar = simulated
    out = tmp_path / "denoise.csv"
    dists = tmp_path / "dists.csv"
    code = run(["denoise", "--input", str(points), "--epsilon", "0.1",
                "--dim", "1", "--sidecar", str(sidecar), "--out", str(out),
                "--dists-out", str(dists)])
    assert code == 0
    assert re.fullmatch(r"note: \d+ corrected distances are negative \(expected after bias "
                        r"subtraction; ranking is unaffected\)\n", capsys.readouterr().err)
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
        80, 300, seed=5, cluster_depth_ranges=harness.FIG8_DEPTH_RANGES)
    return write_counts(tmp_path, cm.entries, cm.labels)


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
    calls = record_calls(monkeypatch, density.ds_kde)["ds_kde"]
    mtx, labels_path = labelled_counts
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--s", "limit", "--out", str(tmp_path / "scrna.csv"),
                "--transitions-out", str(tmp_path / "transitions.csv")])
    assert code == 0
    assert [call["s"] for call in calls] == [density.S_LIMIT]


def test_scrna_subsample_writes_the_drawn_rows(labelled_counts, tmp_path):
    mtx, labels_path = labelled_counts
    out = tmp_path / "scrna.csv"
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--subsample", "25", "--seed", "4", "--out", str(out)])
    assert code == 0
    cm = counts.ingest_counts(mtx, labels=counts.read_labels(labels_path))
    drawn = counts.subsample_per_class(cm, 25, seed=4)
    assert len(drawn.totals) == 50  # 25 of each class of 40
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["total_count"]) for r in rows] == drawn.totals.tolist()
    assert [r["label"] for r in rows] == drawn.labels.tolist()


@pytest.mark.parametrize("fmt, text", [
    ("matrix-market", "%%MatrixMarket matrix coordinate real general\n4 3 7\n1 1 2.5\n"
                      "1 2 3.2\n2 2 1.4\n2 3 3.5\n3 1 1.25\n3 3 1.0\n4 1 4.0\n"),
    ("csv", "2.5,3.2,0\n0,1.4,3.5\n1.25,0,1.0\n4.0,0,0\n")])
def test_scrna_writes_real_totals_in_full(tmp_path, fmt, text):
    # a whole total is written as an integer, as for integer counts
    counts_path, out = tmp_path / "counts.txt", tmp_path / "scrna.csv"
    counts_path.write_text(text)
    assert run(["scrna", "--input", str(counts_path), "--format", fmt, "--epsilon", "0.1",
                "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["total_count"] for r in rows] == ["5.7", "4.9", "2.25", "4"]
    assert [float(r["inv_count"]) for r in rows] == [1 / 5.7, 1 / 4.9, 1 / 2.25, 1 / 4]


def test_scrna_warns_about_rejected_rows(tmp_path, capsys):
    cm = counts.synth_poisson_counts(40, 200, seed=5)
    # the last row is all zero
    mtx, _ = write_counts(tmp_path, sparse.vstack([cm.entries, sparse.csr_matrix((1, 200))]))
    code = run(["scrna", "--input", str(mtx), "--epsilon", "0.0002",
                "--out", str(tmp_path / "scrna.csv")])
    assert code == 0
    assert capsys.readouterr().err == "note: rejected zero-total rows: [40]\n"


@pytest.mark.parametrize("count, extra", [(50, []), (70, []), (50, ["--subsample", "0"])])
def test_scrna_labels_must_match_the_cells(tmp_path, capsys, count, extra):
    cm = counts.synth_poisson_counts(60, 200, seed=0)
    mtx, labels_path = write_counts(tmp_path, cm.entries, np.resize(cm.labels, count))
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--out", str(tmp_path / "scrna.csv"), *extra])
    assert code == 1
    assert one_line_error(capsys) == f"error: {count} labels for 60 rows\n"


def test_scrna_transitions_need_labels_before_any_input_is_read(tmp_path, capsys):
    out = tmp_path / "scrna.csv"
    code = run(["scrna", "--input", str(tmp_path / "missing.mtx"), "--epsilon", "0.0002",
                "--out", str(out), "--transitions-out", str(tmp_path / "transitions.csv")])
    assert code == 1
    assert one_line_error(capsys) == "error: --transitions-out requires --labels\n"
    assert not any(tmp_path.iterdir())


def test_scrna_non_utf8_labels_are_a_one_line_error(labelled_counts, tmp_path, capsys):
    mtx, _ = labelled_counts
    labels_path = tmp_path / "labels.csv"
    labels_path.write_bytes(b"0\n1\n\xff\n")
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--out", str(tmp_path / "scrna.csv")])
    assert code == 1
    assert one_line_error(capsys).startswith("error: line 3: not utf-8 text")


@pytest.mark.parametrize("rows, line", [
    (lambda labels: [f"{c},x" for c in labels[:-1]] + [str(labels[-1])], 1),  # ragged
    (lambda labels: [f"{c},x" for c in labels], 1),  # two columns
    (lambda labels: ["# labels", ""] + [str(c) for c in labels[:4]] + ["0,x"]
     + [str(c) for c in labels[5:]], 7),
], ids=["ragged", "two-columns", "one-row"])
def test_scrna_labels_need_one_field_per_row(labelled_counts, tmp_path, capsys, rows, line):
    mtx, labels_path = labelled_counts
    labels = labels_path.read_text().split()
    labels_path.write_text("\n".join(rows(labels)) + "\n")
    code = run(["scrna", "--input", str(mtx), "--labels", str(labels_path),
                "--epsilon", "0.0002", "--out", str(tmp_path / "scrna.csv"),
                "--transitions-out", str(tmp_path / "transitions.csv")])
    assert code == 1
    assert one_line_error(capsys) == f"error: line {line}: expected one label, found 2 fields\n"


def read_bench_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# experiment=")
    return list(csv.DictReader(lines[1:]))


@pytest.mark.parametrize("figure, flags, header, n_rows", [
    ("fig1", ["--noise", "none"],
     ["noise", "index", "angle", "true_density", "kde", "dskde_s2"], 2000),
    ("fig4", [], ["index", "radius", "noisy_sq_norm", "noise_sq_hat", "true_noise_sq",
                  "signal_sq_hat", "true_signal_sq"], 1000),
    ("fig7", ["--sweep-param", "n", "--sweep", "150", "200", "--repeats", "1",
              "--noise", "none"],
     ["n", "noise", "family", "mean_max_error", "std_max_error", "status"], 4),
])
def test_bench_figure_tables(tmp_path, figure, flags, header, n_rows):
    out = tmp_path / f"{figure}.csv"
    assert run(["bench", figure, *flags, "--out", str(out)]) == 0
    rows = read_bench_table(out)
    assert list(rows[0]) == header
    assert len(rows) == n_rows
    values = [float(v) for row in rows for k, v in row.items()
              if k not in ("noise", "family", "status")]
    assert np.all(np.isfinite(values))
    assert all(row.get("status", "ok") == "ok" for row in rows)


def one_iteration_solves(monkeypatch):
    """Give every harness solve a budget of one iteration, which no solver
    meets at the default tolerance; the commands without ``--max-iter`` reach
    their failure path through it."""
    solve = harness.sinkhorn_symmetric
    monkeypatch.setattr(harness, "sinkhorn_symmetric",
                        lambda affinity, tol, max_iter: solve(affinity, tol=tol, max_iter=1))


def test_bench_records_a_failed_sweep_point(tmp_path, monkeypatch):
    one_iteration_solves(monkeypatch)
    out = tmp_path / "fig3.csv"
    assert run(["bench", "fig3", "--sweep", "4", "--repeats", "1", "--noise", "none",
                "--out", str(out)]) == 0
    rows = read_bench_table(out)
    assert len(rows) == 4  # the KDE and three DS-KDE exponents
    for row in rows:
        assert re.fullmatch(r"failed: scaling stopped at residual \S+ after 1 iterations",
                            row["status"])
        assert row["mean_max_error"] == row["std_max_error"] == ""


@pytest.mark.parametrize("argv, message", [
    (["bench", "fig3", "--epsilon", "0", "--sweep", "50", "--repeats", "1"],
     "epsilon must be positive and finite, got 0.0"),
    (["laplacian", "--alpha", "1.5", "--epsilon", "0.1"], "alpha must lie in [0, 1]"),
    (["laplacian", "--epsilon", "0.1", "--epsilon", "0"],
     "epsilon must be positive and finite, got 0.0"),
], ids=["bench-epsilon", "laplacian-alpha", "laplacian-sweep-epsilon"])
def test_settings_are_checked_before_any_data_is_drawn(tmp_path, capsys, monkeypatch, argv,
                                                       message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the circle was generated")

    monkeypatch.setattr(harness, "circle_dataset", unreachable)
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 1
    assert one_line_error(capsys) == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("scale", ["--epsilon", "0.1", "--max-iter", "1"]),
    ("density", ["--epsilon", "0.1", "--dim", "1", "--max-iter", "1"]),
    ("denoise", ["--epsilon", "0.1", "--max-iter", "1"]),
    ("scrna", ["--epsilon", "0.0002", "--max-iter", "1"]),
    # laplacian has no --max-iter: its solves get the same budget in-process
    ("laplacian", ["--n", "4", "--epsilon", "0.1"]),
], ids=["scale", "density", "denoise", "scrna", "laplacian"])
def test_unconverged_solve_is_a_one_line_error(simulated, tmp_path, capsys, monkeypatch,
                                               command, flags):
    # every solving command refuses an unconverged solve with one message
    if command == "scrna":
        mtx, _ = write_counts(tmp_path, counts.synth_poisson_counts(40, 100, seed=5).entries)
        flags = ["--input", str(mtx), *flags]
    elif command == "laplacian":
        one_iteration_solves(monkeypatch)
    else:
        flags = ["--input", str(simulated[0]), *flags]
    assert run([command, *flags, "--out", str(tmp_path / "o.csv")]) == 1
    assert re.fullmatch(r"error: scaling stopped at residual \S+ after 1 iterations\n",
                        one_line_error(capsys))


@pytest.mark.filterwarnings("error")
def test_kernel_without_finite_entries_is_a_one_line_error(simulated, tmp_path, capsys):
    # eps = 1e-310 overflows every -D/eps to -inf, an exact zero of K, with no
    # numpy warning on the way
    points, _ = simulated
    code = run(["scale", "--input", str(points), "--epsilon", "1e-310",
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert one_line_error(capsys) == "error: row 0 of the matrix is zero\n"


def test_bench_subcommand(tmp_path):
    out = tmp_path / "fig3.csv"
    code = run(["bench", "fig3", "--sweep", "60", "90", "--repeats", "1",
                "--noise", "none", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# experiment=fig3")


def test_bench_meta_line_records_the_package_version(tmp_path):
    out = tmp_path / "fig3.csv"
    assert run(["bench", "fig3", "--sweep", "60", "--repeats", "1",
                "--noise", "none", "--out", str(out)]) == 0
    meta = out.read_text().splitlines()[0]
    items = dict(item.split("=", 1) for item in meta[2:].split(", "))
    assert items["version"] == dskernel.__version__


def test_project_version_is_the_package_version():
    # pyproject.toml is read with a regex: tomllib is new in Python 3.11, and
    # requires-python allows 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [dskernel.__version__]


@pytest.mark.parametrize("figure, flags, setting, values", [
    # fig3 and fig5 compare s = 0.5, 2 and the limit whatever --s says
    ("fig3", ["--sweep", "60", "--repeats", "1", "--noise", "none"], "s", ("2", "limit")),
    ("fig5", ["--sweep", "0.4", "--repeats", "1", "--noise", "none"], "s", ("2", "limit")),
    # a sweep over epsilon sets every epsilon itself
    ("fig5", ["--sweep", "0.4", "--repeats", "1", "--noise", "none"], "epsilon", ("0.1", "0.5")),
    ("fig7", ["--sweep", "0.4", "--repeats", "1", "--noise", "none"], "epsilon", ("0.1", "0.5")),
    # these run once, and fig8 takes the median-rule epsilon
    ("fig1", ["--noise", "none"], "repeats", ("1", "10")),
    ("fig4", [], "repeats", ("1", "10")),
    ("fig6", [], "repeats", ("1", "10")),
    ("fig8-synthetic", [], "repeats", ("1", "10")),
    ("fig8-synthetic", [], "epsilon", ("0.1", "0.5")),
], ids=["fig3-s", "fig5-s", "fig5-epsilon", "fig7-epsilon", "fig1-repeats", "fig4-repeats",
        "fig6-repeats", "fig8-repeats", "fig8-epsilon"])
def test_bench_meta_line_leaves_out_the_settings_a_figure_ignores(
        tmp_path, figure, flags, setting, values):
    files = []
    for value in values:
        out = tmp_path / f"{figure}-{value}.csv"
        assert run(["bench", figure, *flags, f"--{setting}", value, "--out", str(out)]) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]
    meta = files[0].decode().splitlines()[0]
    assert setting not in {item.split("=")[0] for item in meta[2:].split(", ")}


def test_missing_input_is_a_one_line_error(tmp_path, capsys):
    code = run(["scale", "--input", str(tmp_path / "nope.csv"),
                "--epsilon", "0.1", "--out", str(tmp_path / "o.csv")])
    assert code == 1
    one_line_error(capsys)


def one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1
    return err


@pytest.mark.parametrize("flags, name", [(["--max-iter", "0"], "max_iter"),
                                         (["--max-iter", "-5"], "max_iter"),
                                         (["--tol", "-1"], "tol"),
                                         (["--tol", "inf"], "tol")]
                         + [(["--epsilon", bad], "epsilon must be positive and finite")
                            for bad in ("-1", "inf", "nan")])
def test_bad_solver_parameters_are_one_line_errors(simulated, tmp_path, capsys, flags, name):
    points, _ = simulated
    # in the epsilon rows, the second --epsilon replaces the first
    code = run(["scale", "--input", str(points), "--epsilon", "0.05",
                "--out", str(tmp_path / "o.csv"), *flags])
    assert code == 1
    assert name in one_line_error(capsys)


@pytest.mark.parametrize("command, column", [("density", "true_density"),
                                             ("denoise", "true_noise_sq")])
@pytest.mark.parametrize("fault, where", [("column", "error: line 1: no column"),
                                          ("value", "error: line 4: "),
                                          ("rows", "error: sidecar has 39 rows for 250 points")],
                         ids=["column", "value", "rows"])
def test_bad_sidecar_is_a_one_line_error(simulated, tmp_path, capsys, command, column,
                                         fault, where):
    points, sidecar = simulated
    lines = sidecar.read_text().splitlines()
    header = lines[0].split(",")
    if fault == "column":
        lines[0] = ",".join(h + "_x" if h == column else h for h in header)
    elif fault == "value":
        fields = lines[3].split(",")
        fields[header.index(column)] = "abc"
        lines[3] = ",".join(fields)
    else:
        lines = lines[:40]
    bad = tmp_path / "sidecar.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = run([command, "--input", str(points), "--epsilon", "0.1", "--dim", "1",
                "--sidecar", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = one_line_error(capsys)
    assert err.startswith(where)
    if fault == "value":
        assert "'abc'" in err


def test_usage_error_exits_with_two():
    with pytest.raises(SystemExit) as exc:
        run(["scale"])  # missing required arguments
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--seed", "-1", "--out", "p.csv", "--sidecar", "s.csv"], "--seed"),
    (["bench", "fig3", "--seed", "-1", "--out", "f.csv"], "--seed"),
    (["laplacian", "--epsilon", "0.1", "--seed", "-3", "--out", "l.csv"], "--seed"),
    (["scrna", "--input", "c.mtx", "--epsilon", "0.1", "--subsample", "-1",
      "--out", "n.csv"], "--subsample"),
    (["scrna", "--input", "c.mtx", "--epsilon", "0.1", "--seed", "-1", "--subsample", "5",
      "--out", "n.csv"], "--seed")])
def test_negative_seed_or_subsample_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be 0 or more, got -" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["density", "--input", "p.csv", "--epsilon", "0.1", "--dim", "1", "--out", "q.csv"],
    ["denoise", "--input", "p.csv", "--epsilon", "0.1", "--out", "n.csv"],
    ["laplacian", "--epsilon", "0.1", "--out", "l.csv"],
    ["scrna", "--input", "c.mtx", "--epsilon", "0.1", "--out", "n.csv"],
    ["bench", "fig7", "--sweep", "0.1", "--repeats", "1", "--noise", "none", "--out", "f.csv"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("s", ["nan", "inf", "1", "0", "-2", "two"])
def test_bad_exponent_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, s):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--s", s])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --s: must be limit or a finite s > 0 other than 1, got '{s}'" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_debias_needs_a_positive_dim(simulated, tmp_path, capsys, dim):
    # a --dim that is given is checked whether or not --debias reads it
    points, _ = simulated
    out = tmp_path / "o.csv"
    for flags in (["--debias"], []):
        code = run(["denoise", "--input", str(points), "--epsilon", "0.1", *flags,
                    "--dim", dim, "--out", str(out)])
        assert code == 1
        assert f"intrinsic dimension >= 1, got {dim}" in one_line_error(capsys)
        assert not out.exists()


@pytest.mark.parametrize("text, where", [("1,2\n3,x\n", "line 2: column 2"),
                                         ("1,2\n3,4\nnan,5\n", "line 3: column 1")])
def test_malformed_points_csv_is_a_one_line_error(tmp_path, capsys, text, where):
    points = tmp_path / "bad.csv"
    points.write_text(text)
    code = run(["scale", "--input", str(points), "--epsilon", "0.1",
                "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert one_line_error(capsys).startswith(f"error: {where}")


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
    assert one_line_error(capsys).startswith(f"error: {where}: not utf-8 text")
