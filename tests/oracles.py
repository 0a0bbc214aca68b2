"""The tests' shared builders, reference implementations and call recorder.

The references are derived apart from the library code, so it is checked
against a separate computation rather than against itself: dense linear
algebra where it holds, and the dense log-domain formulas where kernel
entries leave the range of exp. The builders state each small dataset of
the suite once.
"""

import importlib
import inspect
import io
import pkgutil
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import scipy.io
from scipy import sparse
from scipy.special import logsumexp

import dskernel
from dskernel import cli, counts, density, geometry, harness, kernel, scaling


def clean_sample(n, seed=0, m=None):
    """``n`` points on the unit circle, their angles drawn with ``seed`` at
    ``geometry.CIRCLE_SIGMA_SQ``; with ``m``, embedded in R^m with ``seed + 1``."""
    sample = geometry.sample_circle(n, geometry.CIRCLE_SIGMA_SQ, seed=seed)
    if m is None:
        return sample
    return geometry.embed_orthogonal(sample, m, seed=seed + 1)


def clean_circle(n, epsilon, seed=0, m=None, tol=None):
    """``clean_sample(n, seed, m)`` and its Gaussian kernel at ``epsilon``, as a
    ``harness.PipelineResult``. With ``tol`` the kernel is also solved to it,
    else ``solution`` is None.
    """
    sample = clean_sample(n, seed, m)
    affinity = kernel.gaussian_kernel(kernel.pairwise_sq_dists(sample.clean_points), epsilon)
    solution = None if tol is None else scaling.sinkhorn_symmetric(affinity, tol=tol)
    return harness.PipelineResult(affinity, solution, sample)


def small_counts_experiment(**kwargs):
    """A new count pipeline of 120 cells and 400 genes at seed 2, in fig8's
    two depth clusters; ``kwargs`` go to ``harness.count_pipeline``."""
    cm = counts.synth_poisson_counts(120, 400, seed=2,
                                     cluster_depth_ranges=harness.FIG8_DEPTH_RANGES)
    return harness.count_pipeline(cm, **kwargs)


def write_counts(directory, entries, labels=None):
    """Write ``entries`` to ``directory/counts.mtx`` and ``labels``, one per
    line, to ``directory/labels.csv``; returns the two paths."""
    mtx, labels_path = directory / "counts.mtx", directory / "labels.csv"
    scipy.io.mmwrite(str(mtx), sparse.coo_matrix(entries))
    if labels is not None:
        labels_path.write_text("\n".join(str(c) for c in labels) + "\n")
    return mtx, labels_path


def record_calls(monkeypatch, *functions):
    """Wrap each function in every dskernel namespace that holds it, under any
    name, and record the arguments of each call made through a wrapper.

    Returns {function name: [one {parameter: argument} dict per call]}.
    """
    modules = [dskernel] + [importlib.import_module(f"dskernel.{info.name}")
                            for info in pkgutil.iter_modules(dskernel.__path__)]
    calls = {fn.__name__: [] for fn in functions}
    for fn in functions:
        def recorded(*args, fn=fn, signature=inspect.signature(fn), **kwargs):
            calls[fn.__name__].append(signature.bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)

        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, name, recorded)
    return calls


def log_w_of(scaled):
    """The dense log W of an assembled W, diagonal -inf."""
    return scaled.operator.weighted_log(scaled.log_d)


def dense_ds_kde(log_w, s):
    """The DS-KDE of a dense log W, by n x n log-sum-exps."""
    n = log_w.shape[0]
    if s == density.S_LIMIT:
        w = np.exp(log_w)
        entropy = -np.sum(w * np.where(np.isfinite(log_w), log_w, 0.0), axis=1)
        return np.exp(entropy) / (n - 1)
    return np.exp(-np.log(n - 1) + logsumexp(s * log_w, axis=1) / (1.0 - s))


def dense_robust(log_w, raw, alpha):
    """The robust Markov matrix of a dense log W and its raw DS-KDE."""
    if alpha == 0.5:
        return np.exp(log_w)
    log_q = np.log(raw)
    log_m = log_w - (alpha - 0.5) * (log_q[:, None] + log_q[None, :])
    log_m -= logsumexp(log_m, axis=1, keepdims=True)
    return np.exp(log_m)


def dense_traditional(log_k, alpha):
    """The traditional Markov matrix of a dense log K."""
    log_deg = logsumexp(log_k, axis=1)
    log_m = log_k - alpha * (log_deg[:, None] + log_deg[None, :])
    log_m -= logsumexp(log_m, axis=1, keepdims=True)
    return np.exp(log_m)


def dense_leave(markov, labels):
    """Mean and worst-class probability of leaving the class in one step."""
    same = labels[:, None] == labels[None, :]
    leave = np.where(same, 0.0, markov).sum(axis=1)
    return leave.mean(), max(leave[labels == c].mean() for c in np.unique(labels))


def newton_symmetric_scaling(kernel, targets=None, tol=1e-13, max_iter=200):
    """Damped Newton solve of the symmetric scaling equations on log d.

    Solves F_i(u) = log(sum_j K_ij exp(u_j)) + u_i - log(t_i) = 0 for small n
    by a guarded Newton iteration with step halving. Returns log d.
    """
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    t = np.ones(n) if targets is None else np.asarray(targets, dtype=float)
    u = np.zeros(n)

    def residual(u):
        return np.log(kernel @ np.exp(u)) + u - np.log(t)

    f = residual(u)
    for _ in range(max_iter):
        if np.abs(f).max() <= tol:
            return u
        row = kernel @ np.exp(u)
        # d F_i / d u_k = delta_ik + K_ik exp(u_k) / row_i
        jac = np.eye(n) + kernel * np.exp(u)[None, :] / row[:, None]
        step = np.linalg.solve(jac, f)
        scale = 1.0
        for _ in range(60):
            trial = u - scale * step
            f_trial = residual(trial)
            if np.abs(f_trial).max() < np.abs(f).max():
                u, f = trial, f_trial
                break
            scale /= 2.0
        else:
            raise RuntimeError("newton oracle failed to make progress")
    raise RuntimeError("newton oracle did not converge")


def pairwise_corrected_dists(points, nhat):
    """Corrected distances ||y_i - y_j||^2 - N_i - N_j from the pairwise
    squared distances, with a zero diagonal."""
    corrected = kernel.pairwise_sq_dists(np.asarray(points, dtype=float))
    # grouping the noise terms keeps the matrix exactly symmetric
    corrected -= nhat[:, None] + nhat[None, :]
    np.fill_diagonal(corrected, 0.0)
    return corrected


def naive_matrix_market(path):
    """Accumulating coordinate-format reader; returns a dense float array."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    header = lines[0].lower().split()
    symmetric = "symmetric" in header
    body = [ln for ln in lines[1:] if not ln.lstrip().startswith("%")]
    n_rows, n_cols, _ = (int(p) for p in body[0].split())
    dense = np.zeros((n_rows, n_cols))
    for ln in body[1:]:
        i, j, v = ln.split()
        i, j, v = int(i) - 1, int(j) - 1, float(v)
        dense[i, j] += v
        if symmetric and i != j:
            dense[j, i] += v
    return dense


# the golden set: committed outputs of a fixed set of CLI calls, stored as a
# fixed row subset of each file, with each command's stderr and each file's
# full row count in manifest.json
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# an estimate may move by this much of its column's largest |value|, which
# admits solver-tolerance drift (at most 5.8e-11 between tol 1e-9 and 1e-12)
# and no change of formula
GOLDEN_RTOL = 1e-8
# diagnostic columns and meta fields, held only to their solve's tolerance
GOLDEN_DIAGNOSTICS = {"residual": scaling.POINTS_SOLVE.tol,
                      "max_scaling_residual": harness.COUNTS_SOLVE.tol}
GOLDEN_SKIPPED = {"iterations"}


def run_golden_set(workdir):
    """Run the golden set's CLI calls with their outputs in ``workdir`` and
    its count file in ``workdir/inputs``; returns {command name: its stderr}."""
    path = lambda name: str(Path(workdir) / name)
    cm = counts.synth_poisson_counts(200, 1000, seed=0,
                                     cluster_depth_ranges=harness.FIG8_DEPTH_RANGES)
    inputs = Path(workdir) / "inputs"
    inputs.mkdir()
    mtx, labels = write_counts(inputs, cm.entries, cm.labels)
    count_eps = harness.median_sq_dist_epsilon(counts.normalize_counts(cm)[0])
    points = ["--input", path("points.csv"), "--epsilon", "0.1"]
    density_args = [*points, "--sidecar", path("sidecar.csv")]
    commands = {
        "simulate": ["simulate", "--n", "300", "--m", "50", "--noise", "varying_ball",
                     "--seed", "3", "--out", path("points.csv"),
                     "--sidecar", path("sidecar.csv")],
        "scale": ["scale", *points, "--out", path("scale.csv")],
        **{f"density_{tag}": ["density", *density_args, "--s", s, "--dim", dim,
                              "--out", path(f"density_{tag}.csv")]
           for tag, s, dim in [("s2", "2", "1"), ("limit", "limit", "1"),
                               ("s0.01", "0.01", "1"), ("s2_dim2", "2", "2")]},
        "denoise": ["denoise", *density_args, "--debias", "--dim", "1",
                    "--out", path("denoise.csv"), "--dists-out", path("dists.csv")],
        "scrna": ["scrna", "--input", str(mtx), "--labels", str(labels),
                  "--epsilon", repr(count_eps), "--out", path("scrna.csv"),
                  "--transitions-out", path("transitions.csv")],
        "fig8": ["bench", "fig8-synthetic", "--out", path("fig8.csv")],
    }
    notes = {}
    for name, argv in commands.items():
        with redirect_stderr(io.StringIO()) as err:
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"{name} exited with {status}: {err.getvalue()}")
        notes[name] = err.getvalue()
    return notes


def golden_subset(lines):
    """The lines of an output file that the golden set stores: any meta and
    header lines, then every 10th data row of a table (every 30th of the
    distance matrix, which has 300 columns), or all of a table of 30 rows or fewer."""
    head = 0
    while head < len(lines) and not _is_data(lines[head]):
        head += 1
    data = lines[head:]
    stride = 1 if len(data) <= 30 else 30 if len(data[0].split(",")) > 100 else 10
    return lines[:head] + data[::stride], len(data)


def _is_data(line):
    try:
        float(line.split(",")[0])
    except ValueError:
        return False
    return True


def _cells(lines):
    """(meta dict, header list or None, data rows as lists of cell text)."""
    meta = {}
    if lines and lines[0].startswith("# "):
        meta = dict(item.split("=", 1) for item in lines[0][2:].split(", "))
        lines = lines[1:]
    header = None if not lines or _is_data(lines[0]) else lines[0].split(",")
    rows = [line.split(",") for line in lines[header is not None:]]
    return meta, header, rows


def _as_float(text):
    """A float cell's value; None for text or an integer (an index, a count),
    which compare as text."""
    if text.lstrip("-").isdigit():
        return None
    try:
        return float(text)
    except ValueError:
        return None


def golden_changes(expected_lines, actual_lines):
    """Compare an output file with its stored subset.

    Returns (largest change of an estimate relative to its column's largest
    |value|, list of faults). Text, headers and meta keys must match exactly;
    a diagnostic must be within its tolerance; iteration counts are not read.
    """
    exp_meta, header, expected = _cells(expected_lines)
    act_meta, act_header, actual = _cells(actual_lines)
    faults = []
    if list(act_meta) != list(exp_meta):
        faults.append(f"meta keys {list(act_meta)} != {list(exp_meta)}")
    for key, value in act_meta.items():
        if key in GOLDEN_DIAGNOSTICS:
            if not float(value) <= GOLDEN_DIAGNOSTICS[key]:
                faults.append(f"meta {key}={value} above {GOLDEN_DIAGNOSTICS[key]}")
        elif value != exp_meta.get(key):
            faults.append(f"meta {key}={value}, expected {exp_meta.get(key)}")
    if act_header != header:
        faults.append(f"header {act_header} != {header}")
    if [len(row) for row in actual] != [len(row) for row in expected]:
        return float("inf"), faults + ["row or field counts differ"]
    largest = 0.0
    for col in range(len(expected[0]) if expected else 0):
        name = header[col] if header else col
        if name in GOLDEN_SKIPPED:
            continue
        column = [(row[col], act[col]) for row, act in zip(expected, actual)]
        if name in GOLDEN_DIAGNOSTICS:
            faults += [f"{name}={a} above {GOLDEN_DIAGNOSTICS[name]}"
                       for _, a in column if not float(a) <= GOLDEN_DIAGNOSTICS[name]]
            continue
        scale = max((abs(_as_float(e)) for e, _ in column if _as_float(e) is not None),
                    default=0.0)
        for e, a in column:
            value, got = _as_float(e), _as_float(a)
            if value is None or got is None:
                if a != e:
                    faults.append(f"{name}: {a!r}, expected {e!r}")
                continue
            change = abs(got - value) / (scale or 1.0)
            largest = max(largest, change)
            if not change <= GOLDEN_RTOL:
                faults.append(f"{name}: {a}, expected {e} (change {change:.2e})")
    return largest, faults
