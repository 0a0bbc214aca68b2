"""Synthetic circle datasets: sampling, embedding, noise models, ground truth;
and the file layer every input reader and table writer goes through.

All generators are pure functions of (parameters, seed) and return immutable
snapshots of the data together with the analytic quantities (density, noise
magnitudes) needed to score the estimators downstream.
"""

import csv
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ParseError

TWO_PI = 2.0 * np.pi

NOISE_MODELS = ("none", "varying_ball", "outlier_gaussian", "outlier_scaled_gaussian")
# the variance of the wrapped normal each benchmark circle draws its angles from
CIRCLE_SIGMA_SQ = 0.16 * np.pi**2


@dataclass(frozen=True)
class ManifoldSample:
    """Clean points on one or more circles plus their analytic annotations.

    ``density_values`` is the sampling density per unit arc length, so it
    integrates to 1 against the arc-length measure of the manifold.
    """

    angles: np.ndarray
    clean_points: np.ndarray
    intrinsic_dim: int
    density_values: np.ndarray
    radius_labels: np.ndarray


@dataclass(frozen=True)
class NoiseRealization:
    noise_vectors: np.ndarray
    noisy_points: np.ndarray
    true_noise_sq: np.ndarray


def wrapped_normal_density(theta, sigma_sq):
    """Density of a centered normal with variance ``sigma_sq`` wrapped to [0, 2pi).

    The series over wrap indices is truncated adaptively so the omitted tail
    is below 1e-12.
    """
    if not 0 < sigma_sq < np.inf:
        raise ParameterError(f"sigma_sq must be positive and finite, got {sigma_sq}")
    theta = np.asarray(theta, dtype=float)
    sigma = np.sqrt(sigma_sq)
    # terms at wrap k decay like exp(-(2*pi*k - pi)^2 / (2 sigma^2)); 8 sigma
    # of slack past the principal branch keeps the tail under 1e-12
    k_max = int(np.ceil((8.0 * sigma + np.pi) / TWO_PI)) + 1
    ks = np.arange(-k_max, k_max + 1)
    offsets = theta[..., None] - TWO_PI * ks
    norm = 1.0 / np.sqrt(TWO_PI * sigma_sq)
    return norm * np.exp(-0.5 * offsets**2 / sigma_sq).sum(axis=-1)


def sample_circle(n, sigma_sq, radius=1.0, seed=0):
    """Sample ``n`` angles from a wrapped normal and place them on a circle.

    Returns a 2-D (pre-embedding) sample whose ``density_values`` hold the
    true arc-length density q(x_i) = wrapped_normal_density(theta_i) / radius.
    """
    if n < 3:
        raise ParameterError("n must be at least 3")
    if not (0 < sigma_sq < np.inf and 0 < radius < np.inf):
        raise ParameterError("sigma_sq and radius must be positive and finite, "
                             f"got {sigma_sq} and {radius}")
    rng = np.random.default_rng(seed)
    angles = np.mod(rng.normal(0.0, np.sqrt(sigma_sq), size=n), TWO_PI)
    clean = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    density = wrapped_normal_density(angles, sigma_sq) / radius
    return ManifoldSample(
        angles=angles,
        clean_points=clean,
        intrinsic_dim=1,
        density_values=density,
        radius_labels=np.full(n, float(radius)),
    )


def sample_two_circles(n_per_circle=500, seed=0):
    """Two concentric circles, radii 1 and 0.5, with angles of variance ``CIRCLE_SIGMA_SQ``.

    Points are concatenated before any embedding so a single joint orthogonal
    transformation can be applied afterwards. The arc-length densities are
    per-circle and each half integrates to 1 over its own circle.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    parts = [sample_circle(n_per_circle, CIRCLE_SIGMA_SQ, r, s)
             for r, s in zip((1.0, 0.5), seq.spawn(2))]
    return ManifoldSample(
        angles=np.concatenate([p.angles for p in parts]),
        clean_points=np.concatenate([p.clean_points for p in parts]),
        intrinsic_dim=1,
        density_values=np.concatenate([p.density_values for p in parts]),
        radius_labels=np.concatenate([p.radius_labels for p in parts]),
    )


def embed_orthogonal(sample, m, seed=0):
    """Embed a low-dimensional sample into R^m by a random orthogonal map.

    The map is the Q factor of a seeded Gaussian matrix, so all pairwise
    Euclidean distances are preserved.
    """
    k = sample.clean_points.shape[1]
    if m < k:
        raise ParameterError(f"ambient dimension {m} below embedding dimension {k}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(m, k)))
    return replace(sample, clean_points=sample.clean_points @ q.T)


def varying_ball_radius(angles):
    """Ball radius profile 0.01 + 0.49 (1 + cos(theta)) / 2 of the smooth noise model."""
    return 0.01 + 0.49 * (1.0 + np.cos(angles)) / 2.0


def _uniform_ball(rng, n, m, radii):
    # direction uniform on the sphere, radial law r * U^(1/m)
    directions = rng.normal(size=(n, m))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    u = rng.uniform(size=n)
    return directions * (radii * u ** (1.0 / m))[:, None]


def apply_noise(sample, model, seed=0):
    """Draw one noise realization for each point of ``sample``.

    Models: "none"; "varying_ball", uniform in a ball whose radius varies
    smoothly with the angle; "outlier_gaussian", zero with probability 0.9
    else N(0, I/(4m)); "outlier_scaled_gaussian", zero with probability 0.9
    else N(0, sigma_i I/m) with sigma_i ~ Uniform(0, 1).
    """
    if model not in NOISE_MODELS:
        raise ParameterError(f"unknown noise model {model!r}")
    n, m = sample.clean_points.shape
    rng = np.random.default_rng(seed)
    if model == "none":
        eta = np.zeros((n, m))
    elif model == "varying_ball":
        eta = _uniform_ball(rng, n, m, varying_ball_radius(sample.angles))
    elif model == "outlier_gaussian":
        eta = rng.normal(0.0, 1.0 / np.sqrt(4.0 * m), size=(n, m))
        eta[rng.uniform(size=n) < 0.9] = 0.0
    else:  # outlier_scaled_gaussian
        sigma = rng.uniform(size=n)
        eta = rng.normal(size=(n, m)) * np.sqrt(sigma / m)[:, None]
        eta[rng.uniform(size=n) < 0.9] = 0.0
    return NoiseRealization(
        noise_vectors=eta,
        noisy_points=sample.clean_points + eta,
        true_noise_sq=np.einsum("ij,ij->i", eta, eta),
    )


def test_function_and_laplacian(angles):
    """The benchmark function f and its Laplace-Beltrami image on the unit circle.

    The Laplacian follows the positive-semidefinite sign convention, i.e. it
    returns -f'' so that it matches the limit of the graph Laplacian
    4(I - W)/epsilon, which is positive semidefinite.
    """
    angles = np.asarray(angles, dtype=float)
    f = (np.cos(angles) + np.sin(2.0 * angles)) / 5.0
    lap_f = (np.cos(angles) + 4.0 * np.sin(2.0 * angles)) / 5.0
    return f, lap_f


def _write_csv(path, header, rows, meta=None):
    """Write a header row and ``rows`` as CSV; ``meta``, a dict, goes first as
    one "# key=value, ..." comment line. A float cell is written as
    repr(float(v)), the shortest text that reads back to the same double;
    any other cell as it is."""
    with open(path, "w", newline="") as fh:
        if meta is not None:
            fh.write("# " + ", ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def save_dataset_csv(points_path, sidecar_path, sample, noise):
    """Write noisy points and a ground-truth sidecar as two CSV files.

    The sidecar has columns (index, angle, radius, true_density,
    true_noise_sq).
    """
    np.savetxt(points_path, noise.noisy_points, delimiter=",")
    _write_csv(sidecar_path, ["index", "angle", "radius", "true_density", "true_noise_sq"],
               zip(range(len(sample.angles)), sample.angles, sample.radius_labels,
                   sample.density_values, noise.true_noise_sq))


def read_text_lines(path):
    """The lines of a text file; a byte that does not decode raises ParseError
    at its line. Only error paths and sidecars read through this: decoding a
    large file into lines before parsing it doubles the read."""
    with open(path) as fh:
        try:
            return fh.read().split("\n")
        except UnicodeDecodeError as exc:
            # one read() decodes the whole file, so exc.start is a file offset
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"not {exc.encoding} text", line=line) from None


def data_rows(path, comments="#", skiprows=0):
    """(file line, text) of each row ``np.loadtxt`` takes from ``path`` after
    ``skiprows`` lines: with ``comments="#"`` a line with any text left once
    the comment is cut off, whitespace included; with ``comments=None``
    (Matrix Market entries) a line that is not whitespace only."""
    lines = read_text_lines(path)[skiprows:]
    return [(n, text) for n, text in enumerate(lines, start=skiprows + 1)
            if (text.split(comments, 1)[0] if comments else text.strip())]


def first_rejected_row(read, rows):
    """The first of ``rows`` (``data_rows`` pairs of a file that ``read``
    rejected) that ``read`` rejects with a ValueError.

    Each chunk is read after the first row, so a row is judged against it (a
    CSV row's width) and otherwise on its own; halving keeps the first
    rejected row in [lo, hi), the reader itself deciding, so numpy's error
    text is never parsed.
    """
    texts = [text for _, text in rows]
    lo, hi = 0, len(texts)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            read(texts[:1] + texts[lo:mid])
        except ValueError:
            hi = mid
        else:
            lo = mid
    return rows[lo]


def rejected_value(path, values, bad, what):
    """ParseError at the line and column of the first True entry of ``bad``,
    a mask over ``values``, the array the CSV reader took from ``path``."""
    row, col = np.argwhere(bad)[0]
    return ParseError(f"column {col + 1}: {what} {values[row, col]:g}",
                      line=data_rows(path)[row][0])


def _loadtxt(source, **kwargs):
    """``np.loadtxt`` without its warnings about input that holds no data: an
    empty file, blank line or comment is judged by the caller's own checks."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*contained no data")
        return np.loadtxt(source, **kwargs)


def _read_csv(source):
    return _loadtxt(source, delimiter=",", ndmin=2)


def _csv_fault(path):
    """ParseError at the first byte, value or row width the CSV read rejects:
    the row's first column that does not parse on its own, else its width."""
    rows = data_rows(path)
    lineno, text = first_rejected_row(_read_csv, rows)
    fields = text.split("#", 1)[0].split(",")
    for col, field in enumerate(fields):
        try:
            np.loadtxt([text], delimiter=",", usecols=[col])
        except ValueError:
            return ParseError(f"column {col + 1}: cannot parse {field.strip()!r}", line=lineno)
    width = len(rows[0][1].split("#", 1)[0].split(","))
    return ParseError(f"expected {width} fields, found {len(fields)}", line=lineno)


def load_points_csv(path):
    """Dense numeric CSV, one row per point, as a 2-D float array.

    Raises ParseError naming the line (and column) of the first byte that
    does not decode, value that does not parse, row of another width, or NaN
    or infinity; ``ingest_counts`` reads count CSVs through it too.
    """
    try:
        points = _read_csv(path)
    except ValueError:  # UnicodeDecodeError included
        raise _csv_fault(path) from None
    finite = np.isfinite(points)
    if not finite.all():
        raise rejected_value(path, points, ~finite, "non-finite value")
    if points.size == 0:
        raise ParseError("no data", line=1)
    return points
