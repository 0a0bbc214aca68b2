"""Count-matrix ingestion, total-count normalization, and a synthetic Poisson
generator standing in for real sequencing data.
"""

from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral

import numpy as np

from .errors import ParameterError, ParseError
from .geometry import _loadtxt, data_rows, first_rejected_row, load_points_csv, rejected_value


@dataclass(frozen=True)
class CountMatrix:
    """Sparse nonnegative integer counts with per-row totals.

    Rows with zero total are rejected at ingestion; ``rejected_rows`` lists
    their original indices for the caller's report.
    """

    entries: "scipy.sparse.csr_matrix"
    totals: np.ndarray
    labels: np.ndarray = None
    rejected_rows: tuple = ()


def _finalize(matrix, labels=None, shape=None):
    # scipy loads lazily: only a count matrix needs scipy.sparse
    import scipy.sparse as sparse

    matrix = sparse.csr_matrix(matrix, shape=shape)
    if labels is not None and len(labels) != matrix.shape[0]:
        raise ParameterError(f"{len(labels)} labels for {matrix.shape[0]} rows")
    totals = np.asarray(matrix.sum(axis=1)).ravel()
    keep = totals > 0
    rejected = tuple(np.nonzero(~keep)[0].tolist())
    if rejected:
        matrix = matrix[keep]
        totals = totals[keep]
        if labels is not None:
            labels = np.asarray(labels)[keep]
    return CountMatrix(entries=matrix, totals=totals,
                       labels=None if labels is None else np.asarray(labels),
                       rejected_rows=rejected)


# one Matrix Market entry line per field: integer row and column, then an
# integer value ("2.5", "3.0" and "1e2" are not) or a real one
_ENTRY = {"integer": np.dtype([("i", np.int64), ("j", np.int64), ("v", np.int64)]),
          "real": np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])}


def _read_header(fh):
    """Parse the banner, comment and size lines; return (shape, nnz, field,
    symmetric, size line)."""
    first = fh.readline()
    if not first:
        raise ParseError("empty file", line=1)
    header = first.lower().split()
    if len(header) < 2 or header[0] != "%%matrixmarket" or header[1] != "matrix":
        raise ParseError("missing %%MatrixMarket header", line=1)
    if len(header) != 5:
        raise ParseError("header must be '%%MatrixMarket matrix coordinate "
                         "<field> <symmetry>'", line=1)
    _, _, storage, field, symmetry = header
    if storage != "coordinate":
        raise ParseError(f"unsupported storage format {storage!r}", line=1)
    if field not in ("integer", "real"):
        raise ParseError(f"unsupported field {field!r}", line=1)
    if symmetry not in ("general", "symmetric"):
        raise ParseError(f"unsupported symmetry {symmetry!r}", line=1)
    lineno = 2
    line = fh.readline()
    # comment, blank and whitespace-only lines may stand before the size line
    while line and (not line.strip() or line.lstrip().startswith("%")):
        line = fh.readline()
        lineno += 1
    if not line:
        raise ParseError("missing size line", line=lineno)
    parts = line.split()
    if len(parts) != 3:
        raise ParseError("size line must have three fields", line=lineno)
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise ParseError("non-integer size line", line=lineno) from None
    if min(n_rows, n_cols, nnz) < 0:
        raise ParseError("negative size", line=lineno)
    symmetric = symmetry == "symmetric"
    if symmetric and n_rows != n_cols:
        raise ParseError("symmetric matrix must be square", line=lineno)
    return (n_rows, n_cols), nnz, field, symmetric, lineno


def _parse_matrix_market(path):
    """Coordinate-format Matrix Market reader with line diagnostics.

    The header is read line by line; the entry block is read in one
    ``np.loadtxt`` call with a fixed record per line, (int, int, int) in an
    "integer" file and (int, int, float) in a "real" one. Every
    rejection names its file line: a byte that does not decode, a malformed
    entry, an index out of bounds, a NaN, infinite or negative value, or an
    entry count other than the declared one. Returns the (v, (i, j))
    triplets, 0-based, and the shape; duplicate (i, j) entries are summed
    when they become a CSR matrix, per the format convention.
    """
    # a byte that does not decode fails a header check at its line here, or
    # the entry read below
    with open(path, errors="replace") as fh:
        shape, nnz, field, symmetric, size_line = _read_header(fh)
    # entry records from a path or a list of lines: each line is judged on its
    # own, blank lines are skipped, and an empty block is judged by its count
    read = partial(_loadtxt, dtype=_ENTRY[field], comments=None, ndmin=1)
    try:
        entries = read(path, skiprows=size_line)
    except ValueError:  # UnicodeDecodeError included
        lineno, text = first_rejected_row(
            read, data_rows(path, comments=None, skiprows=size_line))
        message = ("entry must have three fields" if len(text.split()) != 3
                   else f"malformed entry {text.strip()!r}")
        raise ParseError(message, line=lineno) from None
    i, j, v = entries["i"], entries["j"], entries["v"]
    i -= 1  # 0-based, in the records themselves
    j -= 1
    faults = np.flatnonzero((i < 0) | (i >= shape[0]) | (j < 0) | (j >= shape[1])
                            | ~np.isfinite(v) | (v < 0))
    # the first bad entry, or the first one beyond the declared count
    k = min(faults[0], nnz) if faults.size else nnz
    if k < len(entries):
        lineno, text = data_rows(path, comments=None, skiprows=size_line)[k]
        if k == nnz:
            message = f"more entries than the declared {nnz}"
        elif not np.isfinite(v[k]):
            message = f"non-finite value in entry {text.strip()!r}"
        elif v[k] < 0:
            message = f"negative count in entry {text.strip()!r}"
        else:
            message = "entry index out of bounds"
        raise ParseError(message, line=lineno)
    if len(entries) < nnz:
        rows = data_rows(path, comments=None, skiprows=size_line)
        raise ParseError(f"expected {nnz} entries, found {len(entries)}",
                         line=rows[-1][0] if rows else size_line)
    if symmetric:
        off = i != j
        i, j, v = (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]),
                   np.concatenate([v, v[off]]))
    return (v, (i, j)), shape


def ingest_counts(path, fmt="matrix-market", labels=None):
    """Read a count matrix from a Matrix Market or dense CSV file."""
    shape = None
    if fmt == "matrix-market":
        matrix, shape = _parse_matrix_market(path)
    elif fmt == "csv":
        matrix = load_points_csv(path)
        negative = matrix < 0
        if negative.any():
            raise rejected_value(path, matrix, negative, "negative count")
    else:
        raise ParameterError(f"unknown format {fmt!r}")
    return _finalize(matrix, labels, shape)


def _read_labels(source):
    # blank and comment lines, or an empty file, are judged by the label count
    labels = _loadtxt(source, delimiter=",", dtype=str, ndmin=2)
    if labels.shape[1] != 1:
        raise ValueError("expected one label per row")
    return labels[:, 0]


def read_labels(path):
    """The stripped string labels of a file with one field per row.

    Raises ParseError at the first line with another field count (the first
    line if every row has two), a byte that does not decode, or an empty label.
    """
    try:
        labels = np.char.strip(_read_labels(path))
    except ValueError:  # UnicodeDecodeError included
        lineno, text = first_rejected_row(_read_labels, data_rows(path))
        fields = len(text.split("#", 1)[0].split(","))
        raise ParseError(f"expected one label, found {fields} fields", line=lineno) from None
    if "" in labels:
        raise ParseError("empty label", line=data_rows(path)[np.argmax(labels == "")][0])
    return labels


def normalize_counts(counts):
    """Total-count normalization plus the Poisson-model noise prediction.

    Returns (y, predicted_noise) where row i of y is counts row i divided by
    its total c_i (a probability vector) and predicted_noise_i = 1/c_i.
    """
    y = counts.entries.toarray() / counts.totals[:, None]
    return y, 1.0 / counts.totals


def subsample_per_class(cm, per_class, seed):
    """The CountMatrix of at most ``per_class`` rows of each label, drawn
    without replacement with ``seed``; a class at or under ``per_class`` is
    kept whole, and the kept rows stay in their original order. When no class
    is over ``per_class``, ``cm`` itself is returned."""
    if not isinstance(per_class, Integral) or per_class < 1:
        raise ParameterError(f"per_class must be an integer >= 1, got {per_class}")
    if cm.labels is None:
        raise ParameterError("subsampling per class needs labels")
    rng = np.random.default_rng(seed)
    keep = []
    for c in np.unique(cm.labels):
        idx = np.nonzero(cm.labels == c)[0]
        if len(idx) > per_class:
            idx = rng.choice(idx, size=per_class, replace=False)
        keep.extend(idx.tolist())
    if len(keep) == len(cm.labels):
        return cm
    keep = np.sort(np.array(keep, dtype=int))
    return replace(cm, entries=cm.entries[keep], totals=cm.totals[keep], labels=cm.labels[keep])


def synth_poisson_counts(n, m, seed=0, cluster_depth_ranges=((500.0, 2500.0), (500.0, 2500.0))):
    """Independent Poisson counts over latent cluster expression profiles.

    There is one cluster per depth range (min, max) in
    ``cluster_depth_ranges``. Each cluster gets a random positive profile over
    the m features; each row draws a total-rate scalar uniformly from its
    cluster's depth range and Poisson entries with mean profile * rate.
    Returns a CountMatrix with cluster labels.
    """
    if not (isinstance(n, Integral) and isinstance(m, Integral) and n >= 1 and m >= 1):
        raise ParameterError(f"n and m must be integers >= 1, got {n} and {m}")
    if not len(cluster_depth_ranges):
        raise ParameterError("need at least one cluster depth range")
    for clo, chi in cluster_depth_ranges:
        if not 0 < clo <= chi < np.inf:
            raise ParameterError("cluster depth ranges must satisfy 0 < min <= max < inf")
    n_clusters = len(cluster_depth_ranges)
    rng = np.random.default_rng(seed)
    profiles = rng.gamma(shape=2.0, size=(n_clusters, m))
    profiles /= profiles.sum(axis=1, keepdims=True)
    labels = np.repeat(np.arange(n_clusters), -(-n // n_clusters))[:n]
    ranges = np.asarray(cluster_depth_ranges, dtype=float)
    rates = rng.uniform(ranges[labels, 0], ranges[labels, 1])
    means = profiles[labels] * rates[:, None]
    counts = rng.poisson(means)
    return _finalize(counts, labels)
