"""The file layer: which line a rejected input file is reported at, the text
the table writer gives each cell, and which functions a valid run calls."""

import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import dskernel
from dskernel import cli, counts, geometry
from dskernel.errors import ParseError

BAD_TOKENS = ["x", "1x", "0x10", "1.2.3"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@st.composite
def corrupted_points_csv(draw):
    """A valid points CSV with blank and comment lines mixed in, and one data
    row corrupted: a bad token, a NaN or infinity, or another field count.

    The first row sets the width the reader expects, so only a later row has
    its field count changed. Returns (text, file line, expected message).
    """
    width = draw(st.integers(1, 4))
    n_rows = draw(st.integers(1, 8))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [draw(st.lists(value, min_size=width, max_size=width)) for _ in range(n_rows)]
    kinds = ["token", "non-finite"] + (["fields"] if n_rows > 1 else [])
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1 if kind == "fields" else 0, n_rows - 1))
    col = draw(st.integers(0, width - 1))
    if kind == "token":
        rows[k][col] = draw(st.sampled_from(BAD_TOKENS))
        message = f"column {col + 1}: cannot parse {rows[k][col]!r}"
    elif kind == "non-finite":
        rows[k][col] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        message = f"column {col + 1}: non-finite value {rows[k][col]}"
    else:
        rows[k] = rows[k][:-1] if width > 1 and draw(st.booleans()) else rows[k] + ["1.5"]
        message = f"expected {width} fields, found {len(rows[k])}"
    lines = []
    for i, row in enumerate(rows):
        lines += draw(st.lists(st.sampled_from(["", "# a comment", "#"]), max_size=2))
        lines.append(",".join(row) + draw(st.sampled_from(["", " # note"])))
        if i == k:
            line = len(lines)
    return "\n".join(lines) + "\n", line, message


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=corrupted_points_csv())
def test_points_csv_fault_is_reported_at_the_corrupted_line(files, case):
    text, line, message = case
    path = files / "points.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        geometry.load_points_csv(path)
    assert str(exc.value) == f"line {line}: {message}"


@st.composite
def corrupted_matrix_market(draw):
    """A valid coordinate file with whitespace-only lines mixed into its
    entries, and one entry corrupted by a bad token or another field count.
    Returns (text, file line, expected message)."""
    n_entries = draw(st.integers(1, 12))
    entries = [[str(draw(st.integers(1, 5))), str(draw(st.integers(1, 5))),
                str(draw(st.integers(0, 9)))] for _ in range(n_entries)]
    k = draw(st.integers(0, n_entries - 1))
    if draw(st.booleans()):
        entries[k][draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_TOKENS))
        message = f"malformed entry {' '.join(entries[k])!r}"
    else:
        entries[k] = entries[k][:draw(st.sampled_from([1, 2]))] if draw(st.booleans()) \
            else entries[k] + ["7"]
        message = "entry must have three fields"
    lines = ["%%MatrixMarket matrix coordinate integer general", "% a comment",
             f"5 5 {n_entries}"]
    for i, entry in enumerate(entries):
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        lines.append(" ".join(entry))
        if i == k:
            line = len(lines)
    return "\n".join(lines) + "\n", line, message


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=corrupted_matrix_market())
def test_matrix_market_fault_is_reported_at_the_corrupted_line(files, case):
    text, line, message = case
    path = files / "counts.mtx"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        counts.ingest_counts(path)
    assert str(exc.value) == f"line {line}: {message}"


def test_labels_reader_takes_one_field_per_row(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("b\n\na\n")
    np.testing.assert_array_equal(counts.read_labels(path), ["b", "a"])
    path.write_text("b\na,c\n")
    with pytest.raises(ParseError, match="^line 2: expected one label, found 2 fields$"):
        counts.read_labels(path)


def test_labels_reader_strips_labels_and_rejects_empty_ones(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("b\n\na # first\n")
    np.testing.assert_array_equal(counts.read_labels(path), ["b", "a"])
    path.write_text(" b \n\n  # none\na\n")
    with pytest.raises(ParseError, match="^line 3: empty label$"):
        counts.read_labels(path)


def test_writer_formats_float_cells_and_leaves_the_rest(tmp_path):
    path = tmp_path / "table.csv"
    geometry._write_csv(path, ["a", "b", "c", "d", "e", "f", "g"],
                        [[np.float64(0.1), 1 / 3, 2.0, 7, np.int64(7), "a", ""]])
    assert path.read_bytes() == b"a,b,c,d,e,f,g\r\n0.1,0.3333333333333333,2.0,7,7,a,\r\n"


def test_valid_scrna_run_calls_no_public_geometry_function(tmp_path, monkeypatch):
    """A traced benchmark run counts geometry time as input preparation, so a
    public geometry function called inside a timed ``scrna`` call would drop
    out of the per-layer sum. Every public geometry function is wrapped in
    every dskernel namespace that holds it, as the tracer wraps it."""
    public = {obj for name, obj in vars(geometry).items()
              if inspect.isfunction(obj) and obj.__module__ == geometry.__name__
              and not name.startswith("_")}
    called = []

    def spy(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    modules = [dskernel] + [importlib.import_module(f"dskernel.{info.name}")
                            for info in pkgutil.iter_modules(dskernel.__path__)]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in public:
                monkeypatch.setattr(module, name, spy(obj))
    cm = counts.synth_poisson_counts(
        60, 200, seed=1, cluster_depth_ranges=((400.0, 800.0), (2000.0, 4000.0)))
    mtx, labels = tmp_path / "counts.mtx", tmp_path / "labels.csv"
    scipy.io.mmwrite(str(mtx), sparse.coo_matrix(cm.entries))
    np.savetxt(labels, cm.labels, fmt="%d")
    code = cli.main(["scrna", "--input", str(mtx), "--labels", str(labels),
                     "--epsilon", "0.0002", "--out", str(tmp_path / "noise.csv"),
                     "--transitions-out", str(tmp_path / "transitions.csv")])
    assert code == 0
    assert called == []
