import numpy as np
import pytest
import scipy.io
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from dskernel import counts, harness
from dskernel.errors import ParameterError, ParseError
from oracles import naive_matrix_market

GENERAL_MM = """%%MatrixMarket matrix coordinate integer general
% a comment line
4 3 6
1 1 5
1 1 2
2 3 7
3 1 1
4 2 4
4 3 9
"""

SYMMETRIC_MM = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 1.5
2 1 2.0
3 1 3.0
3 3 4.5
"""


def test_matrix_market_matches_naive_oracle(tmp_path):
    for text in (GENERAL_MM, SYMMETRIC_MM):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        cm = counts.ingest_counts(path)
        dense = cm.entries.toarray()
        oracle = naive_matrix_market(path)
        oracle = oracle[oracle.sum(axis=1) > 0]  # ingestion drops zero rows
        np.testing.assert_allclose(dense, oracle)


def test_matrix_market_matches_scipy(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(SYMMETRIC_MM)
    cm = counts.ingest_counts(path)
    expected = scipy.io.mmread(path).toarray()
    np.testing.assert_allclose(cm.entries.toarray(), expected)


def test_duplicate_entries_are_summed(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(GENERAL_MM)
    cm = counts.ingest_counts(path)
    assert cm.entries[0, 0] == 7  # 5 + 2


def test_parse_errors_carry_line_numbers(tmp_path):
    cases = [
        ("", "empty"),
        ("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n", "coordinate"),
        ("not a header\n2 2 1\n1 1 3\n", "header"),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", "three fields"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", "entry"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3\n", "bounds"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 3\n", "malformed"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 3\n", "expected 3"),
    ]
    for text, _ in cases:
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError):
            counts.ingest_counts(path)
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 3\n")
    with pytest.raises(ParseError, match="line 3"):
        counts.ingest_counts(path)


def test_negative_counts_rejected(tmp_path):
    path = tmp_path / "neg.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 -4\n")
    with pytest.raises(ParseError):
        counts.ingest_counts(path)


def test_negative_counts_are_rejected_with_their_location(tmp_path):
    path = tmp_path / "neg.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "% comment\n2 2 2\n1 1 3\n2 2 -5\n")
    with pytest.raises(ParseError, match="line 5: negative count in entry '2 2 -5'"):
        counts.ingest_counts(path)
    path = tmp_path / "neg.csv"
    path.write_text("1,0,2\n\n# comment\n0,1,-5\n")
    with pytest.raises(ParseError, match="line 4: column 3: negative count -5"):
        counts.ingest_counts(path, fmt="csv")


@pytest.mark.parametrize("where", ["header", "comment", "entry"])
def test_non_utf8_matrix_market_byte_is_reported_with_line(tmp_path, where):
    lines = [b"%%MatrixMarket matrix coordinate integer general", b"% comment",
             b"2 2 2", b"1 1 3", b"2 2 4"]
    bad_line = {"header": 1, "comment": 2, "entry": 5}[where]
    lines[bad_line - 1] += b" \xff"
    path = tmp_path / "bad.mtx"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ParseError, match=f"line {bad_line}: "):
        counts.ingest_counts(path)


def test_zero_total_rows_are_rejected_with_labels(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "3 2 2\n1 1 4\n3 2 6\n")
    cm = counts.ingest_counts(path, labels=["a", "b", "c"])
    assert cm.rejected_rows == (1,)
    assert cm.entries.shape == (2, 2)
    np.testing.assert_array_equal(cm.labels, ["a", "c"])
    np.testing.assert_array_equal(cm.totals, [4.0, 6.0])


@pytest.mark.parametrize("labels", [["a", "c"], ["a", "b", "c", "d"]])
def test_label_count_must_match_the_rows_before_any_are_rejected(tmp_path, labels):
    # two labels would match the rows left after the zero-total row is dropped
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "3 2 2\n1 1 4\n3 2 6\n")
    with pytest.raises(ParameterError, match=f"{len(labels)} labels for 3 rows"):
        counts.ingest_counts(path, labels=labels)


def test_csv_ingestion(tmp_path):
    path = tmp_path / "c.csv"
    np.savetxt(path, np.array([[1, 0, 2], [0, 3, 0]]), delimiter=",", fmt="%d")
    cm = counts.ingest_counts(path, fmt="csv")
    np.testing.assert_array_equal(cm.totals, [3.0, 3.0])
    with pytest.raises(ParameterError):
        counts.ingest_counts(path, fmt="parquet")
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError):
        counts.ingest_counts(bad, fmt="csv")


@pytest.fixture(scope="module")
def mm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mm")


@st.composite
def matrix_market_texts(draw):
    """A coordinate file with duplicates, blank lines, tabs and CRLF line ends."""
    symmetric = draw(st.booleans())
    field = draw(st.sampled_from(["integer", "real"]))
    n_rows = draw(st.integers(1, 6))
    n_cols = n_rows if symmetric else draw(st.integers(1, 6))
    n_entries = draw(st.integers(0, 25))
    # few distinct (i, j) pairs so duplicates are common; quarters add exactly
    entries = [(draw(st.integers(1, n_rows)), draw(st.integers(1, n_cols)),
                draw(st.integers(0, 40)) / (1 if field == "integer" else 4))
               for _ in range(n_entries)]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [f"%%MatrixMarket matrix coordinate {field} "
             f"{'symmetric' if symmetric else 'general'}", "% a comment",
             f"{n_rows} {n_cols} {n_entries}"]
    for i, j, v in entries:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2))
        sep = draw(st.sampled_from([" ", "\t", " \t  "]))
        value = str(int(v)) if field == "integer" else repr(v)
        lines.append(sep.join([str(i), str(j), value]))
    return newline.join(lines) + newline


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=matrix_market_texts())
def test_matrix_market_round_trip_matches_naive_oracle(mm_dir, text):
    path = mm_dir / "prop.mtx"
    path.write_bytes(text.encode())
    cm = counts.ingest_counts(path)
    oracle = naive_matrix_market(path)
    np.testing.assert_array_equal(cm.entries.toarray(), oracle[oracle.sum(axis=1) > 0])


def _write(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    return path


def test_wrong_field_count_after_blank_lines_reports_file_line(tmp_path):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            "2 2 2\n1 1 3\n\n\n2 2\n")
    with pytest.raises(ParseError, match="line 6: entry must have three fields"):
        counts.ingest_counts(path)


def test_four_field_entry_is_rejected(tmp_path):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            "2 2 2\n1 1 3\n2 2 4 5\n")
    with pytest.raises(ParseError, match="line 4: entry must have three fields"):
        counts.ingest_counts(path)


@pytest.mark.parametrize("entry", ["1.0 1 3", "1x 1 3", "1 1 3x", "1 1 0x10", "1 1 1_0"])
def test_malformed_entry_fields_are_rejected(tmp_path, entry):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                            f"2 2 2\n2 2 1\n{entry}\n")
    with pytest.raises(ParseError, match="line 4: malformed entry"):
        counts.ingest_counts(path)


@pytest.mark.parametrize("value", ["2.5", "3.0", "1e2"])
def test_integer_file_rejects_values_that_are_not_integers(tmp_path, value):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            f"2 2 2\n2 2 1\n\n1 1 {value}\n")
    with pytest.raises(ParseError, match=f"line 5: malformed entry '1 1 {value}'"):
        counts.ingest_counts(path)


def test_integer_file_reads_integer_counts(tmp_path):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            "2 2 4\n1 1 +5\n1 2 05\n2\t1\t7\n2 2 1  \n")
    cm = counts.ingest_counts(path)
    assert cm.entries.dtype == np.int64 and cm.totals.dtype == np.int64
    np.testing.assert_array_equal(cm.entries.toarray(), [[5, 5], [7, 1]])
    y, predicted = counts.normalize_counts(cm)
    np.testing.assert_array_equal(y, [[0.5, 0.5], [7 / 8, 1 / 8]])
    np.testing.assert_array_equal(predicted, [0.1, 0.125])


def test_bad_last_line_of_a_large_file_reports_its_line(tmp_path):
    n = 100_000
    rng = np.random.default_rng(0)
    good = "\n".join(f"{i} {j} {v}" for i, j, v in zip(
        rng.integers(1, 301, n), rng.integers(1, 201, n), rng.integers(1, 9, n)))
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            f"300 200 {n + 1}\n{good}\n1 1 7y\n")
    with pytest.raises(ParseError, match=f"line {n + 3}: malformed entry '1 1 7y'"):
        counts.ingest_counts(path)


def test_first_of_several_bad_lines_is_reported(tmp_path):
    body = ["1 1 1"] * 1000
    body[300] = "2 2"
    body[301] = ""
    body[700] = "1 1 z"
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            "2 2 999\n\n" + "\n".join(body) + "\n")
    with pytest.raises(ParseError, match="line 304: entry must have three fields"):
        counts.ingest_counts(path)
    body[300] = "1 1 1"
    path.write_text(path.read_text().replace("\n2 2\n", "\n1 1 1\n"))
    with pytest.raises(ParseError, match="line 704: malformed entry '1 1 z'"):
        counts.ingest_counts(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_matrix_market_values_are_rejected_with_line(tmp_path, value):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate real general\n"
                            f"2 2 2\n1 1 3\n\n2 2 {value}\n")
    with pytest.raises(ParseError, match="line 5: non-finite value"):
        counts.ingest_counts(path)


def test_symmetric_entry_count_is_the_number_of_stored_lines(tmp_path):
    # two off-diagonal lines mirror to four entries but declare 4 stored lines
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n"
                            "3 3 4\n2 1 5\n3 2 6\n")
    with pytest.raises(ParseError, match="line 4: expected 4 entries, found 2"):
        counts.ingest_counts(path)


def test_more_entry_lines_than_declared_are_rejected(tmp_path):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer general\n"
                            "2 2 2\n1 1 3\n\n2 2 4\n1 2 5\n")
    with pytest.raises(ParseError, match="line 6: more entries than the declared 2"):
        counts.ingest_counts(path)


@pytest.mark.parametrize("header", [
    "%%MatrixMarket matrix coordinate integer skew-symmetric",
    "%%MatrixMarket matrix coordinate real hermitian",
    "%%MatrixMarket matrix coordinate complex general",
    "%%MatrixMarket matrix coordinate pattern general",
    "%%MatrixMarket matrix coordinate integer",
])
def test_unsupported_header_is_rejected_at_line_one(tmp_path, header):
    path = _write(tmp_path, f"{header}\n2 2 1\n2 1 3\n")
    with pytest.raises(ParseError, match="line 1:"):
        counts.ingest_counts(path)


@pytest.mark.parametrize("size, message", [
    ("3 2 1", "symmetric matrix must be square"),  # mirroring would leave the shape
    ("3 3 -1", "negative size"),
])
def test_inconsistent_size_line_is_rejected(tmp_path, size, message):
    path = _write(tmp_path, "%%MatrixMarket matrix coordinate integer symmetric\n"
                            f"% comment\n{size}\n3 2 4\n")
    with pytest.raises(ParseError, match=f"line 3: {message}"):
        counts.ingest_counts(path)


def test_csv_counts_reject_non_finite_and_malformed_values(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("1,0,2\n0,nan,1\n")
    with pytest.raises(ParseError, match="line 2: column 2: non-finite"):
        counts.ingest_counts(path, fmt="csv")
    path.write_text("1,0,2\n\n0,1,inf\n")
    with pytest.raises(ParseError, match="line 3: column 3: non-finite"):
        counts.ingest_counts(path, fmt="csv")
    path.write_text("1,0,2\n3,oops,1\n")
    with pytest.raises(ParseError, match="line 2: column 2: cannot parse 'oops'"):
        counts.ingest_counts(path, fmt="csv")


def test_normalize_counts_rows_sum_to_one():
    cm = counts.synth_poisson_counts(50, 200, seed=1)
    y, predicted = counts.normalize_counts(cm)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(predicted, 1.0 / cm.totals)


def test_subsample_per_class_draws_aligned_rows_in_order():
    labels = np.array(list("aaabaacaab" * 6))  # 42 a, 12 b and 6 c, interleaved
    # column 0 holds each row's 1-based source index, so a kept row names its source
    dense = np.column_stack([np.arange(1, 61), np.random.default_rng(0).poisson(3.0, (60, 4))])
    entries = sparse.csr_matrix(dense)
    cm = counts.CountMatrix(entries=entries, totals=dense.sum(axis=1), labels=labels)
    sub = counts.subsample_per_class(cm, 10, seed=4)
    kept = sub.entries[:, [0]].toarray().ravel() - 1
    assert np.all(np.diff(kept) > 0)  # the source order
    assert [int((sub.labels == c).sum()) for c in "abc"] == [10, 10, 6]
    np.testing.assert_array_equal(kept[sub.labels == "c"], np.flatnonzero(labels == "c"))
    np.testing.assert_array_equal(sub.labels, labels[kept])
    np.testing.assert_array_equal(sub.totals, cm.totals[kept])
    assert (sub.entries != entries[kept]).nnz == 0
    again = counts.subsample_per_class(cm, 10, seed=4)
    assert (again.entries != sub.entries).nnz == 0
    other = counts.subsample_per_class(cm, 10, seed=5)
    assert (other.entries != sub.entries).nnz > 0


def test_synth_poisson_counts_structure():
    cm = counts.synth_poisson_counts(101, 300, n_clusters=2, seed=3)
    assert cm.entries.shape[0] + len(cm.rejected_rows) == 101
    assert set(np.unique(cm.labels)) <= {0, 1}
    assert sparse.issparse(cm.entries)
    assert cm.entries.data.min() >= 0
    # totals concentrate near the requested depth window
    assert cm.totals.min() > 300 and cm.totals.max() < 3200


def test_synth_poisson_cluster_depth_ranges():
    cm = counts.synth_poisson_counts(200, 500, seed=4,
                                     cluster_depth_ranges=harness.FIG8_DEPTH_RANGES)
    low = cm.totals[cm.labels == 0]
    high = cm.totals[cm.labels == 1]
    assert low.max() < high.min()


def test_synth_poisson_validates_ranges():
    with pytest.raises(ParameterError):
        counts.synth_poisson_counts(10, 20, cluster_depth_ranges=((5.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ParameterError):
        counts.synth_poisson_counts(10, 20, n_clusters=3,
                                    cluster_depth_ranges=((1.0, 2.0), (1.0, 2.0)))
    for n_clusters in (0, -1):
        with pytest.raises(ParameterError, match="at least one cluster"):
            counts.synth_poisson_counts(10, 20, n_clusters=n_clusters)


def test_synth_poisson_is_deterministic():
    a = counts.synth_poisson_counts(40, 100, seed=9)
    b = counts.synth_poisson_counts(40, 100, seed=9)
    assert (a.entries != b.entries).nnz == 0
