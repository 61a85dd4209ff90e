"""The file contract of cssnmf.io: the matrix writer's bytes and the reader's
values must equal the per-cell reference implementations in conftest; the
table and JSON writers' bytes are pinned."""

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from cssnmf.cli import main
from cssnmf.io import (
    json_array,
    json_terms,
    load_matrix_csv,
    load_vector_csv,
    read_json,
    save_matrix_csv,
    save_vector_csv,
    write_json,
    write_table,
)
from conftest import load_matrix_csv_reference, save_matrix_csv_reference

# Number of vocabulary terms of a 3,000-document generated corpus: the
# widest matrix the text workflow writes.
INGEST_WIDTH = 1185

SPECIALS = np.array([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1.0, 0.1, 1e16, 1e-7,
])


def random_bit_matrix(n, m, seed, zero_frac):
    """Any float64 bit pattern (NaN payloads included), special values, and a
    share of +0.0 entries like a TF-IDF matrix's."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2**64, size=(n, m), dtype=np.uint64, endpoint=False).view(np.float64)
    special = rng.random((n, m)) < 0.1
    X[special] = rng.choice(SPECIALS, size=int(special.sum()))
    X[rng.random((n, m)) < zero_frac] = 0.0
    return X


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, NaN payloads aside (the
    text format writes every NaN as ``nan``)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.int64), b[keep].view(np.int64))


def written(tmp_path, writer, X, header=None, name="X.csv"):
    path = tmp_path / name
    writer(path, X, header=header)
    return path.read_bytes()


# ------------------------------------------------------------------ writer

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 5),
    m=st.one_of(st.integers(1, 12), st.integers(INGEST_WIDTH - 5, INGEST_WIDTH)),
    seed=st.integers(0, 2**32 - 1),
    zero_frac=st.sampled_from([0.0, 0.5, 0.97, 1.0]),
)
def test_writer_bytes_equal_reference_on_random_bit_patterns(tmp_path_factory, n, m, seed, zero_frac):
    tmp_path = tmp_path_factory.mktemp("w")
    X = random_bit_matrix(n, m, seed, zero_frac)
    assert written(tmp_path, save_matrix_csv, X, name="new.csv") == \
        written(tmp_path, save_matrix_csv_reference, X, name="ref.csv")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=7),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_writer_bytes_equal_reference_on_hypothesis_floats(tmp_path_factory, X):
    tmp_path = tmp_path_factory.mktemp("w")
    assert written(tmp_path, save_matrix_csv, X, name="new.csv") == \
        written(tmp_path, save_matrix_csv_reference, X, name="ref.csv")


def test_writer_handles_views_headers_and_other_dtypes(tmp_path):
    base = random_bit_matrix(6, 9, seed=3, zero_frac=0.5)
    cases = [
        (base[::2, 1::3], None),                      # non-contiguous view
        (np.asfortranarray(base), None),              # column-major
        (np.arange(12, dtype=np.int32).reshape(3, 4), ["a", "b", "c", "d"]),
        (np.zeros((2, 3), dtype=np.float32), None),
        ([[0.0, -0.0], [1.5, 0.0]], ["neg", "zero"]),
    ]
    for X, header in cases:
        assert written(tmp_path, save_matrix_csv, X, header, "new.csv") == \
            written(tmp_path, save_matrix_csv_reference, X, header, "ref.csv")


def test_writer_zero_rows_writes_header_only(tmp_path):
    assert written(tmp_path, save_matrix_csv, np.zeros((0, 3))) == b"x0,x1,x2\n"


def test_writer_signed_zero_and_specials_text(tmp_path):
    X = [[0.0, -0.0, np.nan, np.inf, -np.inf, 1.7976931348623157e308, 5e-324]]
    assert written(tmp_path, save_matrix_csv, X, header=list("abcdefg")) == (
        b"a,b,c,d,e,f,g\n0.0,-0.0,nan,inf,-inf,1.7976931348623157e+308,5e-324\n"
    )


def test_writer_validation(tmp_path):
    with pytest.raises(ValueError, match="expected a matrix"):
        save_matrix_csv(tmp_path / "a.csv", np.zeros(3))
    with pytest.raises(ValueError, match="header has 1 names for 2 columns"):
        save_matrix_csv(tmp_path / "a.csv", np.zeros((1, 2)), header=["only"])
    with pytest.raises(ValueError, match="expected a vector"):
        save_vector_csv(tmp_path / "a.csv", np.zeros((2, 2)))


def test_vector_writer_bytes(tmp_path):
    save_vector_csv(tmp_path / "y.csv", [0.0, -0.0, 2.5, np.nan], name="rating")
    assert (tmp_path / "y.csv").read_bytes() == b"rating\n0.0\n-0.0\n2.5\nnan\n"


# ------------------------------------------------------------- round trip

@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 5),
    m=st.one_of(st.integers(1, 12), st.integers(INGEST_WIDTH - 5, INGEST_WIDTH)),
    seed=st.integers(0, 2**32 - 1),
    zero_frac=st.sampled_from([0.0, 0.97]),
)
def test_save_then_load_gives_back_the_same_bits(tmp_path_factory, n, m, seed, zero_frac):
    path = tmp_path_factory.mktemp("rt") / "X.csv"
    X = random_bit_matrix(n, m, seed, zero_frac)
    save_matrix_csv(path, X)
    got, header = load_matrix_csv(path)
    ref, ref_header = load_matrix_csv_reference(path)
    assert header == ref_header == [f"x{j}" for j in range(m)]
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert same_bits(got, X) and same_bits(got, ref)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=False, allow_subnormal=True), min_size=1, max_size=30),
       st.sampled_from(["{!r}", "{:.17g}", "{:.17e}", "{:.3f}", "{:+.20g}"]))
def test_reader_parses_like_float(tmp_path_factory, values, fmt):
    path = tmp_path_factory.mktemp("p") / "X.csv"
    path.write_text(",".join(fmt.format(v) for v in values) + "\n")
    got, header = load_matrix_csv(path)
    ref, _ = load_matrix_csv_reference(path)
    assert header is None and same_bits(got, ref)


def test_vector_round_trip(tmp_path):
    y = np.array([3.0, 0.0, -0.0, 0.1, 1e-300])
    save_vector_csv(tmp_path / "y.csv", y)
    assert same_bits(load_vector_csv(tmp_path / "y.csv"), y)


# ----------------------------------------------------------- file layouts

@pytest.mark.parametrize("text, header, expected", [
    ("a,b\n1.0,2.0\n3.0,4.0\n", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]),
    ("1.0,2.0\n3.0,4.0\n", None, [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\r\n1.0,2.0\r\n3.0,4.0\r\n", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]),
    ("\na,b\n\n1.0,2.0\n   \n\t\n3.0,4.0\n\n", ["a", "b"], [[1.0, 2.0], [3.0, 4.0]]),
    ("1.0,2.0\n3.0,4.0", None, [[1.0, 2.0], [3.0, 4.0]]),        # no final newline
    ("a,b,c\n1.0,-0.0,5e-324\n", ["a", "b", "c"], [[1.0, -0.0, 5e-324]]),   # one row
    ("y\n1.0\n2.0\n3.0\n", ["y"], [[1.0], [2.0], [3.0]]),         # one column
    ("7\n", None, [[7.0]]),
    (" 1.0 , 2.0\t\n", None, [[1.0, 2.0]]),                       # padded cells
    ("nan,inf,-inf,Infinity,NaN\n", None, [[np.nan, np.inf, -np.inf, np.inf, np.nan]]),
    ("1e5,1E-3,+2.5,.5,5.,-0\n", None, [[1e5, 1e-3, 2.5, 0.5, 5.0, -0.0]]),
])
def test_reader_layouts(tmp_path, text, header, expected):
    path = tmp_path / "X.csv"
    path.write_bytes(text.encode())
    X, got_header = load_matrix_csv(path)
    assert got_header == header
    assert same_bits(X, expected)
    ref, ref_header = load_matrix_csv_reference(path)
    assert ref_header == header and same_bits(X, ref)


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("\n  \n", "empty file"),
    ("a,b\n", "no data rows"),
    ("a,b\n\n", "no data rows"),
])
def test_reader_rejects_files_without_data(tmp_path, text, message):
    path = tmp_path / "X.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as err:
        load_matrix_csv(path)
    assert str(path) in str(err.value)


# ---------------------------------------------------------- malformed data

@pytest.mark.parametrize("text, pattern", [
    ("a,b\n1.0,2.0\n3.0,4.0,5.0\n", r"row 3 has 3 cells, expected 2"),
    ("a,b\n1.0,2.0\n3.0\n", r"row 3 has 1 cells, expected 2"),
    ("a,b\n1.0,2.0\n3.0,abc\n", r"row 3 is not numeric.*'abc'"),
    ("a,b\n1.0,2.0\n3.0,\n", r"row 3 is not numeric"),
    ("a,b\n1.0,2.0\n,4.0\n", r"row 3 is not numeric"),
    ("a,b\n1.0,2.0\n3.0,2.0#x\n", r"row 3 is not numeric.*2\.0#x"),
    ("a,b\n1.0,2.0#\n3.0,4.0\n", r"row 2 is not numeric"),
    ("1.0,2.0\n3.0,0x10\n", r"row 2 is not numeric.*0x10"),
])
def test_reader_rejects_malformed_rows_naming_path_and_line(tmp_path, text, pattern):
    path = tmp_path / "X.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=pattern) as err:
        load_matrix_csv(path)
    assert str(err.value).startswith(f"{path}: ")
    with pytest.raises(ValueError):
        load_matrix_csv_reference(path)


def test_reader_reports_file_lines_past_blank_lines(tmp_path):
    path = tmp_path / "X.csv"
    path.write_text("a,b\n\n1.0,2.0\n\n\n3.0,oops\n")
    with pytest.raises(ValueError, match=r"row 6 is not numeric.*'oops'"):
        load_matrix_csv(path)
    path.write_text("a,b\n\n1.0,2.0\n   \n3.0\n")
    with pytest.raises(ValueError, match=r"row 5 has 1 cells, expected 2"):
        load_matrix_csv(path)


def test_reader_rejects_python_only_literals(tmp_path):
    # float() accepts digit-group underscores and non-ASCII digits; the
    # writer never emits them and numpy's parser refuses them.
    for cell in ("1_0", "١"):
        path = tmp_path / "X.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3 is not numeric"):
            load_matrix_csv(path)
        ref, _ = load_matrix_csv_reference(path)     # the old reader took it
        assert ref[1, 1] in (10.0, 1.0)


@pytest.mark.parametrize("body", [
    "1.0,2.0\n3.0,4.0,5.0\n",
    "1.0,2.0\n3.0,abc\n",
    "1.0,2.0\n3.0,\n",
    "1.0,2.0\n3.0,4.0#c\n",
])
def test_cli_fit_exits_3_on_malformed_matrix(tmp_path, body):
    (tmp_path / "X.csv").write_text("a,b\n" + body)
    (tmp_path / "Y.csv").write_text("y\n1.0\n2.0\n")
    res = CliRunner().invoke(main, ["--out", str(tmp_path / "out"), "fit",
                                    str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"),
                                    "--r", "1"])
    assert res.exit_code == 3
    assert "X.csv: row 3" in res.output



# ------------------------------------------------------ tables and documents

def test_write_table_bytes(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c"], [
        [0.1, 3, 'x, "y"'],
        [np.float64(-0.0), np.int64(7), "plain"],
        [float("nan"), 0, ""],
    ])
    assert path.read_bytes() == (
        b'a,b,c\n0.1,3,"x, ""y"""\n-0.0,7,plain\nnan,0,\n'
    )


def test_write_json_bytes_and_read_json(tmp_path):
    path = tmp_path / "d.json"
    write_json(path, {"version": 2, "x": [1.5, "a"]})
    assert path.read_bytes() == b'{\n "version": 2,\n "x": [\n  1.5,\n  "a"\n ]\n}\n'
    assert read_json(path, 2) == {"version": 2, "x": [1.5, "a"]}
    with pytest.raises(ValueError, match="unsupported version 2"):
        read_json(path, 1)


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "expected a JSON object, found list"),
    ('"version"', "expected a JSON object, found str"),
    ("{", "Expecting"),
])
def test_read_json_rejects_non_objects(tmp_path, text, message):
    path = tmp_path / "d.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_json(path, 1)


@pytest.mark.parametrize("doc, message", [
    ({}, "field 'a' is missing"),
    ({"a": 1.0}, "field 'a' must be a 1-d array"),
    ({"a": [[1.0]]}, "field 'a' must be a 1-d array"),
    ({"a": ["x"]}, "field 'a' must be a 1-d array"),
    ({"a": [1.0, [2.0]]}, "field 'a' must be a 1-d array"),
    ({"a": [1.0, float("nan")]}, "field 'a' has non-finite entries"),
])
def test_json_array_names_the_field(doc, message):
    with pytest.raises(ValueError, match=f"^doc.json: {message}"):
        json_array("doc.json", doc, "a", 1)
    assert json_array("doc.json", {"a": [1, 2.5]}, "a", 1).tolist() == [1.0, 2.5]


@pytest.mark.parametrize("doc, message", [
    ({}, "field 'a' must be a list of strings"),
    ({"a": "ab"}, "field 'a' must be a list of strings"),
    ({"a": ["x", 1]}, "field 'a' must be a list of strings"),
    ({"a": ["x", "y", "x"]}, "field 'a' repeats the term 'x'"),
])
def test_json_terms_names_the_field(doc, message):
    with pytest.raises(ValueError, match=f"^doc.json: {message}"):
        json_terms("doc.json", doc, "a")
    assert json_terms("doc.json", {"a": ["y", "x"]}, "a") == ["y", "x"]
