"""File syntax of every artifact: matrix CSVs, CSV tables and JSON documents.

Other modules build rows and dicts; only this one spells them on disk.
Floats are written with ``repr``, which round-trips exactly, so equal
values give byte-identical files.  Line endings are always ``"\\n"``.

Text matrices are mostly zeros, so the matrix writer takes each block of
rows as its entries in row-major order (:class:`SparseRows`) and formats
only those; every other cell is the literal ``0.0`` (which is
``repr(0.0)``), cut with its separators from one all-zero line.  numpy
works out which slice of that line comes before each entry, and a table
keeps each slice by its bounds, so no Python loop runs per entry.  A dense
block's entries are those whose bit pattern is not ``+0.0``;
``cssnmf ingest`` hands over the entries of its term counts, so nothing
scans for them.  Either way the bytes are the same as formatting every
cell.  The reader hands the body to numpy's C parser instead of calling
``float()`` per cell; the values are the same.  The writer takes a matrix
as an iterator of row blocks, which ``cssnmf ingest`` uses to write a
text matrix that never exists whole; every block goes through the same
formatter, so the bytes do not depend on the blocks.  A header whose every
name reads as a number is refused, since the reader would take it for a
data row.
"""

import csv
import itertools
import json
import re
from collections import Counter
from collections.abc import Iterator
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

__all__ = [
    "format_float",
    "SparseRows",
    "save_matrix_csv",
    "load_matrix_csv",
    "save_vector_csv",
    "load_vector_csv",
    "write_table",
    "write_json",
    "read_json",
    "json_array",
    "json_terms",
]


def format_float(v):
    """Shortest decimal string that parses back to exactly ``v``."""
    return repr(float(v))


class SparseRows(NamedTuple):
    """A block of matrix rows given by its entries, CSR style: row ``i``'s
    entries are at the ascending columns ``cols[indptr[i]:indptr[i + 1]]``,
    with ``values`` at the same positions, and ``indptr[0]`` is 0.  Every
    entry not listed is ``+0.0``."""

    indptr: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _next_block(blocks):
    """The next row block as ``(SparseRows, width)``: a dense block's width,
    or None for a :class:`SparseRows` block; ``(None, None)`` when there is
    none.  A dense block lists the entries whose bit pattern is not
    ``+0.0``, so -0.0 and NaN go through ``repr`` like any other nonzero."""
    X = next(blocks, None)
    if X is None or isinstance(X, SparseRows):
        return X, None
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {X.shape}")
    rows, cols = np.nonzero(np.ascontiguousarray(X).view(np.int64))
    indptr = np.searchsorted(rows, np.arange(X.shape[0] + 1))
    return SparseRows(indptr, cols, X[rows, cols]), X.shape[1]


class _ZeroRuns(dict):
    """Slices of the all-zero CSV line of ``m`` columns, in which column
    ``j``'s ``0.0`` starts at offset ``4 * j``, each kept by the key
    ``start * stride + stop`` (``stride`` is the line's length plus one):
    the text between two cells, before a line's first cell, or after its
    last."""

    def __init__(self, m):
        super().__init__()
        self.line = "0.0," * (m - 1) + "0.0\n" if m else "\n"
        self.stride = len(self.line) + 1

    def __missing__(self, key):
        self[key] = run = self.line[key // self.stride:key % self.stride]
        return run


def _write_rows(fh, block, runs):
    """Write the rows of ``block`` (:class:`SparseRows`), formatting only
    its entries; every other cell is a ``0.0`` from ``runs``.

    numpy finds, for each entry, the slice of the all-zero line that comes
    before it: the line's start up to its column when it is its row's
    first, else the separator and zeros since the previous entry, which
    depend only on the gap and are cut at the line's start.  Each row ends
    with the line's rest after its last entry, or the whole line.  The
    block's text is joined and written in one piece.
    """
    indptr, cols, values = block
    # int64: the keys outgrow 32 bits at a few thousand columns.
    cols = np.asarray(cols, dtype=np.int64)
    stride, end = runs.stride, runs.stride - 1
    nonempty = np.flatnonzero(np.diff(indptr))
    first, last = indptr[nonempty], indptr[nonempty + 1] - 1
    before = 3 * stride + 4 * np.diff(cols, prepend=0)
    before[first] = 4 * cols[first]
    after = np.full(len(indptr) - 1, end)
    after[nonempty] = (4 * cols[last] + 3) * stride + end
    pieces = [None] * (2 * len(cols))
    pieces[::2] = map(runs.__getitem__, before.tolist())
    pieces[1::2] = map(repr, np.asarray(values, dtype=float).tolist())
    bounds = (2 * indptr).tolist()
    lines = []
    for lo, hi, rest in zip(bounds, bounds[1:], map(runs.__getitem__, after.tolist())):
        lines += pieces[lo:hi]
        lines.append(rest)
    fh.write("".join(lines))


def _write_matrix(path, blocks, header):
    """Write ``header`` and the rows of an iterator of row blocks; the
    header is checked against the first block before the file is opened."""
    block, m = _next_block(blocks)
    if m is None:
        if header is None:
            raise ValueError("no row blocks to write and no header" if block is None
                             else "row blocks given by their entries need a header")
        m = len(header)
    if header is None:
        header = [f"x{j}" for j in range(m)]
    if len(header) != m:
        raise ValueError(f"header has {len(header)} names for {m} columns")
    if header and _is_numeric_row(header):
        raise ValueError(f"{path}: every column name reads as a number, so the header "
                         "would be read back as a data row")
    if any(c in name for name in header for c in ",\r\n"):
        raise ValueError(f"{path}: a column name holds a comma or a line break, so the "
                         "header would be read back split")
    line = ",".join(header)
    if header and (not line.strip() or line.startswith("\ufeff")):
        raise ValueError(f"{path}: the header line would be blank or start with a byte-order "
                         "mark, which the reader skips")
    runs = _ZeroRuns(m)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(line + "\n")
        while block is not None:
            if block.cols.size and block.cols.max() >= m:
                raise ValueError(f"row block has an entry in column {block.cols.max()}, "
                                 f"expected {m} columns")
            _write_rows(fh, block, runs)
            # Let go of this block before the next one is built.
            block = None
            block, width = _next_block(blocks)
            if width not in (None, m):
                raise ValueError(f"row block has {width} columns, expected {m}")


def save_matrix_csv(path, X, header=None):
    """Write a dense matrix, one CSV row per matrix row.

    ``X`` is a matrix, or an iterator over its row blocks in order, so a
    caller can write a matrix that never exists whole; the bytes are the
    same either way.  A block is a 2-D array or, when ``header`` is given,
    :class:`SparseRows`.  A block of the wrong width raises after the rows
    before it were written.

    ``header`` is a list of column names (defaults to ``x0..x{m-1}``).  A
    header that :func:`load_matrix_csv` would not read back as written is
    refused: one whose every name reads as a number (it would be a data
    row), a name holding a comma or a line break, and a header line that is
    blank or starts with a byte-order mark.
    """
    _write_matrix(path, X if isinstance(X, Iterator) else iter([X]), header)


def _is_numeric_row(cells):
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def _parse(lines):
    # comments=None: by default loadtxt drops everything after a '#', so
    # "1.0,2.0#x" would silently read as [1.0, 2.0].
    return np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2, comments=None)


def load_matrix_csv(path):
    """Read a matrix CSV, in UTF-8 with or without a byte-order mark; a
    non-numeric first row is taken as the header.

    Returns ``(X, header)`` with ``header`` None when the file starts with
    data; every data row has as many cells as the header, or else as the
    first data row.  A header made entirely of numeric-looking terms would
    be misread; the writers here refuse to write one.
    Blank and whitespace-only lines are skipped.  Errors name the path and
    the 1-based line of the file.

    Cells are parsed by numpy, which reads every float the writers emit
    (and any ``float()`` spelling of a decimal, ``inf`` or ``nan``) to the
    same bits as ``float()``, but refuses the Python-only literals
    ``float()`` would take: digit-group underscores (``1_0``) and
    non-ASCII digits.
    """
    # utf-8-sig: a byte-order mark would make the first cell non-numeric,
    # and the first data row would be taken for a header.
    with open(path, "r", encoding="utf-8-sig") as fh:
        numbered = [(k, ln.rstrip("\n").rstrip("\r")) for k, ln in enumerate(fh, start=1)
                    if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty file")
    first = numbered[0][1].split(",")
    header = None
    if not _is_numeric_row(first):
        header = first
        numbered = numbered[1:]
    if not numbered:
        raise ValueError(f"{path}: no data rows")
    lines = [ln for _, ln in numbered]
    commas = lines[0].count(",") if header is None else len(header) - 1
    for k, ln in numbered:
        if ln.count(",") != commas:
            raise ValueError(
                f"{path}: row {k} has {ln.count(',') + 1} cells, expected {commas + 1}"
            )
    try:
        X = _parse(lines)
    except ValueError as err:
        raise ValueError(f"{path}: {_locate(numbered, err)}") from None
    return X, header


def _locate(numbered, err):
    """Name the first line that the parser rejects on its own (error path)."""
    for k, ln in numbered:
        try:
            _parse([ln])
        except ValueError as line_err:
            # numpy numbers the rows of the one line it was given; drop that.
            reason = re.sub(r" at row \d+, column (\d+)", r" in column \1", str(line_err))
            return f"row {k} is not numeric: {reason}"
    return str(err)


def save_vector_csv(path, y, name="y"):
    """Write a vector as a single-column CSV with a header row."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"expected a vector, got shape {y.shape}")
    _write_matrix(path, iter([y[:, None]]), [name])


def load_vector_csv(path):
    """Read a one-column CSV (header optional) as a vector."""
    X, _ = load_matrix_csv(path)
    if X.shape[1] != 1:
        raise ValueError(f"{path}: expected one column, found {X.shape[1]}")
    return X[:, 0]


def write_table(path, header, rows):
    """Write ``header`` and ``rows`` as CSV: ``float`` cells as
    :func:`format_float` spells them, any other cell as :mod:`csv` writes it
    (quoted, RFC 4180, when it holds a comma, a double quote or a line
    break, ``"\\r"`` or ``"\\n"``)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # The csv writer quotes a cell for the characters of its line
        # terminator only, so it is given "\r\n", and each row it hands
        # over is written with "\n" in its place.
        writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
                            lineterminator="\r\n")
        writer.writerow(header)
        # float.__repr__ is format_float without a Python call per cell; it
        # spells a numpy float64, a float subclass, as the float it holds.
        writer.writerows([float.__repr__(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_json(path, doc):
    """Write ``doc`` as JSON indented by one space, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path, version):
    """Read a JSON document; raises ``ValueError`` prefixed with ``path``
    unless it parses to an object whose ``version`` field is ``version``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # a JSONDecodeError, or an integer too long to convert
            raise ValueError(f"{path}: {err}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(doc).__name__}")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise ValueError(f"{path}: unsupported version {doc.get('version')!r}")
    return doc


# What each type that ``json.load`` returns is called in a JSON document.
_JSON_KINDS = {type(None): "null", bool: "a boolean", int: "a number", float: "a number",
              str: "a string", list: "an array", dict: "an object"}


def json_array(path, doc, name, ndim):
    """Field ``name`` of a JSON document as a finite float array with
    ``ndim`` axes; raises ``ValueError`` naming ``path`` and the field.
    Every entry must be a JSON number: numpy alone would read the string
    ``"1.5"`` as 1.5 and ``true`` as 1.0."""
    what = f"a {ndim}-d array of numbers"
    if name not in doc:
        raise ValueError(f"{path}: field {name!r} is missing")
    try:
        a = np.asarray(doc[name], dtype=float)
        shaped = a.ndim == ndim
    except (TypeError, ValueError, OverflowError):
        shaped = False
    if not shaped:
        raise ValueError(f"{path}: field {name!r} must be {what}")
    # Shaped as asked, the field is a list of numbers or of such lists.
    entries = doc[name] if ndim == 1 else itertools.chain.from_iterable(doc[name])
    other = set(map(type, entries)) - {int, float}
    if other:
        found = " and ".join(sorted({_JSON_KINDS[t] for t in other}))
        raise ValueError(f"{path}: field {name!r} must be {what}, found {found}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: field {name!r} has non-finite entries")
    return a


def _integer(name, value):
    """``value`` of the count or seed ``name`` as an ``int``; raises
    ``ValueError`` unless it is an integer, Python's or numpy's.  A bool,
    which Python takes for an int, is none; ``int()`` alone would truncate
    2.5 to a count of 2, and numpy refuses a float seed only when it draws.
    A numpy integer becomes an ``int``, which ``json`` can write."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name, value):
    """``value`` of the setting ``name`` as a ``float``; raises
    ``ValueError`` unless it is a real number, Python's or numpy's, that a
    float can hold.  A bool, which Python takes for an int, is none, nor is
    a string that ``float()`` would read.  A numpy float becomes a
    ``float``, which ``json`` can write."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number a float can hold, got {value!r}") \
            from None


def _json_idf(path, doc):
    """Field ``idf`` of a model or vectorizer document, as :func:`json_array`
    reads it; raises ``ValueError`` naming ``path`` and the field if an
    entry is below 1, which no smoothed idf ``ln((1 + n) / (1 + df)) + 1``
    is, since df <= n."""
    idf = json_array(path, doc, "idf", 1)
    if np.any(idf < 1):
        raise ValueError(f"{path}: field 'idf' has an entry below 1, which no smoothed "
                         "idf has")
    return idf


def json_terms(path, doc, name):
    """Field ``name`` of a JSON document as a list of distinct strings;
    raises ``ValueError`` naming ``path`` and the field."""
    terms = doc.get(name)
    if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
        raise ValueError(f"{path}: field {name!r} must be a list of strings")
    if len(set(terms)) != len(terms):
        repeated = next(t for t, c in Counter(terms).items() if c > 1)
        raise ValueError(f"{path}: field {name!r} repeats the term {repeated!r}")
    return terms
