"""File syntax of every artifact: matrix CSVs, CSV tables and JSON documents,
and the rule of every setting.

Other modules build rows and dicts; only this one spells them on disk.
Floats are written with ``repr``, which round-trips exactly, so equal
values give byte-identical files.  Line endings are always ``"\\n"``.

The matrix writer takes one of two inputs: a dense matrix, or an iterator
of row blocks given by their entries in row-major order
(:class:`SparseRows`) with a header, which ``cssnmf ingest`` uses to write
a text matrix that never exists whole.  Text matrices are mostly zeros, so
the writer formats only the entries; every other cell is the literal
``0.0`` (which is ``repr(0.0)``), cut with its separators from one
all-zero line.  numpy works out which slice of that line comes before each
entry, and a table keeps each slice by its bounds, so no Python loop runs
per entry.  A dense matrix's entries are those whose bit pattern is not
``+0.0``; ``cssnmf ingest`` hands over the entries of its term counts, so
nothing scans for them.  Either way, and whatever the blocks, the bytes are
the same as formatting every cell.  A header whose every name reads as a
number is refused, since the reader would take it for a data row.  The
reader hands the body to numpy's C parser instead of calling ``float()``
per cell; the values are the same.  Text is read as UTF-8; a file that is
not names its path and the line of the first bad byte.

Every setting has one of two rules, each written once here: a count or a
seed is an integer at or above its floor (:func:`_integer`), and a
real-valued setting is a finite real number (:func:`_real`).
"""

import csv
import itertools
import json
import re
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
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


def save_matrix_csv(path, X, header=None):
    """Write a matrix, one CSV row per matrix row.

    ``X`` is a dense matrix, or an iterator over its row blocks in order as
    :class:`SparseRows`, with ``header``, so a caller can write a matrix
    that never exists whole; the bytes are the same either way.  A block
    with an entry past the header's columns raises after the rows before
    it were written.

    ``header`` is a list of column names (for a dense matrix, it defaults
    to ``x0..x{m-1}``).  A header that :func:`load_matrix_csv` would not
    read back as written is refused: one whose every name reads as a
    number (it would be a data row), a name holding a comma or a line
    break, and a header line that is blank or starts with a byte-order
    mark.
    """
    if not isinstance(X, Iterator):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {X.shape}")
        if header is None:
            header = [f"x{j}" for j in range(X.shape[1])]
        if len(header) != X.shape[1]:
            raise ValueError(f"header has {len(header)} names for {X.shape[1]} columns")
        # Its entries are those whose bit pattern is not +0.0, so -0.0 and
        # NaN go through repr like any other nonzero.
        rows, cols = np.nonzero(np.ascontiguousarray(X).view(np.int64))
        X = iter([SparseRows(np.searchsorted(rows, np.arange(X.shape[0] + 1)), cols,
                             X[rows, cols])])
    block = next(X, None)
    if header is None:
        raise ValueError("no row blocks to write and no header" if block is None
                         else "row blocks given by their entries need a header")
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
    m = len(header)
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
            block = next(X, None)


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


@contextmanager
def _read_text(path, newline=None):
    """``path`` open for reading as UTF-8, with or without a byte-order
    mark.  A byte that is not UTF-8 raises ``ValueError`` naming ``path``
    and the 1-based line the byte is on, which only then is looked for in
    the file's bytes."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            # Lines end as the text reader ends them: at "\n", "\r\n" or "\r".
            k = err.start
            line = data.count(b"\n", 0, k) + data.count(b"\r", 0, k) - data.count(b"\r\n", 0, k)
            raise ValueError(f"{path}: line {line + 1} is not UTF-8 "
                             f"(0x{data[k]:02x}: {err.reason})") from None
        raise


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
    # The reader drops a byte-order mark, which would make the first cell
    # non-numeric, and the first data row would be taken for a header.
    with _read_text(path) as fh:
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
    save_matrix_csv(path, y[:, None], [name])


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


def _integer(name, value, least):
    """``value`` of the count or seed ``name`` as an ``int``; raises
    ``ValueError`` unless it is an integer, Python's or numpy's, of at
    least ``least``.  A bool, which Python takes for an int, is none;
    ``int()`` alone would truncate 2.5 to a count of 2, and numpy refuses a
    float seed only when it draws.  A numpy integer becomes an ``int``,
    which ``json`` can write."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _real(name, value):
    """``value`` of the setting ``name`` as a finite ``float``; raises
    ``ValueError`` unless it is a real number, Python's or numpy's, that a
    float can hold, and neither infinite nor NaN, which no setting takes.
    A bool, which Python takes for an int, is none, nor is a string that
    ``float()`` would read.  A numpy float becomes a ``float``, which
    ``json`` can write."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a real number a float can hold, got {value!r}") \
            from None
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


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
