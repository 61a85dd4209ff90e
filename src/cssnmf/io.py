"""File syntax of every artifact: matrix CSVs, CSV tables and JSON documents.

Other modules build rows and dicts; only this one spells them on disk.
Floats are written with ``repr``, which round-trips exactly, so equal
values give byte-identical files.  Line endings are always ``"\\n"``.

Text matrices are mostly zeros, so the matrix writer formats only the
nonzero entries and writes the literal ``0.0`` (which is ``repr(0.0)``)
for the rest; the bytes are the same as formatting every cell.  The
reader hands the body to numpy's C parser instead of calling ``float()``
per cell; the values are the same.
"""

import csv
import json
import re
from collections import Counter

import numpy as np

__all__ = [
    "format_float",
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


def _write_matrix(path, X, header):
    """Write ``header`` and the rows of the 2-D array ``X``, formatting only
    the entries whose bit pattern is not ``+0.0``."""
    n, m = X.shape
    # Comparing bit patterns sends -0.0 and NaN through repr like any other
    # nonzero; only +0.0 takes the literal.
    rows, cols = np.nonzero(np.ascontiguousarray(X).view(np.int64))
    cells = [repr(v) for v in X[rows, cols].tolist()]
    cols = cols.tolist()
    ends = np.searchsorted(rows, np.arange(1, n + 1)).tolist()
    zeros = ["0.0"] * m
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        start = 0
        for end in ends:
            line = zeros.copy()
            for j, cell in zip(cols[start:end], cells[start:end]):
                line[j] = cell
            fh.write(",".join(line) + "\n")
            start = end


def save_matrix_csv(path, X, header=None):
    """Write a dense matrix, one CSV row per matrix row.

    ``header`` is a list of column names (defaults to ``x0..x{m-1}``).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {X.shape}")
    if header is None:
        header = [f"x{j}" for j in range(X.shape[1])]
    if len(header) != X.shape[1]:
        raise ValueError(f"header has {len(header)} names for {X.shape[1]} columns")
    _write_matrix(path, X, header)


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
    """Read a matrix CSV; a non-numeric first row is taken as the header.

    Returns ``(X, header)`` with ``header`` None when the file starts with
    data.  A header made entirely of numeric-looking terms would be
    misread; the writers here always emit at least one non-numeric name.
    Blank and whitespace-only lines are skipped.  Errors name the path and
    the 1-based line of the file.

    Cells are parsed by numpy, which reads every float the writers emit
    (and any ``float()`` spelling of a decimal, ``inf`` or ``nan``) to the
    same bits as ``float()``, but refuses the Python-only literals
    ``float()`` would take: digit-group underscores (``1_0``) and
    non-ASCII digits.
    """
    with open(path, "r", encoding="utf-8") as fh:
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
    commas = lines[0].count(",")
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
    _write_matrix(path, y[:, None], [name])


def load_vector_csv(path):
    """Read a one-column CSV (header optional) as a vector."""
    X, _ = load_matrix_csv(path)
    if X.shape[1] != 1:
        raise ValueError(f"{path}: expected one column, found {X.shape[1]}")
    return X[:, 0]


def write_table(path, header, rows):
    """Write ``header`` and ``rows`` as CSV: ``float`` cells through
    :func:`format_float`, any other cell as :mod:`csv` writes it (quoted,
    RFC 4180, when it holds a comma, a double quote or a line break)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_float(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def write_json(path, doc):
    """Write ``doc`` as JSON indented by one space, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path, version):
    """Read a JSON document; raises ``ValueError`` unless it is an object
    whose ``version`` field is ``version``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, found {type(doc).__name__}")
    if doc.get("version") != version:
        raise ValueError(f"{path}: unsupported version {doc.get('version')!r}")
    return doc


def json_array(path, doc, name, ndim):
    """Field ``name`` of a JSON document as a finite float array with
    ``ndim`` axes; raises ``ValueError`` naming ``path`` and the field."""
    if name not in doc:
        raise ValueError(f"{path}: field {name!r} is missing")
    try:
        a = np.asarray(doc[name], dtype=float)
        shaped = a.ndim == ndim
    except (TypeError, ValueError):
        shaped = False
    if not shaped:
        raise ValueError(f"{path}: field {name!r} must be a {ndim}-d array of numbers")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{path}: field {name!r} has non-finite entries")
    return a


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
