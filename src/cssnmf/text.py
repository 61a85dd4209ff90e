"""Ratings-corpus ingestion: tokenizing, TF-IDF weighting, and rating-balanced
subsampling.

A corpus is a list of (id, text, rating) records.  The pipeline lowercases,
splits on non-alphanumeric characters, drops single-character tokens and
stopwords, filters terms by document frequency, applies smoothed idf
weights to raw term counts, and l1-normalizes each document row.  The
stopword list ships with the package as a versioned data file so results
are reproducible across installations.  A fitted vectorizer is one value,
``(terms, idf, TfidfConfig)``, which :func:`_vectorizer` reads from
``vectorizer.json`` and ``model.json`` alike.

Text rows live as term counts.  Each document is lowercased and split on
its own: a document that is ASCII after lowercasing through one byte table
that keeps the 62 ASCII letters and digits and turns every other byte into
a space, any other document by the Unicode token pattern, the only path
that handles non-ASCII text.  The tokens of every document then map to
columns in one pass, stopwords, one-character tokens (which only the byte
table yields) and unknown terms to -1, which is never counted, and numpy
counts the (document, column) pairs.  A corpus keeps the counts as CSR
arrays: at the 3 % density of the benchmark's corpora, about a fifteenth
of the dense matrix.  Rows are built ``BLOCK_ROWS`` documents at a time,
so ``cssnmf ingest`` writes ``X.csv``, from each block's nonzeros, and
``cssnmf predict`` scores text, from dense blocks, without holding a
dense matrix of the whole corpus.  :func:`tokenize` stays the public
per-document tokenizer, on the token pattern; the counting finds the same
terms without calling it, and the tests use it as their oracle.
"""

import csv
import json
import math
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from importlib import resources
from itertools import chain, repeat

import numpy as np

from .io import (_JSON_KINDS, SparseRows, _is_numeric_row, _json_idf, _read_text, _real,
                 json_terms, read_json, write_json)

__all__ = [
    "RatedDocument",
    "TfidfConfig",
    "tfidf_config",
    "DocumentTermMatrix",
    "stopword_set",
    "tokenize",
    "build_tfidf",
    "balance",
    "vectorize_many",
    "interval_index",
    "load_corpus",
    "is_corpus_file",
    "save_vectorizer",
    "load_vectorizer",
]

# A token is a maximal alphanumeric run of length >= 2 (underscore excluded).
_TOKEN = re.compile(r"[^\W_]{2,}")
# Splits ASCII text as _TOKEN does, one-character runs aside: the 62 ASCII
# letters and digits map to themselves and every other byte to a space.
_ASCII_SPLIT = bytes(b if chr(b).isalnum() else 32 for b in range(128)) + b" " * 128

STOPWORD_LISTS = ("english", "none")

# Dense rows are built this many documents at a time.  A block of the
# widest text matrix the benchmark writes (1,185 terms) takes 9.7 MB, a
# third of its whole 3,000-document matrix.  Smaller blocks would cost
# time: text ``predict`` scores each block in one batched solve, and on a
# 2-core Xeon host scoring those 3,000 documents took 76 ms in 256-row
# blocks, 71 ms in 1,024-row blocks and 68 ms in a single call (medians
# of 25).
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RatedDocument:
    id: str
    text: str
    rating: float = None


@dataclass(frozen=True)
class TfidfConfig:
    min_df: float = 0.01
    max_df: float = 0.15
    stopwords: str = "english"
    lowercase: bool = True
    norm: str = "l1"

    def __post_init__(self):
        # Settings also come from JSON, where true is no fraction and "no"
        # no boolean.
        for name in ("min_df", "max_df"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not isinstance(self.lowercase, bool):
            raise ValueError(f"lowercase must be a boolean, got {self.lowercase!r}")
        if not 0 <= self.min_df <= 1 or not 0 < self.max_df <= 1:
            raise ValueError(
                f"df bounds must be fractions, got min_df={self.min_df}, max_df={self.max_df}"
            )
        if self.min_df > self.max_df:
            raise ValueError(f"min_df={self.min_df} exceeds max_df={self.max_df}")
        if self.stopwords not in STOPWORD_LISTS:
            raise ValueError(
                f"stopwords must be one of {STOPWORD_LISTS}, got {self.stopwords!r}"
            )
        if self.norm != "l1":
            raise ValueError(f"only l1 normalization is supported, got {self.norm!r}")


def tfidf_config(settings, where):
    """Rebuild a :class:`TfidfConfig` from persisted keyword settings;
    raises ``ValueError`` prefixed with ``where`` if they are refused."""
    if not isinstance(settings, dict):
        raise ValueError(f"{where} must be an object of settings")
    try:
        return TfidfConfig(**settings)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from None


@dataclass
class DocumentTermMatrix:
    """A corpus's term counts plus everything needed to vectorize unseen
    documents.

    The counts are CSR arrays: document ``i``'s terms are the columns
    ``cols[indptr[i]:indptr[i + 1]]``, ascending, with raw counts ``tfs``
    at the same positions.  :meth:`sparse_blocks` builds the l1-normalized
    tf-idf rows ``BLOCK_ROWS`` documents at a time as their nonzeros, and
    :attr:`X` all of them at once as a dense matrix.  ``vocab`` is the
    tuple of terms in column order.  :attr:`zero_rows` lists documents
    whose tokens all fell outside the vocabulary; their rows are all zeros
    and are legal model input.
    """

    vocab: tuple
    doc_ids: list
    idf: np.ndarray
    indptr: np.ndarray
    cols: np.ndarray
    tfs: np.ndarray

    def sparse_blocks(self):
        """The rows in order as :class:`~cssnmf.io.SparseRows`,
        ``BLOCK_ROWS`` documents per block, each the same values, bit for
        bit, as the rows of :attr:`X`."""
        for start in range(0, len(self.indptr) - 1, BLOCK_ROWS):
            # Indexed, not unpacked: the dense block is freed before the yield.
            yield _tfidf(self.indptr[start:start + BLOCK_ROWS + 1], self.cols, self.tfs,
                         self.idf)[1]

    @property
    def X(self):
        """The dense ``(n, m)`` tf-idf matrix; each call builds it anew."""
        return _tfidf(self.indptr, self.cols, self.tfs, self.idf)[0]

    @property
    def zero_rows(self):
        """The indices of the documents with no term in the vocabulary,
        ascending."""
        return np.flatnonzero(np.diff(self.indptr) == 0).tolist()


@lru_cache(maxsize=None)
def stopword_set(name):
    """Load a named stopword list shipped with the package."""
    if name == "none":
        return frozenset()
    if name != "english":
        raise ValueError(f"unknown stopword list {name!r}")
    text = resources.files("cssnmf.data").joinpath("stopwords_english.txt").read_text("utf-8")
    words = [ln.strip() for ln in text.splitlines()]
    return frozenset(w for w in words if w and not w.startswith("#"))


def tokenize(text, cfg):
    """Split text into terms: alphanumeric runs of length >= 2, lowercased
    when configured, with stopwords removed."""
    if cfg.lowercase:
        text = text.lower()
    stop = stopword_set(cfg.stopwords)
    return [t for t in _TOKEN.findall(text) if t not in stop]


class _NewColumns(dict):
    """Term -> column for a corpus whose vocabulary is not known yet.

    Stopwords and one-character tokens map to -1; any other unseen term
    takes the next column, and :attr:`terms` lists the counted terms in
    column order.
    """

    def __init__(self, stopwords):
        super().__init__(dict.fromkeys(stopwords, -1))
        self.terms = []

    def __missing__(self, term):
        if len(term) == 1:
            self[term] = -1
            return -1
        self[term] = j = len(self.terms)
        self.terms.append(term)
        return j


def _split(text, lowercase):
    """The alphanumeric runs of ``text``, lowercased when configured: those
    :func:`tokenize` finds, plus, in ASCII text, the one-character runs,
    which the callers never count."""
    if lowercase:
        # Before the ASCII test: the Kelvin sign lowercases to an ASCII "k".
        text = text.lower()
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_SPLIT).decode("ascii").split()
    return _TOKEN.findall(text)


def _count_terms(texts, cfg, columns_of):
    """Per-document term counts of ``texts`` as CSR arrays
    ``(indptr, cols, tfs)``, columns ascending within each document.

    Each document is split on its own by :func:`_split`.  ``columns_of``
    maps the tokens of the whole call, in one pass, to their columns, with
    -1 for stopwords, one-character tokens and terms outside the
    vocabulary; those are never counted.  numpy then counts the (document,
    column) pairs.
    """
    sizes = []

    def tokens():
        for text in texts:
            found = _split(text, cfg.lowercase)
            sizes.append(len(found))
            yield found

    cols = np.fromiter(columns_of(chain.from_iterable(tokens())), dtype=np.int64)
    docs = np.repeat(np.arange(len(sizes)), sizes)
    known = cols >= 0
    width = max(int(cols.max(initial=-1)) + 1, 1)
    pairs, tfs = np.unique(docs[known] * width + cols[known], return_counts=True)
    docs, cols = np.divmod(pairs, width)
    return np.searchsorted(docs, np.arange(len(sizes) + 1)), cols, tfs


def _drop_unmapped(indptr, cols, tfs):
    """The CSR arrays without the entries whose column is -1."""
    keep = cols >= 0
    # Entries kept before each row boundary.
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return kept_before[indptr], cols[keep], tfs[keep]


def _tfidf(indptr, cols, tfs, idf):
    """The l1-normalized tf-idf rows of the documents that ``indptr`` (a
    slice of a CSR row pointer) spans, as ``(dense rows, SparseRows)``; a
    row with no terms stays zero.  The entries are in the order of
    ``cols``, which the writer needs ascending within each row.

    Each row's sum comes from its dense row, because the pairwise summation
    over it sets the sum's bits; every entry is then divided once, and the
    same quotients fill both forms.
    """
    n = len(indptr) - 1
    lo, hi = indptr[0], indptr[-1]
    rows = np.repeat(np.arange(n), np.diff(indptr))
    block_cols = cols[lo:hi]
    w = tfs[lo:hi] * idf[block_cols]
    X = np.zeros((n, len(idf)))
    X[rows, block_cols] = w
    s = X.sum(axis=1)[rows]
    np.divide(w, s, out=w, where=s > 0)
    X[rows, block_cols] = w
    return X, SparseRows(indptr - lo, block_cols, w)


def build_tfidf(corpus, cfg):
    """Vectorize a corpus, a sequence of :class:`RatedDocument`.

    Terms are kept when their document frequency df satisfies
    ``ceil(min_df * n) <= df <= floor(max_df * n)``.  Weights are raw term
    count times the smoothed idf ``ln((1 + n) / (1 + df)) + 1``, and each
    nonzero row is l1-normalized.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    n = len(corpus)
    columns = _NewColumns(stopword_set(cfg.stopwords))
    indptr, cols, tfs = _count_terms((e.text for e in corpus), cfg,
                                     lambda terms: map(columns.__getitem__, terms))
    # A document counts each term once, so a term's df is its entry count.
    df = np.bincount(cols, minlength=len(columns.terms)).tolist()
    # The 1e-9 nudges only absorb representation error in the fraction
    # products (e.g. 0.2 * 5 landing a hair above 1.0).
    lo = math.ceil(cfg.min_df * n - 1e-9)
    hi = math.floor(cfg.max_df * n + 1e-9)
    kept = [t for t, c in zip(columns.terms, df) if lo <= c <= hi]
    if not kept:
        raise ValueError(
            f"empty vocabulary: no term has document frequency in [{lo}, {hi}] "
            f"across {n} documents (min_df={cfg.min_df}, max_df={cfg.max_df})"
        )
    vocab = tuple(sorted(kept))
    idf = np.array([math.log((1 + n) / (1 + df[columns[t]])) + 1.0 for t in vocab])
    # Renumber the counted columns in vocabulary order; dropped terms get -1.
    renumber = np.full(len(columns.terms), -1, dtype=np.int64)
    renumber[[columns[t] for t in vocab]] = np.arange(len(vocab))
    indptr, cols, tfs = _drop_unmapped(indptr, renumber[cols], tfs)
    # Columns ascending within each document, as the CSV writer takes them.
    order = np.argsort(np.repeat(np.arange(n), np.diff(indptr)) * len(vocab) + cols)
    cols, tfs = cols[order], tfs[order]
    return DocumentTermMatrix(
        vocab=vocab,
        doc_ids=[e.id for e in corpus],
        idf=idf,
        indptr=indptr,
        cols=cols,
        tfs=tfs,
    )


def vectorize_many(docs, vocab, cfg, idf):
    """Vectorize unseen documents against a fitted vocabulary, the sequence
    of its terms in column order: one l1-normalized tf-idf row per
    document, built in one pass.

    Out-of-vocabulary tokens are dropped; a document with no known tokens
    maps to the zero vector.  A vocabulary that repeats a term raises
    ``ValueError``.
    """
    idf = np.asarray(idf, dtype=float)
    if idf.shape[0] != len(vocab):
        raise ValueError(f"idf has {idf.shape[0]} entries for {len(vocab)} terms")
    # Out-of-vocabulary terms, and stopwords and one-character terms even
    # when the vocabulary holds them, take column -1 and are not counted.
    stop = stopword_set(cfg.stopwords)
    columns = {t: -1 if len(t) == 1 or t in stop else j for j, t in enumerate(vocab)}
    if len(columns) != len(vocab):
        raise ValueError("vocabulary terms must be unique")
    counts = _count_terms(docs, cfg, lambda terms: map(columns.get, terms, repeat(-1)))
    return _tfidf(*counts, idf)[0]


def interval_index(value, edges):
    """Index of the rating interval containing ``value``.

    Intervals are half-open [a, b) except the last, which is closed so the
    top rating is not orphaned.  Values outside every interval raise.
    """
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        if lo <= value < hi or (k == len(edges) - 2 and value == hi):
            return k
    raise ValueError(f"value {value!r} falls outside intervals over {list(edges)}")


def check_edges(edges, what="edges"):
    """``edges`` as a list: at least two, strictly ascending, so no NaN."""
    if len(edges := list(edges)) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"{what} needs at least two strictly ascending edges, got {edges}")
    return edges


def balance(corpus, edges, seed):
    """Subsample so every rating interval contributes the same count.

    The per-interval count is the smallest interval population; sampling is
    without replacement and deterministic in the seed.  The output is a
    list that preserves interval order, then sampled order.
    """
    edges = check_edges(edges)
    buckets = [[] for _ in range(len(edges) - 1)]
    for i, e in enumerate(corpus):
        if e.rating is None:
            raise ValueError(f"document {e.id!r} has no rating; cannot balance")
        try:
            buckets[interval_index(e.rating, edges)].append(i)
        except ValueError:
            raise ValueError(f"document {e.id!r} has rating {e.rating!r} outside the edges "
                             f"{edges}; cannot balance") from None
    for k, b in enumerate(buckets):
        if not b:
            lo, hi = edges[k], edges[k + 1]
            closer = "]" if k == len(buckets) - 1 else ")"
            raise ValueError(f"rating interval [{lo}, {hi}{closer} is empty")
    take = min(len(b) for b in buckets)
    rng = np.random.default_rng(seed)
    chosen = []
    for b in buckets:
        picks = rng.choice(len(b), size=take, replace=False)
        chosen.extend(b[p] for p in picks)
    return [corpus[i] for i in chosen]


# Corpus files with these suffixes are JSON-lines; any other is CSV.
JSONL_SUFFIXES = (".jsonl", ".ndjson")
# Longest CSV field a corpus may hold, in characters: a field is a whole
# review, and the csv module's default limit is 131,072.  The limit is a C
# long, which holds this value on every platform.
CSV_FIELD_LIMIT = 2**31 - 1


@contextmanager
def _long_csv_fields():
    """Let the csv module read fields of up to :data:`CSV_FIELD_LIMIT`
    characters while the block runs."""
    limit = csv.field_size_limit(CSV_FIELD_LIMIT)
    try:
        yield
    finally:
        csv.field_size_limit(limit)


def load_corpus(path, rating_range=None, require_rating=True):
    """Read a corpus, as a list of :class:`RatedDocument`, from CSV (columns
    id, text, rating) or JSON-lines (objects with the same fields), in UTF-8
    with or without a byte-order mark.  A CSV field may hold up to
    :data:`CSV_FIELD_LIMIT` characters, and a CSV record must have as many
    fields as the header.  The rating field may be absent when
    ``require_rating`` is false.  When ``rating_range`` is a ``(lo, hi)``
    pair, every present rating must lie in ``[lo, hi]``."""
    path = str(path)
    entries = []
    if path.endswith(JSONL_SUFFIXES):
        with _read_text(path) as fh:
            for k, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as err:
                    # JSONDecodeError, or an integer too long to convert.
                    raise ValueError(f"{path}: line {k} is not valid JSON: {err}") from None
                except RecursionError:
                    raise ValueError(f"{path}: line {k} is JSON nested too deeply to read") \
                        from None
                if not isinstance(obj, dict):
                    raise ValueError(f"{path}: line {k} is not a JSON object")
                where = f"{path}: line {k}"
                _check_json_fields(obj, where)
                entries.append(_entry_from_record(obj, where, require_rating))
    else:
        with _read_text(path, newline="") as fh, _long_csv_fields():
            reader = csv.DictReader(fh)
            try:
                if reader.fieldnames is None:
                    raise ValueError(f"{path}: empty corpus file")
                missing = {"id", "text"} - set(reader.fieldnames)
                if missing:
                    raise ValueError(f"{path}: missing columns {sorted(missing)}")
                for k, rec in enumerate(reader, start=2):
                    # DictReader keys extra fields under None and fills missing ones with None.
                    if None in rec or None in rec.values():
                        count = "more" if None in rec else "fewer"
                        raise ValueError(f"{path}: record {k} has {count} fields than the "
                                         f"header's {len(reader.fieldnames)}")
                    entries.append(_entry_from_record(rec, f"{path}: record {k}", require_rating))
            except csv.Error as err:
                # Record 1 is the header; each record after it became an entry.
                k = len(entries) + 2 if reader.line_num else 1
                raise ValueError(f"{path}: record {k} is not valid CSV: {err}") from None
    if not entries:
        raise ValueError(f"{path}: corpus is empty")
    if rating_range is not None:
        lo, hi = rating_range
        for e in entries:
            if e.rating is not None and not lo <= e.rating <= hi:
                raise ValueError(
                    f"document {e.id!r} has rating {e.rating!r} outside [{lo}, {hi}]"
                )
    return entries


def is_corpus_file(path):
    """Whether ``path`` holds a corpus rather than a numeric matrix.

    A JSON-lines file is a corpus.  A CSV file is one if its header names
    the ``id`` or the ``text`` column and its first data record is not all
    numbers: an ingested ``X.csv`` whose vocabulary holds the terms ``id``
    and ``text`` has such a header, but numeric records, and a corpus that
    misnames one of the two columns is read as one, so that
    :func:`load_corpus` names the column it lacks.
    """
    if str(path).endswith(JSONL_SUFFIXES):
        return True
    with _read_text(path, newline="") as fh, _long_csv_fields():
        reader = csv.reader(fh)
        header = None
        try:
            header = next(reader, [])
            first = next(reader, [])
        except csv.Error as err:
            k = 1 if header is None else 2
            raise ValueError(f"{path}: record {k} is not valid CSV: {err}") from None
    return bool({"id", "text"} & set(header)) and not _is_numeric_row(first)


# The JSON types a JSON-lines record's fields may have.  A boolean, which
# Python takes for an int, is none of them; a null rating is no rating.
_JSON_FIELD_TYPES = {
    "id": ((str, int), "a string or an integer"),
    "text": ((str,), "a string"),
    "rating": ((int, float, str, type(None)), "a number or a numeric string"),
}


def _check_json_fields(obj, where):
    """Refuse a field of JSON-lines record ``obj`` whose type no CSV cell
    stands for: :func:`_entry_from_record` reads its fields as CSV text, with
    ``str`` and ``float``, so it would take ``null`` for the text ``'None'``
    and ``true`` for the rating 1.0."""
    for field, (types, expected) in _JSON_FIELD_TYPES.items():
        value = obj.get(field)
        if field in obj and (isinstance(value, bool) or not isinstance(value, types)):
            raise ValueError(f"{where}: {field} is {_JSON_KINDS[type(value)]}, "
                             f"expected {expected}")


def _entry_from_record(rec, where, require_rating):
    try:
        doc_id = str(rec["id"])
        text = str(rec["text"])
    except KeyError as err:
        raise ValueError(f"{where} lacks field {err}") from None
    raw = rec.get("rating")
    if raw is None or raw == "":
        if require_rating:
            raise ValueError(f"{where} lacks a rating")
        rating = None
    else:
        try:
            rating = float(raw)
        except (ValueError, OverflowError):
            raise ValueError(f"{where} has non-numeric rating {raw!r}") from None
    return RatedDocument(id=doc_id, text=text, rating=rating)


VECTORIZER_VERSION = 1


def save_vectorizer(path, dtm, cfg):
    """Persist vocabulary, idf, and the vectorizer settings as JSON; one
    that :func:`load_vectorizer` would refuse raises ``ValueError``, with
    its message, before the file is opened."""
    doc = {
        "version": VECTORIZER_VERSION,
        "config": asdict(cfg),
        "vocabulary": list(dtm.vocab),
        "idf": [float(v) for v in dtm.idf],
        "doc_ids": list(dtm.doc_ids),
        "zero_rows": list(dtm.zero_rows),
    }
    _read_vectorizer(path, doc)
    write_json(path, doc)


def _vectorizer(path, doc, settings, where):
    """The ``(terms, idf, TfidfConfig)`` of a JSON document: its fields
    ``vocabulary`` (the terms, as a tuple) and ``idf``, and ``settings``,
    its field ``where``.  A bad field raises ``ValueError`` naming ``path``
    and the field; the sizes are the caller's to check."""
    return (tuple(json_terms(path, doc, "vocabulary")), _json_idf(path, doc),
            tfidf_config(settings, f"{path}: field {where!r}"))


def load_vectorizer(path):
    """Read a vectorizer JSON back as ``(terms, idf, TfidfConfig)``; a bad
    field, or an idf of another size than the vocabulary, raises
    ``ValueError`` naming ``path``."""
    return _read_vectorizer(path, read_json(path, VECTORIZER_VERSION))


def _read_vectorizer(path, doc):
    """The ``(terms, idf, TfidfConfig)`` of the vectorizer document ``doc``
    read from or bound for ``path``, refused as :func:`load_vectorizer`
    says."""
    terms, idf, _ = vectorizer = _vectorizer(path, doc, doc.get("config"), "config")
    if len(idf) != len(terms):
        raise ValueError(
            f"{path}: vectorizer document is inconsistent: idf/vocabulary sizes disagree"
        )
    return vectorizer
