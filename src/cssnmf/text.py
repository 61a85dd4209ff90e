"""Ratings-corpus ingestion: tokenizing, TF-IDF weighting, and rating-balanced
subsampling.

A corpus is a list of (id, text, rating) records.  The pipeline lowercases,
splits on non-alphanumeric characters, drops single-character tokens and
stopwords, filters terms by document frequency, applies smoothed idf
weights to raw term counts, and l1-normalizes each document row.  The
stopword list ships with the package as a versioned data file so results
are reproducible across installations.

Text rows live as term counts.  Each document is counted on its own
(stopwords are dropped per distinct term, not per token), and a corpus
keeps the counts as CSR arrays: at the 3 % density of the benchmark's
corpora, about a fifteenth of the dense matrix.  Dense rows are built
``BLOCK_ROWS`` documents at a time, so ``cssnmf ingest`` writes ``X.csv``
and ``cssnmf predict`` scores text without holding a dense matrix of the
whole corpus.  :func:`tokenize` stays the public per-document tokenizer;
the counting finds the same terms without calling it, and the tests use
it as their oracle.
"""

import csv
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import repeat

import numpy as np

from .io import _is_numeric_row, json_array, json_terms, read_json, write_json

__all__ = [
    "RatedDocument",
    "RatedCorpus",
    "Vocabulary",
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

STOPWORD_LISTS = ("english", "none")

# Dense rows are built this many documents at a time.  A block of the
# widest text matrix the benchmark writes (1,185 terms) takes 9.7 MB, a
# third of its whole 3,000-document matrix.  Smaller blocks would cost
# time: text ``predict`` scores each block in one batched solve, and on a
# 2-core Xeon host scoring those 3,000 documents took 78 ms in 256-row
# blocks, 67-74 ms in 1,024-row blocks and 69 ms in a single call.
BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RatedDocument:
    id: str
    text: str
    rating: float = None


@dataclass
class RatedCorpus:
    """Corpus records.  Ratings may be any number; :func:`load_corpus`
    checks them against a rating range when it is given one."""

    entries: list

    def __len__(self):
        return len(self.entries)

    def ratings(self):
        out = []
        for e in self.entries:
            if e.rating is None:
                raise ValueError(f"document {e.id!r} has no rating")
            out.append(e.rating)
        return np.asarray(out, dtype=float)


@dataclass(frozen=True)
class Vocabulary:
    """Term list in column order, with its inverse lookup."""

    terms: tuple
    index: dict = field(hash=False, compare=False, default=None)

    @classmethod
    def from_terms(cls, terms):
        terms = tuple(terms)
        if len(set(terms)) != len(terms):
            raise ValueError("vocabulary terms must be unique")
        return cls(terms=terms, index={t: j for j, t in enumerate(terms)})

    def __len__(self):
        return len(self.terms)

    def __contains__(self, term):
        return term in self.index


@dataclass(frozen=True)
class TfidfConfig:
    min_df: float = 0.01
    max_df: float = 0.15
    stopwords: str = "english"
    lowercase: bool = True
    norm: str = "l1"

    def __post_init__(self):
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
    try:
        return TfidfConfig(**settings)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from None


@dataclass
class DocumentTermMatrix:
    """A corpus's term counts plus everything needed to vectorize unseen
    documents.

    The counts are CSR arrays: document ``i``'s terms are the columns
    ``cols[indptr[i]:indptr[i + 1]]``, with raw counts ``tfs`` at the same
    positions.  :meth:`blocks` builds the dense l1-normalized tf-idf rows
    ``BLOCK_ROWS`` documents at a time, and :attr:`X` all of them at once.
    ``zero_rows`` lists documents whose tokens all fell outside the
    vocabulary; their rows are all zeros and are legal model input.
    """

    vocab: Vocabulary
    doc_ids: list
    idf: np.ndarray
    zero_rows: list
    indptr: np.ndarray
    cols: np.ndarray
    tfs: np.ndarray

    def blocks(self):
        """The dense rows in order, ``BLOCK_ROWS`` documents per block."""
        n = len(self.indptr) - 1
        for start in range(0, n, BLOCK_ROWS):
            yield self._rows(start, min(start + BLOCK_ROWS, n))

    @property
    def X(self):
        """The dense ``(n, m)`` tf-idf matrix; each call builds it anew."""
        return self._rows(0, len(self.indptr) - 1)

    def _rows(self, start, stop):
        return _tfidf_rows(self.indptr[start:stop + 1], self.cols, self.tfs, self.idf)


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
    """Term -> column for a corpus whose vocabulary is not known yet: an
    unseen term takes the next column, so the keys are in column order."""

    def __missing__(self, term):
        self[term] = j = len(self)
        return j


def _count_terms(texts, cfg, columns_of):
    """Per-document term counts of ``texts`` as CSR arrays
    ``(indptr, cols, tfs)``.

    Each document is counted on its own, so only one document's tokens are
    alive at a time.  Stopwords are dropped per distinct term, and
    ``columns_of`` maps the other distinct terms to their columns.
    """
    stop = stopword_set(cfg.stopwords)
    indptr = [0]
    cols = array("q")
    tfs = array("q")
    for text in texts:
        counts = Counter(_TOKEN.findall(text.lower() if cfg.lowercase else text))
        for term in stop.intersection(counts):
            del counts[term]
        cols.extend(columns_of(counts))
        tfs.extend(counts.values())
        indptr.append(len(cols))
    return (np.array(indptr, dtype=np.intp), np.frombuffer(cols, dtype=np.int64),
            np.frombuffer(tfs, dtype=np.int64))


def _drop_unmapped(indptr, cols, tfs):
    """The CSR arrays without the entries whose column is -1."""
    keep = cols >= 0
    # Entries kept before each row boundary.
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return kept_before[indptr], cols[keep], tfs[keep]


def _tfidf_rows(indptr, cols, tfs, idf):
    """Dense l1-normalized tf-idf rows of the documents that ``indptr``
    (a slice of a CSR row pointer) spans; a row with no terms stays zero."""
    n = len(indptr) - 1
    lo, hi = indptr[0], indptr[-1]
    X = np.zeros((n, len(idf)))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    block_cols = cols[lo:hi]
    X[rows, block_cols] = tfs[lo:hi] * idf[block_cols]
    s = X.sum(axis=1)[:, None]
    # In place: dividing through a fancy index would copy the whole block.
    np.divide(X, s, out=X, where=s > 0)
    return X


def build_tfidf(corpus, cfg):
    """Vectorize a corpus.

    Terms are kept when their document frequency df satisfies
    ``ceil(min_df * n) <= df <= floor(max_df * n)``.  Weights are raw term
    count times the smoothed idf ``ln((1 + n) / (1 + df)) + 1``, and each
    nonzero row is l1-normalized.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    n = len(corpus)
    columns = _NewColumns()
    indptr, cols, tfs = _count_terms((e.text for e in corpus.entries), cfg,
                                     lambda terms: map(columns.__getitem__, terms))
    # A document counts each term once, so a term's df is its entry count.
    df = np.bincount(cols, minlength=len(columns)).tolist()
    # The 1e-9 nudges only absorb representation error in the fraction
    # products (e.g. 0.2 * 5 landing a hair above 1.0).
    lo = math.ceil(cfg.min_df * n - 1e-9)
    hi = math.floor(cfg.max_df * n + 1e-9)
    kept = [t for t, c in zip(columns, df) if lo <= c <= hi]
    if not kept:
        raise ValueError(
            f"empty vocabulary: no term has document frequency in [{lo}, {hi}] "
            f"across {n} documents (min_df={cfg.min_df}, max_df={cfg.max_df})"
        )
    vocab = Vocabulary.from_terms(sorted(kept))
    idf = np.array([math.log((1 + n) / (1 + df[columns[t]])) + 1.0 for t in vocab.terms])
    # Renumber the counted columns in vocabulary order; dropped terms get -1.
    renumber = np.full(len(columns), -1, dtype=np.int64)
    renumber[[columns[t] for t in vocab.terms]] = np.arange(len(vocab))
    indptr, cols, tfs = _drop_unmapped(indptr, renumber[cols], tfs)
    return DocumentTermMatrix(
        vocab=vocab,
        doc_ids=[e.id for e in corpus.entries],
        idf=idf,
        zero_rows=np.flatnonzero(np.diff(indptr) == 0).tolist(),
        indptr=indptr,
        cols=cols,
        tfs=tfs,
    )


def vectorize_many(docs, vocab, cfg, idf):
    """Vectorize unseen documents against a fitted vocabulary: one
    l1-normalized tf-idf row per document, built in one pass.

    Out-of-vocabulary tokens are dropped; a document with no known tokens
    maps to the zero vector.
    """
    idf = np.asarray(idf, dtype=float)
    if idf.shape[0] != len(vocab):
        raise ValueError(f"idf has {idf.shape[0]} entries for {len(vocab)} terms")
    # Out-of-vocabulary terms take column -1 and are dropped.
    counts = _count_terms(docs, cfg, lambda terms: map(vocab.index.get, terms, repeat(-1)))
    return _tfidf_rows(*_drop_unmapped(*counts), idf)


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


def balance(corpus, edges, seed):
    """Subsample so every rating interval contributes the same count.

    The per-interval count is the smallest interval population; sampling is
    without replacement and deterministic in the seed.  Output preserves
    interval order, then sampled order.
    """
    edges = list(edges)
    if len(edges) < 2 or any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"edges must be strictly ascending, got {edges}")
    buckets = [[] for _ in range(len(edges) - 1)]
    for i, e in enumerate(corpus.entries):
        if e.rating is None:
            raise ValueError(f"document {e.id!r} has no rating; cannot balance")
        buckets[interval_index(e.rating, edges)].append(i)
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
    entries = [corpus.entries[i] for i in chosen]
    return RatedCorpus(entries=entries)


# Corpus files with these suffixes are JSON-lines; any other is CSV.
JSONL_SUFFIXES = (".jsonl", ".ndjson")


def load_corpus(path, rating_range=None, require_rating=True):
    """Read a corpus from CSV (columns id, text, rating) or JSON-lines
    (objects with the same fields).  The rating field may be absent when
    ``require_rating`` is false.  When ``rating_range`` is a ``(lo, hi)``
    pair, every present rating must lie in ``[lo, hi]``."""
    path = str(path)
    entries = []
    if path.endswith(JSONL_SUFFIXES):
        with open(path, "r", encoding="utf-8") as fh:
            for k, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as err:
                    raise ValueError(f"{path}: line {k} is not valid JSON: {err}") from None
                if not isinstance(obj, dict):
                    raise ValueError(f"{path}: line {k} is not a JSON object")
                entries.append(_entry_from_record(obj, path, k, require_rating))
    else:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty corpus file")
            missing = {"id", "text"} - set(reader.fieldnames)
            if missing:
                raise ValueError(f"{path}: missing columns {sorted(missing)}")
            for k, rec in enumerate(reader, start=2):
                entries.append(_entry_from_record(rec, path, k, require_rating))
    if not entries:
        raise ValueError(f"{path}: corpus is empty")
    if rating_range is not None:
        lo, hi = rating_range
        for e in entries:
            if e.rating is not None and not lo <= e.rating <= hi:
                raise ValueError(
                    f"document {e.id!r} has rating {e.rating!r} outside [{lo}, {hi}]"
                )
    return RatedCorpus(entries=entries)


def is_corpus_file(path):
    """Whether ``path`` holds a corpus rather than a numeric matrix.

    A JSON-lines file is a corpus.  A CSV file is one if its header names
    the ``id`` and ``text`` columns and its first data record is not all
    numbers: an ingested ``X.csv`` whose vocabulary holds the terms ``id``
    and ``text`` has such a header, but numeric records.
    """
    if str(path).endswith(JSONL_SUFFIXES):
        return True
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        first = next(reader, [])
    return {"id", "text"} <= set(header) and not _is_numeric_row(first)


def _entry_from_record(rec, path, lineno, require_rating):
    try:
        doc_id = str(rec["id"])
        text = str(rec["text"])
    except KeyError as err:
        raise ValueError(f"{path}: record {lineno} lacks field {err}") from None
    raw = rec.get("rating")
    if raw is None or raw == "":
        if require_rating:
            raise ValueError(f"{path}: record {lineno} lacks a rating")
        rating = None
    else:
        try:
            rating = float(raw)
        except (TypeError, ValueError):
            raise ValueError(
                f"{path}: record {lineno} has non-numeric rating {raw!r}"
            ) from None
    return RatedDocument(id=doc_id, text=text, rating=rating)


VECTORIZER_VERSION = 1


def save_vectorizer(path, dtm, cfg):
    """Persist vocabulary, idf, and the vectorizer settings as JSON."""
    doc = {
        "version": VECTORIZER_VERSION,
        "config": asdict(cfg),
        "vocabulary": list(dtm.vocab.terms),
        "idf": [float(v) for v in dtm.idf],
        "doc_ids": list(dtm.doc_ids),
        "zero_rows": list(dtm.zero_rows),
    }
    write_json(path, doc)


def load_vectorizer(path):
    """Read a vectorizer JSON back as ``(Vocabulary, idf, TfidfConfig)``; a
    missing, mistyped, non-finite or mis-sized field raises ``ValueError``
    naming ``path`` and the field."""
    doc = read_json(path, VECTORIZER_VERSION)
    vocab = Vocabulary.from_terms(json_terms(path, doc, "vocabulary"))
    idf = json_array(path, doc, "idf", 1)
    if idf.shape[0] != len(vocab):
        raise ValueError(
            f"{path}: vectorizer document is inconsistent: idf/vocabulary sizes disagree"
        )
    return vocab, idf, tfidf_config(doc.get("config"), f"{path}: field 'config'")
