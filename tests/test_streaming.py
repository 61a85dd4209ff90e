"""Text rows streamed one block of documents at a time: the rows, the zero
rows, the ingested ``X.csv`` and text ``predict``'s scores must be those of
the whole corpus handled at once, and neither command may hold a dense
matrix of every document.  A fit on a text-like X may hold one more X-sized
array, not two."""

import csv
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import row_from_counts_reference, save_matrix_csv_reference, text_like_matrix
from cssnmf.cli import main
from cssnmf.io import write_table
from cssnmf.model import Factorization, FitConfig, FitReport, fit, predict_many, save_model
from cssnmf.text import (
    BLOCK_ROWS,
    RatedDocument,
    TfidfConfig,
    build_tfidf,
    load_corpus,
    load_vectorizer,
    tokenize,
    vectorize_many,
)

CFG = TfidfConfig()
WORDS = [f"w{j}x" for j in range(400)]
# About two and a half blocks.
N_DOCS = 2 * BLOCK_ROWS + BLOCK_ROWS // 2
BLOCK_STARTS = list(range(0, N_DOCS, BLOCK_ROWS))
BLOCK_ENDS = [min(start + BLOCK_ROWS, N_DOCS) - 1 for start in BLOCK_STARTS]


def boundary_texts(seed):
    """Documents of 1-40 Zipf-drawn words; the first and last document of
    every block is empty or has no term in the vocabulary (a stopword and a
    word of document frequency 1)."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, len(WORDS) + 1)
    p /= p.sum()
    texts = [" ".join(WORDS[j] for j in rng.choice(len(WORDS), size=int(rng.integers(1, 41)), p=p))
             for _ in range(N_DOCS)]
    for k, (first, last) in enumerate(zip(BLOCK_STARTS, BLOCK_ENDS)):
        oov = f"the once{seed}x{k}y"
        texts[first], texts[last] = ("", oov) if k % 2 == 0 else (oov, "")
    return texts


def corpus_of(texts):
    return [RatedDocument(id=f"d{i}", text=t, rating=1.0 + i % 5) for i, t in enumerate(texts)]


def reference_rows(texts, dtm):
    return [row_from_counts_reference(Counter(tokenize(t, CFG)), dtm.vocab, dtm.idf)
            for t in texts]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def write_corpus_csv(path, texts):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "text", "rating"])
        writer.writerows([f"d{i}", t, 1 + i % 5] for i, t in enumerate(texts))


def text_model(path, vectorizer, r, seed):
    """A model with ``vectorizer`` ``(terms, idf, TfidfConfig)`` and random
    l1-normalized topic rows over its terms."""
    rng = np.random.default_rng(seed)
    m = len(vectorizer[0])
    H = rng.random((r, m)) * (rng.random((r, m)) < 0.2)
    H /= H.sum(axis=1, keepdims=True)
    theta = rng.normal(size=r + 1)
    report = FitReport(objective_trace=[(0, 1.0, 1.0, 0.0)], final_objective=1.0,
                       iterations_run=0, converged=True, restart_index=0)
    save_model(path, Factorization(W=np.zeros((1, r)), H=H, theta=theta), FitConfig(r=r),
               report, vectorizer)
    return H, theta


def test_rows_equal_the_per_document_reference_across_block_boundaries():
    texts = boundary_texts(0)
    dtm = build_tfidf(corpus_of(texts), CFG)
    ref = reference_rows(texts, dtm)
    X = dtm.X
    assert same_bits(X, np.array([x for x, _ in ref]))
    assert dtm.zero_rows == [i for i, (_, is_zero) in enumerate(ref) if is_zero]
    assert set(BLOCK_STARTS + BLOCK_ENDS) <= set(dtm.zero_rows)
    blocks = list(dtm.sparse_blocks())
    sizes = [len(b.indptr) - 1 for b in blocks]
    assert sizes == [BLOCK_ROWS, BLOCK_ROWS, N_DOCS - 2 * BLOCK_ROWS]
    scattered = np.zeros_like(X)
    for start, b in zip(np.cumsum([0] + sizes), blocks):
        rows = start + np.repeat(np.arange(len(b.indptr) - 1), np.diff(b.indptr))
        scattered[rows, b.cols] = b.values
    assert same_bits(scattered, X)

    held_out = boundary_texts(1)
    expected = np.array([x for x, _ in reference_rows(held_out, dtm)])
    assert same_bits(vectorize_many(held_out, dtm.vocab, CFG, dtm.idf), expected)
    assert not expected[BLOCK_STARTS + BLOCK_ENDS].any()


def test_ingest_and_predict_across_block_boundaries(tmp_path):
    train, held_out = tmp_path / "train.csv", tmp_path / "held_out.csv"
    write_corpus_csv(train, boundary_texts(0))
    write_corpus_csv(held_out, boundary_texts(1))
    runner = CliRunner()
    res = runner.invoke(main, ["--out", str(tmp_path / "ing"), "ingest", str(train)])
    assert res.exit_code == 0, res.output

    dtm = build_tfidf(load_corpus(train), CFG)
    save_matrix_csv_reference(tmp_path / "X_ref.csv", dtm.X, header=list(dtm.vocab))
    assert (tmp_path / "ing" / "X.csv").read_bytes() == (tmp_path / "X_ref.csv").read_bytes()

    model_path = tmp_path / "model.json"
    H, theta = text_model(model_path, (dtm.vocab, dtm.idf, CFG), r=3, seed=5)
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(model_path),
                               str(held_out)])
    assert res.exit_code == 0, res.output
    docs = load_corpus(held_out)
    y_hats, W = predict_many(H, theta, vectorize_many([e.text for e in docs],
                                                      dtm.vocab, CFG, dtm.idf))
    write_table(tmp_path / "expected.csv", ["id", "y_hat", "w_1", "w_2", "w_3"],
                ([e.id, y, *w] for e, y, w in zip(docs, y_hats, W)))
    assert (tmp_path / "p" / "predictions.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()


# --------------------------------------------------------------- memory

# Documents and vocabulary of the memory guard: a dense X of 6 blocks by
# 800 terms is 37.5 MiB, a block 6.25 MiB.
GUARD_DOCS, GUARD_WORDS = 6 * BLOCK_ROWS, 800


def traced_peak(args):
    """Peak traced memory, in bytes, of one in-process ``cssnmf`` command."""
    tracemalloc.start()
    try:
        res = CliRunner().invoke(main, [str(a) for a in args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 0, res.output
    return peak


@pytest.fixture(scope="module")
def guard_corpus(tmp_path_factory):
    rng = np.random.default_rng(11)
    words = [f"g{j}q" for j in range(GUARD_WORDS)]
    path = tmp_path_factory.mktemp("guard") / "corpus.csv"
    write_corpus_csv(path, [" ".join(words[j] for j in rng.integers(0, GUARD_WORDS, size=20))
                            for _ in range(GUARD_DOCS)])
    return path


def test_ingest_and_predict_peak_below_half_a_dense_matrix(tmp_path, guard_corpus):
    ing = tmp_path / "ing"
    ingest_peak = traced_peak(["--out", ing, "ingest", guard_corpus, "--min-df", 0,
                               "--max-df", 1, "--stopwords", "none"])
    doc = json.loads((ing / "vectorizer.json").read_text())
    dense_bytes = GUARD_DOCS * len(doc["vocabulary"]) * 8
    assert dense_bytes >= 16 * 2**20
    assert ingest_peak < dense_bytes / 2, (ingest_peak, dense_bytes)

    model_path = tmp_path / "model.json"
    text_model(model_path, load_vectorizer(ing / "vectorizer.json"), r=3, seed=2)
    predict_peak = traced_peak(["--out", tmp_path / "p", "predict", model_path, guard_corpus])
    assert predict_peak < dense_bytes / 2, (predict_peak, dense_bytes)


def test_fit_peak_below_one_and_a_half_x():
    # A fit holds one n x m array at a time beside X: the W step's augmented
    # [X | s(Y - theta[0])], then a residual.  Keeping the first while
    # forming the second would take the peak to about 2 X.
    X, Y = text_like_matrix(1500, 1200, seed=31)
    tracemalloc.start()
    try:
        fit(X, Y, FitConfig(r=11, lam=0.01, max_iter=2, restarts=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * X.nbytes, (peak, X.nbytes)
