import csv
import json
import math
import string
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import row_from_counts_reference, same_vectorizer, vectorizers
from cssnmf.text import (
    DocumentTermMatrix,
    RatedDocument,
    TfidfConfig,
    balance,
    build_tfidf,
    interval_index,
    load_corpus,
    load_vectorizer,
    save_vectorizer,
    stopword_set,
    tokenize,
    vectorize_many,
)

NO_STOP = TfidfConfig(min_df=0.0, max_df=1.0, stopwords="none")


def corpus_of(texts, ratings=None):
    return [
        RatedDocument(id=f"d{i}", text=t, rating=None if ratings is None else ratings[i])
        for i, t in enumerate(texts)
    ]


# ----------------------------------------------------------------- tokenize

def test_tokenize_basic():
    cfg = TfidfConfig()
    assert tokenize("Great teacher!", cfg) == ["great", "teacher"]


def test_tokenize_removes_stopwords():
    cfg = TfidfConfig()
    assert tokenize("the and of", cfg) == []


def test_tokenize_splits_on_apostrophe():
    assert tokenize("don't stop", TfidfConfig()) == ["don", "stop"]


def test_tokenize_drops_short_tokens_and_underscores():
    assert tokenize("a b cd snake_case x9", NO_STOP) == ["cd", "snake", "case", "x9"]


def test_tokenize_keeps_digit_runs():
    assert tokenize("room 101!", NO_STOP) == ["room", "101"]


def test_tokenize_case_sensitivity_is_configurable():
    cfg = TfidfConfig(lowercase=False, stopwords="none")
    assert tokenize("Great TEACHER", cfg) == ["Great", "TEACHER"]


def test_stopword_list_is_versioned_and_fixed():
    words = stopword_set("english")
    assert len(words) == 318
    assert {"the", "and", "of"} <= words
    assert "don" not in words
    assert stopword_set("none") == frozenset()


# -------------------------------------------------------------- build_tfidf

def test_single_term_corpus():
    dtm = build_tfidf(corpus_of(["word", "word"]), NO_STOP)
    assert dtm.vocab == ("word",)
    assert np.array_equal(dtm.X, [[1.0], [1.0]])
    assert dtm.zero_rows == []


def test_max_df_excludes_ubiquitous_terms():
    texts = [f"common unique{i}" for i in range(10)]
    cfg = TfidfConfig(min_df=0.0, max_df=0.15, stopwords="none")
    dtm = build_tfidf(corpus_of(texts), cfg)
    assert "common" not in dtm.vocab
    assert all(f"unique{i}" in dtm.vocab for i in range(10))


def test_five_document_hand_computed_oracle():
    # Hand-derived tf-idf table: weight(t, d) = tf * (ln((1+n)/(1+df)) + 1),
    # then each row divided by its sum.
    texts = [
        "apple banana apple",
        "banana cherry",
        "apple",
        "date banana banana date",
        "cherry date egg",
    ]
    dtm = build_tfidf(corpus_of(texts), NO_STOP)
    assert dtm.vocab == ("apple", "banana", "cherry", "date", "egg")
    idf = {
        "apple": math.log(6 / 3) + 1,
        "banana": math.log(6 / 4) + 1,
        "cherry": math.log(6 / 3) + 1,
        "date": math.log(6 / 3) + 1,
        "egg": math.log(6 / 2) + 1,
    }
    expected = np.zeros((5, 5))
    raw = [
        {"apple": 2, "banana": 1},
        {"banana": 1, "cherry": 1},
        {"apple": 1},
        {"date": 2, "banana": 2},
        {"cherry": 1, "date": 1, "egg": 1},
    ]
    for i, counts in enumerate(raw):
        for t, tf in counts.items():
            expected[i, dtm.vocab.index(t)] = tf * idf[t]
        expected[i] /= expected[i].sum()
    assert np.allclose(dtm.X, expected, atol=1e-12)
    assert np.allclose([idf[t] for t in dtm.vocab], dtm.idf, atol=1e-12)


def test_rows_are_l1_normalized():
    texts = ["apple banana", "banana cherry date", "apple cherry", "date egg apple"]
    dtm = build_tfidf(corpus_of(texts), NO_STOP)
    assert np.allclose(dtm.X.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(dtm.X >= 0)


def test_zero_rows_are_flagged_not_fatal():
    # min_df = 0.4 of 5 docs needs df >= 2, so the singleton-only document
    # vectorizes to zero.
    texts = ["apple banana", "apple banana", "cherry cherry", "banana apple", "egg"]
    cfg = TfidfConfig(min_df=0.4, max_df=1.0, stopwords="none")
    dtm = build_tfidf(corpus_of(texts), cfg)
    assert "egg" not in dtm.vocab and "cherry" not in dtm.vocab
    assert dtm.zero_rows == [2, 4]
    assert np.array_equal(dtm.X[2], np.zeros(len(dtm.vocab)))


def test_df_bound_products_resist_float_fuzz():
    # 0.2 * 5 must behave as exactly 1, not 1.0000000000000002.
    texts = ["apple", "banana", "cherry", "date", "egg"]
    cfg = TfidfConfig(min_df=0.2, max_df=1.0, stopwords="none")
    dtm = build_tfidf(corpus_of(texts), cfg)
    assert len(dtm.vocab) == 5


def test_empty_vocabulary_reports_bounds():
    texts = ["apple", "banana", "cherry"]
    cfg = TfidfConfig(min_df=0.9, max_df=1.0, stopwords="none")
    with pytest.raises(ValueError, match=r"\[3, 3\]"):
        build_tfidf(corpus_of(texts), cfg)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        build_tfidf([], NO_STOP)


def test_vocabulary_is_sorted_and_bijective():
    texts = ["zebra apple", "apple mango", "mango zebra"]
    dtm = build_tfidf(corpus_of(texts), NO_STOP)
    terms = list(dtm.vocab)
    assert terms == sorted(terms)
    assert len(set(terms)) == len(terms)


def test_build_is_deterministic():
    texts = ["apple banana", "cherry banana", "apple egg date"]
    a = build_tfidf(corpus_of(texts), NO_STOP)
    b = build_tfidf(corpus_of(texts), NO_STOP)
    assert np.array_equal(a.X, b.X)
    assert a.vocab == b.vocab


# ------------------------------------------------------------ tfidf config

@pytest.mark.parametrize("kwargs", [
    {"min_df": -0.1},
    {"max_df": 0.0},
    {"min_df": 0.5, "max_df": 0.2},
    {"stopwords": "french"},
    {"norm": "l2"},
    # Settings read from JSON: {"lowercase": "no"} once built a config that lowercases.
    {"lowercase": "no"},
    {"lowercase": 0},
    {"min_df": True},
    {"max_df": "0.5"},
    {"min_df": None},
])
def test_tfidf_config_validation(kwargs):
    with pytest.raises(ValueError):
        TfidfConfig(**kwargs)


# ----------------------------------------------------------- vectorize_many

def test_vectorize_training_document_round_trips():
    texts = ["apple banana apple", "banana cherry", "apple cherry date"]
    dtm = build_tfidf(corpus_of(texts), NO_STOP)
    for i, t in enumerate(texts):
        x = vectorize_many([t], dtm.vocab, NO_STOP, dtm.idf)[0]
        assert np.array_equal(x, dtm.X[i])


def test_vectorize_all_oov_gives_zero_vector():
    dtm = build_tfidf(corpus_of(["apple banana", "banana cherry"]), NO_STOP)
    x = vectorize_many(["zebra quokka"], dtm.vocab, NO_STOP, dtm.idf)[0]
    assert np.array_equal(x, np.zeros(len(dtm.vocab)))


def test_vectorize_mixed_tokens_hand_oracle():
    texts = ["apple banana", "banana cherry", "apple cherry"]
    dtm = build_tfidf(corpus_of(texts), NO_STOP)
    x = vectorize_many(["apple apple zebra"], dtm.vocab, NO_STOP, dtm.idf)[0]
    expected = np.zeros(3)
    expected[dtm.vocab.index("apple")] = 2 * dtm.idf[dtm.vocab.index("apple")]
    expected /= expected.sum()
    assert np.allclose(x, expected, atol=1e-12)


def test_vectorize_checks_idf_length():
    vocab = ("apple", "banana")
    with pytest.raises(ValueError):
        vectorize_many(["apple"], vocab, NO_STOP, np.ones(3))


def test_vectorize_refuses_a_repeated_term():
    with pytest.raises(ValueError, match="vocabulary terms must be unique"):
        vectorize_many(["apple"], ["apple", "banana", "apple"], NO_STOP, np.ones(3))


def zipf_texts(rng, n, words):
    """Documents of 0-40 Zipf-drawn words; some share no word with the rest."""
    p = 1.0 / np.arange(1, len(words) + 1)
    p /= p.sum()
    texts = []
    for _ in range(n):
        k = int(rng.integers(0, 41))
        texts.append(" ".join(words[j] for j in rng.choice(len(words), size=k, p=p)))
    return texts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tfidf_rows_equal_per_document_reference(seed):
    rng = np.random.default_rng(seed)
    words = [f"w{j}x" for j in range(400)]
    cfg = TfidfConfig(min_df=0.01, max_df=0.15, stopwords="english")
    train = zipf_texts(rng, 300, words)
    dtm = build_tfidf(corpus_of(train), cfg)
    rows = [row_from_counts_reference(Counter(tokenize(t, cfg)), dtm.vocab, dtm.idf)
            for t in train]
    assert np.array_equal(dtm.X, np.array([x for x, _ in rows]))
    assert dtm.zero_rows == [i for i, (_, is_zero) in enumerate(rows) if is_zero]
    assert dtm.zero_rows  # the empty documents

    held_out = zipf_texts(rng, 200, words) + ["", "zebra quokka"]
    X = vectorize_many(held_out, dtm.vocab, cfg, dtm.idf)
    expected = [row_from_counts_reference(Counter(tokenize(t, cfg)), dtm.vocab, dtm.idf)[0]
                for t in held_out]
    assert np.array_equal(X, np.array(expected))
    assert np.array_equal(vectorize_many([held_out[0]], dtm.vocab, cfg, dtm.idf)[0], expected[0])


# Texts where lowercasing or the token pattern is easy to get wrong.
EDGE_TEXTS = [
    "ΟΔΟΣ ΣΟΦΟΣ σοφοσ οδος ΣΑΣ",                 # final and medial sigma
    "İstanbul DİYARBAKIR İİ istanbul",           # İ lowercases to i + a combining dot
    "snake_case foo__bar _ab_ a_b 2024 x1 1x 99 9 2024",
    "",
    "the and of The THE",                        # stopwords only
    "   \n\t",
    "Mixed CASE mixed case Case",
    "the apple, the pear; the apple!",
    "\u212aelvin KELVIN 9\u212a \u212a k x a 9 Q",   # the Kelvin sign lowercases to "k"
]


def reference_rows_and_zeros(texts, vocab, idf, cfg):
    rows = [row_from_counts_reference(Counter(tokenize(t, cfg)), vocab, idf) for t in texts]
    return np.array([x for x, _ in rows]), [i for i, (_, zero) in enumerate(rows) if zero]


@pytest.mark.parametrize("stopwords", ["english", "none"])
@pytest.mark.parametrize("lowercase", [True, False])
@pytest.mark.parametrize("min_df, max_df", [(0.0, 1.0), (0.2, 0.3)])
def test_counting_equals_per_document_tokenize_on_edge_text(stopwords, lowercase, min_df, max_df):
    cfg = TfidfConfig(min_df=min_df, max_df=max_df, stopwords=stopwords, lowercase=lowercase)
    n = len(EDGE_TEXTS)
    df = Counter(t for text in EDGE_TEXTS for t in set(tokenize(text, cfg)))
    lo, hi = math.ceil(min_df * n - 1e-9), math.floor(max_df * n + 1e-9)
    dtm = build_tfidf(corpus_of(EDGE_TEXTS), cfg)
    assert dtm.vocab == tuple(sorted(t for t, c in df.items() if lo <= c <= hi))
    assert not set(dtm.vocab) & stopword_set(stopwords)
    X, zero_rows = reference_rows_and_zeros(EDGE_TEXTS, dtm.vocab, dtm.idf, cfg)
    assert np.array_equal(dtm.X, X)
    assert dtm.zero_rows == zero_rows
    assert np.array_equal(vectorize_many(EDGE_TEXTS, dtm.vocab, cfg, dtm.idf), X)


def test_vectorize_never_counts_a_stopword_in_the_vocabulary():
    # A hand-written model may hold a stopword or a one-character term; the
    # tokenizer finds neither.
    cfg = TfidfConfig(stopwords="english")
    vocab = ("the", "apple", "οδος", "stanbul", "2024", "pear", "9", "k", "x", "kelvin")
    idf = np.linspace(1.0, 2.0, len(vocab))
    X = vectorize_many(EDGE_TEXTS, vocab, cfg, idf)
    expected, _ = reference_rows_and_zeros(EDGE_TEXTS, vocab, idf, cfg)
    assert np.array_equal(X, expected)
    assert not X[:, [vocab.index(t) for t in ("the", "9", "k", "x")]].any()
    assert X[:, vocab.index("apple")].any() and X[:, vocab.index("kelvin")].any()


# Letters whose case mapping, word-character class or length is easy to get
# wrong, and a combining accent.
DRAWN_CHARS = string.printable + "Σςİß\u212a²٣_\u0301"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    texts=st.lists(st.text(st.sampled_from(DRAWN_CHARS), max_size=30), min_size=1, max_size=6),
    lowercase=st.booleans(),
    stopwords=st.sampled_from(["english", "none"]),
)
def test_counting_equals_per_document_tokenize_on_drawn_text(texts, lowercase, stopwords):
    cfg = TfidfConfig(min_df=0.0, max_df=1.0, stopwords=stopwords, lowercase=lowercase)
    df = Counter(t for text in texts for t in set(tokenize(text, cfg)))
    if not df:
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_tfidf(corpus_of(texts), cfg)
        return
    dtm = build_tfidf(corpus_of(texts), cfg)
    assert dtm.vocab == tuple(sorted(df))
    X, zero_rows = reference_rows_and_zeros(texts, dtm.vocab, dtm.idf, cfg)
    assert np.array_equal(dtm.X.view(np.int64), X.view(np.int64))
    assert dtm.zero_rows == zero_rows
    assert np.array_equal(vectorize_many(texts, dtm.vocab, cfg, dtm.idf).view(np.int64),
                          X.view(np.int64))


def test_vectorize_many_of_no_documents():
    X = vectorize_many([], ("apple", "banana"), NO_STOP, np.ones(2))
    assert X.shape == (0, 2)


# ------------------------------------------------------------------ balance

def make_rated(counts, values):
    entries = []
    k = 0
    for count, value in zip(counts, values):
        for _ in range(count):
            entries.append(RatedDocument(id=f"d{k}", text="t", rating=value))
            k += 1
    return entries


def test_balance_equalizes_interval_counts():
    corpus = make_rated([57, 235, 494, 629], [1.5, 2.5, 3.5, 4.5])
    out = balance(corpus, [1, 2, 3, 4, 5], seed=0)
    assert len(out) == 228
    ratings = [e.rating for e in out]
    for lo in (1, 2, 3, 4):
        assert sum(lo <= v < lo + 1 or (lo == 4 and v == 5) for v in ratings) == 57


def test_balance_is_deterministic_and_duplicate_free():
    corpus = make_rated([5, 9, 3], [1.2, 2.7, 4.9])
    a = balance(corpus, [1, 2, 3, 5], seed=7)
    b = balance(corpus, [1, 2, 3, 5], seed=7)
    assert [e.id for e in a] == [e.id for e in b]
    ids = [e.id for e in a]
    assert len(ids) == len(set(ids)) == 9
    c = balance(corpus, [1, 2, 3, 5], seed=8)
    assert [e.id for e in c] != ids


def test_balance_top_edge_is_closed():
    corpus = make_rated([2, 2], [1.0, 5.0])
    out = balance(corpus, [1, 3, 5], seed=0)
    assert len(out) == 4


def test_balance_already_balanced_keeps_size():
    corpus = make_rated([4, 4], [1.5, 4.0])
    out = balance(corpus, [1, 3, 5], seed=1)
    assert len(out) == 8
    assert {e.id for e in out} == {e.id for e in corpus}


def test_balance_empty_interval_is_reported():
    corpus = make_rated([3, 3], [1.1, 4.5])
    with pytest.raises(ValueError, match=r"\[2(\.0)?, 3(\.0)?\)"):
        balance(corpus, [1, 2, 3, 5], seed=0)


def test_balance_rejects_out_of_range_rating():
    corpus = make_rated([2], [4.5])
    with pytest.raises(ValueError):
        balance(corpus, [1, 2, 3], seed=0)


def test_balance_rejects_bad_edges():
    corpus = make_rated([2], [1.5])
    with pytest.raises(ValueError):
        balance(corpus, [1, 1, 2], seed=0)
    with pytest.raises(ValueError):
        balance(corpus, [2], seed=0)


def test_interval_index_half_open_except_last():
    edges = [1, 2, 3]
    assert interval_index(1.0, edges) == 0
    assert interval_index(2.0, edges) == 1
    assert interval_index(3.0, edges) == 1
    with pytest.raises(ValueError):
        interval_index(3.0001, edges)


# ------------------------------------------------------------------- corpus

def test_rated_corpus_enforces_rating_range(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("id,text,rating\na,t,6\n")
    with pytest.raises(ValueError, match="outside"):
        load_corpus(p, rating_range=(1, 5))
    assert [e.rating for e in load_corpus(p)] == [6.0]


def test_load_corpus_csv(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text('id,text,rating\nd1,"great, great lecture",4.5\nd2,boring,1.0\n')
    docs = load_corpus(p)
    assert [e.id for e in docs] == ["d1", "d2"]
    assert docs[0].text == "great, great lecture"
    assert docs[1].rating == 1.0


def test_load_corpus_jsonl(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [
        {"id": "a", "text": "clear and helpful", "rating": 5},
        {"id": "b", "text": "confusing", "rating": 2},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    docs = load_corpus(p)
    assert len(docs) == 2 and docs[0].rating == 5.0


def test_load_corpus_missing_rating(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("id,text,rating\nd1,nice,\n")
    with pytest.raises(ValueError):
        load_corpus(p)
    assert load_corpus(p, require_rating=False)[0].rating is None


@pytest.mark.parametrize("record, message", [
    ({"id": "a", "text": None, "rating": 3}, "text is null, expected a string"),
    ({"id": "a", "text": 5, "rating": 3}, "text is a number, expected a string"),
    ({"id": "a", "text": "ok", "rating": True}, "rating is a boolean"),
    ({"id": "a", "text": "ok", "rating": [3]}, "rating is an array"),
    ({"id": ["x"], "text": "ok", "rating": 3}, "id is an array, expected a string or an integer"),
    ({"id": False, "text": "ok", "rating": 3}, "id is a boolean"),
    ({"id": 1.5, "text": "ok", "rating": 3}, "id is a number"),
    ({"id": "a", "text": "ok", "rating": "often"}, "has non-numeric rating 'often'"),
    ({"id": "a", "text": "ok", "rating": 10**400}, "has non-numeric rating"),
], ids=["null-text", "number-text", "boolean-rating", "array-rating", "array-id",
        "boolean-id", "float-id", "word-rating", "integer-rating-beyond-float"])
def test_load_corpus_jsonl_refuses_values_no_csv_cell_holds(tmp_path, record, message):
    # Each was read as CSV text once: null as the text 'None', true as 1.0.
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": "ok", "text": "fine", "rating": 2}\n' + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=f"c.jsonl: line 2.*{message}"):
        load_corpus(p)


def test_load_corpus_jsonl_takes_integer_ids_numeric_strings_and_null_ratings(tmp_path):
    p = tmp_path / "c.jsonl"
    p.write_text('{"id": 7, "text": "fine", "rating": "3.5"}\n'
                 '{"id": "b", "text": "fine", "rating": null}\n')
    docs = load_corpus(p, require_rating=False)
    assert [(e.id, e.rating) for e in docs] == [("7", 3.5), ("b", None)]


def test_load_corpus_errors(tmp_path):
    bad_cols = tmp_path / "bad.csv"
    bad_cols.write_text("id,body\nd1,hello\n")
    with pytest.raises(ValueError, match="text"):
        load_corpus(bad_cols)
    bad_rating = tmp_path / "r.csv"
    bad_rating.write_text("id,text,rating\nd1,hello,often\n")
    with pytest.raises(ValueError, match="often"):
        load_corpus(bad_rating)
    bad_json = tmp_path / "b.jsonl"
    bad_json.write_text("{not json}\n")
    with pytest.raises(ValueError):
        load_corpus(bad_json)
    for record in ("[1, 2]", "5"):
        not_object = tmp_path / "n.jsonl"
        not_object.write_text('{"id": "a", "text": "fine", "rating": 3}\n' + record + "\n")
        with pytest.raises(ValueError, match="n.jsonl: line 2 is not a JSON object"):
            load_corpus(not_object)
    long_int = tmp_path / "i.jsonl"
    long_int.write_text('{"id": "a", "text": "fine", "rating": 1' + "0" * 5000 + "}\n")
    with pytest.raises(ValueError, match="i.jsonl: line 1 is not valid JSON"):
        load_corpus(long_int)
    deep = tmp_path / "d.jsonl"
    deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(ValueError, match="d.jsonl: line 1 is JSON nested too deeply"):
        load_corpus(deep)
    empty = tmp_path / "e.csv"
    empty.write_text("id,text,rating\n")
    with pytest.raises(ValueError):
        load_corpus(empty)


# Characters a corpus file has to take care of: separators, quotes, both
# line breaks, a tab, NUL, a byte-order mark and a Unicode line separator,
# among any other character.
AWKWARD = st.sampled_from(list(',"\r\n\t\x00\ufeff\u2028'))


def corpora(chars):
    """Lists of documents whose ids and texts are any text over ``chars``,
    with an optional finite rating."""
    text = st.text(chars, max_size=8)
    rating = st.none() | st.floats(allow_nan=False, allow_infinity=False)
    return st.lists(st.builds(RatedDocument, id=text, text=text, rating=rating),
                    min_size=1, max_size=5)


def as_read(docs):
    """The documents with each rating spelled as ``repr``, so -0.0 is not 0.0."""
    return [(d.id, d.text, repr(d.rating)) for d in docs]


# Python 3.10's csv reader refuses NUL ("line contains NUL"), so the CSV
# corpora leave it out; the JSON-lines corpora keep it.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(docs=corpora(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")
                    | AWKWARD.filter(lambda c: c != "\x00")))
def test_a_corpus_written_as_csv_reads_back_whole(tmp_path_factory, docs):
    # csv.writer's default dialect ends lines with "\r\n", so it quotes a
    # cell holding "\r" or "\n".
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "text", "rating"])
        writer.writerows([d.id, d.text, "" if d.rating is None else repr(d.rating)]
                         for d in docs)
    assert as_read(load_corpus(path, require_rating=False)) == as_read(docs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(docs=corpora(st.characters(blacklist_categories=("Cs",)) | AWKWARD))
def test_a_corpus_written_as_json_lines_reads_back_whole(tmp_path_factory, docs):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text("".join(json.dumps({"id": d.id, "text": d.text, "rating": d.rating}) + "\n"
                            for d in docs), encoding="utf-8")
    assert as_read(load_corpus(path, require_rating=False)) == as_read(docs)


# --------------------------------------------------------------- vectorizer

@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_saved_vectorizer_loads_back_bit_for_bit(tmp_path_factory, data):
    terms, idf, tfidf = vectorizer = data.draw(vectorizers(data.draw(st.integers(0, 6))))
    dtm = DocumentTermMatrix(vocab=terms, doc_ids=[], idf=idf, indptr=np.zeros(1, dtype=int),
                             cols=np.zeros(0, dtype=int), tfs=np.zeros(0, dtype=int))
    path = tmp_path_factory.mktemp("vec") / "vectorizer.json"
    save_vectorizer(path, dtm, tfidf)
    assert same_vectorizer(load_vectorizer(path), vectorizer)


def test_vectorizer_round_trip(tmp_path):
    texts = ["apple banana", "banana cherry", "apple cherry date"]
    cfg = TfidfConfig(min_df=0.0, max_df=1.0, stopwords="none", lowercase=False)
    dtm = build_tfidf(corpus_of(texts), cfg)
    path = tmp_path / "vec.json"
    save_vectorizer(path, dtm, cfg)
    assert list(json.loads(path.read_text())["config"]) == [
        "min_df", "max_df", "stopwords", "lowercase", "norm"]
    vocab, idf, cfg2 = load_vectorizer(path)
    assert vocab == dtm.vocab
    assert np.array_equal(idf, dtm.idf)
    assert cfg2 == cfg


@pytest.mark.parametrize("vocab, idf, message", [
    (("alpha", "beta"), [1.0, 0.5], "field 'idf' has an entry below 1"),
    (("alpha", "alpha"), [1.0, 2.0], "field 'vocabulary' repeats the term 'alpha'"),
    (("alpha", "beta"), [1.0, np.nan], "field 'idf' has non-finite entries"),
    (("alpha", "beta"), [1.0], "vectorizer document is inconsistent: idf/vocabulary sizes disagree"),
])
def test_save_vectorizer_refuses_what_load_vectorizer_refuses(tmp_path, vocab, idf, message):
    dtm = DocumentTermMatrix(vocab=vocab, doc_ids=["d0"], idf=np.array(idf),
                             indptr=np.array([0, 1]), cols=np.array([0]), tfs=np.array([1]))
    path = tmp_path / "vec.json"
    with pytest.raises(ValueError, match=f"vec.json: {message}"):
        save_vectorizer(path, dtm, NO_STOP)
    assert not path.exists()


def _write_vectorizer_doc(path, **changes):
    """A valid two-term vectorizer document with ``changes`` applied; a
    field set to None is left out."""
    doc = {"version": 1,
           "config": {"min_df": 0.0, "max_df": 1.0, "stopwords": "none",
                      "lowercase": True, "norm": "l1"},
           "vocabulary": ["alpha", "beta"], "idf": [1.0, 2.0]}
    doc.update(changes)
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))


@pytest.mark.parametrize("changes, message", [
    ({"vocabulary": None}, "field 'vocabulary' must be a list of strings"),
    ({"vocabulary": 5}, "field 'vocabulary' must be a list of strings"),
    ({"idf": None}, "field 'idf' is missing"),
    ({"idf": [1.0, float("nan")]}, "field 'idf' has non-finite entries"),
    ({"idf": [1.0, float("inf")]}, "field 'idf' has non-finite entries"),
    ({"config": None}, "field 'config'"),
    ({"config": {"min_df": 0.0, "colour": "red"}}, "field 'config'.*colour"),
    ({"config": {"stopwords": "klingon"}}, "field 'config'.*stopwords"),
    ({"vocabulary": ["alpha", "alpha"]}, "field 'vocabulary' repeats the term 'alpha'"),
    ({"idf": [1.0, 0.999]}, "field 'idf' has an entry below 1"),
    ({"idf": [0.0, 0.0]}, "field 'idf' has an entry below 1"),
])
def test_load_vectorizer_rejects_bad_documents(tmp_path, changes, message):
    path = tmp_path / "vec.json"
    _write_vectorizer_doc(path, **changes)
    with pytest.raises(ValueError, match=f"vec.json: {message}"):
        load_vectorizer(path)


def test_load_vectorizer_keeps_the_files_term_order(tmp_path):
    path = tmp_path / "vec.json"
    _write_vectorizer_doc(path, vocabulary=["zebra", "apple"], idf=[3.0, 7.0])
    vocab, idf, _ = load_vectorizer(path)
    assert vocab == ("zebra", "apple")
    assert np.array_equal(idf, [3.0, 7.0])


def test_load_vectorizer_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "vec.json"
    path.write_text('["alpha", "beta"]')
    with pytest.raises(ValueError, match="vec.json: expected a JSON object, found list"):
        load_vectorizer(path)
