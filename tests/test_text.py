import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import row_from_counts_reference
from cssnmf.text import (
    RatedCorpus,
    RatedDocument,
    TfidfConfig,
    Vocabulary,
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
    entries = [
        RatedDocument(id=f"d{i}", text=t, rating=None if ratings is None else ratings[i])
        for i, t in enumerate(texts)
    ]
    return RatedCorpus(entries=entries)


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
    assert list(dtm.vocab.terms) == ["word"]
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
    assert list(dtm.vocab.terms) == ["apple", "banana", "cherry", "date", "egg"]
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
            expected[i, dtm.vocab.index[t]] = tf * idf[t]
        expected[i] /= expected[i].sum()
    assert np.allclose(dtm.X, expected, atol=1e-12)
    assert np.allclose([idf[t] for t in dtm.vocab.terms], dtm.idf, atol=1e-12)


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
        build_tfidf(RatedCorpus(entries=[]), NO_STOP)


def test_vocabulary_is_sorted_and_bijective():
    texts = ["zebra apple", "apple mango", "mango zebra"]
    dtm = build_tfidf(corpus_of(texts), NO_STOP)
    terms = list(dtm.vocab.terms)
    assert terms == sorted(terms)
    assert all(dtm.vocab.terms[j] == t for t, j in dtm.vocab.index.items())


def test_build_is_deterministic():
    texts = ["apple banana", "cherry banana", "apple egg date"]
    a = build_tfidf(corpus_of(texts), NO_STOP)
    b = build_tfidf(corpus_of(texts), NO_STOP)
    assert np.array_equal(a.X, b.X)
    assert a.vocab.terms == b.vocab.terms


# ------------------------------------------------------------ tfidf config

@pytest.mark.parametrize("kwargs", [
    {"min_df": -0.1},
    {"max_df": 0.0},
    {"min_df": 0.5, "max_df": 0.2},
    {"stopwords": "french"},
    {"norm": "l2"},
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
    expected[dtm.vocab.index["apple"]] = 2 * dtm.idf[dtm.vocab.index["apple"]]
    expected /= expected.sum()
    assert np.allclose(x, expected, atol=1e-12)


def test_vectorize_checks_idf_length():
    vocab = Vocabulary.from_terms(["apple", "banana"])
    with pytest.raises(ValueError):
        vectorize_many(["apple"], vocab, NO_STOP, np.ones(3))


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


def test_vectorize_many_of_no_documents():
    vocab = Vocabulary.from_terms(["apple", "banana"])
    X = vectorize_many([], vocab, NO_STOP, np.ones(2))
    assert X.shape == (0, 2)


# ------------------------------------------------------------------ balance

def make_rated(counts, values):
    entries = []
    k = 0
    for count, value in zip(counts, values):
        for _ in range(count):
            entries.append(RatedDocument(id=f"d{k}", text="t", rating=value))
            k += 1
    return RatedCorpus(entries=entries)


def test_balance_equalizes_interval_counts():
    corpus = make_rated([57, 235, 494, 629], [1.5, 2.5, 3.5, 4.5])
    out = balance(corpus, [1, 2, 3, 4, 5], seed=0)
    assert len(out) == 228
    ratings = [e.rating for e in out.entries]
    for lo in (1, 2, 3, 4):
        assert sum(lo <= v < lo + 1 or (lo == 4 and v == 5) for v in ratings) == 57


def test_balance_is_deterministic_and_duplicate_free():
    corpus = make_rated([5, 9, 3], [1.2, 2.7, 4.9])
    a = balance(corpus, [1, 2, 3, 5], seed=7)
    b = balance(corpus, [1, 2, 3, 5], seed=7)
    assert [e.id for e in a.entries] == [e.id for e in b.entries]
    ids = [e.id for e in a.entries]
    assert len(ids) == len(set(ids)) == 9
    c = balance(corpus, [1, 2, 3, 5], seed=8)
    assert [e.id for e in c.entries] != ids


def test_balance_top_edge_is_closed():
    corpus = make_rated([2, 2], [1.0, 5.0])
    out = balance(corpus, [1, 3, 5], seed=0)
    assert len(out) == 4


def test_balance_already_balanced_keeps_size():
    corpus = make_rated([4, 4], [1.5, 4.0])
    out = balance(corpus, [1, 3, 5], seed=1)
    assert len(out) == 8
    assert {e.id for e in out.entries} == {e.id for e in corpus.entries}


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
    assert load_corpus(p).ratings().tolist() == [6.0]


def test_load_corpus_csv(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text('id,text,rating\nd1,"great, great lecture",4.5\nd2,boring,1.0\n')
    rc = load_corpus(p)
    assert [e.id for e in rc.entries] == ["d1", "d2"]
    assert rc.entries[0].text == "great, great lecture"
    assert rc.entries[1].rating == 1.0


def test_load_corpus_jsonl(tmp_path):
    p = tmp_path / "c.jsonl"
    rows = [
        {"id": "a", "text": "clear and helpful", "rating": 5},
        {"id": "b", "text": "confusing", "rating": 2},
    ]
    p.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    rc = load_corpus(p)
    assert len(rc) == 2 and rc.entries[0].rating == 5.0


def test_load_corpus_missing_rating(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("id,text,rating\nd1,nice,\n")
    with pytest.raises(ValueError):
        load_corpus(p)
    rc = load_corpus(p, require_rating=False)
    assert rc.entries[0].rating is None


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
    empty = tmp_path / "e.csv"
    empty.write_text("id,text,rating\n")
    with pytest.raises(ValueError):
        load_corpus(empty)


# --------------------------------------------------------------- vectorizer

def test_vectorizer_round_trip(tmp_path):
    texts = ["apple banana", "banana cherry", "apple cherry date"]
    cfg = TfidfConfig(min_df=0.0, max_df=1.0, stopwords="none", lowercase=False)
    dtm = build_tfidf(corpus_of(texts), cfg)
    path = tmp_path / "vec.json"
    save_vectorizer(path, dtm, cfg)
    assert list(json.loads(path.read_text())["config"]) == [
        "min_df", "max_df", "stopwords", "lowercase", "norm"]
    vocab, idf, cfg2 = load_vectorizer(path)
    assert vocab.terms == dtm.vocab.terms
    assert np.array_equal(idf, dtm.idf)
    assert cfg2 == cfg


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
    assert vocab.terms == ("zebra", "apple") and vocab.index == {"zebra": 0, "apple": 1}
    assert np.array_equal(idf, [3.0, 7.0])


def test_load_vectorizer_rejects_a_document_that_is_not_an_object(tmp_path):
    path = tmp_path / "vec.json"
    path.write_text('["alpha", "beta"]')
    with pytest.raises(ValueError, match="vec.json: expected a JSON object, found list"):
        load_vectorizer(path)
