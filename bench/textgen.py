"""Seeded rated-text corpus with planted topics, for the benchmark.

A *world* fixes everything a corpus is drawn from: the vocabulary of
pseudo-words, a Zipf background distribution over it, ``k`` planted topics
(each a distribution over its own disjoint set of words) and the planted
regression weights ``theta``.  Documents are drawn from a world with a
separate seed, so a training corpus and a held-out corpus drawn from one
world share the vocabulary.

A document mixes its topics with Dirichlet weights ``mix``; each token
comes from the background with probability ``BACKGROUND_SHARE`` and
otherwise from the topic mixture.  Its rating is
``theta[0] + mix @ theta[1:]`` plus Gaussian noise, clipped to [1, 5].

Only numpy is used.  Besides the text, every corpus keeps its per-document
term counts, so the benchmark can compute the expected TF-IDF vocabulary
and document vectors without going through the program under test.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

_CONSONANTS = list("bcdfghjklmnprstvz")
_VOWELS = list("aeiou")

N_WORDS = 3000          # vocabulary size of a world
N_TOPICS = 11           # planted topics
WORDS_PER_TOPIC = 100   # words of each topic, disjoint between topics
ZIPF_S = 1.05           # exponent of the background distribution
MEAN_LENGTH = 60        # Poisson mean of a document's token count
BACKGROUND_SHARE = 0.5  # share of a document's tokens drawn from the background
ALPHA = 0.3             # Dirichlet concentration of a document's topic mix
RATING_NOISE = 0.25     # standard deviation of the rating noise
# Document-frequency limits of ``cssnmf ingest``'s defaults.
MIN_DF, MAX_DF = 0.01, 0.15


@dataclass(frozen=True)
class World:
    words: list           # (V,) pseudo-words, all distinct
    background: np.ndarray  # (V,) Zipf token distribution
    topics: np.ndarray    # (k, V) planted topic-term distributions
    theta: np.ndarray     # (k + 1,) intercept, then one weight per topic


@dataclass
class Corpus:
    ids: list
    texts: list
    ratings: np.ndarray   # (n,)
    terms: list           # per document: word indices with nonzero count
    counts: list          # per document: the matching counts


def _pseudo_words(rng, stopwords):
    """``N_WORDS`` distinct words of 2 or 3 consonant-vowel syllables."""
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words, seen = [], set(stopwords)
    while len(words) < N_WORDS:
        lengths = rng.integers(2, 4, size=N_WORDS)
        picks = rng.integers(0, len(syllables), size=(N_WORDS, 3))
        for n, row in zip(lengths, picks):
            w = "".join(syllables[j] for j in row[:n])
            if w not in seen and len(words) < N_WORDS:
                seen.add(w)
                words.append(w)
    return words


def _cdf(p):
    """Cumulative sums along the last axis, each row ending at exactly 1."""
    c = np.cumsum(p, axis=-1)
    c[..., -1] = 1.0
    return c


def make_world(seed, stopwords=frozenset()):
    """Draw a world: vocabulary, background, planted topics and theta."""
    rng = np.random.default_rng(seed)
    words = _pseudo_words(rng, stopwords)
    ranks = rng.permutation(N_WORDS) + 1
    background = ranks.astype(float) ** -ZIPF_S
    background /= background.sum()
    # Topic words come from outside the 100 most frequent background words,
    # which the document-frequency filter drops anyway.
    pool = rng.permutation(np.flatnonzero(ranks > 100))
    topics = np.zeros((N_TOPICS, N_WORDS))
    for k in range(N_TOPICS):
        own = pool[k * WORDS_PER_TOPIC:(k + 1) * WORDS_PER_TOPIC]
        topics[k, own] = rng.dirichlet(np.full(WORDS_PER_TOPIC, 2.0))
    theta = np.concatenate([[3.0], rng.permutation(np.linspace(-2.0, 2.0, N_TOPICS))])
    return World(words=words, background=background, topics=topics, theta=theta)


def draw_corpus(world, n_docs, seed, id_prefix="d"):
    """Draw ``n_docs`` rated documents from ``world``.

    All tokens of the corpus are drawn at once, each independently, so a
    document's tokens are already in random order.
    """
    rng = np.random.default_rng(seed)
    mix = rng.dirichlet(np.full(N_TOPICS, ALPHA), size=n_docs)
    lengths = np.maximum(rng.poisson(MEAN_LENGTH, size=n_docs), 10)
    ratings = world.theta[0] + mix @ world.theta[1:] + rng.normal(0.0, RATING_NOISE, n_docs)
    ratings = np.round(np.clip(ratings, 1.0, 5.0), 3)

    doc = np.repeat(np.arange(n_docs), lengths)
    u = rng.random(doc.size)
    tokens = np.searchsorted(_cdf(world.background), u, side="right")
    from_topic = rng.random(doc.size) >= BACKGROUND_SHARE
    owner = doc[from_topic]
    topic = (rng.random(owner.size)[:, None] >= _cdf(mix)[owner]).sum(axis=1)
    # Row k of the topic CDFs, shifted by k, covers [k, k + 1]; one search
    # over all rows finds each token's word in its own topic.
    shifted = (_cdf(world.topics) + np.arange(N_TOPICS)[:, None]).ravel()
    tokens[from_topic] = np.searchsorted(shifted, topic + u[from_topic], side="right") % N_WORDS

    ends = np.cumsum(lengths)
    token_words = np.asarray(world.words)[tokens].tolist()
    texts = [" ".join(token_words[e - n:e]) for n, e in zip(lengths, ends)]
    keys, counts = np.unique(doc * N_WORDS + tokens, return_counts=True)
    cuts = np.searchsorted(keys, np.arange(1, n_docs) * N_WORDS)
    ids = [f"{id_prefix}{i}" for i in range(n_docs)]
    return Corpus(ids=ids, texts=texts, ratings=ratings,
                  terms=np.split(keys % N_WORDS, cuts), counts=np.split(counts, cuts))


def write_corpus_csv(corpus, path):
    """Write ``id,text,rating`` rows, the corpus format ``cssnmf ingest`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "text", "rating"])
        for doc_id, text, rating in zip(corpus.ids, corpus.texts, corpus.ratings):
            writer.writerow([doc_id, text, repr(float(rating))])


def expected_vectorizer(world, corpus):
    """The vocabulary and smoothed idf that TF-IDF ingest should produce.

    Mirrors the documented rule with the ingest defaults ``MIN_DF`` and
    ``MAX_DF``: keep a term when
    ``ceil(MIN_DF * n) <= df <= floor(MAX_DF * n)``, sort terms, and weigh
    with ``ln((1 + n) / (1 + df)) + 1``.  Returns ``(word_indices, terms, idf)``.
    """
    n = len(corpus.ids)
    df = np.zeros(len(world.words), dtype=np.int64)
    for idx in corpus.terms:
        df[idx] += 1
    lo = math.ceil(MIN_DF * n - 1e-9)
    hi = math.floor(MAX_DF * n + 1e-9)
    kept = sorted(np.flatnonzero((df >= lo) & (df <= hi)), key=lambda j: world.words[j])
    kept = np.asarray(kept, dtype=np.int64)
    terms = [world.words[j] for j in kept]
    idf = np.log((1.0 + n) / (1.0 + df[kept])) + 1.0
    return kept, terms, idf


def expected_rows(corpus, rows, kept, idf):
    """l1-normalized TF-IDF vectors of the given documents against a vocabulary."""
    column = np.full(N_WORDS, -1, dtype=np.int64)
    column[kept] = np.arange(kept.size)
    X = np.zeros((len(rows), kept.size))
    for out, i in enumerate(rows):
        cols = column[corpus.terms[i]]
        keep = cols >= 0
        X[out, cols[keep]] = corpus.counts[i][keep] * idf[cols[keep]]
        s = X[out].sum()
        if s > 0:
            X[out] /= s
    return X
