"""The benchmark's workloads: their inputs, the CLI commands of one run, and
the correctness gate each run's artifacts must pass.

Every workload drives ``cssnmf.cli.main`` in process, with the same argument
lists a user would type after ``cssnmf``.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import traceback

import numpy as np

import textgen
from cssnmf.cli import main as cli_main
from cssnmf.linalg import DUAL_TOL
from cssnmf.text import stopword_set

# The thinned lambda grid of the acceptance lambda-study.
LAMBDAS = [0.0, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4]
# Fixes vocabulary, planted topics and theta of every text corpus; document
# seeds draw the documents.
WORLD_SEED = 0
# The ingest defaults, which every text workload uses.
TFIDF = {"min_df": textgen.MIN_DF, "max_df": textgen.MAX_DF, "stopwords": "english",
         "lowercase": True, "norm": "l1"}
# Documents whose encodings are checked against the NNLS optimality conditions.
KKT_SAMPLE = 64
# Slack over the kernel's own dual tolerance, for the recomputed document
# vectors and the encodings read back from text.
KKT_SLACK = 10.0


def run_cli(argv):
    """Run ``cssnmf <argv>`` in process; returns ``(exit code, captured output)``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            cli_main.main(args=[str(a) for a in argv], prog_name="cssnmf")
            code = 0
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else (0 if err.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digest(out):
    """sha256 of every file under ``out``, keyed by relative path."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


class SynthSweep:
    """The acceptance lambda-study through ``cssnmf sweep``.

    Its inputs are the acceptance spec itself (dataset, split and fit seed
    0), not drawn from --seed: another fit seed changes the work of a run by
    up to 15%, more than the regressions the benchmark must catch.
    """

    name = "synth_sweep"
    restarts = 1
    cells = len(LAMBDAS)

    def setup(self, inputs, seed):
        code, log = run_cli(["--seed", 0, "--out", _fresh(inputs), "synth",
                             "--n", 100, "--m", 40, "--r", 4, "--eta-x", 4, "--eta-y", 4])
        if code != 0:
            raise RuntimeError(f"synth failed ({code}): {log}")

    def commands(self, inputs, out):
        """One ``sweep`` per lambda, so that each cell is a command of its own."""
        return [("sweep", ["--seed", 0, "--out", out / f"sweep-{i}", "sweep",
                           inputs / "X.csv", inputs / "Y.csv", "--r", 4,
                           "--lambdas", repr(lam), "--restarts", self.restarts])
                for i, lam in enumerate(LAMBDAS)]

    def gate(self, out):
        """Returns ``(problems, heldout_mse, failed cells)``."""
        rows = []
        for i in range(len(LAMBDAS)):
            with open(out / f"sweep-{i}" / "sweep.csv", encoding="utf-8", newline="") as fh:
                rows += list(csv.DictReader(fh))
        problems = []
        if [float(r["lambda"]) for r in rows] != LAMBDAS:
            problems.append(f"sweep.csv lambdas {[r['lambda'] for r in rows]}")
        bad = [r for r in rows if r["status"] != "ok"]
        problems += [f"cell lambda={r['lambda']}: {r['status']}" for r in bad]
        mses = [float(r["test_mse"]) for r in rows if r["status"] == "ok"]
        if not mses or not all(math.isfinite(v) for v in mses):
            problems.append("no finite test_mse in sweep.csv")
            return problems, math.nan, len(bad)
        return problems, min(mses), len(bad)


class _TextWorkload:
    cells = 0

    def _draw(self, train_seed, heldout_seed):
        world = textgen.make_world(WORLD_SEED, stopwords=stopword_set("english"))
        train = textgen.draw_corpus(world, self.n_train, [train_seed, 1])
        heldout = textgen.draw_corpus(world, self.n_heldout, [heldout_seed, 2], id_prefix="h")
        kept, terms, idf = textgen.expected_vectorizer(world, train)
        self.world, self.train, self.heldout = world, train, heldout
        self.kept, self.terms, self.idf = kept, terms, idf

    def _check_ingest(self, ingest, problems):
        with open(ingest / "vectorizer.json", encoding="utf-8") as fh:
            vec = json.load(fh)
        if vec["vocabulary"] != self.terms:
            problems.append(f"ingest vocabulary has {len(vec['vocabulary'])} terms, "
                            f"expected {len(self.terms)}")
        elif not np.allclose(vec["idf"], self.idf, rtol=1e-12, atol=0.0):
            problems.append("ingest idf differs from the expected smoothed idf")
        with open(ingest / "X.csv", "rb") as fh:
            lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if lines != len(self.train.ids) + 1:
            problems.append(f"X.csv has {lines} lines for {len(self.train.ids)} documents")

    def _check_predictions(self, path, H, theta, problems):
        """Checks predictions.csv against the model; returns the held-out MSE."""
        corpus = self.heldout
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        r = H.shape[0]
        if rows[0] != ["id", "y_hat"] + [f"w_{k}" for k in range(1, r + 1)]:
            problems.append(f"predictions.csv header {rows[0][:3]}...")
            return math.nan
        body = rows[1:]
        if [row[0] for row in body] != corpus.ids:
            problems.append(f"predictions.csv has {len(body)} rows for {len(corpus.ids)} documents")
            return math.nan
        vals = np.array([[float(v) for v in row[1:]] for row in body])
        if not np.all(np.isfinite(vals)):
            problems.append("predictions.csv has non-finite values")
            return math.nan
        y_hat, W = vals[:, 0], vals[:, 1:]
        if np.any(W < 0):
            problems.append("negative topic encoding in predictions.csv")
        if not np.allclose(y_hat, theta[0] + W @ theta[1:], rtol=1e-9, atol=1e-9):
            problems.append("y_hat disagrees with theta and the encodings")
        # Each encoding must satisfy the NNLS optimality conditions for the
        # document's TF-IDF vector, which is recomputed here from its counts,
        # to within the kernel's documented dual tolerance.
        sample = np.unique(np.linspace(0, len(body) - 1, KKT_SAMPLE).astype(int))
        X = textgen.expected_rows(corpus, sample, self.kept, self.idf)
        G = H @ H.T
        for x, i in zip(X, sample):
            b = H @ x
            grad = G @ W[i] - b
            tol = KKT_SLACK * DUAL_TOL * (1.0 + float(np.abs(b).max()))
            if grad.min() < -tol or np.abs(grad[W[i] > 0]).max(initial=0.0) > tol:
                problems.append(f"encoding of {corpus.ids[i]} is not the NNLS optimum")
                break
        return float(np.mean((y_hat - corpus.ratings) ** 2))


class TextFit(_TextWorkload):
    """ingest -> fit -> predict -> topics on a rated corpus.

    The training corpus and the fit seed are fixed and --seed draws the
    held-out documents.  A fit of a few iterations lands on a model whose
    held-out error differs by 20-80% between training corpora and fit
    seeds, which would leave ``heldout_mse`` no use as a bound.
    """

    name = "text_fit"
    n_train, n_heldout = 1500, 3000
    r, lam, max_iter = 11, 0.01, 5

    def setup(self, inputs, seed):
        self._draw(0, seed)
        _fresh(inputs)
        textgen.write_corpus_csv(self.train, inputs / "train.csv")
        textgen.write_corpus_csv(self.heldout, inputs / "heldout.csv")

    def commands(self, inputs, out):
        ing, fit = out / "ingest", out / "fit"
        return [
            ("ingest", ["--out", ing, "ingest", inputs / "train.csv"]),
            ("fit", ["--seed", 0, "--out", fit, "fit", ing / "X.csv", ing / "Y.csv",
                     "--r", self.r, "--lam", self.lam, "--restarts", 1,
                     "--max-iter", self.max_iter, "--vectorizer", ing / "vectorizer.json"]),
            ("predict", ["--out", out / "predict", "predict", fit / "model.json",
                         inputs / "heldout.csv"]),
            ("topics", ["--out", out / "topics", "topics", fit / "model.json"]),
        ]

    def gate(self, out):
        problems = []
        self._check_ingest(out / "ingest", problems)
        with open(out / "fit" / "model.json", encoding="utf-8") as fh:
            model = json.load(fh)
        H = np.asarray(model["H"], dtype=float)
        theta = np.asarray(model["theta"], dtype=float)
        Fs = [row[1] for row in model["objective_trace"]]
        worst = max(((b - a) / abs(a) for a, b in zip(Fs, Fs[1:])), default=0.0)
        if worst > 1e-12:
            problems.append(f"objective_trace increases (relative step {worst:.3e})")
        if H.shape != (self.r, len(self.terms)) or theta.shape != (self.r + 1,):
            problems.append(f"model shapes H {H.shape}, theta {theta.shape}")
            return problems, math.nan, 0
        if np.any(H < 0) or np.abs(H.sum(axis=1) - 1.0).max() > 1e-9:
            problems.append("H is negative or its rows do not sum to 1")
        if model.get("vocabulary") != self.terms:
            problems.append("model vocabulary differs from the ingest vocabulary")
        mse = self._check_predictions(out / "predict" / "predictions.csv", H, theta, problems)
        with open(out / "topics" / "topics.json", encoding="utf-8") as fh:
            n_topics = len(json.load(fh)["topics"])
        if n_topics != self.r:
            problems.append(f"topics.json has {n_topics} topics, expected {self.r}")
        return problems, mse, 0


class IngestScore(_TextWorkload):
    """ingest of one corpus, then predict of another against a model built
    from the planted topics (no fit)."""

    name = "ingest_score"
    n_train, n_heldout = 3000, 3000

    def setup(self, inputs, seed):
        self._draw(seed, seed)
        _fresh(inputs)
        textgen.write_corpus_csv(self.train, inputs / "train.csv")
        textgen.write_corpus_csv(self.heldout, inputs / "score.csv")
        self.H, self.theta = self._planted_model()
        doc = {
            "version": 1,
            "r": self.H.shape[0],
            "lambda": 0.0,
            "theta": self.theta.tolist(),
            "H": self.H.tolist(),
            "vocabulary": self.terms,
            "idf": self.idf.tolist(),
            "config": {"r": self.H.shape[0], "lambda": 0.0, "tfidf": TFIDF},
            "objective_trace": [],
        }
        with open(inputs / "model.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def _planted_model(self):
        """Topic rows in TF-IDF space: each planted topic, plus the
        background as a last topic with weight 0.

        Encodings of l1-normalized rows put only the topic part of a
        document's weight on the planted topics, so their regression
        weights are divided by that part's expected share.
        """
        w = self.world
        topics = w.topics[:, self.kept] * self.idf
        background = w.background[self.kept] * self.idf
        bg_share = textgen.BACKGROUND_SHARE
        topic_mass = (1.0 - bg_share) * topics.sum() / topics.shape[0]
        share = topic_mass / (topic_mass + bg_share * background.sum())
        rows = np.vstack([topics, background])
        H = rows / rows.sum(axis=1, keepdims=True)
        theta = np.concatenate([[w.theta[0]], w.theta[1:] / share, [0.0]])
        return H, theta

    def commands(self, inputs, out):
        return [
            ("ingest", ["--out", out / "ingest", "ingest", inputs / "train.csv"]),
            ("predict", ["--out", out / "predict", "predict", inputs / "model.json",
                         inputs / "score.csv"]),
        ]

    def gate(self, out):
        problems = []
        self._check_ingest(out / "ingest", problems)
        mse = self._check_predictions(out / "predict" / "predictions.csv",
                                      self.H, self.theta, problems)
        return problems, mse, 0


WORKLOADS = {w.name: w for w in (SynthSweep, TextFit, IngestScore)}
