import csv
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cssnmf.cli
from cssnmf.cli import main
from cssnmf.io import load_matrix_csv, load_vector_csv, save_matrix_csv, save_vector_csv
from cssnmf.linalg import nnls
from cssnmf.model import (
    Factorization,
    FitConfig,
    FitReport,
    NumericFailure,
    fit,
    load_model,
    save_model,
)
from cssnmf.synthetic import SyntheticConfig, generate, split_arrays


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False, **kwargs)


def write_corpus(path, n=40, seed=4):
    rng = np.random.default_rng(seed)
    pos = "great amazing clear helpful engaging brilliant".split()
    neg = "boring unclear harsh unfair confusing dull".split()
    mid = "lecture homework exams grading syllabus notes".split()
    rows = []
    for i in range(n):
        rating = float(rng.uniform(1, 5))
        words = []
        for _ in range(24):
            pool = pos if rng.random() < (rating - 1) / 4 else neg
            words.append(str(rng.choice(pool if rng.random() < 0.6 else mid)))
        rows.append({"id": f"doc{i}", "text": " ".join(words), "rating": f"{rating:.3f}"})
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["id", "text", "rating"])
        w.writeheader()
        w.writerows(rows)
    return rows


# -------------------------------------------------------------------- synth

def test_synth_default_shapes(runner, tmp_path):
    res = invoke(runner, ["--seed", 1, "--out", tmp_path, "synth"])
    assert res.exit_code == 0
    X, _ = load_matrix_csv(tmp_path / "X.csv")
    Y = load_vector_csv(tmp_path / "Y.csv")
    assert X.shape == (100, 40) and Y.shape == (100,)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert truth["config"] == {"n": 100, "m": 40, "r_true": 4, "M": 20.0,
                               "eta_x": 4.0, "eta_y": 4.0,
                               "noise_kind": "gaussian", "seed": 1}


def test_synth_noise_free_equals_factor_product(runner, tmp_path):
    res = invoke(runner, ["--seed", 2, "--out", tmp_path, "synth",
                          "--n", 12, "--m", 6, "--r", 2, "--eta-x", 0, "--eta-y", 0])
    assert res.exit_code == 0
    X, _ = load_matrix_csv(tmp_path / "X.csv")
    truth = json.loads((tmp_path / "truth.json").read_text())
    W = np.asarray(truth["W_true"])
    H = np.asarray(truth["H_true"])
    assert np.array_equal(X, W @ H)


def test_synth_artifacts_are_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = invoke(runner, ["--seed", 7, "--out", out, "synth", "--n", 15, "--m", 8])
        assert res.exit_code == 0
    for name in ("X.csv", "Y.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------- fit

def test_fit_writes_model_and_trace(runner, tmp_path):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 3, "--out", ds_dir, "synth", "--n", 20, "--m", 8, "--r", 2])
    res = invoke(runner, ["--seed", 0, "--out", tmp_path / "fit", "fit",
                          ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", 2, "--lam", 0.5, "--restarts", 2, "--max-iter", 20])
    assert res.exit_code == 0
    model = load_model(tmp_path / "fit" / "model.json")
    assert model.r == 2 and model.lam == 0.5
    lines = (tmp_path / "fit" / "objective_trace.csv").read_text().splitlines()
    assert lines[0] == "iter,F,N,R"
    trace = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert trace[0][0] == 0
    for row in trace:
        assert abs(row[1] - (row[2] + 0.5 * row[3])) <= 1e-9 * (1 + row[1])
    Fs = [row[1] for row in trace]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(Fs, Fs[1:]))


def test_fit_single_iteration_trace(runner, tmp_path):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 4, "--out", ds_dir, "synth", "--n", 10, "--m", 5, "--r", 2])
    res = invoke(runner, ["--out", tmp_path / "f", "fit", ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", 2, "--max-iter", 1, "--restarts", 1])
    assert res.exit_code == 0
    lines = (tmp_path / "f" / "objective_trace.csv").read_text().splitlines()
    assert len(lines) == 3  # header, initialization, one iteration


def _training_regression_error(model_path, X, Y):
    model = load_model(model_path)
    preds = []
    for x in X:
        w = nnls(model.H.T, x)
        preds.append(model.theta[0] + w @ model.theta[1:])
    return float(np.sum((np.asarray(preds) - Y) ** 2))


def test_fit_small_lambda_does_not_hurt_regression(runner, tmp_path):
    # The coupled objective at a tiny lambda must track the decoupled
    # two-stage fit's regression error to within slack.
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 11, "--out", ds_dir, "synth",
                    "--n", 60, "--m", 24, "--r", 4])
    X, _ = load_matrix_csv(ds_dir / "X.csv")
    Y = load_vector_csv(ds_dir / "Y.csv")
    errors = {}
    for lam in (0.0, 1e-4):
        out = tmp_path / f"lam{lam}"
        res = invoke(runner, ["--seed", 0, "--out", out, "fit",
                              ds_dir / "X.csv", ds_dir / "Y.csv",
                              "--r", 4, "--lam", lam,
                              "--restarts", 4, "--max-iter", 60, "--tau", 1e-6])
        assert res.exit_code == 0
        errors[lam] = _training_regression_error(out / "model.json", X, Y)
    assert errors[1e-4] <= errors[0.0] * 1.05


def test_fit_rejects_mismatched_shapes(runner, tmp_path):
    save_matrix_csv(tmp_path / "X.csv", np.ones((4, 3)))
    save_vector_csv(tmp_path / "Y.csv", np.ones(5))
    res = runner.invoke(main, ["--out", str(tmp_path), "fit",
                               str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"), "--r", "1"])
    assert res.exit_code == 3
    assert "4" in res.stderr and "5" in res.stderr


def test_fit_rejects_negative_data(runner, tmp_path):
    save_matrix_csv(tmp_path / "X.csv", np.array([[1.0, -0.5], [0.2, 0.3]]))
    save_vector_csv(tmp_path / "Y.csv", np.ones(2))
    res = runner.invoke(main, ["--out", str(tmp_path), "fit",
                               str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"), "--r", "1"])
    assert res.exit_code == 3


def test_fit_numeric_failure_exit_code(runner, tmp_path, monkeypatch):
    def explode(X, Y, cfg):
        raise NumericFailure("all 2 restarts failed")

    monkeypatch.setattr(cssnmf.cli, "fit_model", explode)
    save_matrix_csv(tmp_path / "X.csv", np.ones((3, 2)))
    save_vector_csv(tmp_path / "Y.csv", np.ones(3))
    res = runner.invoke(main, ["--out", str(tmp_path), "fit",
                               str(tmp_path / "X.csv"), str(tmp_path / "Y.csv"), "--r", "1"])
    assert res.exit_code == 4
    assert "numeric failure" in res.stderr


def test_unknown_option_is_usage_error(runner):
    res = runner.invoke(main, ["synth", "--does-not-exist"])
    assert res.exit_code == 2


# -------------------------------------------------------------------- sweep

def test_sweep_single_cell_matches_cmd_fit(runner, tmp_path):
    ds = generate(SyntheticConfig(n=30, m=10, r_true=2, M=5.0, eta_x=1.0, eta_y=1.0, seed=31))
    ds_dir = tmp_path / "ds"
    ds_dir.mkdir()
    save_matrix_csv(ds_dir / "X.csv", ds.X)
    save_vector_csv(ds_dir / "Y.csv", ds.Y)
    res = invoke(runner, ["--seed", 5, "--out", tmp_path / "sw", "sweep",
                          ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", 2, "--lambdas", "0.5", "--restarts", 2,
                          "--max-iter", 30, "--tau", 1e-5, "--split-seed", 9])
    assert res.exit_code == 0
    rows = list(csv.DictReader((tmp_path / "sw" / "sweep.csv").open()))
    assert len(rows) == 1 and rows[0]["status"] == "ok"

    # The same training rows fitted through cmd_fit give the same numbers.
    (X_tr, Y_tr), _, _ = split_arrays(ds.X, ds.Y, 0.7, seed=9)
    tr_dir = tmp_path / "tr"
    tr_dir.mkdir()
    save_matrix_csv(tr_dir / "X.csv", X_tr)
    save_vector_csv(tr_dir / "Y.csv", Y_tr)
    res = invoke(runner, ["--seed", 5, "--out", tmp_path / "fit", "fit",
                          tr_dir / "X.csv", tr_dir / "Y.csv",
                          "--r", 2, "--lam", 0.5, "--restarts", 2,
                          "--max-iter", 30, "--tau", 1e-5])
    assert res.exit_code == 0
    trace = (tmp_path / "fit" / "objective_trace.csv").read_text().splitlines()
    final = [float(v) for v in trace[-1].split(",")]
    assert float(rows[0]["final_F"]) == final[1]
    assert float(rows[0]["train_mse"]) == pytest.approx(final[3] / X_tr.shape[0], rel=1e-12)
    assert int(rows[0]["iterations"]) == int(final[0])


# The acceptance benchmark (n=100, m=40, planted rank 4, noise 4, seed 0) swept
# over the thinned lambda grid with one restart per cell.  Pinned from the
# per-column solver that the batched kernel replaced: the fits must be the
# same to the last digit.  Columns: lambda, train_mse, final_F, best_restart,
# iterations, test_mse.
PINNED_ACCEPTANCE_SWEEP = [
    ('0.0', '17.87541260003909', '45784.57018447334', '0', '100', 24.651793919503344),
    ('0.01', '17.811740032673352', '45788.20000509727', '0', '100', 24.677459390322742),
    ('0.1', '17.275557222731173', '45854.98054252192', '0', '100', 24.72642731004343),
    ('1.0', '13.626253343107456', '50948.681500629085', '0', '100', 26.9022306826431),
    ('10.0', '3.777059884877461', '67011.08599829082', '0', '100', 69.5744471732177),
    ('100.0', '0.1869207570537728', '137567.92397340204', '0', '100', 23.30443263007722),
    ('1000.0', '0.04126395945953564', '271459.94980729936', '0', '100', 329.29157003687163),
    ('10000.0', '0.0017456559116583695', '353496.4393077727', '0', '100', 570.6722731787626),
]


def test_sweep_on_acceptance_spec_reproduces_pinned_fits(runner, tmp_path):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 0, "--out", ds_dir, "synth", "--n", 100, "--m", 40, "--r", 4,
                    "--eta-x", 4, "--eta-y", 4])
    lambdas = ",".join(row[0] for row in PINNED_ACCEPTANCE_SWEEP)
    res = invoke(runner, ["--seed", 0, "--out", tmp_path / "sw", "sweep",
                          ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", 4, "--lambdas", lambdas, "--restarts", 1])
    assert res.exit_code == 0
    rows = list(csv.DictReader((tmp_path / "sw" / "sweep.csv").open()))
    assert len(rows) == len(PINNED_ACCEPTANCE_SWEEP)
    for row, (lam, train_mse, final_F, best_restart, iterations, test_mse) in zip(
            rows, PINNED_ACCEPTANCE_SWEEP):
        assert (row["lambda"], row["train_mse"], row["final_F"], row["best_restart"],
                row["iterations"], row["status"]) == \
            (lam, train_mse, final_F, best_restart, iterations, "ok")
        assert float(row["test_mse"]) == pytest.approx(test_mse, rel=1e-12, abs=0.0)


def test_sweep_richer_rank_wins_on_planted_rank_four_data(runner, tmp_path):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 13, "--out", ds_dir, "synth", "--n", 80, "--m", 30, "--r", 4])
    res = invoke(runner, ["--seed", 0, "--out", tmp_path / "sw", "sweep",
                          ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", "1,4", "--lambdas", "0,1", "--restarts", 3,
                          "--max-iter", 50])
    assert res.exit_code == 0
    rows = list(csv.DictReader((tmp_path / "sw" / "sweep.csv").open()))
    best = {}
    for row in rows:
        r = int(row["r"])
        best[r] = min(best.get(r, np.inf), float(row["test_mse"]))
    assert best[1] >= 1.5 * best[4], best


def test_sweep_figure_filter_writes_second_csv(runner, tmp_path):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 8, "--out", ds_dir, "synth", "--n", 24, "--m", 10, "--r", 2])
    res = invoke(runner, ["--seed", 0, "--out", tmp_path / "sw", "sweep",
                          ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", 2, "--lambdas", "0,0.1,1e6", "--restarts", 2,
                          "--max-iter", 25, "--figure-filter"])
    assert res.exit_code == 0
    full = list(csv.DictReader((tmp_path / "sw" / "sweep.csv").open()))
    shown = list(csv.DictReader((tmp_path / "sw" / "sweep_figure.csv").open()))
    assert len(full) == 3  # the record always keeps every point
    assert len(shown) <= len(full)
    assert any(float(r["lambda"]) == 0.0 for r in shown)
    base = next(r for r in full if float(r["lambda"]) == 0.0)
    for row in shown:
        assert float(row["train_mse"]) <= 1.5 * float(base["train_mse"]) or \
            float(row["lambda"]) == 0.0


def test_sweep_bad_lambda_list_is_usage_error(runner, tmp_path):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 9, "--out", ds_dir, "synth", "--n", 10, "--m", 5])
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep",
                               str(ds_dir / "X.csv"), str(ds_dir / "Y.csv"),
                               "--r", "2", "--lambdas", "banana"])
    assert res.exit_code == 2


@pytest.mark.parametrize("r_list", ["2.7", "1,2.5", "inf"])
def test_sweep_refuses_fractional_topic_counts(runner, tmp_path, r_list):
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 9, "--out", ds_dir, "synth", "--n", 10, "--m", 5])
    res = runner.invoke(main, ["--out", str(tmp_path), "sweep",
                               str(ds_dir / "X.csv"), str(ds_dir / "Y.csv"),
                               "--r", r_list, "--lambdas", "0", "--restarts", "1"])
    assert res.exit_code == 2
    assert "--r must be a list of whole numbers" in res.stderr
    assert not (tmp_path / "sweep.csv").exists()


# ------------------------------------------------------------------ predict

def _planted_model(path, vocab=None, idf=None, tfidf=None):
    # Orthogonal, l1-normalized topic rows with known regression weights.
    H = np.array([
        [0.7, 0.3, 0.0, 0.0],
        [0.0, 0.0, 0.4, 0.6],
    ])
    theta = np.array([2.0, 1.5, -0.5])
    fac = Factorization(W=np.zeros((1, 2)), H=H, theta=theta)
    cfg = FitConfig(r=2, lam=0.0)
    report = FitReport(objective_trace=[(0, 1.0, 1.0, 0.0)], final_objective=1.0,
                       iterations_run=0, converged=True, restart_index=0)
    save_model(path, fac, cfg, report, vocabulary=vocab, idf=idf, tfidf=tfidf)
    return H, theta


def test_predict_empty_document_and_pure_topics(runner, tmp_path):
    model_path = tmp_path / "model.json"
    H, theta = _planted_model(model_path)
    docs = np.vstack([np.zeros(4), H[0], H[1]])
    save_matrix_csv(tmp_path / "docs.csv", docs)
    res = invoke(runner, ["--out", tmp_path / "p", "predict", model_path, tmp_path / "docs.csv"])
    assert res.exit_code == 0
    rows = list(csv.DictReader((tmp_path / "p" / "predictions.csv").open()))
    assert [r["id"] for r in rows] == ["0", "1", "2"]
    assert float(rows[0]["y_hat"]) == theta[0]
    assert float(rows[1]["y_hat"]) == theta[0] + theta[1]
    assert float(rows[2]["y_hat"]) == theta[0] + theta[2]
    assert float(rows[1]["w_1"]) == 1.0 and float(rows[1]["w_2"]) == 0.0


def test_predict_reproduces_training_encodings_at_lambda_zero():
    # Noise-free data is fitted exactly, so re-encoding a training row
    # against the final topics recovers its stored loadings.
    ds = generate(SyntheticConfig(n=25, m=10, r_true=2, M=5.0, eta_x=0.0, eta_y=0.0, seed=41))
    fac, _ = fit(ds.X, ds.Y, FitConfig(r=2, lam=0.0, tau=1e-8, max_iter=80, seed=1, restarts=2))
    for i, x in enumerate(ds.X):
        w = nnls(fac.H.T, x)
        assert np.linalg.norm(w - fac.W[i]) <= 1e-6


def test_predict_grouped_summary(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    rng = np.random.default_rng(5)
    docs = rng.uniform(size=(12, 4))
    ratings = np.array([1.2, 1.8, 2.5, 2.9, 3.1, 3.5, 4.2, 4.9, 5.0, 1.1, 2.2, 3.3])
    save_matrix_csv(tmp_path / "docs.csv", docs)
    save_vector_csv(tmp_path / "ratings.csv", ratings)
    res = invoke(runner, ["--out", tmp_path / "p", "predict", model_path,
                          tmp_path / "docs.csv", "--ratings", tmp_path / "ratings.csv"])
    assert res.exit_code == 0
    groups = list(csv.DictReader((tmp_path / "p" / "groups.csv").open()))
    assert [g["low"] for g in groups] == ["1.0", "2.0", "3.0", "4.0"]
    counts = [int(g["count"]) for g in groups]
    assert counts == [3, 3, 3, 3]  # 5.0 lands in the closed top interval
    preds = list(csv.DictReader((tmp_path / "p" / "predictions.csv").open()))
    in_first = [float(p["y_hat"]) for p, y in zip(preds, ratings) if 1 <= y < 2]
    assert float(groups[0]["mean_pred"]) == pytest.approx(np.mean(in_first), rel=1e-12)
    assert float(groups[0]["mean_true"]) == pytest.approx(np.mean([1.2, 1.8, 1.1]), rel=1e-12)


def test_predict_ratings_length_mismatch(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    save_matrix_csv(tmp_path / "docs.csv", np.zeros((2, 4)))
    save_vector_csv(tmp_path / "ratings.csv", np.ones(3))
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(model_path),
                               str(tmp_path / "docs.csv"),
                               "--ratings", str(tmp_path / "ratings.csv")])
    assert res.exit_code == 3


def test_predict_text_against_vocabulary_free_model(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text('{"id": "a", "text": "anything"}\n')
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict",
                               str(model_path), str(corpus)])
    assert res.exit_code == 2
    assert "vocabulary" in res.stderr


def test_predict_wrong_column_count(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    save_matrix_csv(tmp_path / "docs.csv", np.zeros((2, 7)))
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(model_path),
                               str(tmp_path / "docs.csv")])
    assert res.exit_code == 3


@pytest.mark.parametrize("edges", ["5,1", "3", "1,1", "1,nan"])
def test_predict_refuses_edges_that_are_not_ascending(runner, tmp_path, edges):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    save_matrix_csv(tmp_path / "docs.csv", np.ones((2, 4)))
    save_vector_csv(tmp_path / "ratings.csv", np.array([1.0, 4.0]))
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(model_path),
                               str(tmp_path / "docs.csv"),
                               "--ratings", str(tmp_path / "ratings.csv"), "--edges", edges])
    assert res.exit_code == 2
    assert "--edges needs at least two strictly ascending edges" in res.stderr
    assert not (tmp_path / "p").exists()


def test_predict_non_finite_model_exits_3_instead_of_hanging(tmp_path):
    # Python's json reads NaN; an unchecked NaN in H stalls the NNLS solve,
    # so run in a subprocess that a timeout can stop.
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    doc = json.loads(model_path.read_text())
    doc["H"][0][0] = float("nan")
    model_path.write_text(json.dumps(doc))
    save_matrix_csv(tmp_path / "docs.csv", np.ones((2, 4)))
    env = dict(os.environ, PYTHONPATH=str(Path(cssnmf.cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cssnmf.cli", "--out", str(tmp_path / "p"), "predict",
         str(model_path), str(tmp_path / "docs.csv")],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 3, proc.stderr
    assert "non-finite" in proc.stderr


def _predict_rows(runner, out, model_path, docs_path, *options):
    res = runner.invoke(main, [str(a) for a in ["--out", out, "predict", model_path, docs_path,
                                                *options]])
    rows = None
    if res.exit_code == 0:
        rows = list(csv.DictReader((Path(out) / "predictions.csv").open()))
    return res, rows


def test_predict_detects_matrix_with_id_and_text_terms_and_quoted_corpus(runner, tmp_path):
    # Neither "id" nor "text" is a stopword, so an ingested X.csv can carry
    # both in its header; its numeric records make it a matrix all the same.
    # A corpus whose header is quoted is still a corpus.
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["id", "text", "gamma", "delta"], idf=[1.0] * 4,
                   tfidf={"min_df": 0.0, "max_df": 1.0, "stopwords": "none",
                          "lowercase": True, "norm": "l1"})
    X_path = tmp_path / "X.csv"
    save_matrix_csv(X_path, np.array([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6]]),
                    header=["id", "text", "gamma", "delta"])
    _, auto = _predict_rows(runner, tmp_path / "a", model_path, X_path)
    _, matrix = _predict_rows(runner, tmp_path / "m", model_path, X_path,
                              "--input-format", "matrix")
    assert auto == matrix and [r["id"] for r in auto] == ["0", "1"]
    assert [float(r["y_hat"]) for r in auto] == [3.5, 1.5]

    corpus = tmp_path / "quoted.csv"
    corpus.write_text('"id","text","rating"\n"a","id id text","4"\n"b","delta gamma","2"\n')
    _, auto = _predict_rows(runner, tmp_path / "qa", model_path, corpus)
    _, text = _predict_rows(runner, tmp_path / "qt", model_path, corpus,
                            "--input-format", "text")
    assert auto == text and [r["id"] for r in auto] == ["a", "b"]


NO_STOP_TFIDF = {"min_df": 0.0, "max_df": 1.0, "stopwords": "none", "lowercase": True,
                 "norm": "l1"}


def test_predict_maps_corpus_terms_in_the_model_files_order(runner, tmp_path):
    # With H = I each topic is one term, so the encoding shows which column
    # a document's term went to; "zebra" is column 0, as in the file.
    model_path = tmp_path / "model.json"
    fac = Factorization(W=np.zeros((1, 2)), H=np.eye(2), theta=np.array([0.0, 5.0, 1.0]))
    report = FitReport(objective_trace=[(0, 0.0, 0.0, 0.0)], final_objective=0.0,
                       iterations_run=0, converged=True, restart_index=0)
    save_model(model_path, fac, FitConfig(r=2), report, vocabulary=["zebra", "apple"],
               idf=[1.0, 1.0], tfidf=NO_STOP_TFIDF)
    corpus = tmp_path / "docs.csv"
    corpus.write_text("id,text\nz,zebra zebra\n")
    res = invoke(runner, ["--out", tmp_path / "p", "predict", model_path, corpus])
    assert res.exit_code == 0
    assert (tmp_path / "p" / "predictions.csv").read_text() == "id,y_hat,w_1,w_2\nz,5.0,1.0,0.0\n"


# ----------------------------------------------------- text path end to end

def test_text_workflow_ingest_fit_predict_topics(runner, tmp_path):
    corpus_path = tmp_path / "corpus.csv"
    rows = write_corpus(corpus_path, n=40, seed=4)
    ing = tmp_path / "ing"
    res = invoke(runner, ["--seed", 1, "--out", ing, "ingest", corpus_path,
                          "--min-df", 0.05, "--max-df", 0.9])
    assert res.exit_code == 0
    X, header = load_matrix_csv(ing / "X.csv")
    assert header == sorted(header)
    assert X.shape[0] == 40 and np.allclose(X.sum(axis=1), 1.0, atol=1e-9)
    Y = load_vector_csv(ing / "Y.csv")
    assert np.array_equal(Y, np.array([float(r["rating"]) for r in rows]))

    fit_dir = tmp_path / "fit"
    res = invoke(runner, ["--seed", 1, "--out", fit_dir, "fit",
                          ing / "X.csv", ing / "Y.csv", "--r", 3, "--lam", 0.1,
                          "--restarts", 2, "--max-iter", 40,
                          "--vectorizer", ing / "vectorizer.json"])
    assert res.exit_code == 0
    model = load_model(fit_dir / "model.json")
    assert model.vocabulary == header
    assert model.idf is not None and model.config["tfidf"]["min_df"] == 0.05
    tfidf_keys = ["min_df", "max_df", "stopwords", "lowercase", "norm"]
    assert list(model.config) == ["r", "lambda", "tau", "max_iter", "seed", "restarts", "tfidf"]
    assert list(model.config["tfidf"]) == tfidf_keys
    assert list(json.loads((ing / "vectorizer.json").read_text())["config"]) == tfidf_keys

    # Text predictions equal matrix predictions on the training documents.
    p_text = tmp_path / "pt"
    res = invoke(runner, ["--out", p_text, "predict", fit_dir / "model.json", corpus_path])
    assert res.exit_code == 0
    p_mat = tmp_path / "pm"
    res = invoke(runner, ["--out", p_mat, "predict", fit_dir / "model.json", ing / "X.csv",
                          "--ratings", ing / "Y.csv"])
    assert res.exit_code == 0
    text_rows = list(csv.DictReader((p_text / "predictions.csv").open()))
    mat_rows = list(csv.DictReader((p_mat / "predictions.csv").open()))
    assert [r["y_hat"] for r in text_rows] == [r["y_hat"] for r in mat_rows]
    assert (p_text / "groups.csv").exists()  # corpus ratings travel inline

    # An explicit --input-format gives what auto-detection chose.
    model_path = fit_dir / "model.json"
    _, rows = _predict_rows(runner, tmp_path / "ft", model_path, corpus_path,
                            "--input-format", "text")
    assert rows == text_rows
    _, rows = _predict_rows(runner, tmp_path / "fm", model_path, ing / "X.csv",
                            "--input-format", "matrix", "--ratings", ing / "Y.csv")
    assert rows == mat_rows
    res, _ = _predict_rows(runner, tmp_path / "fx", model_path, ing / "X.csv",
                           "--input-format", "text")
    assert res.exit_code == 3 and "missing columns ['id', 'text']" in res.stderr

    top = tmp_path / "top"
    res = invoke(runner, ["--out", top, "topics", fit_dir / "model.json", "--top-k", 5])
    assert res.exit_code == 0
    report = json.loads((top / "topics.json").read_text())
    thetas = [t["theta"] for t in report["topics"]]
    assert thetas == sorted(thetas, reverse=True)
    assert all(len(t["terms"]) == 5 for t in report["topics"])
    text_render = (top / "topics.txt").read_text()
    assert "intercept:" in text_render and "theta=" in text_render


def _planted_topic_corpus(path, seed):
    # 3 topics of 15 pseudo-words each and 30 background words, none a
    # stopword.  Each document draws 20 tokens from one topic and 5 from the
    # background; its rating rises with its topic.
    rng = np.random.default_rng(seed)
    topics = [[f"topic{t}word{j}" for j in range(15)] for t in range(3)]
    background = [f"filler{j}" for j in range(30)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "text", "rating"])
        for i in range(300):
            t = int(rng.integers(3))
            words = list(rng.choice(topics[t], 20)) + list(rng.choice(background, 5))
            rng.shuffle(words)
            w.writerow([f"d{i}", " ".join(words), f"{1.5 + 1.5 * t + rng.uniform(-0.4, 0.4):.3f}"])
    return topics


@pytest.mark.parametrize("seed", range(5))
def test_text_pipeline_recovers_planted_topics(runner, tmp_path, seed):
    planted = _planted_topic_corpus(tmp_path / "corpus.csv", seed)
    res = invoke(runner, ["--seed", seed, "--out", tmp_path / "ing", "ingest",
                          tmp_path / "corpus.csv", "--max-df", 0.5])
    assert res.exit_code == 0
    ing = tmp_path / "ing"
    res = invoke(runner, ["--seed", seed, "--out", tmp_path / "fit", "fit", ing / "X.csv",
                          ing / "Y.csv", "--r", 3, "--lam", 0.01, "--restarts", 3,
                          "--max-iter", 100, "--vectorizer", ing / "vectorizer.json"])
    assert res.exit_code == 0
    res = invoke(runner, ["--out", tmp_path / "top", "topics", tmp_path / "fit" / "model.json"])
    assert res.exit_code == 0
    report = json.loads((tmp_path / "top" / "topics.json").read_text())
    top = [{tw["term"] for tw in entry["terms"]} for entry in report["topics"]]
    assert all(len(terms) == 10 for terms in top)
    # Match fitted to planted topics by the permutation with most overlap.
    best = max(itertools.permutations(range(3)),
               key=lambda perm: sum(len(top[k] & set(planted[t])) for k, t in enumerate(perm)))
    for k, t in enumerate(best):
        assert top[k] <= set(planted[t])


def test_ingest_flags_zero_rows(runner, tmp_path):
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text(
        "id,text,rating\n"
        "a,apple banana apple,2\n"
        "b,banana cherry,3\n"
        "c,apple cherry banana,4\n"
        "d,zzz,1\n"
    )
    res = invoke(runner, ["--out", tmp_path / "ing", "ingest", corpus_path,
                          "--min-df", 0.3, "--max-df", 1.0, "--stopwords", "none"])
    assert res.exit_code == 0
    assert "zero rows" in res.stderr and "d" in res.stderr


def test_ingest_refuses_an_all_numeric_vocabulary_before_writing(runner, tmp_path):
    # X.csv's header would read back as a data row.
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text(
        "id,text,rating\n"
        "a,10 20 10,1\n"
        "b,20 30,2\n"
        "c,30 10 40,3\n"
        "d,40 10,4\n"
    )
    out = tmp_path / "ing"
    res = invoke(runner, ["--out", out, "ingest", corpus_path, "--min-df", 0, "--max-df", 1])
    assert res.exit_code == 3
    assert "every column name reads as a number" in res.stderr
    assert not any(out.iterdir())


def test_ingest_balance_is_seeded(runner, tmp_path):
    corpus_path = tmp_path / "c.csv"
    lines = ["id,text,rating"]
    for i in range(30):
        rating = 1.5 if i < 20 else 4.5
        lines.append(f"d{i},apple banana cherry word{i},{rating}")
    corpus_path.write_text("\n".join(lines) + "\n")
    outs = []
    for name in ("b1", "b2"):
        res = invoke(runner, ["--seed", 3, "--out", tmp_path / name, "ingest", corpus_path,
                              "--min-df", 0.0, "--max-df", 1.0, "--stopwords", "none",
                              "--balance-edges", "1,3,5"])
        assert res.exit_code == 0
        assert "balanced to 20 documents" in res.stdout
        outs.append((tmp_path / name / "X.csv").read_bytes())
    assert outs[0] == outs[1]


def test_ingest_refuses_balance_edges_that_are_not_ascending(runner, tmp_path):
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("id,text,rating\na,apple banana,2\nb,banana cherry,4\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path),
                               "--balance-edges", "5,1"])
    assert res.exit_code == 2
    assert "--balance-edges needs at least two strictly ascending edges" in res.stderr


def test_ingest_rejects_out_of_range_rating(runner, tmp_path):
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("id,text,rating\na,apple,9\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path)])
    assert res.exit_code == 3


@pytest.mark.parametrize("bounds", ["5,1", "nan,5"])
def test_ingest_refuses_a_rating_range_that_is_not_ascending(runner, tmp_path, bounds):
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("id,text,rating\na,apple,4\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path),
                               "--rating-range", bounds])
    assert res.exit_code == 2
    assert "--rating-range must be lo,hi with lo < hi" in res.stderr


def test_ingest_refuses_a_json_lines_record_that_is_not_an_object(runner, tmp_path):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text('{"id": "a", "text": "apple", "rating": 4}\n[1, 2]\n')
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path)])
    assert res.exit_code == 3
    assert "line 2 is not a JSON object" in res.stderr


def test_predict_accepts_ratings_outside_the_ingest_default_range(runner, tmp_path):
    # The rating range is an ingest setting: predict groups any rating by --edges.
    words = "apple banana cherry damson elder fig grape".split()

    def corpus(path, prefix, ratings):
        rows = [{"id": f"{prefix}{i}", "rating": rating,
                 "text": " ".join(words[(i + k) % len(words)] for k in range(3))}
                for i, rating in enumerate(ratings)]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["id", "text", "rating"])
            writer.writeheader()
            writer.writerows(rows)

    corpus(tmp_path / "train.csv", "d", [i % 11 for i in range(60)])
    held = [0, 8, 10, 0, 8, 10, 0, 8, 10, 10]
    corpus(tmp_path / "held.csv", "h", held)
    res = invoke(runner, ["--out", tmp_path / "ing", "ingest", tmp_path / "train.csv",
                          "--rating-range", "0,10", "--min-df", 0, "--max-df", 1.0])
    assert res.exit_code == 0
    ing = tmp_path / "ing"
    res = invoke(runner, ["--out", tmp_path / "fit", "fit", ing / "X.csv", ing / "Y.csv",
                          "--r", 2, "--restarts", 1, "--vectorizer", ing / "vectorizer.json"])
    assert res.exit_code == 0
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict",
                               str(tmp_path / "fit" / "model.json"), str(tmp_path / "held.csv"),
                               "--edges", "0,5,10"])
    assert res.exit_code == 0, res.output
    groups = list(csv.DictReader((tmp_path / "p" / "groups.csv").open()))
    assert [int(g["count"]) for g in groups] == [3, 7]
    assert sum(int(g["count"]) for g in groups) == len(held)


# ------------------------------------------------------ malformed documents

@pytest.fixture(scope="module")
def fitted_text_model(tmp_path_factory):
    """An ingested corpus and a model fitted on it with its vectorizer."""
    d = tmp_path_factory.mktemp("fitted")
    write_corpus(d / "corpus.csv", n=20, seed=6)
    runner = CliRunner()
    assert invoke(runner, ["--out", d, "ingest", d / "corpus.csv",
                           "--min-df", 0.05, "--max-df", 0.9]).exit_code == 0
    assert invoke(runner, ["--out", d, "fit", d / "X.csv", d / "Y.csv", "--r", 2,
                           "--restarts", 1, "--max-iter", 3,
                           "--vectorizer", d / "vectorizer.json"]).exit_code == 0
    return d


def _edit(key, value):
    return lambda doc: {**doc, key: value}


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _unknown_tfidf_key(doc):
    return {**doc, "config": {**doc["config"],
                              "tfidf": {**doc["config"]["tfidf"], "colour": "red"}}}


def _repeat_first_term(doc):
    return {**doc, "vocabulary": [doc["vocabulary"][0]] * len(doc["vocabulary"])}


@pytest.mark.parametrize("name, edit", [
    ("model.json", _drop("r")),
    ("model.json", _drop("H")),
    ("model.json", _edit("theta", 1.5)),
    ("model.json", _edit("vocabulary", 7)),
    ("model.json", _unknown_tfidf_key),
    ("model.json", lambda doc: [doc]),
    ("vectorizer.json", _drop("vocabulary")),
    ("vectorizer.json", lambda doc: {**doc, "config": {**doc["config"], "colour": "red"}}),
    ("vectorizer.json", lambda doc: {**doc, "idf": [float("nan")] * len(doc["idf"])}),
    ("vectorizer.json", lambda doc: [doc]),
    ("model.json", _repeat_first_term),
    ("vectorizer.json", _repeat_first_term),
], ids=["model-without-r", "model-without-H", "model-theta-number",
        "model-vocabulary-number", "model-tfidf-unknown-key", "model-array",
        "vectorizer-without-vocabulary", "vectorizer-config-unknown-key",
        "vectorizer-nan-idf", "vectorizer-array", "model-repeated-term",
        "vectorizer-repeated-term"])
def test_malformed_model_or_vectorizer_exits_3(runner, tmp_path, fitted_text_model, name, edit):
    d = fitted_text_model
    doc = json.loads((d / name).read_text())
    bad = tmp_path / name
    bad.write_text(json.dumps(edit(doc)))
    if name == "model.json":
        args = ["predict", bad, d / "corpus.csv"]
    else:
        args = ["fit", d / "X.csv", d / "Y.csv", "--r", 2, "--restarts", 1, "--max-iter", 3,
                "--vectorizer", bad]
    res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
    assert res.exit_code == 3, res.output
    assert f"{bad}: " in res.stderr
    assert not (tmp_path / "out" / "model.json").exists()


def test_fit_refuses_an_x_header_that_is_not_the_vectorizer_vocabulary(
        runner, tmp_path, fitted_text_model):
    d = fitted_text_model
    header, body = (d / "X.csv").read_text().split("\n", 1)
    terms = header.split(",")
    terms[0], terms[1] = terms[1], terms[0]
    swapped = tmp_path / "X.csv"
    swapped.write_text(",".join(terms) + "\n" + body)
    res = runner.invoke(main, [str(a) for a in [
        "--out", tmp_path / "out", "fit", swapped, d / "Y.csv", "--r", 2, "--restarts", 1,
        "--max-iter", 3, "--vectorizer", d / "vectorizer.json"]])
    assert res.exit_code == 3, res.output
    assert str(swapped) in res.stderr and str(d / "vectorizer.json") in res.stderr
    assert not (tmp_path / "out" / "model.json").exists()


def test_fit_embeds_the_vectorizer_vocabulary_in_its_order(runner, tmp_path):
    vec = tmp_path / "vectorizer.json"
    vec.write_text(json.dumps({"version": 1, "config": NO_STOP_TFIDF,
                               "vocabulary": ["zebra", "apple"], "idf": [3.0, 7.0]}))
    save_matrix_csv(tmp_path / "X.csv", np.array([[0.2, 0.8], [0.6, 0.4], [1.0, 0.0]]),
                    header=["zebra", "apple"])
    save_vector_csv(tmp_path / "Y.csv", np.array([1.0, 2.0, 3.0]))
    res = invoke(runner, ["--out", tmp_path / "f", "fit", tmp_path / "X.csv",
                          tmp_path / "Y.csv", "--r", 1, "--restarts", 1, "--max-iter", 3,
                          "--vectorizer", vec])
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "f" / "model.json").read_text())
    assert doc["vocabulary"] == ["zebra", "apple"] and doc["idf"] == [3.0, 7.0]


# ------------------------------------------------------------------- topics

def test_topics_planted_support_and_tie_break(runner, tmp_path):
    vocab = ["alpha", "beta", "gamma", "delta"]
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=vocab, idf=[1.0] * 4,
                   tfidf={"min_df": 0.0, "max_df": 1.0, "stopwords": "none",
                          "lowercase": True, "norm": "l1"})
    res = invoke(runner, ["--out", tmp_path / "t", "topics", model_path, "--top-k", 1])
    assert res.exit_code == 0
    report = json.loads((tmp_path / "t" / "topics.json").read_text())
    # theta = (1.5, -0.5): topic 0 first; its heaviest term is alpha (0.7).
    assert [t["topic"] for t in report["topics"]] == [0, 1]
    assert report["topics"][0]["terms"][0]["term"] == "alpha"
    assert report["topics"][1]["terms"][0]["term"] == "delta"
    assert report["intercept"] == 2.0


def test_topics_breaks_weight_ties_lexicographically(runner, tmp_path):
    model_path = tmp_path / "model.json"
    H = np.array([[0.25, 0.25, 0.25, 0.25]])
    fac = Factorization(W=np.zeros((1, 1)), H=H, theta=np.array([0.0, 1.0]))
    report = FitReport(objective_trace=[(0, 0.0, 0.0, 0.0)], final_objective=0.0,
                       iterations_run=0, converged=True, restart_index=0)
    save_model(model_path, fac, FitConfig(r=1), report,
               vocabulary=["delta", "alpha", "gamma", "beta"])
    res = invoke(runner, ["--out", tmp_path / "t", "topics", model_path, "--top-k", 2])
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "t" / "topics.json").read_text())
    assert [tw["term"] for tw in doc["topics"][0]["terms"]] == ["alpha", "beta"]


def test_topics_clamps_oversized_top_k(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["a1", "b2", "c3", "d4"])
    res = invoke(runner, ["--out", tmp_path / "t", "topics", model_path, "--top-k", 99])
    assert res.exit_code == 0
    assert "clamped" in res.stderr
    doc = json.loads((tmp_path / "t" / "topics.json").read_text())
    assert all(len(t["terms"]) == 4 for t in doc["topics"])


def test_topics_requires_vocabulary(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    res = runner.invoke(main, ["--out", str(tmp_path / "t"), "topics", str(model_path)])
    assert res.exit_code == 2


def test_topics_rejects_vocabulary_of_wrong_length(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["alpha", "beta", "gamma"])
    res = runner.invoke(main, ["--out", str(tmp_path / "t"), "topics", str(model_path)])
    assert res.exit_code == 3
    assert ("model document is inconsistent: 3 vocabulary entries for 4 columns of H"
            in res.stderr)
    assert not (tmp_path / "t" / "topics.json").exists()


def test_topics_refuses_a_repeated_vocabulary_term(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["alpha", "beta", "alpha", "delta"])
    res = runner.invoke(main, ["--out", str(tmp_path / "t"), "topics", str(model_path)])
    assert res.exit_code == 3
    assert f"{model_path}: field 'vocabulary' repeats the term 'alpha'" in res.stderr
    assert not (tmp_path / "t" / "topics.json").exists()
