import csv
import functools
import itertools
import json
import os
import re
import subprocess
import sys
from collections import Counter
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cssnmf.cli
import cssnmf.sweep
import cssnmf.text
from conftest import csv_rows, pinned, row_from_counts_reference, save_matrix_csv_reference
from cssnmf.cli import main
from cssnmf.io import (load_matrix_csv, load_vector_csv, save_matrix_csv, save_vector_csv,
                       write_table)
from cssnmf.linalg import nnls
from cssnmf.model import (
    Factorization,
    FitConfig,
    FitReport,
    NumericFailure,
    fit,
    load_model,
    predict_many,
    save_model,
)
from cssnmf.synthetic import SyntheticConfig, generate, split_arrays
from cssnmf.text import TfidfConfig, load_vectorizer, tokenize


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


def test_synth_refuses_a_dataset_that_overflows(runner, tmp_path):
    # Once numpy's overflow warning, then an X.csv of inf cells that fit refuses.
    res = runner.invoke(main, ["--out", str(tmp_path / "s"), "synth", "--scale", "1e200"])
    assert_clean_exit(res, 3, "error: the dataset overflows: with M=1e+200, eta_x=4.0")
    assert "Warning" not in res.output
    assert not (tmp_path / "s").exists()


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
    doc = json.loads((tmp_path / "fit" / "model.json").read_text())
    assert doc["r"] == 2 and doc["lambda"] == 0.5
    assert load_model(tmp_path / "fit" / "model.json").H.shape[0] == 2
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


def test_fit_reads_a_headerless_matrix_with_a_byte_order_mark(runner, tmp_path):
    # The mark must not make the first row read as a header and be lost.
    body = "1.0,2.0\n3.0,1.0\n2.0,2.0\n0.5,1.5\n"
    (tmp_path / "plain.csv").write_text(body, encoding="utf-8")
    (tmp_path / "marked.csv").write_text(body, encoding="utf-8-sig")
    save_vector_csv(tmp_path / "Y.csv", [1.0, 2.0, 3.0, 1.5])
    for name in ("plain", "marked"):
        res = invoke(runner, ["--out", tmp_path / name, "fit", tmp_path / f"{name}.csv",
                              tmp_path / "Y.csv", "--r", 1, "--restarts", 1, "--max-iter", 5])
        assert res.exit_code == 0, res.output
    assert (tmp_path / "marked" / "model.json").read_bytes() == \
        (tmp_path / "plain" / "model.json").read_bytes()


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


def test_an_array_too_large_to_allocate_is_a_data_error(runner, tmp_path, monkeypatch):
    # The allocation is refused by a stand-in: a real oversized shape can
    # first allocate gigabytes before the request that fails.
    def refuse(cfg):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with shape "
                          "(100000000, 100000) and data type float64")

    monkeypatch.setattr(cssnmf.cli, "generate", refuse)
    res = runner.invoke(main, ["--out", str(tmp_path), "synth", "--n", "100000000",
                               "--m", "100000"])
    assert res.exit_code == 3
    assert res.stderr == ("error: out of memory: Unable to allocate 72.8 TiB for an array "
                          "with shape (100000000, 100000) and data type float64\n")
    assert "Traceback" not in res.output


def test_unknown_option_is_usage_error(runner):
    res = runner.invoke(main, ["synth", "--does-not-exist"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (["fit", "{f}", "{f}", "--r", "0"], "r must be >= 1"),
    (["fit", "{f}", "{f}", "--r", "2", "--restarts", "0"], "restarts must be >= 1"),
    (["fit", "{f}", "{f}", "--r", "2", "--tau", "0"], "tau must be > 0"),
    (["sweep", "{f}", "{f}", "--r", "0", "--lambdas", "0"], "r_values must be >= 1, got 0"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "-1"], "lam must be finite and >= 0"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--train-frac", "1.5"],
     "train_frac must lie in (0, 1)"),
    (["ingest", "{f}", "--min-df", "2"], "df bounds must be fractions"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--restarts", "0"],
     "restarts must be >= 1"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--tau", "0"], "tau must be > 0"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--tau", "nan"],
     "tau must be finite, got nan"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--max-iter", "0"],
     "max_iter must be >= 1"),
    (["--seed", "-1", "fit", "{f}", "{f}", "--r", "2"], "-1 is not in the range x>=0"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--split-seed", "-1"],
     "-1 is not in the range x>=0"),
    (["sweep", "{f}", "{f}", "--r", "2", "--lambdas", "0", "--fit-seed", "-1"],
     "-1 is not in the range x>=0"),
    (["--seed", "-1", "ingest", "{f}", "--balance-edges", "1,2,3,4,5"],
     "-1 is not in the range x>=0"),
    # synth reads no file; it must still refuse before writing.
    (["synth", "--n", "0"], "n must be >= 1, got 0"),
    (["synth", "--scale", "0"], "M must be > 0"),
    # Read as a model, the file is malformed JSON.
    (["topics", "{f}", "--top-k", "0"], "0 is not in the range x>=1"),
    # inf once exited 1 with a traceback, nan wrote an X.csv of nan.
    (["synth", "--scale", "inf"], "M must be finite, got inf"),
    (["synth", "--eta-x", "nan"], "eta_x must be finite, got nan"),
])
def test_out_of_range_options_are_usage_errors_before_any_file_is_read(runner, tmp_path,
                                                                       args, message):
    # Read first, this file would be refused as data, with exit 3.
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\nx,y\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "o")]
                        + [str(bad) if a == "{f}" else a for a in args])
    assert res.exit_code == 2, res.output
    assert message in res.stderr
    assert not (tmp_path / "o").exists()


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
    rows = csv_rows(tmp_path / "sw" / "sweep.csv")
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
# over the thinned lambda grid with one restart per cell, per OpenBLAS kernel.
# Pinned from the per-column solver that the batched kernel replaced: the fits
# must be the same to the last digit.  Columns: lambda, train_mse, final_F,
# best_restart, iterations, test_mse.
PINNED_ACCEPTANCE_SWEEP = {
    "SkylakeX": [
        ('0.0', '17.87541260003909', '45784.57018447334', '0', '100', 24.651793919503344),
        ('0.01', '17.811740032673352', '45788.20000509727', '0', '100', 24.677459390322742),
        ('0.1', '17.275557222731173', '45854.98054252192', '0', '100', 24.72642731004343),
        ('1.0', '13.626253343107456', '50948.681500629085', '0', '100', 26.9022306826431),
        ('10.0', '3.777059884877461', '67011.08599829082', '0', '100', 69.5744471732177),
        ('100.0', '0.1869207570537728', '137567.92397340204', '0', '100', 23.30443263007722),
        ('1000.0', '0.04126395945953564', '271459.94980729936', '0', '100', 329.29157003687163),
        ('10000.0', '0.0017456559116583695', '353496.4393077727', '0', '100', 570.6722731787626),
    ],
    "Haswell": [
        ('0.0', '17.875412600039894', '45784.57018447519', '0', '100', 24.651793919503653),
        ('0.01', '17.811740032673903', '45788.200005097286', '0', '100', 24.67745939032092),
        ('0.1', '17.27555722273065', '45854.98054252152', '0', '100', 24.72642731004243),
        ('1.0', '13.626253343107265', '50948.68150062629', '0', '100', 26.9022306826425),
        ('10.0', '3.777059884877655', '67011.08599829252', '0', '100', 69.57444717321658),
        ('100.0', '0.1869207570537873', '137567.9239733959', '0', '100', 23.30443263007624),
        ('1000.0', '0.041263959459536204', '271459.94980728783', '0', '100', 329.2915700368513),
        ('10000.0', '0.001745655911656628', '353496.4393077772', '0', '100', 570.6722731787887),
    ],
}


def test_sweep_on_acceptance_spec_reproduces_pinned_fits(runner, tmp_path):
    pins = pinned(PINNED_ACCEPTANCE_SWEEP, "PINNED_ACCEPTANCE_SWEEP")
    ds_dir = tmp_path / "ds"
    invoke(runner, ["--seed", 0, "--out", ds_dir, "synth", "--n", 100, "--m", 40, "--r", 4,
                    "--eta-x", 4, "--eta-y", 4])
    lambdas = ",".join(row[0] for row in pins)
    res = invoke(runner, ["--seed", 0, "--out", tmp_path / "sw", "sweep",
                          ds_dir / "X.csv", ds_dir / "Y.csv",
                          "--r", 4, "--lambdas", lambdas, "--restarts", 1])
    assert res.exit_code == 0
    rows = csv_rows(tmp_path / "sw" / "sweep.csv")
    assert len(rows) == len(pins)
    for row, (lam, train_mse, final_F, best_restart, iterations, test_mse) in zip(rows, pins):
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
    rows = csv_rows(tmp_path / "sw" / "sweep.csv")
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
    full = csv_rows(tmp_path / "sw" / "sweep.csv")
    shown = csv_rows(tmp_path / "sw" / "sweep_figure.csv")
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
    for lambdas, message in [("banana", "unknown lambda grid 'banana'; choices: ['synth', 'text']"),
                             ("nan", "lambda_values must be finite, got nan")]:
        res = runner.invoke(main, ["--out", str(tmp_path), "sweep",
                                   str(ds_dir / "X.csv"), str(ds_dir / "Y.csv"),
                                   "--r", "2", "--lambdas", lambdas])
        assert res.exit_code == 2
        assert message in res.stderr


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

NO_STOP_TFIDF = {"min_df": 0.0, "max_df": 1.0, "stopwords": "none", "lowercase": True,
                 "norm": "l1"}


def _planted_model(path, vocab=None, idf=None, tfidf=NO_STOP_TFIDF):
    """Orthogonal, l1-normalized topic rows with known regression weights;
    with ``vocab``, a whole vectorizer: ``idf`` (all ones by default) and
    the ``tfidf`` settings."""
    H = np.array([
        [0.7, 0.3, 0.0, 0.0],
        [0.0, 0.0, 0.4, 0.6],
    ])
    theta = np.array([2.0, 1.5, -0.5])
    fac = Factorization(W=np.zeros((1, 2)), H=H, theta=theta)
    cfg = FitConfig(r=2, lam=0.0)
    report = FitReport(objective_trace=[(0, 1.0, 1.0, 0.0)], final_objective=1.0,
                       iterations_run=0, converged=True, restart_index=0)
    vectorizer = None
    if vocab is not None:
        vectorizer = (vocab, [1.0] * len(vocab) if idf is None else idf, TfidfConfig(**tfidf))
    save_model(path, fac, cfg, report, vectorizer)
    return H, theta


def test_predict_empty_document_and_pure_topics(runner, tmp_path):
    model_path = tmp_path / "model.json"
    H, theta = _planted_model(model_path)
    docs = np.vstack([np.zeros(4), H[0], H[1]])
    save_matrix_csv(tmp_path / "docs.csv", docs)
    res = invoke(runner, ["--out", tmp_path / "p", "predict", model_path, tmp_path / "docs.csv"])
    assert res.exit_code == 0
    rows = csv_rows(tmp_path / "p" / "predictions.csv")
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
    groups = csv_rows(tmp_path / "p" / "groups.csv")
    assert [g["low"] for g in groups] == ["1.0", "2.0", "3.0", "4.0"]
    counts = [int(g["count"]) for g in groups]
    assert counts == [3, 3, 3, 3]  # 5.0 lands in the closed top interval
    preds = csv_rows(tmp_path / "p" / "predictions.csv")
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
        rows = csv_rows(Path(out) / "predictions.csv")
    return res, rows


def test_predict_detects_matrix_with_id_and_text_terms_and_quoted_corpus(runner, tmp_path):
    # Neither "id" nor "text" is a stopword, so an ingested X.csv can carry
    # both in its header; its numeric records make it a matrix all the same.
    # A corpus whose header is quoted is still a corpus.
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["id", "text", "gamma", "delta"])
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


@pytest.mark.parametrize("header, missing", [("ident,text,rating", "['id']"),
                                             ("id,body,rating", "['text']")])
def test_predict_auto_names_the_column_a_corpus_misnames(runner, tmp_path, header, missing):
    # One of the two column names is enough to read the file as a corpus,
    # whose reader then names the other; it is not taken for a matrix.
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["alpha", "beta", "gamma", "delta"])
    corpus = tmp_path / "docs.csv"
    corpus.write_text(f"{header}\ndoc0,hello world,3\n")
    res, _ = _predict_rows(runner, tmp_path / "p", model_path, corpus)
    assert res.exit_code == 3
    assert f"missing columns {missing}" in res.stderr
    assert "not numeric" not in res.stderr


def test_predict_maps_corpus_terms_in_the_model_files_order(runner, tmp_path):
    # With H = I each topic is one term, so the encoding shows which column
    # a document's term went to; "zebra" is column 0, as in the file.
    model_path = tmp_path / "model.json"
    fac = Factorization(W=np.zeros((1, 2)), H=np.eye(2), theta=np.array([0.0, 5.0, 1.0]))
    report = FitReport(objective_trace=[(0, 0.0, 0.0, 0.0)], final_objective=0.0,
                       iterations_run=0, converged=True, restart_index=0)
    save_model(model_path, fac, FitConfig(r=2), report,
               (["zebra", "apple"], [1.0, 1.0], TfidfConfig(**NO_STOP_TFIDF)))
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
    terms, idf, tfidf = load_model(fit_dir / "model.json").vectorizer
    ing_terms, ing_idf, ing_tfidf = load_vectorizer(ing / "vectorizer.json")
    assert terms == ing_terms == tuple(header)
    assert np.array_equal(idf, ing_idf)
    assert tfidf == ing_tfidf and tfidf.min_df == 0.05
    doc = json.loads((fit_dir / "model.json").read_text())
    tfidf_keys = ["min_df", "max_df", "stopwords", "lowercase", "norm"]
    assert list(doc["config"]) == ["r", "lambda", "tau", "max_iter", "seed", "restarts", "tfidf"]
    assert list(doc["config"]["tfidf"]) == tfidf_keys
    assert list(json.loads((ing / "vectorizer.json").read_text())["config"]) == tfidf_keys

    # Text predictions equal matrix predictions on the training documents.
    p_text = tmp_path / "pt"
    res = invoke(runner, ["--out", p_text, "predict", fit_dir / "model.json", corpus_path])
    assert res.exit_code == 0
    p_mat = tmp_path / "pm"
    res = invoke(runner, ["--out", p_mat, "predict", fit_dir / "model.json", ing / "X.csv",
                          "--ratings", ing / "Y.csv"])
    assert res.exit_code == 0
    text_rows = csv_rows(p_text / "predictions.csv")
    mat_rows = csv_rows(p_mat / "predictions.csv")
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


def test_ingest_never_gives_a_stopword_a_column(runner, tmp_path):
    # With min-df 0 a stopword column of document frequency 0 would be kept.
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("id,text,rating\na,the apple and the pear,2\nb,of the fig,4\n")
    res = invoke(runner, ["--out", tmp_path / "i", "ingest", corpus_path,
                          "--min-df", 0, "--max-df", 1])
    assert res.exit_code == 0
    doc = json.loads((tmp_path / "i" / "vectorizer.json").read_text())
    assert doc["vocabulary"] == ["apple", "fig", "pear"]


def test_ingest_and_predict_read_a_corpus_with_a_byte_order_mark(runner, tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a UTF-8 byte-order mark.
    body = "id,text,rating\na,apple banana apple,2\nb,banana cherry,4\nc,cherry apple,3\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(body, encoding="utf-8")
    marked.write_text(body, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for name, path in (("ip", plain), ("im", marked)):
        res = invoke(runner, ["--out", tmp_path / name, "ingest", path, "--min-df", 0,
                              "--max-df", 1, "--stopwords", "none"])
        assert res.exit_code == 0, res.output
    for artifact in ("X.csv", "Y.csv", "vectorizer.json"):
        assert (tmp_path / "im" / artifact).read_bytes() == \
            (tmp_path / "ip" / artifact).read_bytes()

    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["apple", "banana", "cherry", "delta"])
    _, plain_rows = _predict_rows(runner, tmp_path / "pp", model_path, plain)
    res, marked_rows = _predict_rows(runner, tmp_path / "pm", model_path, marked)
    assert res.exit_code == 0, res.output
    assert marked_rows == plain_rows and [r["id"] for r in marked_rows] == ["a", "b", "c"]
    assert (tmp_path / "pm" / "groups.csv").exists()  # read as a corpus, ratings inline


# Each input file as its command reads it, before a byte that is not
# UTF-8 is put at the start of its third line.
_UTF8_INPUTS = {
    "X.csv": "apple,banana,cherry,delta\n1.0,0.0,0.0,0.0\n0.0,1.0,0.0,0.0\n",
    "Y.csv": "y\n1.0\n2.0\n",
    "c.csv": "id,text,rating\na,apple banana,2\nb,banana cherry,4\n",
    "c.jsonl": '{"id": "a", "text": "apple", "rating": 2}\n'
               '{"id": "b", "text": "cherry", "rating": 4}\n'
               '{"id": "c", "text": "delta", "rating": 3}\n',
}


@pytest.mark.parametrize("args, bad", [
    (["fit", "X.csv", "Y.csv", "--r", "1"], "X.csv"),
    (["fit", "X.csv", "Y.csv", "--r", "1"], "Y.csv"),
    (["sweep", "X.csv", "Y.csv", "--r", "1", "--lambdas", "0"], "X.csv"),
    (["predict", "model.json", "X.csv", "--input-format", "matrix"], "X.csv"),
    (["ingest", "c.csv"], "c.csv"),
    (["ingest", "c.jsonl"], "c.jsonl"),
    (["predict", "model.json", "c.csv", "--input-format", "text"], "c.csv"),
    (["predict", "model.json", "c.csv"], "c.csv"),  # read by the format sniff
])
def test_an_input_that_is_not_utf8_exits_3_naming_the_file_and_line(runner, tmp_path, args, bad):
    for name, body in _UTF8_INPUTS.items():
        lines = body.encode().splitlines(keepends=True)
        if name == bad:
            lines[2] = b"\xff" + lines[2]
        (tmp_path / name).write_bytes(b"".join(lines))
    _planted_model(tmp_path / "model.json", vocab=["apple", "banana", "cherry", "delta"])
    res = runner.invoke(main, ["--out", str(tmp_path / "o")]
                        + [str(tmp_path / a) if (tmp_path / a).exists() else a for a in args])
    assert res.exit_code == 3, res.output
    assert res.stderr == f"error: {tmp_path / bad}: line 3 is not UTF-8 (0xff: invalid start byte)\n"


def _long_review_corpus(path):
    """Three documents, the first a 200,000-character ASCII review: longer
    than the csv module's default field limit of 131,072 characters."""
    rng = np.random.default_rng(8)
    words = ["apple", "banana", "cherry", "delta", "the", "x", "Q", "42"]
    text = ""
    while len(text) < 200_000:
        text += " ".join(rng.choice(words, size=1000)) + ",\n "
    # Cut at a space, so that the last word stays whole.
    texts = [text[:200_000].rsplit(" ", 1)[0].ljust(200_000), "apple cherry delta",
             "banana delta"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "text", "rating"])
        writer.writerows([doc_id, t, r] for doc_id, t, r in zip("abc", texts, [3, 4, 2]))
    return texts


def test_ingest_and_predict_count_the_terms_of_a_review_past_the_csv_field_limit(
        runner, tmp_path):
    corpus = tmp_path / "long.csv"
    texts = _long_review_corpus(corpus)
    res = invoke(runner, ["--out", tmp_path / "ing", "ingest", corpus, "--min-df", 0,
                          "--max-df", 1])
    assert res.exit_code == 0, res.output
    vec = json.loads((tmp_path / "ing" / "vectorizer.json").read_text())
    # One-character tokens and the stopword are not terms.
    assert vec["vocabulary"] == ["42", "apple", "banana", "cherry", "delta"]
    cfg = TfidfConfig(**vec["config"])
    idf = np.array(vec["idf"])
    rows = [row_from_counts_reference(Counter(tokenize(t, cfg)), vec["vocabulary"], idf)[0]
            for t in texts]
    save_matrix_csv_reference(tmp_path / "X_ref.csv", rows, header=vec["vocabulary"])
    assert (tmp_path / "ing" / "X.csv").read_bytes() == (tmp_path / "X_ref.csv").read_bytes()

    model_path = tmp_path / "model.json"
    terms = vec["vocabulary"][1:]
    H, theta = _planted_model(model_path, vocab=terms, idf=idf[1:].tolist(),
                              tfidf=vec["config"])
    res = invoke(runner, ["--out", tmp_path / "p", "predict", model_path, corpus])
    assert res.exit_code == 0, res.output
    X = np.array([row_from_counts_reference(Counter(tokenize(t, cfg)), terms, idf[1:])[0]
                  for t in texts])
    y_hats, W = predict_many(H, theta, X)
    write_table(tmp_path / "expected.csv", ["id", "y_hat", "w_1", "w_2"],
                ([i, y, *w] for i, y, w in zip("abc", y_hats.tolist(), W.tolist())))
    assert (tmp_path / "p" / "predictions.csv").read_bytes() == \
        (tmp_path / "expected.csv").read_bytes()


def test_a_corpus_field_the_csv_module_refuses_exits_3_naming_file_and_record(
        runner, tmp_path, monkeypatch):
    corpus = tmp_path / "long.csv"
    _long_review_corpus(corpus)
    monkeypatch.setattr(cssnmf.text, "CSV_FIELD_LIMIT", 100_000)
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["apple", "banana", "cherry", "delta"])
    for args in (["ingest", corpus], ["predict", model_path, corpus]):
        res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
        assert res.exit_code == 3, res.output
        assert f"{corpus}: record 2 is not valid CSV: field larger than field limit" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    ("id,text\nb\nc,good words here\n", "record 2 has fewer fields than the header's 2"),
    # An unquoted comma in a review gives a record one field too many.
    ("id,text,rating\na,good words,3,EXTRA\n", "record 2 has more fields than the header's 3"),
], ids=["fewer", "more"])
def test_a_corpus_record_with_the_wrong_field_count_exits_3_naming_file_and_record(
        runner, tmp_path, body, message):
    corpus = tmp_path / "c.csv"
    corpus.write_text(body)
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=["good", "words", "here", "delta"])
    for args in (["ingest", corpus], ["predict", model_path, corpus, "--input-format", "text"]):
        res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
        assert res.exit_code == 3, res.output
        assert f"{corpus}: {message}" in res.stderr
    assert not (tmp_path / "out").exists()


def test_ingest_refuses_balance_edges_that_are_not_ascending(runner, tmp_path):
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("id,text,rating\na,apple banana,2\nb,banana cherry,4\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path),
                               "--balance-edges", "5,1"])
    assert res.exit_code == 2
    assert "--balance-edges needs at least two strictly ascending edges" in res.stderr


def test_ingest_balance_names_a_document_rated_outside_the_edges(runner, tmp_path):
    corpus_path = tmp_path / "c.csv"
    corpus_path.write_text("id,text,rating\na,apple banana,2\nb,banana cherry,5\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path),
                               "--rating-range", "0,10", "--balance-edges", "1,2,3"])
    assert res.exit_code == 3
    assert res.stderr == ("error: document 'b' has rating 5.0 outside the edges "
                          "[1.0, 2.0, 3.0]; cannot balance\n")


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


@pytest.mark.parametrize("record, message", [
    ('{"id": "b", "text": null, "rating": 3}', "line 2: text is null"),
    ('{"id": "b", "text": "pear", "rating": true}', "line 2: rating is a boolean"),
    ('{"id": ["x"], "text": "pear", "rating": 3}', "line 2: id is an array"),
    ('{"id": "b", "text": "pear", "rating": 1' + "0" * 400 + "}",
     "line 2 has non-numeric rating 1000"),
], ids=["null-text", "boolean-rating", "array-id", "integer-rating-beyond-float"])
def test_ingest_refuses_a_json_lines_value_no_csv_cell_holds(runner, tmp_path, record, message):
    corpus_path = tmp_path / "c.jsonl"
    corpus_path.write_text('{"id": "a", "text": "apple", "rating": 4}\n' + record + "\n")
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path)])
    assert res.exit_code == 3
    assert f"{corpus_path}: {message}" in res.stderr
    assert not (tmp_path / "i" / "X.csv").exists()


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
    groups = csv_rows(tmp_path / "p" / "groups.csv")
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


def _truncated(doc):
    """A JSON document cut off after its first field."""
    return '{"version": 1,'


def _mistyped_numbers(doc):
    """One H entry a string, theta_1 true and lambda NaN: a model that once
    scored with theta_1 = 1.0 and exited 0."""
    H = [list(row) for row in doc["H"]]
    H[0][0] = str(H[0][0])
    return {**doc, "H": H, "theta": [doc["theta"][0], True, *doc["theta"][2:]],
            "lambda": float("nan")}


def _string_lowercase(doc):
    return {**doc, "config": {**doc["config"],
                              "tfidf": {**doc["config"]["tfidf"], "lowercase": "no"}}}


def _first_idf(value):
    return lambda doc: {**doc, "idf": [value, *doc["idf"][1:]]}


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
    ("model.json", _truncated),
    ("vectorizer.json", _truncated),
    ("model.json", _mistyped_numbers),
    ("model.json", _string_lowercase),
    ("model.json", _first_idf(-1.0)),
    ("model.json", lambda doc: {**doc, "idf": [0.0] * len(doc["idf"])}),
    ("vectorizer.json", _first_idf(0.5)),
], ids=["model-without-r", "model-without-H", "model-theta-number",
        "model-vocabulary-number", "model-tfidf-unknown-key", "model-array",
        "vectorizer-without-vocabulary", "vectorizer-config-unknown-key",
        "vectorizer-nan-idf", "vectorizer-array", "model-repeated-term",
        "vectorizer-repeated-term", "model-truncated", "vectorizer-truncated",
        "model-mistyped-numbers", "model-tfidf-string-lowercase", "model-negative-idf",
        "model-zero-idf", "vectorizer-idf-below-1"])
def test_malformed_model_or_vectorizer_exits_3(runner, tmp_path, fitted_text_model, name, edit):
    d = fitted_text_model
    doc = edit(json.loads((d / name).read_text()))
    bad = tmp_path / name
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    if name == "model.json":
        args = ["predict", bad, d / "corpus.csv"]
    else:
        args = ["fit", d / "X.csv", d / "Y.csv", "--r", 2, "--restarts", 1, "--max-iter", 3,
                "--vectorizer", bad]
    res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
    assert res.exit_code == 3, res.output
    assert f"{bad}: " in res.stderr
    assert not (tmp_path / "out" / "model.json").exists()


# Values of every JSON type, including the numbers a reader should refuse.
JSON_SWAPS = [None, True, False, 0, -1, 2.5, 10 ** 400, float("nan"), float("-inf"), "", "x",
              "1.5", [], [1.0], {}, {"a": 1}]


def _json_paths(node, path=()):
    """The path of ``node`` and of every value inside it, depth first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_paths(child, (*path, key))


@st.composite
def mutated_documents(draw, documents):
    """One of ``documents`` (file name -> JSON text) with one field dropped,
    one value swapped for another JSON value, one number set to NaN, or the
    text cut short."""
    name = draw(st.sampled_from(sorted(documents)))
    text = documents[name]
    kind = draw(st.sampled_from(["drop", "swap", "nan", "truncate"]))
    if kind == "truncate":
        return name, text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    paths = [p for p in _json_paths(doc) if p]
    if kind == "nan":
        paths = [p for p in paths if isinstance(functools.reduce(getitem, p, doc), float)]
    path = draw(st.sampled_from(paths))
    parent = functools.reduce(getitem, path[:-1], doc)
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = float("nan") if kind == "nan" else draw(st.sampled_from(JSON_SWAPS))
    return name, json.dumps(doc)


def _reads_back(out, command):
    """Read every file ``command`` wrote to ``out`` back as its reader would."""
    if command == "topics":
        assert json.loads((out / "topics.json").read_text())["topics"]
        assert (out / "topics.txt").read_text().startswith("intercept: ")
    elif command == "fit":
        assert load_model(out / "model.json").H.shape[0] == 2
        assert len(csv_rows(out / "objective_trace.csv")) >= 1
    elif command == "ingest":
        X, header = load_matrix_csv(out / "X.csv")
        terms, idf, _ = load_vectorizer(out / "vectorizer.json")
        assert tuple(header) == terms
        assert X.shape == (len(load_vector_csv(out / "Y.csv")), len(idf))
    elif command == "sweep":
        assert [row["status"] for row in csv_rows(out / "sweep.csv")]
    else:
        rows = csv_rows(out / "predictions.csv")
        assert rows and all(np.isfinite(float(row["y_hat"])) for row in rows)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_model_or_vectorizer_exits_with_a_documented_code(
        tmp_path_factory, fitted_text_model, data):
    d = fitted_text_model
    documents = {name: (d / name).read_text() for name in ("model.json", "vectorizer.json")}
    name, text = data.draw(mutated_documents(documents))
    work = tmp_path_factory.mktemp("mutated")
    bad = work / name
    bad.write_text(text)
    if name == "model.json":
        command, *args = data.draw(st.sampled_from([
            ["predict", bad, d / "corpus.csv"],
            ["predict", bad, d / "X.csv"],
            ["topics", bad],
        ]))
    else:
        command, *args = ["fit", d / "X.csv", d / "Y.csv", "--r", 2, "--restarts", 1,
                          "--max-iter", 3, "--vectorizer", bad]
    res = CliRunner().invoke(main, [str(a) for a in ["--out", work / "out", command, *args]])
    assert res.exit_code in (0, 2, 3, 4), res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.exit_code == 0:
        _reads_back(work / "out", command)


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory, fitted_text_model):
    """Small valid input files by name, and the models that score them: a
    synthetic X and Y with a model fitted on them, and the fitted text
    model's corpus as CSV and as JSON lines."""
    d = tmp_path_factory.mktemp("inputs")
    runner = CliRunner()
    assert invoke(runner, ["--out", d, "synth", "--n", 12, "--m", 5, "--r", 2]).exit_code == 0
    assert invoke(runner, ["--out", d, "fit", d / "X.csv", d / "Y.csv", "--r", 2,
                           "--restarts", 1, "--max-iter", 3]).exit_code == 0
    with open(fitted_text_model / "corpus.csv", newline="") as fh:
        records = [{**rec, "rating": float(rec["rating"])} for rec in csv.DictReader(fh)]
    (d / "corpus.jsonl").write_text("".join(json.dumps(rec) + "\n" for rec in records))
    files = {"X.csv": d / "X.csv", "Y.csv": d / "Y.csv",
             "corpus.csv": fitted_text_model / "corpus.csv", "corpus.jsonl": d / "corpus.jsonl"}
    return ({name: path.read_text() for name, path in files.items()},
            d / "model.json", fitted_text_model / "model.json")


# What a mutation writes in place of a number, a header name or nothing.
NUMBER_SPELLINGS = ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1e308",
                    "1e200", "1e100", "1e-320", "-1.0", "0", ""]
HEADER_NAMES = ["", "id", "text", "rating", "1", "1.5", "nan", "x0", " ", '"', "\ufeffid"]
STRAY_TEXT = ["\ufeff", "\r", "\x00", "\r\n", ",", '"']


@st.composite
def mutated_inputs(draw, texts):
    """One of ``texts`` (file name -> text) with one line cut or duplicated,
    a cell added or dropped, a header name changed, a byte-order mark, CR,
    NUL or other stray text inserted, or a number spelled otherwise."""
    name = draw(st.sampled_from(sorted(texts)))
    text = texts[name]
    lines = text.split("\n")
    kind = draw(st.sampled_from(["cut", "duplicate", "add-cell", "drop-cell", "header",
                                 "insert", "number"]))
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "cut":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "add-cell":
        lines[k] += "," + draw(st.sampled_from(["1.0", "0", "", "x"]))
    elif kind == "drop-cell":
        lines[k] = lines[k].rpartition(",")[0]
    elif kind == "header":
        names = lines[0].split(",")
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(HEADER_NAMES))
        lines[0] = ",".join(names)
    elif kind == "insert":
        at = draw(st.integers(0, len(text)))
        return name, text[:at] + draw(st.sampled_from(STRAY_TEXT)) + text[at:]
    else:
        numbers = list(re.finditer(r"-?\d+(\.\d+)?(e-?\d+)?", text))
        found = draw(st.sampled_from(numbers))
        return name, (text[:found.start()] + draw(st.sampled_from(NUMBER_SPELLINGS))
                      + text[found.end():])
    return name, "\n".join(lines)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_matrix_or_corpus_exits_with_a_documented_code(
        tmp_path_factory, small_inputs, data):
    texts, synth_model, text_model = small_inputs
    name, text = data.draw(mutated_inputs(texts))
    work = tmp_path_factory.mktemp("mutated")
    for other, original in texts.items():
        (work / other).write_text(text if other == name else original, newline="")
    X, Y, fit_options = work / "X.csv", work / "Y.csv", ["--restarts", 1, "--max-iter", 3]
    if name in ("X.csv", "Y.csv"):
        command, *args = data.draw(st.sampled_from([
            ["fit", X, Y, "--r", 2, *fit_options],
            ["sweep", X, Y, "--r", 2, "--lambdas", "0,1", *fit_options],
            ["predict", synth_model, X, "--ratings", Y],
        ]))
    else:
        command, *args = data.draw(st.sampled_from([
            ["ingest", work / name, "--min-df", 0.05, "--max-df", 0.9],
            ["predict", text_model, work / name],
        ]))
    res = CliRunner().invoke(main, [str(a) for a in ["--out", work / "out", command, *args]])
    assert res.exit_code in (0, 2, 3, 4), res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.exit_code == 0:
        _reads_back(work / "out", command)


@pytest.mark.parametrize("command", ["fit", "sweep", "predict"])
@pytest.mark.parametrize("bad", ["x-nan", "x-negative", "y-nan", "y-long"])
def test_bad_x_or_y_values_exit_3_naming_the_file_and_row(
        runner, tmp_path, small_inputs, command, bad):
    texts, synth_model, _ = small_inputs
    X_path, Y_path = tmp_path / "X.csv", tmp_path / "Y.csv"
    X_path.write_text(texts["X.csv"])
    Y_path.write_text(texts["Y.csv"])
    X, header = load_matrix_csv(X_path)
    Y = load_vector_csv(Y_path)
    if bad.startswith("x-"):
        X[2, 1] = np.nan if bad == "x-nan" else -1.0
        save_matrix_csv(X_path, X, header=header)
    else:
        save_vector_csv(Y_path, np.append(Y, 3.0) if bad == "y-long" else
                        np.where(np.arange(len(Y)) == 4, np.nan, Y))
    fit_options = ["--r", 2, "--restarts", 1, "--max-iter", 3]
    args = {"fit": ["fit", X_path, Y_path, *fit_options],
            "sweep": ["sweep", X_path, Y_path, *fit_options, "--lambdas", "0,1"],
            "predict": ["predict", synth_model, X_path, "--ratings", Y_path]}[command]
    res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
    if command == "predict" and bad == "y-nan":
        # A rating may be NaN: it falls in no interval of groups.csv.
        assert_clean_exit(res, 0, "rating(s) outside")
        return
    expected = {
        "x-nan": f"{X_path}: data row 3, column 2 is nan",
        "x-negative": f"{X_path}: data row 3, column 2 is -1.0",
        "y-nan": f"{Y_path}: data row 5 is nan",
        "y-long": (f"{Y_path} has 13 ratings for 12 documents" if command == "predict" else
                   f"{Y_path} has 13 values for the 12 data rows of {X_path}"),
    }[bad]
    assert_clean_exit(res, 3, expected)
    assert not (tmp_path / "out").exists()


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_entry_point_names_the_bad_data_entry(runner, tmp_path, data):
    # One rule checks the data of fit, sweep, predict and the CLI, so each
    # names the one planted bad value, or a Y one value too long, alike.
    n, m = data.draw(st.integers(1, 8), label="n"), data.draw(st.integers(1, 8), label="m")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    X, Y = rng.uniform(size=(n, m)), rng.normal(size=n)
    where = data.draw(st.sampled_from(["X", "Y", "Y long"]), label="where")
    i, j = data.draw(st.integers(0, n - 1), label="i"), data.draw(st.integers(0, m - 1), label="j")
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf] + [-1.0] * (where == "X")),
                    label="bad")
    if where == "X":
        X[i, j] = bad
        message = "{X}: data row %d, column %d is %r" % (i + 1, j + 1, bad)
    elif where == "Y":
        Y[i] = bad
        message = "{Y}: data row %d is %r" % (i + 1, bad)
    else:
        Y = np.append(Y, 0.0)
        message = "{Y} has %d values for the %d data rows of {X}" % (n + 1, n)
    names = {"X": "X", "Y": "Y"}
    with pytest.raises(ValueError, match=re.escape(message.format(**names))):
        fit(X, Y, FitConfig(r=1, max_iter=1, restarts=1))
    with pytest.raises(ValueError, match=re.escape(message.format(**names))):
        cssnmf.sweep.run_sweep(X, Y, cssnmf.sweep.SweepSpec(r_values=[1], lambda_values=[0.0],
                                                            restarts=1, max_iter=1))
    if where == "X":
        with pytest.raises(ValueError, match=re.escape(message.format(X="documents"))):
            predict_many(np.ones((1, m)), np.zeros(2), X)
    paths = {"X": tmp_path / "X.csv", "Y": tmp_path / "Y.csv"}
    save_matrix_csv(paths["X"], X)
    save_vector_csv(paths["Y"], Y)
    res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", "fit", paths["X"],
                                                paths["Y"], "--r", 1, "--restarts", 1]])
    assert_clean_exit(res, 3, message.format(**paths))


def test_deeply_nested_json_exits_3_naming_the_file(runner, tmp_path, fitted_text_model):
    d = fitted_text_model
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for args in (["topics", deep],
                 ["predict", deep, d / "corpus.csv"],
                 ["fit", d / "X.csv", d / "Y.csv", "--r", 2, "--restarts", 1, "--max-iter", 3,
                  "--vectorizer", deep]):
        res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
        assert res.exit_code == 3, res.output
        assert f"{deep}: JSON nested too deeply to read" in res.stderr


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


def test_matrix_predict_refuses_an_x_header_that_is_not_the_model_vocabulary(
        runner, tmp_path, fitted_text_model):
    d = fitted_text_model
    header, body = (d / "X.csv").read_text().split("\n", 1)
    terms = header.split(",")
    terms[0], terms[1] = terms[1], terms[0]
    swapped = tmp_path / "X.csv"
    swapped.write_text(",".join(terms) + "\n" + body)
    res = runner.invoke(main, [str(a) for a in [
        "--out", tmp_path / "out", "predict", d / "model.json", swapped]])
    assert_clean_exit(res, 3, f"{swapped}: header is not the vocabulary of {d / 'model.json'}, "
                              "in order")
    assert not (tmp_path / "out" / "predictions.csv").exists()
    # Without a header the file's columns are taken to be the model's.
    swapped.write_text(body)
    res = invoke(runner, ["--out", tmp_path / "out", "predict", d / "model.json", swapped])
    assert res.exit_code == 0, res.output


def test_matrix_predict_names_both_files_for_another_width(runner, tmp_path, small_inputs):
    texts, synth_model, _ = small_inputs
    narrow = tmp_path / "X.csv"
    save_matrix_csv(narrow, np.ones((12, 4)))
    res = runner.invoke(main, [str(a) for a in [
        "--out", tmp_path / "out", "predict", synth_model, narrow]])
    assert_clean_exit(res, 3, f"{synth_model} has 5 terms but {narrow} has 4 columns")
    assert not (tmp_path / "out").exists()


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


# ------------------------------------------- exits no other test reaches

def assert_clean_exit(res, code, message):
    """Exit ``code`` with ``message`` in the output, and no traceback."""
    assert res.exit_code == code, res.output
    assert message in res.output
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.fixture
def small_xy(tmp_path):
    rng = np.random.default_rng(8)
    save_matrix_csv(tmp_path / "X.csv", rng.uniform(size=(10, 4)))
    save_vector_csv(tmp_path / "Y.csv", rng.uniform(1.0, 5.0, size=10))
    return tmp_path / "X.csv", tmp_path / "Y.csv"


def test_sweep_refuses_an_empty_topic_count_list(runner, tmp_path, small_xy):
    res = runner.invoke(main, ["--out", str(tmp_path / "s"), "sweep", *map(str, small_xy),
                               "--r", ",", "--lambdas", "0"])
    assert_clean_exit(res, 2, "--r is empty")


def test_fit_refuses_a_vectorizer_of_another_width(runner, tmp_path, small_xy,
                                                  fitted_text_model):
    vectorizer = fitted_text_model / "vectorizer.json"
    terms = len(json.loads(vectorizer.read_text())["vocabulary"])
    res = runner.invoke(main, ["--out", str(tmp_path / "f"), "fit", *map(str, small_xy),
                               "--r", "1", "--vectorizer", str(vectorizer)])
    assert_clean_exit(res, 3, f"vectorizer has {terms} terms but X has 4 columns")
    assert not (tmp_path / "f" / "model.json").exists()


def test_fit_warns_of_more_topics_than_min_n_m(runner, tmp_path, small_xy):
    res = runner.invoke(main, ["--out", str(tmp_path / "f"), "fit", *map(str, small_xy),
                               "--r", "5", "--restarts", "1", "--max-iter", "3"])
    assert_clean_exit(res, 0, "warning: r=5 exceeds min(n, m)=4; the factorization is "
                              "overcomplete")
    assert (tmp_path / "f" / "model.json").exists()


def test_sweep_warns_of_a_failed_cell_and_writes_the_rest(runner, tmp_path, small_xy,
                                                         monkeypatch):
    real_fit = cssnmf.sweep.fit

    def flaky(X, Y, cfg):
        if cfg.lam == 1.0:
            raise NumericFailure("all restarts failed")
        return real_fit(X, Y, cfg)

    monkeypatch.setattr(cssnmf.sweep, "fit", flaky)
    res = runner.invoke(main, ["--out", str(tmp_path / "s"), "sweep", *map(str, small_xy),
                               "--r", "2", "--lambdas", "0,1", "--restarts", "1",
                               "--max-iter", "3"])
    assert_clean_exit(res, 0, "warning: cell r=2 lambda=1.0: failed: all restarts failed")
    rows = csv_rows(tmp_path / "s" / "sweep.csv")
    assert [row["status"] for row in rows] == ["ok", "failed: all restarts failed"]


def _planted_model_without(path, drop):
    """The planted text model with one vectorizer field dropped: ``idf``, or
    ``tfidf``, the settings in ``config``."""
    _planted_model(path, vocab=["alpha", "beta", "gamma", "delta"])
    doc = json.loads(path.read_text())
    parent = doc["config"] if drop == "tfidf" else doc
    del parent[drop]
    path.write_text(json.dumps(doc))


def _assert_every_command_refuses(runner, tmp_path, model_path, message):
    """``predict`` on a corpus and on a matrix, and ``topics``, exit 3 with
    ``message`` and write nothing."""
    corpus = tmp_path / "docs.jsonl"
    corpus.write_text('{"id": "a", "text": "the alpha beta"}\n')
    save_matrix_csv(tmp_path / "docs.csv", np.ones((1, 4)))
    for args in (["predict", model_path, corpus], ["predict", model_path, tmp_path / "docs.csv"],
                 ["topics", model_path]):
        res = runner.invoke(main, [str(a) for a in ["--out", tmp_path / "out", *args]])
        assert_clean_exit(res, 3, f"{model_path}: {message}")
    assert not (tmp_path / "out").exists()


def test_predict_refuses_a_text_model_without_idf(runner, tmp_path):
    # topics once read such a model, and text predict refused it only after
    # loading it.
    model_path = tmp_path / "model.json"
    _planted_model_without(model_path, "idf")
    _assert_every_command_refuses(runner, tmp_path, model_path, "field 'idf' is missing")


def test_a_text_model_without_its_tfidf_settings_exits_3_for_every_command(runner, tmp_path):
    # Text predict once scored with the default settings, whose stopwords
    # drop "the".
    model_path = tmp_path / "model.json"
    _planted_model_without(model_path, "tfidf")
    _assert_every_command_refuses(runner, tmp_path, model_path,
                                  "field 'config.tfidf' must be an object of settings")


def test_predict_refuses_ratings_beside_a_corpus(runner, tmp_path, fitted_text_model):
    d = fitted_text_model
    save_vector_csv(tmp_path / "ratings.csv", np.ones(20))
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(d / "model.json"),
                               str(d / "corpus.csv"), "--ratings",
                               str(tmp_path / "ratings.csv")])
    assert_clean_exit(res, 2, "--ratings applies to matrix input")
    assert not (tmp_path / "p" / "predictions.csv").exists()


@pytest.mark.parametrize("fmt", ["text", "auto"])
def test_predict_refuses_ratings_beside_a_malformed_corpus(runner, tmp_path, fitted_text_model,
                                                           fmt):
    # The usage error once waited for the corpus to be read, which exited 3.
    bad = tmp_path / "bad.csv"
    bad.write_text("id,text,rating\na,fine words,3\nb,more words,4,extra\n")
    save_vector_csv(tmp_path / "ratings.csv", np.ones(2))
    res = runner.invoke(main, [str(a) for a in [
        "--out", tmp_path / "p", "predict", fitted_text_model / "model.json", bad,
        "--input-format", fmt, "--ratings", tmp_path / "ratings.csv"]])
    assert_clean_exit(res, 2, "--ratings applies to matrix input")
    assert not (tmp_path / "p").exists()


def test_predict_leaves_ratings_outside_the_edges_out_of_groups(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model(model_path)
    save_matrix_csv(tmp_path / "docs.csv", np.random.default_rng(3).uniform(size=(5, 4)))
    save_vector_csv(tmp_path / "ratings.csv", [0.5, 1.5, 3.0, 5.0, 7.0])
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(model_path),
                               str(tmp_path / "docs.csv"), "--ratings",
                               str(tmp_path / "ratings.csv")])
    assert_clean_exit(res, 0, "warning: 2 rating(s) outside [1.0, 2.0, 3.0, 4.0, 5.0] left out "
                              "of groups.csv")
    groups = csv_rows(tmp_path / "p" / "groups.csv")
    assert [int(g["count"]) for g in groups] == [1, 0, 1, 1]
    assert len(csv_rows(tmp_path / "p" / "predictions.csv")) == 5


def test_fit_refuses_a_y_of_two_columns(runner, tmp_path, small_xy):
    x_path, _ = small_xy
    save_matrix_csv(tmp_path / "Y2.csv", np.ones((10, 2)))
    res = runner.invoke(main, ["--out", str(tmp_path / "f"), "fit", str(x_path),
                               str(tmp_path / "Y2.csv"), "--r", "1"])
    assert_clean_exit(res, 3, f"{tmp_path / 'Y2.csv'}: expected one column, found 2")
    assert not (tmp_path / "f" / "model.json").exists()


@pytest.mark.parametrize("name, text, message", [
    ("c.csv", "", "empty corpus file"),
    ("c.jsonl", '{"id": "a", "rating": 3}\n', "line 1 lacks field 'text'"),
], ids=["empty-csv", "json-lines-without-text"])
def test_ingest_refuses_a_corpus_without_text(runner, tmp_path, name, text, message):
    corpus_path = tmp_path / name
    corpus_path.write_text(text)
    res = runner.invoke(main, ["--out", str(tmp_path / "i"), "ingest", str(corpus_path)])
    assert_clean_exit(res, 3, f"{corpus_path}: {message}")
    assert not (tmp_path / "i" / "X.csv").exists()


def test_ingest_skips_blank_lines_between_json_lines_records(runner, tmp_path):
    rows = write_corpus(tmp_path / "c.csv", n=12, seed=5)
    records = [json.dumps({**row, "rating": float(row["rating"])}) for row in rows]
    (tmp_path / "tight.jsonl").write_text("\n".join(records) + "\n")
    (tmp_path / "loose.jsonl").write_text("\n\n".join(records) + "\n  \n\t\n")
    for name in ("tight", "loose"):
        res = runner.invoke(main, ["--out", str(tmp_path / name), "ingest",
                                   str(tmp_path / f"{name}.jsonl"), "--min-df", "0.05",
                                   "--max-df", "0.9"])
        assert_clean_exit(res, 0, "X.csv")
    assert ((tmp_path / "loose" / "X.csv").read_bytes()
            == (tmp_path / "tight" / "X.csv").read_bytes())


def test_predict_refuses_a_model_whose_theta_is_not_r_plus_one_long(runner, tmp_path,
                                                                  fitted_text_model):
    d = fitted_text_model
    doc = json.loads((d / "model.json").read_text())
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps({**doc, "theta": doc["theta"][:-1]}))
    res = runner.invoke(main, ["--out", str(tmp_path / "p"), "predict", str(bad),
                               str(d / "corpus.csv")])
    assert_clean_exit(res, 3, f"{bad}: model document is inconsistent: H/theta shapes disagree")
    assert not (tmp_path / "p" / "predictions.csv").exists()


def test_fit_refuses_a_vectorizer_whose_idf_is_not_its_vocabulary_long(runner, tmp_path,
                                                                      fitted_text_model):
    d = fitted_text_model
    doc = json.loads((d / "vectorizer.json").read_text())
    bad = tmp_path / "vectorizer.json"
    bad.write_text(json.dumps({**doc, "idf": doc["idf"] + [1.0]}))
    res = runner.invoke(main, ["--out", str(tmp_path / "f"), "fit", str(d / "X.csv"),
                               str(d / "Y.csv"), "--r", "2", "--vectorizer", str(bad)])
    assert_clean_exit(res, 3, f"{bad}: vectorizer document is inconsistent: idf/vocabulary "
                              "sizes disagree")
    assert not (tmp_path / "f" / "model.json").exists()


# ------------------------------------------------------------------- topics

def test_topics_planted_support_and_tie_break(runner, tmp_path):
    vocab = ["alpha", "beta", "gamma", "delta"]
    model_path = tmp_path / "model.json"
    _planted_model(model_path, vocab=vocab)
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
               (["delta", "alpha", "gamma", "beta"], [1.0] * 4, TfidfConfig(**NO_STOP_TFIDF)))
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


def _planted_model_with_vocabulary(path, vocab):
    """The planted text model with its ``vocabulary`` field replaced by
    ``vocab`` in the file, since ``save_model`` refuses a vocabulary that
    ``load_model`` would refuse."""
    _planted_model(path, vocab=["alpha", "beta", "gamma", "delta"])
    doc = json.loads(path.read_text())
    doc["vocabulary"] = vocab
    path.write_text(json.dumps(doc))


def test_topics_rejects_vocabulary_of_wrong_length(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model_with_vocabulary(model_path, ["alpha", "beta", "gamma"])
    res = runner.invoke(main, ["--out", str(tmp_path / "t"), "topics", str(model_path)])
    assert res.exit_code == 3
    assert ("model document is inconsistent: 3 vocabulary entries for 4 columns of H"
            in res.stderr)
    assert not (tmp_path / "t" / "topics.json").exists()


def test_topics_refuses_a_repeated_vocabulary_term(runner, tmp_path):
    model_path = tmp_path / "model.json"
    _planted_model_with_vocabulary(model_path, ["alpha", "beta", "alpha", "delta"])
    res = runner.invoke(main, ["--out", str(tmp_path / "t"), "topics", str(model_path)])
    assert res.exit_code == 3
    assert f"{model_path}: field 'vocabulary' repeats the term 'alpha'" in res.stderr
    assert not (tmp_path / "t" / "topics.json").exists()
