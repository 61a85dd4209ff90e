"""Acceptance gate: every release-blocking behavior, one printed verdict per line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines on
passing runs too (pytest hides captured stdout for passing tests by default).
"""

import csv
import hashlib
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

import cssnmf.model
from conftest import brute_force_nnls
from cssnmf.cli import main
from cssnmf.linalg import nnls
from cssnmf.model import Factorization, FitConfig, fit, normalize, objective
from cssnmf.sweep import SweepSpec, run_sweep, write_sweep_csv
from cssnmf.synthetic import SyntheticConfig, generate
from cssnmf.text import RatedCorpus, RatedDocument, balance, interval_index


def verdict(ok, number, message):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} criterion {number}: {message}")
    return ok


# ---------------------------------------------------------------- suite 1/8

@pytest.fixture(scope="module")
def descent_suite():
    """20 seeded fits (n=30, m=20) across ranks and coupling strengths.

    Returns the recorded objective traces, the normal-equation residuals of
    every intercept-regression solve made anywhere inside those fits, and the
    wall-clock time of the whole batch.
    """
    combos = [(r, lam) for r in (2, 4) for lam in (0.0, 0.1, 10.0)]
    residuals = []
    original = cssnmf.model.update_theta

    def recording_update_theta(W, Y):
        theta = original(W, Y)
        W_bar = np.hstack([np.ones((W.shape[0], 1)), W])
        resid = np.max(np.abs(W_bar.T @ (W_bar @ theta - Y)))
        bound = 1e-8 * (1 + np.max(np.abs(W_bar.T @ Y)))
        residuals.append((float(resid), float(bound)))
        return theta

    traces = []
    start = time.monotonic()
    cssnmf.model.update_theta = recording_update_theta
    try:
        for k in range(20):
            r, lam = combos[k % len(combos)]
            ds = generate(SyntheticConfig(n=30, m=20, r_true=4, M=20.0,
                                          eta_x=4.0, eta_y=4.0, seed=k))
            _, report = fit(ds.X, ds.Y, FitConfig(r=r, lam=lam, tau=1e-5,
                                                  max_iter=60, seed=100 + k,
                                                  restarts=3))
            traces.append((r, lam, report.objective_trace))
    finally:
        cssnmf.model.update_theta = original
    elapsed = time.monotonic() - start
    return traces, residuals, elapsed


def test_c01_objective_traces_never_increase(descent_suite):
    traces, _, elapsed = descent_suite
    worst = 0.0
    for _, _, trace in traces:
        Fs = [row[1] for row in trace]
        for before, after in zip(Fs, Fs[1:]):
            worst = max(worst, (after - before) / abs(before))
    ok = worst <= 1e-12 and elapsed <= 60.0
    assert verdict(ok, 1, f"20 traces non-increasing (worst relative step "
                          f"{worst:.3e} <= 1e-12), batch took {elapsed:.1f}s <= 60s"), \
        (worst, elapsed)


def test_c08_regression_weights_satisfy_normal_equations(descent_suite):
    _, residuals, _ = descent_suite
    assert residuals, "suite recorded no intercept-regression solves"
    worst = max(resid / bound for resid, bound in residuals)
    ok = all(resid <= bound for resid, bound in residuals)
    assert verdict(ok, 8, f"{len(residuals)} intercept-regression solves satisfy "
                          f"|A'(Ax-y)|inf <= 1e-8*(1+|A'y|inf); worst ratio {worst:.3f}"), \
        worst


# ----------------------------------------------------------------- solver

def test_c02_nnls_matches_exhaustive_oracle():
    start = time.monotonic()
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng(k)
        q = 1 + k % 8
        p = q + k % 5
        A = rng.standard_normal((p, q))
        b = rng.standard_normal(p)
        x = nnls(A, b)
        x_ref = brute_force_nnls(A, b)
        worst = max(worst, float(np.linalg.norm(x - x_ref)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    assert verdict(ok, 2, f"200 problems (q <= 8) within {worst:.3e} <= 1e-6 of the "
                          f"exhaustive oracle in {elapsed:.1f}s <= 60s"), (worst, elapsed)


# ----------------------------------------------------------- exact recovery

def test_c03_noise_free_exact_recovery():
    ds = generate(SyntheticConfig(n=100, m=40, r_true=4, M=20.0,
                                  eta_x=0.0, eta_y=0.0, seed=0))
    fac, _ = fit(ds.X, ds.Y, FitConfig(r=4, lam=0.0, tau=1e-6, max_iter=300,
                                       seed=0, restarts=10))
    _, N, _ = objective(fac, ds.X, ds.Y, 0.0)
    ratio = N / np.sum(ds.X ** 2)
    ok = ratio <= 1e-6
    assert verdict(ok, 3, f"noise-free n=100, m=40, r=4: relative reconstruction "
                          f"error {ratio:.3e} <= 1e-6"), ratio


# ------------------------------------------------------- lambda sweep study

THINNED_LAMBDAS = [0.0, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4]


@pytest.fixture(scope="module")
def lambda_study():
    """Best-of-50-restart sweep over the thinned grid on the standard
    Gaussian-noise benchmark (n=100, m=40, planted rank 4, noise scale 4)."""
    ds = generate(SyntheticConfig(n=100, m=40, r_true=4, M=20.0,
                                  eta_x=4.0, eta_y=4.0, seed=0))
    spec = SweepSpec(r_values=[4], lambda_values=THINNED_LAMBDAS, restarts=50,
                     split_seed=0, fit_seed=0, train_frac=0.7, tau=1e-4,
                     max_iter=100)
    cells = run_sweep(ds.X, ds.Y, spec)
    assert all(cell.ok for cell in cells), [c.status for c in cells]
    return cells


def test_c04_coupling_never_hurts_training_regression(lambda_study):
    base = next(c for c in lambda_study if c.lam == 0.0)
    excesses = {c.lam: c.train_mse / base.train_mse for c in lambda_study if c.lam > 0}
    worst = max(excesses.values())
    ok = worst <= 1.05
    assert verdict(ok, 4, f"training regression MSE at every positive lambda is within "
                          f"1.05x of the uncoupled fit (worst {worst:.4f})"), excesses


def test_c05_training_regression_weakly_decreasing(lambda_study):
    mses = [c.train_mse for c in lambda_study]
    pairs = list(zip(mses, mses[1:]))
    violations = sum(1 for before, after in pairs if after > before * 1.05)
    allowed = int(0.02 * len(pairs))
    ok = violations <= allowed
    assert verdict(ok, 5, f"training MSE weakly decreasing across the lambda grid: "
                          f"{violations}/{len(pairs)} adjacent increases > 5% "
                          f"(allowed {allowed})"), mses


def test_c06_test_mse_floor_and_overfit_regime(lambda_study):
    eta_y = 4.0
    best = min(c.test_mse for c in lambda_study)
    at_zero = next(c.test_mse for c in lambda_study if c.lam == 0.0)
    at_max = next(c.test_mse for c in lambda_study if c.lam == max(THINNED_LAMBDAS))
    lo, hi = 0.5 * eta_y ** 2, 3 * eta_y ** 2
    ok = lo <= best <= hi and at_max > at_zero
    assert verdict(ok, 6, f"minimum test MSE {best:.2f} in [{lo:.0f}, {hi:.0f}] and "
                          f"largest-lambda test MSE {at_max:.2f} exceeds "
                          f"lambda=0 value {at_zero:.2f}"), (best, at_zero, at_max)


def test_c11_coupling_beats_two_stage_on_heldout(lambda_study):
    # The paper's claim: fitting topics and regression jointly predicts
    # held-out ratings better than regressing on topics found alone
    # (lambda = 0 is that two-stage fit).
    two_stage = next(c.test_mse for c in lambda_study if c.lam == 0.0)
    coupled = {c.lam: c.test_mse for c in lambda_study if c.lam > 0}
    best_lam = min(coupled, key=coupled.get)
    ok = coupled[best_lam] < two_stage
    assert verdict(ok, 11, f"best coupled held-out MSE {coupled[best_lam]:.2f} "
                           f"(lambda={best_lam:g}) is below the two-stage "
                           f"lambda=0 value {two_stage:.2f}"), coupled


# The sweep.csv that `cssnmf --seed 0 synth` followed by `cssnmf --seed 0 sweep
# X.csv Y.csv --r 4 --lambdas 0,0.01,0.1,1,10,100,1000,10000 --restarts 50`
# writes: the lambda study, byte for byte.
LAMBDA_STUDY_SWEEP_SHA256 = "3b17ebca3587e2e8379f9f2764a6e1ba47aa49ea4ce72b68961f27ace0cdd83c"


def test_lambda_study_sweep_csv_is_pinned(lambda_study, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, lambda_study)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LAMBDA_STUDY_SWEEP_SHA256


# ------------------------------------------------------------ normalization

def test_c07_normalization_preserves_objective():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(k)
        n, m, r = 12, 9, 3
        X = rng.uniform(0, 5, size=(n, m))
        Y = rng.uniform(0, 5, size=n)
        fac = Factorization(W=rng.uniform(0, 5, size=(n, r)),
                            H=rng.uniform(0.1, 5, size=(r, m)),
                            theta=rng.uniform(-2, 2, size=r + 1))
        lam = [0.0, 0.1, 10.0][k % 3]
        F_before, _, _ = objective(fac, X, Y, lam)
        F_after, _, _ = objective(normalize(fac), X, Y, lam)
        worst = max(worst, abs(F_before - F_after) / F_before)
    ok = worst <= 1e-9
    assert verdict(ok, 7, f"100 seeded factorizations: row-sum rescaling moves the "
                          f"objective by at most {worst:.3e} <= 1e-9 relative"), worst


# ---------------------------------------------------------------- balancing

def test_c09_balance_downsamples_to_smallest_interval():
    counts = (57, 235, 494, 629)
    edges = [1.0, 2.0, 3.0, 4.0, 5.0]
    entries = []
    rng = np.random.default_rng(9)
    for interval, count in enumerate(counts):
        low, high = edges[interval], edges[interval + 1]
        for j in range(count):
            rating = float(rng.uniform(low, high))
            if interval == len(counts) - 1 and j == 0:
                rating = 5.0  # the top interval is closed
            entries.append(RatedDocument(id=f"{interval}-{j}",
                                         text=f"word{interval} word{j}",
                                         rating=rating))
    corpus = RatedCorpus(entries=entries)
    balanced = balance(corpus, edges, seed=0)
    per_interval = [0, 0, 0, 0]
    for doc in balanced.entries:
        per_interval[interval_index(doc.rating, edges)] += 1
    ok = len(balanced.entries) == 228 and per_interval == [57, 57, 57, 57]
    assert verdict(ok, 9, f"interval counts {counts} balance to "
                          f"{len(balanced.entries)} documents, "
                          f"{per_interval} per interval (expected 228 = 4 x 57)"), \
        per_interval


# ------------------------------------------------------------ report shapes

def _rated_corpus_csv(path, n=48):
    rng = np.random.default_rng(10)
    pos = "great amazing clear helpful engaging brilliant".split()
    neg = "boring unclear harsh unfair confusing dull".split()
    mid = "lecture homework exams grading syllabus notes".split()
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["id", "text", "rating"])
        writer.writeheader()
        for i in range(n):
            rating = 1.0 + 4.0 * i / (n - 1)
            words = []
            for _ in range(24):
                pool = pos if rng.random() < (rating - 1) / 4 else neg
                words.append(str(rng.choice(pool if rng.random() < 0.6 else mid)))
            writer.writerow({"id": f"doc{i}", "text": " ".join(words),
                             "rating": f"{rating:.3f}"})


def test_c10_report_artifacts_have_expected_shape(tmp_path):
    runner = CliRunner()
    corpus = tmp_path / "corpus.csv"
    _rated_corpus_csv(corpus)
    ing, fit_dir, pred, top = (tmp_path / d for d in ("ing", "fit", "pred", "top"))

    steps = [
        ["--seed", "1", "--out", str(ing), "ingest", str(corpus),
         "--min-df", "0.05", "--max-df", "0.9"],
        ["--seed", "1", "--out", str(fit_dir), "fit", str(ing / "X.csv"),
         str(ing / "Y.csv"), "--r", "3", "--lam", "0.1", "--restarts", "2",
         "--max-iter", "40", "--vectorizer", str(ing / "vectorizer.json")],
        ["--out", str(pred), "predict", str(fit_dir / "model.json"), str(corpus)],
        ["--out", str(top), "topics", str(fit_dir / "model.json"), "--top-k", "10"],
    ]
    for args in steps:
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, (args, result.output, result.stderr)

    problems = []

    rows = list(csv.DictReader((pred / "predictions.csv").open()))
    if list(rows[0]) != ["id", "y_hat", "w_1", "w_2", "w_3"]:
        problems.append(f"predictions columns {list(rows[0])}")
    if len(rows) != 48:
        problems.append(f"{len(rows)} prediction rows")

    groups = list(csv.DictReader((pred / "groups.csv").open()))
    if list(groups[0]) != ["low", "high", "count", "mean_true", "mean_pred"]:
        problems.append(f"groups columns {list(groups[0])}")
    if [g["low"] for g in groups] != ["1.0", "2.0", "3.0", "4.0"]:
        problems.append(f"group intervals {[g['low'] for g in groups]}")
    if sum(int(g["count"]) for g in groups) != 48:
        problems.append("grouped counts do not cover the corpus")

    topics_doc = json.loads((top / "topics.json").read_text())
    if set(topics_doc) != {"intercept", "topics"}:
        problems.append(f"topics.json keys {set(topics_doc)}")
    thetas = [t["theta"] for t in topics_doc["topics"]]
    if thetas != sorted(thetas, reverse=True):
        problems.append("topics not sorted by regression weight")
    for topic in topics_doc["topics"]:
        if set(topic) != {"topic", "theta", "terms"} or len(topic["terms"]) != 10:
            problems.append(f"malformed topic entry {topic['topic']}")
        elif any(set(tw) != {"term", "weight"} for tw in topic["terms"]):
            problems.append(f"malformed term weights in topic {topic['topic']}")
        else:
            weights = [tw["weight"] for tw in topic["terms"]]
            if weights != sorted(weights, reverse=True):
                problems.append(f"term weights not descending in topic {topic['topic']}")
    if not (top / "topics.txt").read_text().strip():
        problems.append("empty plain-text topic report")

    ok = not problems
    assert verdict(ok, 10, "prediction CSV, grouped-means CSV, and topic reports "
                           "have the documented shapes" if ok else
                           "report shape problems: " + "; ".join(problems)), problems
