import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cssnmf.linalg
import cssnmf.model
from cssnmf.linalg import DUAL_TOL, ConvergenceError
from cssnmf.model import (
    EPS_H,
    Factorization,
    FitConfig,
    NumericFailure,
    _recon_error,
    fit,
    load_model,
    normalize,
    objective,
    predict_many,
    save_model,
    update_h,
    update_theta,
    update_w,
)
from cssnmf.synthetic import SyntheticConfig, generate
from conftest import brute_force_nnls, fit_once_reference, frob_sq


def random_factorization(rng, n, m, r):
    W = rng.uniform(0.0, 2.0, size=(n, r))
    H = np.maximum(rng.uniform(0.0, 2.0, size=(r, m)), EPS_H)
    theta = rng.uniform(-1.0, 1.0, size=r + 1)
    return Factorization(W=W, H=H, theta=theta)


# ---------------------------------------------------------------- objective

def test_objective_zero_at_exact_fit():
    rng = np.random.default_rng(0)
    fac = random_factorization(rng, 5, 4, 2)
    X = fac.W @ fac.H
    Y = fac.theta[0] + fac.W @ fac.theta[1:]
    F, N, R = objective(fac, X, Y, 3.0)
    assert F <= 1e-20 and N <= 1e-20 and R <= 1e-20


def test_objective_lambda_zero_ignores_regression():
    rng = np.random.default_rng(1)
    fac = random_factorization(rng, 5, 4, 2)
    X = rng.uniform(size=(5, 4))
    Y = rng.normal(size=5)
    F, N, R = objective(fac, X, Y, 0.0)
    assert F == N
    assert R > 0


def test_objective_matches_naive_summation():
    # Recompute both error terms with explicit double loops.
    rng = np.random.default_rng(2)
    n, m, r = 6, 5, 2
    fac = random_factorization(rng, n, m, r)
    X = rng.uniform(size=(n, m))
    Y = rng.normal(size=n)
    lam = 0.7
    N_ref = 0.0
    for i in range(n):
        for j in range(m):
            diff = X[i, j] - sum(fac.W[i, k] * fac.H[k, j] for k in range(r))
            N_ref += diff * diff
    R_ref = 0.0
    for i in range(n):
        pred = fac.theta[0] + sum(fac.W[i, k] * fac.theta[k + 1] for k in range(r))
        R_ref += (pred - Y[i]) ** 2
    F, N, R = objective(fac, X, Y, lam)
    assert abs(N - N_ref) <= 1e-9 * (1 + N_ref)
    assert abs(R - R_ref) <= 1e-9 * (1 + R_ref)
    assert abs(F - (N_ref + lam * R_ref)) <= 1e-9 * (1 + F)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), m=st.integers(1, 40), r=st.integers(1, 8),
       x_order=st.sampled_from("CF"), w_step=st.integers(1, 3), h_step=st.integers(1, 3),
       density=st.sampled_from([1.0, 0.3, 0.03, 0.0]), seed=st.integers(0, 2**32 - 1))
@example(n=1, m=1, r=1, x_order="C", w_step=1, h_step=1, density=1.0, seed=0)
@example(n=1, m=1, r=1, x_order="F", w_step=3, h_step=2, density=0.0, seed=1)
def test_recon_error_is_bit_equal_to_dense_residual(n, m, r, x_order, w_step, h_step,
                                                    density, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 5.0, size=(n, m)) * (rng.uniform(size=(n, m)) < density)
    X = np.asarray(X, order=x_order)
    # Strided views: every w_step-th row and column of a larger array.
    W = rng.uniform(0.0, 3.0, size=(n * w_step, r * w_step))[::w_step, ::w_step]
    H = rng.uniform(0.0, 3.0, size=(r, m * h_step))[:, ::h_step]
    assert _recon_error(X, W, H) == frob_sq(X - W @ H)


def test_objective_shape_mismatch():
    fac = Factorization(W=np.ones((3, 2)), H=np.ones((2, 4)), theta=np.zeros(3))
    with pytest.raises(ValueError):
        objective(fac, np.ones((3, 5)), np.ones(3), 1.0)


# ------------------------------------------------------------- update_theta

def test_update_theta_exact_interpolation():
    theta = update_theta(np.array([[1.0], [2.0]]), np.array([3.0, 5.0]))
    assert np.allclose(theta, [1.0, 2.0], atol=1e-10)


def test_update_theta_zero_matrix_gives_intercept_only():
    Y = np.array([1.0, 2.0, 6.0])
    theta = update_theta(np.zeros((3, 2)), Y)
    assert abs(theta[0] - Y.mean()) <= 1e-12
    assert np.allclose(theta[1:], 0.0, atol=1e-12)


def test_update_theta_local_optimality():
    # No unit-scaled perturbation of the minimizer may do better.
    rng = np.random.default_rng(3)
    W = rng.uniform(size=(8, 3))
    Y = rng.normal(size=8)
    Wbar = np.hstack([np.ones((8, 1)), W])
    theta = update_theta(W, Y)
    base = np.sum((Wbar @ theta - Y) ** 2)
    for _ in range(100):
        delta = rng.normal(size=4)
        delta *= 1e-3 / np.linalg.norm(delta)
        perturbed = np.sum((Wbar @ (theta + delta) - Y) ** 2)
        assert base <= perturbed + 1e-15


def test_update_theta_normal_equation_residual():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        r = int(rng.integers(1, 5))
        W = rng.uniform(size=(n, r))
        Y = rng.normal(size=n)
        theta = update_theta(W, Y)
        Wbar = np.hstack([np.ones((n, 1)), W])
        residual = np.max(np.abs(Wbar.T @ (Wbar @ theta - Y)))
        assert residual <= 1e-8 * (1 + np.max(np.abs(Wbar.T @ Y)))


# ----------------------------------------------------------------- update_h

def test_update_h_identity_dictionary():
    rng = np.random.default_rng(5)
    H_true = rng.uniform(size=(3, 6))
    H_true[0, 0] = 0.0
    H = update_h(H_true.copy(), np.eye(3), np.ones((3, 6)))
    assert np.allclose(H, np.maximum(H_true, EPS_H), atol=1e-10)


def test_update_h_zero_target_clamps_everything():
    rng = np.random.default_rng(6)
    W = rng.uniform(0.1, 1.0, size=(4, 2))
    H = update_h(np.zeros((4, 5)), W, np.ones((2, 5)))
    assert np.array_equal(H, np.full((2, 5), EPS_H))


def test_update_h_does_not_increase_reconstruction_error():
    for seed in range(10):
        r2 = np.random.default_rng(seed)
        X = r2.uniform(size=(6, 4))
        W = r2.uniform(size=(6, 3))
        H_old = np.maximum(r2.uniform(size=(3, 4)), EPS_H)
        H_new = update_h(X, W, H_old)
        before = np.sum((X - W @ H_old) ** 2)
        after = np.sum((X - W @ H_new) ** 2)
        assert after <= before + 1e-12 * (1 + before)
        assert np.all(H_new >= EPS_H)


# ----------------------------------------------------------------- update_w

def test_update_w_identity_topics_lambda_zero():
    X = np.array([[1.0, 0.0, 2.0]])
    W = update_w(X, np.zeros(1), np.eye(3), np.zeros(4), 0.0, np.zeros((1, 3)))
    assert np.allclose(W, X, atol=1e-10)


def test_update_w_large_lambda_tracks_response():
    # With a vanishing dictionary the regression term dominates and each
    # weight approaches its response value.
    n = 4
    Y = np.array([2.0, 0.5, 3.0, 1.0])
    H = np.full((1, 3), EPS_H)
    theta = np.array([0.0, 1.0])
    W = update_w(np.zeros((n, 3)), Y, H, theta, 1e10, np.zeros((n, 1)))
    assert np.allclose(W[:, 0], Y, atol=1e-4)


def test_update_w_does_not_increase_objective():
    for seed in range(10):
        r2 = np.random.default_rng(100 + seed)
        X = r2.uniform(size=(5, 4))
        Y = r2.normal(size=5)
        H = np.maximum(r2.uniform(size=(2, 4)), EPS_H)
        theta = r2.normal(size=3)
        W_old = r2.uniform(size=(5, 2))
        W_new = update_w(X, Y, H, theta, 1.0, W_old)
        before, _, _ = objective(Factorization(W_old, H, theta), X, Y, 1.0)
        after, _, _ = objective(Factorization(W_new, H, theta), X, Y, 1.0)
        assert after <= before + 1e-12 * (1 + before)
        assert np.all(W_new >= 0)


def _failing_kernel(column):
    def explode(AtA, AtB, max_iter=None, warm_passive=None):
        raise ConvergenceError("stuck", best=np.zeros(AtA.shape[0]), column=column)
    return explode


def test_update_w_propagates_row_index_on_failure(monkeypatch):
    monkeypatch.setattr(cssnmf.model, "nnls_multi", _failing_kernel(2))
    with pytest.raises(ConvergenceError) as exc:
        update_w(np.ones((3, 4)), np.ones(3), np.ones((2, 4)), np.zeros(3), 0.0, np.ones((3, 2)))
    assert exc.value.row == 2 and exc.value.column is None
    assert "row 2" in str(exc.value)


def test_update_h_propagates_column_index_on_failure(monkeypatch):
    monkeypatch.setattr(cssnmf.model, "nnls_multi", _failing_kernel(3))
    with pytest.raises(ConvergenceError) as exc:
        update_h(np.ones((3, 4)), np.ones((3, 2)), np.ones((2, 4)))
    assert exc.value.column == 3 and exc.value.row is None
    assert "column 3" in str(exc.value)


def test_update_h_rejects_nan_data_instead_of_hanging():
    # A NaN reaching the active-set loop used to stall it for good, so run
    # in a subprocess that a timeout can stop.
    code = (
        "import numpy as np\n"
        "from cssnmf.model import update_h\n"
        "try:\n"
        "    update_h(np.array([[np.nan, 1.0]]), np.ones((1, 1)), np.ones((1, 2)))\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cssnmf.model.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "finite" in proc.stdout


# ---------------------------------------------------------------- normalize

def test_normalize_rescales_and_preserves_product():
    fac = Factorization(
        W=np.array([[1.0], [3.0]]),
        H=np.array([[2.0, 2.0]]),
        theta=np.array([0.5, 4.0]),
    )
    out = normalize(fac)
    assert np.allclose(out.H, [[0.5, 0.5]])
    assert np.allclose(out.W, [[4.0], [12.0]])
    assert np.allclose(out.theta, [0.5, 1.0])
    assert np.allclose(out.W @ out.H, fac.W @ fac.H)


def test_normalize_fixed_point():
    fac = Factorization(
        W=np.array([[1.0, 2.0]]),
        H=np.array([[0.25, 0.75], [0.5, 0.5]]),
        theta=np.array([0.0, 1.0, 2.0]),
    )
    out = normalize(fac)
    assert np.allclose(out.W, fac.W) and np.allclose(out.H, fac.H)
    assert np.allclose(out.theta, fac.theta)


def test_normalize_preserves_objective():
    for seed in range(20):
        r2 = np.random.default_rng(200 + seed)
        fac = random_factorization(r2, 6, 5, 3)
        X = r2.uniform(size=(6, 5))
        Y = r2.normal(size=6)
        before = objective(fac, X, Y, 0.3)
        out = normalize(fac)
        after = objective(out, X, Y, 0.3)
        for a, b in zip(before, after):
            assert abs(a - b) <= 1e-9 * (1 + abs(a))
        assert np.allclose(out.H.sum(axis=1), 1.0, atol=1e-9)


def test_normalize_rejects_nonpositive_row_sum():
    fac = Factorization(W=np.ones((2, 1)), H=np.zeros((1, 3)), theta=np.zeros(2))
    with pytest.raises(RuntimeError):
        normalize(fac)


# ---------------------------------------------------------------------- fit

def test_fit_recovers_exact_low_rank_matrix():
    ds = generate(SyntheticConfig(n=20, m=10, r_true=2, M=5.0, eta_x=0.0, eta_y=0.0, seed=12))
    fac, report = fit(ds.X, ds.Y, FitConfig(r=2, lam=0.0, tau=1e-9, max_iter=200, seed=0, restarts=5))
    N = objective(fac, ds.X, ds.Y, 0.0)[1]
    assert N / np.sum(ds.X ** 2) <= 1e-6
    assert report.converged


def test_fit_single_document():
    X = np.array([[0.3, 0.1, 0.6]])
    Y = np.array([4.0])
    fac, _ = fit(X, Y, FitConfig(r=1, lam=0.0, tau=1e-10, max_iter=100, seed=1, restarts=3))
    assert np.allclose(fac.W @ fac.H, X, atol=1e-10)
    pred = fac.theta[0] + fac.W @ fac.theta[1:]
    assert np.allclose(pred, Y, atol=1e-8)


def test_fit_trace_is_monotone_and_consistent():
    ds = generate(SyntheticConfig(n=25, m=12, r_true=3, M=10.0, eta_x=2.0, eta_y=2.0, seed=13))
    lam = 0.5
    fac, report = fit(ds.X, ds.Y, FitConfig(r=3, lam=lam, tau=1e-6, max_iter=60, seed=2, restarts=2))
    trace = report.objective_trace
    assert trace[0][0] == 0 and trace[-1][0] == report.iterations_run
    for (_, F0, _, _), (_, F1, _, _) in zip(trace, trace[1:]):
        assert F1 <= F0 * (1 + 1e-12) + 1e-12
    for _, F, N, R in trace:
        assert abs(F - (N + lam * R)) <= 1e-9 * (1 + abs(F))
    assert np.all(fac.W >= 0) and np.all(fac.H > 0)
    assert np.allclose(fac.H.sum(axis=1), 1.0, atol=1e-9)


def test_fit_stopping_test_starts_at_the_second_iteration():
    # All-zero X at lam = 0: F is 0 from the start, so the relative change
    # reads 0 as soon as it is taken, which is after iteration 2.
    _, report = fit(np.zeros((4, 3)), np.arange(4.0),
                    FitConfig(r=2, lam=0.0, max_iter=10, restarts=1))
    assert [row[1] for row in report.objective_trace] == [0.0, 0.0, 0.0]
    assert report.iterations_run == 2 and report.converged


def test_fit_lambda_zero_fits_theta_once_at_the_end():
    ds = generate(SyntheticConfig(n=15, m=8, r_true=2, M=5.0, eta_x=1.0, eta_y=1.0, seed=14))
    fac, report = fit(ds.X, ds.Y, FitConfig(r=2, lam=0.0, tau=1e-6, max_iter=50, seed=3, restarts=2))
    # With lambda = 0 the trace objective is pure reconstruction error.
    for _, F, N, _ in report.objective_trace:
        assert F == N
    assert np.array_equal(fac.theta, update_theta(fac.W, ds.Y))


def test_fit_lambda_zero_last_trace_row_describes_returned_model():
    ds = generate(SyntheticConfig(n=15, m=8, r_true=2, M=5.0, eta_x=1.0, eta_y=1.0, seed=14))
    fac, report = fit(ds.X, ds.Y, FitConfig(r=2, lam=0.0, tau=1e-6, max_iter=50, seed=3, restarts=2))
    it, F, N, R = report.objective_trace[-1]
    assert it == report.iterations_run
    assert (F, N, R) == objective(fac, ds.X, ds.Y, 0.0)
    assert report.final_objective == F


def test_fit_restart_selection_prefers_lowest_objective():
    ds = generate(SyntheticConfig(n=20, m=10, r_true=3, M=8.0, eta_x=2.0, eta_y=2.0, seed=15))
    cfg = FitConfig(r=3, lam=0.2, tau=1e-6, max_iter=40, seed=7, restarts=4)
    fac, report = fit(ds.X, ds.Y, cfg)
    # Re-run each restart in isolation; the winner must match the best.
    finals = []
    for k in range(cfg.restarts):
        single = FitConfig(r=3, lam=0.2, tau=1e-6, max_iter=40, seed=7 + k, restarts=1)
        _, rep_k = fit(ds.X, ds.Y, single)
        finals.append(rep_k.final_objective)
    assert report.final_objective == min(finals)
    assert finals[report.restart_index] == min(finals)


def test_fit_flags_overcomplete_rank():
    X = np.abs(np.random.default_rng(16).uniform(size=(4, 3)))
    Y = np.zeros(4)
    _, report = fit(X, Y, FitConfig(r=5, lam=0.0, tau=1e-4, max_iter=5, seed=0, restarts=1))
    assert any("exceeds" in w for w in report.warnings)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit(np.array([[1.0, -0.1]]), np.array([1.0]), FitConfig(r=1))
    with pytest.raises(ValueError):
        fit(np.ones((3, 2)), np.ones(4), FitConfig(r=1))
    with pytest.raises(ValueError):
        fit(np.array([[np.nan, 1.0]]), np.array([1.0]), FitConfig(r=1))


@pytest.mark.parametrize("kwargs", [
    {"r": 0},
    {"r": 1, "lam": -1.0},
    {"r": 1, "tau": 0.0},
    {"r": 1, "max_iter": 0},
    {"r": 1, "restarts": 0},
])
def test_fit_config_validation(kwargs):
    with pytest.raises(ValueError):
        FitConfig(**kwargs)


def test_fit_raises_numeric_failure_when_all_restarts_fail(monkeypatch):
    def explode(X, Y, H, theta, lam, W_old):
        raise ConvergenceError("no progress", best=None)

    monkeypatch.setattr(cssnmf.model, "update_w", explode)
    X = np.abs(np.random.default_rng(17).uniform(size=(5, 4)))
    with pytest.raises(NumericFailure):
        fit(X, np.zeros(5), FitConfig(r=2, lam=0.0, restarts=3))


def text_like_matrix(n, m, seed):
    """About 97 % zeros, nonzero rows l1-normalized, like a TF-IDF matrix."""
    rng = np.random.default_rng(seed)
    X = rng.exponential(size=(n, m)) * (rng.uniform(size=(n, m)) < 0.03)
    s = X.sum(axis=1)
    X[s > 0] /= s[s > 0, None]
    return X, rng.uniform(1.0, 5.0, size=n)


def reference_data(kind):
    if kind == "text":
        return text_like_matrix(60, 90, seed=21)
    ds = generate(SyntheticConfig(n=40, m=24, r_true=4, M=10.0, eta_x=2.0, eta_y=2.0, seed=22))
    X = np.asfortranarray(ds.X) if kind == "fortran" else ds.X
    return X, ds.Y


def assert_fits_equal(got, want):
    (fac, report), (ref_fac, ref_report) = got, want
    assert np.array_equal(fac.W, ref_fac.W)
    assert np.array_equal(fac.H, ref_fac.H)
    assert np.array_equal(fac.theta, ref_fac.theta)
    assert report == ref_report


@pytest.mark.parametrize("kind", ["dense", "text", "fortran"])
@pytest.mark.parametrize("r", [1, 4, 11])
@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 1e4])
def test_fit_matches_reference_fit_loop(monkeypatch, kind, r, lam):
    X, Y = reference_data(kind)
    cfg = FitConfig(r=r, lam=lam, tau=1e-8, max_iter=25, seed=3, restarts=2)
    got = fit(X, Y, cfg)
    monkeypatch.setattr(cssnmf.model, "_fit_once", fit_once_reference)
    assert_fits_equal(got, fit(X, Y, cfg))


def exact_rank_two_data():
    ds = generate(SyntheticConfig(n=20, m=10, r_true=2, M=5.0, eta_x=0.0, eta_y=0.0, seed=12))
    return ds.X, ds.Y


# Noise-free rank-2 data fitted to machine precision: near the exact fit,
# rounding makes some block steps raise F by an ulp, and those are rejected.
# (The acceptance sweep's lambda = 1e4 cell rejects no step.)
REJECTING_FIT = FitConfig(r=2, lam=1.0, tau=1e-12, max_iter=300, seed=0, restarts=1)


def test_fit_with_rejected_steps_matches_reference_fit_loop(monkeypatch):
    X, Y = exact_rank_two_data()
    got = fit(X, Y, REJECTING_FIT)
    monkeypatch.setattr(cssnmf.model, "_fit_once", fit_once_reference)
    assert_fits_equal(got, fit(X, Y, REJECTING_FIT))


def spy_fit_steps(monkeypatch):
    """Record every block update's inputs and result, and every normalization.

    Returns a list that fills with ``(name, args, result)`` in call order,
    ``name`` being ``"update_w"``, ``"update_h"``, ``"update_theta"`` or
    ``"normalize"``.
    """
    calls = []

    def spy(name):
        original = getattr(cssnmf.model, name)

        def recording(*args):
            result = original(*args)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(cssnmf.model, name, recording)

    for name in ("update_w", "update_h", "update_theta", "normalize"):
        spy(name)
    return calls


@pytest.mark.parametrize("lam", [0.0, 0.5, 1e4])
def test_fit_counts_every_block_step(monkeypatch, lam):
    ds = generate(SyntheticConfig(n=25, m=12, r_true=3, M=10.0, eta_x=2.0, eta_y=2.0, seed=13))
    calls = spy_fit_steps(monkeypatch)
    _, report = fit(ds.X, ds.Y, FitConfig(r=3, lam=lam, tau=1e-6, max_iter=60, seed=2,
                                          restarts=1))
    it = report.iterations_run
    names = [name for name, _, _ in calls]
    # One W and one H step per iteration, a theta step while lam > 0, and
    # at lam = 0 one theta fit at the end.
    assert names.count("update_w") == names.count("update_h") == it
    assert names.count("update_theta") == (it if lam > 0 else 1)
    # Every W step solves all n rows and every H step all m columns.
    n, m = ds.X.shape
    assert all(res.shape == (n, 3) for name, _, res in calls if name == "update_w")
    assert all(res.shape == (3, m) for name, _, res in calls if name == "update_h")


def test_fit_counts_rejected_steps_of_every_block(monkeypatch):
    # A kept step hands its own result on: the W step's to the next H step,
    # the H step's as the next H step's warm start, the theta step's to the
    # normalization.
    X, Y = exact_rank_two_data()
    calls = spy_fit_steps(monkeypatch)
    fit(X, Y, REJECTING_FIT)
    kept = {"W": [], "H": [], "theta": []}
    last = {}
    for name, args, result in calls:
        if name == "update_h":
            kept["W"].append(args[1] is last["update_w"])
            if "update_h" in last:
                kept["H"].append(args[2] is last["update_h"])
        elif name == "normalize":
            kept["theta"].append(args[0].theta is last["update_theta"])
        last[name] = result
    for block, decisions in kept.items():
        assert False in decisions, block  # at least one step was rejected
        assert True in decisions, block


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_fit_forms_three_dense_residuals_per_iteration(monkeypatch, lam):
    calls = []
    original = cssnmf.model._recon_error

    def counting(X, W, H):
        calls.append(X.shape)
        return original(X, W, H)

    monkeypatch.setattr(cssnmf.model, "_recon_error", counting)
    ds = generate(SyntheticConfig(n=25, m=12, r_true=3, M=10.0, eta_x=2.0, eta_y=2.0, seed=13))
    _, report = fit(ds.X, ds.Y, FitConfig(r=3, lam=lam, tau=1e-12, max_iter=7, seed=2,
                                          restarts=1))
    assert report.iterations_run == 7
    # One for the initial objective; per iteration one each after the W and
    # H steps and one for the normalization check; at lam = 0 one more for
    # the final theta fit.
    assert len(calls) == 1 + 3 * report.iterations_run + (lam == 0)


def spy_h_solves(monkeypatch, m):
    """Record every H-step kernel call of a fit on ``m``-column data.

    Returns a list that fills with ``(AtA, AtB, warm_passive, raw result)``
    per H step (an H step solves ``m`` columns, a W step ``n``), and a dict
    counting ``linalg._solve_one`` calls made during H steps after the first.
    """
    solves, singles = [], {"later_h": 0, "in_later_h": False}
    kernel, solve_one = cssnmf.model.nnls_multi, cssnmf.linalg._solve_one

    def spy(AtA, AtB, max_iter=None, warm_passive=None):
        h_step = AtB.shape[1] == m
        singles["in_later_h"] = h_step and len(solves) >= 1
        try:
            X = kernel(AtA, AtB, max_iter, warm_passive)
        finally:
            singles["in_later_h"] = False
        if h_step:
            solves.append((AtA, AtB, warm_passive, X.copy()))
        return X

    def counting_solve_one(M, v):
        singles["later_h"] += singles["in_later_h"]
        return solve_one(M, v)

    monkeypatch.setattr(cssnmf.model, "nnls_multi", spy)
    monkeypatch.setattr(cssnmf.linalg, "_solve_one", counting_solve_one)
    return solves, singles


def test_h_warm_start_is_the_last_accepted_support(monkeypatch):
    # Planted rank 4 fitted at r = 11: most H entries end floored at EPS_H.
    # Normalization lifts a floored entry of row k to EPS_H / s_k; the warm
    # start must still leave it out.
    ds = generate(SyntheticConfig(n=60, m=30, r_true=4, M=10.0, eta_x=2.0, eta_y=2.0, seed=1))
    solves, singles = spy_h_solves(monkeypatch, ds.X.shape[1])
    fit(ds.X, ds.Y, FitConfig(r=11, lam=0.0, tau=1e-8, max_iter=30, seed=2, restarts=1))
    assert len(solves) == 30  # every iteration ran
    lifted = 0
    for (_, _, _, prev), (_, _, warm, _) in zip(solves, solves[1:]):
        H_prev = np.maximum(prev, EPS_H)  # the accepted H_new, floored
        assert np.array_equal(warm, H_prev > EPS_H)
        floored = H_prev == EPS_H
        assert not np.any(warm & floored)
        lifted += np.count_nonzero(floored & (H_prev / H_prev.sum(axis=1, keepdims=True) > EPS_H))
    assert lifted > 0  # the normalized H would have put floored entries in
    # Starting from the normalized H, this fit made 38 per-system fallback
    # solves in its later H steps; warm sets that were a solve's own final
    # support make none.
    assert singles["later_h"] == 0


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_degenerate_fit_accepts_only_kkt_h_blocks(monkeypatch, lam):
    # r = 11 on planted-rank-4 data: block problems with more than one
    # passive set meeting the stopping test, where the warm start decides
    # which one a solve returns.  Every H block solved, accepted or not,
    # must be an NNLS solution for its W.
    ds = generate(SyntheticConfig(n=100, m=40, r_true=4, seed=1))
    solves, _ = spy_h_solves(monkeypatch, ds.X.shape[1])
    _, report = fit(ds.X, ds.Y, FitConfig(r=11, lam=lam, max_iter=60, seed=1, restarts=2))
    assert len(solves) == 2 * 60  # both restarts ran every iteration
    for AtA, AtB, _, H in solves:
        assert np.all(H >= 0)
        for j in range(AtB.shape[1]):
            h = np.ascontiguousarray(H[:, j])
            grad = AtB[:, j] - AtA @ h
            scale = 1.0 + np.max(np.abs(AtB[:, j]))
            assert np.max(grad[h == 0], initial=-np.inf) <= DUAL_TOL * scale
            assert np.max(np.abs(grad[h > 0]), initial=0.0) <= 1e-7 * scale
    Fs = [row[1] for row in report.objective_trace]
    assert all((after - before) / abs(before) <= 1e-12 for before, after in zip(Fs, Fs[1:]))


def test_fit_skips_a_restart_whose_iterates_overflow():
    # Restart 0 of this fit drives theta to overflow, so its W step meets
    # an infinite Gram; the kernel refuses it and restart 1 wins.
    ds = generate(SyntheticConfig(n=100, m=40, r_true=4, seed=4))
    cfg = FitConfig(r=11, lam=100.0, max_iter=60, seed=4, restarts=2)
    with pytest.raises(ValueError, match="finite"):
        cssnmf.model._fit_once(ds.X, ds.Y, cfg, seed=4, restart_index=0)
    fac, report = fit(ds.X, ds.Y, cfg)
    assert report.restart_index == 1 and np.isfinite(report.final_objective)


# ------------------------------------------------------------------ predict

def test_predict_empty_document_returns_intercept():
    H = np.array([[0.5, 0.5], [0.9, 0.1]])
    theta = np.array([2.5, 1.0, -1.0])
    y_hat, W = predict_many(H, theta, np.zeros((1, 2)))
    assert y_hat[0] == theta[0]
    assert np.array_equal(W[0], np.zeros(2))


def test_predict_pure_topic_document():
    H = np.array([[0.7, 0.3, 0.0, 0.0], [0.0, 0.0, 0.4, 0.6]])
    theta = np.array([1.0, 2.0, -3.0])
    for k in range(2):
        y_hat, W = predict_many(H, theta, H[k:k + 1])
        e_k = np.zeros(2)
        e_k[k] = 1.0
        assert np.allclose(W[0], e_k, atol=1e-10)
        assert abs(y_hat[0] - (theta[0] + theta[k + 1])) <= 1e-10


def test_predict_matches_brute_force_encoding():
    rng = np.random.default_rng(18)
    for _ in range(15):
        H = rng.uniform(size=(3, 6))
        theta = rng.normal(size=4)
        x = rng.uniform(size=6)
        y_hat, W = predict_many(H, theta, x[None, :])
        ref = brute_force_nnls(H.T, x)
        assert np.linalg.norm(W[0] - ref) <= 1e-6
        assert abs(y_hat[0] - (theta[0] + W[0] @ theta[1:])) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_predict_many_equals_stacked_predict(r, m, k, seed):
    rng = np.random.default_rng(seed)
    H = rng.uniform(size=(r, m))
    theta = rng.normal(size=r + 1)
    X = rng.uniform(size=(k, m)) * (rng.random((k, 1)) < 0.8)
    y_hat, W = predict_many(H, theta, X)
    assert y_hat.shape == (k,) and W.shape == (k, r)
    for i in range(k):
        y_i, W_i = predict_many(H, theta, X[i:i + 1])
        assert y_hat[i] == y_i[0] and np.array_equal(W[i], W_i[0])


def test_predict_many_validates_input():
    H = np.ones((2, 3))
    theta = np.zeros(3)
    with pytest.raises(ValueError):
        predict_many(H, theta, np.ones((2, 4)))
    with pytest.raises(ValueError):
        predict_many(H, theta, np.ones(3))
    with pytest.raises(ValueError):
        predict_many(H, theta, np.array([[1.0, -1.0, 0.0]]))
    with pytest.raises(ValueError):
        predict_many(H, theta, np.array([[1.0, np.nan, 0.0]]))


@pytest.mark.parametrize("where", ["H", "theta"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_predict_many_rejects_non_finite_model(where, bad):
    # A NaN in H or theta would otherwise stall the active-set solve.
    params = {"H": np.ones((2, 3)), "theta": np.zeros(3)}
    params[where].flat[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        predict_many(params["H"], params["theta"], np.ones((2, 3)))


# -------------------------------------------------------------- persistence

def test_model_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    fac = random_factorization(rng, 6, 4, 2)
    cfg = FitConfig(r=2, lam=0.5, tau=1e-5, max_iter=30, seed=9, restarts=2)
    X = rng.uniform(size=(6, 4))
    Y = rng.normal(size=6)
    _, report = fit(X, Y, cfg)
    path = tmp_path / "model.json"
    vocab = ["alpha", "beta", "gamma", "delta"]
    idf = [1.0, 1.2, 1.5, 2.0]
    save_model(path, fac, cfg, report, vocabulary=vocab, idf=idf,
               tfidf={"min_df": 0.01, "max_df": 0.15, "stopwords": "english",
                      "lowercase": True, "norm": "l1"})
    model = load_model(path)
    assert np.array_equal(model.H, fac.H)
    assert np.array_equal(model.theta, fac.theta)
    assert model.r == 2 and model.lam == 0.5
    assert model.vocabulary == vocab
    assert np.array_equal(model.idf, np.asarray(idf))
    assert model.config["tfidf"]["min_df"] == 0.01
    assert model.objective_trace[0][0] == 0
    doc = json.loads(path.read_text())
    assert "W" not in doc
    assert set(doc) == {"version", "r", "lambda", "theta", "H",
                        "vocabulary", "idf", "config", "objective_trace"}
    assert list(doc["config"]) == ["r", "lambda", "tau", "max_iter", "seed", "restarts",
                                   "tfidf"]


def test_model_round_trip_without_vocabulary(tmp_path):
    rng = np.random.default_rng(20)
    fac = random_factorization(rng, 4, 3, 2)
    cfg = FitConfig(r=2, lam=0.0)
    X = np.abs(rng.uniform(size=(4, 3)))
    _, report = fit(X, np.zeros(4), FitConfig(r=2, lam=0.0, max_iter=3, restarts=1))
    path = tmp_path / "model.json"
    save_model(path, fac, cfg, report)
    model = load_model(path)
    assert model.vocabulary is None and model.idf is None


def test_load_model_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"version": 99, "r": 1, "lambda": 0.0,
                                "theta": [0.0, 1.0], "H": [[1.0]]}))
    with pytest.raises(ValueError):
        load_model(path)


DROP = object()


def _write_model_doc(path, **changes):
    """A valid one-topic model document with ``changes`` applied; a field
    set to ``DROP`` is left out."""
    doc = {"version": 1, "r": 1, "lambda": 0.0, "theta": [0.5, 1.0], "H": [[0.25, 0.75]],
           "vocabulary": ["alpha", "beta"], "idf": [1.0, 2.0]}
    doc.update(changes)
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not DROP}))


@pytest.mark.parametrize("changes, message", [
    ({"H": [[float("nan"), 1.0]]}, "non-finite"),
    ({"H": [[float("inf"), 1.0]]}, "non-finite"),
    ({"theta": [0.5, float("nan")]}, "non-finite"),
    ({"theta": [float("-inf"), 1.0]}, "non-finite"),
    ({"vocabulary": ["alpha"]}, "1 vocabulary entries for 2 columns"),
    ({"vocabulary": ["alpha", "beta", "gamma"]}, "3 vocabulary entries for 2 columns"),
    ({"idf": [1.0, 2.0, 3.0]}, "3 idf entries for 2 columns"),
    ({"r": DROP}, "field 'r' must equal H's 1 rows, got None"),
    ({"r": 2}, "field 'r' must equal H's 1 rows, got 2"),
    ({"H": DROP}, "field 'H' is missing"),
    ({"lambda": DROP}, "field 'lambda' must be a number"),
    ({"theta": 3.0}, "field 'theta' must be a 1-d array"),
    ({"H": [0.25, 0.75]}, "field 'H' must be a 2-d array"),
    ({"vocabulary": 2}, "field 'vocabulary' must be a list of strings"),
    ({"vocabulary": ["alpha", 2]}, "field 'vocabulary' must be a list of strings"),
    ({"idf": [1.0, float("nan")]}, "field 'idf' has non-finite entries"),
    ({"idf": "high"}, "field 'idf' must be a 1-d array"),
    ({"config": 7}, "field 'config' must be an object"),
    ({"vocabulary": ["alpha", "alpha"]}, "field 'vocabulary' repeats the term 'alpha'"),
])
def test_load_model_rejects_bad_parameters(tmp_path, changes, message):
    path = tmp_path / "model.json"
    _write_model_doc(path, **changes)
    with pytest.raises(ValueError, match=message):
        load_model(path)


@pytest.mark.parametrize("text", ["[]", "[1, 2]", "3"])
def test_load_model_rejects_a_document_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="model.json: expected a JSON object"):
        load_model(path)


def test_load_model_accepts_the_valid_document(tmp_path):
    path = tmp_path / "model.json"
    _write_model_doc(path)
    model = load_model(path)
    assert model.vocabulary == ["alpha", "beta"]
    assert np.array_equal(model.idf, [1.0, 2.0])
