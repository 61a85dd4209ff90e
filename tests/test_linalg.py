import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cssnmf.linalg
from cssnmf.linalg import DUAL_TOL, SVD_CUTOFF, ConvergenceError, lstsq, nnls, nnls_multi
from conftest import _nnls_normal, brute_force_nnls


@pytest.mark.parametrize("bad", [np.array([1.0, np.nan]), np.array([1.0, np.inf])])
def test_lstsq_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        lstsq(np.eye(2), bad)


def test_lstsq_exact_square():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = lstsq(A, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-12)


def test_lstsq_minimum_norm_underdetermined():
    # One equation, two unknowns: x1 + x2 = 2 has minimum-norm solution (1, 1).
    A = np.array([[1.0, 1.0]])
    x = lstsq(A, np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_lstsq_small_singular_values_cut():
    # The second direction is below the relative cutoff, so it contributes
    # nothing instead of blowing up.
    A = np.diag([1.0, 1e-15])
    x = lstsq(A, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-9)


def test_lstsq_matches_pinv():
    rng = np.random.default_rng(3)
    for shape in [(6, 4), (4, 4), (3, 5), "rank_deficient"]:
        if shape == "rank_deficient":
            A = rng.normal(size=(6, 4))
            A[:, 3] = A[:, 0] + A[:, 1]
        else:
            A = rng.normal(size=shape)
        b = rng.normal(size=A.shape[0])
        x = lstsq(A, b)
        assert np.allclose(x, np.linalg.pinv(A) @ b, atol=1e-10), shape
        # The LAPACK binding gives numpy's own bits, in an array of its own.
        assert np.array_equal(x, np.linalg.lstsq(A, b, rcond=SVD_CUTOFF)[0]), shape
        assert x.flags.c_contiguous and x.flags.owndata


def test_nnls_identity_clips_negative_targets():
    x = nnls(np.eye(3), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(x, [1.0, 0.0, 3.0], atol=1e-12)


def test_nnls_recovers_interior_solution():
    rng = np.random.default_rng(1)
    A = rng.uniform(0.2, 1.0, size=(10, 4))
    x_true = rng.uniform(0.5, 2.0, size=4)
    x = nnls(A, A @ x_true)
    assert np.allclose(x, x_true, atol=1e-8)


def test_nnls_zero_rhs():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 3))
    assert np.array_equal(nnls(A, np.zeros(5)), np.zeros(3))


def test_nnls_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        q = int(rng.integers(1, 7))
        n = q + int(rng.integers(0, 5))
        A = rng.normal(size=(n, q))
        b = rng.normal(size=n)
        x = nnls(A, b)
        ref = brute_force_nnls(A, b)
        assert np.linalg.norm(x - ref) <= 1e-6, (q, n, x, ref)


def test_nnls_satisfies_kkt_conditions():
    # Nonnegativity, complementary slackness, and dual feasibility on the
    # normal equations.
    rng = np.random.default_rng(21)
    for _ in range(60):
        q = int(rng.integers(1, 9))
        A = rng.normal(size=(q + 3, q))
        b = rng.normal(size=q + 3)
        x = nnls(A, b)
        assert np.all(x >= 0)
        grad = A.T @ b - (A.T @ A) @ x
        scale = 1.0 + np.max(np.abs(A.T @ b))
        assert np.max(np.abs(grad[x > 0]), initial=0.0) <= 1e-7 * scale
        assert np.max(grad[x == 0], initial=0.0) <= 1e-7 * scale


def test_nnls_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(31)
    for _ in range(30):
        q = int(rng.integers(2, 7))
        A = rng.normal(size=(q + 4, q))
        b = rng.normal(size=q + 4)
        AtA = A.T @ A
        Atb = (A.T @ b)[:, None]
        cold = nnls_multi(AtA, Atb)
        warm = nnls_multi(AtA, Atb, warm_passive=rng.random((q, 1)) < 0.5)
        assert np.linalg.norm(cold - warm) <= 1e-8


def test_nnls_iteration_cap_carries_best_iterate():
    rng = np.random.default_rng(41)
    A = rng.uniform(0.1, 1.0, size=(12, 6))
    x_true = rng.uniform(0.5, 1.5, size=6)
    b = A @ x_true
    with pytest.raises(ConvergenceError) as exc:
        nnls(A, b, max_iter=1)
    best = exc.value.best
    assert best is not None and best.shape == (6,) and np.all(best >= 0)


def test_nnls_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        nnls(np.eye(3), np.zeros(4))


def test_dual_tolerance_is_relative():
    # Scaling the problem by 1e6 must not change the answer's support.
    rng = np.random.default_rng(51)
    A = rng.normal(size=(8, 4))
    b = rng.normal(size=8)
    x1 = nnls(A, b)
    x2 = nnls(A * 1e6, b * 1e6)
    assert np.allclose(x1, x2, atol=1e-9)
    assert DUAL_TOL < 1e-8


# ------------------------------------------------------------- nnls_multi

@st.composite
def normal_equations(draw, max_q=12, max_k=60, degenerate=True):
    """Cross products ``AtA = H H'``, ``AtB = H B`` of a random problem, plus
    the ``H`` (q x p) and ``B`` (p x k) they came from and a warm start."""
    q = draw(st.integers(1, max_q))
    k = draw(st.integers(1, max_k))
    p = draw(st.integers(q if not degenerate else 1, q + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def sample(kind, shape):
        return rng.normal(size=shape) if kind == "gaussian" else rng.uniform(size=shape)

    H = sample(draw(st.sampled_from(["gaussian", "uniform"])), (q, p))
    B = sample(draw(st.sampled_from(["gaussian", "uniform"])), (p, k))
    if degenerate:
        rank_defect = draw(st.sampled_from(["none", "duplicate_row", "zero_row"]))
        if rank_defect == "duplicate_row" and q >= 2:
            i, j = rng.choice(q, size=2, replace=False)
            H[j] = H[i]
        elif rank_defect == "zero_row":
            H[rng.integers(q)] = 0.0
        B[:, rng.random(k) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
    warm = draw(st.sampled_from(["cold", "random", "all"]))
    warm_passive = {
        "cold": None,
        "random": rng.random((q, k)) < 0.5,
        "all": np.ones((q, k), dtype=bool),
    }[warm]
    return H @ H.T, H @ B, H, B, warm_passive


def _reference_columns(AtA, AtB, warm_passive, max_iter):
    """Column-by-column reference solve; failures as {column: best}."""
    q, k = AtB.shape
    X = np.zeros((q, k))
    failed = {}
    for j in range(k):
        warm = None if warm_passive is None else warm_passive[:, j]
        try:
            X[:, j] = _nnls_normal(AtA, AtB[:, j], max_iter or 3 * q, warm_passive=warm)
        except ConvergenceError as err:
            failed[j] = err.best
    return X, failed


@settings(max_examples=200, deadline=None, derandomize=True)
@given(normal_equations(), st.sampled_from([None, None, None, 1, 2]))
def test_nnls_multi_is_bit_identical_to_per_column_reference(problem, max_iter):
    AtA, AtB, _, _, warm_passive = problem
    ref, failed = _reference_columns(AtA, AtB, warm_passive, max_iter)
    if failed:
        with pytest.raises(ConvergenceError) as exc:
            nnls_multi(AtA, AtB, max_iter=max_iter, warm_passive=warm_passive)
        j = min(failed)
        assert exc.value.column == j
        assert np.array_equal(exc.value.best, failed[j])
    else:
        result = nnls_multi(AtA, AtB, max_iter=max_iter, warm_passive=warm_passive)
        assert np.array_equal(result, ref)


@pytest.mark.parametrize("binding", ["_gesv"])
def test_solve_binding_raises_on_a_stack_with_one_singular_member(binding):
    # The stacked solve must raise, not return the other members' solutions
    # with NaNs in the singular one: the raise is what sends every member
    # of the stack to its own solve.
    M = np.stack([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError):
        getattr(cssnmf.linalg, binding)(M, np.ones((3, 2)))
    z = getattr(cssnmf.linalg, binding)(M[[0, 2]], np.ones((2, 2)))
    assert np.array_equal(z, [[1.0, 1.0], [0.5, 0.5]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(normal_equations(max_q=6, max_k=8, degenerate=False))
def test_nnls_multi_matches_brute_force_oracle(problem):
    AtA, AtB, H, B, warm_passive = problem
    X = nnls_multi(AtA, AtB, warm_passive=warm_passive)
    for j in range(B.shape[1]):
        assert np.linalg.norm(X[:, j] - brute_force_nnls(H.T, B[:, j])) <= 1e-6


@settings(max_examples=100, deadline=None, derandomize=True)
@given(normal_equations(degenerate=False))
def test_nnls_multi_satisfies_kkt_at_dual_tol(problem):
    AtA, AtB, _, _, warm_passive = problem
    X = nnls_multi(AtA, AtB, warm_passive=warm_passive)
    assert np.all(X >= 0)
    for j in range(AtB.shape[1]):
        x = np.ascontiguousarray(X[:, j])
        grad = AtB[:, j] - AtA @ x
        tol = DUAL_TOL * (1.0 + np.max(np.abs(AtB[:, j])))
        # Dual feasibility holds exactly: it is the kernel's stopping test.
        assert np.max(grad[x == 0], initial=-np.inf) <= tol
        # Complementary slackness up to the rounding of the passive solve.
        assert np.max(np.abs(grad[x > 0]), initial=0.0) <= 1e-7 * (1.0 + np.max(np.abs(AtB[:, j])))


def test_nnls_multi_cap_names_lowest_failing_column():
    rng = np.random.default_rng(61)
    A = rng.uniform(0.1, 1.0, size=(12, 6))
    # Column 0 is solved at x = 0; columns 1 and 2 need several entering steps.
    B = np.column_stack([-A @ np.ones(6), A @ rng.uniform(0.5, 1.5, size=6),
                         A @ rng.uniform(0.5, 1.5, size=6)])
    with pytest.raises(ConvergenceError) as exc:
        nnls_multi(A.T @ A, A.T @ B, max_iter=1)
    assert exc.value.column == 1
    assert exc.value.best.shape == (6,) and np.all(exc.value.best >= 0)


def test_nnls_multi_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        nnls_multi(np.eye(3), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        nnls_multi(np.eye(3), np.zeros((3, 2)), warm_passive=np.ones((3, 3), dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["AtA", "AtB"])
def test_nnls_multi_rejects_non_finite_input(where, bad):
    # Unchecked, a NaN stalls the active-set loop, an inf in AtA runs it
    # into the iteration cap and an inf in AtB gives a wrong answer.
    AtA, AtB = np.eye(3), np.ones((3, 4))
    if where == "AtA":
        AtA[1, 1] = bad
    else:
        AtB[2, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        nnls_multi(AtA, AtB)
    with pytest.raises(ValueError, match="finite"):
        nnls_multi(AtA, AtB, warm_passive=np.ones((3, 4), dtype=bool))


@pytest.mark.parametrize("singular", ["dependent_columns", "zero_column", "dead_group"])
def test_nnls_multi_solves_only_the_singular_systems_of_a_group_alone(singular, monkeypatch):
    # 40 warm sets of size 2 form one stacked solve; column 17's subsystem
    # alone is exactly singular (every one in "dead_group").  The stacked
    # solve raises, and then each member of the group is solved on its own,
    # once, with no part of the group retried as a stack.
    rng = np.random.default_rng(71)
    H = rng.uniform(0.5, 1.5, size=(4, 8))
    AtA = H @ H.T
    warm = np.zeros((4, 40), dtype=bool)
    warm[[0, 1]] = True
    x_true = np.zeros((4, 40))
    x_true[[0, 1]] = rng.uniform(0.5, 1.5, size=(2, 40))
    if singular == "dependent_columns":
        # Columns 2 and 3 of AtA are equal, so {2, 3} is singular but no
        # column of its subsystem is zero; its solution is still positive.
        AtA[:, 3] = AtA[:, 2]
        AtA[3, :] = AtA[2, :]
        warm[:, 17] = [False, False, True, True]
        x_true[:, 17] = [0.0, 0.0, 1.0, 1.0]
    else:
        # Row and column 3 of AtA are zero (a dead factor); a warm set that
        # holds index 3 is rejected and its column solved from a cold start.
        AtA[:, 3] = 0.0
        AtA[3, :] = 0.0
        if singular == "zero_column":
            warm[:, 17] = [False, True, False, True]
        else:
            warm[[0, 3]] = [[False], [True]]
    AtB = AtA @ x_true
    ref, failed = _reference_columns(AtA, AtB, warm, None)
    assert not failed

    singles, stacks = [], []
    solve_one, solve = cssnmf.linalg._solve_one, cssnmf.linalg._gesv

    def counting_solve_one(M, v):
        singles.append(M.shape)
        return solve_one(M, v)

    def counting_solve(M, v):
        if M.ndim == 3:
            stacks.append(len(M))
        return solve(M, v)

    monkeypatch.setattr(cssnmf.linalg, "_solve_one", counting_solve_one)
    monkeypatch.setattr(cssnmf.linalg, "_gesv", counting_solve)
    result = nnls_multi(AtA, AtB, warm_passive=warm)
    assert np.array_equal(result, ref)
    assert singles == [(2, 2)] * 40
    # Any stack after the first belongs to the rejected columns' cold starts.
    assert stacks == {"dependent_columns": [40], "zero_column": [40, 1, 1],
                      "dead_group": [40, 40, 40]}[singular]


def test_nnls_multi_warm_start_at_the_optimum_is_one_solve_per_size(monkeypatch):
    # Re-solving a block from the support it returned: every warm set is
    # optimal, so the call is one stacked solve per warm-set size, no
    # entering step and no inner round, and its result is the same bits.
    rng = np.random.default_rng(81)
    H = rng.uniform(size=(6, 10))
    B = rng.normal(size=(10, 50))
    B[:, :3] = -rng.uniform(size=(10, 3))  # some columns solve to x = 0
    AtA, AtB = H @ H.T, H @ B
    first = nnls_multi(AtA, AtB)
    sizes = (first > 0).sum(axis=0)
    assert len(set(sizes[sizes > 0].tolist())) >= 3 and (sizes == 0).any()

    shapes = []
    solve = cssnmf.linalg._gesv

    def counting_solve(M, v):
        shapes.append(M.shape)
        return solve(M, v)

    monkeypatch.setattr(cssnmf.linalg, "_gesv", counting_solve)
    again = nnls_multi(AtA, AtB, warm_passive=first > 0)
    assert np.array_equal(again, first)
    counts = np.bincount(sizes)
    assert sorted(shapes, key=lambda shape: shape[1]) == [
        (counts[s], s, s) for s in np.flatnonzero(counts) if s]


def test_nnls_multi_rejects_a_warm_set_whose_solution_overflows():
    # Finite input, but the warm set {1} solves to +inf: the warm set must
    # be rejected, as in the per-column reference, which then runs into the
    # cap; kept, the infinite iterate would be returned as the answer.
    AtA = np.array([[0.5, 1e-160], [1e-160, 1e-320]])
    AtB = np.array([[3e219], [3e219]])
    warm = np.array([[False], [True]])
    with np.errstate(over="ignore", invalid="ignore"):
        _, failed = _reference_columns(AtA, AtB, warm, None)
        with pytest.raises(ConvergenceError) as exc:
            nnls_multi(AtA, AtB, warm_passive=warm)
    assert list(failed) == [0] and exc.value.column == 0
    assert np.array_equal(exc.value.best, failed[0])


@pytest.mark.parametrize("warm", [None, [[False], [True]]])
def test_nnls_multi_raises_when_a_passive_solve_overflows(warm):
    # Finite input, but the passive set {1} solves to 3e219 / 1e-320 = inf;
    # the next dual check would meet 0 * inf = NaN and loop for good (so
    # does the per-column reference, so it is no oracle here).  Run in a
    # subprocess that a timeout can stop.
    code = (
        "import numpy as np\n"
        "from cssnmf.linalg import ConvergenceError, nnls_multi\n"
        "try:\n"
        "    nnls_multi([[0.5, 0.0], [0.0, 1e-320]], [[1e219], [3e219]],\n"
        f"               warm_passive={warm!r})\n"
        "except ConvergenceError as err:\n"
        "    print(err.column, err.best.tolist())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cssnmf.linalg.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "0 [0.0, 0.0]"
