"""Dense linear algebra kernels shared by every update step.

All matrices are row-major ``float64`` numpy arrays.  The solvers here are
deliberately small and deterministic:

* :func:`nnls_multi` -- batched Lawson--Hanson active-set nonnegative least
  squares on precomputed cross products, one column per problem.  It is
  the only NNLS code path: the factor updates, prediction and :func:`nnls`
  all call it.
* :func:`nnls` -- the one-problem case of :func:`nnls_multi`.
* :func:`lstsq` -- SVD-backed least squares that degrades to the
  pseudo-inverse (minimum-norm solution) on rank-deficient systems.
"""

import itertools

import numpy as np

__all__ = ["ConvergenceError", "nnls", "nnls_multi", "lstsq", "frob_sq"]

# Singular values below SVD_CUTOFF * s_max are treated as zero.
SVD_CUTOFF = 1e-12
# Relative tolerance of the dual feasibility test in the active-set loop.
DUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Active-set iteration cap exceeded.

    Carries the best iterate reached so far in ``best``; when raised from a
    matrix update, ``row`` or ``column`` identifies the failing subproblem.
    """

    def __init__(self, message, best=None, row=None, column=None):
        super().__init__(message)
        self.best = best
        self.row = row
        self.column = column


def _as_matrix(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(a)


def _as_vector(b, name):
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] < 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(b)


def frob_sq(a):
    """Sum of squared entries (squared Frobenius norm for matrices)."""
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def lstsq(A, b):
    """Minimum-norm least-squares solution of ``A x = b``.

    Singular values below ``SVD_CUTOFF`` times the largest are treated as
    zero, so rank-deficient systems resolve to the pseudo-inverse solution.

    Parameters
    ----------
    A : (p, q) array_like
    b : (p,) array_like

    Returns
    -------
    x : (q,) ndarray
    """
    A = _as_matrix(A, "A")
    b = _as_vector(b, "b")
    if A.shape[0] != b.shape[0]:
        raise ValueError(
            f"incompatible shapes: A is {A.shape[0]}x{A.shape[1]}, b has length {b.shape[0]}"
        )
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=SVD_CUTOFF)
    return x


def _solve_one(M, v):
    """Unconstrained minimizer of one passive-set subsystem ``M z = v``."""
    try:
        return np.linalg.solve(M, v)
    except np.linalg.LinAlgError:
        z, _, _, _ = np.linalg.lstsq(M, v, rcond=None)
        return z


def _solve_passive(AtA, B, passive, cols):
    """Solve the passive-set subsystems of columns ``cols``, grouped by size.

    Yields ``(cols_s, idx, Z)`` per passive-set size ``s``: the columns of the
    group, their passive indices (cnt, s) in increasing order, and the
    solutions (cnt, s).  Each group is one stacked ``solve`` with a single
    right-hand side per system, so every column gets the same rounding as a
    solve of its own subsystem; a group holding a singular system falls back
    to solving its members one by one.
    """
    sizes = passive[cols].sum(axis=1)
    counts = np.bincount(sizes)
    for s in counts.nonzero()[0]:
        group = cols if counts[s] == cols.size else cols[sizes == s]
        idx = passive[group].nonzero()[1].reshape(group.size, s)
        M = AtA[idx[:, :, None], idx[:, None, :]]
        v = B[group[:, None], idx]
        try:
            Z = np.linalg.solve(M, v[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            Z = np.array([_solve_one(Mi, vi) for Mi, vi in zip(M, v)])
        yield group, idx, Z


def nnls_multi(AtA, AtB, max_iter=None, warm_passive=None):
    """Lawson--Hanson on every column of ``AtB`` at once.

    Solves ``min_x ||A x - b_j||**2`` subject to ``x >= 0`` for each column
    ``AtB[:, j] = A'b_j``, given only the cross products ``AtA = A'A`` and
    ``AtB``.  Columns advance together, but each takes exactly the pivot
    sequence of a solve on its own: the most violated dual coordinate
    enters, infeasible steps stop at the first passive coordinate that hits
    zero, and a column is finished once its largest active dual entry is
    ``<= DUAL_TOL * (1 + max|A'b_j|)``.  The passive-set subsystems are
    solved in batches of equal size (the combinatorial grouping of FC-NNLS,
    Van Benthem & Keenan, J. Chemometrics 2004).

    Parameters
    ----------
    AtA : (q, q) ndarray
    AtB : (q, k) ndarray
    max_iter : int, optional
        Cap on each column's outer (entering) iterations.  Default ``3 * q``.
    warm_passive : (q, k) bool ndarray, optional
        Passive sets from a previous solve.  A column's warm set is kept only
        if its restricted solution is finite and strictly positive.

    Returns
    -------
    X : (q, k) ndarray, elementwise nonnegative

    Raises
    ------
    ValueError
        On non-finite input or incompatible shapes.
    ConvergenceError
        If any column exceeds the cap; ``column`` names the lowest such
        column and ``best`` holds its iterate when it stopped.
    """
    AtA = np.asarray(AtA, dtype=float)
    AtB = np.asarray(AtB, dtype=float)
    q = AtA.shape[0]
    if AtA.shape != (q, q) or AtB.ndim != 2 or AtB.shape[0] != q:
        raise ValueError(f"incompatible shapes: AtA is {AtA.shape}, AtB is {AtB.shape}")
    if max_iter is None:
        max_iter = 3 * q
    k = AtB.shape[1]
    # Column j's problem lives in row j: B[j] = A'b_j, X[j] = x_j.
    B = np.ascontiguousarray(AtB.T)
    X = np.zeros((k, q))
    passive = np.zeros((k, q), dtype=bool)
    tol = DUAL_TOL * (1.0 + np.max(np.abs(B), axis=1, initial=0.0))
    # A NaN stalls the active-set loop for good; an inf runs it into the cap
    # or to a wrong answer.  ``tol`` is non-finite exactly when its column
    # of ``AtB`` holds a NaN or inf, so checking it and ``AtA`` costs
    # O(q**2 + k).
    if not (np.isfinite(AtA).all() and np.isfinite(tol).all()):
        raise ValueError("AtA and AtB must be finite")

    if warm_passive is not None:
        warm = np.ascontiguousarray(np.asarray(warm_passive, dtype=bool).T)
        if warm.shape != (k, q):
            raise ValueError(f"warm_passive is {warm.T.shape}, expected {AtB.shape}")
        for cols, idx, Z in _solve_passive(AtA, B, warm, np.flatnonzero(warm.any(axis=1))):
            ok = np.isfinite(Z).all(axis=1) & (Z > 0.0).all(axis=1)
            X[cols[ok, None], idx[ok]] = Z[ok]
            passive[cols[ok]] = warm[cols[ok]]

    # Every column still running has made the same number of outer steps,
    # so one round counter serves as each column's own iteration count.
    live = np.arange(k)
    for outer in itertools.count(1):
        # One matrix-vector product per column, as a solve on its own makes;
        # a matrix-matrix product would round differently.
        w = B[live] - np.matmul(AtA, X[live][:, :, None])[:, :, 0]
        P = passive[live]
        cand = np.where(P, -np.inf, w)
        running = ~((cand.max(axis=1) <= tol[live]) | P.all(axis=1))
        live, cand = live[running], cand[running]
        if not live.size:
            break
        if outer > max_iter:
            j = int(live[0])
            raise ConvergenceError(
                f"active-set iteration cap {max_iter} exceeded in column {j}",
                best=X[j].copy(), column=j,
            )
        # Most violated dual coordinate enters the passive set.
        passive[live, cand.argmax(axis=1)] = True

        inner = live
        while inner.size:
            stepped = []
            for cols, idx, Z in _solve_passive(AtA, B, passive, inner):
                # Entries outside the passive set are zero throughout, so a
                # feasible solution is written over the passive set alone.
                feasible = (Z > 0.0).all(axis=1)
                X[cols[feasible, None], idx[feasible]] = Z[feasible]
                if feasible.all():
                    continue
                cols, idx, Z = cols[~feasible], idx[~feasible], Z[~feasible]
                # Step toward z until the first passive coordinate hits zero.
                xp = X[cols[:, None], idx]
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(Z <= 0.0, xp / (xp - Z), np.inf)
                ratio = np.where(np.isnan(ratio), 0.0, ratio)
                alpha = ratio.min(axis=1, keepdims=True)
                drop = (ratio <= alpha) & (Z <= 0.0)
                X[cols[:, None], idx] = np.where(drop, 0.0, xp + alpha * (Z - xp))
                passive[cols[:, None], idx] = ~drop
                stepped.append(cols[~drop.all(axis=1)])
            inner = np.concatenate(stepped) if stepped else live[:0]
    return np.ascontiguousarray(X.T)


def nnls(A, b, max_iter=None):
    """Solve ``min_x ||A x - b||**2`` subject to ``x >= 0``.

    Lawson--Hanson active-set iteration on the normal equations: the
    one-column case of :func:`nnls_multi`.  The returned solution satisfies
    the KKT conditions to within ``DUAL_TOL`` relative to the scale of
    ``A'b``.

    Parameters
    ----------
    A : (p, q) array_like
    b : (p,) array_like
    max_iter : int, optional
        Cap on active-set changes.  Default ``3 * q``.

    Returns
    -------
    x : (q,) ndarray, elementwise nonnegative

    Raises
    ------
    ValueError
        On non-finite input or incompatible shapes.
    ConvergenceError
        If the iteration cap is exceeded; the best iterate is attached.
    """
    A = _as_matrix(A, "A")
    b = _as_vector(b, "b")
    if A.shape[0] != b.shape[0]:
        raise ValueError(
            f"incompatible shapes: A is {A.shape[0]}x{A.shape[1]}, b has length {b.shape[0]}"
        )
    return nnls_multi(A.T @ A, (A.T @ b)[:, None], max_iter)[:, 0]
