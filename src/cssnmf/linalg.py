"""Dense linear algebra kernels shared by every update step.

All matrices are row-major ``float64`` numpy arrays.  The solvers here are
deliberately small and deterministic:

* :func:`nnls_multi` -- batched Lawson--Hanson active-set nonnegative least
  squares on precomputed cross products, one column per problem.  It is
  the only NNLS code path: the factor updates, prediction and :func:`nnls`
  all call it.  Each round sorts its columns by passive-set size and makes
  one stacked single-right-hand-side LAPACK ``gesv`` solve per size; if a
  size group holds a singular system, each member of that group is solved
  alone, by ``gesv`` and then ``gelsd``.
* :func:`nnls` -- the one-problem case of :func:`nnls_multi`.
* :func:`lstsq` -- SVD-backed least squares (LAPACK ``gelsd``) that
  degrades to the pseudo-inverse (minimum-norm solution) on rank-deficient
  systems.

The systems are small (a fit's passive sets hold a handful of indices), so
``np.linalg.solve`` and ``np.linalg.lstsq`` would spend most of each call in
their Python wrappers.  The kernels call the LAPACK gufuncs those wrappers
call, ``numpy.linalg._umath_linalg.solve1`` and ``lstsq``, on float64 and
under the errstate the wrappers set, so every result has the wrappers' bits
and a failure raises the same ``LinAlgError``.  The gufuncs are private numpy
API.  ``solve1`` is bound without a fallback: ``np.linalg.solve`` itself calls
it for a 1-d right-hand side, so a numpy without it could not solve at all.
``lstsq`` returns the singular values in a core dimension ``min(m, n)``
derived from its inputs, which needs a gufunc hook that numpy added in 2.1;
that is why the package requires ``numpy>=2.1``.
"""

import itertools

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = ["ConvergenceError", "nnls", "nnls_multi", "lstsq"]

# Singular values below SVD_CUTOFF * s_max are treated as zero.
SVD_CUTOFF = 1e-12
# Relative tolerance of the dual feasibility test in the active-set loop.
DUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Active-set iteration cap exceeded, or a passive-set solve overflowed.

    Carries the best iterate reached so far in ``best``; when raised from a
    matrix update, ``row`` or ``column`` identifies the failing subproblem.
    """

    def __init__(self, message, best=None, row=None, column=None):
        super().__init__(message)
        self.best = best
        self.row = row
        self.column = column


def _system(A, b):
    """``A`` and ``b`` of the system ``A x = b`` as C-ordered float arrays;
    raises ``ValueError`` unless ``A`` is a finite matrix with a row and a
    column and ``b`` a finite vector of one entry per row of ``A``."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"A must be a 2-d matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A contains non-finite entries")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] < 1:
        raise ValueError(f"b must be a 1-d vector, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("b contains non-finite entries")
    if A.shape[0] != b.shape[0]:
        raise ValueError(
            f"incompatible shapes: A is {A.shape[0]}x{A.shape[1]}, b has length {b.shape[0]}"
        )
    return np.ascontiguousarray(A), np.ascontiguousarray(b)


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


# The LAPACK bindings.  Each gufunc reports a LAPACK failure as an invalid
# floating-point operation, which the errstate turns into a call of the
# raising handler, as ``np.linalg`` does.
_solve1 = _umath_linalg.solve1
_lstsq = _umath_linalg.lstsq


@np.errstate(call=_raise_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _gesv(M, v):
    """``z`` with ``M[..., :, :] z[..., :] = v[..., :]``, by ``solve1`` (LAPACK ``dgesv``)."""
    return _solve1(M, v, signature="dd->d")


@np.errstate(call=_raise_lstsq, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _gelsd(A, b, rcond):
    """Minimum-norm least-squares ``x`` of ``A x = b``, by ``lstsq`` (LAPACK ``dgelsd``)."""
    return _lstsq(A, b[:, None], rcond, signature="ddd->ddid")[0][:, 0].copy()


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
    A, b = _system(A, b)
    return _gelsd(A, b, SVD_CUTOFF)


def _solve_one(M, v):
    """Unconstrained minimizer of one passive-set subsystem ``M z = v``."""
    try:
        return _gesv(M, v)
    except np.linalg.LinAlgError:
        # ``np.linalg.lstsq``'s default cutoff, ``rcond=None``.
        return _gelsd(M, v, np.finfo(float).eps * len(M))


def _solve_stack(M, v):
    """Solve each system ``M[i] z = v[i]`` of a stack, one right-hand side each.

    A singular member makes the stacked ``gesv`` raise for the whole stack;
    every member is then solved on its own by :func:`_solve_one`.  Either
    way each system is solved alone, so the fallback changes no bits.
    """
    try:
        return _gesv(M, v)
    except np.linalg.LinAlgError:
        return np.array([_solve_one(Mi, vi) for Mi, vi in zip(M, v)])


def _solve_passive(AtA, B, P, cols):
    """Solve the passive-set subsystems of columns ``cols``, grouped by size.

    ``P`` holds the passive sets of ``cols``, one row each.  The columns are
    sorted by passive-set size (stably, so each size keeps the given order)
    and each size is solved as one stack by :func:`_solve_stack`, so every
    column gets the same rounding as a solve of its own subsystem.

    Returns ``(c, idx, z)`` with one entry per passive index: its column,
    the index, and its solution value.  Each column's entries are
    contiguous and in increasing index order.
    """
    sizes = P.sum(axis=1)
    counts = np.bincount(sizes, minlength=1).tolist()
    # Columns of one size, as in a cold start's first round, need no sort.
    if counts[-1] != cols.size:
        order = np.argsort(sizes, kind="stable")
        cols, P = cols[order], P[order]
    rows, idx = P.nonzero()
    c = cols[rows]
    v = B[c, idx]
    z = np.empty_like(v)
    e = 0
    for s in range(1, len(counts)):
        n = counts[s] * s
        if n:
            idx_s = idx[e:e + n].reshape(-1, s)
            M = AtA[idx_s[:, :, None], idx_s[:, None, :]]
            z[e:e + n] = _solve_stack(M, v[e:e + n].reshape(-1, s)).ravel()
            e += n
    return c, idx, z


def _runs(c):
    """Starts and lengths of the runs of equal neighbours in ``c``."""
    starts = np.flatnonzero(np.diff(c, prepend=-1))
    return starts, np.diff(starts, append=c.size)


def nnls_multi(AtA, AtB, max_iter=None, warm_passive=None):
    """Lawson--Hanson on every column of ``AtB`` at once.

    Solves ``min_x ||A x - b_j||**2`` subject to ``x >= 0`` for each column
    ``AtB[:, j] = A'b_j``, given only the cross products ``AtA = A'A`` and
    ``AtB``.  Columns advance together, but each takes exactly the pivot
    sequence of a solve on its own: the most violated dual coordinate
    enters, infeasible steps stop at the first passive coordinate that hits
    zero, and a column is finished once its largest active dual entry is
    ``<= DUAL_TOL * (1 + max|A'b_j|)``.

    The passive-set subsystems are solved in batches of equal size (the
    combinatorial grouping of FC-NNLS, Van Benthem & Keenan, J. Chemometrics
    2004): each round sorts its columns by passive-set size and makes one
    stacked solve per size, with a single right-hand side per system.  The
    stacks go straight to LAPACK's ``gesv`` gufunc under numpy's own
    errstate, with the bits of ``np.linalg.solve`` and without its Python
    wrapper, which costs more than a small system's solve.  If a group
    holds an exactly singular system, the stacked solve raises and every
    member of the group is solved alone (``gesv``, then ``gelsd``).
    Columns that share a round advance through it together: each round's
    feasibility tests, steps and drops act on all of its passive entries at
    once, one run of entries per column.

    A warm-started call whose warm sets are all optimal -- the common case
    inside a fit -- is one stacked solve per warm-set size, one dual check
    over all columns, and no entering step.

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
        If any column exceeds the cap, or a passive-set solve of any column
        is not finite (finite input can still overflow there); ``column``
        names the lowest such column and ``best`` holds its iterate when it
        stopped.
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
    tol = DUAL_TOL * (1.0 + np.max(np.abs(B), axis=1, initial=0.0))
    # A NaN stalls the active-set loop for good; an inf runs it into the cap
    # or to a wrong answer.  ``tol`` is non-finite exactly when its column
    # of ``AtB`` holds a NaN or inf, so checking it and ``AtA`` costs
    # O(q**2 + k).
    if not (np.isfinite(AtA).all() and np.isfinite(tol).all()):
        raise ValueError("AtA and AtB must be finite")

    if warm_passive is None:
        passive = np.zeros((k, q), dtype=bool)
    else:
        passive = np.asarray(warm_passive, dtype=bool).T.copy()
        if passive.shape != (k, q):
            raise ValueError(f"warm_passive is {passive.T.shape}, expected {AtB.shape}")
        c, idx, z = _solve_passive(AtA, B, passive, np.arange(k))
        X[c, idx] = z
        ok = (z > 0.0) & (z < np.inf)
        if not ok.all():
            # A warm set is kept only if all of its solution is finite and
            # strictly positive; a rejected column starts from x = 0.
            rejected = c[~ok]
            X[rejected] = 0.0
            passive[rejected] = False

    # Every column still running has made the same number of outer steps,
    # so one round counter serves as each column's own iteration count.
    # The first dual check covers every column, so it reads the arrays whole.
    live, P, B_live, X_live, tol_live = np.arange(k), passive, B, X, tol
    for outer in itertools.count(1):
        # One matrix-vector product per column, as a solve on its own makes;
        # a matrix-matrix product would round differently.
        w = B_live - np.matmul(AtA, X_live[:, :, None])[:, :, 0]
        cand = np.where(P, -np.inf, w)
        # A column with every index passive has ``cand.max() == -inf``.
        running = ~(cand.max(axis=1) <= tol_live)
        if not running.any():
            break
        live, cand = live[running], cand[running]
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
            c, idx, z = _solve_passive(AtA, B, passive[inner], inner)
            finite = np.isfinite(z)
            if not finite.all():
                # An overflowed solve would meet ``0 * inf`` in the next
                # dual check and loop for good.
                j = int(c[~finite].min())
                raise ConvergenceError(
                    f"passive-set solve overflowed in column {j}", best=X[j].copy(), column=j,
                )
            # Entries outside the passive set are zero throughout, so a
            # feasible solution is written over the passive set alone.
            positive = z > 0.0
            # The common path: every solution is feasible.
            if positive.all():
                X[c, idx] = z
                break
            # A column's entries form one run of ``c``: reduce each run with
            # ``reduceat`` and repeat the result over its length.
            starts, lengths = _runs(c)
            feasible = np.repeat(np.logical_and.reduceat(positive, starts), lengths)
            X[c[feasible], idx[feasible]] = z[feasible]
            step = ~feasible
            c, idx, z = c[step], idx[step], z[step]
            starts, lengths = _runs(c)
            # Step toward z until the first passive coordinate hits zero.
            xp = X[c, idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(z <= 0.0, xp / (xp - z), np.inf)
            ratio = np.where(np.isnan(ratio), 0.0, ratio)
            alpha = np.repeat(np.minimum.reduceat(ratio, starts), lengths)
            drop = (ratio <= alpha) & (z <= 0.0)
            X[c, idx] = np.where(drop, 0.0, xp + alpha * (z - xp))
            passive[c, idx] = ~drop
            inner = c[starts][~np.logical_and.reduceat(drop, starts)]
        P, B_live, X_live, tol_live = passive[live], B[live], X[live], tol[live]
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
    A, b = _system(A, b)
    return nnls_multi(A.T @ A, (A.T @ b)[:, None], max_iter)[:, 0]
