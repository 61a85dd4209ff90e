import numpy as np

from cssnmf.linalg import DUAL_TOL, ConvergenceError
from cssnmf.model import (
    Factorization,
    FitReport,
    NumericFailure,
    _check_shapes,
    normalize,
    update_h,
    update_theta,
    update_w,
)


# Reference oracle: the squared Frobenius norm that cssnmf.linalg exported
# until the fit loop formed its residuals in one buffer, kept verbatim.
# ``model._recon_error`` must match ``frob_sq(X - W @ H)`` bit for bit.

def frob_sq(a):
    """Sum of squared entries (squared Frobenius norm for matrices)."""
    a = np.asarray(a, dtype=float)
    return float(np.sum(a * a))


def brute_force_nnls(A, b):
    """Exhaustive reference NNLS: try every support set, solve the
    restricted least-squares problem, keep the feasible minimizer.

    Exponential in the column count; only for tiny oracle problems.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    q = A.shape[1]
    best_x = np.zeros(q)
    best_val = float(b @ b)
    for mask in range(1, 2 ** q):
        idx = [j for j in range(q) if (mask >> j) & 1]
        sol, *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
        if np.any(sol < -1e-9):
            continue
        x = np.zeros(q)
        x[idx] = np.maximum(sol, 0.0)
        r = b - A @ x
        val = float(r @ r)
        if val < best_val - 1e-12:
            best_val = val
            best_x = x
    return best_x


# Reference oracle: the one-column Lawson--Hanson solve that the batched
# kernel cssnmf.linalg.nnls_multi replaced, kept verbatim.  Every column of
# nnls_multi must take its pivot sequence and return its exact result.

def _solve_passive(AtA, Atb, passive):
    """Unconstrained minimizer restricted to the passive index set."""
    idx = np.flatnonzero(passive)
    M = AtA[np.ix_(idx, idx)]
    v = Atb[idx]
    try:
        z = np.linalg.solve(M, v)
    except np.linalg.LinAlgError:
        z, _, _, _ = np.linalg.lstsq(M, v, rcond=None)
    return idx, z


def _nnls_normal(AtA, Atb, max_iter, warm_passive=None):
    """Lawson--Hanson on precomputed cross products ``AtA = A'A``, ``Atb = A'b``.

    ``warm_passive`` optionally seeds the passive set from a previous solve;
    it is discarded if its restricted solution is not strictly feasible.
    """
    q = Atb.shape[0]
    x = np.zeros(q)
    passive = np.zeros(q, dtype=bool)
    tol = DUAL_TOL * (1.0 + float(np.max(np.abs(Atb), initial=0.0)))

    if warm_passive is not None and warm_passive.any():
        idx, z = _solve_passive(AtA, Atb, warm_passive)
        if np.all(np.isfinite(z)) and np.all(z > 0.0):
            x[idx] = z
            passive = warm_passive.copy()

    outer = 0
    while True:
        w = Atb - AtA @ x
        active = ~passive
        if not active.any() or np.max(w[active]) <= tol:
            return x
        outer += 1
        if outer > max_iter:
            raise ConvergenceError(
                f"active-set iteration cap {max_iter} exceeded", best=x
            )
        # Most violated dual coordinate enters the passive set.
        cand = np.where(active, w, -np.inf)
        passive[int(np.argmax(cand))] = True

        while True:
            idx, z = _solve_passive(AtA, Atb, passive)
            if np.all(z > 0.0):
                x.fill(0.0)
                x[idx] = z
                break
            # Step toward z until the first passive coordinate hits zero.
            xp = x[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(z <= 0.0, xp / (xp - z), np.inf)
            ratio = np.where(np.isnan(ratio), 0.0, ratio)
            alpha = float(np.min(ratio))
            x[idx] = xp + alpha * (z - xp)
            drop = (ratio <= alpha) & (z <= 0.0)
            x[idx[drop]] = 0.0
            passive[idx[drop]] = False
            x[~passive] = 0.0
            if not passive.any():
                break


# Reference oracles: the per-cell CSV matrix writer and reader that
# cssnmf.io.save_matrix_csv / load_matrix_csv replaced, kept verbatim
# (apart from names).  The writer must match their bytes and the reader
# their values, bit for bit.

def _format_float(v):
    return repr(float(v))


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(",".join(row))
            fh.write("\n")


def save_matrix_csv_reference(path, X, header=None):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {X.shape}")
    if header is None:
        header = [f"x{j}" for j in range(X.shape[1])]
    if len(header) != X.shape[1]:
        raise ValueError(f"header has {len(header)} names for {X.shape[1]} columns")
    rows = [list(header)]
    rows.extend([_format_float(v) for v in row] for row in X)
    _write_rows(path, rows)


def _is_numeric_row(cells):
    try:
        for c in cells:
            float(c)
    except ValueError:
        return False
    return True


def load_matrix_csv_reference(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    first = lines[0].split(",")
    header = None
    start = 0
    if not _is_numeric_row(first):
        header = first
        start = 1
    if start >= len(lines):
        raise ValueError(f"{path}: no data rows")
    data = []
    width = None
    for k, ln in enumerate(lines[start:], start=start + 1):
        cells = ln.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValueError(f"{path}: row {k} has {len(cells)} cells, expected {width}")
        try:
            data.append([float(c) for c in cells])
        except ValueError as err:
            raise ValueError(f"{path}: row {k} is not numeric: {err}") from None
    return np.asarray(data, dtype=float), header


# Reference oracles: the fit loop that evaluated the full objective after
# every block step, and the objective it called, kept verbatim (apart from
# names).  cssnmf.model._fit_once must return the same factors and trace,
# bit for bit.


def objective_reference(fac, X, Y, lam):
    """Evaluate ``(F, N, R)`` for a factorization.

    ``N`` is the reconstruction error ``||X - W H||_F^2``, ``R`` the
    regression error ``||[1|W] theta - Y||^2``, and ``F = N + lam * R``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_shapes(X, Y, fac.W, fac.H, fac.theta)
    N = frob_sq(X - fac.W @ fac.H)
    resid = fac.theta[0] + fac.W @ fac.theta[1:] - Y
    R = float(resid @ resid)
    return N + lam * R, N, R


def fit_once_reference(X, Y, cfg, seed, restart_index):
    """One run of the alternating loop from a fresh random initialization."""
    n, m = X.shape
    r = cfg.r
    lam = cfg.lam
    rng = np.random.default_rng(seed)
    bound = float(X.max()) if X.size else 1.0
    W = rng.uniform(0.0, bound, size=(n, r))
    H = rng.uniform(0.0, bound, size=(r, m))
    theta = rng.uniform(0.0, bound, size=r + 1)

    F, N, R = objective_reference(Factorization(W, H, theta), X, Y, lam)
    trace = [(0, F, N, R)]
    err = np.inf
    rel_err = np.inf
    it = 0
    while rel_err > cfg.tau and it < cfg.max_iter:
        # At extreme lam the regression-augmented solve can overflow to
        # inf/nan; such a trial objective compares False below and the step
        # is rejected, so the IEEE warnings carry no information here.
        with np.errstate(over="ignore", invalid="ignore"):
            W_new = update_w(X, Y, H, theta, lam, W)
            F_new, N_new, R_new = objective_reference(Factorization(W_new, H, theta), X, Y, lam)
        if F_new <= F:
            W, F, N, R = W_new, F_new, N_new, R_new

        H_new = update_h(X, W, H)
        F_new, N_new, R_new = objective_reference(Factorization(W, H_new, theta), X, Y, lam)
        if F_new <= F:
            H, F, N, R = H_new, F_new, N_new, R_new

        if lam > 0:
            theta_new = update_theta(W, Y)
            F_new, N_new, R_new = objective_reference(Factorization(W, H, theta_new), X, Y, lam)
            if F_new <= F:
                theta, F, N, R = theta_new, F_new, N_new, R_new

        fac = normalize(Factorization(W, H, theta))
        W, H, theta = fac.W, fac.H, fac.theta
        F_norm, N, R = objective_reference(fac, X, Y, lam)
        if abs(F_norm - F) > 1e-9 * (1.0 + abs(F)):
            raise NumericFailure(
                f"normalization changed the objective: {F!r} -> {F_norm!r}"
            )
        F = F_norm

        err_temp = F
        if err < np.inf:
            rel_err = 0.0 if err == 0.0 else abs(err - err_temp) / err
        err = err_temp
        it += 1
        trace.append((it, F, N, R))

    if lam == 0:
        # Regression is decoupled: fit theta once against the settled weights.
        # The last trace row then describes the returned model; F = N is
        # unchanged, only R moves off the random initial theta.
        theta = update_theta(W, Y)
        F, N, R = objective_reference(Factorization(W, H, theta), X, Y, lam)
        trace[-1] = (it, F, N, R)

    report = FitReport(
        objective_trace=trace,
        final_objective=trace[-1][1],
        iterations_run=it,
        converged=bool(rel_err <= cfg.tau),
        restart_index=restart_index,
    )
    return Factorization(W, H, theta), report


# Reference oracle: the one-document tf-idf row builder that
# cssnmf.text._tfidf_rows replaced, kept verbatim (apart from its name).
# Every row of build_tfidf and vectorize_many must equal its row, bit for bit.

def row_from_counts_reference(counts, vocab, idf):
    """One l1-normalized tf-idf row; returns (row, is_zero)."""
    x = np.zeros(len(vocab))
    for term, tf in counts.items():
        j = vocab.index.get(term)
        if j is not None:
            x[j] = tf * idf[j]
    s = x.sum()
    if s > 0:
        x /= s
        return x, False
    return x, True
