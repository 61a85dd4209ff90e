import numpy as np

from cssnmf.linalg import DUAL_TOL, ConvergenceError


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
