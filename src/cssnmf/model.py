"""Coupled topic factorization with a linear response model.

Data matrix ``X`` (documents x terms, nonnegative) is factored as
``X ~ W @ H`` with ``W, H >= 0`` while the topic weights simultaneously
drive a linear regression on a response vector ``Y``::

    F = ||X - W H||_F^2  +  lam * ||[1 | W] @ theta - Y||^2

``theta[0]`` is the intercept; ``theta[1:]`` weighs the topic encodings.
Minimization alternates exact nonnegative least-squares updates of the rows
of ``W``, the columns of ``H``, and the regression coefficients, with rows
of ``H`` rescaled to unit l1 norm after every iteration.  Each block of
nonnegative solves -- all rows of ``W``, all columns of ``H``, all documents
to encode -- is one call to the batched kernel
:func:`cssnmf.linalg.nnls_multi`.

Each block solve is warm-started from the support its previous solve ended
on.  For ``W`` that is ``W > 0``: normalization scales its columns by
positive factors and keeps the support.  For ``H`` it is the last accepted
``H`` before normalization, whose entries above ``EPS_H`` are its support;
rescaling would lift the entries floored at ``EPS_H`` above the floor.

A block step is kept only if it does not raise ``F``.  To decide, the fit
recomputes only the terms the block moves and reuses the stored other
term: the ``W`` step recomputes ``N`` and ``R``, the ``H`` step ``N`` alone
(``R`` depends on ``W`` and ``theta`` only), and the ``theta`` step ``R``
alone (``N`` depends on ``W`` and ``H`` only).  The stored term comes from
the same code on the same arrays, so it equals a recomputation bit for bit.
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .io import json_array, json_terms, read_json, write_json
from .linalg import ConvergenceError, lstsq, nnls_multi

__all__ = [
    "EPS_H",
    "Factorization",
    "FitConfig",
    "FitReport",
    "NumericFailure",
    "objective",
    "update_theta",
    "update_h",
    "update_w",
    "normalize",
    "fit",
    "predict_many",
    "save_model",
    "load_model",
    "Model",
]

# Floor applied to H entries after each update; keeps later row solves well posed.
EPS_H = 1e-10


class NumericFailure(RuntimeError):
    """Every restart failed to produce a finite objective."""


@dataclass
class Factorization:
    """Factor triple: ``W`` (n x r), ``H`` (r x m), ``theta`` (r + 1,)."""

    W: np.ndarray
    H: np.ndarray
    theta: np.ndarray


@dataclass(frozen=True)
class FitConfig:
    r: int
    lam: float = 0.0
    tau: float = 1e-4
    max_iter: int = 100
    seed: int = 0
    restarts: int = 10

    def __post_init__(self):
        if int(self.r) < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not np.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if int(self.max_iter) < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if int(self.restarts) < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


@dataclass
class FitReport:
    """Per-run record: trace rows are ``(iteration, F, N, R)``."""

    objective_trace: list
    final_objective: float
    iterations_run: int
    converged: bool
    restart_index: int
    warnings: list = field(default_factory=list)


def _check_shapes(X, Y, W, H, theta):
    n, m = X.shape
    r = W.shape[1]
    if W.shape[0] != n:
        raise ValueError(f"W has {W.shape[0]} rows, X has {n}")
    if H.shape != (r, m):
        raise ValueError(f"H is {H.shape[0]}x{H.shape[1]}, expected {r}x{m}")
    if theta.shape[0] != r + 1:
        raise ValueError(f"theta has length {theta.shape[0]}, expected {r + 1}")
    if Y.shape[0] != n:
        raise ValueError(f"Y has length {Y.shape[0]}, X has {n} rows")


def _recon_error(X, W, H):
    """``||X - W H||_F^2``, formed in the one n x m buffer of ``W @ H``.

    Bit-equal to ``float(np.sum(R * R))`` with ``R = X - W @ H``: the same
    elementwise operations and the same summation over an array of the same
    layout.
    """
    E = W @ H
    np.subtract(X, E, out=E)
    np.multiply(E, E, out=E)
    return float(np.sum(E))


def _regress_error(Y, W, theta):
    """``||[1|W] theta - Y||^2``."""
    resid = theta[0] + W @ theta[1:] - Y
    return float(resid @ resid)


def objective(fac, X, Y, lam):
    """Evaluate ``(F, N, R)`` for a factorization.

    ``N`` is the reconstruction error ``||X - W H||_F^2``, ``R`` the
    regression error ``||[1|W] theta - Y||^2``, and ``F = N + lam * R``.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_shapes(X, Y, fac.W, fac.H, fac.theta)
    N = _recon_error(X, fac.W, fac.H)
    R = _regress_error(Y, fac.W, fac.theta)
    return N + lam * R, N, R


def update_theta(W, Y):
    """Exact regression solve: minimizes ``||[1|W] theta - Y||^2`` over theta.

    Rank-deficient systems resolve via the pseudo-inverse, so the result is
    the minimum-norm minimizer.
    """
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float)
    Wbar = np.hstack([np.ones((W.shape[0], 1)), W])
    return lstsq(Wbar, Y)


def update_h(X, W, H):
    """Columnwise nonnegative solve of ``min ||X_:,j - W h||^2``.

    ``H`` only seeds the warm start: its entries above ``EPS_H`` form each
    column's initial passive set.  The fit passes its last accepted,
    unnormalized ``H``, whose floored entries are exactly ``EPS_H``.
    Entries of the result below ``EPS_H`` are raised to ``EPS_H``.
    """
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    r, m = H.shape
    if X.shape != (W.shape[0], m) or W.shape[1] != r:
        raise ValueError(
            f"shape mismatch: X {X.shape}, W {W.shape}, H {H.shape}"
        )
    try:
        H_new = nnls_multi(W.T @ W, W.T @ X, warm_passive=H > EPS_H)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"H update did not converge in column {err.column}",
            best=err.best, column=err.column,
        ) from err
    np.maximum(H_new, EPS_H, out=H_new)
    return H_new


def update_w(X, Y, H, theta, lam, W_old):
    """Rowwise nonnegative solve of the reconstruction + regression blend.

    Each row minimizes ``||X_i,: - w H||^2 + lam * (theta[0] + w.theta[1:] - Y_i)^2``
    over ``w >= 0``, via the augmented system ``[X | s(Y - theta[0])]`` against
    ``[H | s theta[1:]]`` with ``s = sqrt(lam)``.  With ``lam = 0`` this is the
    plain factorization row update.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    H = np.asarray(H, dtype=float)
    theta = np.asarray(theta, dtype=float)
    W_old = np.asarray(W_old, dtype=float)
    n, m = X.shape
    r = H.shape[0]
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if H.shape[1] != m or W_old.shape != (n, r) or theta.shape[0] != r + 1 or Y.shape[0] != n:
        raise ValueError(
            f"shape mismatch: X {X.shape}, Y ({Y.shape[0]},), H {H.shape}, "
            f"theta ({theta.shape[0]},), W_old {W_old.shape}"
        )
    if lam > 0:
        s = np.sqrt(lam)
        X_aug = np.hstack([X, (s * (Y - theta[0]))[:, None]])
        H_aug = np.hstack([H, (s * theta[1:])[:, None]])
    else:
        X_aug, H_aug = X, H
    try:
        W_new = nnls_multi(H_aug @ H_aug.T, H_aug @ X_aug.T, warm_passive=(W_old > 0).T)
    except ConvergenceError as err:
        raise ConvergenceError(
            f"W update did not converge in row {err.column}", best=err.best, row=err.column
        ) from err
    return np.ascontiguousarray(W_new.T)


def normalize(fac):
    """Rescale so every row of ``H`` sums to 1, leaving ``W H`` and the
    regression predictions (hence the objective) unchanged.

    ``W`` columns absorb the row sums; ``theta[1:]`` is divided by them.
    """
    s = fac.H.sum(axis=1)
    if np.any(s <= 0):
        raise RuntimeError(
            "internal invariant violation: H has a nonpositive row sum "
            f"(min {s.min()!r}); the entry floor should prevent this"
        )
    theta = fac.theta.copy()
    theta[1:] = theta[1:] / s
    return Factorization(W=fac.W * s[None, :], H=fac.H / s[:, None], theta=theta)


def _fit_once(X, Y, cfg, seed, restart_index):
    """One run of the alternating loop from a fresh random initialization."""
    n, m = X.shape
    r = cfg.r
    lam = cfg.lam
    rng = np.random.default_rng(seed)
    bound = float(X.max()) if X.size else 1.0
    W = rng.uniform(0.0, bound, size=(n, r))
    H = rng.uniform(0.0, bound, size=(r, m))
    theta = rng.uniform(0.0, bound, size=r + 1)
    # The last accepted H before normalization: its floored entries are
    # still exactly EPS_H, so update_h leaves them out of the warm start.
    H_warm = H

    F, N, R = objective(Factorization(W, H, theta), X, Y, lam)
    trace = [(0, F, N, R)]
    rel_err = np.inf
    while rel_err > cfg.tau and len(trace) <= cfg.max_iter:
        # At extreme lam the augmented system can overflow.  A non-finite
        # Gram or cross product makes nnls_multi raise ValueError, which
        # fails the restart; a finite W_new whose trial residual overflows
        # compares False below and is rejected.  Either way the IEEE
        # warnings carry no information here.
        with np.errstate(over="ignore", invalid="ignore"):
            W_new = update_w(X, Y, H, theta, lam, W)
            N_new, R_new = _recon_error(X, W_new, H), _regress_error(Y, W_new, theta)
            if (F_new := N_new + lam * R_new) <= F:
                W, F, N, R = W_new, F_new, N_new, R_new

        H_new = update_h(X, W, H_warm)
        N_new = _recon_error(X, W, H_new)
        if (F_new := N_new + lam * R) <= F:
            H = H_warm = H_new
            F, N = F_new, N_new

        if lam > 0:
            theta_new = update_theta(W, Y)
            R_new = _regress_error(Y, W, theta_new)
            if (F_new := N + lam * R_new) <= F:
                theta, F, R = theta_new, F_new, R_new

        fac = normalize(Factorization(W, H, theta))
        W, H, theta = fac.W, fac.H, fac.theta
        F_norm, N, R = objective(fac, X, Y, lam)
        if abs(F_norm - F) > 1e-9 * (1.0 + abs(F)):
            raise NumericFailure(
                f"normalization changed the objective: {F!r} -> {F_norm!r}"
            )
        F = F_norm

        # The stopping test starts at the second iteration, from a finite F.
        F_prev = trace[-1][1]
        if len(trace) > 1 and F_prev < np.inf:
            rel_err = 0.0 if F_prev == 0.0 else abs(F_prev - F) / F_prev
        trace.append((len(trace), F, N, R))

    if lam == 0:
        # Regression is decoupled: fit theta once against the settled weights.
        # The last trace row then describes the returned model; F = N is
        # unchanged, only R moves off the random initial theta.
        theta = update_theta(W, Y)
        F, N, R = objective(Factorization(W, H, theta), X, Y, lam)
        trace[-1] = (trace[-1][0], F, N, R)

    report = FitReport(
        objective_trace=trace,
        final_objective=trace[-1][1],
        iterations_run=len(trace) - 1,
        converged=bool(rel_err <= cfg.tau),
        restart_index=restart_index,
    )
    return Factorization(W, H, theta), report


def fit(X, Y, cfg):
    """Run ``cfg.restarts`` independent minimizations and keep the best.

    Restart ``k`` draws its initialization from seed ``cfg.seed + k``; the
    run with the lowest final objective wins (ties to the lowest index).
    A restart fails when a block solve hits its iteration cap or its
    iterates overflow (the solve then meets a non-finite cross product and
    raises ``ValueError``); the other restarts still run.

    Returns
    -------
    (Factorization, FitReport)

    Raises
    ------
    ValueError
        On negative/non-finite data or shape disagreement.
    NumericFailure
        If every restart fails or ends with a non-finite objective.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be a matrix, got shape {X.shape}")
    if Y.ndim != 1 or Y.shape[0] != X.shape[0]:
        raise ValueError(
            f"Y must be a vector of length {X.shape[0]}, got shape {Y.shape}"
        )
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
        raise ValueError("X and Y must be finite")
    if np.any(X < 0):
        raise ValueError("X must be elementwise nonnegative")

    best = None
    failures = []
    for k in range(cfg.restarts):
        # X and Y were checked above, so a ValueError here means the
        # restart's iterates overflowed.
        try:
            fac, report = _fit_once(X, Y, cfg, seed=cfg.seed + k, restart_index=k)
        except (ConvergenceError, NumericFailure, ValueError, np.linalg.LinAlgError) as err:
            failures.append((k, err))
            continue
        if not np.isfinite(report.final_objective):
            failures.append((k, NumericFailure("non-finite objective")))
            continue
        if best is None or report.final_objective < best[1].final_objective:
            best = (fac, report)
    if best is None:
        detail = "; ".join(f"restart {k}: {e}" for k, e in failures[-3:])
        raise NumericFailure(f"all {cfg.restarts} restarts failed ({detail})")

    fac, report = best
    if cfg.r > min(X.shape):
        report.warnings.append(
            f"r={cfg.r} exceeds min(n, m)={min(X.shape)}; the factorization is overcomplete"
        )
    return fac, report


def predict_many(H, theta, X):
    """Predict the response for every document row of ``X``.

    Each document is encoded as the best nonnegative combination of topic
    rows -- one batched solve for all of them -- then passed through the
    linear model.

    Returns
    -------
    (y_hat, W) : (k,) predicted responses and the (k, r) topic encodings.
    """
    H = np.asarray(H, dtype=float)
    theta = np.asarray(theta, dtype=float)
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != H.shape[1]:
        raise ValueError(
            f"documents have shape {X.shape}, expected rows of length {H.shape[1]}"
        )
    # The kernel refuses a non-finite H too, but not a non-finite theta;
    # both checks name the model as the bad input.
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(theta))):
        raise ValueError("model H/theta contain non-finite entries")
    if not np.all(np.isfinite(X)):
        raise ValueError("documents contain non-finite entries")
    if np.any(X < 0):
        raise ValueError("documents must be nonnegative")
    # Per-document products (H x, w . theta), so a document's prediction
    # does not depend on the other documents in the call.
    HX = np.matmul(H, X[:, :, None])[:, :, 0]
    W = np.ascontiguousarray(nnls_multi(H @ H.T, HX.T).T)
    y_hat = theta[0] + np.matmul(W[:, None, :], theta[1:])[:, 0]
    return y_hat, W


MODEL_VERSION = 1


@dataclass
class Model:
    """Deserialized model document; ``W`` is never persisted (recomputable
    per document via :func:`predict_many`)."""

    r: int
    lam: float
    theta: np.ndarray
    H: np.ndarray
    config: dict
    objective_trace: list
    vocabulary: list = None
    idf: np.ndarray = None


def save_model(path, fac, cfg, report, vocabulary=None, idf=None, tfidf=None):
    """Write the model as a single JSON document.

    Persists ``H``, ``theta``, hyperparameters, and the objective trace;
    vocabulary, idf, and the vectorizer settings travel along when fitted
    on a text corpus so new documents can be vectorized for prediction.
    """
    doc = {
        "version": MODEL_VERSION,
        "r": cfg.r,
        "lambda": cfg.lam,
        "theta": [float(v) for v in fac.theta],
        "H": [[float(v) for v in row] for row in fac.H],
    }
    if vocabulary is not None:
        doc["vocabulary"] = list(vocabulary)
    if idf is not None:
        doc["idf"] = [float(v) for v in idf]
    # The file names the field ``lam`` "lambda", here and at the top level.
    doc["config"] = {"lambda" if k == "lam" else k: v for k, v in asdict(cfg).items()}
    if tfidf is not None:
        doc["config"]["tfidf"] = dict(tfidf)
    doc["objective_trace"] = [
        [int(i), float(f), float(nn), float(rr)] for i, f, nn, rr in report.objective_trace
    ]
    write_json(path, doc)


def load_model(path):
    """Read a model JSON document back into a :class:`Model`; a missing,
    mistyped, non-finite or mis-sized field raises ``ValueError`` naming
    ``path`` and the field."""
    doc = read_json(path, MODEL_VERSION)
    H = json_array(path, doc, "H", 2)
    theta = json_array(path, doc, "theta", 1)
    if theta.shape[0] != H.shape[0] + 1:
        raise ValueError(f"{path}: model document is inconsistent: H/theta shapes disagree")
    if doc.get("r") != H.shape[0]:
        raise ValueError(
            f"{path}: field 'r' must equal H's {H.shape[0]} rows, got {doc.get('r')!r}"
        )
    try:
        lam = float(doc["lambda"])
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{path}: field 'lambda' must be a number") from None
    vocabulary = None if doc.get("vocabulary") is None else json_terms(path, doc, "vocabulary")
    idf = None if doc.get("idf") is None else json_array(path, doc, "idf", 1)
    for key, value in (("vocabulary", vocabulary), ("idf", idf)):
        if value is not None and len(value) != H.shape[1]:
            raise ValueError(
                f"{path}: model document is inconsistent: {len(value)} {key} entries "
                f"for {H.shape[1]} columns of H"
            )
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"{path}: field 'config' must be an object")
    return Model(
        r=H.shape[0],
        lam=lam,
        theta=theta,
        H=H,
        config=config,
        objective_trace=doc.get("objective_trace", []),
        vocabulary=vocabulary,
        idf=idf,
    )
