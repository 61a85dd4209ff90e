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

Each restart is one :class:`_Restart` state: the iterate, ``H_warm``, the
terms ``F``, ``N`` and ``R``, the trace and the stopping test's relative
change.  Its :meth:`~_Restart.step` calls the public :func:`update_w`,
:func:`update_h`, :func:`update_theta` and :func:`normalize`, whose input
checks cost O(1) next to the solves (``np.asarray`` of a float array is the
array itself).  The updates build the augmented arrays
``[X | s(Y - theta[0])]``, ``[H | s theta[1:]]`` and ``[1 | W]`` as fresh
``np.hstack`` results, dropped on return: the ``hstack`` gives ``X_aug``
``X``'s memory order, which the cross product's rounding depends on, and a
kept copy of it would double the fit's memory on wide text ``X``.

:func:`save_model` and :func:`load_model` carry a text model's vectorizer
``(terms, idf, TfidfConfig)`` as one value, read by ``text._vectorizer``.
"""

import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .io import _integer, _real, json_array, read_json, write_json
from .linalg import ConvergenceError, lstsq, nnls_multi
from .text import _vectorizer

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
        for name, least in (("r", 1), ("max_iter", 1), ("seed", 0), ("restarts", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        for name in ("lam", "tau"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.lam < 0:
            # Worded as update_w words it: the two state one rule for lam.
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


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


def _check_data(X, Y=None, names=("X", "Y")):
    """Refuse data the method cannot take, naming it by ``names``: ``Y`` of
    another length than ``X``, and the first entry of ``X`` that is not
    finite and nonnegative, or of ``Y`` that is not finite, by its 1-based
    data row.  An ``X`` without rows passes."""
    x_name, y_name = names
    if Y is not None and len(Y) != len(X):
        raise ValueError(f"{y_name} has {len(Y)} values for the {len(X)} data rows of {x_name}")
    # min and max carry a NaN through, so only a bad X pays for the scan.
    if not (X.min(initial=0.0) >= 0 and X.max(initial=0.0) < np.inf):
        i, j = np.argwhere(~((X >= 0) & (X < np.inf)))[0]
        raise ValueError(f"{x_name}: data row {i + 1}, column {j + 1} is {float(X[i, j])}; "
                         "X must be finite and nonnegative")
    if Y is not None and not np.isfinite(Y).all():
        k = np.flatnonzero(~np.isfinite(Y))[0]
        raise ValueError(f"{y_name}: data row {k + 1} is {float(Y[k])}; Y must be finite")


def _recon_error(X, W, H):
    """``||X - W H||_F^2``, formed in the one n x m buffer of ``W @ H``.

    Bit-equal to ``float(np.sum(R * R))`` with ``R = X - W @ H``: the same
    elementwise operations and the same summation over an array of the same
    layout (``np.sum`` of an ndarray is ``np.add.reduce``, called here
    without its wrapper).
    """
    E = W @ H
    np.subtract(X, E, out=E)
    np.multiply(E, E, out=E)
    return float(np.add.reduce(E, axis=None))


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
    the minimum-norm minimizer.  The solve refuses a non-finite ``[1 | W]``.
    """
    W = np.asarray(W, dtype=float)
    Y = np.asarray(Y, dtype=float)
    return lstsq(np.hstack([np.ones((W.shape[0], 1)), W]), Y)


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
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
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
    s = np.add.reduce(fac.H, axis=1)
    if (s <= 0).any():
        raise RuntimeError(
            "internal invariant violation: H has a nonpositive row sum "
            f"(min {s.min()!r}); the entry floor should prevent this"
        )
    theta = fac.theta.copy()
    theta[1:] = theta[1:] / s
    return Factorization(fac.W * s[None, :], fac.H / s[:, None], theta)


class _Restart:
    """One restart of the alternating loop, from a fresh random initialization.

    Holds the iterate ``W``, ``H``, ``theta``; ``H_warm``, the last accepted
    ``H`` before normalization, whose floored entries are still exactly
    ``EPS_H`` so the ``H`` step leaves them out of its warm start; the
    objective terms ``F``, ``N``, ``R`` of the iterate; the trace rows
    ``(iteration, F, N, R)``; and ``rel_err``, the stopping test's last
    relative change.
    """

    def __init__(self, X, Y, cfg, seed):
        n, m = X.shape
        r = cfg.r
        rng = np.random.default_rng(seed)
        bound = float(X.max())
        self.X, self.Y, self.lam = X, Y, cfg.lam
        self.W = rng.uniform(0.0, bound, size=(n, r))
        self.H = self.H_warm = rng.uniform(0.0, bound, size=(r, m))
        self.theta = rng.uniform(0.0, bound, size=r + 1)
        self.N = _recon_error(X, self.W, self.H)
        self.R = _regress_error(Y, self.W, self.theta)
        self.F = self.N + self.lam * self.R
        self.trace = [(0, self.F, self.N, self.R)]
        self.rel_err = np.inf

    def step(self):
        """One iteration: the ``W``, ``H`` and ``theta`` steps, each kept only
        if it does not raise ``F``, then the normalization and a trace row."""
        X, Y, lam = self.X, self.Y, self.lam
        W, H, theta, F, N, R = self.W, self.H, self.theta, self.F, self.N, self.R
        W_new = update_w(X, Y, H, theta, lam, W)
        N_new, R_new = _recon_error(X, W_new, H), _regress_error(Y, W_new, theta)
        if (F_new := N_new + lam * R_new) <= F:
            W, F, N, R = W_new, F_new, N_new, R_new

        H_new = update_h(X, W, self.H_warm)
        N_new = _recon_error(X, W, H_new)
        if (F_new := N_new + lam * R) <= F:
            H = self.H_warm = H_new
            F, N = F_new, N_new

        if lam > 0:
            theta_new = update_theta(W, Y)
            R_new = _regress_error(Y, W, theta_new)
            if (F_new := N + lam * R_new) <= F:
                theta, F, R = theta_new, F_new, R_new

        fac = normalize(Factorization(W, H, theta))
        W, H, theta = fac.W, fac.H, fac.theta
        N, R = _recon_error(X, W, H), _regress_error(Y, W, theta)
        F_norm = N + lam * R
        if abs(F_norm - F) > 1e-9 * (1.0 + abs(F)):
            raise NumericFailure(
                f"normalization changed the objective: {F!r} -> {F_norm!r}"
            )

        # The stopping test starts at the second iteration, from a finite F.
        F_prev = self.trace[-1][1]
        if len(self.trace) > 1 and F_prev < np.inf:
            self.rel_err = 0.0 if F_prev == 0.0 else abs(F_prev - F_norm) / F_prev
        self.trace.append((len(self.trace), F_norm, N, R))
        self.W, self.H, self.theta, self.F, self.N, self.R = W, H, theta, F_norm, N, R

    def fit_theta(self):
        """Fit ``theta`` once against the settled weights, for ``lam = 0``,
        where the regression is decoupled.  The last trace row then
        describes the returned model: ``W``, ``H`` and so ``F = N`` are the
        last step's, only ``R`` moves off the random initial ``theta``."""
        self.theta = update_theta(self.W, self.Y)
        self.R = _regress_error(self.Y, self.W, self.theta)
        self.F = self.N + self.lam * self.R
        self.trace[-1] = (self.trace[-1][0], self.F, self.N, self.R)


def _fit_once(X, Y, cfg, seed, restart_index):
    """One run of the alternating loop from a fresh random initialization.

    At extreme ``lam``, or with data near the float range, the products and
    residuals can overflow.  A non-finite Gram or cross product makes
    nnls_multi raise ValueError, which fails the restart; a step whose
    trial objective overflows compares False against a finite ``F`` and is
    rejected; a non-finite final objective fails the restart in
    :func:`fit`.  Either way the IEEE warnings carry no information, so the
    loop runs without them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        state = _Restart(X, Y, cfg, seed)
        while state.rel_err > cfg.tau and len(state.trace) <= cfg.max_iter:
            state.step()
        if cfg.lam == 0:
            state.fit_theta()
    report = FitReport(
        objective_trace=state.trace,
        final_objective=state.trace[-1][1],
        iterations_run=len(state.trace) - 1,
        converged=bool(state.rel_err <= cfg.tau),
        restart_index=restart_index,
    )
    return Factorization(state.W, state.H, state.theta), report


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
        On negative/non-finite data, named by its data row, an ``X``
        without rows or columns, or shape disagreement.
    NumericFailure
        If every restart fails or ends with a non-finite objective.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or 0 in X.shape:
        raise ValueError(f"X must be a matrix with a row and a column, got shape {X.shape}")
    if Y.ndim != 1:
        raise ValueError(
            f"Y must be a vector of length {X.shape[0]}, got shape {Y.shape}"
        )
    _check_data(X, Y)

    best = None
    failures = []
    for k in range(cfg.restarts):
        # The config (seed included) and X and Y are checked, so a
        # ValueError here means the restart's iterates overflowed.
        try:
            fac, report = _fit_once(X, Y, cfg, seed=cfg.seed + k, restart_index=k)
        except (ConvergenceError, NumericFailure, ValueError) as err:
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
    _check_data(X, names=("documents", None))
    # Per-document products (H x, w . theta), so a document's prediction
    # does not depend on the other documents in the call.
    HX = np.matmul(H, X[:, :, None])[:, :, 0]
    W = np.ascontiguousarray(nnls_multi(H @ H.T, HX.T).T)
    y_hat = theta[0] + np.matmul(W[:, None, :], theta[1:])[:, 0]
    return y_hat, W


MODEL_VERSION = 1


@dataclass
class Model:
    """Deserialized model document: ``H``, ``theta`` and the ``vectorizer``
    ``(terms, idf, TfidfConfig)`` of a model fitted on text, else None; ``W``
    is never persisted (recomputable per document via :func:`predict_many`)."""

    H: np.ndarray
    theta: np.ndarray
    vectorizer: tuple = None


def save_model(path, fac, cfg, report, vectorizer=None):
    """Write the model as a single JSON document.

    Persists ``H``, ``theta``, hyperparameters, and the objective trace; a
    model fitted on text passes its ``vectorizer`` ``(terms, idf,
    TfidfConfig)`` along, so new documents can be vectorized for prediction.
    A model that :func:`load_model` would refuse raises ``ValueError``, with
    its message, before the file is opened.
    """
    doc = {
        "version": MODEL_VERSION,
        "r": cfg.r,
        "lambda": cfg.lam,
        "theta": [float(v) for v in fac.theta],
        "H": [[float(v) for v in row] for row in fac.H],
    }
    # The file names the field ``lam`` "lambda", here and at the top level.
    config = {"lambda" if k == "lam" else k: v for k, v in asdict(cfg).items()}
    if vectorizer is not None:
        terms, idf, tfidf = vectorizer
        doc["vocabulary"] = list(terms)
        doc["idf"] = [float(v) for v in idf]
        config["tfidf"] = asdict(tfidf)
    doc["config"] = config
    doc["objective_trace"] = [
        [int(i), float(f), float(nn), float(rr)] for i, f, nn, rr in report.objective_trace
    ]
    _read_model(path, doc)
    write_json(path, doc)


def load_model(path):
    """Read a model JSON document back into a :class:`Model`; a missing,
    mistyped, non-finite or mis-sized field, or an idf below 1, raises
    ``ValueError`` naming ``path`` and the field.  A document with a
    ``vocabulary`` or an ``idf`` must hold both and ``config.tfidf``."""
    return _read_model(path, read_json(path, MODEL_VERSION))


def _read_model(path, doc):
    """The :class:`Model` of the document ``doc`` read from or bound for
    ``path``; :func:`load_model` says what it refuses."""
    H = json_array(path, doc, "H", 2)
    if np.any(H < 0):
        raise ValueError(f"{path}: field 'H' has negative entries")
    theta = json_array(path, doc, "theta", 1)
    if theta.shape[0] != H.shape[0] + 1:
        raise ValueError(f"{path}: model document is inconsistent: H/theta shapes disagree")
    # type, not isinstance: a boolean is an int to Python but not to JSON.
    if type(doc.get("r")) is not int or doc["r"] != H.shape[0]:
        raise ValueError(
            f"{path}: field 'r' must equal H's {H.shape[0]} rows, got {doc.get('r')!r}"
        )
    lam = doc.get("lambda")
    if type(lam) not in (int, float) or not abs(lam) <= sys.float_info.max:
        raise ValueError(f"{path}: field 'lambda' must be a number, finite as a float, "
                         f"got {lam!r}")
    config = doc.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"{path}: field 'config' must be an object")
    if doc.get("vocabulary") is None and doc.get("idf") is None:
        return Model(H, theta)
    vectorizer = _vectorizer(path, doc, config.get("tfidf"), "config.tfidf")
    for key, value in zip(("vocabulary", "idf"), vectorizer):
        if len(value) != H.shape[1]:
            raise ValueError(
                f"{path}: model document is inconsistent: {len(value)} {key} entries "
                f"for {H.shape[1]} columns of H"
            )
    return Model(H, theta, vectorizer)
