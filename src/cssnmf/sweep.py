"""Grid experiments over topic count and regression weight.

One train/test split is drawn per sweep (so every cell sees the same
rows), then each (r, lambda) cell runs a full multi-restart fit.  Rows
report mean squared regression error on both sides, computed on the test
side through the same encode-then-predict path used for unseen documents
(:func:`cssnmf.model.predict_many`, one batched solve per cell).
"""

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .io import _integer, _real, write_table
from .model import FitConfig, NumericFailure, _check_data, fit, predict_many
from .synthetic import split_arrays

__all__ = [
    "SweepSpec",
    "SweepCell",
    "lambda_grid",
    "run_sweep",
    "write_sweep_csv",
    "figure_filter",
    "SWEEP_COLUMNS",
]

LAMBDA_GRIDS = {
    # Half-decade ladder bracketing 1, plus the unregularized baseline.
    "synth": [0.0] + [10.0 ** (i / 2.0) for i in range(-8, 9)],
    # Finer low-end ladder topping out at 1, for l1-normalized text rows.
    "text": [0.0] + [10.0 ** (2.0 * i / 3.0) for i in range(-12, 1)],
}


def lambda_grid(name):
    """Named lambda ladder; see ``LAMBDA_GRIDS`` for the choices."""
    if name not in LAMBDA_GRIDS:
        raise ValueError(f"unknown lambda grid {name!r}; choices: {sorted(LAMBDA_GRIDS)}")
    return list(LAMBDA_GRIDS[name])


@dataclass(frozen=True)
class SweepSpec:
    """An (r, lambda) grid on one train/test split.  It builds the
    :class:`~cssnmf.model.FitConfig` of every cell, in (r, lambda) order, as
    ``configs``; it checks only its own lists, seeds and ``train_frac``."""

    r_values: tuple
    lambda_values: tuple
    restarts: int = FitConfig.restarts
    split_seed: int = 0
    fit_seed: int = FitConfig.seed
    train_frac: float = 0.7
    tau: float = FitConfig.tau
    max_iter: int = FitConfig.max_iter
    configs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("split_seed", "fit_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 0))
        r_values = tuple(sorted({_integer("r_values", r, 1) for r in self.r_values}))
        lambda_values = tuple(sorted(_real("lambda_values", v) for v in self.lambda_values))
        object.__setattr__(self, "train_frac", _real("train_frac", self.train_frac))
        if not r_values or not lambda_values:
            raise ValueError("r_values and lambda_values must be non-empty")
        if not 0 < self.train_frac < 1:
            raise ValueError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        configs = tuple(
            FitConfig(r=r, lam=lam, tau=self.tau, max_iter=self.max_iter,
                      seed=self.fit_seed, restarts=self.restarts)
            for r in r_values for lam in lambda_values
        )
        if len(set(lambda_values)) != len(lambda_values):
            raise ValueError(f"lambda values must be distinct, got {lambda_values}")
        object.__setattr__(self, "r_values", r_values)
        object.__setattr__(self, "lambda_values", lambda_values)
        object.__setattr__(self, "configs", configs)


@dataclass
class SweepCell:
    """One grid cell's metrics, from its winning restart (NaN if every
    restart failed); one ``sweep.csv`` row, a column per field in field
    order.  The file names the field ``lam`` ``lambda``."""

    r: int
    lam: float
    train_mse: float
    test_mse: float
    final_F: float
    best_restart: int
    iterations: int
    status: str

    @property
    def ok(self):
        return self.status == "ok"


def _run_cell(X_tr, Y_tr, X_te, Y_te, cfg):
    try:
        fac, report = fit(X_tr, Y_tr, cfg)
    except NumericFailure as err:
        return SweepCell(
            r=cfg.r, lam=cfg.lam, train_mse=np.nan, test_mse=np.nan, final_F=np.nan,
            best_restart=-1, iterations=0, status=f"failed: {err}",
        )
    y_hat, _ = predict_many(fac.H, fac.theta, X_te)
    # Test rows near the float range can square past it: the MSE is then inf.
    with np.errstate(over="ignore"):
        test_mse = float(np.mean(np.square(y_hat - Y_te)))
    return SweepCell(
        r=cfg.r,
        lam=cfg.lam,
        # The last trace row's R is the returned model's training error.
        train_mse=report.objective_trace[-1][3] / X_tr.shape[0],
        test_mse=test_mse,
        final_F=report.final_objective,
        best_restart=report.restart_index,
        iterations=report.iterations_run,
        status="ok",
    )


def run_sweep(X, Y, spec):
    """Fit every (r, lambda) cell; returns cells sorted by (r, lambda).

    A cell whose restarts all fail is reported with NaN metrics and a
    failure note instead of aborting the sweep.  Bad data raises
    ``ValueError`` naming its row in ``X`` or ``Y``, not in a split.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    _check_data(X, Y)
    (X_tr, Y_tr), (X_te, Y_te), _ = split_arrays(X, Y, spec.train_frac, spec.split_seed)
    return [_run_cell(X_tr, Y_tr, X_te, Y_te, cfg) for cfg in spec.configs]


SWEEP_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(SweepCell)]


def write_sweep_csv(path, cells):
    """Write one ``sweep.csv`` row per cell under ``SWEEP_COLUMNS``; a
    ``status`` holding a comma or a double quote is quoted."""
    write_table(path, SWEEP_COLUMNS, map(astuple, cells))


FIGURE_FACTOR = 1.5


def figure_filter(cells):
    """Plot-ready subset: within each r, drop lambda > 0 cells whose train or
    test error exceeds ``FIGURE_FACTOR`` times the lambda = 0 cell's.

    The unfiltered cells are the record of the run; this only trims outlier
    points that would dominate a figure's axes.  Groups without a healthy
    lambda = 0 baseline are passed through untouched.
    """
    keep = []
    by_r = {}
    for c in cells:
        by_r.setdefault(c.r, []).append(c)
    for r in sorted(by_r):
        group = by_r[r]
        base = next((c for c in group if c.lam == 0 and c.ok), None)
        for c in group:
            if not c.ok:
                continue
            if base is None or c.lam == 0:
                keep.append(c)
            elif (c.train_mse <= FIGURE_FACTOR * base.train_mse
                  and c.test_mse <= FIGURE_FACTOR * base.test_mse):
                keep.append(c)
    return keep
