"""Grid experiments over topic count and regression weight.

One train/test split is drawn per sweep (so every cell sees the same
rows), then each (r, lambda) cell runs a full multi-restart fit.  Rows
report mean squared regression error on both sides, computed on the test
side through the same encode-then-predict path used for unseen documents
(:func:`cssnmf.model.predict_many`, one batched solve per cell).
"""

from dataclasses import astuple, dataclass, fields

import numpy as np

from .io import format_float
from .model import FitConfig, NumericFailure, fit, predict_many
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
    try:
        return list(LAMBDA_GRIDS[name])
    except KeyError:
        raise ValueError(
            f"unknown lambda grid {name!r}; choices: {sorted(LAMBDA_GRIDS)}"
        ) from None


@dataclass(frozen=True)
class SweepSpec:
    r_values: tuple
    lambda_values: tuple
    restarts: int = 10
    split_seed: int = 0
    fit_seed: int = 0
    train_frac: float = 0.7
    tau: float = 1e-4
    max_iter: int = 100

    def __post_init__(self):
        r_values = tuple(int(r) for r in self.r_values)
        lambda_values = tuple(float(v) for v in self.lambda_values)
        if not r_values or not lambda_values:
            raise ValueError("r_values and lambda_values must be non-empty")
        if any(r < 1 for r in r_values):
            raise ValueError(f"r values must be >= 1, got {r_values}")
        if any(v < 0 or not np.isfinite(v) for v in lambda_values):
            raise ValueError(f"lambda values must be finite and >= 0, got {lambda_values}")
        if len(set(lambda_values)) != len(lambda_values):
            raise ValueError(f"lambda values must be distinct, got {lambda_values}")
        object.__setattr__(self, "r_values", tuple(sorted(set(r_values))))
        object.__setattr__(self, "lambda_values", tuple(sorted(lambda_values)))
        if not 0 < self.train_frac < 1:
            raise ValueError(f"train_frac must lie in (0, 1), got {self.train_frac}")


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


def _run_cell(X_tr, Y_tr, X_te, Y_te, r, lam, spec):
    cfg = FitConfig(
        r=r,
        lam=lam,
        tau=spec.tau,
        max_iter=spec.max_iter,
        seed=spec.fit_seed,
        restarts=spec.restarts,
    )
    try:
        fac, report = fit(X_tr, Y_tr, cfg)
    except NumericFailure as err:
        return SweepCell(
            r=r, lam=lam, train_mse=np.nan, test_mse=np.nan, final_F=np.nan,
            best_restart=-1, iterations=0, status=f"failed: {err}",
        )
    y_hat, _ = predict_many(fac.H, fac.theta, X_te)
    return SweepCell(
        r=r,
        lam=lam,
        # The last trace row's R is the returned model's training error.
        train_mse=report.objective_trace[-1][3] / X_tr.shape[0],
        test_mse=float(np.mean(np.square(y_hat - Y_te))),
        final_F=report.final_objective,
        best_restart=report.restart_index,
        iterations=report.iterations_run,
        status="ok",
    )


def run_sweep(X, Y, spec):
    """Fit every (r, lambda) cell; returns cells sorted by (r, lambda).

    A cell whose restarts all fail is reported with NaN metrics and a
    failure note instead of aborting the sweep.
    """
    (X_tr, Y_tr), (X_te, Y_te), _ = split_arrays(X, Y, spec.train_frac, spec.split_seed)
    # SweepSpec keeps both axes sorted, so the cells come out in (r, lambda) order.
    return [
        _run_cell(X_tr, Y_tr, X_te, Y_te, r, lam, spec)
        for r in spec.r_values
        for lam in spec.lambda_values
    ]


SWEEP_COLUMNS = ["lambda" if f.name == "lam" else f.name for f in fields(SweepCell)]


def _csv_cell(v):
    """Floats round-trip through ``format_float``; commas in text become ``;``."""
    if isinstance(v, str):
        return v.replace(",", ";")
    return format_float(v) if isinstance(v, float) else str(v)


def write_sweep_csv(path, cells):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for c in cells:
            fh.write(",".join(map(_csv_cell, astuple(c))) + "\n")


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
