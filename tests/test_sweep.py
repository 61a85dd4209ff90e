import csv

import numpy as np
import pytest

import cssnmf.sweep
from cssnmf.model import FitConfig, NumericFailure, fit, objective, predict_many
from cssnmf.synthetic import SyntheticConfig, generate, split_arrays
from cssnmf.sweep import (
    SweepCell,
    SweepSpec,
    figure_filter,
    lambda_grid,
    run_sweep,
    write_sweep_csv,
)


def test_synth_lambda_grid():
    grid = lambda_grid("synth")
    assert len(grid) == 18
    assert grid[0] == 0.0
    assert grid == sorted(grid)
    assert min(g for g in grid if g > 0) == pytest.approx(1e-4)
    assert max(grid) == pytest.approx(1e4)
    assert 1.0 in grid


def test_text_lambda_grid():
    grid = lambda_grid("text")
    assert len(grid) == 14
    assert grid[0] == 0.0
    assert max(grid) == pytest.approx(1.0)
    assert min(g for g in grid if g > 0) == pytest.approx(1e-8)


def test_unknown_grid_name():
    with pytest.raises(ValueError):
        lambda_grid("log")


def test_spec_sorts_and_validates():
    spec = SweepSpec(r_values=(4, 1), lambda_values=(1.0, 0.0, 0.5))
    assert spec.r_values == (1, 4)
    assert spec.lambda_values == (0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        SweepSpec(r_values=(), lambda_values=(0.0,))
    with pytest.raises(ValueError):
        SweepSpec(r_values=(1,), lambda_values=(0.5, 0.5))
    with pytest.raises(ValueError):
        SweepSpec(r_values=(1,), lambda_values=(-1.0,))
    with pytest.raises(ValueError):
        SweepSpec(r_values=(1,), lambda_values=(0.0,), train_frac=1.0)


def test_single_cell_matches_direct_fit():
    ds = generate(SyntheticConfig(n=30, m=10, r_true=2, M=5.0, eta_x=1.0, eta_y=1.0, seed=21))
    spec = SweepSpec(r_values=(2,), lambda_values=(0.5,), restarts=2,
                     split_seed=3, fit_seed=5, train_frac=0.7, tau=1e-5, max_iter=40)
    cells = run_sweep(ds.X, ds.Y, spec)
    assert len(cells) == 1
    cell = cells[0]
    (X_tr, Y_tr), (X_te, Y_te), _ = split_arrays(ds.X, ds.Y, 0.7, seed=3)
    fac, report = fit(X_tr, Y_tr, FitConfig(r=2, lam=0.5, tau=1e-5, max_iter=40,
                                            seed=5, restarts=2))
    assert cell.final_F == report.final_objective
    assert cell.best_restart == report.restart_index
    assert cell.iterations == report.iterations_run
    R_train = objective(fac, X_tr, Y_tr, 0.5)[2]
    assert cell.train_mse == R_train / X_tr.shape[0]
    errs = [predict_many(fac.H, fac.theta, x[None, :])[0][0] - y for x, y in zip(X_te, Y_te)]
    assert cell.test_mse == pytest.approx(float(np.mean(np.square(errs))), rel=1e-12)


def test_sweep_grid_covers_all_cells_in_order():
    ds = generate(SyntheticConfig(n=20, m=8, r_true=2, M=4.0, eta_x=1.0, eta_y=1.0, seed=22))
    spec = SweepSpec(r_values=(1, 2), lambda_values=(0.0, 1.0), restarts=1,
                     max_iter=10, tau=1e-4)
    cells = run_sweep(ds.X, ds.Y, spec)
    assert [(c.r, c.lam) for c in cells] == [(1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)]
    assert all(c.ok for c in cells)
    assert all(c.train_mse >= 0 and c.test_mse >= 0 for c in cells)


def test_failed_cell_is_flagged_but_sweep_continues(monkeypatch):
    real_fit = cssnmf.sweep.fit

    def flaky(X, Y, cfg):
        if cfg.lam == 1.0:
            raise NumericFailure("all restarts failed")
        return real_fit(X, Y, cfg)

    monkeypatch.setattr(cssnmf.sweep, "fit", flaky)
    ds = generate(SyntheticConfig(n=20, m=8, r_true=2, M=4.0, eta_x=1.0, eta_y=1.0, seed=24))
    spec = SweepSpec(r_values=(2,), lambda_values=(0.0, 1.0), restarts=1, max_iter=5)
    cells = run_sweep(ds.X, ds.Y, spec)
    ok = {c.lam: c.ok for c in cells}
    assert ok[0.0] and not ok[1.0]
    failed = next(c for c in cells if not c.ok)
    assert np.isnan(failed.train_mse) and failed.best_restart == -1
    assert "failed" in failed.status


def _cell(r, lam, train, test, status="ok"):
    return SweepCell(r=r, lam=lam, train_mse=train, test_mse=test, final_F=1.0,
                     best_restart=0, iterations=1, status=status)


def test_figure_filter_applies_display_rule():
    cells = [
        _cell(2, 0.0, 10.0, 20.0),
        _cell(2, 0.1, 14.9, 29.0),   # within 1.5x on both: kept
        _cell(2, 1.0, 15.1, 10.0),   # train exceeds 1.5x: dropped
        _cell(2, 10.0, 5.0, 30.1),   # test exceeds 1.5x: dropped
        _cell(2, 100.0, np.nan, np.nan, status="failed: boom"),  # dropped
    ]
    kept = figure_filter(cells)
    assert [(c.lam) for c in kept] == [0.0, 0.1]


def test_figure_filter_without_baseline_passes_group_through():
    cells = [_cell(3, 0.5, 100.0, 100.0), _cell(3, 5.0, 1.0, 1.0)]
    kept = figure_filter(cells)
    assert len(kept) == 2


def test_write_sweep_csv_is_deterministic(tmp_path):
    cells = [_cell(1, 0.0, 1.25, 2.5), _cell(1, 0.5, 1.0, 2.25)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(p1, cells)
    write_sweep_csv(p2, cells)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "r,lambda,train_mse,test_mse,final_F,best_restart,iterations,status"


def test_failed_cell_status_round_trips_through_a_csv_reader(tmp_path):
    status = 'failed: all 1 restarts failed (AtA is (4, 4), AtB is "x")'
    cells = [_cell(1, 0.0, 1.25, 2.5), _cell(1, 0.5, np.nan, np.nan, status=status)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, cells)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok", status]
    assert rows[1]["train_mse"] == "nan" and rows[1]["iterations"] == "1"
    assert path.read_text().splitlines()[1] == "1,0.0,1.25,2.5,1.0,0,1,ok"
