import json
import math
import re
import warnings

import numpy as np
import pytest

from cssnmf.io import load_matrix_csv, load_vector_csv
from cssnmf.synthetic import SyntheticConfig, generate, save_dataset, split_arrays


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def test_noise_free_limit_is_exact():
    ds = generate(SyntheticConfig(n=12, m=7, r_true=3, M=4.0, eta_x=0.0, eta_y=0.0, seed=0))
    assert np.array_equal(ds.X, ds.W_true @ ds.H_true)
    expected_Y = ds.theta_true[0] + ds.W_true @ ds.theta_true[1:]
    assert np.array_equal(ds.Y, expected_Y)


def test_generation_is_deterministic():
    cfg = SyntheticConfig(n=20, m=10, r_true=2, seed=42)
    a, b = generate(cfg), generate(cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.W_true, b.W_true)
    c = generate(SyntheticConfig(n=20, m=10, r_true=2, seed=43))
    assert not np.array_equal(a.X, c.X)


def test_factor_ranges():
    cfg = SyntheticConfig(n=50, m=30, r_true=3, M=6.0, seed=1)
    ds = generate(cfg)
    assert np.all(ds.W_true >= 0) and np.all(ds.W_true < cfg.M)
    assert np.all(ds.H_true >= 0) and np.all(ds.H_true < cfg.M)
    assert np.all(ds.theta_true >= -cfg.M / 2) and np.all(ds.theta_true < cfg.M / 2)


def test_x_is_nonnegative_under_heavy_noise():
    for kind in ("gaussian", "uniform"):
        ds = generate(SyntheticConfig(n=40, m=20, r_true=2, M=1.0,
                                      eta_x=50.0, eta_y=50.0, noise_kind=kind, seed=2))
        assert np.all(ds.X >= 0)


def test_uniform_noise_is_one_sided():
    cfg = SyntheticConfig(n=30, m=15, r_true=2, M=3.0, eta_x=0.5, eta_y=0.5,
                          noise_kind="uniform", seed=3)
    ds = generate(cfg)
    clean_X = ds.W_true @ ds.H_true
    clean_Y = ds.theta_true[0] + ds.W_true @ ds.theta_true[1:]
    assert np.all(ds.X >= clean_X) and np.all(ds.X < clean_X + cfg.eta_x)
    assert np.all(ds.Y >= clean_Y) and np.all(ds.Y < clean_Y + cfg.eta_y)


def test_truncation_rate_matches_gaussian_oracle():
    # Small factor scale against large noise makes truncation common; the
    # zero count must sit within 3 sigma of the analytic estimate derived
    # from the planted factors.
    cfg = SyntheticConfig(n=100, m=100, r_true=2, M=2.0, eta_x=3.0, eta_y=0.0, seed=4)
    ds = generate(cfg)
    clean = ds.W_true @ ds.H_true
    p = np.array([[normal_cdf(-mu / cfg.eta_x) for mu in row] for row in clean])
    expected = p.sum()
    sigma = math.sqrt(np.sum(p * (1 - p)))
    observed = np.count_nonzero(ds.X == 0)
    assert abs(observed - expected) <= 3 * sigma, (observed, expected, sigma)


@pytest.mark.parametrize("name, value", [("n", 2.5), ("n", "3"), ("m", True), ("r_true", 1.5),
                                         ("seed", 1.5)])
def test_config_refuses_counts_and_seeds_that_are_not_integers(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        SyntheticConfig(**{name: value})
    # A numpy integer is taken, as an int that json can write.
    assert type(getattr(SyntheticConfig(**{name: np.int64(3)}), name)) is int


@pytest.mark.parametrize("name, value, message", [
    ("M", "2", "M must be a real number, got '2'"),
    ("eta_x", True, "eta_x must be a real number, got True"),
    ("M", float("inf"), "M must be finite, got inf"),
    ("M", float("nan"), "M must be finite, got nan"),
    ("eta_y", float("inf"), "eta_y must be finite, got inf"),
    ("eta_x", float("nan"), "eta_x must be finite, got nan"),
])
def test_config_refuses_settings_that_are_not_finite_real_numbers(name, value, message):
    # eta_x=True and eta_y=inf once built; M="2" raised TypeError.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SyntheticConfig(**{name: value})
    assert type(getattr(SyntheticConfig(**{name: np.float32(2)}), name)) is float


def test_generate_refuses_a_dataset_that_overflows():
    # M=1e200 once wrote inf cells, after numpy's overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the dataset overflows: with M=1e\+200, "):
            generate(SyntheticConfig(n=3, m=2, r_true=1, M=1e200))


@pytest.mark.parametrize("kwargs", [
    {"n": 0},
    {"m": 0},
    {"r_true": 0},
    {"M": 0.0},
    {"eta_x": -1.0},
    {"noise_kind": "exponential"},
    {"seed": -1},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SyntheticConfig(**kwargs)


def test_split_sizes_and_disjointness():
    ds = generate(SyntheticConfig(n=10, m=5, r_true=2, seed=5))
    (X_tr, Y_tr), (X_te, Y_te), _ = split_arrays(ds.X, ds.Y, 0.7, seed=0)
    assert X_tr.shape == (7, 5) and X_te.shape == (3, 5)
    assert Y_tr.shape == (7,) and Y_te.shape == (3,)
    stacked = np.vstack([X_tr, X_te])
    assert sorted(map(tuple, stacked)) == sorted(map(tuple, ds.X))


def test_split_is_deterministic():
    ds = generate(SyntheticConfig(n=30, m=6, r_true=2, seed=6))
    a = split_arrays(ds.X, ds.Y, 0.7, seed=9)
    b = split_arrays(ds.X, ds.Y, 0.7, seed=9)
    assert np.array_equal(a[0][0], b[0][0]) and np.array_equal(a[1][1], b[1][1])
    c = split_arrays(ds.X, ds.Y, 0.7, seed=10)
    assert not np.array_equal(a[0][0], c[0][0])


def test_split_covers_every_row_exactly_once():
    ds = generate(SyntheticConfig(n=100, m=4, r_true=2, seed=7))
    _, _, (train_idx, test_idx) = split_arrays(ds.X, ds.Y, 0.7, seed=3)
    combined = np.concatenate([train_idx, test_idx])
    assert np.array_equal(np.sort(combined), np.arange(100))
    assert len(train_idx) == 70


def test_split_rejects_degenerate_requests():
    ds = generate(SyntheticConfig(n=4, m=3, r_true=1, seed=8))
    with pytest.raises(ValueError):
        split_arrays(ds.X, ds.Y, 0.05, seed=0)  # rounds to zero training rows
    with pytest.raises(ValueError):
        split_arrays(ds.X, ds.Y, 0.99, seed=0)  # rounds to zero test rows
    with pytest.raises(ValueError):
        split_arrays(ds.X, ds.Y, 1.5, seed=0)


def test_save_dataset_round_trip(tmp_path):
    ds = generate(SyntheticConfig(n=9, m=4, r_true=2, eta_x=1.0, eta_y=1.0, seed=9))
    x_path, y_path, truth_path = save_dataset(ds, tmp_path / "out")
    X, header = load_matrix_csv(x_path)
    assert header is not None
    assert np.array_equal(X, ds.X)
    assert np.array_equal(load_vector_csv(y_path), ds.Y)
    truth = json.loads(truth_path.read_text())
    assert truth["config"]["seed"] == 9
    assert list(truth["config"]) == [
        "n", "m", "r_true", "M", "eta_x", "eta_y", "noise_kind", "seed"]
    assert np.array_equal(np.asarray(truth["W_true"]), ds.W_true)
    assert np.array_equal(np.asarray(truth["theta_true"]), ds.theta_true)
