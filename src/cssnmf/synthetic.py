"""Ground-truth-known random instances for validation and sweep studies.

Factors are drawn uniformly, the response comes from a planted linear
model on the topic weights, and measurement noise (gaussian or uniform)
is added to both the matrix and the response.  Negative matrix entries
produced by the noise are truncated to zero, so `X` is always a valid
nonnegative input.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .io import _integer, _real, save_matrix_csv, save_vector_csv, write_json

__all__ = [
    "SyntheticConfig",
    "SyntheticDataset",
    "generate",
    "split_arrays",
    "save_dataset",
]

NOISE_KINDS = ("gaussian", "uniform")


@dataclass(frozen=True)
class SyntheticConfig:
    n: int = 100
    m: int = 40
    r_true: int = 4
    M: float = 20.0
    eta_x: float = 4.0
    eta_y: float = 4.0
    noise_kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("m", 1), ("r_true", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        for name in ("M", "eta_x", "eta_y"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if self.M <= 0:
            raise ValueError(f"M must be > 0, got {self.M}")
        if min(self.eta_x, self.eta_y) < 0:
            raise ValueError(f"noise scales must be >= 0, got "
                             f"eta_x={self.eta_x}, eta_y={self.eta_y}")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(
                f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}"
            )


@dataclass
class SyntheticDataset:
    X: np.ndarray
    Y: np.ndarray
    W_true: np.ndarray
    H_true: np.ndarray
    theta_true: np.ndarray
    config: SyntheticConfig


def _noise(rng, kind, scale, size):
    if scale == 0:
        return np.zeros(size)
    if kind == "gaussian":
        return rng.normal(0.0, scale, size=size)
    # Uniform noise is one-sided by design: Unif([0, scale)).
    return rng.uniform(0.0, scale, size=size)


def generate(cfg):
    """Draw one dataset.

    ``W_true`` (n x r) and ``H_true`` (r x m) are Unif([0, M)) elementwise,
    ``theta_true`` (r+1,) is Unif([-M/2, M/2)); then
    ``X = W H + noise_x`` (negatives truncated to 0) and
    ``Y = theta[0] + W theta[1:] + noise_y``.  Scales near the float range
    can overflow these sums; a dataset whose ``X`` or ``Y`` is then not
    finite raises ``ValueError``.
    """
    rng = np.random.default_rng(cfg.seed)
    n, m, r = cfg.n, cfg.m, cfg.r_true
    W = rng.uniform(0.0, cfg.M, size=(n, r))
    H = rng.uniform(0.0, cfg.M, size=(r, m))
    theta = rng.uniform(-cfg.M / 2.0, cfg.M / 2.0, size=r + 1)
    # An overflow is refused below, by its result.
    with np.errstate(over="ignore", invalid="ignore"):
        X = W @ H + _noise(rng, cfg.noise_kind, cfg.eta_x, (n, m))
        np.maximum(X, 0.0, out=X)
        Y = theta[0] + W @ theta[1:] + _noise(rng, cfg.noise_kind, cfg.eta_y, n)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError(f"the dataset overflows: with M={cfg.M}, eta_x={cfg.eta_x} and "
                         f"eta_y={cfg.eta_y}, X or Y is not finite")
    return SyntheticDataset(X=X, Y=Y, W_true=W, H_true=H, theta_true=theta, config=cfg)


def split_arrays(X, Y, train_frac, seed):
    """Row-partition ``(X, Y)`` into train/test without replacement.

    The train side gets ``round(train_frac * n)`` rows.  Row order within
    each side follows the original matrix.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    n = X.shape[0]
    if Y.shape[0] != n:
        raise ValueError(f"X has {n} rows but Y has length {Y.shape[0]}")
    if not 0 < train_frac < 1:
        raise ValueError(f"train_frac must lie in (0, 1), got {train_frac}")
    n_train = int(round(train_frac * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"split leaves an empty side: {n_train} train rows of {n} total"
        )
    perm = np.random.default_rng(seed).permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return (X[train_idx], Y[train_idx]), (X[test_idx], Y[test_idx]), (train_idx, test_idx)


def save_dataset(ds, out_dir):
    """Write ``X.csv``, ``Y.csv``, and a ``truth.json`` sidecar holding the
    config and the planted factors."""
    out_dir.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(out_dir / "X.csv", ds.X)
    save_vector_csv(out_dir / "Y.csv", ds.Y)
    truth = {
        "config": asdict(ds.config),
        "W_true": [[float(v) for v in row] for row in ds.W_true],
        "H_true": [[float(v) for v in row] for row in ds.H_true],
        "theta_true": [float(v) for v in ds.theta_true],
    }
    write_json(out_dir / "truth.json", truth)
    return out_dir / "X.csv", out_dir / "Y.csv", out_dir / "truth.json"
