"""Nonnegative topic factorization coupled with a linear rating regression.

The joint objective trades reconstruction error of a nonnegative
document-term matrix against the squared error of a linear model that
predicts each document's rating from its topic weights.  Alternating
exact nonnegative least-squares updates drive both errors down together;
the regression weight lambda sets the balance.
"""

from .linalg import ConvergenceError, lstsq, nnls
from .model import (
    EPS_H,
    Factorization,
    FitConfig,
    FitReport,
    Model,
    NumericFailure,
    fit,
    load_model,
    normalize,
    objective,
    predict_many,
    save_model,
    update_h,
    update_theta,
    update_w,
)
from .sweep import SweepSpec, lambda_grid, run_sweep
from .synthetic import SyntheticConfig, SyntheticDataset, generate, split_arrays
from .text import (
    DocumentTermMatrix,
    RatedCorpus,
    RatedDocument,
    TfidfConfig,
    Vocabulary,
    balance,
    build_tfidf,
    load_corpus,
    tokenize,
    vectorize_many,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "lstsq",
    "nnls",
    "EPS_H",
    "Factorization",
    "FitConfig",
    "FitReport",
    "Model",
    "NumericFailure",
    "fit",
    "load_model",
    "normalize",
    "objective",
    "predict_many",
    "save_model",
    "update_h",
    "update_theta",
    "update_w",
    "SweepSpec",
    "lambda_grid",
    "run_sweep",
    "SyntheticConfig",
    "SyntheticDataset",
    "generate",
    "split_arrays",
    "DocumentTermMatrix",
    "RatedCorpus",
    "RatedDocument",
    "TfidfConfig",
    "Vocabulary",
    "balance",
    "build_tfidf",
    "load_corpus",
    "tokenize",
    "vectorize_many",
    "__version__",
]
