"""Command-line front end.

Subcommands cover the full workflow: generating synthetic datasets,
vectorizing rated text corpora, fitting single models, sweeping the
(r, lambda) grid, predicting ratings for new documents, and reporting
topics ranked by regression weight.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import functools
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from .io import (format_float, load_matrix_csv, load_vector_csv, save_matrix_csv, save_vector_csv,
                 write_json, write_table)
from .linalg import ConvergenceError
from .model import FitConfig, NumericFailure, fit as fit_model, load_model, predict_many, save_model
from .sweep import (LAMBDA_GRIDS, SweepSpec, figure_filter as apply_figure_filter, lambda_grid,
                    run_sweep, write_sweep_csv)
from .synthetic import SyntheticConfig, generate, save_dataset
from .text import (
    BLOCK_ROWS,
    TfidfConfig,
    Vocabulary,
    balance,
    build_tfidf,
    interval_index,
    is_corpus_file,
    load_corpus,
    load_vectorizer,
    save_vectorizer,
    tfidf_config,
    vectorize_many,
)

__all__ = ["main"]


def _mapped(fn):
    """Translate library errors into the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except (ConvergenceError, NumericFailure) as err:
            click.echo(f"numeric failure: {err}", err=True)
            sys.exit(4)
        except (ValueError, OSError) as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(3)

    return wrapper


def _outdir(obj):
    out = Path(obj["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_float_list(text, what):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise click.UsageError(f"{what} must be a comma-separated list of numbers, got {text!r}")
    if not values:
        raise click.UsageError(f"{what} is empty")
    return values


def _parse_int_list(text, what):
    values = _parse_float_list(text, what)
    if not all(v.is_integer() for v in values):
        raise click.UsageError(f"{what} must be a list of whole numbers, got {text!r}")
    return [int(v) for v in values]


def _parse_edges(text, what):
    """Interval edges: at least two, strictly ascending (the rule of
    :func:`cssnmf.text.balance`)."""
    edges = _parse_float_list(text, what)
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise click.UsageError(f"{what} needs at least two strictly ascending edges, got {text!r}")
    return edges


@click.group()
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed for every randomized step.")
@click.option("--out", type=click.Path(file_okay=False, path_type=Path),
              default=Path("."), show_default=True,
              help="Directory where artifacts are written.")
@click.pass_context
def main(ctx, seed, out):
    """Topic factorization with a rating regression, end to end."""
    ctx.obj = {"seed": seed, "out": out}


@main.command()
@click.option("--n", type=int, default=100, show_default=True, help="Documents.")
@click.option("--m", type=int, default=40, show_default=True, help="Vocabulary size.")
@click.option("--r", "r_true", type=int, default=4, show_default=True, help="Planted topics.")
@click.option("--scale", type=float, default=20.0, show_default=True,
              help="Upper bound for the uniform factor entries.")
@click.option("--eta-x", type=float, default=4.0, show_default=True, help="Matrix noise scale.")
@click.option("--eta-y", type=float, default=4.0, show_default=True, help="Response noise scale.")
@click.option("--noise", type=click.Choice(["gaussian", "uniform"]), default="gaussian",
              show_default=True)
@click.pass_obj
@_mapped
def synth(obj, n, m, r_true, scale, eta_x, eta_y, noise):
    """Generate a synthetic dataset: X.csv, Y.csv, truth.json."""
    cfg = SyntheticConfig(
        n=n, m=m, r_true=r_true, M=scale,
        eta_x=eta_x, eta_y=eta_y, noise_kind=noise, seed=obj["seed"],
    )
    ds = generate(cfg)
    for p in save_dataset(ds, _outdir(obj)):
        click.echo(str(p))


@main.command()
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--min-df", type=float, default=0.01, show_default=True,
              help="Keep terms appearing in at least this fraction of documents.")
@click.option("--max-df", type=float, default=0.15, show_default=True,
              help="Keep terms appearing in at most this fraction of documents.")
@click.option("--stopwords", type=click.Choice(["english", "none"]), default="english",
              show_default=True)
@click.option("--lowercase/--no-lowercase", default=True, show_default=True)
@click.option("--balance-edges", default=None,
              help="Comma list of rating interval edges (e.g. 1,2,3,4,5); when given, "
                   "intervals are subsampled to equal size before vectorizing.")
@click.option("--rating-range", default="1,5", show_default=True,
              help="Closed lo,hi range every rating must lie in.")
@click.pass_obj
@_mapped
def ingest(obj, corpus, min_df, max_df, stopwords, lowercase, balance_edges, rating_range):
    """Vectorize a rated corpus: X.csv, Y.csv, vectorizer.json.

    CORPUS is CSV (columns id, text, rating) or JSON-lines with the same
    fields.
    """
    bounds = _parse_float_list(rating_range, "--rating-range")
    if len(bounds) != 2 or not bounds[0] < bounds[1]:
        raise click.UsageError(f"--rating-range must be lo,hi with lo < hi, got {rating_range!r}")
    rc = load_corpus(corpus, rating_range=tuple(bounds))
    if balance_edges is not None:
        edges = _parse_edges(balance_edges, "--balance-edges")
        rc = balance(rc, edges, obj["seed"])
        click.echo(f"balanced to {len(rc)} documents over {len(edges) - 1} intervals")
    cfg = TfidfConfig(min_df=min_df, max_df=max_df, stopwords=stopwords, lowercase=lowercase)
    dtm = build_tfidf(rc, cfg)
    out = _outdir(obj)
    save_matrix_csv(out / "X.csv", dtm.blocks(), header=list(dtm.vocab.terms))
    save_vector_csv(out / "Y.csv", rc.ratings(), name="rating")
    save_vectorizer(out / "vectorizer.json", dtm, cfg)
    click.echo(f"{len(rc)} documents x {len(dtm.vocab)} terms")
    if dtm.zero_rows:
        ids = ", ".join(str(dtm.doc_ids[i]) for i in dtm.zero_rows)
        click.echo(
            f"warning: {len(dtm.zero_rows)} document(s) have no in-vocabulary tokens "
            f"(zero rows): {ids}",
            err=True,
        )
    for name in ("X.csv", "Y.csv", "vectorizer.json"):
        click.echo(str(out / name))


@main.command(name="fit")
@click.argument("x_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("y_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--r", type=int, required=True, help="Topic count.")
@click.option("--lam", "--lambda", "lam", type=float, default=0.0, show_default=True,
              help="Regression weight in the joint objective.")
@click.option("--tau", type=float, default=1e-4, show_default=True,
              help="Relative objective-change tolerance.")
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--vectorizer", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              default=None,
              help="vectorizer.json from ingest; embeds vocabulary and idf in the model.")
@click.pass_obj
@_mapped
def fit_cmd(obj, x_path, y_path, r, lam, tau, max_iter, restarts, vectorizer):
    """Fit one model: model.json plus objective_trace.csv."""
    X, header = load_matrix_csv(x_path)
    Y = load_vector_csv(y_path)
    vocab = idf = tf_cfg = None
    if vectorizer is not None:
        vocab, idf, tf_cfg = load_vectorizer(vectorizer)
        if len(vocab) != X.shape[1]:
            raise ValueError(
                f"vectorizer has {len(vocab)} terms but X has {X.shape[1]} columns"
            )
        if header is not None and tuple(header) != vocab.terms:
            raise ValueError(f"{x_path}: header is not the vocabulary of {vectorizer}, in order")
    cfg = FitConfig(r=r, lam=lam, tau=tau, max_iter=max_iter,
                    seed=obj["seed"], restarts=restarts)
    fac, report = fit_model(X, Y, cfg)
    out = _outdir(obj)
    save_model(
        out / "model.json", fac, cfg, report,
        vocabulary=None if vocab is None else list(vocab.terms),
        idf=idf,
        tfidf=None if tf_cfg is None else asdict(tf_cfg),
    )
    write_table(out / "objective_trace.csv", ["iter", "F", "N", "R"], report.objective_trace)
    for w in report.warnings:
        click.echo(f"warning: {w}", err=True)
    click.echo(
        f"final objective {format_float(report.final_objective)} "
        f"after {report.iterations_run} iterations "
        f"({'converged' if report.converged else 'iteration cap'}, "
        f"restart {report.restart_index})"
    )
    click.echo(str(out / "model.json"))
    click.echo(str(out / "objective_trace.csv"))


@main.command()
@click.argument("x_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("y_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--r", "r_list", required=True, help="Comma list of topic counts (e.g. 1,2,4).")
@click.option("--lambdas", required=True,
              help="'synth', 'text', or a comma list of lambda values.")
@click.option("--restarts", type=int, default=10, show_default=True)
@click.option("--train-frac", type=float, default=0.7, show_default=True)
@click.option("--split-seed", type=int, default=None, help="Defaults to --seed.")
@click.option("--fit-seed", type=int, default=None, help="Defaults to --seed.")
@click.option("--tau", type=float, default=1e-4, show_default=True)
@click.option("--max-iter", type=int, default=100, show_default=True)
@click.option("--figure-filter", "fig_filter", is_flag=True,
              help="Also write sweep_figure.csv, dropping lambda > 0 rows whose error "
                   "exceeds 1.5x the lambda = 0 row.")
@click.pass_obj
@_mapped
def sweep(obj, x_path, y_path, r_list, lambdas, restarts, train_frac,
          split_seed, fit_seed, tau, max_iter, fig_filter):
    """Fit an (r, lambda) grid and write sweep.csv."""
    X, _ = load_matrix_csv(x_path)
    Y = load_vector_csv(y_path)
    if lambdas in LAMBDA_GRIDS:
        lam_values = lambda_grid(lambdas)
    else:
        lam_values = _parse_float_list(lambdas, "--lambdas")
    spec = SweepSpec(
        r_values=tuple(_parse_int_list(r_list, "--r")),
        lambda_values=tuple(lam_values),
        restarts=restarts,
        split_seed=obj["seed"] if split_seed is None else split_seed,
        fit_seed=obj["seed"] if fit_seed is None else fit_seed,
        train_frac=train_frac,
        tau=tau,
        max_iter=max_iter,
    )
    cells = run_sweep(X, Y, spec)
    out = _outdir(obj)
    write_sweep_csv(out / "sweep.csv", cells)
    for c in cells:
        if not c.ok:
            click.echo(f"warning: cell r={c.r} lambda={c.lam}: {c.status}", err=True)
    click.echo(str(out / "sweep.csv"))
    if fig_filter:
        write_sweep_csv(out / "sweep_figure.csv", apply_figure_filter(cells))
        click.echo(str(out / "sweep_figure.csv"))


@main.command(name="predict")
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.argument("docs_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--input-format", "fmt", type=click.Choice(["auto", "matrix", "text"]),
              default="auto", show_default=True,
              help="'text' expects a corpus file; 'matrix' a numeric CSV with one "
                   "document row per line; 'auto' reads a corpus when the header names "
                   "id and text and the first record is not all numbers.")
@click.option("--ratings", "ratings_path",
              type=click.Path(exists=True, dir_okay=False, path_type=Path), default=None,
              help="Single-column CSV of true ratings (matrix input only).")
@click.option("--edges", default="1,2,3,4,5", show_default=True,
              help="Rating interval edges for the grouped summary.")
@click.pass_obj
@_mapped
def predict_cmd(obj, model_path, docs_path, fmt, ratings_path, edges):
    """Predict ratings: predictions.csv, plus groups.csv when true ratings
    are available."""
    edge_values = _parse_edges(edges, "--edges")
    model = load_model(model_path)
    if fmt == "auto":
        fmt = "text" if is_corpus_file(docs_path) else "matrix"
    if fmt == "text":
        if model.vocabulary is None:
            raise click.UsageError(
                "text input needs a model with a vocabulary; fit with --vectorizer"
            )
        if model.idf is None:
            raise ValueError("model carries a vocabulary but no idf weights")
        tf_cfg = tfidf_config(model.config.get("tfidf", {}), f"{model_path}: field 'config.tfidf'")
        vocab = Vocabulary.from_terms(model.vocabulary)
        rc = load_corpus(docs_path, require_rating=False)
        ids = [e.id for e in rc.entries]
        y_true = [e.rating for e in rc.entries]
        if ratings_path is not None:
            raise click.UsageError("--ratings applies to matrix input; corpus files carry ratings inline")
        # One block of documents per call: a document's encoding does not
        # depend on the other documents in its call, so the scores are
        # those of a single call over every document.
        y_hats, W = [], []
        for i in range(0, len(rc), BLOCK_ROWS):
            texts = [e.text for e in rc.entries[i:i + BLOCK_ROWS]]
            y, w = predict_many(model.H, model.theta,
                                vectorize_many(texts, vocab, tf_cfg, model.idf))
            y_hats.append(y)
            W.append(w)
        y_hats, W = np.concatenate(y_hats), np.concatenate(W)
    else:
        X, _ = load_matrix_csv(docs_path)
        ids = [str(i) for i in range(X.shape[0])]
        y_true = [None] * X.shape[0]
        if ratings_path is not None:
            ratings = load_vector_csv(ratings_path)
            if ratings.shape[0] != X.shape[0]:
                raise ValueError(
                    f"{ratings_path} has {ratings.shape[0]} ratings for {X.shape[0]} documents"
                )
            y_true = [float(v) for v in ratings]
        y_hats, W = predict_many(model.H, model.theta, X)
    out = _outdir(obj)
    write_table(out / "predictions.csv",
                ["id", "y_hat"] + [f"w_{k}" for k in range(1, W.shape[1] + 1)],
                ([doc_id, y_hat, *w] for doc_id, y_hat, w in zip(ids, y_hats, W)))
    click.echo(str(out / "predictions.csv"))

    rated = [(y, y_hat) for y, y_hat in zip(y_true, y_hats) if y is not None]
    if rated:
        groups = [[] for _ in range(len(edge_values) - 1)]
        ungrouped = 0
        for y, y_hat in rated:
            try:
                groups[interval_index(y, edge_values)].append((y, y_hat))
            except ValueError:
                ungrouped += 1
        if ungrouped:
            click.echo(
                f"warning: {ungrouped} rating(s) outside {edge_values} left out of groups.csv",
                err=True,
            )
        write_table(out / "groups.csv", ["low", "high", "count", "mean_true", "mean_pred"], [
            [lo, hi, len(members),
             float(np.mean([y for y, _ in members])) if members else float("nan"),
             float(np.mean([p for _, p in members])) if members else float("nan")]
            for lo, hi, members in zip(edge_values, edge_values[1:], groups)
        ])
        click.echo(str(out / "groups.csv"))


@main.command()
@click.argument("model_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--top-k", type=int, default=10, show_default=True,
              help="Terms reported per topic.")
@click.pass_obj
@_mapped
def topics(obj, model_path, top_k):
    """Report topics ordered by regression weight: topics.json, topics.txt."""
    model = load_model(model_path)
    if model.vocabulary is None:
        raise click.UsageError("model has no vocabulary; fit with --vectorizer to name terms")
    m = len(model.vocabulary)
    if top_k < 1:
        raise click.UsageError("--top-k must be >= 1")
    if top_k > m:
        click.echo(f"warning: --top-k {top_k} clamped to vocabulary size {m}", err=True)
        top_k = m
    theta_w = model.theta[1:]
    order = sorted(range(model.H.shape[0]), key=lambda k: (-theta_w[k], k))
    report = {"intercept": float(model.theta[0]), "topics": []}
    for k in order:
        ranked = sorted(zip(model.H[k], model.vocabulary), key=lambda tw: (-tw[0], tw[1]))
        report["topics"].append({
            "topic": k,
            "theta": float(theta_w[k]),
            "terms": [{"term": t, "weight": float(wt)} for wt, t in ranked[:top_k]],
        })
    out = _outdir(obj)
    write_json(out / "topics.json", report)
    lines = [f"intercept: {format_float(report['intercept'])}"]
    for entry in report["topics"]:
        lines.append(f"topic {entry['topic']}  theta={format_float(entry['theta'])}")
        for tw in entry["terms"]:
            lines.append(f"  {tw['term']}  {format_float(tw['weight'])}")
    with open(out / "topics.txt", "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    click.echo(str(out / "topics.json"))
    click.echo(str(out / "topics.txt"))


if __name__ == "__main__":
    main()
