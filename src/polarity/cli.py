"""Command-line interface: corpus stats, feature extraction, training,
prediction, single experiments, and the full reproduction grids.

Exit codes: 0 success, 2 usage/configuration error, 3 data error or a file the
system cannot read or write. Progress goes to stderr; stdout stays machine-parseable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, linear_svm, naive_bayes
from .corpus import FOLD_MODES, assign_folds, compute_stats, load_corpus
from .errors import ConfigError, DataError
from .evaluation import (
    CLASSIFIERS,
    GRID_COLUMNS,
    PRUNE_SCOPES,
    EvalReport,
    ExperimentConfig,
    FeaturePipeline,
    emit_report,
    run_experiment,
    run_grid,
)
from .features import check_resources, parse_feature_spec
from .lexicon import LEXICON_FORMATS, load_lexicon, load_transitions
from .naive_bayes import NaiveBayesModel, predict_nb, train_nb
from .linear_svm import LinearSvmModel, check_solver_limits, predict_svm, train_svm
from .tagging import TAGGERS, get_tagger
from .vectorize import (
    FeatureMatrix,
    Representation,
    read_json_object,
    read_svmlight,
    represent,
    require_vocabulary,
    write_svmlight,
    write_vocabulary,
)

DATA_DIR_ENV = "POLARITY_DATA_DIR"

_COMBO_ADDONS = ("pu", "pb", "t")
_GRID_NAMES = ("table2", "unigram-combos", "3adjadv-combos")


def _corpus_root(args) -> Path:
    root = args.corpus or os.environ.get(DATA_DIR_ENV)
    if not root:
        raise ConfigError(f"no corpus directory given (use --corpus or ${DATA_DIR_ENV})")
    return Path(root)


def _load_folded_corpus(args):
    return assign_folds(load_corpus(_corpus_root(args)), mode=args.folds, seed=args.seed)


def _maybe_lexicon(args):
    return load_lexicon(args.lexicon, format=args.lexicon_format) if args.lexicon else None


def _maybe_transitions(args):
    return load_transitions(args.transitions or None)


def _spec_pipeline(args, corpus, spec, min_count: int) -> FeaturePipeline:
    """The pipeline over *corpus* with the resources of *args*, holding *spec*'s
    family matrices. No other family is asked for, so the stream is dropped."""
    pipeline = FeaturePipeline(corpus, _maybe_lexicon(args),
                               _maybe_transitions(args) if spec.needs_transitions else None,
                               get_tagger(args.tagger))
    pipeline.family_matrices(spec, min_count)
    pipeline.release_tokens()
    return pipeline


def _finish(args, summary: dict, message: str) -> int:
    """Print *summary* as JSON on stdout (``--format json``) or *message* on stderr; exit 0."""
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(message, file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    corpus = load_corpus(_corpus_root(args))
    stats = compute_stats(corpus)
    payload = stats.to_json_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'label':>5} {'sentences':>10} {'words':>10} {'distinct':>10}")
        for label, row in payload.items():
            print(f"{label:>5} {row['sentences']:>10} {row['words']:>10} {row['distinct']:>10}")
    return 0


def cmd_extract(args) -> int:
    spec = parse_feature_spec(args.features, negation=_NEGATION[args.negation])
    pipeline = _spec_pipeline(args, load_corpus(_corpus_root(args)), spec, args.min_count)
    matrix = FeatureMatrix.union(pipeline.family_matrices(spec, args.min_count))
    X = represent(require_vocabulary(matrix.counts, args.min_count), Representation(args.rep))
    write_svmlight(X, args.out, pipeline.labels())
    if args.vocab_out:
        write_vocabulary(matrix.features, args.vocab_out)
    documents, features = X.shape
    summary = {"documents": documents, "features": features,
               "vectors_file": args.out, "vocabulary_file": args.vocab_out}
    return _finish(args, summary, f"wrote {documents} vectors over {features} features to {args.out}")


def _experiment_config(args, features: str, representation: str, classifier: str,
                       negation: bool) -> ExperimentConfig:
    """One cell with the pruning and solver options of *args*."""
    return ExperimentConfig(features=features, representation=representation,
                            classifier=classifier, negation=negation,
                            prune_scope=args.prune_scope, seed=args.seed,
                            min_count=args.min_count, C=args.C, tol=args.tol,
                            max_epochs=args.max_epochs)


def cmd_evaluate(args) -> int:
    config = _experiment_config(args, args.features, args.rep, args.clf, _NEGATION[args.negation])
    # The cell's family matrices are cached and the token stream dropped before the folds.
    pipeline = _spec_pipeline(args, _load_folded_corpus(args), config.spec(), config.min_count)
    report = run_experiment(pipeline, config)
    for message in report.warnings:
        print(f"warning: {message}", file=sys.stderr)
    if args.out:
        emit_report([report], format="json", path=args.out)
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        print(f"{report.mean_accuracy:.4f}")
    return 0


def _sniff_model(path: str):
    payload = read_json_object(path)
    fmt = str(payload.get("format", ""))
    model_type = {naive_bayes.MODEL_FORMAT: NaiveBayesModel,
                  linear_svm.MODEL_FORMAT: LinearSvmModel}.get(fmt)
    if model_type is None:
        raise DataError(f"{path}: unrecognized model format {fmt!r}")
    return model_type.from_payload(payload, path)


def cmd_train(args) -> int:
    check_solver_limits(args.tol, args.max_epochs, args.C)
    X, labels = read_svmlight(args.input)
    if args.clf == "nb":
        model = train_nb(X, labels)
        info = {"model": str(model.save(args.out)), "classifier": "nb", "vocab_size": model.vocab_size}
    else:
        model = train_svm(X, labels, C=args.C, tol=args.tol, max_epochs=args.max_epochs)
        meta_path, weights_path = model.save(args.out)
        info = {
            "model": str(meta_path), "weights": str(weights_path), "classifier": "svm",
            "C": model.C, "iterations": model.meta.iterations,
            "converged": model.meta.converged,
            "primal_objective": model.meta.final_objective,
            "duality_gap": model.meta.duality_gap,
        }
        if not model.meta.converged:
            print(f"warning: {model.meta.warning}", file=sys.stderr)
    return _finish(args, info, f"trained {args.clf} model -> {info['model']}")


def cmd_predict(args) -> int:
    model = _sniff_model(args.model)
    X, labels = read_svmlight(args.input)
    predict = predict_nb if isinstance(model, NaiveBayesModel) else predict_svm
    # Finite weights can still overflow a score; that is reported as one error.
    with np.errstate(over="ignore", invalid="ignore"):
        predicted, scores = predict(model, X)
    if not np.isfinite(scores).all():
        raise DataError(f"{args.model}: scores overflow on {args.input}")
    results = list(zip(predicted.tolist(), scores.tolist()))
    labeled = labels != 0
    accuracy = (
        int(np.sum(predicted[labeled] == labels[labeled])) / int(labeled.sum())
        if labeled.any() else None
    )
    if args.format == "json":
        print(json.dumps({
            "predictions": [{"label": p, "score": s} for p, s in results],
            "accuracy": accuracy,
        }))
    else:
        for p, s in results:
            print(f"{'+1' if p > 0 else '-1'} {s:.6f}")
        if accuracy is not None:
            print(f"accuracy: {accuracy:.4f}", file=sys.stderr)
    return 0


def _table2_targets() -> list[dict]:
    """The published Table 2 rows, in order: the rows of the table2 grid and
    the accuracies its deviation summary compares against."""
    text = resources.files("polarity").joinpath("data/reference_accuracies.json").read_text("utf-8")
    return json.loads(text)["table2"]


def _grid_rows(grid: str) -> list[tuple[str, bool]]:
    """The (features, negation) rows of *grid*, in output order."""
    if grid == "table2":
        return [(row["features"], row["negation"]) for row in _table2_targets()]
    # A combination grid: each subset of the add-ons, smallest first.
    base, negations = ("unigram", (False, True)) if grid == "unigram-combos" else ("3adjadv", (False,))
    subsets = [[a for k, a in enumerate(_COMBO_ADDONS) if bits >> k & 1]
               for bits in range(2 ** len(_COMBO_ADDONS))]
    return [("+".join([base, *addons]), negation) for addons in subsets for negation in negations]


def _reproduce_configs(args, lexicon, transitions):
    """(grid name, config) cells plus a skipped list, each with check_resources' reason."""
    only = set(args.only.split(",")) if args.only else set(_GRID_NAMES)
    unknown = only - set(_GRID_NAMES)
    if unknown:
        raise ConfigError(f"unknown --only grids {sorted(unknown)}; valid: {', '.join(_GRID_NAMES)}")

    cells: list[tuple[str, ExperimentConfig]] = []
    skipped: list[dict] = []
    for grid in [name for name in _GRID_NAMES if name in only]:
        for features, negation in _grid_rows(grid):
            try:
                check_resources(parse_feature_spec(features), lexicon, transitions)
                reason = None
            except ConfigError as exc:
                reason = str(exc)
            for clf, rep in GRID_COLUMNS:
                cfg = _experiment_config(args, features, rep, clf, negation)
                if reason:
                    skipped.append({"grid": grid, "config": cfg.to_json_dict(), "reason": reason})
                else:
                    cells.append((grid, cfg))
    return cells, skipped


def _deviation_summary(reports: list[EvalReport]) -> tuple[str, str]:
    """Markdown and CSV deviation of table2 cells from the published targets."""
    by_key = {(r.config.features, r.config.negation,
               r.config.classifier, r.config.representation): r for r in reports}
    md = ["| Row | Cell | Reference | Ours | Delta |", "|---|---|---|---|---|"]
    csv_lines = ["features,negation,classifier,representation,reference,ours,delta"]
    for row in _table2_targets():
        for clf, rep in GRID_COLUMNS:
            ref = row[f"{clf}_{rep.value}"]
            md_cell = f"| {row['label']} | {clf}/{rep.value} | {ref:.3f} |"
            csv_cell = f"{row['features']},{str(row['negation']).lower()},{clf},{rep.value},{ref:.3f},"
            report = by_key.get((row["features"], row["negation"], clf, rep))
            if report is None:
                md.append(f"{md_cell} skipped | -- |")
                csv_lines.append(f"{csv_cell},")
            else:
                ours = report.mean_accuracy
                md.append(f"{md_cell} {ours:.3f} | {ours - ref:+.3f} |")
                csv_lines.append(f"{csv_cell}{ours:.6f},{ours - ref:+.6f}")
    return "\n".join(md) + "\n", "\n".join(csv_lines) + "\n"


def cmd_reproduce(args) -> int:
    corpus = _load_folded_corpus(args)
    lexicon = _maybe_lexicon(args)
    if lexicon is None:
        print("warning: no --lexicon given; polarized/transition rows will be skipped",
              file=sys.stderr)
    try:
        transitions = _maybe_transitions(args)
    except (ConfigError, DataError) as exc:
        print(f"warning: {exc}; transition rows will be skipped", file=sys.stderr)
        transitions = None
    cells, skipped = _reproduce_configs(args, lexicon, transitions)
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions,
                               tagger=get_tagger(args.tagger))
    pipeline.tokenize()  # a review that cannot be read fails before anything is written
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # The combo grids repeat some table2 cells; each distinct config runs once.
    configs = list(dict.fromkeys(cfg for _, cfg in cells))
    results_log = out_dir / "results.jsonl"
    results_log.unlink(missing_ok=True)
    reports, errors = run_grid(
        pipeline, configs,
        results_path=results_log,
        progress=lambda line: print(line, file=sys.stderr),
        jobs=args.jobs,
    )
    by_config = {r.config: r for r in reports}
    grids: dict[str, list[EvalReport]] = {name: [] for name in _GRID_NAMES}
    for grid, cfg in cells:
        report = by_config.get(cfg)
        if report:
            grids[grid].append(report)
    cells_run = sum(map(len, grids.values()))
    cells_failed = len(cells) - cells_run

    written = []
    for grid, grid_reports in grids.items():
        if not grid_reports:
            continue
        stem = grid.replace("-", "_")
        emit_report(grid_reports, format="csv", path=out_dir / f"{stem}.csv")
        emit_report(grid_reports, format="markdown", path=out_dir / f"{stem}.md")
        written += [f"{stem}.csv", f"{stem}.md"]
    if grids["table2"]:
        dev_md, dev_csv = _deviation_summary(grids["table2"])
        (out_dir / "deviation.md").write_text(dev_md, encoding="utf-8")
        (out_dir / "deviation.csv").write_text(dev_csv, encoding="utf-8")
        written += ["deviation.csv", "deviation.md"]
    (out_dir / "skipped.json").write_text(
        json.dumps({"skipped": skipped, "errors": errors}, indent=2, sort_keys=True),
        encoding="utf-8")
    written.append("skipped.json")

    summary = {
        "out_dir": str(out_dir), "cells_run": cells_run,
        "cells_skipped": len(skipped), "cells_failed": cells_failed,
        "files": sorted(written),
    }
    return _finish(args, summary, f"ran {cells_run} cells ({len(skipped)} skipped, "
                                  f"{cells_failed} failed) -> {out_dir}")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {value}")
    return number


_NEGATION = {"on": True, "off": False}

# Every shared option, declared once; each subcommand names the ones it takes.
_OPTIONS = {
    "--corpus": dict(help=f"corpus root with pos/ and neg/ (default ${DATA_DIR_ENV})"),
    "--format": dict(choices=["json", "text"], default="text", help="output format (default text)"),
    "--lexicon": dict(help="subjectivity lexicon file (see README for acquisition)"),
    "--lexicon-format": dict(choices=LEXICON_FORMATS, default="tff",
                             help="lexicon file format (default tff)"),
    "--transitions": dict(help="transition phrase list (default: bundled 27 phrases)"),
    "--tagger": dict(choices=TAGGERS, default="builtin",
                     help="POS tagger: built-in rules or word_TAG input (default builtin)"),
    "--features": dict(required=True, help="feature families joined by +, e.g. unigram+pb+t"),
    "--negation": dict(choices=_NEGATION, default="off",
                       help="negation-tag unigrams; --features must hold unigram (default off)"),
    "--rep": dict(choices=[r.value for r in Representation], default="presence"),
    "--clf": dict(choices=CLASSIFIERS, required=True),
    "--seed": dict(type=int, default=0, help="master seed (default 0)"),
    "--folds": dict(choices=FOLD_MODES, default="filename",
                    help="fold assignment mode (default filename)"),
    "--prune-scope": dict(choices=PRUNE_SCOPES, default="fold",
                          help="count features over training folds only, or the whole corpus"),
    "--min-count": dict(type=_positive_int, default=5, help="term-removal threshold (default 5)"),
    "--C": dict(type=float, default=None,
                help="SVM soft-margin penalty (default: 1/mean squared norm)"),
    "--tol": dict(type=_positive_float, default=1e-3, help="SVM KKT tolerance (default 1e-3)"),
    "--max-epochs": dict(type=_positive_int, default=1000, help="SVM epoch cap (default 1000)"),
    "--input": dict(required=True),
}
_PIPELINE = ("--corpus", "--format", "--lexicon", "--lexicon-format", "--transitions", "--tagger")
_SOLVER = ("--C", "--tol", "--max-epochs")
_EXPERIMENT = ("--seed", "--folds", "--prune-scope", "--min-count", *_SOLVER)


def _add_options(p, *names) -> None:
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarity",
        description="Sentiment polarity classification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics (sentences/words/distinct per label)")
    _add_options(p, "--corpus", "--format")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("extract", help="extract features and write svmlight vectors")
    _add_options(p, *_PIPELINE, "--features", "--negation", "--rep", "--min-count")
    p.add_argument("--out", required=True, help="output vector file")
    p.add_argument("--vocab-out", help="output vocabulary file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="run one cross-validated experiment")
    _add_options(p, *_PIPELINE, "--negation", *_EXPERIMENT, "--features", "--rep", "--clf")
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train a model from an svmlight vector file")
    _add_options(p, "--input", "--clf", *_SOLVER)
    p.add_argument("--out", required=True,
                   help="writes <base>.json (svm: and <base>.npy); base is --out less one .json")
    _add_options(p, "--format")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for an svmlight vector file")
    p.add_argument("--model", required=True, help="model .json written by train")
    _add_options(p, "--input", "--format")
    p.set_defaults(func=cmd_predict)

    # Negation comes from each grid row, so reproduce takes no --negation.
    p = sub.add_parser("reproduce", help="run the published comparison grids and deviation summary")
    _add_options(p, *_PIPELINE, *_EXPERIMENT)
    p.set_defaults(prune_scope="corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--only", help=f"comma-separated subset of {','.join(_GRID_NAMES)}")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel grid cells (default 1)")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
