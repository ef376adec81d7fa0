"""Command-line interface: corpus stats, feature extraction, training,
prediction, single experiments, and the full reproduction grids.

Exit codes: 0 success, 2 usage/configuration error, 3 data error. Progress
goes to stderr; stdout stays machine-parseable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from itertools import compress
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import assign_folds, compute_stats, load_corpus
from .errors import ConfigError, DataError
from .evaluation import (
    EvalReport,
    ExperimentConfig,
    FeaturePipeline,
    emit_report,
    run_experiment,
    run_grid,
)
from .features import check_resources, parse_feature_spec
from .lexicon import load_lexicon, load_transitions
from .naive_bayes import NaiveBayesModel, predict_nb, train_nb
from .linear_svm import LinearSvmModel, predict_svm, train_svm
from .tagging import get_tagger
from .vectorize import (
    Representation,
    column_mask,
    read_json_object,
    read_svmlight,
    represent,
    write_svmlight,
    write_vocabulary,
)

DATA_DIR_ENV = "POLARITY_DATA_DIR"

_COMBO_ADDONS = ("pu", "pb", "t")
_TABLE2_ROWS = [
    ("unigram", False), ("unigram", True), ("bigram", False), ("trigram", False),
    ("adjadv", False), ("adj", False), ("pb", False), ("pu", False), ("3adjadv", False),
]
_GRID_NAMES = ("table2", "unigram-combos", "3adjadv-combos")


def _corpus_root(args) -> Path:
    root = args.corpus or os.environ.get(DATA_DIR_ENV)
    if not root:
        raise ConfigError(f"no corpus directory given (use --corpus or ${DATA_DIR_ENV})")
    return Path(root)


def _load_folded_corpus(args):
    corpus = load_corpus(_corpus_root(args))
    return assign_folds(corpus, mode=getattr(args, "folds", "filename"),
                        seed=getattr(args, "seed", 0))


def _maybe_lexicon(args):
    if getattr(args, "lexicon", None):
        return load_lexicon(args.lexicon, format=args.lexicon_format)
    return None


def _maybe_transitions(args):
    path = getattr(args, "transitions", None)
    return load_transitions(path) if path else load_transitions()


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
    spec = parse_feature_spec(args.features, negation=args.negation == "on")
    corpus = load_corpus(_corpus_root(args))
    pipeline = FeaturePipeline(
        corpus,
        lexicon=_maybe_lexicon(args),
        transitions=_maybe_transitions(args) if spec.needs_transitions else None,
        tagger=get_tagger(args.tagger),
    )
    matrix = pipeline.matrix_for_spec(spec, args.min_count)
    mask = column_mask(matrix.counts, args.min_count)
    X = represent(matrix.counts[:, mask], Representation(args.rep))
    write_svmlight(X, args.out, pipeline.labels())
    if args.vocab_out:
        write_vocabulary(compress(matrix.features, mask), args.vocab_out)
    documents, features = X.shape
    summary = {"documents": documents, "features": features,
               "vectors_file": args.out, "vocabulary_file": args.vocab_out}
    if args.format == "json":
        print(json.dumps(summary))
    else:
        print(f"wrote {documents} vectors over {features} features to {args.out}",
              file=sys.stderr)
    return 0


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        features=args.features,
        representation=args.rep,
        classifier=args.clf,
        negation=args.negation == "on",
        prune_scope=args.prune_scope,
        seed=args.seed,
        min_count=args.min_count,
        C=args.C,
        tol=args.tol,
        max_epochs=args.max_epochs,
    )


def cmd_evaluate(args) -> int:
    config = _experiment_config(args)
    corpus = _load_folded_corpus(args)
    spec = config.spec()
    lexicon = _maybe_lexicon(args)
    transitions = _maybe_transitions(args) if spec.needs_transitions else None
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions,
                               tagger=get_tagger(args.tagger))
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
    fmt = str(read_json_object(path).get("format", ""))
    if fmt.startswith("polarity-nb/"):
        return NaiveBayesModel.load(path)
    if fmt.startswith("polarity-svm/"):
        return LinearSvmModel.load(path)
    raise DataError(f"{path}: unrecognized model format {fmt!r}")


def cmd_train(args) -> int:
    X, labels = read_svmlight(args.input)
    if args.clf == "nb":
        model = train_nb(X, labels)
        out = args.out if args.out.endswith(".json") else args.out + ".json"
        model.save(out)
        info = {"model": out, "classifier": "nb", "vocab_size": model.vocab_size}
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
    if args.format == "json":
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"trained {args.clf} model -> {info['model']}", file=sys.stderr)
    return 0


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


def _combo_specs(base: str) -> list[str]:
    # All subsets of the polarized/transition add-ons, smallest first.
    specs = []
    for bits in range(2 ** len(_COMBO_ADDONS)):
        addons = [a for k, a in enumerate(_COMBO_ADDONS) if bits >> k & 1]
        specs.append("+".join([base] + addons))
    return specs


def _reproduce_configs(args, lexicon, transitions):
    """(grid name, config) cells plus a skipped list, each with check_resources' reason."""
    common = dict(prune_scope=args.prune_scope, seed=args.seed, min_count=args.min_count,
                  C=args.C, tol=args.tol, max_epochs=args.max_epochs)
    only = set(args.only.split(",")) if args.only else set(_GRID_NAMES)
    unknown = only - set(_GRID_NAMES)
    if unknown:
        raise ConfigError(f"unknown --only grids {sorted(unknown)}; valid: {', '.join(_GRID_NAMES)}")

    cells: list[tuple[str, ExperimentConfig]] = []
    skipped: list[dict] = []

    def add(grid: str, features: str, negation: bool) -> None:
        try:
            check_resources(parse_feature_spec(features), lexicon, transitions)
            reason = None
        except ConfigError as exc:
            reason = str(exc)
        for clf in ("nb", "svm"):
            for rep in ("presence", "frequency"):
                cfg = ExperimentConfig(features=features, representation=rep,
                                       classifier=clf, negation=negation, **common)
                if reason:
                    skipped.append({"grid": grid, "config": cfg.to_json_dict(),
                                    "reason": reason})
                else:
                    cells.append((grid, cfg))

    if "table2" in only:
        for features, negation in _TABLE2_ROWS:
            add("table2", features, negation)
    if "unigram-combos" in only:
        for features in _combo_specs("unigram"):
            for negation in (False, True):
                add("unigram-combos", features, negation)
    if "3adjadv-combos" in only:
        for features in _combo_specs("3adjadv"):
            add("3adjadv-combos", features, False)
    return cells, skipped


def _load_reference_targets() -> dict:
    text = resources.files("polarity").joinpath("data/reference_accuracies.json").read_text("utf-8")
    return json.loads(text)


def _deviation_summary(reports: list[EvalReport]) -> tuple[str, str]:
    """Markdown and CSV deviation of table2 cells from the published targets."""
    targets = _load_reference_targets()["table2"]
    by_key = {(r.config.features, r.config.negation,
               r.config.classifier, r.config.representation.value): r for r in reports}
    md = ["| Row | Cell | Reference | Ours | Delta |", "|---|---|---|---|---|"]
    csv_lines = ["features,negation,classifier,representation,reference,ours,delta"]
    for row in targets:
        for clf in ("nb", "svm"):
            for rep in ("presence", "frequency"):
                ref = row[f"{clf}_{rep}"]
                report = by_key.get((row["features"], row["negation"], clf, rep))
                if report is None:
                    md.append(f"| {row['label']} | {clf}/{rep} | {ref:.3f} | skipped | -- |")
                    csv_lines.append(
                        f"{row['features']},{str(row['negation']).lower()},{clf},{rep},{ref:.3f},,")
                    continue
                ours = report.mean_accuracy
                md.append(f"| {row['label']} | {clf}/{rep} | {ref:.3f} | {ours:.3f} "
                          f"| {ours - ref:+.3f} |")
                csv_lines.append(
                    f"{row['features']},{str(row['negation']).lower()},{clf},{rep},"
                    f"{ref:.3f},{ours:.6f},{ours - ref:+.6f}")
    return "\n".join(md) + "\n", "\n".join(csv_lines) + "\n"


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions,
                               tagger=get_tagger(args.tagger))

    cells, skipped = _reproduce_configs(args, lexicon, transitions)
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
    by_hash = {r.config.hash(): r for r in reports}
    grids: dict[str, list[EvalReport]] = {name: [] for name in _GRID_NAMES}
    for grid, cfg in cells:
        report = by_hash.get(cfg.hash())
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
    if args.format == "json":
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"ran {cells_run} cells ({len(skipped)} skipped, {cells_failed} failed) "
              f"-> {out_dir}", file=sys.stderr)
    return 0


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


def _add_corpus_options(p) -> None:
    p.add_argument("--corpus", help=f"corpus root with pos/ and neg/ (default ${DATA_DIR_ENV})")
    p.add_argument("--format", choices=["json", "text"], default="text",
                   help="output format (default text)")


def _add_resource_options(p) -> None:
    p.add_argument("--lexicon", help="subjectivity lexicon file (see README for acquisition)")
    p.add_argument("--lexicon-format", choices=["tff", "tsv"], default="tff",
                   help="lexicon file format (default tff)")
    p.add_argument("--transitions", help="transition phrase list (default: bundled 27 phrases)")
    p.add_argument("--tagger", choices=["builtin", "pretagged"], default="builtin",
                   help="POS tagger: built-in rules or word_TAG input (default builtin)")


def _add_experiment_options(p) -> None:
    p.add_argument("--negation", choices=["on", "off"], default="off",
                   help="negation-tag the unigram variant (default off)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--folds", choices=["filename", "seeded"], default="filename",
                   help="fold assignment mode (default filename)")
    p.add_argument("--prune-scope", choices=["fold", "corpus"], default="fold",
                   help="count features over training folds only, or the whole corpus")
    p.add_argument("--min-count", type=int, default=5,
                   help="term-removal threshold (default 5)")
    p.add_argument("--C", type=float, default=None,
                   help="SVM soft-margin penalty (default: 1/mean squared norm)")
    p.add_argument("--tol", type=_positive_float, default=1e-3,
                   help="SVM KKT tolerance (default 1e-3)")
    p.add_argument("--max-epochs", type=_positive_int, default=1000,
                   help="SVM epoch cap (default 1000)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarity",
        description="Sentiment polarity classification toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus statistics (sentences/words/distinct per label)")
    _add_corpus_options(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("extract", help="extract features and write svmlight vectors")
    _add_corpus_options(p)
    _add_resource_options(p)
    p.add_argument("--features", required=True, help="feature families joined by +, e.g. unigram+pb+t")
    p.add_argument("--negation", choices=["on", "off"], default="off")
    p.add_argument("--rep", choices=["presence", "frequency"], default="presence")
    p.add_argument("--min-count", type=int, default=5)
    p.add_argument("--out", required=True, help="output vector file")
    p.add_argument("--vocab-out", help="output vocabulary file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="run one cross-validated experiment")
    _add_corpus_options(p)
    _add_resource_options(p)
    _add_experiment_options(p)
    p.add_argument("--features", required=True)
    p.add_argument("--rep", choices=["presence", "frequency"], required=True)
    p.add_argument("--clf", choices=["nb", "svm"], required=True)
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train a model from an svmlight vector file")
    p.add_argument("--input", required=True)
    p.add_argument("--clf", choices=["nb", "svm"], required=True)
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--tol", type=_positive_float, default=1e-3)
    p.add_argument("--max-epochs", type=_positive_int, default=1000)
    p.add_argument("--out", required=True, help="model path (nb: .json; svm: prefix for .json/.npy)")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for an svmlight vector file")
    p.add_argument("--model", required=True, help="model .json written by train")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("reproduce", help="run the published comparison grids and deviation summary")
    _add_corpus_options(p)
    _add_resource_options(p)
    _add_experiment_options(p)
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
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
