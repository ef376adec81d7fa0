"""Cross-validated experiment harness over the feature/representation/classifier grid.

A FeaturePipeline preprocesses the corpus once into ``Sentence`` tuples
(words, tags, negation mask), extracts each family through the one
``features.EXTRACTORS`` table, and caches one sparse count matrix per
family, so a grid of many configurations pays the extraction cost per
family, not per cell. A cell takes the union of its families' columns,
prunes them with a column mask (once over the corpus, or per fold over the
training rows), and trains on row slices; under corpus scope the SVM Gram
matrix is computed once per cell and sliced per fold.
Reports carry per-fold and mean accuracy plus supplementary precision/recall.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linear_svm, naive_bayes
from .corpus import Corpus, N_FOLDS
from .errors import ConfigError, DataError
from .features import EXTRACTORS, FeatureBag, FeatureFamily, FeatureSpec, check_resources
from .features import parse_feature_spec
from .lexicon import SubjectivityLexicon, TransitionList
from .preprocess import Document, preprocess_document
from .tagging import RuleTagger
from .vectorize import FeatureMatrix, Representation, column_mask, represent

CLASSIFIERS = ("nb", "svm")
PRUNE_SCOPES = ("fold", "corpus")


def parse_representation(value) -> Representation:
    if isinstance(value, Representation):
        return value
    try:
        return Representation(str(value).lower())
    except ValueError:
        raise ConfigError(f"unknown representation {value!r} (expected 'presence' or 'frequency')")


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell: what to extract, how to represent it, what to train."""

    features: str
    representation: Representation
    classifier: str
    negation: bool = False
    prune_scope: str = "fold"
    seed: int = 0
    min_count: int = 5
    C: float | None = None
    tol: float = 1e-3
    max_epochs: int = 1000

    def __post_init__(self):
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"unknown classifier {self.classifier!r} (expected 'nb' or 'svm')")
        if self.prune_scope not in PRUNE_SCOPES:
            raise ConfigError(f"unknown prune scope {self.prune_scope!r} (expected 'fold' or 'corpus')")
        object.__setattr__(self, "representation", parse_representation(self.representation))
        # Normalizes the family string and rejects unknown tokens up front.
        object.__setattr__(self, "features", self.spec().canonical())

    def spec(self) -> FeatureSpec:
        return parse_feature_spec(self.features, negation=self.negation)

    def to_json_dict(self) -> dict:
        return {
            "features": self.features,
            "representation": self.representation.value,
            "classifier": self.classifier,
            "negation": self.negation,
            "prune_scope": self.prune_scope,
            "seed": self.seed,
            "min_count": self.min_count,
            "C": self.C,
            "tol": self.tol,
            "max_epochs": self.max_epochs,
        }

    def hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class EvalReport:
    config: ExperimentConfig
    fold_accuracies: list[float]
    mean_accuracy: float
    feature_count: int
    wall_time: float
    precision: float = 0.0
    recall: float = 0.0
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "config_hash": self.config.hash(),
            "config": self.config.to_json_dict(),
            "fold_accuracies": self.fold_accuracies,
            "mean_accuracy": self.mean_accuracy,
            "feature_count": self.feature_count,
            "precision": self.precision,
            "recall": self.recall,
            "wall_time": self.wall_time,
            "warnings": self.warnings,
        }


class FeaturePipeline:
    """Shared preprocessing plus a per-family count-matrix cache for one corpus.

    Documents are preprocessed once with *tagger* (a RuleTagger by default).
    Every Sentence carries its negation mask, so the negated and plain
    unigram variants both come from the same documents and every grid cell
    reuses the cache regardless of its negation flag. Bags are extracted
    through ``features.EXTRACTORS``; a family's bags live only while its
    matrix is built.
    """

    def __init__(self, corpus: Corpus,
                 lexicon: SubjectivityLexicon | None = None,
                 transitions: TransitionList | None = None,
                 tagger=None):
        self.corpus = corpus
        self.lexicon = lexicon
        self.transitions = transitions
        self.tagger = tagger or RuleTagger()
        self._documents: list[Document] | None = None
        self._matrices: dict[tuple, FeatureMatrix] = {}

    @property
    def documents(self) -> list[Document]:
        if self._documents is None:
            self._documents = [
                preprocess_document(doc, self.tagger) for doc in self.corpus.documents
            ]
        return self._documents

    def labels(self) -> list[int]:
        return [doc.label.sign for doc in self.corpus.documents]

    def family_matrix(self, family: FeatureFamily, negation_variant: bool = False) -> FeatureMatrix:
        """The cached count matrix of *family*; built from fresh bags on first use."""
        neg = negation_variant and family is FeatureFamily.UNIGRAM
        key = (family, neg)
        if key not in self._matrices:
            self._matrices[key] = FeatureMatrix.from_bags(self.family_bags(family, neg))
        return self._matrices[key]

    def family_bags(self, family: FeatureFamily, negation_variant: bool = False) -> list[FeatureBag]:
        """One bag per document for *family*, extracted afresh (not cached)."""
        check_resources(FeatureSpec(frozenset({family})), self.lexicon, self.transitions)
        extractor = EXTRACTORS[family]
        return [extractor(doc, self.lexicon, self.transitions, negation_variant)
                for doc in self.documents]

    def matrix_for_spec(self, spec: FeatureSpec) -> FeatureMatrix:
        """The union of the spec's family matrices, columns in lexicographic order."""
        return FeatureMatrix.union([
            self.family_matrix(f, spec.negation_variant) for f in FeatureFamily if f in spec.families
        ])


def _train_model(config: ExperimentConfig, X, y, gram=None):
    caught: list[str] = []
    if config.classifier == "nb":
        model = naive_bayes.train_nb(X, y)
    else:
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            model = linear_svm.train_svm(
                X, y, C=config.C, tol=config.tol, max_epochs=config.max_epochs, gram=gram,
            )
        caught = [str(w.message) for w in wlist]
    return model, caught


def _predict(config: ExperimentConfig, model, X) -> np.ndarray:
    predict = naive_bayes.predict_nb if config.classifier == "nb" else linear_svm.predict_svm
    return predict(model, X)[0]


class _Cell:
    """One configuration's matrix, split fold by fold into training and test rows.

    Under prune_scope="corpus" the column mask, the represented matrix and
    (for the SVM) the Gram matrix are computed once here and sliced per fold;
    under "fold" each fold prunes on its own training rows. Nothing outlives
    the cell.
    """

    def __init__(self, config: ExperimentConfig, matrix: FeatureMatrix, folds: np.ndarray):
        self.config = config
        self.matrix = matrix
        self.folds = folds
        self.mask = self.X = self.gram = None
        if config.prune_scope == "corpus":
            self.mask = column_mask(matrix.counts, config.min_count)
            self.X = represent(matrix.counts[:, self.mask], config.representation)
            if config.classifier == "svm":
                self.gram = linear_svm.gram_matrix(self.X)

    def split(self, fold: int):
        """(train rows, column mask, X_train, X_test, training Gram or None)."""
        train = self.folds != fold
        if train.all() or not train.any():
            raise DataError(f"fold {fold} leaves an empty train or test split")
        if self.X is not None:
            gram = None if self.gram is None else self.gram[np.ix_(train, train)]
            return train, self.mask, self.X[train], self.X[~train], gram
        counts, rep = self.matrix.counts, self.config.representation
        train_counts = counts[train]
        mask = column_mask(train_counts, self.config.min_count)
        return (train, mask, represent(train_counts[:, mask], rep),
                represent(counts[~train][:, mask], rep), None)


def _fold_array(corpus: Corpus) -> np.ndarray:
    if not corpus.folds:
        raise ConfigError("corpus has no fold assignment; call assign_folds first")
    return np.array([corpus.folds[doc.id] for doc in corpus.documents])


def train_fold_model(corpus: Corpus, config: ExperimentConfig, fold: int,
                     lexicon: SubjectivityLexicon | None = None,
                     transitions: TransitionList | None = None,
                     pipeline: FeaturePipeline | None = None):
    """Train the model a cross-validation run would use for one held-out fold.

    Returns (model, vocabulary). The held-out fold's documents contribute to
    neither (under prune_scope="fold"), which the no-leakage test asserts.
    """
    folds = _fold_array(corpus)
    if pipeline is None:
        pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions)
    matrix = pipeline.matrix_for_spec(config.spec())
    train, mask, X_train, _, gram = _Cell(config, matrix, folds).split(fold)
    y = np.array(pipeline.labels())
    model, _ = _train_model(config, X_train, y[train], gram)
    return model, matrix.vocabulary(mask, config.min_count)


def run_experiment(corpus: Corpus, config: ExperimentConfig,
                   lexicon: SubjectivityLexicon | None = None,
                   transitions: TransitionList | None = None,
                   pipeline: FeaturePipeline | None = None,
                   labels_override: Sequence[int] | None = None) -> EvalReport:
    """Five-fold cross-validate one configuration.

    Each fold trains on the other four; with prune_scope="fold" the
    vocabulary is rebuilt from training documents only, with "corpus" it is
    counted once over all documents (the replication setting).
    """
    folds = _fold_array(corpus)
    if pipeline is None:
        pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions)

    start = time.perf_counter()
    matrix = pipeline.matrix_for_spec(config.spec())
    y = np.array(labels_override if labels_override is not None else pipeline.labels())
    cell = _Cell(config, matrix, folds)

    fold_accuracies: list[float] = []
    vocab_sizes: list[int] = []
    caught: list[str] = []
    tp = fp = fn = 0
    for k in range(N_FOLDS):
        train, mask, X_train, X_test, gram = cell.split(k)
        model, fold_warnings = _train_model(config, X_train, y[train], gram)
        vocab_sizes.append(int(mask.sum()))
        caught += [f"fold {k}: {msg}" for msg in fold_warnings]

        predictions = _predict(config, model, X_test)
        truth = y[~train]
        fold_accuracies.append(int(np.sum(predictions == truth)) / len(truth))
        tp += int(np.sum((predictions == 1) & (truth == 1)))
        fp += int(np.sum((predictions == 1) & (truth != 1)))
        fn += int(np.sum((predictions != 1) & (truth == 1)))

    mean_acc = sum(fold_accuracies) / len(fold_accuracies)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return EvalReport(
        config=config,
        fold_accuracies=fold_accuracies,
        mean_accuracy=mean_acc,
        feature_count=round(sum(vocab_sizes) / len(vocab_sizes)),
        wall_time=time.perf_counter() - start,
        precision=precision,
        recall=recall,
        warnings=caught,
    )


def run_label_shuffled_control(corpus: Corpus, config: ExperimentConfig,
                               lexicon: SubjectivityLexicon | None = None,
                               transitions: TransitionList | None = None,
                               pipeline: FeaturePipeline | None = None) -> EvalReport:
    """Re-run an experiment with labels permuted by config.seed (chance baseline)."""
    if pipeline is None:
        pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions)
    labels = pipeline.labels()
    random.Random(config.seed).shuffle(labels)
    return run_experiment(corpus, config, pipeline=pipeline, labels_override=labels)


def run_grid(corpus: Corpus, configs: Sequence[ExperimentConfig],
             lexicon: SubjectivityLexicon | None = None,
             transitions: TransitionList | None = None,
             pipeline: FeaturePipeline | None = None,
             results_path: str | Path | None = None,
             progress: Callable[[str], None] | None = None,
             jobs: int = 1) -> tuple[list[EvalReport], list[dict]]:
    """Run every configuration, isolating per-cell failures.

    Completed reports are appended to *results_path* (JSON lines) as they
    finish, so partial grids survive interruption. Returns (reports, errors).
    """
    if not configs:
        raise ConfigError("empty configuration list")
    if pipeline is None:
        pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions)

    reports: list[EvalReport] = []
    errors: list[dict] = []
    sink = open(results_path, "a", encoding="utf-8") if results_path else None
    try:
        for result in _map_cells(corpus, configs, pipeline, jobs):
            cfg, report, error = result
            if progress:
                status = f"{report.mean_accuracy:.3f}" if report else f"error: {error}"
                progress(f"[{cfg.hash()}] {cfg.features} neg={cfg.negation} "
                         f"{cfg.representation.value} {cfg.classifier}: {status}")
            if report:
                reports.append(report)
                if sink:
                    sink.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
                    sink.flush()
            else:
                errors.append({"config": cfg.to_json_dict(), "error": error})
    finally:
        if sink:
            sink.close()
    return reports, errors


def _run_cell(corpus, config, pipeline):
    try:
        return config, run_experiment(corpus, config, pipeline=pipeline), None
    except (ConfigError, DataError) as exc:
        return config, None, str(exc)


# Shared state inherited by forked grid workers; set just before the fork.
_FORK_STATE: dict = {}


def _run_cell_forked(config):
    return _run_cell(_FORK_STATE["corpus"], config, _FORK_STATE["pipeline"])


def _map_cells(corpus, configs, pipeline, jobs):
    workers = min(jobs, len(configs))
    if workers > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            # Warm the matrix cache before forking so workers inherit it.
            for cfg in configs:
                for family in cfg.spec().families:
                    try:
                        pipeline.family_matrix(family, cfg.negation)
                    except ConfigError:
                        pass  # the cell reports it
            _FORK_STATE["corpus"] = corpus
            _FORK_STATE["pipeline"] = pipeline
            try:
                with ctx.Pool(processes=workers) as pool:
                    yield from pool.imap(_run_cell_forked, configs)
                return
            finally:
                _FORK_STATE.clear()
    for config in configs:
        yield _run_cell(corpus, config, pipeline)


def emit_report(reports: Sequence[EvalReport], format: str = "json",
                path: str | Path | None = None) -> str:
    """Render reports as versioned JSON, the flat CSV schema, or a result grid
    in Markdown (best cell per row bolded). Optionally writes to *path*."""
    if format == "json":
        text = json.dumps(
            {"schema_version": 1, "reports": [r.to_json_dict() for r in reports]},
            indent=2, sort_keys=True,
        )
    elif format == "csv":
        text = reports_to_csv(reports)
    elif format == "markdown":
        text = reports_to_markdown(reports)
    else:
        raise ConfigError(f"unknown report format {format!r} (expected json, csv, or markdown)")
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


CSV_HEADER = "config_hash,features,negation,representation,classifier,fold0,fold1,fold2,fold3,fold4,mean,feature_count"


def reports_to_csv(reports: Sequence[EvalReport]) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        c = r.config
        folds = ",".join(f"{a:.6f}" for a in r.fold_accuracies)
        lines.append(
            f"{c.hash()},{c.features},{str(c.negation).lower()},{c.representation.value},"
            f"{c.classifier},{folds},{r.mean_accuracy:.6f},{r.feature_count}"
        )
    return "\n".join(lines) + "\n"


_COLUMNS = [("nb", Representation.PRESENCE), ("nb", Representation.FREQUENCY),
            ("svm", Representation.PRESENCE), ("svm", Representation.FREQUENCY)]


def _row_label(config: ExperimentConfig) -> str:
    return f"{config.features}{' (neg)' if config.negation else ''}"


def reports_to_markdown(reports: Sequence[EvalReport]) -> str:
    rows: dict[str, dict] = {}
    for r in reports:
        row = rows.setdefault(_row_label(r.config), {"count": r.feature_count})
        row[(r.config.classifier, r.config.representation)] = r.mean_accuracy
        row["count"] = max(row["count"], r.feature_count)

    lines = [
        "| Features | # features | NB presence | NB frequency | SVM presence | SVM frequency |",
        "|---|---|---|---|---|---|",
    ]
    for label, cells in rows.items():
        values = [cells.get(col) for col in _COLUMNS]
        present = [v for v in values if v is not None]
        best = max(present) if present else None
        rendered = []
        for v in values:
            if v is None:
                rendered.append("--")
            elif best is not None and abs(v - best) < 5e-7:
                rendered.append(f"**{v:.3f}**")
            else:
                rendered.append(f"{v:.3f}")
        lines.append(f"| {label} | {cells['count']} | " + " | ".join(rendered) + " |")
    return "\n".join(lines) + "\n"
