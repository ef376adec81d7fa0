"""Cross-validated experiment harness over the feature/representation/classifier grid.

A FeaturePipeline preprocesses the corpus once into the token stream of
``features._TokenStream`` and caches one sparse count matrix per family row
and floor, so a grid of many configurations pays the extraction cost per
family, not per cell. ``family_matrices`` is the one way in: every family's
matrix holds only the columns whose corpus total reaches the ``min_count``
floor, which it refuses below 1. A cell takes the union of its families'
columns and trains on row slices. Under corpus scope the union is the
vocabulary as it is and the SVM Gram matrix is computed once per cell; every
fold trains on it in place, its held-out rows outside both of SMO's index
sets, so no fold's Gram is copied. Under fold scope each fold prunes the
union with a column mask over its training rows and makes its own Gram.
The pipeline is the harness's one handle: ``run_experiment(pipeline, config)``
and ``run_grid(pipeline, configs)`` read the corpus, its folds, the lexicon,
the transitions and the tagger from it and from nowhere else.
Reports carry per-fold and mean accuracy plus supplementary precision/recall.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linear_svm, naive_bayes
from .corpus import Corpus, N_FOLDS
from .errors import ConfigError, DataError, one_of
from .features import FeatureSpec, _TokenStream, check_resources, parse_feature_spec
from .lexicon import SubjectivityLexicon, TransitionList
from .tagging import RuleTagger
from .vectorize import (FeatureMatrix, Representation, check_min_count, column_mask, represent,
                        require_vocabulary)

try:
    # CPython's own SHA-256 module: hashlib maps OpenSSL's libcrypto, a few
    # MB that no command needs for one 12-character config hash.
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        def sha256(data: bytes):
            import hashlib  # lazy, so that extract, train and predict never load it

            return hashlib.sha256(data)

CLASSIFIERS = ("nb", "svm")
PRUNE_SCOPES = ("fold", "corpus")
# The four cells of a grid row, in the order every grid output lists them.
GRID_COLUMNS = tuple((clf, rep) for clf in CLASSIFIERS for rep in Representation)


def parse_representation(value) -> Representation:
    if isinstance(value, Representation):
        return value
    return Representation(one_of("representation", str(value).lower(),
                                 [r.value for r in Representation]))


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
        one_of("classifier", self.classifier, CLASSIFIERS)
        one_of("prune scope", self.prune_scope, PRUNE_SCOPES)
        check_min_count(self.min_count)
        linear_svm.check_solver_limits(self.tol, self.max_epochs, self.C)
        object.__setattr__(self, "representation", parse_representation(self.representation))
        # Normalizes the family string and rejects unknown tokens up front.
        object.__setattr__(self, "features", self.spec().canonical())

    def spec(self) -> FeatureSpec:
        return parse_feature_spec(self.features, negation=self.negation)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "representation": self.representation.value}

    def hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True)
        return sha256(blob.encode()).hexdigest()[:12]


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
        return {**asdict(self), "config_hash": self.config.hash(),
                "config": self.config.to_json_dict()}


class FeaturePipeline:
    """One token stream plus a per-family count-matrix cache for one corpus.

    The corpus is preprocessed once with *tagger* (a RuleTagger by default)
    into a token stream of word ids, whose tag ids and negation flags are
    computed when a family first reads them, so the negated and plain
    unigram variants come from the same stream. The cache is keyed by
    ``(row, floor)``, a ``FeatureSpec.rows`` row and the floor, so every grid
    cell reuses it whatever its other families and negation flag. Every
    family keeps only the columns that reach the requested floor. The stream
    is built when a family first needs it (or by ``tokenize``), reading each
    review while it is tokenized. A caller that will ask for no new family can drop it
    with ``release_tokens``; the cached matrices stay.
    """

    def __init__(self, corpus: Corpus,
                 lexicon: SubjectivityLexicon | None = None,
                 transitions: TransitionList | None = None,
                 tagger=None):
        self.corpus = corpus
        self.lexicon = lexicon
        self.transitions = transitions
        self.tagger = tagger or RuleTagger()
        self._tokens: _TokenStream | None = None
        self._matrices: dict[tuple, FeatureMatrix] = {}

    def _stream(self) -> _TokenStream:
        if self._tokens is None:
            self._tokens = _TokenStream(self.corpus.documents, self.tagger,
                                        self.lexicon, self.transitions)
        return self._tokens

    def tokenize(self) -> None:
        """Build the token stream now; DataError when a review cannot be read."""
        self._stream()

    def release_tokens(self) -> None:
        """Drop the token stream. A family asked for later builds it again."""
        self._tokens = None

    def labels(self) -> list[int]:
        return [doc.label.sign for doc in self.corpus.documents]

    def family_matrices(self, spec: FeatureSpec, min_count: int) -> list[FeatureMatrix]:
        """The count matrix of each of ``spec.rows()``, in that order, each built
        on first use and cached under ``(row, min_count)``.

        A matrix keeps only the columns whose corpus total reaches
        *min_count*. That is exact for either prune scope, since no fold's
        training total exceeds the corpus total. A floor below 1, or a
        missing lexicon or transition list, fails before any family is built.
        """
        check_min_count(min_count)
        check_resources(spec, self.lexicon, self.transitions)
        keys = [(row, min_count) for row in spec.rows()]
        for key in keys:
            if key not in self._matrices:
                self._matrices[key] = self._stream().matrix(*key)
        return [self._matrices[key] for key in keys]


class _Cell:
    """One configuration over a pipeline's corpus, trained fold by fold.

    The cell makes every Gram matrix its SVM folds train on. Under
    prune_scope="corpus" the union is the vocabulary as it is (every family
    matrix holds only the columns that reach the floor), and the Gram is
    computed once here and every fold trains on it, passing its training
    rows; under "fold" each fold prunes on its own training rows and
    computes its own. Nothing outlives the cell.
    """

    def __init__(self, pipeline: FeaturePipeline, config: ExperimentConfig):
        corpus = pipeline.corpus
        if not corpus.folds:
            raise ConfigError("corpus has no fold assignment; call assign_folds first")
        self.config = config
        self.folds = np.array([corpus.folds[doc.id] for doc in corpus.documents])
        self.matrix = FeatureMatrix.union(pipeline.family_matrices(config.spec(),
                                                                   config.min_count))
        self.y = np.array(pipeline.labels())
        self.gram = None
        if config.prune_scope == "corpus":
            # The union holds only columns that reach the floor: every one is kept.
            counts = require_vocabulary(self.matrix.counts, config.min_count)
            if config.classifier == "svm":
                self.gram = linear_svm.gram_matrix(represent(counts, config.representation))

    def train_fold(self, fold: int):
        """(model, train rows, fold-scope column mask or None, X_test) with
        *fold* held out. The held-out documents contribute to neither the
        model nor the mask, which the no-leakage test asserts.
        """
        train = self.folds != fold
        if train.all() or not train.any():
            raise DataError(f"fold {fold} leaves an empty train or test split")
        config, counts = self.config, self.matrix.counts
        X_train, X_test = counts.select_rows(train), counts.select_rows(~train)
        mask = None
        if config.prune_scope == "fold":
            mask = column_mask(X_train, config.min_count)
            X_train, X_test = X_train.select_columns(mask), X_test.select_columns(mask)
        X_train = represent(X_train, config.representation)
        X_test = represent(X_test, config.representation)
        if config.classifier == "nb":
            model = naive_bayes.train_nb(X_train, self.y[train])
        else:
            gram, rows = self.gram, train
            if gram is None:
                gram, rows = linear_svm.gram_matrix(X_train), None
            model = linear_svm.train_svm(X_train, self.y[train], C=config.C, tol=config.tol,
                                         max_epochs=config.max_epochs, gram=gram, rows=rows)
        return model, train, mask, X_test


def run_experiment(pipeline: FeaturePipeline, config: ExperimentConfig) -> EvalReport:
    """Five-fold cross-validate one configuration over ``pipeline.corpus``.

    Each fold trains on the other four; with prune_scope="fold" the
    vocabulary is rebuilt from training documents only, with "corpus" it is
    counted once over all documents (the replication setting).
    """
    start = time.perf_counter()
    cell = _Cell(pipeline, config)
    predict = naive_bayes.predict_nb if config.classifier == "nb" else linear_svm.predict_svm

    fold_accuracies: list[float] = []
    vocab_sizes: list[int] = []
    fold_warnings: list[str] = []
    tp = fp = fn = 0
    for k in range(N_FOLDS):
        model, train, _, X_test = cell.train_fold(k)
        vocab_sizes.append(X_test.shape[1])
        if config.classifier == "svm" and not model.meta.converged:
            fold_warnings.append(f"fold {k}: {model.meta.warning}")

        predictions = predict(model, X_test)[0]
        truth = cell.y[~train]
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
        warnings=fold_warnings,
    )


def run_grid(pipeline: FeaturePipeline, configs: Sequence[ExperimentConfig],
             results_path: str | Path | None = None,
             progress: Callable[[str], None] | None = None,
             jobs: int = 1) -> tuple[list[EvalReport], list[dict]]:
    """Run every configuration over the one shared *pipeline*, isolating per-cell failures.

    Completed reports are appended to *results_path* (JSON lines) as they
    finish, so partial grids survive interruption. Returns (reports, errors).
    """
    if not configs:
        raise ConfigError("empty configuration list")

    # Every cell reads the stream: a review that cannot be read fails the
    # grid here, not each cell.
    pipeline.tokenize()
    reports: list[EvalReport] = []
    errors: list[dict] = []
    sink = open(results_path, "a", encoding="utf-8") if results_path else None
    try:
        for result in _map_cells(pipeline, configs, jobs):
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


def _run_cell(pipeline, config):
    try:
        return config, run_experiment(pipeline, config), None
    except (ConfigError, DataError) as exc:
        return config, None, str(exc)


# Shared state inherited by forked grid workers; set just before the fork.
_FORK_STATE: dict = {}


def _run_cell_forked(config):
    return _run_cell(_FORK_STATE["pipeline"], config)


def _map_cells(pipeline, configs, jobs):
    workers = min(jobs, len(configs))
    if workers > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:
            ctx = None
        if ctx is not None:
            # Warm the matrix cache before forking so workers inherit it,
            # with the stream annotations (tags, negation) those matrices read.
            for cfg in configs:
                try:
                    pipeline.family_matrices(cfg.spec(), cfg.min_count)
                except ConfigError:
                    pass  # the cell reports it
            _FORK_STATE["pipeline"] = pipeline
            try:
                with ctx.Pool(processes=workers) as pool:
                    yield from pool.imap(_run_cell_forked, configs)
                return
            finally:
                _FORK_STATE.clear()
    for config in configs:
        yield _run_cell(pipeline, config)


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
        values = [cells.get(col) for col in GRID_COLUMNS]
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


def _reports_to_json(reports: Sequence[EvalReport]) -> str:
    return json.dumps({"schema_version": 1, "reports": [r.to_json_dict() for r in reports]},
                      indent=2, sort_keys=True)


REPORT_FORMATS = {"json": _reports_to_json, "csv": reports_to_csv, "markdown": reports_to_markdown}


def emit_report(reports: Sequence[EvalReport], format: str = "json",
                path: str | Path | None = None) -> str:
    """Render reports in one of ``REPORT_FORMATS``: versioned JSON, the flat CSV
    schema, or a result grid in Markdown (best cell per row bolded). Optionally
    writes to *path*."""
    text = REPORT_FORMATS[one_of("report format", format, REPORT_FORMATS)](reports)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
