"""Cross-validated experiment harness over the feature/representation/classifier grid.

A FeaturePipeline preprocesses the corpus once into ``Sentence`` tuples
(words, tags, negation mask) and caches one sparse count matrix per family,
so a grid of many configurations pays the extraction cost per family, not
per cell. The six word/tag families of ``features.WINDOW_FAMILIES`` are
counted from one token stream of integer word ids, and their matrices hold
only the columns whose corpus total reaches the ``min_count`` floor (at
least 1); ``pu``, ``pb`` and ``t`` are extracted as bags through
``features.EXTRACTORS`` and keep every column. A cell takes the union of its
families' columns, prunes them with a column mask (once over the corpus, or
per fold over the training rows), and trains on row slices; under corpus
scope the SVM Gram matrix is computed once per cell and sliced per fold.
The pipeline is the harness's one handle: ``run_experiment(pipeline, config)``
and ``run_grid(pipeline, configs)`` read the corpus, its folds, the lexicon,
the transitions and the tagger from it and from nowhere else.
Reports carry per-fold and mean accuracy plus supplementary precision/recall.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import linear_svm, naive_bayes
from .corpus import Corpus, N_FOLDS
from .errors import ConfigError, DataError
from .features import EXTRACTORS, TAG_BITS, WINDOW_FAMILIES, FeatureBag, FeatureFamily
from .features import FeatureSpec, Window, check_resources, parse_feature_spec
from .lexicon import SubjectivityLexicon, TransitionList
from .preprocess import NEGATION_PREFIX, Document, preprocess_document
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
        linear_svm.check_solver_limits(self.tol, self.max_epochs)
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


# Window keys are built as base-V numbers over the word ids; a product that
# could pass this bound is renumbered densely first.
_MAX_KEY = np.iinfo(np.int64).max


class _TokenStream:
    """The corpus as flat per-token buffers, built once from the documents.

    ``ids`` holds an int32 word id per token (``words[id]`` is the word),
    ``starts`` marks each sentence's first token, ``tag_bits`` the token's
    ``features.TAG_BITS`` and ``negated`` its negation flag; ``doc_lengths``
    holds the tokens of each document.
    """

    def __init__(self, documents: Sequence[Document]):
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__  # a new word gets the next id
        bits = defaultdict(int, TAG_BITS)
        ids, tag_bits, negated = array("i"), bytearray(), bytearray()
        sentence_lengths, doc_lengths = array("q"), array("q")
        for doc in documents:
            before = len(ids)
            for words, tags, neg in doc.sentences:
                ids.extend(map(index.__getitem__, words))
                tag_bits.extend(map(bits.__getitem__, tags))
                negated.extend(neg)
                sentence_lengths.append(len(words))
            doc_lengths.append(len(ids) - before)
        self.words = list(index)
        self.ids = np.frombuffer(ids, dtype=np.intc)
        self.tag_bits = np.frombuffer(tag_bits, dtype=np.uint8)
        self.negated = np.frombuffer(negated, dtype=np.uint8)
        self.doc_lengths = np.frombuffer(doc_lengths, dtype=np.int64)
        lengths = np.frombuffer(sentence_lengths, dtype=np.int64)
        starts = np.zeros(len(ids) + 1, dtype=bool)
        starts[np.cumsum(lengths) - lengths] = True
        self.starts = starts[:-1]

    def window_matrix(self, window: Window, negation_variant: bool, floor: int) -> FeatureMatrix:
        """The count matrix of *window*'s features whose corpus total is >= *floor*.

        Each window becomes an int64 key over its word ids (and, for the
        negated unigram variant, its negation flag); keys are totalled over
        the corpus, and feature strings are built for the survivors only.
        Distinct keys with ``_`` inside a word can spell one feature
        (``a_b c`` and ``a b_c``), so those are totalled by string.
        """
        n, vocab = window.n, len(self.words)
        size = max(len(self.ids) - n + 1, 0)
        keep = np.ones(size, dtype=bool)
        for k in range(1, n):
            keep &= ~self.starts[k:k + size]
        if window.tag_bits:
            tagged = np.zeros(size, dtype=bool)
            for k in range(n):
                tagged |= (self.tag_bits[k:k + size] & window.tag_bits) != 0
            keep &= tagged
        pos = np.flatnonzero(keep)

        keys, span = self.ids[pos].astype(np.int64), vocab
        if negation_variant:
            keys, span = 2 * keys + self.negated[pos], 2 * vocab
        for k in range(1, n):
            if span * vocab > _MAX_KEY:
                _, keys = np.unique(keys, return_inverse=True)
                span = int(keys.max()) + 1
            keys, span = keys * vocab + self.ids[pos + k], span * vocab

        # Windows sorted by key form one run per distinct key: its total is
        # the run's length, and the run's first window spells its feature.
        # Each large temporary is dropped as soon as it is used, which keeps
        # the build's peak memory below that of per-document bags.
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        del keys
        runs = np.flatnonzero(first)
        del first
        totals = np.diff(runs, append=len(order))
        spelled_at = pos[order[runs]]

        def names(chosen: np.ndarray) -> list[str]:
            at = spelled_at[chosen]
            columns = [[self.words[i] for i in self.ids[at + k].tolist()] for k in range(n)]
            if negation_variant:
                columns[0] = [NEGATION_PREFIX + w if neg else w
                              for w, neg in zip(columns[0], self.negated[at].tolist())]
            return [f"{window.namespace}:{'_'.join(parts)}" for parts in zip(*columns)]

        survives = totals >= floor
        if n > 1:
            underscored = np.array(["_" in w for w in self.words], dtype=bool)
            merged = np.zeros(len(totals), dtype=bool)
            for k in range(n):
                merged |= underscored[self.ids[spelled_at + k]]
            chosen = np.flatnonzero(merged)
            if chosen.size:
                spelled = names(chosen)
                by_name: Counter = Counter()
                for name, total in zip(spelled, totals[chosen].tolist()):
                    by_name[name] += total
                survives[chosen] = [by_name[name] >= floor for name in spelled]

        chosen = np.flatnonzero(survives)
        spelled = names(chosen)
        features = sorted(set(spelled))
        column = {feature: j for j, feature in enumerate(features)}
        column_of_key = np.full(len(totals), -1, dtype=np.int32)
        column_of_key[chosen] = [column[name] for name in spelled]
        columns = np.empty(len(pos), dtype=np.int32)  # per window, in token order
        columns[order] = np.repeat(column_of_key, totals)
        del order
        hit = columns >= 0
        pos, columns = pos[hit], columns[hit]
        doc_bounds = np.concatenate(([0], np.cumsum(self.doc_lengths)))
        return FeatureMatrix.from_occurrences(np.searchsorted(pos, doc_bounds), columns,
                                              features)


class FeaturePipeline:
    """Shared preprocessing plus a per-family count-matrix cache for one corpus.

    Documents are preprocessed once with *tagger* (a RuleTagger by default).
    Every Sentence carries its negation mask, so the negated and plain
    unigram variants both come from the same documents and every grid cell
    reuses the cache regardless of its negation flag. The six families of
    ``features.WINDOW_FAMILIES`` are counted from one token stream of word
    ids and keep only the columns that reach the requested floor; ``pu``,
    ``pb`` and ``t`` are extracted as bags through ``features.EXTRACTORS``,
    which live only while their matrix is built.
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
        self._tokens: _TokenStream | None = None
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

    def family_matrix(self, family: FeatureFamily, negation_variant: bool = False,
                      min_count: int = 1) -> FeatureMatrix:
        """The cached count matrix of *family*, built on first use.

        A window family keeps only the columns whose corpus total reaches
        ``max(min_count, 1)``. That is exact for either prune scope, since
        no fold's training total exceeds the corpus total. ``pu``, ``pb``
        and ``t`` keep every column.
        """
        neg = negation_variant and family is FeatureFamily.UNIGRAM
        window = WINDOW_FAMILIES.get(family)
        floor = max(min_count, 1) if window else 1
        key = (family, neg, floor)
        if key not in self._matrices:
            if window is None:
                self._matrices[key] = FeatureMatrix.from_bags(self.family_bags(family, neg))
            else:
                if self._tokens is None:
                    self._tokens = _TokenStream(self.documents)
                self._matrices[key] = self._tokens.window_matrix(window, neg, floor)
        return self._matrices[key]

    def family_bags(self, family: FeatureFamily, negation_variant: bool = False) -> list[FeatureBag]:
        """One bag per document for *family*, extracted afresh (not cached)."""
        check_resources(FeatureSpec(frozenset({family})), self.lexicon, self.transitions)
        extractor = EXTRACTORS[family]
        return [extractor(doc, self.lexicon, self.transitions, negation_variant)
                for doc in self.documents]

    def matrix_for_spec(self, spec: FeatureSpec, min_count: int = 1) -> FeatureMatrix:
        """The union of the spec's family matrices, columns in lexicographic order.

        Columns below *min_count* may be left out (see ``family_matrix``). A
        missing lexicon or transition list fails before any family is built.
        """
        check_resources(spec, self.lexicon, self.transitions)
        return FeatureMatrix.union([
            self.family_matrix(f, spec.negation_variant, min_count)
            for f in FeatureFamily if f in spec.families
        ])


class _Cell:
    """One configuration over a pipeline's corpus, trained fold by fold.

    Under prune_scope="corpus" the column mask, the represented matrix and
    (for the SVM) the Gram matrix are computed once here and sliced per fold;
    under "fold" each fold prunes on its own training rows. Nothing outlives
    the cell.
    """

    def __init__(self, pipeline: FeaturePipeline, config: ExperimentConfig):
        corpus = pipeline.corpus
        if not corpus.folds:
            raise ConfigError("corpus has no fold assignment; call assign_folds first")
        self.config = config
        self.folds = np.array([corpus.folds[doc.id] for doc in corpus.documents])
        self.matrix = pipeline.matrix_for_spec(config.spec(), config.min_count)
        self.y = np.array(pipeline.labels())
        self.mask = self.X = self.gram = None
        if config.prune_scope == "corpus":
            self.mask = column_mask(self.matrix.counts, config.min_count)
            self.X = represent(self.matrix.counts[:, self.mask], config.representation)
            if config.classifier == "svm":
                self.gram = linear_svm.gram_matrix(self.X)

    def split(self, fold: int):
        """(train rows, column mask, X_train, X_test, training Gram or None)."""
        train = self.folds != fold
        if train.all() or not train.any():
            raise DataError(f"fold {fold} leaves an empty train or test split")
        if self.X is not None:
            # Slicing the transpose and transposing back keeps the fold's
            # Gram column-major, as train_svm reads it, without a second copy.
            gram = None if self.gram is None else self.gram.T[np.ix_(train, train)].T
            return train, self.mask, self.X[train], self.X[~train], gram
        counts, rep = self.matrix.counts, self.config.representation
        train_counts = counts[train]
        mask = column_mask(train_counts, self.config.min_count)
        return (train, mask, represent(train_counts[:, mask], rep),
                represent(counts[~train][:, mask], rep), None)

    def train_fold(self, fold: int):
        """(model, train rows, column mask, X_test) with *fold* held out.

        Under prune_scope="fold" the held-out documents contribute to neither
        the model nor the mask, which the no-leakage test asserts.
        """
        train, mask, X_train, X_test, gram = self.split(fold)
        config = self.config
        if config.classifier == "nb":
            model = naive_bayes.train_nb(X_train, self.y[train])
        else:
            model = linear_svm.train_svm(X_train, self.y[train], C=config.C, tol=config.tol,
                                         max_epochs=config.max_epochs, gram=gram)
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
        model, train, mask, X_test = cell.train_fold(k)
        vocab_sizes.append(int(mask.sum()))
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
            # Warm the matrix cache before forking so workers inherit it.
            for cfg in configs:
                for family in cfg.spec().families:
                    try:
                        pipeline.family_matrix(family, cfg.negation, cfg.min_count)
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
