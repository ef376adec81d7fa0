"""Cross-validated experiment harness over the feature/representation/classifier grid.

A FeaturePipeline preprocesses the corpus once, straight from the raw text,
into one token stream: int32 word and tag ids, sentence starts and negation
flags in flat NumPy buffers. That stream is the pipeline's one document
representation. The pipeline caches one sparse count matrix per family, so
a grid of many configurations pays the extraction cost per family, not per
cell. Each family's row of ``features.FAMILIES`` says how the stream is
counted: the six ``Window`` families from integer window keys, and their
matrices hold only the columns whose corpus total reaches the ``min_count``
floor (at least 1); ``pu`` and ``pb`` from keys over each polarized token's
``POL/TAG`` core and its neighbors' ids; ``t`` from keys over each matched
phrase and the content words of its sentence. The last three keep every
column. A cell takes the union of its families' columns, prunes them with a
column mask (once over the corpus, or per fold over the training rows), and
trains on row slices; under corpus scope the SVM Gram matrix is computed
once per cell and sliced per fold.
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
from .corpus import Corpus, N_FOLDS, RawDocument
from .errors import ConfigError, DataError
from .features import CONTENT_BIT, FAMILIES, FeatureFamily, FeatureSpec, Polarized, Transition
from .features import Window, check_resources, parse_feature_spec, tag_bits
from .lexicon import SubjectivityLexicon, TransitionList
from .preprocess import NEGATION_PREFIX, negation_scopes, tokenize, tokenize_pretagged
from .tagging import PretaggedReader, RuleTagger
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
    """The corpus as flat per-token buffers, built in one pass from the raw text.

    ``ids`` holds an int32 word id per token (``words[id]`` is the word) and
    ``tag_ids`` an int32 tag id (``tags[id]`` is the tag); ``starts`` marks
    each sentence's first token, ``tag_bits`` the ``features.tag_bits`` of
    the token's tag and ``negated`` its negation flag. The *i*-th document
    holds tokens ``doc_bounds[i]:doc_bounds[i + 1]``. Each line goes
    through ``preprocess.tokenize`` (or ``tokenize_pretagged``) and only its
    words' ids are kept; tags and negation scopes are computed over the
    whole stream, and no per-token object outlives its line.
    """

    def __init__(self, documents: Sequence[RawDocument], tagger):
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__  # a new word gets the next id
        pretagged = isinstance(tagger, PretaggedReader)
        tag_index: defaultdict[str, int] = defaultdict()
        tag_index.default_factory = tag_index.__len__
        ids, tag_ids = array("i"), array("i")
        sentence_lengths, doc_lengths = array("q"), array("q")
        for doc in documents:
            before = len(ids)
            for line in doc.text.splitlines():
                if pretagged:
                    words, tags = tokenize_pretagged(line, tagger)
                    tag_ids.extend(map(tag_index.__getitem__, tags))
                else:
                    words = tokenize(line)
                if words:
                    ids.extend(map(index.__getitem__, words))
                    sentence_lengths.append(len(words))
            doc_lengths.append(len(ids) - before)
        self.words = list(index)
        self.ids = np.frombuffer(ids, dtype=np.intc)
        lengths = np.frombuffer(sentence_lengths, dtype=np.int64)
        starts = np.zeros(len(ids) + 1, dtype=bool)
        starts[np.cumsum(lengths) - lengths] = True
        self.starts = starts[:-1]
        self.doc_bounds = np.concatenate(([0], np.cumsum(np.frombuffer(doc_lengths, np.int64))))
        if pretagged:
            self.tags, self.tag_ids = list(tag_index), np.frombuffer(tag_ids, dtype=np.intc)
        else:
            self.tags, self.tag_ids = tagger.tag_stream(self.words, self.ids, self.starts)
        bits = np.array([tag_bits(tag) for tag in self.tags], dtype=np.uint8)
        self.tag_bits = bits[self.tag_ids]
        self.negated = negation_scopes(self.words, self.ids, self.starts)
        self._polarity: tuple | None = None

    def window_matrix(self, window: Window, negation_variant: bool, floor: int) -> FeatureMatrix:
        """The count matrix of *window*'s features whose corpus total is >= *floor*.

        Each window becomes an int64 key over its word ids (and, for the
        negated unigram variant, its negation flag); keys are totalled over
        the corpus, and feature strings are built for the survivors only.
        Distinct keys with ``_`` inside a word can spell one feature
        (``a_b c`` and ``a b_c``), so those are totalled by string. The key
        holds one negation flag, so the negated variant is for ``n == 1``.
        """
        n, vocab = window.n, len(self.words)
        if negation_variant and n > 1:
            raise ValueError(f"the negation variant is for one-word windows, not {n}-word ones")
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
        return FeatureMatrix.from_occurrences(np.searchsorted(pos, self.doc_bounds), columns,
                                              features)

    def polarized_matrix(self, row: Polarized, lexicon: SubjectivityLexicon) -> FeatureMatrix:
        """The count matrix of *row*'s features (``pu`` or ``pb``), every column kept.

        Each occurrence is keyed by its polarized token's ``POL/TAG`` core
        and, for ``pb``, the neighbor's word or tag id.
        """
        pos, core, cores = self._polarized(lexicon)
        ns, core = row.namespace, core.astype(np.int64)
        if not row.neighbors:
            return self._keyed_matrix([(pos, core, lambda keys: [f"{ns}:{cores[k]}" for k in keys])])
        continues = np.append(~self.starts[1:], False)  # the next token is in the sentence
        before, after = pos[~self.starts[pos]], pos[continues[pos]]
        core_before, core_after = core[~self.starts[pos]], core[continues[pos]]
        parts = []
        for names, of in [(self.words, self.ids), (self.tags, self.tag_ids)]:
            parts.append((before, of[before - 1].astype(np.int64) * len(cores) + core_before,
                          _pair_names(ns, names, cores)))
            parts.append((after, core_after * len(names) + of[after + 1],
                          _pair_names(ns, cores, names)))
        return self._keyed_matrix(parts)

    def transition_matrix(self, row: Transition, transitions: TransitionList,
                          lexicon: SubjectivityLexicon) -> FeatureMatrix:
        """The count matrix of ``t``'s features, every column kept.

        In each sentence with a phrase match, every content word outside all
        matches is paired with each distinct phrase matched there. An
        occurrence is keyed by (phrase, word id) and, for a polarized word,
        also by (phrase, core id), with the ``POL/TAG`` cores that ``pu``
        and ``pb`` use.
        """
        start, end, phrase = self._phrase_matches(transitions)
        inside = np.zeros(len(self.ids) + 1, dtype=np.intc)  # running sum 1 inside a match
        inside[start] += 1
        inside[end] -= 1
        content = ((self.tag_bits & CONTENT_BIT) != 0) & (np.cumsum(inside[:-1]) == 0)
        content_pos = np.flatnonzero(content)

        # Each distinct (sentence, phrase) pair is repeated once per content
        # word of the sentence: ``at`` holds the words, ``phrase`` the phrases.
        sentence_bounds = np.append(np.flatnonzero(self.starts), len(self.ids))
        phrases = len(transitions.phrases)
        in_sentence = np.searchsorted(sentence_bounds, start, side="right") - 1
        sentence, phrase = np.divmod(np.unique(in_sentence * phrases + phrase), phrases)
        lo = np.searchsorted(content_pos, sentence_bounds[sentence])
        counts = np.searchsorted(content_pos, sentence_bounds[sentence + 1]) - lo
        offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        at = content_pos[offsets + np.arange(len(offsets))]
        phrase = np.repeat(phrase, counts)

        pos, core, cores = self._polarized(lexicon)
        core_at = np.full(len(self.ids), -1, dtype=np.int64)
        core_at[pos] = core
        polar = core_at[at] >= 0
        ns, keys = row.namespace, [p.replace(" ", "_") for p in transitions.phrases]
        return self._keyed_matrix([
            (at, phrase * len(self.words) + self.ids[at], _pair_names(ns, keys, self.words)),
            (at[polar], phrase[polar] * len(cores) + core_at[at[polar]],
             _pair_names(ns, keys, cores)),
        ])

    def _phrase_matches(self, transitions: TransitionList) -> tuple[np.ndarray, ...]:
        """(starts, ends, phrase indices) of the transition matches, in token order.

        A match never crosses a sentence start. Scanning left to right, at
        each position outside an earlier match the first listed phrase that
        fits wins.
        """
        index = {word: i for i, word in enumerate(self.words)}
        found = []  # (start, phrase index, length) arrays, one triple per phrase
        for rank, phrase in enumerate(transitions.phrases):
            ids = [index.get(word, -1) for word in phrase.split()]
            if not ids or -1 in ids:
                continue
            at = np.flatnonzero(self.ids[:max(len(self.ids) - len(ids) + 1, 0)] == ids[0])
            for k in range(1, len(ids)):
                at = at[(self.ids[at + k] == ids[k]) & ~self.starts[at + k]]
            found.append((at, np.full(len(at), rank), np.full(len(at), len(ids))))
        if not found:
            return (np.zeros(0, dtype=np.int64),) * 3
        start, rank, length = (np.concatenate(column) for column in zip(*found))
        order = np.lexsort((rank, start))  # by start, the first listed phrase first
        start, rank, end = start[order], rank[order], start[order] + length[order]
        chosen, free = [], 0
        for i, (at, stop) in enumerate(zip(start.tolist(), end.tolist())):
            if at >= free:
                chosen.append(i)
                free = stop
        return start[chosen], end[chosen], rank[chosen]

    def _keyed_matrix(self, parts) -> FeatureMatrix:
        """The count matrix of occurrences given as (positions, int64 keys, spell) parts.

        ``spell`` names a part's distinct keys. Strings are built for
        distinct keys only, and a column is one distinct string, so keys
        that spell one feature (a pretagged word ``jj`` and the tag ``jj``,
        or words and phrases holding ``_``) share it, as a per-document bag
        of strings totals them.
        """
        spelled, inverses = [], []
        for _, keys, spell in parts:
            distinct, inverse = np.unique(keys, return_inverse=True)
            spelled.append(spell(distinct.tolist()))
            inverses.append(inverse)
        features = sorted(set().union(*spelled))
        column = {feature: j for j, feature in enumerate(features)}
        at = np.concatenate([p[0] for p in parts])
        columns = np.concatenate([
            np.array([column[name] for name in strings], dtype=np.int32)[inverse]
            for strings, inverse in zip(spelled, inverses)])
        order = np.argsort(at, kind="stable")
        return FeatureMatrix.from_occurrences(np.searchsorted(at[order], self.doc_bounds),
                                              columns[order], features)

    def _polarized(self, lexicon: SubjectivityLexicon) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """(positions, core ids, cores): each polarized token and its ``POL/TAG`` core.

        The lexicon is asked once per distinct (word, tag) pair, and the
        answer is kept for the next call with the same lexicon.
        """
        if self._polarity is None or self._polarity[0] is not lexicon:
            listed = np.array([word in lexicon.entries for word in self.words], dtype=bool)
            pos = np.flatnonzero(listed[self.ids])
            pairs = self.ids[pos].astype(np.int64) * len(self.tags) + self.tag_ids[pos]
            distinct, inverse = np.unique(pairs, return_inverse=True)
            cores: dict[str, int] = {}
            core_of_pair = []
            for pair in distinct.tolist():
                word, tag = divmod(pair, len(self.tags))
                pol = lexicon.polarity_of(self.words[word], self.tags[tag])
                core_of_pair.append(-1 if pol is None else
                                    cores.setdefault(f"{pol}/{self.tags[tag]}", len(cores)))
            core = np.array(core_of_pair, dtype=np.intc)[inverse]
            hit = core >= 0
            self._polarity = (lexicon, pos[hit], core[hit], list(cores))
        return self._polarity[1:]


def _pair_names(namespace: str, first: list[str], second: list[str]):
    """Spells a key ``i * len(second) + j`` as ``namespace:first[i]_second[j]``."""
    def spell(keys: list[int]) -> list[str]:
        return [f"{namespace}:{first[i]}_{second[j]}"
                for i, j in (divmod(key, len(second)) for key in keys)]
    return spell


class FeaturePipeline:
    """One token stream plus a per-family count-matrix cache for one corpus.

    The corpus is preprocessed once with *tagger* (a RuleTagger by default)
    into a token stream of word ids, tag ids and negation flags, so the
    negated and plain unigram variants come from the same stream and every
    grid cell reuses the cache regardless of its negation flag. The
    ``Window`` families of ``features.FAMILIES`` keep only the columns that
    reach the requested floor; ``pu``, ``pb`` and ``t`` are counted from the
    same stream and keep every column.
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
            self._tokens = _TokenStream(self.corpus.documents, self.tagger)
        return self._tokens

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
        row = FAMILIES[family]
        neg = negation_variant and family is FeatureFamily.UNIGRAM
        floor = max(min_count, 1) if isinstance(row, Window) else 1
        key = (family, neg, floor)
        if key not in self._matrices:
            if isinstance(row, Window):
                matrix = self._stream().window_matrix(row, neg, floor)
            else:
                check_resources(FeatureSpec(frozenset({family})), self.lexicon, self.transitions)
                if isinstance(row, Polarized):
                    matrix = self._stream().polarized_matrix(row, self.lexicon)
                else:
                    matrix = self._stream().transition_matrix(row, self.transitions, self.lexicon)
            self._matrices[key] = matrix
        return self._matrices[key]

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
            self.X = represent(self.matrix.counts.select_columns(self.mask),
                               config.representation)
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
            return train, self.mask, self.X.select_rows(train), self.X.select_rows(~train), gram
        counts, rep = self.matrix.counts, self.config.representation
        train_counts = counts.select_rows(train)
        mask = column_mask(train_counts, self.config.min_count)
        return (train, mask, represent(train_counts.select_columns(mask), rep),
                represent(counts.select_rows(~train).select_columns(mask), rep), None)

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
