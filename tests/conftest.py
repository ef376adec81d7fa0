"""Shared fixtures: a synthetic labeled corpus on disk, a tiny subjectivity
lexicon, and helpers for locating the real dataset when available."""

from __future__ import annotations

import dataclasses
import os
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarity.corpus import Corpus, Label, RawDocument, assign_folds, load_corpus
from polarity.errors import DataError
from polarity.features import FeatureSpec
from polarity.lexicon import LexiconEntry, Polarity, SubjectivityLexicon
from polarity.vectorize import CsrMatrix, column_mask
from reference import from_bags, pipeline_bags

DATASET_ENV = "POLARITY_DATA_DIR"
LEXICON_ENV = "POLARITY_LEXICON"

POSITIVE_WORDS = [
    "good", "great", "excellent", "wonderful", "superb", "fantastic",
    "amazing", "brilliant", "enjoyable", "fun",
]
NEGATIVE_WORDS = [
    "bad", "awful", "terrible", "horrible", "boring", "dull",
    "lame", "stupid", "poor", "bland",
]
FILLER_WORDS = [
    "the", "movie", "film", "plot", "actor", "scene", "director",
    "story", "it", "is", "a", "with", "and", "has", "ending",
]


def real_corpus_root() -> Path | None:
    root = os.environ.get(DATASET_ENV)
    if root and (Path(root) / "pos").is_dir() and (Path(root) / "neg").is_dir():
        return Path(root)
    return None


def real_lexicon_path() -> Path | None:
    path = os.environ.get(LEXICON_ENV)
    if path and Path(path).is_file():
        return Path(path)
    return None


requires_dataset = pytest.mark.skipif(
    real_corpus_root() is None,
    reason=f"movie-review corpus not found; point ${DATASET_ENV} at the pos/neg root",
)

requires_lexicon = pytest.mark.skipif(
    real_lexicon_path() is None,
    reason=f"subjectivity clues file not found; point ${LEXICON_ENV} at it",
)


def to_scipy(X: CsrMatrix) -> sp.csr_matrix:
    """*X* as a SciPy CSR matrix over the same arrays, for assertions that index,
    compare or densify it with SciPy as the oracle."""
    return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def from_scipy(A) -> CsrMatrix:
    """A SciPy sparse or a dense matrix as a CsrMatrix: ascending columns, no zeros."""
    A = sp.csr_matrix(A, dtype=np.float64)
    A.sum_duplicates()
    A.eliminate_zeros()
    return CsrMatrix(A.data, A.indices.astype(np.int32), A.indptr.astype(np.int64), A.shape)


# Values for generated matrices: counts with some zeros and a negative, or reals.
INTEGER_VALUES = st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0, -3.0])
COUNT_VALUES = st.sampled_from([0.0, 0.0, 1.0, 2.0, 5.0])
REAL_VALUES = st.just(0.0) | st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@st.composite
def csr_matrices(draw, min_rows=0, min_columns=0, value_sets=(INTEGER_VALUES, REAL_VALUES)):
    """A CsrMatrix of up to 8 x 8 whose values all come from one of *value_sets*."""
    shape = (draw(st.integers(min_rows, 8)), draw(st.integers(min_columns, 8)))
    return from_scipy(draw(arrays(np.float64, shape, elements=draw(st.sampled_from(value_sets)))))


def labeled_matrix(rows, n_features=None):
    """(CsrMatrix, label array) from ``[(pairs, label), ...]``.

    ``pairs`` are (column, value) tuples; a None label becomes 0 (unlabeled).
    The width defaults to the largest column plus one.
    """
    if n_features is None:
        n_features = max((col + 1 for pairs, _ in rows for col, _ in pairs), default=0)
    data, indices, indptr = [], [], [0]
    for pairs, _ in rows:
        for col, value in sorted(pairs):
            indices.append(col)
            data.append(float(value))
        indptr.append(len(indices))
    X = CsrMatrix(np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
                  np.array(indptr, dtype=np.int64), (len(rows), n_features))
    y = np.array([0 if label is None else label for _, label in rows], dtype=np.int64)
    return X, y


def corpus_of(texts) -> Corpus:
    """An in-memory corpus with one document per text, labels alternating."""
    return Corpus(documents=[
        RawDocument(id=f"cv{i:03d}_{i}", label=Label.POSITIVE if i % 2 else Label.NEGATIVE,
                    text=text)
        for i, text in enumerate(texts)])


# The pruning floors the family matrices are checked at.
MIN_COUNTS = [1, 2, 5, 400]


def family_matrix(pipeline, family, negation_variant: bool = False, min_count: int = 1):
    """*family*'s cached matrix at *min_count* (the negated unigram under
    *negation_variant*), through ``FeaturePipeline.family_matrices``."""
    (matrix,) = pipeline.family_matrices(FeatureSpec(frozenset({family}), negation_variant),
                                         min_count)
    return matrix


def assert_matches_bags(pipeline, family, negation: bool, min_count: int) -> None:
    """*family*'s cached matrix at *min_count* equals ``reference.from_bags`` over
    the family's reference bags restricted to the columns reaching *min_count*:
    same features in the same order, same counts. The cached matrix holds those
    columns only. When no feature reaches the floor, both raise the same
    "vocabulary is empty" DataError."""
    reference = from_bags(pipeline_bags(pipeline, family, negation))
    matrix = family_matrix(pipeline, family, negation, min_count)
    try:
        mask = column_mask(reference.counts, min_count)
    except DataError as exc:
        with pytest.raises(DataError) as caught:
            column_mask(matrix.counts, min_count)
        assert str(caught.value) == str(exc)
        assert "vocabulary is empty" in str(exc)
        return
    assert column_mask(matrix.counts, min_count).all()
    assert matrix.features == [f for f, keep in zip(reference.features, mask) if keep]
    expected = to_scipy(reference.counts)[:, mask]
    assert matrix.counts.shape == expected.shape
    assert matrix.counts.data.dtype == np.float64
    assert (to_scipy(matrix.counts) != expected).nnz == 0


def shuffle_labels(corpus: Corpus, seed: int) -> Corpus:
    """The same documents and folds with the labels permuted by *seed* (chance baseline)."""
    labels = [doc.label for doc in corpus.documents]
    random.Random(seed).shuffle(labels)
    documents = [dataclasses.replace(doc, label=label)
                 for doc, label in zip(corpus.documents, labels)]
    return Corpus(documents=documents, folds=dict(corpus.folds))


def write_synthetic_corpus(root: Path, docs_per_label: int = 50, seed: int = 13) -> Path:
    """A small labeled corpus with enough lexical signal to classify well.

    File names follow the cvNNN convention with NNN spread over 0..999 so the
    filename fold mode stays balanced.
    """
    rng = random.Random(seed)
    for label, class_words in (("pos", POSITIVE_WORDS), ("neg", NEGATIVE_WORDS)):
        other = NEGATIVE_WORDS if label == "pos" else POSITIVE_WORDS
        subdir = root / label
        subdir.mkdir(parents=True, exist_ok=True)
        for i in range(docs_per_label):
            lines = []
            for _ in range(rng.randint(3, 6)):
                words = rng.choices(FILLER_WORDS, k=rng.randint(4, 9))
                words += rng.choices(class_words, k=rng.randint(1, 3))
                if rng.random() < 0.15:
                    words.append(rng.choice(other))
                if rng.random() < 0.2:
                    words.insert(rng.randrange(len(words)), "not")
                rng.shuffle(words)
                line = " ".join(words)
                if rng.random() < 0.3:
                    line += " !"
                lines.append(line)
            nnn = (i % 5) * 200 + i // 5  # cycles the cvNNN folds evenly
            (subdir / f"cv{nnn:03d}_{rng.randint(10000, 99999)}.txt").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )
    return root


@pytest.fixture(scope="session")
def synth_corpus_dir(tmp_path_factory) -> Path:
    return write_synthetic_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def synth_corpus(synth_corpus_dir):
    return assign_folds(load_corpus(synth_corpus_dir), mode="filename")


@pytest.fixture()
def tiny_lexicon() -> SubjectivityLexicon:
    entries = {w: [LexiconEntry(Polarity.POS, "any")] for w in POSITIVE_WORDS}
    entries.update({w: [LexiconEntry(Polarity.NEG, "any")] for w in NEGATIVE_WORDS})
    entries["love"] = [LexiconEntry(Polarity.POS, "verb")]
    entries["recommend"] = [LexiconEntry(Polarity.POS, "verb")]
    entries["famous"] = [LexiconEntry(Polarity.POS, "adj")]
    return SubjectivityLexicon(entries=entries)


def pytest_runtest_logreport(report):
    """One visible PASS/FAIL/SKIP line per acceptance criterion."""
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {name}: {outcome}")
    elif report.when == "setup" and report.skipped:
        print(f"\nACCEPTANCE {name}: SKIP ({report.longrepr[2] if report.longrepr else ''})")
