"""The cached family matrices against the bag reference, at every pruning floor.

For each of the six word/tag families (and the negated unigram variant),
``FeaturePipeline.family_matrix`` restricted to the columns that reach
``min_count`` must equal ``FeatureMatrix.from_bags`` over the family's bags
restricted the same way: same features in the same order, same counts. When
no feature reaches the floor, both paths raise the same "vocabulary is
empty" DataError. The corpora are the golden corpus under the built-in
tagger and a pretagged corpus with ``_`` inside words, an empty document
and one-word sentences.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from polarity.corpus import load_corpus
from polarity.errors import DataError
from polarity import evaluation
from polarity.evaluation import FeaturePipeline
from polarity.features import WINDOW_FAMILIES, FeatureFamily
from polarity.tagging import get_tagger
from polarity.vectorize import FeatureMatrix, column_mask

CORPUS = Path(__file__).parent / "golden" / "corpus"
WORD_FAMILIES = [FeatureFamily.UNIGRAM, FeatureFamily.BIGRAM, FeatureFamily.TRIGRAM,
                 FeatureFamily.ADJECTIVE, FeatureFamily.ADJADV_BIGRAM, FeatureFamily.ADJADV_TRIGRAM]
VARIANTS = [(family, False) for family in WORD_FAMILIES] + [(FeatureFamily.UNIGRAM, True)]
MIN_COUNTS = [1, 2, 5, 400]

# Words with "_" make features whose strings collide across keys:
# ("a_b", "c") and ("a", "b_c") are both "b:a_b_c".
_PRETAGGED_WORDS = ["a", "b", "c", "a_b", "b_c", "new", "york", "new_york", "york_city",
                    "city", "not", "very", "good", "!"]
_PRETAGGED_TAGS = ["JJ", "RB", "NN", "VB", "DT", "JJS", "RBR"]


def write_pretagged_corpus(root: Path) -> Path:
    rng = random.Random(3)
    for i in range(16):
        label = "pos" if i % 2 else "neg"
        lines = []
        if i != 5:  # document 5 stays empty
            for _ in range(rng.randint(1, 6)):
                length = 1 if rng.random() < 0.25 else rng.randint(2, 7)
                tokens = []
                for _ in range(length):
                    word = rng.choice(_PRETAGGED_WORDS)
                    tokens.append("!" if word == "!" else f"{word}_{rng.choice(_PRETAGGED_TAGS)}")
                lines.append(" ".join(tokens))
        path = root / label / f"cv{i:03d}_{i}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def golden_pipeline():
    return FeaturePipeline(load_corpus(CORPUS))


@pytest.fixture(scope="module")
def pretagged_pipeline(tmp_path_factory):
    root = write_pretagged_corpus(tmp_path_factory.mktemp("pretagged_underscore"))
    return FeaturePipeline(load_corpus(root), tagger=get_tagger("pretagged"))


def pruned_family_matrix(pipeline, family, negation, min_count):
    """(features, counts) of the family's matrix over the columns reaching *min_count*.

    The cached matrix holds those columns only.
    """
    matrix = pipeline.family_matrix(family, negation, min_count)
    mask = column_mask(matrix.counts, min_count)
    assert mask.all()
    return matrix.features, matrix.counts


def assert_matches_bags(pipeline, family, negation, min_count):
    reference = FeatureMatrix.from_bags(pipeline.family_bags(family, negation))
    try:
        mask = column_mask(reference.counts, min_count)
    except DataError as exc:
        with pytest.raises(DataError) as caught:
            pruned_family_matrix(pipeline, family, negation, min_count)
        assert str(caught.value) == str(exc)
        assert "vocabulary is empty" in str(exc)
        return
    features, counts = pruned_family_matrix(pipeline, family, negation, min_count)
    assert features == [f for f, keep in zip(reference.features, mask) if keep]
    expected = reference.counts[:, mask]
    assert counts.shape == expected.shape
    assert counts.dtype == np.float64
    assert (counts != expected).nnz == 0


IDS = [f"{f.value}{'-neg' if n else ''}-min{m}" for f, n in VARIANTS for m in MIN_COUNTS]
CASES = [(f, n, m) for f, n in VARIANTS for m in MIN_COUNTS]


@pytest.mark.parametrize("family,negation,min_count", CASES, ids=IDS)
def test_golden_family_matrix_matches_bags(golden_pipeline, family, negation, min_count):
    assert_matches_bags(golden_pipeline, family, negation, min_count)


@pytest.mark.parametrize("family,negation,min_count", CASES, ids=IDS)
def test_pretagged_family_matrix_matches_bags(pretagged_pipeline, family, negation, min_count):
    assert_matches_bags(pretagged_pipeline, family, negation, min_count)


def test_pretagged_corpus_shape(pretagged_pipeline):
    """The corpus holds what the cases above rely on."""
    documents = pretagged_pipeline.documents
    assert any(not doc.sentences for doc in documents)
    assert any(len(s.words) == 1 for doc in documents for s in doc.sentences)
    assert any("_" in w for doc in documents for s in doc.sentences for w in s.words)
    assert any(any(s.negated) for doc in documents for s in doc.sentences)


def test_renumbered_keys_give_the_same_matrix(golden_pipeline, monkeypatch):
    """Keys that would pass the int64 bound are renumbered densely first."""
    expected = {n: golden_pipeline.family_matrix(family, min_count=2)
                for n, family in [(2, FeatureFamily.BIGRAM), (3, FeatureFamily.TRIGRAM)]}
    monkeypatch.setattr(evaluation, "_MAX_KEY", len(golden_pipeline._tokens.words) ** 2 - 1)
    for n, family in [(2, FeatureFamily.BIGRAM), (3, FeatureFamily.TRIGRAM)]:
        window = WINDOW_FAMILIES[family]
        matrix = golden_pipeline._tokens.window_matrix(window, False, 2)
        assert matrix.features == expected[n].features
        assert (matrix.counts != expected[n].counts).nnz == 0
