"""The cached family matrices against the bag reference, at every pruning floor.

For each ``Window`` row of ``features.FAMILIES`` (and the negated unigram
variant), ``FeaturePipeline.family_matrix`` restricted to the columns that
reach ``min_count`` must equal ``FeatureMatrix.from_bags`` over the family's
``extract_window`` bags restricted the same way: same features in the same
order, same counts. When no feature reaches the floor, both paths raise the
same "vocabulary is empty" DataError. The corpora are the golden corpus
under the built-in tagger and a pretagged corpus with ``_`` inside words,
an empty document and one-word sentences.

The ``Polarized`` rows (``pu`` and ``pb``) keep every column, and their
matrices must equal ``FeatureMatrix.from_bags`` over the
``extract_polarized_*`` bags, on the golden corpus and on a pretagged corpus
where a lowercase tag spells a word (``jj_NN`` beside ``good_jj``), so that
a word key and a tag key spell one ``pb`` feature. Both rows together ask
the lexicon once per distinct (word, tag) pair.
"""

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from polarity.corpus import Corpus, Label, RawDocument, load_corpus
from polarity.errors import DataError
from polarity import evaluation
from polarity.evaluation import FeaturePipeline
from polarity.features import FAMILIES, FeatureFamily, Window, extract_window
from polarity.lexicon import ANYPOS, LexiconEntry, Polarity, SubjectivityLexicon, load_lexicon
from polarity.preprocess import preprocess_document
from polarity.tagging import get_tagger
from polarity.vectorize import FeatureMatrix, column_mask

CORPUS = Path(__file__).parent / "golden" / "corpus"
VARIANTS = ([(family, False) for family, row in FAMILIES.items() if isinstance(row, Window)]
            + [(FeatureFamily.UNIGRAM, True)])
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
        matrix = golden_pipeline._tokens.window_matrix(FAMILIES[family], False, 2)
        assert matrix.features == expected[n].features
        assert (matrix.counts != expected[n].counts).nnz == 0


def test_negated_windows_wider_than_one_word_are_refused():
    """The key holds one negation flag, so a negated bigram would come out
    as ``b:NOT_very_good`` where the bag reference has ``b:NOT_very_NOT_good``."""
    raw = RawDocument(id="cv000_0", label=Label.POSITIVE, text="it is not very good at all")
    bigram = FAMILIES[FeatureFamily.BIGRAM]
    assert "b:NOT_very_NOT_good" in extract_window(preprocess_document(raw), bigram, True)
    pipeline = FeaturePipeline(Corpus(documents=[raw]))
    pipeline.family_matrix(FeatureFamily.UNIGRAM, negation_variant=True)
    for row in FAMILIES.values():
        if isinstance(row, Window) and row.n > 1:
            with pytest.raises(ValueError):
                pipeline._tokens.window_matrix(row, True, 1)


POLARIZED = [FeatureFamily.POLARIZED_UNIGRAM, FeatureFamily.POLARIZED_BIGRAM]

# A word that spells a lowercase tag ("jj_NN" beside "good_jj"), words with
# "_", and a word whose polarity depends on its tag ("fine").
_POLARIZED_LINES = ["jj_NN good_jj very_RB", "x_jj good_jj not_RB bad_JJ !", "good_jj jj_NN",
                    "bad_JJ x_jj", "new_york_NN fine_JJ a_b_jj", "fine_NN good_jj", "good_jj",
                    "..."]
POLARIZED_LEXICON = SubjectivityLexicon(entries={
    "good": [LexiconEntry(Polarity.POS, ANYPOS)],
    "bad": [LexiconEntry(Polarity.NEG, "adj")],
    "fine": [LexiconEntry(Polarity.POS, "adj"), LexiconEntry(Polarity.NEG, "noun")],
    "new_york": [LexiconEntry(Polarity.POS, "noun")],
    "jj": [LexiconEntry(Polarity.NEG, ANYPOS)],
})


@dataclass
class CountingLexicon(SubjectivityLexicon):
    """Counts ``polarity_of`` calls per (word, tag) pair."""

    calls: Counter = field(default_factory=Counter)

    def polarity_of(self, word, pos):
        self.calls[word, pos] += 1
        return super().polarity_of(word, pos)


def write_polarized_corpus(root: Path) -> Path:
    rng = random.Random(11)
    for i in range(8):
        label = "pos" if i % 2 else "neg"
        lines = _POLARIZED_LINES[:2] if i == 0 else rng.sample(_POLARIZED_LINES, 3)
        path = root / label / f"cv{i:03d}_{i}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def polarized_corpora(tmp_path_factory):
    root = write_polarized_corpus(tmp_path_factory.mktemp("pretagged_polarized"))
    return {
        "golden": (load_corpus(CORPUS), load_lexicon(CORPUS / "lexicon.tsv", format="tsv"),
                   get_tagger("builtin")),
        "pretagged": (load_corpus(root), POLARIZED_LEXICON, get_tagger("pretagged")),
    }


@pytest.mark.parametrize("corpus_name", ["golden", "pretagged"])
@pytest.mark.parametrize("family", POLARIZED, ids=[f.value for f in POLARIZED])
def test_polarized_family_matrix_matches_bags(polarized_corpora, corpus_name, family):
    corpus, lexicon, tagger = polarized_corpora[corpus_name]
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, tagger=tagger)
    matrix = pipeline.family_matrix(family, min_count=5)
    expected = FeatureMatrix.from_bags(pipeline.family_bags(family))
    assert expected.features
    assert matrix.features == expected.features
    assert matrix.counts.dtype == np.float64
    assert matrix.counts.shape == expected.counts.shape
    assert (matrix.counts != expected.counts).nnz == 0


def test_word_and_tag_that_spell_one_pb_feature_merge(polarized_corpora):
    """In the first document, ``jj_NN good_jj`` (the word ``jj``) and
    ``x_jj good_jj`` (the tag ``jj``) both give ``pb:jj_POS/jj``."""
    corpus, lexicon, tagger = polarized_corpora["pretagged"]
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, tagger=tagger)
    matrix = pipeline.family_matrix(FeatureFamily.POLARIZED_BIGRAM)
    column = matrix.features.index("pb:jj_POS/jj")
    assert corpus.documents[0].text.startswith("jj_NN good_jj")
    assert matrix.counts[0, column] == 2


@pytest.mark.parametrize("corpus_name", ["golden", "pretagged"])
def test_polarity_looked_up_once_per_word_and_tag(polarized_corpora, corpus_name):
    corpus, lexicon, tagger = polarized_corpora[corpus_name]
    counting = CountingLexicon(entries=lexicon.entries)
    pipeline = FeaturePipeline(corpus, lexicon=counting, tagger=tagger)
    for family in POLARIZED:
        pipeline.family_matrix(family)
    assert counting.calls
    assert max(counting.calls.values()) == 1
