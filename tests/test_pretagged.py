"""The pretagged reader against the built-in tagger, and the union matrix
against the family bags: both paths into the nine feature families must give
the same matrices.

The golden corpus is tagged by the built-in tagger and written back out as
``word_TAG`` lines; reading that copy with ``--tagger pretagged`` must yield
the same family matrix for every family and both unigram variants. A tag's
class is read case-insensitively, so ``good_jj`` is an adjective as
``good_JJ`` is.
"""

from collections import Counter
from pathlib import Path

import pytest

from conftest import corpus_of, family_matrix, to_scipy
from polarity.corpus import load_corpus
from polarity.evaluation import FeaturePipeline
from polarity.features import FeatureFamily, FeatureSpec
from polarity.lexicon import ANYPOS, LexiconEntry, Polarity, SubjectivityLexicon
from polarity.lexicon import load_lexicon, load_transitions
from polarity.tagging import get_tagger
from polarity.vectorize import FeatureMatrix
from reference import from_bags, pipeline_bags, preprocess_document

CORPUS = Path(__file__).parent / "golden" / "corpus"
VARIANTS = [(family, False) for family in FeatureFamily] + [(FeatureFamily.UNIGRAM, True)]


def _pipeline(corpus, resources, tagger_name):
    lexicon, transitions = resources
    return FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions,
                           tagger=get_tagger(tagger_name))


def _word_tag_lines(document):
    return "".join(" ".join(f"{w}_{t}" for w, t in zip(sentence.words, sentence.tags)) + "\n"
                   for sentence in document.sentences)


@pytest.fixture(scope="module")
def resources():
    return load_lexicon(CORPUS / "lexicon.tsv", format="tsv"), load_transitions()


@pytest.fixture(scope="module")
def builtin(resources):
    return _pipeline(load_corpus(CORPUS), resources, "builtin")


@pytest.fixture(scope="module")
def pretagged(builtin, resources, tmp_path_factory):
    root = tmp_path_factory.mktemp("pretagged")
    for raw in builtin.corpus.documents:
        path = root / raw.label.value / f"{raw.id}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(_word_tag_lines(preprocess_document(raw)), encoding="utf-8")
    return _pipeline(load_corpus(root), resources, "pretagged")


@pytest.mark.parametrize("family,negation", VARIANTS,
                         ids=[f"{f.value}{'-neg' if n else ''}" for f, n in VARIANTS])
def test_pretagged_bags_match_builtin(builtin, pretagged, family, negation):
    expected = family_matrix(builtin, family, negation)
    matrix = family_matrix(pretagged, family, negation)
    assert matrix.features == expected.features
    assert matrix.counts.shape == expected.counts.shape
    assert (to_scipy(matrix.counts) != to_scipy(expected.counts)).nnz == 0
    assert expected.counts.nnz


@pytest.mark.parametrize("negation", [False, True])
def test_extract_matches_pipeline_bags(builtin, negation):
    """What ``polarity extract`` counts for all nine families, the union of
    their matrices, is the per-document sum of their bags."""
    merged = [Counter() for _ in builtin.corpus.documents]
    for family in FeatureFamily:
        for total, bag in zip(merged, pipeline_bags(builtin, family, negation)):
            total.update(bag)
    expected = from_bags(merged)
    every = FeatureSpec(families=frozenset(FeatureFamily), negation_variant=negation)
    union = FeatureMatrix.union(builtin.family_matrices(every, 1))
    assert union.features == expected.features
    assert (to_scipy(union.counts) != to_scipy(expected.counts)).nnz == 0


def test_underscore_words_merge_into_one_feature(tmp_path):
    """``("a_b", "c")`` and ``("a", "b_c")`` both write ``b:a_b_c``: one column
    whose count is their sum, kept at a floor that neither key reaches alone."""
    (tmp_path / "pos").mkdir()
    (tmp_path / "neg").mkdir()
    (tmp_path / "pos" / "cv000_1.txt").write_text("a_b_JJ c_NN\n", encoding="utf-8")
    (tmp_path / "neg" / "cv001_2.txt").write_text("a_JJ b_c_NN\na_JJ b_c_NN\n", encoding="utf-8")
    pipeline = FeaturePipeline(load_corpus(tmp_path), tagger=get_tagger("pretagged"))
    for family, namespace in [(FeatureFamily.BIGRAM, "b"), (FeatureFamily.ADJADV_BIGRAM, "aab")]:
        matrix = family_matrix(pipeline, family, min_count=3)
        assert matrix.features == [f"{namespace}:a_b_c"]
        assert to_scipy(matrix.counts).toarray().tolist() == [[1.0], [2.0]]
        assert family_matrix(pipeline, family, min_count=4).features == []


def test_lowercase_tags_take_their_class():
    """``good_jj`` is an adjective and ``film_nn`` a content word, as with
    upper-case tags; the feature strings keep the tag as written."""
    texts = ["although_IN good_jj film_nn", "although_IN good_JJ film_NN"]
    lexicon = SubjectivityLexicon(entries={"good": [LexiconEntry(Polarity.POS, "adj")],
                                           "film": [LexiconEntry(Polarity.NEG, ANYPOS)]})
    pipeline = FeaturePipeline(corpus_of(texts), lexicon=lexicon,
                               transitions=load_transitions(), tagger=get_tagger("pretagged"))
    expected = {
        FeatureFamily.ADJECTIVE: [{"adj:good": 1}, {"adj:good": 1}],
        FeatureFamily.ADJADV_BIGRAM: [{"aab:although_good": 1, "aab:good_film": 1}] * 2,
        FeatureFamily.POLARIZED_UNIGRAM: [{"pu:POS/jj": 1, "pu:NEG/nn": 1},
                                          {"pu:POS/JJ": 1, "pu:NEG/NN": 1}],
        FeatureFamily.TRANSITION: [
            {"tr:although_good": 1, "tr:although_POS/jj": 1,
             "tr:although_film": 1, "tr:although_NEG/nn": 1},
            {"tr:although_good": 1, "tr:although_POS/JJ": 1,
             "tr:although_film": 1, "tr:although_NEG/NN": 1},
        ],
    }
    for family, rows in expected.items():
        matrix = family_matrix(pipeline, family)
        got = [{matrix.features[j]: count for j, count in zip(row.indices, row.data)}
               for row in to_scipy(matrix.counts)]
        assert got == rows, family
        assert got == [dict(bag) for bag in pipeline_bags(pipeline, family)]
