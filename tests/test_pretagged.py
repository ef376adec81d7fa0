"""The pretagged reader against the built-in tagger, and the union matrix
against the family bags: both paths into the nine feature families must give
the same bags.

The golden corpus is tagged by the built-in pipeline and written back out as
``word_TAG`` lines; reading that copy with ``--tagger pretagged`` must yield
the same feature bags for every family and both unigram variants.
"""

from collections import Counter
from pathlib import Path

import pytest

from polarity.corpus import load_corpus
from polarity.evaluation import FeaturePipeline
from polarity.features import FeatureFamily, FeatureSpec
from polarity.lexicon import load_lexicon, load_transitions
from polarity.tagging import get_tagger
from polarity.vectorize import FeatureMatrix

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
    for raw, document in zip(builtin.corpus.documents, builtin.documents):
        path = root / raw.label.value / f"{raw.id}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(_word_tag_lines(document), encoding="utf-8")
    return _pipeline(load_corpus(root), resources, "pretagged")


@pytest.mark.parametrize("family,negation", VARIANTS,
                         ids=[f"{f.value}{'-neg' if n else ''}" for f, n in VARIANTS])
def test_pretagged_bags_match_builtin(builtin, pretagged, family, negation):
    expected = [sorted(b.items()) for b in builtin.family_bags(family, negation)]
    assert [sorted(b.items()) for b in pretagged.family_bags(family, negation)] == expected
    assert any(expected)


@pytest.mark.parametrize("negation", [False, True])
def test_extract_matches_pipeline_bags(builtin, negation):
    """What ``polarity extract`` counts for all nine families, the union of
    their matrices, is the per-document sum of their bags."""
    merged = [Counter() for _ in builtin.documents]
    for family in FeatureFamily:
        for total, bag in zip(merged, builtin.family_bags(family, negation)):
            total.update(bag)
    expected = FeatureMatrix.from_bags(merged)
    every = FeatureSpec(families=frozenset(FeatureFamily), negation_variant=negation)
    union = builtin.matrix_for_spec(every)
    assert union.features == expected.features
    assert (union.counts != expected.counts).nnz == 0


def test_underscore_words_merge_into_one_feature(tmp_path):
    """``("a_b", "c")`` and ``("a", "b_c")`` both write ``b:a_b_c``: one column
    whose count is their sum, kept at a floor that neither key reaches alone."""
    (tmp_path / "pos").mkdir()
    (tmp_path / "neg").mkdir()
    (tmp_path / "pos" / "cv000_1.txt").write_text("a_b_JJ c_NN\n", encoding="utf-8")
    (tmp_path / "neg" / "cv001_2.txt").write_text("a_JJ b_c_NN\na_JJ b_c_NN\n", encoding="utf-8")
    pipeline = FeaturePipeline(load_corpus(tmp_path), tagger=get_tagger("pretagged"))
    for family, namespace in [(FeatureFamily.BIGRAM, "b"), (FeatureFamily.ADJADV_BIGRAM, "aab")]:
        matrix = pipeline.family_matrix(family, min_count=3)
        assert matrix.features == [f"{namespace}:a_b_c"]
        assert matrix.counts.toarray().tolist() == [[1.0], [2.0]]
        assert pipeline.family_matrix(family, min_count=4).features == []
