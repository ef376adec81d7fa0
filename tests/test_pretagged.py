"""The pretagged reader against the built-in tagger, and extract against the
pipeline: both paths into the nine feature families must give the same bags.

The golden corpus is tagged by the built-in pipeline and written back out as
``word_TAG`` lines; reading that copy with ``--tagger pretagged`` must yield
the same feature bags for every family and both unigram variants.
"""

from collections import Counter
from pathlib import Path

import pytest

from polarity.corpus import load_corpus
from polarity.evaluation import FeaturePipeline
from polarity.features import FeatureFamily, FeatureSpec, bag_to_text, extract
from polarity.lexicon import load_lexicon, load_transitions
from polarity.tagging import get_tagger

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
    expected = [bag_to_text(b) for b in builtin.family_bags(family, negation)]
    assert [bag_to_text(b) for b in pretagged.family_bags(family, negation)] == expected
    assert any(expected)


@pytest.mark.parametrize("negation", [False, True])
def test_extract_matches_pipeline_bags(builtin, resources, negation):
    lexicon, transitions = resources
    merged = [Counter() for _ in builtin.documents]
    for family in FeatureFamily:
        spec = FeatureSpec(families=frozenset({family}), negation_variant=negation)
        bags = builtin.family_bags(family, negation)
        for doc, bag, total in zip(builtin.documents, bags, merged):
            assert extract(doc, spec, lexicon, transitions) == bag
            total.update(bag)
    every = FeatureSpec(families=frozenset(FeatureFamily), negation_variant=negation)
    for doc, total in zip(builtin.documents, merged):
        assert extract(doc, every, lexicon, transitions) == total
