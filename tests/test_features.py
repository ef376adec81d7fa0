"""Feature families: worked examples, boundary behavior, and invariants.

Each example counts one document through the pipeline's family matrix and
reads its row back as a bag of feature strings.
"""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import family_matrix, to_scipy

from polarity.corpus import Corpus, Label, RawDocument
from polarity.errors import ConfigError
from polarity.evaluation import FeaturePipeline
from polarity.features import (
    FAMILIES,
    FeatureFamily,
    FeatureSpec,
    Window,
    check_resources,
    parse_feature_spec,
)
from polarity.lexicon import LexiconEntry, Polarity, SubjectivityLexicon, load_transitions
from polarity.vectorize import FeatureMatrix


def raw_from(text):
    return RawDocument(id="d", label=Label.POSITIVE, text=text)


def pipeline_from(text, lexicon=None, transitions=None):
    return FeaturePipeline(Corpus(documents=[raw_from(text)]), lexicon=lexicon,
                           transitions=transitions)


def family_bag(family, text, lexicon=None, transitions=None, negation_variant=False):
    """The one document's row of *family*'s matrix, as a bag of feature strings."""
    matrix = family_matrix(pipeline_from(text, lexicon, transitions), family, negation_variant)
    row = to_scipy(matrix.counts)[0]
    return Counter({matrix.features[j]: int(count) for j, count in zip(row.indices, row.data)})


def window_bag(family, text, negation_variant=False):
    return family_bag(family, text, negation_variant=negation_variant)


def pu_bag(text, lexicon):
    return family_bag(FeatureFamily.POLARIZED_UNIGRAM, text, lexicon)


def pb_bag(text, lexicon):
    return family_bag(FeatureFamily.POLARIZED_BIGRAM, text, lexicon)


def t_bag(text, transitions, lexicon):
    return family_bag(FeatureFamily.TRANSITION, text, lexicon, transitions)


@pytest.fixture(scope="module")
def transitions():
    return load_transitions()


class TestNgrams:
    def test_bigrams(self):
        bag = window_bag(FeatureFamily.BIGRAM, "i love it")
        assert bag == Counter({"b:i_love": 1, "b:love_it": 1})

    def test_too_short_for_trigram(self):
        assert window_bag(FeatureFamily.TRIGRAM, "good") == Counter()

    def test_negation_variant_keeps_prefix(self):
        bag = window_bag(FeatureFamily.UNIGRAM, "it is not good", negation_variant=True)
        assert bag["u:NOT_good"] == 1 and "u:good" not in bag

    def test_plain_variant_strips_prefix(self):
        bag = window_bag(FeatureFamily.UNIGRAM, "it is not good")
        assert bag["u:good"] == 1 and "u:NOT_good" not in bag

    def test_ngrams_stay_within_sentences(self):
        bag = window_bag(FeatureFamily.BIGRAM, "good movie\nbad film")
        assert "b:movie_bad" not in bag
        assert bag == Counter({"b:good_movie": 1, "b:bad_film": 1})


class TestPolarizedUnigrams:
    def test_love_becomes_pos_vb(self, tiny_lexicon):
        bag = pu_bag("i love that movie", tiny_lexicon)
        assert bag["pu:POS/VB"] == 1

    def test_no_lexicon_words(self, tiny_lexicon):
        assert pu_bag("the movie", tiny_lexicon) == Counter()

    def test_multiset_counts(self, tiny_lexicon):
        bag = pu_bag("love it love it", tiny_lexicon)
        assert bag["pu:POS/VB"] == 2

    def test_negated_token_looked_up_bare(self, tiny_lexicon):
        bag = pu_bag("it is not good", tiny_lexicon)
        assert bag["pu:POS/JJ"] == 1


class TestPolarizedBigrams:
    def test_worked_example(self, tiny_lexicon):
        bag = pb_bag("I highly recommend this movie", tiny_lexicon)
        assert bag == Counter({
            "pb:highly_POS/VB": 1,
            "pb:RB_POS/VB": 1,
            "pb:POS/VB_this": 1,
            "pb:POS/VB_DT": 1,
        })

    def test_polarized_word_alone(self, tiny_lexicon):
        assert pb_bag("good", tiny_lexicon) == Counter()

    def test_sentence_start_has_two_features(self, tiny_lexicon):
        bag = pb_bag("good movie", tiny_lexicon)
        assert bag == Counter({"pb:POS/JJ_movie": 1, "pb:POS/JJ_NN": 1})

    def test_sentence_end_has_two_features(self, tiny_lexicon):
        bag = pb_bag("movie good", tiny_lexicon)
        assert bag == Counter({"pb:movie_POS/JJ": 1, "pb:NN_POS/JJ": 1})


class TestAdjectiveFamilies:
    def test_adjectives_by_tag(self):
        bag = window_bag(FeatureFamily.ADJECTIVE, "a famous director")
        assert bag == Counter({"adj:famous": 1})

    def test_comparative_included(self):
        assert window_bag(FeatureFamily.ADJECTIVE, "a better film")["adj:better"] == 1

    def test_no_adjectives(self):
        assert window_bag(FeatureFamily.ADJECTIVE, "the movie") == Counter()

    def test_adjadv_bigram_adverb(self):
        bag = window_bag(FeatureFamily.ADJADV_BIGRAM, "highly recommend")
        assert bag == Counter({"aab:highly_recommend": 1})

    def test_adjadv_bigram_neither(self):
        assert window_bag(FeatureFamily.ADJADV_BIGRAM, "the movie") == Counter()

    def test_adjadv_bigram_both(self):
        bag = window_bag(FeatureFamily.ADJADV_BIGRAM, "really really")
        assert bag["aab:really_really"] == 1

    def test_adjadv_trigram_kept(self):
        bag = window_bag(FeatureFamily.ADJADV_TRIGRAM, "recommend staying away")
        assert bag == Counter({"aat:recommend_staying_away": 1})

    def test_adjadv_trigram_all_nouns(self):
        assert window_bag(FeatureFamily.ADJADV_TRIGRAM, "plot movie director") == Counter()

    def test_adjadv_trigram_too_short(self):
        assert window_bag(FeatureFamily.ADJADV_TRIGRAM, "fine film") == Counter()


class TestTransitions:
    def test_worked_example(self, tiny_lexicon, transitions):
        bag = t_bag("Although the director is famous", transitions, tiny_lexicon)
        assert bag == Counter({
            "tr:although_director": 1,
            "tr:although_is": 1,
            "tr:although_famous": 1,
            "tr:although_POS/JJ": 1,
        })

    def test_no_transition_phrase(self, tiny_lexicon, transitions):
        assert t_bag("a fine film", transitions, tiny_lexicon) == Counter()

    def test_no_content_tokens(self, tiny_lexicon, transitions):
        assert t_bag("but nothing", transitions, tiny_lexicon) == Counter()

    def test_multiword_phrase_key(self, tiny_lexicon, transitions):
        bag = t_bag("on the other hand the film works", transitions, tiny_lexicon)
        assert "tr:on_the_other_hand_film" in bag
        assert "tr:on_the_other_hand_works" in bag

    def test_two_distinct_phrases(self, tiny_lexicon, transitions):
        bag = t_bag("although flawed it works however", transitions, tiny_lexicon)
        assert "tr:although_works" in bag and "tr:however_works" in bag

    def test_phrase_tokens_excluded_from_content(self, tiny_lexicon, transitions):
        bag = t_bag("however the film works", transitions, tiny_lexicon)
        assert not any("however_however" in f for f in bag)


class TestExtractUnion:
    def test_singleton_union_is_family(self, tiny_lexicon):
        pipeline = pipeline_from("a good movie")
        spec = FeatureSpec(families=frozenset({FeatureFamily.UNIGRAM}))
        matrix = FeatureMatrix.union(pipeline.family_matrices(spec, 1))
        assert matrix is family_matrix(pipeline, FeatureFamily.UNIGRAM)
        assert matrix.features == sorted(window_bag(FeatureFamily.UNIGRAM, "a good movie"))

    def test_disjoint_namespaces_sum_sizes(self, tiny_lexicon):
        pipeline = pipeline_from("i highly recommend this movie", tiny_lexicon)
        u = family_matrix(pipeline, FeatureFamily.UNIGRAM)
        pb = family_matrix(pipeline, FeatureFamily.POLARIZED_BIGRAM)
        combined = FeatureMatrix.union(
            pipeline.family_matrices(parse_feature_spec("unigram+pb"), 1))
        assert len(combined.features) == len(u.features) + len(pb.features)
        assert to_scipy(combined.counts).sum() == (to_scipy(u.counts).sum()
                                                   + to_scipy(pb.counts).sum())

    def test_empty_family_set_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec(families=frozenset())

    def test_lexicon_required(self, transitions):
        with pytest.raises(ConfigError, match="lexicon"):
            check_resources(parse_feature_spec("pu"), None, transitions)

    def test_transitions_required(self, tiny_lexicon):
        with pytest.raises(ConfigError, match="transition"):
            check_resources(parse_feature_spec("unigram+t"), tiny_lexicon, None)

    def test_paper_combination_spec(self):
        spec = parse_feature_spec("3adjadv+pb+t")
        assert spec.families == frozenset({
            FeatureFamily.ADJADV_TRIGRAM, FeatureFamily.POLARIZED_BIGRAM,
            FeatureFamily.TRANSITION,
        })


class TestSpecParsing:
    def test_aliases(self):
        """The tokens are the FeatureFamily values, in any case; no alias parses."""
        for alias in ["u", "aab"]:
            with pytest.raises(ConfigError, match=f"unknown feature family '{alias}' "
                                                  r"\(expected 'unigram', 'bigram', "):
                parse_feature_spec(alias)
        assert parse_feature_spec("UNIGRAM+PB").canonical() == "unigram+pb"

    def test_unknown_token_lists_valid(self):
        with pytest.raises(ConfigError, match=r"\(expected 'unigram'"):
            parse_feature_spec("bogus+pb")

    def test_duplicate_family_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_feature_spec("unigram+UNIGRAM")

    @pytest.mark.parametrize("text", ["bigram", "3adjadv+pb+t"])
    def test_negation_variant_needs_unigram(self, text):
        with pytest.raises(ConfigError, match="negation variant needs unigram"):
            parse_feature_spec(text, negation=True)

    def test_rows_in_family_order(self):
        expected = [FAMILIES[FeatureFamily.UNIGRAM], FAMILIES[FeatureFamily.ADJECTIVE],
                    FAMILIES[FeatureFamily.TRANSITION]]
        assert parse_feature_spec("t+adj+unigram").rows() == expected
        negated = parse_feature_spec("t+adj+unigram", negation=True).rows()
        assert negated == [Window("u", 1, negated=True), *expected[1:]]

    def test_rows_are_distinct_as_plain_tuples(self):
        """The pipeline caches a matrix under (row, floor), and NamedTuple rows
        compare as plain tuples: every row, the negated unigram included, must
        differ from every other by value."""
        every = FeatureSpec(frozenset(FeatureFamily), negation_variant=True).rows()
        rows = {tuple(row) for row in [*FAMILIES.values(), *every]}
        assert len(rows) == len(FAMILIES) + 1


_SENTENCES = st.lists(
    st.lists(
        st.sampled_from(["good", "bad", "movie", "not", "highly", "famous",
                         "although", "the", "is", "!", "recommend"]),
        min_size=1, max_size=8,
    ),
    min_size=1, max_size=4,
)


@given(_SENTENCES)
def test_namespace_disjointness(sentences):
    text = "\n".join(" ".join(s) for s in sentences)
    lex = SubjectivityLexicon(entries={
        "good": [LexiconEntry(Polarity.POS, "any")],
        "bad": [LexiconEntry(Polarity.NEG, "any")],
        "famous": [LexiconEntry(Polarity.POS, "adj")],
        "recommend": [LexiconEntry(Polarity.POS, "verb")],
    })
    pipeline = pipeline_from(text, lex, load_transitions())
    supports = [set(family_matrix(pipeline, family).features) for family in FAMILIES]
    assert len(supports) == len(FeatureFamily)
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])


@given(_SENTENCES)
def test_union_is_monotone_and_deterministic(sentences):
    text = "\n".join(" ".join(s) for s in sentences)
    small = FeatureMatrix.union(
        pipeline_from(text).family_matrices(parse_feature_spec("unigram"), 1))
    spec = parse_feature_spec("unigram+bigram+adj")
    large = FeatureMatrix.union(pipeline_from(text).family_matrices(spec, 1))
    columns = [large.features.index(f) for f in small.features]
    assert (to_scipy(large.counts)[:, columns] != to_scipy(small.counts)).nnz == 0
    again = FeatureMatrix.union(pipeline_from(text).family_matrices(spec, 1))
    assert again.features == large.features
    assert (to_scipy(again.counts) != to_scipy(large.counts)).nnz == 0


@given(_SENTENCES)
def test_polarized_bigram_core_matches_unigram(sentences):
    lex = SubjectivityLexicon(entries={
        "good": [LexiconEntry(Polarity.POS, "any")],
        "bad": [LexiconEntry(Polarity.NEG, "any")],
    })
    text = "\n".join(" ".join(s) for s in sentences)
    pu = {f.removeprefix("pu:") for f in pu_bag(text, lex)}
    for feature in pb_bag(text, lex):
        body = feature.removeprefix("pb:")
        # the polarity core is either the prefix or the suffix of the feature
        assert any(
            body.startswith(f"{c}_") or body.endswith(f"_{c}") for c in pu
        ), (feature, pu)
