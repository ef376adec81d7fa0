"""Feature families: worked examples, boundary behavior, and invariants."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from polarity.corpus import Corpus, Label, RawDocument
from polarity.errors import ConfigError
from polarity.evaluation import FeaturePipeline
from polarity.features import (
    FAMILIES,
    FeatureFamily,
    FeatureSpec,
    Polarized,
    Window,
    check_resources,
    extract_polarized_bigrams,
    extract_polarized_unigrams,
    extract_transitions,
    extract_window,
    parse_feature_spec,
)
from polarity.lexicon import load_transitions
from polarity.preprocess import preprocess_document


def raw_from(text):
    return RawDocument(id="d", label=Label.POSITIVE, text=text)


def doc_from(text):
    return preprocess_document(raw_from(text))


def window_bag(family, text, negation_variant=False):
    return extract_window(doc_from(text), FAMILIES[family], negation_variant)


def pipeline_from(text, lexicon=None):
    return FeaturePipeline(Corpus(documents=[raw_from(text)]), lexicon=lexicon)


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
        bag = extract_polarized_unigrams(doc_from("i love that movie"), tiny_lexicon)
        assert bag["pu:POS/VB"] == 1

    def test_no_lexicon_words(self, tiny_lexicon):
        assert extract_polarized_unigrams(doc_from("the movie"), tiny_lexicon) == Counter()

    def test_multiset_counts(self, tiny_lexicon):
        bag = extract_polarized_unigrams(doc_from("love it love it"), tiny_lexicon)
        assert bag["pu:POS/VB"] == 2

    def test_negated_token_looked_up_bare(self, tiny_lexicon):
        doc = doc_from("it is not good")
        bag = extract_polarized_unigrams(doc, tiny_lexicon)
        assert bag["pu:POS/JJ"] == 1


class TestPolarizedBigrams:
    def test_worked_example(self, tiny_lexicon):
        bag = extract_polarized_bigrams(doc_from("I highly recommend this movie"), tiny_lexicon)
        assert bag == Counter({
            "pb:highly_POS/VB": 1,
            "pb:RB_POS/VB": 1,
            "pb:POS/VB_this": 1,
            "pb:POS/VB_DT": 1,
        })

    def test_polarized_word_alone(self, tiny_lexicon):
        assert extract_polarized_bigrams(doc_from("good"), tiny_lexicon) == Counter()

    def test_sentence_start_has_two_features(self, tiny_lexicon):
        bag = extract_polarized_bigrams(doc_from("good movie"), tiny_lexicon)
        assert bag == Counter({"pb:POS/JJ_movie": 1, "pb:POS/JJ_NN": 1})

    def test_sentence_end_has_two_features(self, tiny_lexicon):
        bag = extract_polarized_bigrams(doc_from("movie good"), tiny_lexicon)
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
        bag = extract_transitions(doc_from("Although the director is famous"),
                                  transitions, tiny_lexicon)
        assert bag == Counter({
            "tr:although_director": 1,
            "tr:although_is": 1,
            "tr:although_famous": 1,
            "tr:although_POS/JJ": 1,
        })

    def test_no_transition_phrase(self, tiny_lexicon, transitions):
        assert extract_transitions(doc_from("a fine film"), transitions, tiny_lexicon) == Counter()

    def test_no_content_tokens(self, tiny_lexicon, transitions):
        assert extract_transitions(doc_from("but nothing"), transitions, tiny_lexicon) == Counter()

    def test_multiword_phrase_key(self, tiny_lexicon, transitions):
        bag = extract_transitions(doc_from("on the other hand the film works"),
                                  transitions, tiny_lexicon)
        assert "tr:on_the_other_hand_film" in bag
        assert "tr:on_the_other_hand_works" in bag

    def test_two_distinct_phrases(self, tiny_lexicon, transitions):
        bag = extract_transitions(doc_from("although flawed it works however"),
                                  transitions, tiny_lexicon)
        assert "tr:although_works" in bag and "tr:however_works" in bag

    def test_phrase_tokens_excluded_from_content(self, tiny_lexicon, transitions):
        bag = extract_transitions(doc_from("however the film works"), transitions, tiny_lexicon)
        assert not any("however_however" in f for f in bag)


class TestExtractUnion:
    def test_singleton_union_is_family(self, tiny_lexicon):
        pipeline = pipeline_from("a good movie")
        spec = FeatureSpec(families=frozenset({FeatureFamily.UNIGRAM}))
        matrix = pipeline.matrix_for_spec(spec)
        assert matrix is pipeline.family_matrix(FeatureFamily.UNIGRAM)
        assert matrix.features == sorted(window_bag(FeatureFamily.UNIGRAM, "a good movie"))

    def test_disjoint_namespaces_sum_sizes(self, tiny_lexicon):
        pipeline = pipeline_from("i highly recommend this movie", tiny_lexicon)
        u = pipeline.family_matrix(FeatureFamily.UNIGRAM)
        pb = pipeline.family_matrix(FeatureFamily.POLARIZED_BIGRAM)
        combined = pipeline.matrix_for_spec(parse_feature_spec("unigram+pb"))
        assert len(combined.features) == len(u.features) + len(pb.features)
        assert combined.counts.sum() == u.counts.sum() + pb.counts.sum()

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
        assert parse_feature_spec("u").families == {FeatureFamily.UNIGRAM}
        assert parse_feature_spec("UNIGRAM+PB").canonical() == "unigram+pb"

    def test_unknown_token_lists_valid(self):
        with pytest.raises(ConfigError, match="valid tokens"):
            parse_feature_spec("bogus+pb")

    def test_duplicate_family_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_feature_spec("unigram+u")


_SENTENCES = st.lists(
    st.lists(
        st.sampled_from(["good", "bad", "movie", "not", "highly", "famous",
                         "although", "the", "is", "!", "recommend"]),
        min_size=1, max_size=8,
    ),
    min_size=1, max_size=4,
)


def _doc_from_sentences(sentences):
    return doc_from("\n".join(" ".join(s) for s in sentences))


@given(_SENTENCES)
def test_namespace_disjointness(sentences):
    doc = _doc_from_sentences(sentences)
    from polarity.lexicon import LexiconEntry, Polarity, SubjectivityLexicon

    lex = SubjectivityLexicon(entries={
        "good": [LexiconEntry(Polarity.POS, "any")],
        "bad": [LexiconEntry(Polarity.NEG, "any")],
        "famous": [LexiconEntry(Polarity.POS, "adj")],
        "recommend": [LexiconEntry(Polarity.POS, "verb")],
    })
    trans = load_transitions()

    def bag(row):
        if isinstance(row, Window):
            return extract_window(doc, row)
        if isinstance(row, Polarized):
            return (extract_polarized_bigrams if row.neighbors else extract_polarized_unigrams)(doc, lex)
        return row(doc, lex, trans)

    supports = [set(bag(row)) for row in FAMILIES.values()]
    assert len(supports) == len(FeatureFamily)
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])


@given(_SENTENCES)
def test_union_is_monotone_and_deterministic(sentences):
    text = "\n".join(" ".join(s) for s in sentences)
    small = pipeline_from(text).matrix_for_spec(parse_feature_spec("unigram"))
    spec = parse_feature_spec("unigram+bigram+adj")
    large = pipeline_from(text).matrix_for_spec(spec)
    columns = [large.features.index(f) for f in small.features]
    assert (large.counts[:, columns] != small.counts).nnz == 0
    again = pipeline_from(text).matrix_for_spec(spec)
    assert again.features == large.features
    assert (again.counts != large.counts).nnz == 0


@given(_SENTENCES)
def test_polarized_bigram_core_matches_unigram(sentences):
    from polarity.lexicon import LexiconEntry, Polarity, SubjectivityLexicon

    lex = SubjectivityLexicon(entries={
        "good": [LexiconEntry(Polarity.POS, "any")],
        "bad": [LexiconEntry(Polarity.NEG, "any")],
    })
    doc = _doc_from_sentences(sentences)
    pu = {f.removeprefix("pu:") for f in extract_polarized_unigrams(doc, lex)}
    for feature in extract_polarized_bigrams(doc, lex):
        body = feature.removeprefix("pb:")
        # the polarity core is either the prefix or the suffix of the feature
        assert any(
            body.startswith(f"{c}_") or body.endswith(f"_{c}") for c in pu
        ), (feature, pu)
