"""Feature families: worked examples, boundary behavior, and invariants."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from polarity.corpus import Label, RawDocument
from polarity.errors import ConfigError
from polarity.features import (
    FeatureFamily,
    FeatureSpec,
    bag_to_text,
    extract,
    extract_adjadv_bigrams,
    extract_adjadv_trigrams,
    extract_adjectives,
    extract_ngrams,
    extract_polarized_bigrams,
    extract_polarized_unigrams,
    extract_transitions,
    parse_feature_spec,
    text_to_bag,
)
from polarity.lexicon import load_transitions
from polarity.preprocess import preprocess_document


def doc_from(text):
    raw = RawDocument(id="d", label=Label.POSITIVE, text=text)
    return preprocess_document(raw)


@pytest.fixture(scope="module")
def transitions():
    return load_transitions()


class TestNgrams:
    def test_bigrams(self):
        bag = extract_ngrams(doc_from("i love it"), 2)
        assert bag == Counter({"b:i_love": 1, "b:love_it": 1})

    def test_too_short_for_trigram(self):
        assert extract_ngrams(doc_from("good"), 3) == Counter()

    def test_negation_variant_keeps_prefix(self):
        doc = doc_from("it is not good")
        bag = extract_ngrams(doc, 1, keep_negation_prefix=True)
        assert bag["u:NOT_good"] == 1 and "u:good" not in bag

    def test_plain_variant_strips_prefix(self):
        doc = doc_from("it is not good")
        bag = extract_ngrams(doc, 1)
        assert bag["u:good"] == 1 and "u:NOT_good" not in bag

    def test_ngrams_stay_within_sentences(self):
        bag = extract_ngrams(doc_from("good movie\nbad film"), 2)
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
        bag = extract_adjectives(doc_from("a famous director"))
        assert bag == Counter({"adj:famous": 1})

    def test_comparative_included(self):
        assert extract_adjectives(doc_from("a better film"))["adj:better"] == 1

    def test_no_adjectives(self):
        assert extract_adjectives(doc_from("the movie")) == Counter()

    def test_adjadv_bigram_adverb(self):
        bag = extract_adjadv_bigrams(doc_from("highly recommend"))
        assert bag == Counter({"aab:highly_recommend": 1})

    def test_adjadv_bigram_neither(self):
        assert extract_adjadv_bigrams(doc_from("the movie")) == Counter()

    def test_adjadv_bigram_both(self):
        assert extract_adjadv_bigrams(doc_from("really really"))["aab:really_really"] == 1

    def test_adjadv_trigram_kept(self):
        bag = extract_adjadv_trigrams(doc_from("recommend staying away"))
        assert bag == Counter({"aat:recommend_staying_away": 1})

    def test_adjadv_trigram_all_nouns(self):
        assert extract_adjadv_trigrams(doc_from("plot movie director")) == Counter()

    def test_adjadv_trigram_too_short(self):
        assert extract_adjadv_trigrams(doc_from("fine film")) == Counter()


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
        doc = doc_from("a good movie")
        spec = FeatureSpec(families=frozenset({FeatureFamily.UNIGRAM}))
        assert extract(doc, spec) == extract_ngrams(doc, 1)

    def test_disjoint_namespaces_sum_sizes(self, tiny_lexicon):
        doc = doc_from("i highly recommend this movie")
        u = extract_ngrams(doc, 1)
        pb = extract_polarized_bigrams(doc, tiny_lexicon)
        spec = parse_feature_spec("unigram+pb")
        combined = extract(doc, spec, lex=tiny_lexicon)
        assert len(combined) == len(u) + len(pb)
        assert sum(combined.values()) == sum(u.values()) + sum(pb.values())

    def test_empty_family_set_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec(families=frozenset())

    def test_lexicon_required(self, transitions):
        with pytest.raises(ConfigError, match="lexicon"):
            extract(doc_from("x"), parse_feature_spec("pu"))

    def test_transitions_required(self, tiny_lexicon):
        with pytest.raises(ConfigError, match="transition"):
            extract(doc_from("x"), parse_feature_spec("unigram+t"), lex=tiny_lexicon)

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
    supports = [
        set(extract_ngrams(doc, 1)),
        set(extract_ngrams(doc, 2)),
        set(extract_ngrams(doc, 3)),
        set(extract_polarized_unigrams(doc, lex)),
        set(extract_polarized_bigrams(doc, lex)),
        set(extract_adjectives(doc)),
        set(extract_adjadv_bigrams(doc)),
        set(extract_adjadv_trigrams(doc)),
        set(extract_transitions(doc, trans, lex)),
    ]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])


@given(_SENTENCES)
def test_union_is_monotone_and_deterministic(sentences):
    doc = _doc_from_sentences(sentences)
    small = extract(doc, parse_feature_spec("unigram"))
    large = extract(doc, parse_feature_spec("unigram+bigram+adj"))
    assert set(small) <= set(large)
    assert extract(doc, parse_feature_spec("unigram+bigram+adj")) == large


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


def test_bag_text_round_trip():
    bag = Counter({"u:good": 3, "b:good_movie": 1, "tr:although_famous": 2})
    assert text_to_bag(bag_to_text(bag)) == bag
