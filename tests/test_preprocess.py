"""Normalization chain: contractions, punctuation, negation scope, POS tags."""

import pytest
from hypothesis import given, strategies as st

from polarity.corpus import Label, RawDocument
from polarity.errors import DataError
from polarity.preprocess import (
    NEGATION_PREFIX,
    expand_contractions,
    preprocess_document,
    strip_punctuation,
    tag_negation,
)
from polarity.tagging import PretaggedReader, RuleTagger, TAG_INVENTORY, get_tagger


def _raw(text):
    return RawDocument(id="d", label=Label.POSITIVE, text=text)


def _sentence(text, tagger=None):
    (sentence,) = preprocess_document(_raw(text), tagger).sentences
    return sentence


def _surfaces(words, negated):
    """The words as the negated unigram variant writes them."""
    return [NEGATION_PREFIX + w if neg else w for w, neg in zip(words, negated)]


def _negate(*words):
    return _surfaces(words, tag_negation(list(words)))


class TestExpandContractions:
    def test_isnt(self):
        assert expand_contractions("It isn't good") == "It is not good"

    def test_fixed_point(self):
        assert expand_contractions("It is not good") == "It is not good"

    @pytest.mark.parametrize("contraction,expansion", [
        ("won't", "will not"),
        ("can't", "can not"),
        ("don't", "do not"),
        ("couldn't", "could not"),
        ("shan't", "shall not"),
        ("doesn't", "does not"),
    ])
    def test_table(self, contraction, expansion):
        assert expand_contractions(contraction) == expansion

    def test_non_negation_contractions_untouched(self):
        assert expand_contractions("it's a film and i'm glad") == "it's a film and i'm glad"

    def test_tokenized_apostrophe_form(self):
        assert expand_contractions("it isn ' t good") == "it is not good"

    def test_capital_preserved(self):
        assert expand_contractions("Isn't it") == "Is not it"


class TestStripPunctuation:
    def test_kept_marks_become_tokens(self):
        assert strip_punctuation("good, really good!") == "good really good !"

    def test_fixed_point(self):
        assert strip_punctuation("no punctuation here") == "no punctuation here"

    def test_both_kept(self):
        assert strip_punctuation("what ?!") == "what ? !"

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_removed_chars_never_survive(self, text):
        import string

        keep = frozenset({"!", "?"})
        out = strip_punctuation(text)
        removable = set(string.punctuation) - keep
        assert not (set(out) & removable)


class TestTagNegation:
    def test_scope_to_sentence_end(self):
        out = _negate("it", "is", "not", "good", "at", "all")
        assert out == ["it", "is", "not", "NOT_good", "NOT_at", "NOT_all"]

    def test_no_trigger_unchanged(self):
        sent = ["it", "is", "good"]
        assert _negate(*sent) == sent

    def test_scope_ends_at_kept_punctuation(self):
        assert _negate("not", "bad", "!", "great") == ["not", "NOT_bad", "!", "great"]
        assert _negate("not", "bad", "?", "great") == ["not", "NOT_bad", "?", "great"]

    def test_negated_flag_set(self):
        out = _sentence("not bad")
        assert out.negated[1] and not out.negated[0]
        assert out.words[1] == "bad"

    words = st.lists(
        st.sampled_from(["not", "good", "bad", "movie", "!", "?", "fun"]), max_size=12
    )

    @given(words)
    def test_token_count_preserved(self, words):
        assert len(tag_negation(words)) == len(words)


class TestTagPos:
    def test_verb_class_for_love(self):
        out = _sentence("i love that movie")
        assert out.tags == ["PRP", "VB", "DT", "NN"]
        assert all(t in TAG_INVENTORY for t in out.tags)

    def test_empty_sentence(self):
        assert RuleTagger().tag([]) == []
        assert preprocess_document(_raw(",;: ...")).sentences == []

    def test_pretagged_parse(self):
        out = _sentence("famous_JJ", PretaggedReader())
        assert out.words == ["famous"] and out.tags == ["JJ"]

    def test_pretagged_malformed(self):
        with pytest.raises(DataError, match="position 1"):
            preprocess_document(_raw("fine_JJ broken"), PretaggedReader())

    def test_negated_token_tagged_by_bare_form(self):
        out = _sentence("not love")
        assert out.tags[1] == "VB" and out.words[1] == "love" and out.negated[1]

    def test_suffix_rules(self):
        tags = RuleTagger().tag(["famous", "highly", "watchable", "colorful"])
        assert tags == ["JJ", "RB", "JJ", "JJ"]

    def test_fallback_nn(self):
        assert RuleTagger().tag(["zyzzyva"]) == ["NN"]

    def test_token_count_preserved(self):
        out = _sentence("a very fine film")
        assert len(out.words) == len(out.tags) == len(out.negated) == 4


class TestPreprocessDocument:
    def test_negation_off_still_expands(self):
        # The plain variant reads the words, which are expanded and never prefixed.
        out = _sentence("It isn't good")
        assert out.words == ["it", "is", "not", "good"]

    def test_negation_on(self):
        out = _sentence("It isn't good")
        assert _surfaces(out.words, out.negated) == ["it", "is", "not", "NOT_good"]

    def test_empty_document(self):
        out = preprocess_document(_raw(""))
        assert out.sentences == []

    def test_lines_become_sentences(self):
        out = preprocess_document(_raw("fine film\n\ngreat ending\n"))
        assert len(out.sentences) == 2

    def test_pretagged_pipeline(self):
        out = _sentence("i_PRP do_VBP not_RB like_VB it_PRP", get_tagger("pretagged"))
        assert _surfaces(out.words, out.negated) == ["i", "do", "not", "NOT_like", "NOT_it"]
        assert out.tags == ["PRP", "VBP", "RB", "VB", "PRP"]

    def test_punctuation_tokens_kept(self):
        out = _sentence("good grief !")
        assert out.words == ["good", "grief", "!"]
