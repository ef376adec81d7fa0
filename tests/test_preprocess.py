"""Normalization chain: contractions, punctuation, negation scope, POS tags.

Whole documents go through the pipeline's token stream, read back sentence
by sentence.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarity.corpus import Corpus, Label, LabelStats, RawDocument, compute_stats, load_corpus
from polarity.errors import DataError
from polarity.evaluation import FeaturePipeline
from polarity.preprocess import (
    NEGATION_PREFIX,
    _drop_punctuation,
    expand_contractions,
    negation_scopes,
    tokenize_document,
)
from polarity.tagging import _VERB_FORMS, PretaggedReader, RuleTagger, TAG_INVENTORY, get_tagger
from reference import Sentence, preprocess_document, tag, tag_negation, tokenize

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus"


def _raw(text):
    return RawDocument(id="d", label=Label.POSITIVE, text=text)


def _sentences(text, tagger=None):
    """One raw document through the token stream, as Sentence tuples."""
    stream = FeaturePipeline(Corpus(documents=[_raw(text)]), tagger=tagger)._stream()
    words = [stream.words[i] for i in stream.ids.tolist()]
    tags = [stream.tags[i] for i in stream.tag_ids.tolist()]
    negated = stream.negated.tolist()
    bounds = np.append(np.flatnonzero(stream.starts), len(words)).tolist()
    return [Sentence(words[a:b], tags[a:b], negated[a:b]) for a, b in zip(bounds, bounds[1:])]


def _sentence(text, tagger=None):
    (sentence,) = _sentences(text, tagger)
    return sentence


def _one_sentence_stream(words):
    """(vocabulary, word ids, sentence starts) of *words* as one sentence."""
    vocab = list(dict.fromkeys(words))
    ids = np.array([vocab.index(word) for word in words], dtype=np.intc)
    starts = np.zeros(len(words), dtype=bool)
    starts[:1] = True
    return vocab, ids, starts


def _tag(words):
    """``RuleTagger.tag_stream`` over *words* as one sentence."""
    names, tag_ids = RuleTagger().tag_stream(*_one_sentence_stream(words))
    return [names[t] for t in tag_ids.tolist()]


def _surfaces(words, negated):
    """The words as the negated unigram variant writes them."""
    return [NEGATION_PREFIX + w if neg else w for w, neg in zip(words, negated)]


def _negate(*words):
    return _surfaces(words, negation_scopes(*_one_sentence_stream(words)).tolist())


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
    """Punctuation as ``tokenize_document`` strips it."""

    def test_kept_marks_become_tokens(self):
        assert tokenize_document("good, really good!") == [["good", "really", "good", "!"]]

    def test_fixed_point(self):
        assert tokenize_document("no punctuation here") == [["no", "punctuation", "here"]]

    def test_both_kept(self):
        assert tokenize_document("what ?!") == [["what", "?", "!"]]

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_removed_chars_never_survive(self, text):
        import string

        keep = frozenset({"!", "?"})
        out = "".join(word for line in tokenize_document(text) for word in line)
        removable = set(string.punctuation) - keep
        assert not (set(out) & removable)


class TestTokenize:
    pieces = st.sampled_from([
        "isn't", "Isn't", "ISN'T", "won't", "Can't", "DOESN'T", "n't", "sn't", "isn ' t",
        "Wasn ' t", "it's", "don", "n", "t", "'", " ' ", " ", "film", "Not", "!", ".",
        "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
        "\u2028", "\u2029",
    ])

    @given(st.lists(pieces, max_size=30).map("".join))
    def test_per_line_equals_whole_text_expansion(self, text):
        whole = [_drop_punctuation(line).lower().split()
                 for line in expand_contractions(text).splitlines()]
        per_line = [tokenize(line) for line in text.splitlines()]
        assert per_line == whole
        assert tokenize_document(text) == per_line

    def test_expands_contractions(self):
        assert tokenize("It isn't, it WON'T") == ["it", "is", "not", "it", "will", "not"]
        assert tokenize("wasn ' t") == ["was", "not"]


@given(st.lists(st.tuples(st.sampled_from(list(Label)),
                          st.lists(TestTokenize.pieces, max_size=30).map("".join)),
                max_size=6))
def test_compute_stats_counts_the_per_line_words(reviews):
    """``stats`` counts the words ``reference.tokenize`` gives each ``splitlines()``
    line of a review, over every line break and with empty lines dropped."""
    corpus = Corpus(documents=[RawDocument(id=f"d{i}", label=label, text=text)
                               for i, (label, text) in enumerate(reviews)])
    stats = compute_stats(corpus)
    for label in Label:
        lines = [tokenize(line) for other, text in reviews if other is label
                 for line in text.splitlines()]
        lines = [words for words in lines if words]
        words = [word for line in lines for word in line]
        assert stats.per_label[label] == LabelStats(len(lines), len(words), len(set(words)))


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
        assert len(negation_scopes(*_one_sentence_stream(words))) == len(words)

    @given(st.lists(st.lists(st.sampled_from(["not", "good", "!", "?", "fun"]),
                             min_size=1, max_size=6), max_size=6))
    def test_scopes_of_a_multi_sentence_stream_end_at_each_sentence(self, sentences):
        """Over many sentences, each sentence's flags are ``tag_negation``'s:
        a scope open at a sentence's end does not reach the next one."""
        vocab = ["not", "good", "!", "?", "fun"]
        ids = np.array([vocab.index(w) for words in sentences for w in words], dtype=np.intc)
        lengths = np.array([len(words) for words in sentences], dtype=np.int64)
        starts = np.zeros(len(ids), dtype=bool)
        starts[np.cumsum(lengths) - lengths] = True
        expected = [flag for words in sentences for flag in tag_negation(words)]
        assert negation_scopes(vocab, ids, starts).tolist() == expected


class TestTagPos:
    def test_verb_class_for_love(self):
        out = _sentence("i love that movie")
        assert out.tags == ["PRP", "VB", "DT", "NN"]
        assert all(t in TAG_INVENTORY for t in out.tags)

    def test_empty_sentence(self):
        assert _tag([]) == []
        assert _sentences(",;: ...") == []

    def test_pretagged_parse(self):
        out = _sentence("famous_JJ", PretaggedReader())
        assert out.words == ["famous"] and out.tags == ["JJ"]

    def test_pretagged_malformed(self):
        with pytest.raises(DataError, match="position 1"):
            _sentences("fine_JJ broken", PretaggedReader())

    def test_negated_token_tagged_by_bare_form(self):
        out = _sentence("not love")
        assert out.tags[1] == "VB" and out.words[1] == "love" and out.negated[1]

    def test_suffix_rules(self):
        tags = _tag(["famous", "highly", "watchable", "colorful"])
        assert tags == ["JJ", "RB", "JJ", "JJ"]

    def test_fallback_nn(self):
        assert _tag(["zyzzyva"]) == ["NN"]

    def test_ed_rule_matches_reference_on_golden_corpus(self):
        """The stream's tags are the rules-only reference's, and the corpus
        holds -ed words that their context tags VBN and VBD."""
        documents = load_corpus(GOLDEN_CORPUS).documents
        stream = FeaturePipeline(Corpus(documents=documents))._stream()
        tags = [stream.tags[i] for i in stream.tag_ids.tolist()]
        assert tags == [t for doc in documents
                        for sentence in preprocess_document(doc).sentences for t in sentence.tags]
        words = [stream.words[i] for i in stream.ids.tolist()]
        context_tags = {t for word, t in zip(words, tags)
                        if tag(["", word])[1] != tag(["was", word])[1]}
        assert context_tags == {"VBN", "VBD"}

    def test_ed_word_after_every_verb_form(self):
        for form in _VERB_FORMS:
            assert _tag([form, "stunned"])[1] == "VBN" == tag([form, "stunned"])[1]
        assert _tag(["stunned"]) == ["VBD"] == tag(["stunned"])

    def test_ed_word_context(self):
        words = ["was", "stunned", "she", "stunned", "had", "stunned"]
        assert _tag(words)[1::2] == ["VBN", "VBD", "VBN"]
        assert _tag(["stunned", "been", "stunned"]) == ["VBD", "VBN", "VBN"]
        assert _tag(words) == tag(words)

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
        assert _sentences("") == []

    def test_lines_become_sentences(self):
        assert len(_sentences("fine film\n\ngreat ending\n")) == 2

    def test_pretagged_pipeline(self):
        out = _sentence("i_PRP do_VBP not_RB like_VB it_PRP", get_tagger("pretagged"))
        assert _surfaces(out.words, out.negated) == ["i", "do", "not", "NOT_like", "NOT_it"]
        assert out.tags == ["PRP", "VBP", "RB", "VB", "PRP"]

    def test_punctuation_tokens_kept(self):
        out = _sentence("good grief !")
        assert out.words == ["good", "grief", "!"]
