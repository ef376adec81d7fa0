"""Subjectivity lexicon loading and polarity queries; transition lists.

Phrase matching is checked through the token stream's matcher against the
plain scan of ``reference.find_matches``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corpus_of
from polarity.errors import ConfigError, DataError
from polarity.features import _TokenStream
from polarity.lexicon import (Polarity, SubjectivityLexicon, TransitionList, load_lexicon,
                              load_transitions)
from polarity.tagging import RuleTagger
from reference import find_matches

TFF_SAMPLE = """\
type=weaksubj len=1 word1=abandon pos1=verb stemmed1=y priorpolarity=negative
type=strongsubj len=1 word1=love pos1=verb stemmed1=n priorpolarity=positive
type=strongsubj len=1 word1=love pos1=noun stemmed1=n priorpolarity=positive
type=weaksubj len=1 word1=mean pos1=adj stemmed1=n priorpolarity=negative
type=weaksubj len=1 word1=mean pos1=verb stemmed1=y priorpolarity=neutral
type=weaksubj len=1 word1=just pos1=anypos stemmed1=n priorpolarity=neutral
"""


@pytest.fixture()
def tff_file(tmp_path):
    path = tmp_path / "clues.tff"
    path.write_text(TFF_SAMPLE, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_tff_entry(self, tff_file):
        lex = load_lexicon(tff_file, format="tff")
        assert lex.polarity_of("abandon", "VB") is Polarity.NEG

    def test_neutral_dropped(self, tff_file):
        lex = load_lexicon(tff_file, format="tff")
        assert lex.polarity_of("just", "RB") is None
        # the neutral verb reading of "mean" is dropped, the adj one stays
        assert [e.pos_constraint for e in lex.entries["mean"]] == ["adj"]

    def test_counts_reported_both_ways(self, tff_file):
        counts = load_lexicon(tff_file, format="tff").counts()
        assert counts == {"pos_entries": 2, "neg_entries": 2, "pos_words": 1, "neg_words": 2}

    def test_tsv_single_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tPOS\n", encoding="utf-8")
        lex = load_lexicon(path, format="tsv")
        assert len(lex) == 1
        assert lex.polarity_of("good", "JJ") is Polarity.POS

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "latin-1"])
    def test_non_ascii_word_in_either_encoding(self, tmp_path, encoding):
        """A Latin-1 lexicon is decoded as the corpus is, not with its
        non-ASCII words replaced; a byte-order mark does not stick to the
        first word."""
        path = tmp_path / "lex.tsv"
        path.write_bytes("caf\xe9\tPOS\n".encode(encoding))
        lex = load_lexicon(path, format="tsv")
        assert lex.polarity_of("caf\xe9", "NN") is Polarity.POS

    def test_tff_byte_order_mark_dropped(self, tmp_path):
        """The mark sits on the first key of line 1, here ``word1``."""
        path = tmp_path / "clues.tff"
        path.write_bytes("word1=good pos1=adj priorpolarity=positive\n".encode("utf-8-sig"))
        lex = load_lexicon(path, format="tff")
        assert lex.polarity_of("good", "JJ") is Polarity.POS

    def test_unparseable_line_reports_number(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("good\tPOS\nbroken line\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_lexicon(path, format="tsv")

    def test_empty_lexicon_rejected(self, tmp_path):
        path = tmp_path / "empty.tff"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no usable entries"):
            load_lexicon(path, format="tff")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_lexicon(tmp_path / "nope.tff")

    def test_bad_format_name(self, tff_file):
        with pytest.raises(ConfigError):
            load_lexicon(tff_file, format="xml")


class TestPolarityOf:
    def test_paper_example_love_vb(self, tiny_lexicon):
        assert tiny_lexicon.polarity_of("love", "VB") is Polarity.POS

    def test_function_word_absent(self, tiny_lexicon):
        assert tiny_lexicon.polarity_of("the", "DT") is None

    def test_pos_constraint_disambiguates(self, tff_file):
        lex = load_lexicon(tff_file)
        # verb and noun entries exist for "love"; both are positive
        assert lex.polarity_of("love", "VBD") is Polarity.POS
        assert lex.polarity_of("love", "NN") is Polarity.POS
        # no matching constraint and no anypos entry: first entry wins
        assert lex.polarity_of("love", "JJ") is Polarity.POS

    def test_pure_function(self, tiny_lexicon):
        results = {tiny_lexicon.polarity_of("good", "JJ") for _ in range(5)}
        assert results == {Polarity.POS}


class TestTransitions:
    def test_bundled_default_has_27(self):
        assert len(load_transitions()) == 27

    def test_dedup_and_casefold(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("However\nhowever\n", encoding="utf-8")
        trans = load_transitions(path)
        assert trans.phrases == ["however"]

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("but\nhowever\n".encode("utf-8-sig"))
        assert sorted(load_transitions(path).phrases) == ["but", "however"]

    def test_multiword_phrase_matches_as_unit(self):
        trans = load_transitions()
        matches = stream_matches(trans, "on the other hand it works".split())
        assert matches == [("on the other hand", 0, 4)]

    def test_longest_first(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("in\nin spite of\n", encoding="utf-8")
        trans = load_transitions(path)
        assert stream_matches(trans, "in spite of that".split()) == [("in spite of", 0, 3)]

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_transitions(path)


def stream_matches(trans, words):
    """The token stream's (phrase, start, end) matches over *words* as one sentence."""
    stream = _TokenStream(corpus_of([" ".join(words)]).documents, RuleTagger(),
                          transitions=trans)
    assert [stream.words[i] for i in stream.ids.tolist()] == list(words)
    start, end, phrase = stream._phrase_matches()
    return [(trans.phrases[p], a, b)
            for a, b, p in zip(start.tolist(), end.tolist(), phrase.tolist())]


BUNDLED = load_transitions()
PHRASE_WORDS = sorted({w for p in BUNDLED.phrases for w in p.split()})
FILLER = ["the", "film", "was", "good", "not", "!"]


class TestIndexedMatching:
    """The token stream's phrase matcher against the plain scan."""

    @given(st.lists(st.sampled_from(PHRASE_WORDS + FILLER), max_size=30))
    def test_random_words_match_reference(self, words):
        assert stream_matches(BUNDLED, words) == find_matches(BUNDLED, words)

    def test_prefix_of_longer_phrases(self):
        trans = TransitionList(["in spite of", "in contrast", "in"])
        for text, expected in [
            ("in spite of it", [("in spite of", 0, 3)]),
            ("in contrast to", [("in contrast", 0, 2)]),
            ("in spite", [("in", 0, 1)]),
            ("in in contrast", [("in", 0, 1), ("in contrast", 1, 3)]),
        ]:
            words = text.split()
            assert stream_matches(trans, words) == expected == find_matches(trans, words)

    @pytest.mark.parametrize("text", ["it was fine on the other hand",
                                      "it was fine except that", "even so"])
    def test_phrase_ending_the_sentence(self, text):
        words = text.split()
        matches = stream_matches(BUNDLED, words)
        assert matches and matches[-1][2] == len(words)
        assert matches == find_matches(BUNDLED, words)

    @given(st.permutations(["in", "in spite of", "spite of", "on the other hand",
                            "the other", "hand", "of"]),
           st.lists(st.sampled_from(["in", "spite", "of", "on", "the", "other", "hand",
                                     "film"]), max_size=20))
    def test_unsorted_list_keeps_list_order(self, phrases, words):
        trans = TransitionList(list(phrases))
        assert stream_matches(trans, words) == find_matches(trans, words)


# Loader fuzzing: lexicon and transition files built from the formats' own
# fields and values, from free text, or from arbitrary bytes.
_TFF_KEYS = ["type", "len", "word1", "pos1", "stemmed1", "priorpolarity", "mpqapolarity", ""]
_VALUES = ["positive", "negative", "neutral", "both", "weakneg", "POS", "neg", "+", "-",
           "adj", "adverb", "noun", "verb", "anypos", "ADJ", "good", "caf\xe9", "\ufeff", ""]
_values = st.sampled_from(_VALUES) | st.text(max_size=6)
_tff_lines = st.lists(st.tuples(st.sampled_from(_TFF_KEYS), _values), max_size=6).map(
    lambda fields: " ".join(f"{key}={value}" for key, value in fields))
_tsv_lines = st.lists(_values, max_size=4).map("\t".join)
_comments = st.sampled_from(["# comment", "", "   ", "#", "\ufeff"])
_phrases = st.sampled_from(["but", "however", "on the other hand", "in spite of", "# only",
                            "yet # trailing", "\ufeffbut", "BUT", "", "  "]) | st.text(max_size=12)
_newlines = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\u2028"])


def _files(lines):
    texts = st.lists(st.tuples(lines, _newlines), max_size=6).map(
        lambda parts: "".join(line + newline for line, newline in parts))
    return (st.tuples(texts, st.sampled_from(["utf-8", "utf-8-sig", "latin-1", "utf-16"]))
            .map(lambda pair: pair[0].encode(pair[1], errors="replace"))
            | st.binary(max_size=60))


lexicon_files = st.one_of(
    st.tuples(st.just("tff"), _files(_tff_lines | _comments | st.text(max_size=20))),
    st.tuples(st.just("tsv"), _files(_tsv_lines | _comments | st.text(max_size=20))),
)
transition_files = _files(_phrases | _comments)


@settings(max_examples=300, deadline=None)
@given(lexicon_files)
def test_lexicon_loader_loads_or_fails_cleanly(tmp_path_factory, case):
    """Any lexicon file either loads or raises ConfigError/DataError."""
    fmt, payload = case
    path = tmp_path_factory.getbasetemp() / f"fuzz-lexicon.{fmt}"
    path.write_bytes(payload)
    try:
        lexicon = load_lexicon(path, format=fmt)
    except (ConfigError, DataError):
        return
    assert isinstance(lexicon, SubjectivityLexicon) and len(lexicon) > 0


@settings(max_examples=300, deadline=None)
@given(transition_files)
def test_transition_loader_loads_or_fails_cleanly(tmp_path_factory, payload):
    """Any transition file either loads or raises ConfigError/DataError."""
    path = tmp_path_factory.getbasetemp() / "fuzz-transitions.txt"
    path.write_bytes(payload)
    try:
        transitions = load_transitions(path)
    except (ConfigError, DataError):
        return
    assert transitions.phrases and all(p == p.strip().lower() for p in transitions.phrases)
