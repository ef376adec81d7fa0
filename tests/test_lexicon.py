"""Subjectivity lexicon loading and polarity queries; transition lists."""

import pytest

from polarity.errors import ConfigError, DataError
from polarity.lexicon import Polarity, load_lexicon, load_transitions

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

    def test_multiword_phrase_matches_as_unit(self):
        trans = load_transitions()
        matches = trans.find_matches("on the other hand it works".split())
        assert matches == [("on the other hand", 0, 4)]

    def test_longest_first(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("in\nin spite of\n", encoding="utf-8")
        trans = load_transitions(path)
        assert trans.find_matches("in spite of that".split()) == [("in spite of", 0, 3)]

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("# only a comment\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty"):
            load_transitions(path)
