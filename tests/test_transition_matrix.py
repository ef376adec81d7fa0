"""The ``t`` family matrix, counted from the token stream, against the bag reference.

``FeaturePipeline.family_matrices`` for ``t`` must equal ``reference.from_bags``
over ``reference.extract_transitions`` bags pruned the same way, at every
floor of ``MIN_COUNTS``, for the built-in and the pretagged tagger. The
generated text and transition lists hold repeated, overlapping and
prefix-sharing phrases (``in spite of`` / ``in contrast`` / ``in``), phrases
split across a line end, phrase words that are content words or polarized, a
phrase word missing from the corpus, and, for pretagged text, words and a
phrase holding ``_`` whose feature strings collide (``tr:a_b_c`` from the
phrase ``a`` with the word ``b_c`` and from the phrase ``a_b`` with the word
``c``).
"""

from hypothesis import example, given, settings, strategies as st

from conftest import MIN_COUNTS, assert_matches_bags, corpus_of, family_matrix, to_scipy
from polarity.evaluation import FeaturePipeline
from polarity.features import FeatureFamily
from polarity.lexicon import ANYPOS, LexiconEntry, Polarity, SubjectivityLexicon
from polarity.lexicon import TransitionList, load_transitions
from polarity.tagging import PretaggedReader, RuleTagger

BUNDLED = load_transitions().phrases
_PHRASES = ["in spite of", "in contrast", "in", "spite of", "on the other hand", "the other",
            "hand", "of", "but", "however", "even so", "so", "good", "film", "in in",
            "missing phrase", "a", "a_b", "a b", "b_c"]
_WORDS = ["in", "spite", "of", "contrast", "on", "the", "other", "hand", "but", "however",
          "even", "so", "good", "bad", "film", "plot", "walked", "really", "famous", "love",
          "is", "was", "not", "a", "b", "c", "!", "?"]
_SEPARATORS = [" ", " ", " ", "\n", "\n\n"]
_TAGS = ["JJ", "jj", "NN", "nn", "NNS", "VB", "vbd", "RB", "DT", "IN", "."]

LEXICON = SubjectivityLexicon(entries={
    "good": [LexiconEntry(Polarity.POS, ANYPOS)],
    "bad": [LexiconEntry(Polarity.NEG, "adj")],
    "hand": [LexiconEntry(Polarity.NEG, "noun")],
    "spite": [LexiconEntry(Polarity.NEG, ANYPOS)],
    "famous": [LexiconEntry(Polarity.POS, "adj")],
    "love": [LexiconEntry(Polarity.POS, "verb")],
    "b_c": [LexiconEntry(Polarity.POS, ANYPOS)],
})

phrase_lists = (st.lists(st.sampled_from(_PHRASES), min_size=1, max_size=8, unique=True)
                | st.just(BUNDLED))


def _joined(tokens):
    """Tokens joined by spaces and line ends, so phrases may be split across lines."""
    return st.lists(st.tuples(tokens, st.sampled_from(_SEPARATORS)), max_size=14).map(
        lambda parts: "".join(token + sep for token, sep in parts))


texts = _joined(st.sampled_from(_WORDS))
pretagged_texts = _joined(
    st.tuples(st.sampled_from(_WORDS + ["a_b", "b_c"]), st.sampled_from(_TAGS)).map("_".join)
    | st.sampled_from(["!", "..."]))


def assert_t_matches_reference(documents, phrases, tagger):
    pipeline = FeaturePipeline(corpus_of(documents), lexicon=LEXICON,
                               transitions=TransitionList(list(phrases)), tagger=tagger)
    for min_count in MIN_COUNTS:
        assert_matches_bags(pipeline, FeatureFamily.TRANSITION, False, min_count)


@settings(max_examples=200, deadline=None)
@given(st.lists(texts, min_size=1, max_size=4), phrase_lists)
@example(["on the other hand it works", "it was fine on the other hand\neven so good",
          "it was fine except that film"], BUNDLED)
@example(["in spite of that good film", "in spite\nof the film"], ["in spite of", "in"])
@example(["in spite of it good", "in contrast to the plot", "in spite film",
          "in in contrast walked"], ["in spite of", "in contrast", "in"])
@example(["in spite of the other hand film", "spite of hand"],
         ["in", "in spite of", "spite of", "on the other hand", "the other", "hand", "of"])
@example(["good film good but good", "film film bad", "missing good"],
         ["good", "film", "missing phrase", "but"])
def test_builtin_transition_matrix_matches_bags(documents, phrases):
    assert_t_matches_reference(documents, phrases, RuleTagger())


@settings(max_examples=200, deadline=None)
@given(st.lists(pretagged_texts, min_size=1, max_size=4), phrase_lists)
@example(["a_DT b_c_NN but_CC a_b_DT c_NN", "a_b_DT c_nn ! a_DT b_c_jj"], ["a", "a_b"])
@example(["in_IN spite_NN\nof_IN good_jj film_nn", "good_JJ in_IN contrast_NN bad_jj"],
         ["in spite of", "in contrast", "in"])
def test_pretagged_transition_matrix_matches_bags(documents, phrases):
    assert_t_matches_reference(documents, phrases, PretaggedReader())


def test_underscore_phrase_and_word_spell_one_feature():
    """The phrase ``a`` with the word ``b_c`` and the phrase ``a_b`` with the word
    ``c`` both write ``tr:a_b_c``, once each: one column holding both counts,
    which reaches a floor of 2 only through the merged spelling."""
    pipeline = FeaturePipeline(corpus_of(["a_DT b_c_NN but_CC a_b_DT c_NN"]), lexicon=LEXICON,
                               transitions=TransitionList(["a", "a_b"]),
                               tagger=PretaggedReader())
    matrix = family_matrix(pipeline, FeatureFamily.TRANSITION, min_count=2)
    assert to_scipy(matrix.counts)[0, matrix.features.index("tr:a_b_c")] == 2
    assert "tr:a_b_c" not in family_matrix(pipeline, FeatureFamily.TRANSITION, min_count=3).features
