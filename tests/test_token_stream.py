"""The pipeline's token stream against the per-document preprocessing reference.

``FeaturePipeline`` preprocesses the raw corpus straight into one token
stream. For either tagger, the stream's arrays must equal the ones built
token by token from ``reference.preprocess_document`` of each raw document:
word ids in first-seen order, tags, tag bits, negation flags, sentence
starts and document bounds.
"""

import gc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corpus_of, family_matrix, to_scipy
from polarity.corpus import load_corpus
from polarity.evaluation import FeaturePipeline
from polarity.features import FAMILIES, FeatureFamily, _TokenStream
from polarity.lexicon import LexiconEntry, Polarity, SubjectivityLexicon, load_transitions
from polarity.tagging import PretaggedReader, RuleTagger, get_tagger
from reference import from_bags, pipeline_bags, preprocess_document, tag_bits

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus"

# Contractions (also split as "isn ' t"), repeated triggers, the kept marks,
# characters whose case mapping changes length or depends on the next letter
# (a final capital sigma), and -ed words at a sentence start and after a
# _VERB_FORMS word ("was", "has", "been"). The separators include every line
# break of str.splitlines.
_WORDS = ["it", "is", "isn't", "Isn't", "isn ' t", "don't", "won't", "can't", "it's",
          "not", "Not", "NOT", "never", "very", "good", "bad", "walked", "Bored", "ended",
          "was", "has", "been", "did", "!", "?", "!!", "?!", "...", ",", "--", "'", "\"",
          "İ", "İstanbul", "ß", "STRAẞE", "Σ", "ΟΔΟΣ", "42", "3.5", "well-made", "a_b", "x"]
_SEPARATORS = ["\n", "\n", "\n\n", "\r\n", " \n", " ", "\r", "\x0b", "\x0c", "\x1c",
               "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# "ǰ" upper-cases to two characters, "J" and a combining caron: not a content tag.
_TAGS = ["JJ", "jj", "RB", "NN", "VBD", "VB", ".", "DT", "ǰ"]

lines = st.lists(st.sampled_from(_WORDS) | st.text(max_size=4), max_size=8).map(" ".join)
texts = st.lists(st.tuples(lines, st.sampled_from(_SEPARATORS)), max_size=6).map(
    lambda parts: "".join(line + sep for line, sep in parts))

# word_TAG tokens, and bare punctuation tokens that the reader tags ".".
_PRETAGGED_WORDS = [w for w in _WORDS if " " not in w and "_" not in w] + ["a_b", "new_york"]
tokens = (st.tuples(st.sampled_from(_PRETAGGED_WORDS), st.sampled_from(_TAGS)).map("_".join)
          | st.sampled_from(["!", "?", "...", ",", "!_.", "..._."]))
pretagged_texts = st.lists(
    st.tuples(st.lists(tokens, max_size=8).map(" ".join), st.sampled_from(_SEPARATORS)),
    max_size=6).map(lambda parts: "".join(line + sep for line, sep in parts))


def reference_stream(documents):
    """The stream's fields built token by token from preprocessed documents."""
    index: dict[str, int] = {}
    ids, tags, negated, starts, bounds = [], [], [], [], [0]
    for doc in documents:
        for words, sentence_tags, mask in doc.sentences:
            for i, (word, tag, neg) in enumerate(zip(words, sentence_tags, mask)):
                ids.append(index.setdefault(word, len(index)))
                tags.append(tag)
                negated.append(neg)
                starts.append(i == 0)
        bounds.append(len(ids))
    return {"words": list(index), "ids": ids, "tags": tags, "negated": negated,
            "starts": starts, "doc_bounds": bounds}


def assert_stream_matches_reference(corpus, tagger):
    stream = FeaturePipeline(corpus, tagger=tagger)._stream()
    reference = reference_stream([preprocess_document(doc, tagger) for doc in corpus.documents])
    assert stream.words == reference["words"]
    assert stream.ids.dtype == np.intc and stream.tag_ids.dtype == np.intc
    assert stream.ids.tolist() == reference["ids"]
    assert [stream.tags[t] for t in stream.tag_ids.tolist()] == reference["tags"]
    assert stream.tag_bits.tolist() == [tag_bits(t) for t in reference["tags"]]
    assert stream.negated.tolist() == reference["negated"]
    assert stream.starts.tolist() == reference["starts"]
    assert stream.doc_bounds.tolist() == reference["doc_bounds"]


@settings(max_examples=150, deadline=None)
@given(st.lists(texts, min_size=1, max_size=4))
@example(["Walked home . It was walked , has ended , been bored\nisn ' t good ! not not bad ? ok"])
@example(["", ",;: ...\n\n--", "İ ß STRAẞE"])
@example(["ΟΔΟΣ\x85Σ x\u2028AΣ\nΣ'Σ don't\x1cAΣ\u2029won't"])
def test_builtin_stream_matches_preprocess_document(documents):
    assert_stream_matches_reference(corpus_of(documents), RuleTagger())


@settings(max_examples=150, deadline=None)
@given(st.lists(pretagged_texts, min_size=1, max_size=4))
@example(["jj_NN good_jj not_RB bad_JJ ! very_RB good_jj\n..._. ,\n\nnew_york_NN a_b_jj"])
@example(["although_IN good_ǰ film_NN"])
def test_pretagged_stream_matches_preprocess_document(documents):
    assert_stream_matches_reference(corpus_of(documents), PretaggedReader())


def test_golden_corpus_stream_matches_preprocess_document():
    assert_stream_matches_reference(load_corpus(GOLDEN_CORPUS), get_tagger("builtin"))


def test_ed_words_take_their_context():
    """An -ed word is VBN right after a _VERB_FORMS word of its sentence, else VBD."""
    corpus = corpus_of(["was\nwalked walked was walked\nhas been walked\nwalked"])
    stream = FeaturePipeline(corpus)._stream()
    tags = [stream.tags[t] for t in stream.tag_ids.tolist()]
    assert tags == ["VBD", "VBD", "VBD", "VBD", "VBN", "VBZ", "VBN", "VBN", "VBD"]


LEXICON = SubjectivityLexicon(entries={
    "good": [LexiconEntry(Polarity.POS, "any")],
    "bad": [LexiconEntry(Polarity.NEG, "adj")],
})
EDGE_CORPORA = {
    "empty": [""],
    "punctuation-only": [",;: ...\n--\n\n"],
    "empty-beside-text": ["", "not good ! bad", ",;:", "good"],
}


@pytest.mark.parametrize("texts", EDGE_CORPORA.values(), ids=EDGE_CORPORA.keys())
@pytest.mark.parametrize("tagger", ["builtin", "pretagged"])
def test_empty_and_punctuation_only_documents(texts, tagger):
    if tagger == "pretagged":
        texts = [" ".join(f"{w}_JJ" if w.isalpha() else w for w in t.split(" ")) for t in texts]
    corpus = corpus_of(texts)
    has_words = any(map(str.isalpha, "".join(texts)))
    assert_stream_matches_reference(corpus, get_tagger(tagger))
    pipeline = FeaturePipeline(corpus, lexicon=LEXICON, transitions=load_transitions(),
                               tagger=get_tagger(tagger))
    for family in FAMILIES:
        matrix = family_matrix(pipeline, family)
        expected = from_bags(pipeline_bags(pipeline, family))
        assert matrix.features == expected.features
        assert matrix.counts.shape == expected.counts.shape == (len(texts), len(expected.features))
        assert (to_scipy(matrix.counts) != to_scipy(expected.counts)).nnz == 0
    assert bool(family_matrix(pipeline, FeatureFamily.POLARIZED_BIGRAM).features) == has_words


@pytest.mark.parametrize("tagger", ["builtin", "pretagged"])
def test_the_stream_leaves_no_cyclic_garbage(tagger):
    """Dropping a built stream, annotations included, frees it by reference
    counting alone: a cycle would keep its word index alive until the next
    full collection."""
    corpus = load_corpus(GOLDEN_CORPUS)
    if tagger == "pretagged":
        corpus = corpus_of([" ".join(f"{w}_JJ" for w in doc.read().split()) + "\nnot_RB x_NN"
                            for doc in corpus.documents])
    gc.collect()
    gc.disable()
    try:
        stream = _TokenStream(corpus.documents, get_tagger(tagger))
        stream.tag_bits, stream.negated
        del stream
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_family_asked_for_after_release_tokens_equals_one_built_before():
    """``release_tokens`` keeps the cached matrices; a family asked for after
    it builds the stream again, from the same documents, to the same matrix."""
    corpus = load_corpus(GOLDEN_CORPUS)
    built = FeaturePipeline(corpus, lexicon=LEXICON, transitions=load_transitions())
    expected = {family: family_matrix(built, family, min_count=2) for family in FAMILIES}
    pipeline = FeaturePipeline(corpus, lexicon=LEXICON, transitions=load_transitions())
    unigram = family_matrix(pipeline, FeatureFamily.UNIGRAM, min_count=2)
    pipeline.release_tokens()
    assert family_matrix(pipeline, FeatureFamily.UNIGRAM, min_count=2) is unigram
    for family in FAMILIES:
        matrix = family_matrix(pipeline, family, min_count=2)
        assert matrix.features == expected[family].features
        assert (to_scipy(matrix.counts) != to_scipy(expected[family].counts)).nnz == 0
