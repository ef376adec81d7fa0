"""The pipeline's token stream against the per-document preprocessing reference.

``FeaturePipeline`` preprocesses the raw corpus straight into one token
stream and derives ``documents`` from it. For either tagger, those documents
must equal ``preprocess_document`` of each raw document, and the stream's
arrays must equal the ones built token by token from those documents: word
ids in first-seen order, tags, tag bits, negation flags, sentence starts and
document bounds.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polarity.corpus import Corpus, Label, RawDocument, load_corpus
from polarity.evaluation import FeaturePipeline
from polarity.features import FAMILIES, TAG_BITS, FeatureFamily
from polarity.lexicon import LexiconEntry, Polarity, SubjectivityLexicon
from polarity.preprocess import preprocess_document
from polarity.tagging import PretaggedReader, RuleTagger, get_tagger
from polarity.vectorize import FeatureMatrix

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus"

# Contractions (also split as "isn ' t"), repeated triggers, the kept marks,
# characters whose case mapping changes length, and -ed words at a sentence
# start and after a _VERB_FORMS word ("was", "has", "been").
_WORDS = ["it", "is", "isn't", "Isn't", "isn ' t", "don't", "won't", "can't", "it's",
          "not", "Not", "NOT", "never", "very", "good", "bad", "walked", "Bored", "ended",
          "was", "has", "been", "did", "!", "?", "!!", "?!", "...", ",", "--", "'", "\"",
          "İ", "İstanbul", "ß", "STRAẞE", "42", "3.5", "well-made", "a_b", "x"]
_SEPARATORS = ["\n", "\n", "\n\n", "\r\n", " \n", " "]
_TAGS = ["JJ", "jj", "RB", "NN", "VBD", "VB", ".", "DT"]

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


def corpus_of(texts):
    return Corpus(documents=[
        RawDocument(id=f"cv{i:03d}_{i}", label=Label.POSITIVE if i % 2 else Label.NEGATIVE,
                    text=text)
        for i, text in enumerate(texts)])


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
    pipeline = FeaturePipeline(corpus, tagger=tagger)
    expected = [preprocess_document(doc, tagger) for doc in corpus.documents]
    assert pipeline.documents == expected

    stream = pipeline._stream()
    reference = reference_stream(expected)
    assert stream.words == reference["words"]
    assert stream.ids.dtype == np.intc and stream.tag_ids.dtype == np.intc
    assert stream.ids.tolist() == reference["ids"]
    assert [stream.tags[t] for t in stream.tag_ids.tolist()] == reference["tags"]
    assert stream.tag_bits.tolist() == [TAG_BITS.get(t, 0) for t in reference["tags"]]
    assert stream.negated.tolist() == reference["negated"]
    assert stream.starts.tolist() == reference["starts"]
    assert stream.doc_bounds.tolist() == reference["doc_bounds"]
    shared = {id(word) for word in stream.words}
    assert all(id(word) in shared
               for doc in pipeline.documents for s in doc.sentences for word in s.words)


@settings(max_examples=150, deadline=None)
@given(st.lists(texts, min_size=1, max_size=4))
@example(["Walked home . It was walked , has ended , been bored\nisn ' t good ! not not bad ? ok"])
@example(["", ",;: ...\n\n--", "İ ß STRAẞE"])
def test_builtin_stream_matches_preprocess_document(documents):
    assert_stream_matches_reference(corpus_of(documents), RuleTagger())


@settings(max_examples=150, deadline=None)
@given(st.lists(pretagged_texts, min_size=1, max_size=4))
@example(["jj_NN good_jj not_RB bad_JJ ! very_RB good_jj\n..._. ,\n\nnew_york_NN a_b_jj"])
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
    pipeline = FeaturePipeline(corpus, lexicon=LEXICON, tagger=get_tagger(tagger))
    for family in FAMILIES:
        if family is FeatureFamily.TRANSITION:
            continue
        matrix = pipeline.family_matrix(family)
        expected = FeatureMatrix.from_bags(pipeline.family_bags(family))
        assert matrix.features == expected.features
        assert matrix.counts.shape == expected.counts.shape == (len(texts), len(expected.features))
        assert (matrix.counts != expected.counts).nnz == 0
    assert bool(pipeline.family_matrix(FeatureFamily.POLARIZED_BIGRAM).features) == has_words
