"""The cached family matrices against the bag reference, at every pruning floor.

For every row of ``features.FAMILIES`` (and the negated unigram variant),
``FeaturePipeline.family_matrices`` at a floor must equal ``reference.from_bags``
over the family's reference bags restricted to the columns that reach it, as
``conftest.assert_matches_bags`` checks at each floor of ``MIN_COUNTS``. For
the ``Window`` rows the corpora are the golden corpus under the built-in
tagger and a pretagged corpus with ``_`` inside words, an empty document and
one-word sentences.

For the ``Polarized`` rows (``pu`` and ``pb``) they are the golden corpus and
a pretagged corpus where a lowercase tag spells a word (``jj_NN`` beside
``good_jj``), so that a word key and a tag key spell one ``pb`` feature,
which reaches a floor only through that merged spelling. Both rows together
ask the lexicon once per distinct (word, tag) pair.

The token stream tags and marks negation only for the rows that read them,
once, and its int32 positions and keys give the same matrices as int64 ones.
``_keyed_matrix`` gives the matrix of ``reference.keyed_matrix``, which
totals every distinct key, on drawn parts, and a trigram build's traced
scratch stays bounded per occurrence.
"""

import random
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import MIN_COUNTS, assert_matches_bags, corpus_of, family_matrix, to_scipy
from polarity.corpus import Corpus, Label, RawDocument, load_corpus
from polarity import features, vectorize
from polarity.evaluation import FeaturePipeline
from polarity.features import FAMILIES, FeatureFamily, Window
from polarity.lexicon import ANYPOS, LexiconEntry, Polarity, SubjectivityLexicon, load_lexicon
from polarity.lexicon import load_transitions
from polarity.tagging import RuleTagger, get_tagger
import reference
from reference import extract_window, preprocess_document

CORPUS = Path(__file__).parent / "golden" / "corpus"
VARIANTS = ([(family, False) for family, row in FAMILIES.items() if isinstance(row, Window)]
            + [(FeatureFamily.UNIGRAM, True)])
# Words with "_" make features whose strings collide across keys:
# ("a_b", "c") and ("a", "b_c") are both "b:a_b_c".
_PRETAGGED_WORDS = ["a", "b", "c", "a_b", "b_c", "new", "york", "new_york", "york_city",
                    "city", "not", "very", "good", "!"]
_PRETAGGED_TAGS = ["JJ", "RB", "NN", "VB", "DT", "JJS", "RBR"]


def write_pretagged_corpus(root: Path) -> Path:
    rng = random.Random(3)
    for i in range(16):
        label = "pos" if i % 2 else "neg"
        lines = []
        if i != 5:  # document 5 stays empty
            for _ in range(rng.randint(1, 6)):
                length = 1 if rng.random() < 0.25 else rng.randint(2, 7)
                tokens = []
                for _ in range(length):
                    word = rng.choice(_PRETAGGED_WORDS)
                    tokens.append("!" if word == "!" else f"{word}_{rng.choice(_PRETAGGED_TAGS)}")
                lines.append(" ".join(tokens))
        path = root / label / f"cv{i:03d}_{i}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def golden_pipeline():
    return FeaturePipeline(load_corpus(CORPUS))


@pytest.fixture(scope="module")
def pretagged_pipeline(tmp_path_factory):
    root = write_pretagged_corpus(tmp_path_factory.mktemp("pretagged_underscore"))
    return FeaturePipeline(load_corpus(root), tagger=get_tagger("pretagged"))


IDS = [f"{f.value}{'-neg' if n else ''}-min{m}" for f, n in VARIANTS for m in MIN_COUNTS]
CASES = [(f, n, m) for f, n in VARIANTS for m in MIN_COUNTS]


@pytest.mark.parametrize("family,negation,min_count", CASES, ids=IDS)
def test_golden_family_matrix_matches_bags(golden_pipeline, family, negation, min_count):
    assert_matches_bags(golden_pipeline, family, negation, min_count)


@pytest.mark.parametrize("family,negation,min_count", CASES, ids=IDS)
def test_pretagged_family_matrix_matches_bags(pretagged_pipeline, family, negation, min_count):
    assert_matches_bags(pretagged_pipeline, family, negation, min_count)


def test_pretagged_corpus_shape(pretagged_pipeline):
    """The corpus holds what the cases above rely on."""
    documents = [preprocess_document(doc, pretagged_pipeline.tagger)
                 for doc in pretagged_pipeline.corpus.documents]
    assert any(not doc.sentences for doc in documents)
    assert any(len(s.words) == 1 for doc in documents for s in doc.sentences)
    assert any("_" in w for doc in documents for s in doc.sentences for w in s.words)
    assert any(any(s.negated) for doc in documents for s in doc.sentences)


def test_renumbered_keys_give_the_same_matrix(golden_pipeline, monkeypatch):
    """Keys that would pass the int64 bound are renumbered densely first."""
    expected = {n: family_matrix(golden_pipeline, family, min_count=2)
                for n, family in [(2, FeatureFamily.BIGRAM), (3, FeatureFamily.TRIGRAM)]}
    monkeypatch.setattr(features, "_MAX_KEY", len(golden_pipeline._tokens.words) ** 2 - 1)
    for n, family in [(2, FeatureFamily.BIGRAM), (3, FeatureFamily.TRIGRAM)]:
        matrix = golden_pipeline._tokens.window_matrix(FAMILIES[family], 2)
        assert matrix.features == expected[n].features
        assert (to_scipy(matrix.counts) != to_scipy(expected[n].counts)).nnz == 0


PLAIN_WINDOWS = [FeatureFamily.UNIGRAM, FeatureFamily.BIGRAM, FeatureFamily.TRIGRAM]


def test_plain_windows_compute_no_annotation(golden_pipeline, monkeypatch):
    """``unigram``, ``bigram`` and ``trigram`` without the negated variant read
    neither tags nor negation scopes, so they build with both refusing to run."""
    expected = {family: family_matrix(golden_pipeline, family) for family in PLAIN_WINDOWS}

    def refuse(*args):
        raise AssertionError("an annotation was computed")

    monkeypatch.setattr(RuleTagger, "tag_stream", refuse)
    monkeypatch.setattr(features, "negation_scopes", refuse)
    pipeline = FeaturePipeline(load_corpus(CORPUS))
    for family in PLAIN_WINDOWS:
        matrix = family_matrix(pipeline, family)
        assert matrix.features == expected[family].features
        assert (to_scipy(matrix.counts) != to_scipy(expected[family].counts)).nnz == 0


def test_each_annotation_is_computed_once(monkeypatch):
    """``adj``, ``pu`` and the negated ``unigram`` (and every other row after
    them) share one tagging, one tag-bits array and one negation pass."""
    calls = Counter()

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(RuleTagger, "tag_stream", counted("tag_stream", RuleTagger.tag_stream))
    monkeypatch.setattr(features, "negation_scopes",
                        counted("negation_scopes", features.negation_scopes))
    monkeypatch.setattr(features, "tag_bits", counted("tag_bits", features.tag_bits))
    pipeline = FeaturePipeline(load_corpus(CORPUS),
                               lexicon=load_lexicon(CORPUS / "lexicon.tsv", format="tsv"),
                               transitions=load_transitions())
    for min_count in (1, 2):
        for family, negated in [(FeatureFamily.ADJECTIVE, False),
                                (FeatureFamily.POLARIZED_UNIGRAM, False),
                                (FeatureFamily.UNIGRAM, True)] + VARIANTS:
            family_matrix(pipeline, family, negated, min_count)
        family_matrix(pipeline, FeatureFamily.POLARIZED_BIGRAM, min_count=min_count)
        family_matrix(pipeline, FeatureFamily.TRANSITION, min_count=min_count)
    assert calls == {"tag_stream": 1, "negation_scopes": 1,
                     "tag_bits": len(pipeline._tokens.tags)}


@pytest.mark.parametrize("limit", ["none", "words", "tokens", "words^2", "default"])
def test_int64_scratch_gives_the_same_window_matrices(golden_pipeline, monkeypatch, limit):
    """Below ``vectorize._INT32_LIMIT`` positions, window keys, negation
    positions and matrix cells are int32; lowering the limit makes some or all
    of them int64, and every ``Window`` row still gives the same matrix."""
    expected = {(family, negated): family_matrix(golden_pipeline, family, negated, 2)
                for family, negated in VARIANTS}
    words, tokens = len(golden_pipeline._tokens.words), len(golden_pipeline._tokens.ids)
    assert words ** 3 > vectorize._INT32_LIMIT > words ** 2 > tokens > 2 * words
    limits = {"none": 0, "words": words, "tokens": tokens + 1, "words^2": words ** 2,
              "default": vectorize._INT32_LIMIT}
    monkeypatch.setattr(vectorize, "_INT32_LIMIT", limits[limit])
    dtypes = set()
    keyed_matrix = features._TokenStream._keyed_matrix

    def spy(self, parts, floor):
        pos, keys, _, _ = parts[0]
        dtypes.add((pos.dtype.name, keys.dtype.name))
        return keyed_matrix(self, parts, floor)

    monkeypatch.setattr(features._TokenStream, "_keyed_matrix", spy)
    pipeline = FeaturePipeline(load_corpus(CORPUS))
    for (family, negated), matrix in expected.items():
        built = family_matrix(pipeline, family, negated, 2)
        assert built.features == matrix.features
        assert (to_scipy(built.counts) != to_scipy(matrix.counts)).nnz == 0
    bits = {True: "int32", False: "int64"}
    assert dtypes == {(bits[tokens < limits[limit]],
                       bits[(2 if negated else 1) * words ** FAMILIES[family].n <= limits[limit]])
                      for family, negated in VARIANTS}
    assert len(dtypes) == {"none": 1, "words": 2, "tokens": 2, "words^2": 2,
                           "default": 2}[limit]


def test_negated_windows_wider_than_one_word_are_refused():
    """The key holds one negation flag, so a negated bigram would come out
    as ``b:NOT_very_good`` where the bag reference has ``b:NOT_very_NOT_good``."""
    raw = RawDocument(id="cv000_0", label=Label.POSITIVE, text="it is not very good at all")
    bigram = FAMILIES[FeatureFamily.BIGRAM]
    assert "b:NOT_very_NOT_good" in extract_window(preprocess_document(raw), bigram, True)
    pipeline = FeaturePipeline(Corpus(documents=[raw]))
    family_matrix(pipeline, FeatureFamily.UNIGRAM, negation_variant=True)
    for row in FAMILIES.values():
        if isinstance(row, Window) and row.n > 1:
            with pytest.raises(ValueError):
                pipeline._tokens.window_matrix(row._replace(negated=True), 1)


POLARIZED = [FeatureFamily.POLARIZED_UNIGRAM, FeatureFamily.POLARIZED_BIGRAM]

# A word that spells a lowercase tag ("jj_NN" beside "good_jj"), words with
# "_", and a word whose polarity depends on its tag ("fine").
_POLARIZED_LINES = ["jj_NN good_jj very_RB", "x_jj good_jj not_RB bad_JJ !", "good_jj jj_NN",
                    "bad_JJ x_jj", "new_york_NN fine_JJ a_b_jj", "fine_NN good_jj", "good_jj",
                    "..."]
POLARIZED_LEXICON = SubjectivityLexicon(entries={
    "good": [LexiconEntry(Polarity.POS, ANYPOS)],
    "bad": [LexiconEntry(Polarity.NEG, "adj")],
    "fine": [LexiconEntry(Polarity.POS, "adj"), LexiconEntry(Polarity.NEG, "noun")],
    "new_york": [LexiconEntry(Polarity.POS, "noun")],
    "jj": [LexiconEntry(Polarity.NEG, ANYPOS)],
})


@dataclass
class CountingLexicon(SubjectivityLexicon):
    """Counts ``polarity_of`` calls per (word, tag) pair."""

    calls: Counter = field(default_factory=Counter)

    def polarity_of(self, word, pos):
        self.calls[word, pos] += 1
        return super().polarity_of(word, pos)


def write_polarized_corpus(root: Path) -> Path:
    rng = random.Random(11)
    for i in range(8):
        label = "pos" if i % 2 else "neg"
        lines = _POLARIZED_LINES[:2] if i == 0 else rng.sample(_POLARIZED_LINES, 3)
        path = root / label / f"cv{i:03d}_{i}.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def polarized_corpora(tmp_path_factory):
    root = write_polarized_corpus(tmp_path_factory.mktemp("pretagged_polarized"))
    return {
        "golden": (load_corpus(CORPUS), load_lexicon(CORPUS / "lexicon.tsv", format="tsv"),
                   get_tagger("builtin")),
        "pretagged": (load_corpus(root), POLARIZED_LEXICON, get_tagger("pretagged")),
    }


@pytest.mark.parametrize("corpus_name", ["golden", "pretagged"])
@pytest.mark.parametrize("family", POLARIZED, ids=[f.value for f in POLARIZED])
def test_polarized_family_matrix_matches_bags(polarized_corpora, corpus_name, family):
    corpus, lexicon, tagger = polarized_corpora[corpus_name]
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, tagger=tagger)
    assert family_matrix(pipeline, family).features
    for min_count in MIN_COUNTS:
        assert_matches_bags(pipeline, family, False, min_count)


def test_word_and_tag_that_spell_one_pb_feature_merge(polarized_corpora):
    """In the first document, ``jj_NN good_jj`` (the word ``jj``) and
    ``x_jj good_jj`` (the tag ``jj``) both give ``pb:jj_POS/jj``, once each:
    the feature reaches a floor of 2 only through the merged spelling."""
    corpus, lexicon, tagger = polarized_corpora["pretagged"]
    assert corpus.documents[0].read().startswith("jj_NN good_jj")
    pipeline = FeaturePipeline(Corpus(documents=corpus.documents[:1]), lexicon=lexicon,
                               tagger=tagger)
    matrix = family_matrix(pipeline, FeatureFamily.POLARIZED_BIGRAM, min_count=2)
    assert to_scipy(matrix.counts)[0, matrix.features.index("pb:jj_POS/jj")] == 2
    pruned = family_matrix(pipeline, FeatureFamily.POLARIZED_BIGRAM, min_count=3)
    assert "pb:jj_POS/jj" not in pruned.features
    for min_count in (2, 3):
        assert_matches_bags(pipeline, FeatureFamily.POLARIZED_BIGRAM, False, min_count)


@pytest.mark.parametrize("corpus_name", ["golden", "pretagged"])
def test_polarity_looked_up_once_per_word_and_tag(polarized_corpora, corpus_name):
    corpus, lexicon, tagger = polarized_corpora[corpus_name]
    counting = CountingLexicon(entries=lexicon.entries)
    pipeline = FeaturePipeline(corpus, lexicon=counting, tagger=tagger)
    for family in POLARIZED:
        family_matrix(pipeline, family)
    assert counting.calls
    assert max(counting.calls.values()) == 1


def test_trigram_build_scratch_grows_with_occurrences_not_distinct_keys():
    """Over seeded random words almost every trigram is distinct, and few
    reach the floor. The build then holds scratch for the occurrences (their
    positions, keys and sort order, about 22 bytes each), not a run total
    and a first position per distinct key: its traced peak stays under 30
    bytes per occurrence, where totalling every distinct key took about 45."""
    rng = random.Random(7)
    vocabulary = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=6)) for _ in range(3000)]
    documents = ["\n".join(" ".join(rng.choices(vocabulary, k=30)) + " the end of it"
                           for _ in range(30)) for _ in range(100)]
    pipeline = FeaturePipeline(corpus_of(documents))
    pipeline.tokenize()
    stream = pipeline._tokens
    occurrences = int((~stream.starts[1:-1] & ~stream.starts[2:]).sum())
    assert occurrences > 90_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = family_matrix(pipeline, FeatureFamily.TRIGRAM, min_count=5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert "t:the_end_of" in matrix.features
    assert peak / occurrences < 30, f"{peak / occurrences:.1f} bytes per occurrence"


@st.composite
def keyed_parts(draw):
    """(document bounds, floor, parts, shares mode) for ``_keyed_matrix``.

    Each part has up to six distinct keys, each with a run of ``floor - 1``,
    ``floor``, ``floor + 1`` or one occurrence, in a drawn order, at drawn
    token positions; parts may be empty. A name is drawn per (part, key)
    from a small pool, so names merge within and across parts, except under
    the shares modes that promise no merge ("false" and "none marked"),
    where every (part, key) gets its own name. In the "mixed" mode every
    key whose name another key spells is marked, and some others too.
    """
    floor = draw(st.sampled_from([1, 2, 5]))
    mode = draw(st.sampled_from(["spell all", "false", "none marked", "mixed"]))
    lengths = draw(st.lists(st.integers(0, 12), max_size=4))
    doc_bounds = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    tokens = int(doc_bounds[-1])
    pos_dtype = draw(st.sampled_from([np.int32, np.int64]))
    key_dtype = draw(st.sampled_from([np.int32, np.int64]))
    unique_names = mode in ("false", "none marked")
    parts, serial = [], count()
    for part in range(draw(st.integers(1, 3))):
        distinct = draw(st.integers(0, 6 if tokens else 0))
        keys = draw(st.lists(st.integers(0, 40), min_size=distinct, max_size=distinct,
                             unique=True))
        runs = [draw(st.sampled_from(sorted({max(floor - 1, 1), floor, floor + 1, 1})))
                for _ in keys]
        occurrences = [key for key, run in zip(keys, runs) for _ in range(run)]
        occurrences = draw(st.permutations(occurrences))
        pos = sorted(draw(st.lists(st.integers(0, max(tokens - 1, 0)),
                                   min_size=len(occurrences), max_size=len(occurrences))))
        names = {key: f"n{next(serial)}" if unique_names else f"n{draw(st.integers(0, 4))}"
                 for key in keys}
        parts.append((np.array(pos, dtype=pos_dtype), np.array(occurrences, dtype=key_dtype),
                      names))
    spelled = Counter(name for _, _, names in parts for name in names.values())
    marks = []
    for _, _, names in parts:
        marks.append({key: mode == "mixed" and (spelled[name] > 1 or draw(st.booleans()))
                      for key, name in names.items()})
    return doc_bounds, floor, parts, marks, mode


def _spell(names: dict):
    return lambda keys, _: [names[key] for key in keys.tolist()]


def _marks(marks: dict):
    return lambda keys, _: np.array([marks[key] for key in keys.tolist()], dtype=bool)


@settings(max_examples=300, deadline=None)
@given(keyed_parts())
def test_keyed_matrix_matches_the_total_every_key_oracle(case):
    """``_keyed_matrix``, which totals and spells only the runs that reach the
    floor or that *shares* marks, gives the matrix of the oracle that
    totals every distinct key first."""
    doc_bounds, floor, parts, marks, mode = case
    expected = reference.keyed_matrix(
        [(pos, keys.copy(), _spell(names), None if mode == "spell all" else _marks(mark))
         for (pos, keys, names), mark in zip(parts, marks)], floor, doc_bounds)
    shares = {"spell all": lambda _: lambda keys, _: np.ones(len(keys), dtype=bool),
              "false": lambda _: False}
    got = features._TokenStream._keyed_matrix(
        SimpleNamespace(doc_bounds=doc_bounds),
        [(pos, keys.copy(), _spell(names), shares.get(mode, _marks)(mark))
         for (pos, keys, names), mark in zip(parts, marks)], floor)
    assert got.features == expected.features
    assert got.counts.shape == expected.counts.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got.counts, name), getattr(expected.counts, name)), name
