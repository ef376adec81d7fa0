"""The per-document reference the token stream and its matrices are tested against.

Each document is preprocessed on its own into ``Sentence(words, tags,
negated)`` tuples, and each family is extracted from those as one bag of
feature strings per document. The code is written for plainness, not speed:
a rules-only tagger with no memo, a phrase matcher that tries every listed
phrase at every position, and bags merged into matrices by feature string.
Tag classes are read from the upper-cased tag, and feature strings keep the
tag as written. ``tokenize`` is the per-line tokenizer that
``polarity.preprocess.tokenize_document`` and ``corpus.compute_stats`` are
tested against.

``keyed_matrix`` is the key-to-matrix rule that totals every distinct key
before it drops any; ``polarity.features._TokenStream._keyed_matrix``, which
looks only at the keys that reach the floor or may share a name, is tested
against it.

``read_svmlight`` is the svmlight reader that decodes the whole file into a
list of lines before it parses any, and collects ids as int64; the streaming
reader of ``polarity.vectorize`` is tested against it.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from polarity.corpus import Corpus, Label, RawDocument
from polarity.errors import ConfigError, DataError
from polarity.features import CONTENT_BIT, FAMILIES, TAG_BITS, FeatureFamily, Polarized, Window
from polarity.lexicon import SubjectivityLexicon, TransitionList
from polarity.preprocess import (
    KEPT_PUNCTUATION,
    NEGATION_PREFIX,
    NEGATION_TRIGGERS,
    _drop_punctuation,
    expand_contractions,
    tokenize_pretagged,
)
from polarity.tagging import _ED_FORM, _VERB_FORMS, PretaggedReader, RuleTagger
from polarity.vectorize import MAX_FEATURE_ID, CsrMatrix, FeatureMatrix, Representation

_RULES = RuleTagger()
_CONTENT_PREFIXES = ("N", "V", "J", "R")


class Sentence(NamedTuple):
    """One line of a document as parallel per-word sequences."""

    words: list[str]
    tags: list[str]
    negated: list[bool]


@dataclass(frozen=True)
class Document:
    id: str
    label: Label
    sentences: list[Sentence]


def tokenize(line: str) -> list[str]:
    """The lowercased words of one line: contractions expanded, punctuation stripped.

    Both contraction patterns need an apostrophe and neither crosses a line
    break, so expanding only the lines that hold one gives the words that
    expanding the whole text first would.
    """
    if "'" in line:
        line = expand_contractions(line)
    return _drop_punctuation(line).lower().split()


def tag(words: list[str]) -> list[str]:
    """The built-in tagger's tags for one sentence, word by word.

    An -ed word that the rules leave to context is VBN right after a
    ``_VERB_FORMS`` word and VBD elsewhere.
    """
    tags = []
    for i, word in enumerate(words):
        rule = _RULES._tag_word(word)
        if rule is _ED_FORM:
            rule = "VBN" if i > 0 and words[i - 1] in _VERB_FORMS else "VBD"
        tags.append(rule)
    return tags


def tag_negation(words: list[str]) -> list[bool]:
    """Mark every word after a trigger, up to the next kept punctuation token
    or the end of the sentence. The trigger itself is not marked.
    """
    mask: list[bool] = []
    in_scope = False
    for word in words:
        if word in KEPT_PUNCTUATION:
            in_scope = False
            mask.append(False)
        elif not in_scope and word in NEGATION_TRIGGERS:
            in_scope = True
            mask.append(False)
        else:
            mask.append(in_scope)
    return mask


def preprocess_document(doc: RawDocument, tagger=None) -> Document:
    """One raw document as sentences, one per non-empty line.

    *tagger* is a PretaggedReader for ``word_TAG`` input; anything else
    means the built-in rules.
    """
    sentences: list[Sentence] = []
    for line in doc.read().splitlines():
        if isinstance(tagger, PretaggedReader):
            words, tags = tokenize_pretagged(line, tagger)
        else:
            words = tokenize(line)
            tags = tag(words)
        if words:
            sentences.append(Sentence(words, tags, tag_negation(words)))
    return Document(id=doc.id, label=doc.label, sentences=sentences)


def _tag_bits(tag: str) -> int:
    return TAG_BITS.get(tag.upper(), 0)


def _is_content(tag: str) -> bool:
    return tag[:1].upper() in _CONTENT_PREFIXES


def tag_bits(tag: str) -> int:
    """The class bits that the token stream keeps for *tag*."""
    return _tag_bits(tag) | (CONTENT_BIT if _is_content(tag) else 0)


def extract_window(doc: Document, window: Window, negation_variant: bool = False) -> Counter:
    """Bag of *window*'s features over one document.

    With *negation_variant* every word inside a negation scope is written
    as ``NOT_word``.
    """
    n = window.n
    bag: Counter = Counter()
    for words, tags, negated in doc.sentences:
        if negation_variant:
            words = [NEGATION_PREFIX + w if neg else w for w, neg in zip(words, negated)]
        tagged = [_tag_bits(t) & window.tag_bits for t in tags]
        for i in range(len(words) - n + 1):
            if not window.tag_bits or any(tagged[i:i + n]):
                bag[f"{window.namespace}:{'_'.join(words[i:i + n])}"] += 1
    return bag


def extract_polarized_unigrams(doc: Document, lex: SubjectivityLexicon) -> Counter:
    """One Polarity/Tag feature per lexicon-matched word (e.g. ``pu:POS/VB``)."""
    bag: Counter = Counter()
    for words, tags, _ in doc.sentences:
        for word, tag in zip(words, tags):
            pol = lex.polarity_of(word, tag)
            if pol is not None:
                bag[f"pu:{pol}/{tag}"] += 1
    return bag


def extract_polarized_bigrams(doc: Document, lex: SubjectivityLexicon) -> Counter:
    """Polarized unigrams paired with each neighbor's word and tag.

    A polarized word yields up to four features; the predecessor pair is
    omitted at sentence start and the successor pair at sentence end.
    """
    bag: Counter = Counter()
    for words, tags, _ in doc.sentences:
        last = len(words) - 1
        for i, (word, tag) in enumerate(zip(words, tags)):
            pol = lex.polarity_of(word, tag)
            if pol is None:
                continue
            core = f"{pol}/{tag}"
            if i > 0:
                bag[f"pb:{words[i - 1]}_{core}"] += 1
                bag[f"pb:{tags[i - 1]}_{core}"] += 1
            if i < last:
                bag[f"pb:{core}_{words[i + 1]}"] += 1
                bag[f"pb:{core}_{tags[i + 1]}"] += 1
    return bag


def find_matches(trans: TransitionList, words: list[str]) -> list[tuple[str, int, int]]:
    """Non-overlapping (phrase, start, end) matches, scanning left to right;
    at each free position the first listed phrase that fits wins."""
    matches = []
    i = 0
    while i < len(words):
        for phrase in trans.phrases:
            tokens = phrase.split()
            end = i + len(tokens)
            if tokens and words[i:end] == tokens:
                matches.append((phrase, i, end))
                i = end
                break
        else:
            i += 1
    return matches


def extract_transitions(doc: Document, trans: TransitionList, lex: SubjectivityLexicon) -> Counter:
    """Pair each transition phrase with every content word in its sentence.

    Content words are the noun/verb/adjective/adverb words outside any
    matched phrase; a lexicon-matched content word additionally yields the
    phrase paired with its Polarity/Tag form. Each distinct phrase in a
    sentence generates its own features.
    """
    bag: Counter = Counter()
    for words, tags, _ in doc.sentences:
        matches = find_matches(trans, words)
        if not matches:
            continue
        excluded = set()
        for _, start, end in matches:
            excluded.update(range(start, end))
        phrases = list(dict.fromkeys(m[0] for m in matches))
        content = [
            (word, tag) for i, (word, tag) in enumerate(zip(words, tags))
            if i not in excluded and _is_content(tag)
        ]
        for phrase in phrases:
            key = phrase.replace(" ", "_")
            for word, tag in content:
                bag[f"tr:{key}_{word}"] += 1
                pol = lex.polarity_of(word, tag)
                if pol is not None:
                    bag[f"tr:{key}_{pol}/{tag}"] += 1
    return bag


def family_bags(corpus: Corpus, family, lexicon: SubjectivityLexicon | None = None,
                transitions: TransitionList | None = None, tagger=None,
                negation_variant: bool = False) -> list[Counter]:
    """One bag per document of *corpus* for *family*; the negation variant
    applies to ``unigram`` only, as in the pipeline."""
    row = FAMILIES[family]
    documents = [preprocess_document(doc, tagger) for doc in corpus.documents]
    if isinstance(row, Window):
        neg = negation_variant and family is FeatureFamily.UNIGRAM
        return [extract_window(doc, row, neg) for doc in documents]
    if isinstance(row, Polarized):
        extract = extract_polarized_bigrams if row.neighbors else extract_polarized_unigrams
        return [extract(doc, lexicon) for doc in documents]
    return [extract_transitions(doc, transitions, lexicon) for doc in documents]


def pipeline_bags(pipeline, family, negation_variant: bool = False) -> list[Counter]:
    """``family_bags`` over a FeaturePipeline's corpus, lexicon, transitions and tagger."""
    return family_bags(pipeline.corpus, family, pipeline.lexicon, pipeline.transitions,
                       pipeline.tagger, negation_variant)


def from_bags(bags: Sequence[Counter]) -> FeatureMatrix:
    """A FeatureMatrix with one row per bag and one column per distinct feature."""
    features = sorted(set(chain.from_iterable(bags)))
    column = {feature: j for j, feature in enumerate(features)}
    data, indices, indptr = [], [], [0]
    for bag in bags:
        for feature, count in sorted(bag.items(), key=lambda item: column[item[0]]):
            indices.append(column[feature])
            data.append(float(count))
        indptr.append(len(indices))
    counts = CsrMatrix(np.array(data, dtype=np.float64), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int64), (len(bags), len(features)))
    return FeatureMatrix(counts=counts, features=features)


def keyed_matrix(parts: list, floor: int, doc_bounds: np.ndarray) -> FeatureMatrix:
    """The count matrix of the occurrences in *parts*, keeping the columns whose
    total is >= *floor*; document *i* holds positions ``doc_bounds[i]:doc_bounds[i + 1]``.

    A part is (token positions, integer keys, spell, shares), as
    ``_TokenStream._keyed_matrix`` takes it, except that *shares* is None or
    a callable. Every distinct key is totalled; the keys that reach the
    floor and those *shares* marks (every key when it is None) are spelled,
    and a column is one distinct string kept when its keys' totals reach
    the floor.
    """
    spelled = []  # per part: positions, key order, run totals, spelled runs, names
    by_name: Counter = Counter()  # each spelled string's total over every part
    for pos, keys, spell, shares in parts:
        order = np.argsort(keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        runs = np.flatnonzero(first)
        keys = keys[runs]
        totals = np.diff(runs, append=len(order))
        at = pos[order[runs]]
        chosen = (np.arange(len(totals)) if shares is None
                  else np.flatnonzero((totals >= floor) | shares(keys, at)))
        names = spell(keys[chosen], at[chosen])
        for name, total in zip(names, totals[chosen].tolist()):
            by_name[name] += total
        spelled.append((pos, order, totals, chosen, names))

    features = sorted(name for name, total in by_name.items() if total >= floor)
    column = {feature: j for j, feature in enumerate(features)}
    hits = []
    for pos, order, totals, chosen, names in spelled:
        column_of_run = np.full(len(totals), -1, dtype=np.int32)
        column_of_run[chosen] = [column.get(name, -1) for name in names]
        columns = np.empty(len(order), dtype=np.int32)  # per occurrence, as given
        columns[order] = np.repeat(column_of_run, totals)
        hit = columns >= 0
        hits.append((pos[hit], columns[hit]))
    at, columns = hits.pop() if len(hits) == 1 else map(np.concatenate, zip(*hits))
    if (at[1:] < at[:-1]).any():
        order = np.argsort(at)
        at, columns = at[order], columns[order]
    bounds = np.searchsorted(at, doc_bounds.astype(at.dtype))
    return FeatureMatrix.from_occurrences(bounds, columns, features)


def build_vocabulary(train_bags, min_count: int = 5) -> dict[str, int]:
    """Feature -> 0-based id, lexicographically, for every feature whose summed
    count over *train_bags* is >= min_count."""
    totals: Counter = Counter()
    for bag in train_bags:
        totals.update(bag)
    kept = sorted(f for f, c in totals.items() if c >= min_count)
    if not kept:
        raise DataError(f"no feature reaches the count threshold {min_count}; vocabulary is empty")
    return {f: i for i, f in enumerate(kept)}


def vectorize(bag: Counter, vocab: dict[str, int], rep: Representation) -> CsrMatrix:
    """One bag as a ``1 x len(vocab)`` CSR row with ascending column ids;
    out-of-vocabulary features drop silently."""
    pairs = sorted((vocab[f], c) for f, c in bag.items() if f in vocab)
    ids = np.array([p[0] for p in pairs], dtype=np.int32)
    if rep is Representation.PRESENCE:
        values = np.ones(len(pairs), dtype=np.float64)
    else:
        values = np.array([p[1] for p in pairs], dtype=np.float64)
    return CsrMatrix(values, ids, np.array([0, len(pairs)], dtype=np.int64), (1, len(vocab)))


def _read_lines(path: str | Path) -> list[str]:
    """All lines of a UTF-8 input file; a missing file is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return list(fh)
    except FileNotFoundError:
        raise ConfigError(f"input file {path} not found") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_svmlight(path: str | Path) -> tuple[CsrMatrix, np.ndarray]:
    """(matrix, labels) of an svmlight file, read whole before it is parsed."""
    labels: list[int] = []
    indptr = array("q", [0])
    ids = array("q")
    values = array("d")
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            raw_label = int(fields[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad label {fields[0]!r}") from None
        labels.append(0 if raw_label == 0 else (1 if raw_label > 0 else -1))
        prev = 0
        for field in fields[1:]:
            id_str, _, val_str = field.partition(":")
            try:
                fid = int(id_str)
                val = float(val_str)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad pair {field!r}") from None
            if not math.isfinite(val):
                raise DataError(f"{path}:{lineno}: value in {field!r} is not finite")
            if fid <= prev:
                raise DataError(f"{path}:{lineno}: ids must be ascending and 1-based")
            if fid > MAX_FEATURE_ID:
                raise DataError(f"{path}:{lineno}: feature id {fid} exceeds the limit "
                                f"of {MAX_FEATURE_ID}")
            prev = fid
            if val != 0.0:
                ids.append(fid - 1)
                values.append(val)
        indptr.append(len(ids))
    width = max(ids) + 1 if ids else 0
    X = CsrMatrix(np.frombuffer(values, dtype=np.float64),
                  np.frombuffer(ids, dtype=np.int64).astype(np.int32),
                  np.frombuffer(indptr, dtype=np.int64), (len(labels), width))
    return X, np.array(labels, dtype=np.int64)
