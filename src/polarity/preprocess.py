"""Text normalization pipeline: contraction expansion, punctuation removal,
NOT_ negation scopes, and part-of-speech annotation.

Pipeline order for a document: split into sentences (one per line), expand
contractions on the lines that hold an apostrophe, strip punctuation,
tokenize and lowercase, tag part-of-speech, mark negation scopes. The ``NOT_``
prefix is never stored; the negated unigram variant adds it when it extracts.

The cross-validation pipeline's document representation is one token
stream for the whole corpus (``evaluation._TokenStream``): each line goes
through ``tokenize`` (or ``tokenize_pretagged``) and its words become int32
ids; tags come from ``RuleTagger.tag_stream`` and negation scopes from
``negation_scopes``, both computed over the whole stream with NumPy.
``preprocess_document``, which gives a document as a list of
``Sentence(words, tags, negated)`` tuples, and ``tag_negation`` are the
per-document references the stream is tested against.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Label, RawDocument
from .tagging import PretaggedReader, RuleTagger

NEGATION_PREFIX = "NOT_"
NEGATION_TRIGGERS = frozenset({"not"})
# Kept as standalone tokens; each one also ends a negation scope.
KEPT_PUNCTUATION = frozenset({"!", "?"})

_PUNCT = frozenset(string.punctuation)
# Deletes the punctuation that is not kept. A table of deletions only keeps
# str.translate on its fast path, which a one-to-many mapping (such as
# "!" -> " ! ") leaves; the kept marks are spaced out by str.replace after it.
_PUNCT_TABLE = str.maketrans(dict.fromkeys(_PUNCT - KEPT_PUNCTUATION))

# The n't family only; possessives and auxiliaries ("it's", "i'm") stay put.
_CONTRACTIONS = {
    "ain't": "is not",
    "aren't": "are not",
    "can't": "can not",
    "couldn't": "could not",
    "didn't": "did not",
    "doesn't": "does not",
    "don't": "do not",
    "hadn't": "had not",
    "hasn't": "has not",
    "haven't": "have not",
    "isn't": "is not",
    "mightn't": "might not",
    "mustn't": "must not",
    "needn't": "need not",
    "oughtn't": "ought not",
    "shan't": "shall not",
    "shouldn't": "should not",
    "wasn't": "was not",
    "weren't": "were not",
    "won't": "will not",
    "wouldn't": "would not",
}

_CONTRACTION_RE = re.compile(
    r"\b(" + "|".join(re.escape(c) for c in sorted(_CONTRACTIONS, key=len, reverse=True)) + r")\b",
    re.IGNORECASE,
)
# Tokenized corpora split the apostrophe off ("isn ' t"); rejoin before lookup.
_SPLIT_APOSTROPHE_RE = re.compile(r"\b([A-Za-z]+n) ' t\b", re.IGNORECASE)

# Shared by every call that names no tagger; its per-word memo only ever
# adds the tag the rules give, so sharing it is safe.
_DEFAULT_TAGGER = RuleTagger()


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


def expand_contractions(text: str) -> str:
    """Rewrite every n't-family contraction to its two-word form.

    Unknown forms pass through untouched; a leading capital survives
    ("Isn't" becomes "Is not").
    """

    def replace(match: re.Match) -> str:
        found = match.group(1)
        expansion = _CONTRACTIONS[found.lower()]
        if found[0].isupper():
            expansion = expansion[0].upper() + expansion[1:]
        return expansion

    text = _SPLIT_APOSTROPHE_RE.sub(lambda m: m.group(1) + "'t", text)
    return _CONTRACTION_RE.sub(replace, text)


def strip_punctuation(text: str) -> str:
    """Delete punctuation characters except ``!`` and ``?``, which become standalone tokens."""
    return " ".join(_drop_punctuation(text).split())


def _drop_punctuation(text: str) -> str:
    text = text.translate(_PUNCT_TABLE)
    for mark in KEPT_PUNCTUATION:
        text = text.replace(mark, f" {mark} ")
    return text


def tokenize(line: str) -> list[str]:
    """The lowercased words of one line: contractions expanded, punctuation stripped.

    Both contraction patterns need an apostrophe and neither crosses a line
    break, so expanding only the lines that hold one gives the words that
    expanding the whole text first would.
    """
    if "'" in line:
        line = expand_contractions(line)
    return _drop_punctuation(line).lower().split()


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


def negation_scopes(words: list[str], ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``tag_negation`` over a whole token stream: a bool per token.

    *words* is the stream's vocabulary, *ids* its word id per token and
    *starts* flags each sentence's first token. A token is in scope when
    the last trigger or kept punctuation token before it in its sentence is
    a trigger, unless it is kept punctuation itself.
    """
    trigger = np.array([word in NEGATION_TRIGGERS for word in words], dtype=bool)[ids]
    kept = np.array([word in KEPT_PUNCTUATION for word in words], dtype=bool)[ids]
    position = np.arange(len(ids))
    last_mark = np.maximum.accumulate(np.where(trigger | kept, position, -1))
    sentence_start = np.maximum.accumulate(np.where(starts, position, 0))
    opens = (last_mark >= sentence_start) & trigger[last_mark]  # scope open after the token
    scoped = np.zeros(len(ids), dtype=bool)
    scoped[1:] = opens[:-1] & ~starts[1:]
    return scoped & ~kept


def tokenize_pretagged(line: str, reader: PretaggedReader) -> tuple[list[str], list[str]]:
    """The lowercased words of one ``word_TAG`` line and their tags, punctuation dropped."""
    words: list[str] = []
    tags: list[str] = []
    for i, raw in enumerate(line.split()):
        word, tag = reader.parse(raw, i)
        word = word.lower()
        if word not in KEPT_PUNCTUATION and all(ch in _PUNCT for ch in word):
            continue
        words.append(word)
        tags.append(tag)
    return words, tags


def preprocess_document(doc: RawDocument, tagger=None) -> Document:
    """Run the full normalization pipeline over one raw document.

    *tagger* defaults to one RuleTagger shared by every such call. Pre-tagged
    input (a PretaggedReader) skips contraction expansion and text-level
    punctuation stripping (the external tokenization is authoritative);
    punctuation is filtered token-wise instead and tags are taken from the
    annotations.
    """
    if tagger is None:
        tagger = _DEFAULT_TAGGER
    pretagged = isinstance(tagger, PretaggedReader)

    sentences: list[Sentence] = []
    for line in doc.text.splitlines():
        if pretagged:
            words, tags = tokenize_pretagged(line, tagger)
        else:
            words = tokenize(line)
            tags = tagger.tag(words) if words else []
        if words:
            sentences.append(Sentence(words, tags, tag_negation(words)))
    return Document(id=doc.id, label=doc.label, sentences=sentences)
