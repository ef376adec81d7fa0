"""Text normalization pipeline: contraction expansion, punctuation removal,
NOT_ negation scopes, and part-of-speech annotation.

Pipeline order for a document: split into sentences (one per line), expand
contractions on the lines that hold an apostrophe, strip punctuation,
tokenize and lowercase, tag part-of-speech, mark negation scopes. A document
is a list of ``Sentence(words, tags, negated)`` tuples: bare lowercased
words, their tags, and a per-word flag that is true inside a negation scope.
The ``NOT_`` prefix is never stored; the negated unigram variant adds it
when it extracts.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Label, RawDocument
from .tagging import PretaggedReader, RuleTagger

NEGATION_PREFIX = "NOT_"
NEGATION_TRIGGERS = frozenset({"not"})
# Kept as standalone tokens; each one also ends a negation scope.
KEPT_PUNCTUATION = frozenset({"!", "?"})

_PUNCT = frozenset(string.punctuation)
_PUNCT_TABLE = str.maketrans(
    {ch: f" {ch} " if ch in KEPT_PUNCTUATION else None for ch in string.punctuation}
)

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
    return " ".join(text.translate(_PUNCT_TABLE).split())


def tokenize(line: str) -> list[str]:
    """The lowercased words of one line: contractions expanded, punctuation stripped.

    Both contraction patterns need an apostrophe and neither crosses a line
    break, so expanding only the lines that hold one gives the words that
    expanding the whole text first would.
    """
    if "'" in line:
        line = expand_contractions(line)
    return strip_punctuation(line).lower().split()


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


def _tokenize_pretagged(line: str, reader: PretaggedReader) -> tuple[list[str], list[str]]:
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
            words, tags = _tokenize_pretagged(line, tagger)
        else:
            words = tokenize(line)
            tags = tagger.tag(words) if words else []
        if words:
            sentences.append(Sentence(words, tags, tag_negation(words)))
    return Document(id=doc.id, label=doc.label, sentences=sentences)
