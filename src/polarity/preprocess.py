"""Text normalization pipeline: contraction expansion, punctuation removal,
NOT_ negation scopes, and part-of-speech annotation.

Pipeline order for a document: split into sentences (one per line), expand
contractions on the lines that hold an apostrophe, strip punctuation,
tokenize and lowercase, tag part-of-speech, mark negation scopes. The ``NOT_``
prefix is never stored; the negated unigram variant adds it when it extracts.

``tokenize_document`` is the one built-in tokenizer: the token stream and
``corpus.compute_stats`` both read reviews through it. The document
representation is one token stream for the whole corpus
(``features._TokenStream``): each document goes through
``tokenize_document`` (or each line through ``tokenize_pretagged``) and its
words become int32 ids; tags come from
``RuleTagger.tag_stream`` and negation scopes from ``negation_scopes``, both
computed over the whole stream with NumPy, and only for the families that
read them.
"""

from __future__ import annotations

import re
import string

import numpy as np

from .tagging import PretaggedReader
from .vectorize import index_dtype

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


def _drop_punctuation(text: str) -> str:
    text = text.translate(_PUNCT_TABLE)
    for mark in KEPT_PUNCTUATION:
        text = text.replace(mark, f" {mark} ")
    return text


def tokenize_document(text: str) -> list[list[str]]:
    """The lowercased words of every line of *text*, one word list per line:
    contractions expanded, punctuation stripped.

    Contractions are expanded line by line, on the lines that hold an
    apostrophe; the punctuation pass and the lowercasing then run once over
    the document with its lines joined by newline characters. Both
    contraction patterns need an apostrophe and neither crosses a line
    break; neither pass adds or removes a line break, and lowercasing a
    final sigma looks no further than the line break on either side. So each
    line gets the words that tokenizing it alone would give
    (``tests/reference.py::tokenize``, the per-line oracle).
    """
    lines = text.splitlines()
    if not lines:
        return []
    if "'" in text:
        lines = [expand_contractions(line) if "'" in line else line for line in lines]
    return [line.split() for line in _drop_punctuation("\n".join(lines)).lower().split("\n")]


def negation_scopes(words: list[str], ids: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The negation flag of every token of a token stream.

    *words* is the stream's vocabulary, *ids* its word id per token and
    *starts* flags each sentence's first token. A scope opens after a
    trigger and runs up to the next kept punctuation token or the end of the
    sentence; the trigger itself is not in it. So a token is in scope when
    the last trigger, kept punctuation token or sentence start up to the
    token before it is a trigger, unless it is kept punctuation itself or
    starts a sentence.
    """
    trigger = np.array([word in NEGATION_TRIGGERS for word in words], dtype=bool)[ids]
    kept = np.array([word in KEPT_PUNCTUATION for word in words], dtype=bool)[ids]
    last = np.arange(len(ids), dtype=index_dtype(len(ids)))
    last[~(trigger | kept | starts)] = 0
    opens = trigger[np.maximum.accumulate(last, out=last)]  # a scope is open after the token
    scoped = np.zeros(len(ids), dtype=bool)
    scoped[1:] = opens[:-1] & ~starts[1:]
    return scoped & ~kept


def tokenize_pretagged(line: str, reader: PretaggedReader) -> tuple[list[str], list[str]]:
    """The lowercased words of one ``word_TAG`` line and their tags.

    The external tokenization is authoritative: contractions are not
    expanded, and punctuation is dropped token by token.
    """
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
