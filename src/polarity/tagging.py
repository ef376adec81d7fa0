"""Part-of-speech taggers.

A self-contained greedy lexicon-plus-suffix tagger, and a reader for
corpora that already carry ``word_TAG`` annotations from an external tagger.
``get_tagger`` picks one by name. The cross-validation pipeline tags its
whole token stream at once with ``RuleTagger.tag_stream``, or reads each
raw token's tag with ``PretaggedReader.parse``.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import DataError, one_of

# Penn-Treebank-style inventory emitted by the built-in tagger. Externally
# tagged input may carry any tag; only the coarse class (first letter) is
# interpreted downstream.
TAG_INVENTORY = frozenset(
    {
        "CC", "CD", "DT", "EX", "IN", "JJ", "JJR", "JJS", "MD",
        "NN", "NNS", "PRP", "PRP$", "RB", "RBR", "RBS", "TO", "UH",
        "VB", "VBD", "VBG", "VBN", "VBP", "VBZ", "WDT", "WP", "WRB", ".",
    }
)

FALLBACK_TAG = "NN"

ADJECTIVE_TAGS = frozenset({"JJ", "JJR", "JJS"})
ADVERB_TAGS = frozenset({"RB", "RBR", "RBS"})

_NUMBER = re.compile(r"^\d+([.,:/\-]\d+)*$")

_CLOSED_CLASS = {
    "DT": "the a an this that these those some any each every no all both "
          "either neither another such",
    "PRP": "i you he she it we they me him her us them myself yourself himself "
           "herself itself ourselves themselves oneself nothing something "
           "anything everything nobody somebody anybody everybody someone "
           "anyone everyone none",
    "PRP$": "my your his its our their mine yours hers ours theirs",
    "IN": "of in on at by for with about against between among into through "
          "during before after above below from up down over under although "
          "though while whereas because if unless since until as than despite "
          "within without behind beside besides toward towards upon onto near "
          "except albeit",
    "CC": "and but or nor yet plus",
    "MD": "will would can could shall should may might must",
    "TO": "to",
    "EX": "there",
    "WP": "who whom what",
    "WDT": "which",
    "WRB": "when where why how",
    "UH": "oh wow hey yeah yes",
}

_VERB_FORMS = {
    "am": "VBP", "is": "VBZ", "are": "VBP", "was": "VBD", "were": "VBD",
    "be": "VB", "been": "VBN", "being": "VBG",
    "have": "VBP", "has": "VBZ", "had": "VBD", "having": "VBG",
    "do": "VBP", "does": "VBZ", "did": "VBD", "done": "VBN", "doing": "VBG",
}

# Base-form verbs common in review prose; inflections are derived by rule.
_VERBS = (
    "love like hate recommend enjoy think know want need feel believe hope "
    "seem look make take get go come see say tell give find watch play work "
    "try use keep show mean leave put bring begin start stop end call ask "
    "turn follow act direct produce write read hear avoid miss expect suppose "
    "happen appear manage fail deserve suck stink bore entertain impress "
    "disappoint annoy amaze surprise laugh cry care win lose save waste"
).split()

_ADJECTIVES = (
    "good bad great best worst better worse fine nice awful terrible excellent "
    "poor perfect real whole own same other new old big small long short high "
    "low right wrong true happy sad funny hilarious dull interesting "
    "entertaining amazing stunning brilliant superb solid weak strong cheap "
    "flat predictable original fresh stale silly stupid smart clever dumb lame "
    "cool sweet dark deep rich empty full main major minor serious slow fast "
    "hard easy simple complex clear obvious subtle worth able sure favorite "
    "classic mediocre bland annoying disappointing boring compelling charming "
    "decent top many few much little"
).split()

_ADVERBS = (
    "not never very really quite too so just only even still almost always "
    "often sometimes usually nearly rarely seldom here now then once twice "
    "perhaps maybe again away back well far soon already ever instead "
    "rather otherwise however nevertheless nonetheless contrarily conversely "
    "regardless alternatively notwithstanding also indeed pretty enough "
    "somewhat totally completely barely hardly"
).split()

_JJ_SUFFIXES = ("ous", "ful", "able", "ible", "ive", "less", "ish")


def _build_word_tags() -> dict[str, str]:
    table: dict[str, str] = {}
    for tag, words in _CLOSED_CLASS.items():
        for word in words.split():
            table[word] = tag
    table.update(_VERB_FORMS)
    for word in _VERBS:
        table.setdefault(word, "VB")
    for word in _ADJECTIVES:
        table[word] = "JJ"
    for word in _ADVERBS:
        table[word] = "RB"
    table.update({"best": "JJS", "worst": "JJS", "better": "JJR", "worse": "JJR",
                  "more": "RBR", "most": "RBS", "less": "RBR", "least": "RBS"})
    return table


# The rules' answer for an -ed word that no earlier rule tags: VBN after a
# _VERB_FORMS word, else VBD. The only tag that depends on the previous word.
_ED_FORM = "VBN|VBD"


class RuleTagger:
    """Greedy word-lexicon tagger with suffix and -ed/-ing context rules.

    Lookup order: word lexicon, punctuation/number checks, adjective
    suffixes, verb-inflection rules, then the NN/NNS fallback. A word's tag
    depends on the previous word only through the -ed rule. Read-only after
    construction, so an instance is safe to share.
    """

    def __init__(self) -> None:
        self._words = _build_word_tags()
        self._verbs = set(_VERBS) | {"be", "have", "do"}

    def tag_stream(self, words: list[str], ids: np.ndarray,
                   starts: np.ndarray) -> tuple[list[str], np.ndarray]:
        """(tag names, an int32 tag id per token) for a whole token stream.

        *words* is the stream's vocabulary, *ids* its int32 word id per
        token and *starts* flags each sentence's first token. Each distinct
        word goes through the rules once; an -ed word that they leave to
        context is then VBN right after a ``_VERB_FORMS`` word of its
        sentence and VBD elsewhere.
        """
        names: dict[str, int] = {}
        rules = [self._tag_word(word) for word in words]
        tag_of_word = np.array(
            [names.setdefault("VBD" if tag is _ED_FORM else tag, len(names)) for tag in rules],
            dtype=np.intc)
        tag_ids = tag_of_word[ids]
        ed_form = np.array([tag is _ED_FORM for tag in rules], dtype=bool)[ids]
        verb_form = np.array([word in _VERB_FORMS for word in words], dtype=bool)[ids]
        vbn = np.zeros(len(ids), dtype=bool)
        vbn[1:] = ed_form[1:] & verb_form[:-1] & ~starts[1:]
        if vbn.any():
            tag_ids[vbn] = names.setdefault("VBN", len(names))
        return list(names), tag_ids

    def _tag_word(self, word: str) -> str:
        """The tag the rules give *word* alone, or ``_ED_FORM``."""
        known = self._words.get(word)
        if known is not None:
            return known
        if not any(ch.isalnum() for ch in word):
            return "."
        if _NUMBER.match(word):
            return "CD"
        if word.endswith("ly") and len(word) > 3:
            return "RB"
        if word.endswith(_JJ_SUFFIXES):
            for suffix in _JJ_SUFFIXES:
                if word.endswith(suffix) and len(word) > len(suffix) + 1:
                    return "JJ"
        if word.endswith("ing") and len(word) > 4:
            return "VBG"
        if word.endswith("ed") and len(word) > 3:
            return _ED_FORM
        if word.endswith("s") and not word.endswith("ss") and len(word) > 3:
            if word[:-1] in self._verbs:
                return "VBZ"
            return "NNS"
        return FALLBACK_TAG


class PretaggedReader:
    """Parses tokens already annotated as ``word_TAG`` by an external tagger."""

    def parse(self, token: str, position: int) -> tuple[str, str]:
        if "_" not in token:
            if token and not any(ch.isalnum() for ch in token):
                return token, "."
            raise DataError(f"malformed word_TAG token {token!r} at position {position}")
        word, _, tag = token.rpartition("_")
        if not word or not tag:
            raise DataError(f"malformed word_TAG token {token!r} at position {position}")
        return word, tag


TAGGERS = {"builtin": RuleTagger, "pretagged": PretaggedReader}


def get_tagger(name: str):
    """A new tagger of the kind ``TAGGERS`` maps *name* to: the built-in rule
    tagger or the ``word_TAG`` reader. Any other name is a ConfigError naming both."""
    return TAGGERS[one_of("tagger", name, TAGGERS)]()
