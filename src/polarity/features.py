"""The nine linguistic feature families and their unions.

``FAMILIES`` is the one family table. Each word/tag family (``unigram``,
``bigram``, ``trigram``, ``adj``, ``adjadv``, ``3adjadv``) is a ``Window``:
its features are the within-sentence windows of *n* words, or only those
where some word is an adjective or adverb. ``pu`` and ``pb`` are
``Polarized`` rows: the lexicon-matched words, alone or paired with their
neighbors. ``t`` is the ``Transition`` row: each transition phrase paired
with the content words of its sentence. The cross-validation pipeline counts
every row from its token stream of integer word and tag ids, the corpus's
one document representation.

Every emitted feature string carries its family's namespace prefix, so
families never collide and a union is plain multiset addition. N-grams,
polarized-bigram neighbors, and transition pairings never cross sentence
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import ConfigError
from .lexicon import SubjectivityLexicon, TransitionList
from .tagging import ADJECTIVE_TAGS, ADVERB_TAGS

_CONTENT_PREFIXES = ("N", "V", "J", "R")


class FeatureFamily(Enum):
    UNIGRAM = "unigram"
    BIGRAM = "bigram"
    TRIGRAM = "trigram"
    POLARIZED_UNIGRAM = "pu"
    POLARIZED_BIGRAM = "pb"
    ADJECTIVE = "adj"
    ADJADV_BIGRAM = "adjadv"
    ADJADV_TRIGRAM = "3adjadv"
    TRANSITION = "t"


_SPEC_ALIASES = {
    "unigram": FeatureFamily.UNIGRAM,
    "u": FeatureFamily.UNIGRAM,
    "bigram": FeatureFamily.BIGRAM,
    "trigram": FeatureFamily.TRIGRAM,
    "pu": FeatureFamily.POLARIZED_UNIGRAM,
    "pb": FeatureFamily.POLARIZED_BIGRAM,
    "adj": FeatureFamily.ADJECTIVE,
    "adjective": FeatureFamily.ADJECTIVE,
    "adjadv": FeatureFamily.ADJADV_BIGRAM,
    "aab": FeatureFamily.ADJADV_BIGRAM,
    "3adjadv": FeatureFamily.ADJADV_TRIGRAM,
    "aat": FeatureFamily.ADJADV_TRIGRAM,
    "t": FeatureFamily.TRANSITION,
    "tr": FeatureFamily.TRANSITION,
    "transition": FeatureFamily.TRANSITION,
}


@dataclass(frozen=True)
class FeatureSpec:
    """A union of feature families; the negation variant applies to unigrams only."""

    families: frozenset
    negation_variant: bool = False

    def __post_init__(self):
        if not self.families:
            raise ConfigError("feature spec needs at least one family")

    @property
    def needs_lexicon(self) -> bool:
        return any(not isinstance(FAMILIES[f], Window) for f in self.families)

    @property
    def needs_transitions(self) -> bool:
        return FeatureFamily.TRANSITION in self.families

    def canonical(self) -> str:
        ordered = [f for f in FeatureFamily if f in self.families]
        return "+".join(f.value for f in ordered)


def parse_feature_spec(spec_string: str, negation: bool = False) -> FeatureSpec:
    """Parse a ``+``-joined family string like ``unigram+pb+t`` or ``3adjadv+pb``."""
    families = []
    for token in spec_string.lower().split("+"):
        token = token.strip()
        family = _SPEC_ALIASES.get(token)
        if family is None:
            valid = ", ".join(sorted(_SPEC_ALIASES))
            raise ConfigError(f"unknown feature family {token!r}; valid tokens: {valid}")
        if family in families:
            raise ConfigError(f"duplicate feature family {token!r} in {spec_string!r}")
        families.append(family)
    return FeatureSpec(families=frozenset(families), negation_variant=negation)


# Tag classes as bits, one per token in FeaturePipeline's token stream.
ADJECTIVE_BIT = 1
ADVERB_BIT = 2
CONTENT_BIT = 4  # a noun, verb, adjective or adverb tag
TAG_BITS = {**dict.fromkeys(ADJECTIVE_TAGS, ADJECTIVE_BIT), **dict.fromkeys(ADVERB_TAGS, ADVERB_BIT)}


def tag_bits(tag: str) -> int:
    """The class bits of *tag*, read from the upper-cased tag (``jj`` is an
    adjective tag); feature strings keep the tag as written."""
    tag = tag.upper()
    return TAG_BITS.get(tag, 0) | (CONTENT_BIT if tag[:1] in _CONTENT_PREFIXES else 0)


class Window(NamedTuple):
    """A family of within-sentence windows of *n* words, ``namespace:w1_..._wn``.

    A window counts when some word's tag bits meet *tag_bits*, or always
    when *tag_bits* is 0.
    """

    namespace: str
    n: int
    tag_bits: int = 0


class Polarized(NamedTuple):
    """A family of lexicon-matched words, each written ``POL/TAG``.

    ``namespace:POL/TAG`` alone, or with *neighbors* paired with the
    previous word and tag (``namespace:word_POL/TAG``, ``namespace:TAG_POL/TAG``)
    and the next ones (``namespace:POL/TAG_word``, ``namespace:POL/TAG_TAG``)
    within the sentence.
    """

    namespace: str
    neighbors: bool


class Transition(NamedTuple):
    """The family pairing each transition phrase with its sentence's content words.

    Phrases are matched as ``TransitionList`` says, within a sentence. A
    matched phrase (spaces written ``_``) is paired with every content word
    (``namespace:phrase_word``) outside all matched phrases of its sentence,
    and with the ``POL/TAG`` form of each lexicon-matched one
    (``namespace:phrase_POL/TAG``). Each distinct phrase in a sentence
    counts once per content word.
    """

    namespace: str


# The one family table: a Window for each word/tag family, a Polarized row
# for pu and pb, and a Transition row for t.
FAMILIES: dict[FeatureFamily, Window | Polarized | Transition] = {
    FeatureFamily.UNIGRAM: Window("u", 1),
    FeatureFamily.BIGRAM: Window("b", 2),
    FeatureFamily.TRIGRAM: Window("t", 3),
    FeatureFamily.POLARIZED_UNIGRAM: Polarized("pu", neighbors=False),
    FeatureFamily.POLARIZED_BIGRAM: Polarized("pb", neighbors=True),
    FeatureFamily.ADJECTIVE: Window("adj", 1, ADJECTIVE_BIT),
    FeatureFamily.ADJADV_BIGRAM: Window("aab", 2, ADJECTIVE_BIT | ADVERB_BIT),
    FeatureFamily.ADJADV_TRIGRAM: Window("aat", 3, ADJECTIVE_BIT | ADVERB_BIT),
    FeatureFamily.TRANSITION: Transition("tr"),
}


def check_resources(spec: FeatureSpec, lex: SubjectivityLexicon | None,
                    trans: TransitionList | None) -> None:
    """Raise ConfigError when a family of *spec* lacks its lexicon or transition list."""
    if spec.needs_lexicon and lex is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a subjectivity lexicon")
    if spec.needs_transitions and trans is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a transition list")
