"""The nine linguistic feature families and their unions.

``FAMILIES`` is the one family table. Each word/tag family (``unigram``,
``bigram``, ``trigram``, ``adj``, ``adjadv``, ``3adjadv``) is a ``Window``:
its features are the within-sentence windows of *n* words, or only those
where some word is an adjective or adverb. ``pu`` and ``pb`` are
``Polarized`` rows: the lexicon-matched words, alone or paired with their
neighbors. The cross-validation pipeline counts both kinds of row from its
token stream of integer word and tag ids, the corpus's one document
representation. ``extract_window``, ``extract_polarized_unigrams`` and
``extract_polarized_bigrams`` are their bag references, which read a
preprocessed Document sentence by sentence through the parallel
``words``/``tags``/``negated`` fields of its ``Sentence`` tuples. ``t``
consults the transition list too, and its row is still a bag extractor.

Every emitted feature string carries its family's namespace prefix, so
families never collide and a union is plain multiset addition. N-grams,
polarized-bigram neighbors, and transition pairings never cross sentence
boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .errors import ConfigError
from .lexicon import SubjectivityLexicon, TransitionList
from .preprocess import NEGATION_PREFIX, Document
from .tagging import ADJECTIVE_TAGS, ADVERB_TAGS

FeatureBag = Counter

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
TAG_BITS = {**dict.fromkeys(ADJECTIVE_TAGS, ADJECTIVE_BIT), **dict.fromkeys(ADVERB_TAGS, ADVERB_BIT)}


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


def extract_window(doc: Document, window: Window, negation_variant: bool = False) -> FeatureBag:
    """Bag of *window*'s features over one document.

    With *negation_variant* every word inside a negation scope is written
    as ``NOT_word``.
    """
    n = window.n
    bag: FeatureBag = Counter()
    for words, tags, negated in doc.sentences:
        if negation_variant:
            words = [NEGATION_PREFIX + w if neg else w for w, neg in zip(words, negated)]
        tagged = [TAG_BITS.get(t, 0) & window.tag_bits for t in tags]
        for i in range(len(words) - n + 1):
            if not window.tag_bits or any(tagged[i:i + n]):
                bag[f"{window.namespace}:{'_'.join(words[i:i + n])}"] += 1
    return bag


def extract_polarized_unigrams(doc: Document, lex: SubjectivityLexicon) -> FeatureBag:
    """One Polarity/Tag feature per lexicon-matched word (e.g. ``pu:POS/VB``)."""
    bag: FeatureBag = Counter()
    for words, tags, _ in doc.sentences:
        for word, tag in zip(words, tags):
            pol = lex.polarity_of(word, tag)
            if pol is not None:
                bag[f"pu:{pol}/{tag}"] += 1
    return bag


def extract_polarized_bigrams(doc: Document, lex: SubjectivityLexicon) -> FeatureBag:
    """Polarized unigrams paired with each neighbor's word and tag.

    A polarized word yields up to four features; the predecessor pair is
    omitted at sentence start and the successor pair at sentence end.
    """
    bag: FeatureBag = Counter()
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


def extract_transitions(doc: Document, trans: TransitionList, lex: SubjectivityLexicon) -> FeatureBag:
    """Pair each transition phrase with every content word in its sentence.

    Content words are the noun/verb/adjective/adverb words outside any
    matched phrase; a lexicon-matched content word additionally yields the
    phrase paired with its Polarity/Tag form. Each distinct phrase in a
    sentence generates its own features.
    """
    bag: FeatureBag = Counter()
    for words, tags, _ in doc.sentences:
        matches = trans.find_matches(words)
        if not matches:
            continue
        excluded = set()
        for _, start, end in matches:
            excluded.update(range(start, end))
        phrases = list(dict.fromkeys(m[0] for m in matches))
        content = [
            (word, tag) for i, (word, tag) in enumerate(zip(words, tags))
            if i not in excluded and tag[:1] in _CONTENT_PREFIXES
        ]
        for phrase in phrases:
            key = phrase.replace(" ", "_")
            for word, tag in content:
                bag[f"tr:{key}_{word}"] += 1
                pol = lex.polarity_of(word, tag)
                if pol is not None:
                    bag[f"tr:{key}_{pol}/{tag}"] += 1
    return bag


# The one family table: a Window for each word/tag family, a Polarized row
# for pu and pb, and an extractor (doc, lexicon, transitions) for t. The
# extractor looks extract_transitions up by module-level name at call time,
# so a wrapper installed on the name (perfbench/tracer.py) sees every call.
FAMILIES: dict[FeatureFamily, Window | Polarized | Callable[..., FeatureBag]] = {
    FeatureFamily.UNIGRAM: Window("u", 1),
    FeatureFamily.BIGRAM: Window("b", 2),
    FeatureFamily.TRIGRAM: Window("t", 3),
    FeatureFamily.POLARIZED_UNIGRAM: Polarized("pu", neighbors=False),
    FeatureFamily.POLARIZED_BIGRAM: Polarized("pb", neighbors=True),
    FeatureFamily.ADJECTIVE: Window("adj", 1, ADJECTIVE_BIT),
    FeatureFamily.ADJADV_BIGRAM: Window("aab", 2, ADJECTIVE_BIT | ADVERB_BIT),
    FeatureFamily.ADJADV_TRIGRAM: Window("aat", 3, ADJECTIVE_BIT | ADVERB_BIT),
    FeatureFamily.TRANSITION: lambda doc, lex, trans: extract_transitions(doc, trans, lex),
}


def check_resources(spec: FeatureSpec, lex: SubjectivityLexicon | None,
                    trans: TransitionList | None) -> None:
    """Raise ConfigError when a family of *spec* lacks its lexicon or transition list."""
    if spec.needs_lexicon and lex is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a subjectivity lexicon")
    if spec.needs_transitions and trans is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a transition list")
