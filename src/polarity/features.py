"""The nine linguistic feature families and their unions.

Every emitted feature string carries its family's namespace prefix, so
families never collide and a union is plain multiset addition. N-grams,
polarized-bigram neighbors, and transition pairings never cross sentence
boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError
from .lexicon import SubjectivityLexicon, TransitionList
from .preprocess import Document, Token
from .tagging import ADJECTIVE_TAGS, ADVERB_TAGS

FeatureBag = Counter

_NGRAM_NAMESPACE = {1: "u", 2: "b", 3: "t"}
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

# Families that consult the subjectivity lexicon / transition list.
LEXICON_FAMILIES = frozenset(
    {FeatureFamily.POLARIZED_UNIGRAM, FeatureFamily.POLARIZED_BIGRAM, FeatureFamily.TRANSITION}
)


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
        return bool(self.families & LEXICON_FAMILIES)

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


def _surface(token: Token, keep_negation_prefix: bool) -> str:
    return token.surface if keep_negation_prefix else token.bare


def extract_ngrams(doc: Document, n: int, keep_negation_prefix: bool = False) -> FeatureBag:
    """Bag of within-sentence n-grams (n in 1..3), words joined by ``_``."""
    ns = _NGRAM_NAMESPACE[n]
    bag: FeatureBag = Counter()
    for sentence in doc.sentences:
        words = [_surface(t, keep_negation_prefix) for t in sentence]
        for i in range(len(words) - n + 1):
            bag[f"{ns}:{'_'.join(words[i:i + n])}"] += 1
    return bag


def extract_polarized_unigrams(doc: Document, lex: SubjectivityLexicon) -> FeatureBag:
    """One Polarity/Tag feature per lexicon-matched token (e.g. ``pu:POS/VB``)."""
    bag: FeatureBag = Counter()
    for sentence in doc.sentences:
        for token in sentence:
            pol = lex.polarity_of(token.bare, token.pos)
            if pol is not None:
                bag[f"pu:{pol}/{token.pos}"] += 1
    return bag


def extract_polarized_bigrams(doc: Document, lex: SubjectivityLexicon) -> FeatureBag:
    """Polarized unigrams paired with each neighbor's word and tag.

    A polarized token yields up to four features; the predecessor pair is
    omitted at sentence start and the successor pair at sentence end.
    """
    bag: FeatureBag = Counter()
    for sentence in doc.sentences:
        for i, token in enumerate(sentence):
            pol = lex.polarity_of(token.bare, token.pos)
            if pol is None:
                continue
            core = f"{pol}/{token.pos}"
            if i > 0:
                prev = sentence[i - 1]
                bag[f"pb:{prev.bare}_{core}"] += 1
                bag[f"pb:{prev.pos}_{core}"] += 1
            if i < len(sentence) - 1:
                nxt = sentence[i + 1]
                bag[f"pb:{core}_{nxt.bare}"] += 1
                bag[f"pb:{core}_{nxt.pos}"] += 1
    return bag


def extract_adjectives(doc: Document) -> FeatureBag:
    bag: FeatureBag = Counter()
    for sentence in doc.sentences:
        for token in sentence:
            if token.pos in ADJECTIVE_TAGS:
                bag[f"adj:{token.bare}"] += 1
    return bag


def _extract_adjadv_window(doc: Document, n: int, namespace: str) -> FeatureBag:
    keep_tags = ADJECTIVE_TAGS | ADVERB_TAGS
    bag: FeatureBag = Counter()
    for sentence in doc.sentences:
        for i in range(len(sentence) - n + 1):
            window = sentence[i:i + n]
            if any(t.pos in keep_tags for t in window):
                bag[f"{namespace}:{'_'.join(t.bare for t in window)}"] += 1
    return bag


def extract_adjadv_bigrams(doc: Document) -> FeatureBag:
    """Bigrams containing at least one adjective or adverb."""
    return _extract_adjadv_window(doc, 2, "aab")


def extract_adjadv_trigrams(doc: Document) -> FeatureBag:
    """Trigrams containing at least one adjective or adverb."""
    return _extract_adjadv_window(doc, 3, "aat")


def extract_transitions(doc: Document, trans: TransitionList, lex: SubjectivityLexicon) -> FeatureBag:
    """Pair each transition phrase with every content word in its sentence.

    Content words are the noun/verb/adjective/adverb tokens outside any
    matched phrase; a lexicon-matched content word additionally yields the
    phrase paired with its Polarity/Tag form. Each distinct phrase in a
    sentence generates its own features.
    """
    bag: FeatureBag = Counter()
    for sentence in doc.sentences:
        words = [t.bare for t in sentence]
        matches = trans.find_matches(words)
        if not matches:
            continue
        excluded = set()
        for _, start, end in matches:
            excluded.update(range(start, end))
        phrases = list(dict.fromkeys(m[0] for m in matches))
        content = [
            (i, t) for i, t in enumerate(sentence)
            if i not in excluded and t.pos[:1] in _CONTENT_PREFIXES
        ]
        for phrase in phrases:
            key = phrase.replace(" ", "_")
            for _, token in content:
                bag[f"tr:{key}_{token.bare}"] += 1
                pol = lex.polarity_of(token.bare, token.pos)
                if pol is not None:
                    bag[f"tr:{key}_{pol}/{token.pos}"] += 1
    return bag


def extract(doc: Document, spec: FeatureSpec,
            lex: SubjectivityLexicon | None = None,
            trans: TransitionList | None = None) -> FeatureBag:
    """Multiset union of every family in *spec* over one document."""
    if spec.needs_lexicon and lex is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a subjectivity lexicon")
    if spec.needs_transitions and trans is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a transition list")

    bag: FeatureBag = Counter()
    for family in FeatureFamily:
        if family not in spec.families:
            continue
        if family is FeatureFamily.UNIGRAM:
            bag.update(extract_ngrams(doc, 1, keep_negation_prefix=spec.negation_variant))
        elif family is FeatureFamily.BIGRAM:
            bag.update(extract_ngrams(doc, 2))
        elif family is FeatureFamily.TRIGRAM:
            bag.update(extract_ngrams(doc, 3))
        elif family is FeatureFamily.POLARIZED_UNIGRAM:
            bag.update(extract_polarized_unigrams(doc, lex))
        elif family is FeatureFamily.POLARIZED_BIGRAM:
            bag.update(extract_polarized_bigrams(doc, lex))
        elif family is FeatureFamily.ADJECTIVE:
            bag.update(extract_adjectives(doc))
        elif family is FeatureFamily.ADJADV_BIGRAM:
            bag.update(extract_adjadv_bigrams(doc))
        elif family is FeatureFamily.ADJADV_TRIGRAM:
            bag.update(extract_adjadv_trigrams(doc))
        elif family is FeatureFamily.TRANSITION:
            bag.update(extract_transitions(doc, trans, lex))
    return bag


def bag_to_text(bag: FeatureBag) -> str:
    """Serialize a bag as sorted ``feature<TAB>count`` lines (golden-file format)."""
    return "\n".join(f"{feature}\t{count}" for feature, count in sorted(bag.items()))


def text_to_bag(text: str) -> FeatureBag:
    bag: FeatureBag = Counter()
    for line in text.splitlines():
        if not line.strip():
            continue
        feature, _, count = line.rpartition("\t")
        bag[feature] = int(count)
    return bag
