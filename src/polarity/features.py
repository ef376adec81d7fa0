"""The nine linguistic feature families and their unions.

Each extractor reads a preprocessed Document sentence by sentence through
the parallel ``words``/``tags``/``negated`` fields of its ``Sentence``
tuples. ``EXTRACTORS`` maps every family to its extractor; ``extract`` and
the cross-validation pipeline both dispatch through it, after
``check_resources`` has made sure a lexicon or transition list is present
where the family needs one.

Every emitted feature string carries its family's namespace prefix, so
families never collide and a union is plain multiset addition. N-grams,
polarized-bigram neighbors, and transition pairings never cross sentence
boundaries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import ConfigError
from .lexicon import SubjectivityLexicon, TransitionList
from .preprocess import NEGATION_PREFIX, Document
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


def extract_ngrams(doc: Document, n: int, keep_negation_prefix: bool = False) -> FeatureBag:
    """Bag of within-sentence n-grams (n in 1..3), words joined by ``_``.

    With *keep_negation_prefix* every word inside a negation scope is
    written as ``NOT_word``.
    """
    ns = _NGRAM_NAMESPACE[n]
    bag: FeatureBag = Counter()
    for words, _, negated in doc.sentences:
        if keep_negation_prefix:
            words = [NEGATION_PREFIX + w if neg else w for w, neg in zip(words, negated)]
        bag.update(f"{ns}:{'_'.join(words[i:i + n])}" for i in range(len(words) - n + 1))
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


def extract_adjectives(doc: Document) -> FeatureBag:
    bag: FeatureBag = Counter()
    for words, tags, _ in doc.sentences:
        bag.update(f"adj:{w}" for w, t in zip(words, tags) if t in ADJECTIVE_TAGS)
    return bag


def _extract_adjadv_window(doc: Document, n: int, namespace: str) -> FeatureBag:
    keep_tags = ADJECTIVE_TAGS | ADVERB_TAGS
    bag: FeatureBag = Counter()
    for words, tags, _ in doc.sentences:
        for i in range(len(words) - n + 1):
            if not keep_tags.isdisjoint(tags[i:i + n]):
                bag[f"{namespace}:{'_'.join(words[i:i + n])}"] += 1
    return bag


def extract_adjadv_bigrams(doc: Document) -> FeatureBag:
    """Bigrams containing at least one adjective or adverb."""
    return _extract_adjadv_window(doc, 2, "aab")


def extract_adjadv_trigrams(doc: Document) -> FeatureBag:
    """Trigrams containing at least one adjective or adverb."""
    return _extract_adjadv_window(doc, 3, "aat")


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


# The one dispatch table: family -> extractor(doc, lexicon, transitions,
# negation_variant). Only the unigram extractor reads the negation variant.
# The entries look the extractors up by module-level name at call time, so
# a wrapper installed on a name (perfbench/tracer.py) sees every call.
EXTRACTORS: dict[FeatureFamily, Callable[..., FeatureBag]] = {
    FeatureFamily.UNIGRAM: lambda doc, lex, trans, neg: extract_ngrams(doc, 1, keep_negation_prefix=neg),
    FeatureFamily.BIGRAM: lambda doc, lex, trans, neg: extract_ngrams(doc, 2),
    FeatureFamily.TRIGRAM: lambda doc, lex, trans, neg: extract_ngrams(doc, 3),
    FeatureFamily.POLARIZED_UNIGRAM: lambda doc, lex, trans, neg: extract_polarized_unigrams(doc, lex),
    FeatureFamily.POLARIZED_BIGRAM: lambda doc, lex, trans, neg: extract_polarized_bigrams(doc, lex),
    FeatureFamily.ADJECTIVE: lambda doc, lex, trans, neg: extract_adjectives(doc),
    FeatureFamily.ADJADV_BIGRAM: lambda doc, lex, trans, neg: extract_adjadv_bigrams(doc),
    FeatureFamily.ADJADV_TRIGRAM: lambda doc, lex, trans, neg: extract_adjadv_trigrams(doc),
    FeatureFamily.TRANSITION: lambda doc, lex, trans, neg: extract_transitions(doc, trans, lex),
}


def check_resources(spec: FeatureSpec, lex: SubjectivityLexicon | None,
                    trans: TransitionList | None) -> None:
    """Raise ConfigError when a family of *spec* lacks its lexicon or transition list."""
    if spec.needs_lexicon and lex is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a subjectivity lexicon")
    if spec.needs_transitions and trans is None:
        raise ConfigError(f"feature spec {spec.canonical()!r} requires a transition list")


def extract(doc: Document, spec: FeatureSpec,
            lex: SubjectivityLexicon | None = None,
            trans: TransitionList | None = None) -> FeatureBag:
    """Multiset union of every family in *spec* over one document."""
    check_resources(spec, lex, trans)
    bag: FeatureBag = Counter()
    for family in FeatureFamily:
        if family in spec.families:
            bag.update(EXTRACTORS[family](doc, lex, trans, spec.negation_variant))
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
