"""The nine linguistic feature families, their unions, and the token stream
they are counted from.

``FAMILIES`` is the one family table. Each word/tag family (``unigram``,
``bigram``, ``trigram``, ``adj``, ``adjadv``, ``3adjadv``) is a ``Window``:
its features are the within-sentence windows of *n* words, or only those
where some word is an adjective or adverb. The negated unigram is the
``unigram`` row with ``negated`` set. ``pu`` and ``pb`` are ``Polarized``
rows: the lexicon-matched words, alone or paired with their neighbors.
``t`` is the ``Transition`` row: each transition phrase paired with the
content words of its sentence.

``_TokenStream`` holds the corpus as integer word and tag ids, the corpus's
one document representation, with the lexicon and transition list, and
counts every row from it: ``matrix(row, floor)``. Each occurrence
becomes an integer key (a window's word ids; a polarized token's ``POL/TAG``
core and its neighbor; a phrase and a content word), and one rule turns the
keys of any row into a count matrix: a column is one distinct feature
string, kept when its corpus total reaches the ``min_count`` floor.

Every emitted feature string carries its family's namespace prefix, so
families never collide and a union is plain multiset addition. N-grams,
polarized-bigram neighbors, and transition pairings never cross sentence
boundaries.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import count
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import RawDocument
from .errors import ConfigError, one_of
from .lexicon import SubjectivityLexicon, TransitionList, coarse_pos
from .preprocess import NEGATION_PREFIX, negation_scopes, tokenize_document, tokenize_pretagged
from .tagging import ADJECTIVE_TAGS, ADVERB_TAGS, PretaggedReader
from .vectorize import FeatureMatrix, index_dtype


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


@dataclass(frozen=True)
class FeatureSpec:
    """A union of feature families; the negation variant is the unigram's (see ``rows``)."""

    families: frozenset
    negation_variant: bool = False

    def __post_init__(self):
        if not self.families:
            raise ConfigError("feature spec needs at least one family")
        if self.negation_variant and FeatureFamily.UNIGRAM not in self.families:
            raise ConfigError(f"the negation variant needs unigram, got {self.canonical()!r}")

    def rows(self) -> list[Window | Polarized | Transition]:
        """The ``FAMILIES`` row of each family, in ``FeatureFamily`` order; under
        the negation variant the unigram row has ``negated`` set."""
        return [FAMILIES[f]._replace(negated=True)
                if f is FeatureFamily.UNIGRAM and self.negation_variant else FAMILIES[f]
                for f in FeatureFamily if f in self.families]

    @property
    def needs_lexicon(self) -> bool:
        return any(not isinstance(FAMILIES[f], Window) for f in self.families)

    @property
    def needs_transitions(self) -> bool:
        return FeatureFamily.TRANSITION in self.families

    def canonical(self) -> str:
        return "+".join(f.value for f in FeatureFamily if f in self.families)


def parse_feature_spec(spec_string: str, negation: bool = False) -> FeatureSpec:
    """Parse a ``+``-joined string of ``FeatureFamily`` values, in any case, like
    ``unigram+pb+t`` or ``3adjadv+PB``."""
    families = []
    for token in spec_string.lower().split("+"):
        token = token.strip()
        family = FeatureFamily(one_of("feature family", token, [f.value for f in FeatureFamily]))
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
    """Class bits of *tag*: adjective/adverb by its upper-case form (``jj`` is an adjective),
    content word by ``lexicon.coarse_pos``; feature strings keep the tag as written."""
    return TAG_BITS.get(tag.upper(), 0) | (CONTENT_BIT if coarse_pos(tag) != "other" else 0)


class Window(NamedTuple):
    """A family of within-sentence windows of *n* words, ``namespace:w1_..._wn``.

    A window counts when some word's tag bits meet *tag_bits*, or always
    when *tag_bits* is 0. A *negated* window writes a word in a negation
    scope ``NOT_word``; it is the negated unigram, so *n* is 1.
    """

    namespace: str
    n: int
    tag_bits: int = 0
    negated: bool = False


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


# Window keys are built as base-V numbers over the word ids; a product that
# could pass this bound is renumbered densely first.
_MAX_KEY = np.iinfo(np.int64).max


class _TokenStream:
    """The corpus as flat per-token buffers, built in one pass from the raw text.

    ``ids`` holds an int32 word id per token (``words[id]`` is the word);
    ``starts`` marks each sentence's first token, and the *i*-th document
    holds tokens ``doc_bounds[i]:doc_bounds[i + 1]``. Each document is read
    (``RawDocument.read``) and goes through ``preprocess.tokenize_document``
    (or each line through ``tokenize_pretagged``), and only its words' ids
    are kept, so neither its text nor any per-token object outlives it.

    The annotations are computed over the whole stream on first use and
    kept: ``tag_ids``, an int32 tag id per token (``tags[id]`` is the tag),
    from ``RuleTagger.tag_stream``; ``tag_bits``, the ``features.tag_bits``
    of each token's tag; ``negated``, each token's negation flag; and
    ``_polarized``, each *lexicon*-matched token's ``POL/TAG`` core. The
    pretagged reader's tags are taken in the one pass. So the rows that
    read none of them (``unigram``, ``bigram`` and ``trigram``, not
    negated) hold only the ids, the sentence starts and their own int32
    scratch. A row's matrix depends on the row and the floor alone:
    ``matrix(row, floor)`` is the whole build.
    """

    def __init__(self, documents: Sequence[RawDocument], tagger,
                 lexicon: SubjectivityLexicon | None = None,
                 transitions: TransitionList | None = None):
        # A new word gets the next id. A factory bound to the dict itself
        # would make a reference cycle, which keeps the dict alive after
        # the build until the next full collection.
        index: defaultdict[str, int] = defaultdict(count().__next__)
        pretagged = isinstance(tagger, PretaggedReader)
        tag_index: defaultdict[str, int] = defaultdict(count().__next__)
        ids, tag_ids = array("i"), array("i")
        sentence_lengths, doc_lengths = array("q"), array("q")
        for doc in documents:
            before = len(ids)
            if pretagged:
                sentences = []
                for line in doc.read().splitlines():
                    words, tags = tokenize_pretagged(line, tagger)
                    tag_ids.extend(map(tag_index.__getitem__, tags))
                    sentences.append(words)
            else:
                sentences = tokenize_document(doc.read())
            for words in sentences:
                if words:
                    ids.extend(map(index.__getitem__, words))
                    sentence_lengths.append(len(words))
            doc_lengths.append(len(ids) - before)
        self.words = list(index)
        self.ids = np.frombuffer(ids, dtype=np.intc)
        lengths = np.frombuffer(sentence_lengths, dtype=np.int64)
        starts = np.zeros(len(ids) + 1, dtype=bool)
        starts[np.cumsum(lengths) - lengths] = True
        self.starts = starts[:-1]
        self.doc_bounds = np.concatenate(([0], np.cumsum(np.frombuffer(doc_lengths, np.int64))))
        self._tagger = tagger
        self.lexicon = lexicon
        self.transitions = transitions
        if pretagged:
            self._tagged = list(tag_index), np.frombuffer(tag_ids, dtype=np.intc)

    @cached_property
    def _tagged(self) -> tuple[list[str], np.ndarray]:
        return self._tagger.tag_stream(self.words, self.ids, self.starts)

    @property
    def tags(self) -> list[str]:
        return self._tagged[0]

    @property
    def tag_ids(self) -> np.ndarray:
        return self._tagged[1]

    @cached_property
    def tag_bits(self) -> np.ndarray:
        bits = np.array([tag_bits(tag) for tag in self.tags], dtype=np.uint8)
        return bits[self.tag_ids]

    @cached_property
    def negated(self) -> np.ndarray:
        return negation_scopes(self.words, self.ids, self.starts)

    def matrix(self, row: Window | Polarized | Transition, floor: int) -> FeatureMatrix:
        """The count matrix of *row*'s features whose corpus total is >= *floor*."""
        if isinstance(row, Window):
            return self.window_matrix(row, floor)
        if isinstance(row, Polarized):
            return self.polarized_matrix(row, floor)
        return self.transition_matrix(row, floor)

    def window_matrix(self, window: Window, floor: int) -> FeatureMatrix:
        """The count matrix of *window*'s features whose corpus total is >= *floor*.

        Each window becomes a key over its word ids (and, for a negated
        window, its negation flag); keys and window positions are int32
        while every value fits (``vectorize.index_dtype``). Distinct keys
        with ``_`` inside a word can spell one feature (``a_b c`` and
        ``a b_c``). The key holds one negation flag, so a negated window
        has ``n == 1``.
        """
        n, vocab = window.n, len(self.words)
        if window.negated and n > 1:
            raise ValueError(f"the negation variant is for one-word windows, not {n}-word ones")
        size = max(len(self.ids) - n + 1, 0)
        keep = np.ones(size, dtype=bool)
        for k in range(1, n):
            keep &= ~self.starts[k:k + size]
        if window.tag_bits:
            tagged = np.zeros(size, dtype=bool)
            for k in range(n):
                tagged |= (self.tag_bits[k:k + size] & window.tag_bits) != 0
            keep &= tagged
        # Positions, and the document bounds searched among them, up to len(ids).
        pos = np.flatnonzero(keep).astype(index_dtype(len(self.ids) + 1))
        del keep

        # The keys are built in place; ``ids[k:][pos]`` is each window's k-th word.
        flags = 2 if window.negated else 1
        keys, span = self.ids[pos].astype(index_dtype(flags * vocab ** n), copy=False), vocab
        if window.negated:
            keys *= 2
            keys += self.negated[pos]
            span = 2 * vocab
        for k in range(1, n):
            if span * vocab > _MAX_KEY:
                _, keys = np.unique(keys, return_inverse=True)
                span = int(keys.max()) + 1
            keys *= vocab
            keys += self.ids[k:][pos]
            span *= vocab

        def spell(_, at: np.ndarray) -> list[str]:
            columns = [[self.words[i] for i in self.ids[at + k].tolist()] for k in range(n)]
            if window.negated:
                columns[0] = [NEGATION_PREFIX + w if neg else w
                              for w, neg in zip(columns[0], self.negated[at].tolist())]
            return [f"{window.namespace}:{'_'.join(parts)}" for parts in zip(*columns)]

        underscored = np.array(["_" in w for w in self.words], dtype=bool)

        def shares(_, at: np.ndarray) -> np.ndarray:
            return np.any([underscored[self.ids[at + k]] for k in range(n)], axis=0)

        parts = [(pos, keys, spell, shares if underscored.any() else False)]
        del pos, keys  # _keyed_matrix holds the only references and sorts the keys in place
        return self._keyed_matrix(parts, floor)

    def polarized_matrix(self, row: Polarized, floor: int) -> FeatureMatrix:
        """The count matrix of *row*'s features (``pu`` or ``pb``) whose corpus total is >= *floor*.

        Each occurrence is keyed by its polarized token's ``POL/TAG`` core
        and, for ``pb``, the neighbor's word or tag id.
        """
        pos, core, cores = self._polarized
        ns = row.namespace
        if not row.neighbors:  # _keyed_matrix sorts the keys in place: pu copies the cores
            return self._keyed_matrix(
                [(pos, core.astype(np.int64),
                  lambda keys, _: [f"{ns}:{cores[k]}" for k in keys.tolist()], False)],
                floor)
        continues = np.append(~self.starts[1:], False)  # the next token is in the sentence
        before, after = pos[~self.starts[pos]], pos[continues[pos]]
        core_before, core_after = core[~self.starts[pos]], core[continues[pos]]
        sides = [self.words, self.tags, cores]  # on either side of a pair
        (word_shared, tag_shared, core_shared), _ = _shared(sides, sides)
        parts = []
        for names, of, shared in [(self.words, self.ids, word_shared),
                                  (self.tags, self.tag_ids, tag_shared)]:
            parts.append(_pair(ns, before, (of[before - 1], names, shared),
                               (core_before, cores, core_shared)))
            parts.append(_pair(ns, after, (core_after, cores, core_shared),
                               (of[after + 1], names, shared)))
        return self._keyed_matrix(parts, floor)

    def transition_matrix(self, row: Transition, floor: int) -> FeatureMatrix:
        """The count matrix of ``t``'s features whose corpus total is >= *floor*.

        In each sentence with a phrase match, every content word outside all
        matches is paired with each distinct phrase matched there. An
        occurrence is keyed by (phrase, word id) and, for a polarized word,
        also by (phrase, core id), with the ``POL/TAG`` cores that ``pu``
        and ``pb`` use.
        """
        start, end, phrase = self._phrase_matches()
        inside = np.zeros(len(self.ids) + 1, dtype=np.int8)  # running sum 1 inside a match
        inside[start] = 1
        inside[end] -= 1
        content = np.cumsum(inside[:-1], dtype=np.int8) == 0
        del inside
        content &= (self.tag_bits & CONTENT_BIT) != 0
        content_pos = np.flatnonzero(content)
        del content

        # Each distinct (sentence, phrase) pair is repeated once per content
        # word of the sentence: ``at`` holds the words, ``phrase`` the phrases.
        sentence_bounds = np.append(np.flatnonzero(self.starts), len(self.ids))
        phrases = len(self.transitions.phrases)
        in_sentence = np.searchsorted(sentence_bounds, start, side="right") - 1
        pairs = np.sort(in_sentence * phrases + phrase)
        sentence, phrase = np.divmod(pairs[_run_starts(pairs)], phrases)
        lo = np.searchsorted(content_pos, sentence_bounds[sentence])
        counts = np.searchsorted(content_pos, sentence_bounds[sentence + 1]) - lo
        del sentence_bounds, sentence
        at = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        at += np.arange(len(at))
        at = content_pos[at]
        del content_pos
        phrase = np.repeat(phrase, counts)

        # A polarized word's core, found among the sorted polarized positions.
        pos, core, cores = self._polarized
        slot = np.searchsorted(pos, at)
        polar = np.append(pos, len(self.ids))[slot] == at
        ns, keys = row.namespace, [p.replace(" ", "_") for p in self.transitions.phrases]
        (key_shared,), (word_shared, core_shared) = _shared([keys], [self.words, cores])
        parts = [_pair(ns, at, (phrase, keys, key_shared), (self.ids[at], self.words, word_shared)),
                 _pair(ns, at[polar], (phrase[polar], keys, key_shared),
                       (core[slot[polar]], cores, core_shared))]
        del at, phrase, slot, polar
        return self._keyed_matrix(parts, floor)

    def _phrase_matches(self) -> tuple[np.ndarray, ...]:
        """(starts, ends, phrase indices) of the transition matches, in token order.

        A match never crosses a sentence start. Scanning left to right, at
        each position outside an earlier match the first listed phrase that
        fits wins.
        """
        index = {word: i for i, word in enumerate(self.words)}
        found = []  # (start, phrase index, length) arrays, one triple per phrase
        for rank, phrase in enumerate(self.transitions.phrases):
            ids = [index.get(word, -1) for word in phrase.split()]
            if not ids or -1 in ids:
                continue
            at = np.flatnonzero(self.ids[:max(len(self.ids) - len(ids) + 1, 0)] == ids[0])
            for k in range(1, len(ids)):
                at = at[(self.ids[at + k] == ids[k]) & ~self.starts[at + k]]
            found.append((at, np.full(len(at), rank), np.full(len(at), len(ids))))
        if not found:
            return (np.zeros(0, dtype=np.int64),) * 3
        start, rank, length = (np.concatenate(column) for column in zip(*found))
        order = np.lexsort((rank, start))  # by start, the first listed phrase first
        start, rank, end = start[order], rank[order], start[order] + length[order]
        chosen, free = [], 0
        for i, (at, stop) in enumerate(zip(start.tolist(), end.tolist())):
            if at >= free:
                chosen.append(i)
                free = stop
        return start[chosen], end[chosen], rank[chosen]

    def _keyed_matrix(self, parts: list, floor: int) -> FeatureMatrix:
        """The count matrix of the occurrences in *parts*, keeping the columns whose
        total is >= *floor*, which ``FeaturePipeline.family_matrices`` keeps at 1 or more.

        A part is (token positions, integer keys, spell, shares). Its
        occurrences sorted by key form one run per distinct key, whose first
        occurrence's position is ``at``. ``spell(keys, at)`` names the given
        keys, and ``shares(keys, at)`` marks those whose string another key
        may spell too (a pretagged word ``jj`` and the tag ``jj``, or words
        and phrases holding ``_``). *shares* is False when no key's string
        can be spelled by another key. The parts are popped and their keys
        sorted in place.

        A run that starts at sorted index ``i`` reaches the floor exactly
        when the key at ``i + floor - 1`` is the same, so one pass over the
        sorted keys finds those runs without totalling the others. Only
        they, and the runs that *shares* marks, are totalled and spelled; a
        column is one distinct string, as in a per-document bag of strings,
        and is kept when its keys' totals reach the floor. Each part then
        keeps the sort positions of its spelled runs' occurrences, not the
        whole sort, and every large temporary is dropped as soon as it is
        used. So the scratch grows with the occurrences, not with the
        distinct keys, and the build's peak memory stays below that of
        per-document bags.
        """
        spelled = []  # per part: positions, kept occurrences, run totals, names
        by_name: Counter = Counter()  # each spelled string's total over every part
        while parts:
            pos, keys, spell, shares = parts.pop(0)
            order = np.argsort(keys)
            keys.sort()  # in place, as keys[order] without the copy
            picked = _run_starts(keys)
            marked = []
            if shares is not False:  # a pass over every run
                runs = np.flatnonzero(picked)
                marked = runs[shares(keys[runs], pos[order[runs]])]
                del runs
            reach = max(len(keys) - floor + 1, 0)  # the runs that can start here
            picked[reach:] = False
            picked[:reach] &= keys[floor - 1:] == keys[:reach]
            picked[marked] = True
            starts = np.flatnonzero(picked)
            del picked
            ends = np.searchsorted(keys, keys[starts], side="right")
            names = spell(keys[starts], pos[order[starts]])
            del keys
            totals = ends - starts
            for name, total in zip(names, totals.tolist()):
                by_name[name] += total
            inside = np.zeros(len(order) + 1, dtype=np.int8)  # running sum 1 in a spelled run
            inside[starts] = 1
            inside[ends] -= 1
            del starts, ends
            np.cumsum(inside, dtype=np.int8, out=inside)
            kept = order[inside[:-1].view(bool)]
            del order, inside
            spelled.append((pos, kept, totals, names))

        features = sorted(name for name, total in by_name.items() if total >= floor)
        column = {feature: j for j, feature in enumerate(features)}
        del by_name
        hits = []
        while spelled:
            pos, kept, totals, names = spelled.pop(0)
            columns = np.full(len(pos), -1, dtype=np.int32)  # per occurrence, as given
            columns[kept] = np.repeat(np.array([column.get(name, -1) for name in names],
                                               dtype=np.int32), totals)
            del kept, names
            hit = columns >= 0
            hits.append((pos[hit], columns[hit]))
            del pos, columns
        del column
        at, columns = hits.pop() if len(hits) == 1 else map(np.concatenate, zip(*hits))
        if (at[1:] < at[:-1]).any():
            order = np.argsort(at)
            at = at[order]
            columns = columns[order]
            del order
        bounds = np.searchsorted(at, self.doc_bounds.astype(at.dtype))
        del at
        return FeatureMatrix.from_occurrences(bounds, columns, features)

    @cached_property
    def _polarized(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """(positions, core ids, cores): each polarized token and its ``POL/TAG`` core.

        The lexicon is asked once per distinct (word, tag) pair. Each
        distinct ``POL/TAG`` string gets one core id.
        """
        listed = np.array([word in self.lexicon.entries for word in self.words], dtype=bool)
        pos = np.flatnonzero(listed[self.ids])
        pairs = self.ids[pos].astype(np.int64) * len(self.tags) + self.tag_ids[pos]
        distinct, inverse = np.unique(pairs, return_inverse=True)
        cores: dict[str, int] = {}
        core_of_pair = []
        for pair in distinct.tolist():
            word, tag = divmod(pair, len(self.tags))
            pol = self.lexicon.polarity_of(self.words[word], self.tags[tag])
            core_of_pair.append(-1 if pol is None else
                                cores.setdefault(f"{pol}/{self.tags[tag]}", len(cores)))
        core = np.array(core_of_pair, dtype=np.intc)[inverse]
        hit = core >= 0
        return pos[hit], core[hit], list(cores)


def _pair(namespace: str, at: np.ndarray, first: tuple, second: tuple) -> tuple:
    """The ``_TokenStream._keyed_matrix`` part of the pairs ``namespace:a_b`` at
    positions *at*.

    *first* and *second* are each (ids, names, shared): per occurrence the
    id of its name on that side, the names, and the ``_shared`` flag of
    each name. An occurrence is keyed ``first id * len(second names) +
    second id``; a key is marked when either of its names is shared, and
    *shares* is False when no name is.
    """
    first_ids, first_names, first_shared = first
    second_ids, second_names, second_shared = second
    width = len(second_names)

    def spell(keys: np.ndarray, _) -> list[str]:
        return [f"{namespace}:{first_names[i]}_{second_names[j]}"
                for i, j in (divmod(key, width) for key in keys.tolist())]

    def shares(keys: np.ndarray, _) -> np.ndarray:
        i, j = np.divmod(keys, width)
        return first_shared[i] | second_shared[j]

    keys = first_ids.astype(np.int64, copy=False) * width + second_ids
    return at, keys, spell, shares if first_shared.any() or second_shared.any() else False


def _shared(left: list[list[str]], right: list[list[str]]) -> tuple[list, list]:
    """Per list of the names on the left and on the right of a family's pairs
    ``left_right``, the names that a pair with another key may spell too.

    A name found twice among the lists of its side may. So may a name
    holding ``_``, unless no name of the other side holds one: then every
    pair splits at its last (or first) ``_`` back into its two names. So a
    word that spells a tag (a pretagged ``jj``), or a word, tag or phrase
    holding ``_``, is what can merge two keys.
    """
    def flags(side: list[list[str]], other: list[list[str]]) -> list[np.ndarray]:
        underscores = any("_" in name for names in other for name in names)
        seen = Counter(name for names in side for name in names)
        return [np.array([seen[name] > 1 or (underscores and "_" in name) for name in names],
                         dtype=bool) for names in side]
    return flags(left, right), flags(right, left)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Flags the first of each run of equal values of the sorted *ordered*."""
    first = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first
