"""Subjectivity lexicon and transition-word list.

The lexicon answers prior-polarity queries for polarized features; the
transition list drives contrastive-connective features. Both are immutable
after loading and safe to share across workers.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .corpus import read_text
from .errors import ConfigError, DataError, one_of


class Polarity(Enum):
    POS = "POS"
    NEG = "NEG"

    def __str__(self) -> str:
        return self.value


# Coarse word classes used for lexicon POS constraints.
ANYPOS = "any"
_COARSE_BY_PREFIX = {"J": "adj", "R": "adverb", "N": "noun", "V": "verb"}

_TFF_POS = {
    "adj": "adj",
    "adverb": "adverb",
    "noun": "noun",
    "verb": "verb",
    "anypos": ANYPOS,
}

_POLARITY_WORDS = {
    "positive": Polarity.POS,
    "negative": Polarity.NEG,
    "pos": Polarity.POS,
    "neg": Polarity.NEG,
    "+": Polarity.POS,
    "-": Polarity.NEG,
}


def coarse_pos(tag: str) -> str:
    """Collapse a Penn-style tag to adj/adverb/noun/verb (a content word), or 'other'."""
    return _COARSE_BY_PREFIX.get(tag[:1].upper(), "other")


@dataclass(frozen=True)
class LexiconEntry:
    polarity: Polarity
    pos_constraint: str  # adj | adverb | noun | verb | any


@dataclass
class SubjectivityLexicon:
    entries: dict[str, list[LexiconEntry]]

    def __len__(self) -> int:
        return sum(len(v) for v in self.entries.values())

    def counts(self) -> dict[str, int]:
        """Entry and distinct-word-form counts per polarity, for load reports."""
        report = {"pos_entries": 0, "neg_entries": 0, "pos_words": 0, "neg_words": 0}
        for _, entries in self.entries.items():
            pols = {e.polarity for e in entries}
            if Polarity.POS in pols:
                report["pos_words"] += 1
            if Polarity.NEG in pols:
                report["neg_words"] += 1
            for e in entries:
                key = "pos_entries" if e.polarity is Polarity.POS else "neg_entries"
                report[key] += 1
        return report

    def polarity_of(self, word: str, pos: str) -> Polarity | None:
        """Prior polarity of *word* given its tag, or None when absent.

        Prefers the entry whose POS constraint matches the coarse class of
        *pos*, then an unconstrained entry, then the first entry.
        """
        entries = self.entries.get(word)
        if not entries:
            return None
        cls = coarse_pos(pos)
        for entry in entries:
            if entry.pos_constraint == cls:
                return entry.polarity
        for entry in entries:
            if entry.pos_constraint == ANYPOS:
                return entry.polarity
        return entries[0].polarity


def _parse_tff_line(line: str, lineno: int) -> tuple[str, LexiconEntry] | None:
    fields = {}
    for part in line.split():
        if "=" not in part:
            continue
        key, _, value = part.partition("=")
        fields[key] = value
    word = fields.get("word1")
    polarity_word = fields.get("priorpolarity")
    if not word or not polarity_word:
        raise DataError(f"unparseable lexicon line {lineno}: {line.strip()!r}")
    polarity = _POLARITY_WORDS.get(polarity_word.lower())
    if polarity is None:
        return None  # neutral / both entries are dropped at load time
    pos_constraint = _TFF_POS.get(fields.get("pos1", "anypos").lower(), ANYPOS)
    return word.lower(), LexiconEntry(polarity=polarity, pos_constraint=pos_constraint)


def _parse_tsv_line(line: str, lineno: int) -> tuple[str, LexiconEntry] | None:
    parts = line.rstrip("\n").split("\t")
    if len(parts) < 2 or not parts[0]:
        raise DataError(f"unparseable lexicon line {lineno}: {line.strip()!r}")
    polarity = _POLARITY_WORDS.get(parts[1].strip().lower())
    if polarity is None:
        if parts[1].strip().lower() in ("neutral", "both"):
            return None
        raise DataError(f"unparseable lexicon line {lineno}: {line.strip()!r}")
    constraint = _TFF_POS.get(parts[2].strip().lower(), ANYPOS) if len(parts) > 2 else ANYPOS
    return parts[0].strip().lower(), LexiconEntry(polarity=polarity, pos_constraint=constraint)


LEXICON_FORMATS = {"tff": _parse_tff_line, "tsv": _parse_tsv_line}


def load_lexicon(path: str | Path, format: str = "tff") -> SubjectivityLexicon:
    """Load a subjectivity lexicon in one of ``LEXICON_FORMATS``: the clues
    (tff) format or two-column tsv. Any other format is a ConfigError naming both.

    Neutral and both-polarity entries are excluded; duplicate (word, polarity,
    constraint) rows collapse to one entry. The file is decoded as the
    corpus is: UTF-8, or Latin-1 when it is not valid UTF-8.
    """
    path = Path(path)
    parse = LEXICON_FORMATS[one_of("lexicon format", format, LEXICON_FORMATS)]
    if not path.is_file():
        raise ConfigError(f"lexicon file {path} does not exist")

    entries: dict[str, list[LexiconEntry]] = {}
    with io.StringIO(read_text(path), newline=None) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parsed = parse(line, lineno)
            if parsed is None:
                continue
            word, entry = parsed
            bucket = entries.setdefault(word, [])
            if entry not in bucket:
                bucket.append(entry)
    if not entries:
        raise DataError(f"lexicon file {path} contains no usable entries")
    return SubjectivityLexicon(entries=entries)


@dataclass
class TransitionList:
    """Contrastive connectives, matched greedily in list order.

    A sentence is scanned left to right; at each position not inside an
    earlier match, the first listed phrase whose words follow wins.
    ``load_transitions`` sorts the list longest phrase first, so at each
    position the longest phrase wins. Read-only, so instances are safe to
    share.
    """

    phrases: list[str]

    def __len__(self) -> int:
        return len(self.phrases)


def load_transitions(path: str | Path | None = None) -> TransitionList:
    """Load a transition list (one phrase per line, ``#`` comments allowed).

    With no path, the bundled default list of 27 phrases is used. A file is
    read as UTF-8, without a leading byte-order mark; one that cannot be read
    or decoded is a DataError naming it.
    """
    if path is None:
        text = resources.files("polarity").joinpath("data/transitions.txt").read_text("utf-8")
    else:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"transition list {path} does not exist")
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DataError(f"transition list {path}: not UTF-8 text ({exc.reason})") from None
        except OSError as exc:
            raise DataError(f"cannot read transition list {path}: {exc}") from exc

    seen: set[str] = set()
    phrases: list[str] = []
    for line in text.splitlines():
        phrase = line.split("#", 1)[0].strip().lower()
        if phrase and phrase not in seen:
            seen.add(phrase)
            phrases.append(phrase)
    if not phrases:
        raise DataError("transition list is empty")
    phrases.sort(key=lambda p: (-len(p.split()), p))
    return TransitionList(phrases=phrases)
