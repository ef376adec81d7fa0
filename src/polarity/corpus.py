"""Movie-review corpus ingestion, per-label statistics, and cross-validation folds.

Expects the standard polarity-dataset layout: a root directory with ``pos/``
and ``neg/`` subdirectories of plain-text reviews, one sentence per line,
file names like ``cv000_29416.txt``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .errors import ConfigError, DataError

N_FOLDS = 5

_CV_PREFIX = re.compile(r"^cv(\d+)")


class Label(Enum):
    POSITIVE = "pos"
    NEGATIVE = "neg"

    @property
    def sign(self) -> int:
        return 1 if self is Label.POSITIVE else -1


@dataclass(frozen=True)
class RawDocument:
    """One labeled review exactly as read from disk."""

    id: str
    label: Label
    text: str


@dataclass
class Corpus:
    documents: list[RawDocument]
    folds: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.documents)

    def by_label(self, label: Label) -> list[RawDocument]:
        return [d for d in self.documents if d.label == label]


@dataclass
class LabelStats:
    sentences: int = 0
    words: int = 0
    distinct: int = 0


@dataclass
class CorpusStats:
    per_label: dict[Label, LabelStats]

    def to_json_dict(self) -> dict:
        return {
            label.value: {
                "sentences": stats.sentences,
                "words": stats.words,
                "distinct": stats.distinct,
            }
            for label, stats in sorted(self.per_label.items(), key=lambda kv: kv[0].value, reverse=True)
        }


def read_text(path: Path) -> str:
    """The file's text as UTF-8 (a leading byte-order mark dropped), or as
    Latin-1 when it is not valid UTF-8."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        return raw.decode("latin-1")


def load_corpus(root_dir: str | Path) -> Corpus:
    """Load every ``pos/*.txt`` and ``neg/*.txt`` review under *root_dir*.

    Documents come back sorted by id, so two loads of the same tree are
    identical. Labels derive from the containing directory.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise ConfigError(f"corpus root {root} is not a directory")

    documents: list[RawDocument] = []
    seen: dict[str, Label] = {}
    for label in (Label.POSITIVE, Label.NEGATIVE):
        subdir = root / label.value
        files = sorted(subdir.glob("*.txt")) if subdir.is_dir() else []
        if not files:
            raise ConfigError(f"{label.value}/ missing or empty under {root}")
        for path in files:
            doc_id = path.stem
            if doc_id in seen:
                raise DataError(f"duplicate document id {doc_id!r} ({seen[doc_id].value} and {label.value})")
            seen[doc_id] = label
            documents.append(RawDocument(id=doc_id, label=label, text=read_text(path)))

    documents.sort(key=lambda d: d.id)
    return Corpus(documents=documents)


def _check_balance(corpus: Corpus, folds: dict[str, int]) -> None:
    for label in Label:
        sizes = [0] * N_FOLDS
        for doc in corpus.by_label(label):
            sizes[folds[doc.id]] += 1
        if max(sizes) - min(sizes) > 1:
            raise DataError(
                f"fold sizes for label {label.value} are unbalanced {sizes}; "
                "use seeded fold assignment instead"
            )


def assign_folds(corpus: Corpus, mode: str = "filename", seed: int = 0) -> Corpus:
    """Return a copy of *corpus* with a fold index in 0..4 per document.

    mode="filename" derives the fold from the leading ``cvNNN`` digits
    (fold = NNN // 200, the dataset's own convention); mode="seeded"
    shuffles each label deterministically and deals round-robin.
    """
    folds: dict[str, int] = {}
    if mode == "filename":
        for doc in corpus.documents:
            m = _CV_PREFIX.match(doc.id)
            if not m:
                raise DataError(
                    f"document id {doc.id!r} lacks the cvNNN naming convention; "
                    "use seeded fold assignment instead"
                )
            fold = int(m.group(1)) // 200
            if not 0 <= fold < N_FOLDS:
                raise DataError(
                    f"document id {doc.id!r} maps outside folds 0..4; "
                    "use seeded fold assignment instead"
                )
            folds[doc.id] = fold
    elif mode == "seeded":
        rng = random.Random(seed)
        for label in Label:
            ids = sorted(d.id for d in corpus.by_label(label))
            rng.shuffle(ids)
            for i, doc_id in enumerate(ids):
                folds[doc_id] = i % N_FOLDS
    else:
        raise ConfigError(f"unknown fold mode {mode!r} (expected 'filename' or 'seeded')")

    _check_balance(corpus, folds)
    return Corpus(documents=list(corpus.documents), folds=folds)


def compute_stats(corpus: Corpus) -> CorpusStats:
    """Per-label sentence/word/distinct-word counts over the normalized token stream.

    Counting happens after contraction expansion and punctuation stripping
    (one line = one sentence, the preprocessing tokenizer's words) but before
    tagging and feature extraction. Lines left empty by stripping are dropped.
    """
    from .preprocess import tokenize

    per_label: dict[Label, LabelStats] = {}
    for label in Label:
        sentences = 0
        words = 0
        distinct: set[str] = set()
        for doc in corpus.by_label(label):
            for line in doc.text.splitlines():
                tokens = tokenize(line)
                if not tokens:
                    continue
                sentences += 1
                words += len(tokens)
                distinct.update(tokens)
        per_label[label] = LabelStats(sentences=sentences, words=words, distinct=len(distinct))
    return CorpusStats(per_label=per_label)
