"""Seeded synthetic movie-review corpus and TSV subjectivity lexicon.

The generated tree has the layout of the Pang & Lee polarity dataset v2.0
(``pos/`` and ``neg/`` directories of ``cvNNN_MMMMM.txt`` files, one sentence
per line, lowercase, punctuation split off) plus ``lexicon.tsv`` in the
``word<TAB>polarity<TAB>pos`` format that ``--lexicon-format tsv`` reads.

At 2000 documents the per-label sentence, word and distinct-word counts that
``polarity stats`` reports are within 10% of the published Table 1. The word
stream is Zipfian filler plus planted opinion material whose strength is
tuned so that every Table-2 row classifies between chance and perfect:

* lexicon polarity words that the built-in ``RuleTagger`` tags JJ/JJR/JJS,
  RB or VB*, used with only a weak label skew and often negated
  ("not bad" in a positive review), so polarized unigrams stay weak while
  polarized bigrams see the negation context;
* label-leaning adjectives, adverbs and nouns that are not in the lexicon,
  with repeating neighbours so n-gram and adjective/adverb rows learn;
* label-leaning multi-word phrases for the bigram and trigram rows;
* a share of "contrarian" reviews whose opinion material leans the other way.

The text also carries the preprocessing edge cases the program handles:
joined (``isn't``) and split (``isn ' t``) contractions, ``not`` scopes ended
by ``!``/``?`` inside a line, multi-word transition phrases, and a few files
that are latin-1 rather than UTF-8.

The same ``(seed, n_docs)`` gives the same bytes. Run directly to write a
corpus: ``python3 perfbench/corpusgen.py OUT_DIR --seed 0 --docs 2000``.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import random
from pathlib import Path

FOLDS = 5

# Reviews whose opinion material leans against their label.
CONTRARIAN_SHARE = 0.12

# Per-label targets from the published Table 1 (1000 documents per label).
SENTENCES_PER_DOC = {"pos": 31.9, "neg": 33.0}
WORDS_PER_SENTENCE = {"pos": 19.25, "neg": 20.8}

_FUNCTION_WORDS = (
    "the a and of to is in it that this as with for his her on be by an are "
    "was he she they but not at film from have one all who there so what more "
    "its out about up like their has into just which or than can when only some "
    "time even if no her him them been will would i you we my me do most other "
    "also well does could how after much where then two while first because "
    "over through off way before any never being down too still both those "
    "these each every few such again why here now very really"
).split()

_TAGGED_NOUNS = (
    "movie story plot character scene director actor actress script ending "
    "audience performance cast music role picture sequence camera screen "
    "dialogue comedy drama thriller villain hero studio budget summer year "
    "moment effects action romance man woman life world family friend"
).split()

# Known to the built-in tagger as JJ/JJR/JJS, RB or VB; polarity as in MPQA.
_LEX_ADJ_POS = ("good great best better fine nice excellent perfect brilliant superb "
                "solid strong fresh smart clever sweet rich compelling charming decent "
                "classic funny hilarious interesting entertaining amazing stunning "
                "original happy clear").split()
_LEX_ADJ_NEG = ("bad worst worse awful terrible poor weak cheap flat predictable stale "
                "silly stupid dumb lame dull boring mediocre bland annoying disappointing "
                "empty slow obvious sad wrong").split()
_LEX_VERB_POS = "love like enjoy recommend impress amaze entertain deserve win laugh".split()
_LEX_VERB_NEG = "hate suck stink bore disappoint annoy waste fail avoid lose".split()
_LEX_ADV_POS = "well".split()
_LEX_ADV_NEG = "barely hardly".split()

_INTENSIFIERS = "very really quite so too pretty totally completely".split()
_COPULAS = "is was seems are".split()

# (weight, phrase) for transition openers; multi-word phrases match as units.
_TRANSITIONS = [
    (40, "but"), (8, "however"), (6, "though"), (5, "yet"), (6, "while"),
    (6, "still"), (3, "on the other hand"), (2, "in spite of"), (2, "even so"),
    (2, "instead"), (2, "rather"), (2, "nevertheless"), (1, "in contrast"),
    (1, "except that"), (2, "unless"), (2, "despite"), (1, "whereas"),
]

_CONTRACTED = ["isn't", "doesn't", "didn't", "wasn't", "can't", "don't"]

_LATIN1_WORDS = ["café", "naïve", "déjà", "señor", "fiancée", "protégé"]

_ONSETS = ("b c d f g h j k l m n p r s t v w z br cr dr fl gr pl pr sl st tr "
           "ch sh th bl cl gl sp sk sm sn qu").split()
_VOWELS = "a e i o u ai ea ee oo ou ie io".split()
_CODAS = ("", "", "", "n", "r", "l", "m", "t", "k", "x", "nd", "nt", "rk", "st",
          "mp", "ng", "rn", "lt")

# Suffixes the built-in tagger reads: JJ, RB, VBD/VBN, VBG, NNS.
_ADJ_SUFFIXES = ("ful", "ous", "ive", "able", "less", "ish")


class _Words:
    """Pronounceable pseudo-words, distinct from each other and from real ones."""

    def __init__(self, rng: random.Random, reserved: set[str]):
        self.rng = rng
        self.used = set(reserved)

    def stem(self) -> str:
        while True:
            parts = []
            for _ in range(self.rng.choice((1, 2, 2, 3))):
                parts.append(self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS))
            word = "".join(parts) + self.rng.choice(_CODAS)
            # Keep the tagger's suffix rules from reading plain stems.
            if word.endswith(("ly", "ing", "ed", "s") + _ADJ_SUFFIXES):
                continue
            if len(word) >= 4:
                return word

    def make(self, kind: str) -> str:
        while True:
            base = self.stem()
            if kind == "noun":
                word = base
            elif kind == "nouns":
                word = base + "s"
            elif kind == "adj":
                word = base + self.rng.choice(_ADJ_SUFFIXES)
            elif kind == "adv":
                word = base + self.rng.choice(_ADJ_SUFFIXES[:3]) + "ly"
            elif kind == "ved":
                word = base + "ed"
            elif kind == "ving":
                word = base + "ing"
            else:
                raise ValueError(kind)
            if word not in self.used:
                self.used.add(word)
                return word


class _Sampler:
    def __init__(self, items, weights):
        self.items = list(items)
        self.cum = list(itertools.accumulate(weights))
        self.total = self.cum[-1]

    def draw(self, rng: random.Random):
        return self.items[bisect.bisect_right(self.cum, rng.random() * self.total)]


class _Model:
    """Vocabulary, lexicon and opinion material drawn once per seed."""

    def __init__(self, rng: random.Random):
        reserved = set(_FUNCTION_WORDS) | set(_TAGGED_NOUNS) | set(_INTENSIFIERS)
        reserved |= set(_LEX_ADJ_POS + _LEX_ADJ_NEG + _LEX_VERB_POS + _LEX_VERB_NEG)
        words = _Words(rng, reserved)

        # Zipfian filler: function words on top, then content pseudo-words.
        kinds = ["noun"] * 50 + ["nouns"] * 12 + ["adj"] * 10 + ["adv"] * 4 + \
                ["ved"] * 12 + ["ving"] * 7 + ["name"] * 5
        content = []
        for _ in range(47800):
            kind = rng.choice(kinds)
            content.append(words.make("noun") if kind == "name" else words.make(kind))
        head = _FUNCTION_WORDS + _TAGGED_NOUNS
        ranked = head + content
        weights = [1.0 / (r + 3.0) ** 1.14 for r in range(len(ranked))]
        self.filler = _Sampler(ranked, weights)

        # Synthetic lexicon words (tagged by suffix) used as opinion material.
        self.lex = {"pos": {"adj": list(_LEX_ADJ_POS), "verb": list(_LEX_VERB_POS),
                            "adv": list(_LEX_ADV_POS)},
                    "neg": {"adj": list(_LEX_ADJ_NEG), "verb": list(_LEX_VERB_NEG),
                            "adv": list(_LEX_ADV_NEG)}}
        for pol in ("pos", "neg"):
            self.lex[pol]["adj"] += [words.make("adj") for _ in range(40)]
            self.lex[pol]["adv"] += [words.make("adv") for _ in range(12)]
            self.lex[pol]["verb"] += [words.make("ved") for _ in range(15)]
        # Label-leaning material that the lexicon does not know.
        self.lean = {}
        for pol in ("pos", "neg"):
            self.lean[pol] = {
                "adj": [words.make("adj") for _ in range(60)],
                "adv": [words.make("adv") for _ in range(20)],
                "noun": [words.make("noun") for _ in range(40)],
                "phrase": [self._phrase(rng, words) for _ in range(30)],
            }
        self.lean_adj = {pol: _Sampler(self.lean[pol]["adj"], [1.0 / (r + 2.0) for r in range(60)])
                         for pol in ("pos", "neg")}

        # The lexicon: opinion words, filler words it happens to cover, and
        # entries for words the corpus never uses.
        rows = []
        for pol in ("pos", "neg"):
            for word in self.lex[pol]["adj"]:
                rows.append((word, pol, "adj"))
            for word in self.lex[pol]["adv"]:
                rows.append((word, pol, "adverb"))
            for word in self.lex[pol]["verb"]:
                rows.append((word, pol, "verb"))
        for word in rng.sample(content[:4000], 300):
            rows.append((word, rng.choice(("pos", "neg")), rng.choice(("anypos", "noun"))))
        for word in rng.sample(content[:4000], 60):
            rows.append((word, rng.choice(("neutral", "both")), "anypos"))
        rows += [("like", "pos", "verb"), ("like", "neutral", "adj"),
                 ("well", "pos", "adverb"), ("well", "neutral", "noun")]
        for _ in range(3000):
            rows.append((words.make(rng.choice(("adj", "noun", "ved"))),
                         rng.choice(("pos", "neg", "neg")), rng.choice(("adj", "noun", "verb", "anypos"))))
        self.lexicon_rows = rows

    @staticmethod
    def _phrase(rng: random.Random, words: _Words) -> list[str]:
        shape = rng.choice(("fn", "fan", "anf", "nfn", "vfa"))
        out = []
        for ch in shape:
            if ch == "f":
                out.append(rng.choice(_FUNCTION_WORDS[:40]))
            elif ch == "a":
                out.append(words.make("adj"))
            elif ch == "v":
                out.append(words.make("ved"))
            else:
                out.append(words.make("noun"))
        return out


_TRANSITION_SAMPLER = _Sampler([p for _, p in _TRANSITIONS], [w for w, _ in _TRANSITIONS])


def _opinion(model: _Model, rng: random.Random, lean: str) -> list[str]:
    """One planted opinion construction expressing sentiment *lean*."""
    other = "neg" if lean == "pos" else "pos"
    roll = rng.random()
    if roll < 0.30:
        # Lexicon word with weak skew; negated, it expresses the opposite.
        if rng.random() < 0.30:
            word = rng.choice(model.lex[other]["adj"])
            if rng.random() < 0.3:
                return [rng.choice(_COPULAS), "not", rng.choice(_INTENSIFIERS[:3]), word]
            return [rng.choice(_COPULAS), "not", word]
        pol = lean if rng.random() < 0.58 else other
        kind = rng.choice(("adj", "adj", "adj", "verb", "adv"))
        word = rng.choice(model.lex[pol][kind])
        if kind == "adj":
            return [rng.choice(_COPULAS), rng.choice(_INTENSIFIERS), word]
        if kind == "verb":
            return ["i", word, "this", rng.choice(("film", "movie", "one"))]
        return [word, rng.choice(("done", "made", "acted", "written"))]
    pol = lean if rng.random() < 0.80 else other
    pools = model.lean[pol]
    if roll < 0.62:
        adj = model.lean_adj[pol].draw(rng)
        if rng.random() < 0.5:
            return [rng.choice(_INTENSIFIERS), adj]
        return ["the", adj, rng.choice(_TAGGED_NOUNS)]
    if roll < 0.74:
        return [rng.choice(pools["adv"]), rng.choice(pools["adj"][:20])]
    if roll < 0.84:
        return ["the", rng.choice(pools["noun"])]
    return list(rng.choice(pools["phrase"]))


def _sentence(model: _Model, rng: random.Random, length: int, lean: str,
              opinion_rate: float) -> list[str]:
    words = [model.filler.draw(rng) for _ in range(length)]
    if rng.random() < opinion_rate:
        pos = rng.randrange(len(words))
        words[pos:pos + 1] = _opinion(model, rng, lean)
    if rng.random() < 0.06:
        # A contraction, joined or in the split tokenized form.
        joined = rng.choice(_CONTRACTED)
        pos = rng.randrange(len(words))
        if rng.random() < 0.5:
            words[pos:pos] = [joined]
        else:
            words[pos:pos] = [joined[:-2], "'", "t"]
    if rng.random() < 0.25:
        opener = _TRANSITION_SAMPLER.draw(rng)
        words[0:0] = opener.split() + [","]
    elif rng.random() < 0.10:
        words.insert(rng.randrange(len(words)), "but")
    if "not" in words and rng.random() < 0.35:
        # End the negation scope inside the line.
        cut = min(len(words), words.index("not") + rng.randrange(2, 5))
        words.insert(cut, rng.choice(("!", "?")))
    if rng.random() < 0.4:
        words.insert(rng.randrange(1, len(words) + 1), ",")
    roll = rng.random()
    words.append("!" if roll < 0.04 else "?" if roll < 0.07 else ".")
    return words


def _document(model: _Model, rng: random.Random, shape: random.Random, label: str,
              contrarian: bool, latin1: bool) -> str:
    lean = label if not contrarian else ("neg" if label == "pos" else "pos")
    opinion_rate = min(0.9, max(0.05, rng.gauss(0.50, 0.15)))
    n_sent = max(6, round(shape.gauss(SENTENCES_PER_DOC[label], 11.0)))
    lines = []
    for _ in range(n_sent):
        # Planted opinions, openers and contractions add about 1.5 words.
        length = max(3, round(shape.gauss(WORDS_PER_SENTENCE[label] - 1.5, 8.5)))
        words = _sentence(model, rng, length, lean, opinion_rate)
        if latin1 and rng.random() < 0.15:
            words.insert(rng.randrange(len(words)), rng.choice(_LATIN1_WORDS))
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


def generate(out_dir: str | Path, seed: int = 0, n_docs: int = 2000) -> dict:
    """Write ``pos/``, ``neg/`` and ``lexicon.tsv`` under *out_dir*.

    *n_docs* counts both labels and must be a positive multiple of 10 so
    that ``cvNNN // 200`` gives balanced folds. Returns a small summary.
    """
    if n_docs <= 0 or n_docs % (2 * FOLDS):
        raise ValueError(f"n_docs must be a positive multiple of {2 * FOLDS}, got {n_docs}")
    out = Path(out_dir)
    rng = random.Random(f"polarity-synthetic/{seed}")
    # Document and sentence lengths come from a stream of their own that does
    # not depend on the seed, so seeds change the words but not the amount of
    # text, and run times differ between seeds only through content.
    shape = random.Random(f"polarity-synthetic-shape/{n_docs}")
    model = _Model(rng)
    per_label = n_docs // 2
    suffixes = rng.sample(range(10000, 100000), n_docs)
    latin1_files = 0
    for li, label in enumerate(("pos", "neg")):
        sub = out / label
        sub.mkdir(parents=True, exist_ok=True)
        # An exact share, so accuracy differs less between seeds.
        contrarian = set(rng.sample(range(per_label), round(CONTRARIAN_SHARE * per_label)))
        for i in range(per_label):
            cv = i * 1000 // per_label
            doc_id = f"cv{cv:03d}_{suffixes[li * per_label + i]:05d}"
            latin1 = (li * per_label + i) % 97 == 5
            text = _document(model, rng, shape, label, i in contrarian, latin1)
            data = text.encode("latin-1" if latin1 else "utf-8")
            latin1_files += latin1
            (sub / f"{doc_id}.txt").write_bytes(data)
    lines = ["# synthetic subjectivity lexicon: word<TAB>polarity<TAB>pos"]
    lines += [f"{w}\t{p}\t{c}" for w, p, c in model.lexicon_rows]
    (out / "lexicon.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"docs": n_docs, "latin1_files": latin1_files, "lexicon_rows": len(model.lexicon_rows)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--docs", type=int, default=2000)
    args = parser.parse_args(argv)
    print(generate(args.out_dir, args.seed, args.docs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
