"""Acceptance criteria, one test per criterion.

Criteria 1-4 need the 2000-document movie-review corpus (point
$POLARITY_DATA_DIR at the directory holding pos/ and neg/); criterion 4
additionally needs the subjectivity clues file ($POLARITY_LEXICON). They
skip, with the reason shown, when those resources are absent. Criteria 5-7
are self-contained and always run.
"""

import json
import math
import shutil
import time
from collections import Counter

import pytest

from conftest import (
    NEGATIVE_WORDS,
    POSITIVE_WORDS,
    real_corpus_root,
    real_lexicon_path,
    requires_dataset,
    requires_lexicon,
    family_matrix,
    labeled_matrix,
    to_scipy,
    shuffle_labels,
    write_synthetic_corpus,
)
from polarity.cli import main
from polarity.corpus import Label, assign_folds, compute_stats, load_corpus
from polarity.evaluation import (
    ExperimentConfig,
    FeaturePipeline,
    run_experiment,
)
from polarity.features import FeatureFamily
from polarity.lexicon import (
    LexiconEntry,
    Polarity,
    SubjectivityLexicon,
    load_lexicon,
    load_transitions,
)
from polarity.linear_svm import predict_svm, train_svm
from polarity.naive_bayes import predict_nb, train_nb
from polarity.corpus import Corpus, RawDocument

TABLE1 = {
    Label.POSITIVE: {"sentences": 31944, "words": 614970, "distinct": 35140},
    Label.NEGATIVE: {"sentences": 33033, "words": 687664, "distinct": 37298},
}


@pytest.fixture(scope="session")
def real_runner():
    """Loads the real corpus once and memoizes experiment cells across criteria."""
    corpus = assign_folds(load_corpus(real_corpus_root()))
    lexicon = load_lexicon(real_lexicon_path()) if real_lexicon_path() else None
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=load_transitions())
    cache = {}

    def run(features, rep, clf, negation=False):
        key = (features, rep, clf, negation)
        if key not in cache:
            config = ExperimentConfig(
                features=features, representation=rep, classifier=clf,
                negation=negation, prune_scope="corpus", min_count=5,
            )
            cache[key] = run_experiment(pipeline, config)
        return cache[key]

    run.corpus = corpus
    return run


@requires_dataset
def test_criterion1_corpus_fidelity():
    start = time.perf_counter()
    corpus = load_corpus(real_corpus_root())
    stats = compute_stats(corpus)
    elapsed = time.perf_counter() - start

    assert len(corpus.by_label(Label.POSITIVE)) == 1000
    assert len(corpus.by_label(Label.NEGATIVE)) == 1000
    for label, expected in TABLE1.items():
        got = stats.per_label[label]
        for field, target in expected.items():
            value = getattr(got, field)
            assert abs(value - target) <= 0.02 * target, (
                f"{label.value} {field}: {value} vs published {target} (>2% off)"
            )
    assert elapsed < 10.0, f"stats took {elapsed:.1f}s (budget 10s)"


@requires_dataset
def test_criterion2_headline_accuracies(real_runner):
    start = time.perf_counter()
    svm_presence = real_runner("unigram", "presence", "svm").mean_accuracy
    nb_presence = real_runner("unigram", "presence", "nb").mean_accuracy
    svm_frequency = real_runner("unigram", "frequency", "svm").mean_accuracy
    nb_frequency = real_runner("unigram", "frequency", "nb").mean_accuracy
    elapsed = time.perf_counter() - start

    assert abs(svm_presence - 0.859) <= 0.03, f"svm presence {svm_presence:.3f} vs 0.859"
    assert abs(nb_presence - 0.807) <= 0.03, f"nb presence {nb_presence:.3f} vs 0.807"
    assert abs(svm_frequency - 0.747) <= 0.04, f"svm frequency {svm_frequency:.3f} vs 0.747"
    assert abs(nb_frequency - 0.677) <= 0.04, f"nb frequency {nb_frequency:.3f} vs 0.677"
    assert elapsed < 900.0, f"headline runs took {elapsed:.0f}s (budget 15 min)"


@requires_dataset
def test_criterion3_ordering_properties(real_runner):
    # (a) the margin classifier dominates under presence on plain n-grams
    for features in ("unigram", "bigram", "trigram"):
        svm = real_runner(features, "presence", "svm").mean_accuracy
        nb = real_runner(features, "presence", "nb").mean_accuracy
        assert svm >= nb, f"{features}: svm presence {svm:.3f} < nb presence {nb:.3f}"
    # (b) presence beats frequency for unigrams under both classifiers
    for clf in ("nb", "svm"):
        presence = real_runner("unigram", "presence", clf).mean_accuracy
        frequency = real_runner("unigram", "frequency", clf).mean_accuracy
        assert presence >= frequency, f"{clf}: presence {presence:.3f} < frequency {frequency:.3f}"
    # (c) adjectives beat adjective/adverb trigrams everywhere
    for clf in ("nb", "svm"):
        for rep in ("presence", "frequency"):
            adj = real_runner("adj", rep, clf).mean_accuracy
            aat = real_runner("3adjadv", rep, clf).mean_accuracy
            assert adj > aat, f"{clf}/{rep}: adj {adj:.3f} <= 3adjadv {aat:.3f}"


@requires_dataset
@requires_lexicon
def test_criterion4_combination_boost(real_runner):
    unigram = real_runner("unigram", "presence", "svm").mean_accuracy
    unigram_pb = real_runner("unigram+pb", "presence", "svm").mean_accuracy
    assert unigram_pb >= unigram - 0.005, (
        f"unigram+pb {unigram_pb:.3f} < unigram {unigram:.3f} - 0.005"
    )
    base = real_runner("3adjadv", "presence", "svm").mean_accuracy
    boosted = real_runner("3adjadv+pb", "presence", "svm").mean_accuracy
    assert boosted >= base + 0.01, f"3adjadv+pb {boosted:.3f} < 3adjadv {base:.3f} + 0.01"


def _bag(family, text, lexicon, transitions=None):
    """The one document's row of *family*'s matrix, as a bag of feature strings."""
    corpus = Corpus(documents=[RawDocument(id="g", label=Label.POSITIVE, text=text)])
    pipeline = FeaturePipeline(corpus, lexicon=lexicon, transitions=transitions)
    matrix = family_matrix(pipeline, family)
    row = to_scipy(matrix.counts)[0]
    return Counter({matrix.features[j]: int(count) for j, count in zip(row.indices, row.data)})


def test_criterion5_worked_example_goldens():
    # polarized bigrams around one positive verb, exactly the four quoted features
    lex = SubjectivityLexicon(entries={"recommend": [LexiconEntry(Polarity.POS, "verb")]})
    bag = _bag(FeatureFamily.POLARIZED_BIGRAM, "I highly recommend this movie", lex)
    assert bag == Counter({
        "pb:highly_POS/VB": 1, "pb:RB_POS/VB": 1, "pb:POS/VB_this": 1, "pb:POS/VB_DT": 1,
    })

    # transition pairing with every content word, exactly the four quoted features
    lex = SubjectivityLexicon(entries={"famous": [LexiconEntry(Polarity.POS, "adj")]})
    bag = _bag(FeatureFamily.TRANSITION, "Although the director is famous", lex,
               load_transitions())
    assert bag == Counter({
        "tr:although_director": 1, "tr:although_is": 1,
        "tr:although_famous": 1, "tr:although_POS/JJ": 1,
    })


def _sv(pairs, label=None):
    return sorted(pairs), label


def test_criterion6_classifier_oracles(tmp_path):
    # Naive Bayes posteriors on the four-document toy corpus, add-one by hand.
    # vocab: bad=0, dull=1, fun=2, good=3
    train = [_sv([(3, 1)], 1), _sv([(3, 1), (2, 1)], 1),
             _sv([(0, 1)], -1), _sv([(0, 1), (1, 1)], -1)]
    model = train_nb(*labeled_matrix(train, 4))
    assert math.exp(model.feature_log_likelihood[1][3]) == pytest.approx(3 / 7, abs=1e-9)
    assert math.exp(model.feature_log_likelihood[1][2]) == pytest.approx(2 / 7, abs=1e-9)
    assert math.exp(model.feature_log_likelihood[-1][3]) == pytest.approx(1 / 7, abs=1e-9)
    (label,), (log_odds,) = predict_nb(model, labeled_matrix([_sv([(3, 1)])])[0])
    posterior = 1.0 / (1.0 + math.exp(-log_odds))
    assert label == 1
    assert posterior == pytest.approx((0.5 * 3 / 7) / (0.5 * 3 / 7 + 0.5 * 1 / 7), abs=1e-9)

    # Linear SVM on the symmetric separable pair: analytic separator + KKT.
    tol = 1e-3
    X, y = labeled_matrix([_sv([(0, 2.0)], 1), _sv([(0, -2.0)], -1)], 2)
    svm = train_svm(X, y, C=1.0, tol=tol)
    assert svm.weights[0] == pytest.approx(0.5, abs=tol)
    assert svm.bias == pytest.approx(0.0, abs=tol)
    for alpha, margin in zip(svm.meta.alphas, y * predict_svm(svm, X)[1]):
        if alpha <= 1e-9:
            assert margin >= 1 - tol
        elif alpha >= svm.C - 1e-9:
            assert margin <= 1 + tol
        else:
            assert abs(margin - 1.0) <= tol

    # Label-shuffled control sits at chance within +/-0.04.
    root = real_corpus_root()
    if root is None:
        root = write_synthetic_corpus(tmp_path / "control", docs_per_label=500, seed=11)
    corpus = assign_folds(load_corpus(root))
    config = ExperimentConfig(features="unigram", representation="presence",
                              classifier="nb", prune_scope="corpus", min_count=5)
    control = run_experiment(FeaturePipeline(shuffle_labels(corpus, seed=2)), config)
    assert abs(control.mean_accuracy - 0.5) <= 0.04, (
        f"shuffled-label control at {control.mean_accuracy:.3f}"
    )


def test_criterion7_reproduce_determinism(tmp_path):
    root = real_corpus_root()
    if root is not None:
        # a seeded 50-per-label subsample keeps two full reproduce runs tractable
        corpus_dir = tmp_path / "subsample"
        for label in ("pos", "neg"):
            (corpus_dir / label).mkdir(parents=True)
            for path in sorted((root / label).glob("*.txt"))[:50]:
                shutil.copy(path, corpus_dir / label / path.name)
    else:
        corpus_dir = write_synthetic_corpus(tmp_path / "synth", docs_per_label=50, seed=17)

    lexicon_path = real_lexicon_path()
    if lexicon_path is None:
        lexicon_path = tmp_path / "lexicon.tsv"
        rows = [f"{w}\tPOS" for w in POSITIVE_WORDS] + [f"{w}\tNEG" for w in NEGATIVE_WORDS]
        lexicon_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        lexicon_format = "tsv"
    else:
        lexicon_format = "tff"

    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        code = main([
            "reproduce", "--corpus", str(corpus_dir), "--out-dir", str(out_dir),
            "--lexicon", str(lexicon_path), "--lexicon-format", lexicon_format,
            "--seed", "1", "--folds", "seeded", "--min-count", "1",
        ])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))})

    assert outputs[0].keys() == outputs[1].keys()
    assert set(outputs[0]) >= {"table2.csv", "unigram_combos.csv", "3adjadv_combos.csv",
                               "deviation.csv"}
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
