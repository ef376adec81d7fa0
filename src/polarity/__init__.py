"""Sentiment polarity classification toolkit.

Nine linguistic feature families over the movie-review corpus, native
Naive Bayes and linear SVM classifiers, and a 5-fold cross-validation
experiment harness.
"""

__version__ = "0.1.0"

from .corpus import Corpus, CorpusStats, Label, RawDocument, assign_folds, compute_stats, load_corpus
from .errors import ConfigError, DataError, PolarityError
from .evaluation import (
    EvalReport,
    ExperimentConfig,
    FeaturePipeline,
    emit_report,
    run_experiment,
    run_grid,
)
from .features import FeatureFamily, FeatureSpec, parse_feature_spec
from .lexicon import (
    Polarity,
    SubjectivityLexicon,
    TransitionList,
    load_lexicon,
    load_transitions,
)
from .linear_svm import LinearSvmModel, default_C, gram_matrix, predict_svm, train_svm
from .naive_bayes import NaiveBayesModel, predict_nb, train_nb
from .preprocess import expand_contractions
from .tagging import PretaggedReader, RuleTagger, get_tagger
from .vectorize import (
    CsrMatrix,
    FeatureMatrix,
    Representation,
    column_mask,
    read_svmlight,
    represent,
    write_svmlight,
)
