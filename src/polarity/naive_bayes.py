"""Multinomial Naive Bayes with add-one smoothing.

Scores a document by log P(c) + sum of value * log P(f|c) over its stored
features; the same trainer serves presence runs (binarized values) and
frequency runs (raw counts). All arithmetic stays in log space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite, log
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .vectorize import CsrMatrix, check_training_labels, fit_columns, model_path, read_json_object

LABELS = (1, -1)

MODEL_FORMAT = "polarity-nb/1"


@dataclass
class NaiveBayesModel:
    class_log_prior: dict[int, float]
    feature_log_likelihood: dict[int, np.ndarray]
    vocab_size: int

    def save(self, path: str | Path) -> Path:
        """Write the model to ``model_path(path)``, and return that path."""
        path = model_path(path)
        payload = {
            "format": MODEL_FORMAT,
            "vocab_size": self.vocab_size,
            "class_log_prior": {str(c): p for c, p in self.class_log_prior.items()},
            "feature_log_likelihood": {
                str(c): arr.tolist() for c, arr in self.feature_log_likelihood.items()
            },
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "NaiveBayesModel":
        path = model_path(path)
        return cls.from_payload(read_json_object(path), path)

    @classmethod
    def from_payload(cls, payload: dict, path: str | Path) -> "NaiveBayesModel":
        """The model a parsed model file holds; *path* names it in errors."""
        if payload.get("format") != MODEL_FORMAT:
            raise DataError(f"{path}: not a {MODEL_FORMAT} model file")
        try:
            model = cls(
                class_log_prior={int(c): float(p) for c, p in payload["class_log_prior"].items()},
                feature_log_likelihood={
                    int(c): np.asarray(arr, dtype=np.float64)
                    for c, arr in payload["feature_log_likelihood"].items()
                },
                vocab_size=int(payload["vocab_size"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise DataError(f"{path}: malformed {MODEL_FORMAT} model file ({exc!r})") from None
        prior, loglik = model.class_log_prior, model.feature_log_likelihood
        if set(prior) != set(LABELS) or not all(
                c in loglik and loglik[c].shape == (model.vocab_size,) for c in LABELS):
            raise DataError(f"{path}: model needs a prior and {model.vocab_size} "
                            f"likelihoods for each of the classes {LABELS}")
        if not all(isfinite(prior[c]) and np.isfinite(loglik[c]).all() for c in LABELS):
            raise DataError(f"{path}: priors and likelihoods must be finite")
        return model


def train_nb(X: CsrMatrix, y: Sequence[int]) -> NaiveBayesModel:
    """Fit priors and smoothed per-class feature likelihoods from rows of *X*.

    *y* must pass ``check_training_labels``. P(c) is the class document fraction;
    P(f|c) = (count(f, c) + 1) / (total feature mass in c + V), with V the
    number of columns. Presence rows therefore contribute binarized counts,
    frequency rows raw ones. A negative value or a class mass that overflows
    is a DataError: neither has a logarithm.
    """
    check_training_labels(y)
    y = np.asarray(y)

    if (X.data < 0).any():
        raise DataError("naive Bayes needs feature values of 0 or more")
    vocab_size = X.shape[1]
    prior = {c: log(int(np.sum(y == c)) / len(y)) for c in LABELS}
    likelihood = {}
    for c in LABELS:
        if vocab_size == 0:
            likelihood[c] = np.zeros(0, dtype=np.float64)
            continue
        # Per-feature mass in class c, summed over the class's own entries
        # in CSR order, one class at a time.
        in_class = X.select_rows(y == c)
        counts = np.bincount(in_class.indices, in_class.data, minlength=vocab_size)
        with np.errstate(over="ignore"):
            mass = counts.sum()
        if not isfinite(mass):
            raise DataError(f"the feature mass of class {c:+d} overflows")
        likelihood[c] = np.log(counts + 1.0) - log(mass + vocab_size)
    return NaiveBayesModel(class_log_prior=prior, feature_log_likelihood=likelihood,
                           vocab_size=vocab_size)


def predict_nb(model: NaiveBayesModel, X: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(labels, log-odds) per row of *X*; a tie goes to the positive class.

    Columns beyond the model's vocabulary are ignored.
    """
    X = fit_columns(X, model.vocab_size)
    positive, negative = (model.class_log_prior[c] + X.matmul(model.feature_log_likelihood[c])
                          for c in LABELS)
    log_odds = positive - negative
    return np.where(log_odds >= 0, 1, -1), log_odds
