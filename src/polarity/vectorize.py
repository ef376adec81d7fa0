"""Sparse count matrices, vocabulary pruning as a column mask, and the file formats.

Feature data lives in CSR matrices only, with one row per document and one
column per feature. A FeatureMatrix keeps its columns in lexicographic
feature order, so after pruning (a boolean column mask, which keeps that
order) a column index is the feature's vocabulary id. ``build_vocabulary``
and ``vectorize`` (one bag to a one-row matrix) are the bag-at-a-time
reference the matrix path is tested against.

File formats:
  vectors   svmlight-compatible text, one document per line:
            ``<label> <id>:<value> ...`` with ascending 1-based ids,
            ``+1``/``-1`` labels (``0`` marks an unlabeled vector) and
            ``#``-prefixed comment lines.
  vocabulary ``feature<TAB>id`` lines, ids 0-based as used in memory.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .features import FeatureBag

# Largest 1-based feature id read_svmlight accepts. A matrix is as wide as its
# largest id, and training allocates dense per-feature arrays of that width,
# so one stray huge id would ask for terabytes. The bound is 7x the 2.37M
# features that ``extract`` writes for all nine families with --min-count 1
# on the 2000-document seed-0 corpus of perfbench/corpusgen.py (Table-1
# scale), and a float64 array of that width is 128 MiB.
MAX_FEATURE_ID = 1 << 24


class Representation(Enum):
    PRESENCE = "presence"
    FREQUENCY = "frequency"


@dataclass
class Vocabulary:
    """Dense 0-based feature ids, lexicographically assigned."""

    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.index)


def build_vocabulary(train_bags: Iterable[FeatureBag], min_count: int = 5) -> Vocabulary:
    """Keep every feature whose summed count over *train_bags* is >= min_count.

    "Lower than 5" is the removal rule, so a feature seen exactly 5 times
    stays in.
    """
    totals: Counter = Counter()
    for bag in train_bags:
        totals.update(bag)
    kept = sorted(f for f, c in totals.items() if c >= min_count)
    if not kept:
        raise DataError(f"no feature reaches the count threshold {min_count}; vocabulary is empty")
    return Vocabulary(index={f: i for i, f in enumerate(kept)})


def vectorize(bag: FeatureBag, vocab: Vocabulary, rep: Representation) -> sp.csr_matrix:
    """Map one bag to a ``1 x len(vocab)`` CSR row with ascending column ids;
    out-of-vocabulary features drop silently."""
    pairs = sorted((vocab.index[f], c) for f, c in bag.items() if f in vocab.index)
    ids = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    if rep is Representation.PRESENCE:
        values = np.ones(len(pairs), dtype=np.float64)
    else:
        values = np.fromiter((p[1] for p in pairs), dtype=np.float64, count=len(pairs))
    return sp.csr_matrix((values, ids, np.array([0, len(pairs)], dtype=np.int64)),
                         shape=(1, len(vocab)))


@dataclass
class FeatureMatrix:
    """Per-document feature counts; column j holds the count of ``features[j]``.

    ``features`` is sorted and ``counts`` is CSR with sorted column indices in
    every row.
    """

    counts: sp.csr_matrix
    features: list[str]

    @classmethod
    def from_bags(cls, bags: Sequence[FeatureBag]) -> "FeatureMatrix":
        column = dict.fromkeys(chain.from_iterable(bags))
        features = sorted(column)
        column.update(zip(features, range(len(features))))
        indptr = np.zeros(len(bags) + 1, dtype=np.int64)
        np.cumsum([len(bag) for bag in bags], out=indptr[1:])
        nnz = int(indptr[-1])
        indices = np.fromiter(map(column.__getitem__, chain.from_iterable(bags)),
                              dtype=np.int64, count=nnz)
        data = np.fromiter(chain.from_iterable(bag.values() for bag in bags),
                           dtype=np.float64, count=nnz)
        counts = sp.csr_matrix((data, indices, indptr), shape=(len(bags), len(features)))
        counts.has_sorted_indices = False
        counts.sort_indices()
        return cls(counts=counts, features=features)

    @classmethod
    def from_occurrences(cls, indptr: np.ndarray, columns: np.ndarray,
                         features: list[str]) -> "FeatureMatrix":
        """Row i counts each column among ``columns[indptr[i]:indptr[i + 1]]``;
        *features* names the columns, in sorted order."""
        counts = sp.csr_matrix((np.ones(len(columns)), columns, indptr),
                               shape=(len(indptr) - 1, len(features)))
        counts.sum_duplicates()
        return cls(counts=counts, features=features)

    @classmethod
    def union(cls, parts: Sequence["FeatureMatrix"]) -> "FeatureMatrix":
        """Side-by-side columns of *parts*, in lexicographic feature order.

        Every feature of a family starts with that family's namespace prefix
        and a colon, so one family's sorted features form one contiguous run
        of the merged order: putting the parts side by side, ordered by their
        first feature, is the lexicographic column permutation.
        """
        blocks = sorted((part for part in parts if part.features),
                        key=lambda part: part.features[0]) or list(parts[:1])
        if len(blocks) == 1:
            return blocks[0]
        for left, right in zip(blocks, blocks[1:]):
            if not left.features[-1] < right.features[0]:
                raise ValueError(f"feature runs overlap: {left.features[-1]!r} "
                                 f">= {right.features[0]!r}")
        counts = sp.hstack([block.counts for block in blocks], format="csr")
        counts.sort_indices()
        return cls(counts=counts, features=[f for block in blocks for f in block.features])


def column_mask(counts: sp.csr_matrix, min_count: int) -> np.ndarray:
    """Columns whose count summed over the rows of *counts* is >= min_count.

    The column-mask form of :func:`build_vocabulary`: pass the training rows
    only for fold-scope pruning. A column never seen in those rows is dropped
    even when min_count <= 0.
    """
    totals = np.bincount(counts.indices, weights=counts.data, minlength=counts.shape[1])
    mask = (totals >= min_count) & (totals > 0)
    if not mask.any():
        raise DataError(f"no feature reaches the count threshold {min_count}; vocabulary is empty")
    return mask


def represent(counts: sp.csr_matrix, rep: Representation) -> sp.csr_matrix:
    """Frequency keeps the counts; presence binarizes a copy."""
    if rep is Representation.FREQUENCY:
        return counts
    binary = counts.copy()
    binary.data[:] = 1.0
    return binary


def fit_columns(X: sp.csr_matrix, width: int) -> sp.csr_matrix:
    """Drop columns at or beyond *width*, or pad with empty ones up to it."""
    if X.shape[1] > width:
        return X[:, :width]
    if X.shape[1] < width:
        return sp.csr_matrix((X.data, X.indices, X.indptr), shape=(X.shape[0], width))
    return X


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _format_label(label: int) -> str:
    if label == 0:
        return "0"
    return "+1" if label > 0 else "-1"


def write_svmlight(X: sp.csr_matrix, path: str | Path, labels: Sequence[int]) -> None:
    """One line per row of *X*; a label of 0 marks an unlabeled row."""
    X = X.tocsr()
    X.sort_indices()
    bounds = X.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in enumerate(labels):
            lo, hi = bounds[row], bounds[row + 1]
            parts = [_format_label(label)]
            parts += [f"{i + 1}:{_format_value(v)}"
                      for i, v in zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist())]
            fh.write(" ".join(parts) + "\n")


def _read_lines(path: str | Path) -> list[str]:
    """All lines of a UTF-8 input file; a missing file is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return list(fh)
    except FileNotFoundError:
        raise ConfigError(f"input file {path} not found") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_json_object(path: str | Path) -> dict:
    """A JSON file whose top level is an object, such as a model file."""
    text = "".join(_read_lines(path))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not JSON ({exc.msg} at line {exc.lineno})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    return payload


def read_svmlight(path: str | Path) -> tuple[sp.csr_matrix, np.ndarray]:
    """(matrix, labels): labels are +1/-1, or 0 for an unlabeled line.

    The matrix has one column per id up to the largest id in the file; an
    id above MAX_FEATURE_ID is a DataError.
    """
    labels: list[int] = []
    indptr = array("q", [0])
    ids = array("q")
    values = array("d")
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            raw_label = int(fields[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad label {fields[0]!r}") from None
        labels.append(0 if raw_label == 0 else (1 if raw_label > 0 else -1))
        prev = 0
        for field in fields[1:]:
            id_str, _, val_str = field.partition(":")
            try:
                fid = int(id_str)
                val = float(val_str)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad pair {field!r}") from None
            if not math.isfinite(val):
                raise DataError(f"{path}:{lineno}: value in {field!r} is not finite")
            if fid <= prev:
                raise DataError(f"{path}:{lineno}: ids must be ascending and 1-based")
            if fid > MAX_FEATURE_ID:
                raise DataError(f"{path}:{lineno}: feature id {fid} exceeds the limit "
                                f"of {MAX_FEATURE_ID}")
            prev = fid
            if val != 0.0:
                ids.append(fid - 1)
                values.append(val)
        indptr.append(len(ids))
    width = max(ids) + 1 if ids else 0
    X = sp.csr_matrix((np.frombuffer(values, dtype=np.float64),
                       np.frombuffer(ids, dtype=np.int64),
                       np.frombuffer(indptr, dtype=np.int64)), shape=(len(labels), width))
    return X, np.array(labels, dtype=np.int64)


def write_vocabulary(features: Iterable[str], path: str | Path) -> None:
    """One ``feature<TAB>id`` line per feature, ids counting from 0."""
    with open(path, "w", encoding="utf-8") as fh:
        for fid, feature in enumerate(features):
            fh.write(f"{feature}\t{fid}\n")
