"""Sparse count matrices, vocabulary pruning as a column mask, and the file formats.

Feature data lives in CsrMatrix only, a compressed-sparse-row matrix in plain
NumPy arrays, with one row per document and one column per feature. Every
row stores its column indices in ascending order and no explicit zeros. A
FeatureMatrix keeps its columns in lexicographic feature order, so after
pruning (a boolean column mask, which keeps that order) a column index is
the feature's vocabulary id.

The products ``X @ w`` and ``X.T @ v`` of a vector are one ``np.bincount``
over the entries in CSR order: each output sum starts at 0 and adds the
products of its row (or column) in entry order. That is the order of the
classic CSR kernels (``csr_matvec``, ``csc_matvec``), so the results are the
same bits as theirs.

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
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError

# Largest 1-based feature id read_svmlight accepts. A matrix is as wide as its
# largest id, and training allocates dense per-feature arrays of that width,
# so one stray huge id would ask for terabytes. The bound is 7x the 2.37M
# features that ``extract`` writes for all nine families with --min-count 1
# on the 2000-document seed-0 corpus of perfbench/corpusgen.py (Table-1
# scale), and a float64 array of that width is 128 MiB.
MAX_FEATURE_ID = 1 << 24

# Per-token positions, keys and cell numbers below this limit are held in
# int32, half the bytes of int64; larger ones stay int64.
_INT32_LIMIT = 1 << 31


def index_dtype(limit: int) -> type:
    """The integer type for values in ``[0, limit)``: int32 up to _INT32_LIMIT, else int64."""
    return np.int32 if limit <= _INT32_LIMIT else np.int64


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A compressed-sparse-row matrix of float64 values.

    Row i holds the entries ``indptr[i]:indptr[i + 1]`` of ``data`` and
    ``indices``, with ascending column indices and no explicit zeros. The
    arrays are never written after construction, so matrices derived from
    one another may share them.
    """

    data: np.ndarray     # float64, one value per stored entry
    indices: np.ndarray  # int32 column of each entry
    indptr: np.ndarray   # int64, shape[0] + 1 offsets
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, in CSR order."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def select_rows(self, keep: np.ndarray) -> "CsrMatrix":
        """The rows flagged in the boolean mask *keep*, in order."""
        lengths = np.diff(self.indptr)
        entries = np.repeat(keep, lengths)
        indptr = np.concatenate(([0], np.cumsum(lengths[keep])))
        return CsrMatrix(self.data[entries], self.indices[entries], indptr,
                         (len(indptr) - 1, self.shape[1]))

    def select_columns(self, keep: np.ndarray) -> "CsrMatrix":
        """The columns flagged in the boolean mask *keep*, in order."""
        renumbered = (np.cumsum(keep) - 1).astype(np.int32)
        return self._entries(keep[self.indices], renumbered[self.indices], int(keep.sum()))

    def _entries(self, kept: np.ndarray, indices: np.ndarray, width: int) -> "CsrMatrix":
        """The entries flagged in *kept*, with column *indices*, *width* columns wide."""
        indptr = np.concatenate(([0], np.cumsum(kept)))[self.indptr]
        return CsrMatrix(self.data[kept], indices[kept], indptr, (self.shape[0], width))

    def matmul(self, w: np.ndarray) -> np.ndarray:
        """``X @ w`` for a vector *w*."""
        products = self.data * np.asarray(w, dtype=np.float64)[self.indices]
        return np.bincount(self.entry_rows(), products, minlength=self.shape[0])

    def rmatmul(self, v: np.ndarray) -> np.ndarray:
        """``X.T @ v`` for a vector *v*."""
        products = self.data * np.asarray(v, dtype=np.float64)[self.entry_rows()]
        return np.bincount(self.indices, products, minlength=self.shape[1])


class Representation(Enum):
    PRESENCE = "presence"
    FREQUENCY = "frequency"


@dataclass
class FeatureMatrix:
    """Per-document feature counts; column j holds the count of ``features[j]``.

    ``features`` is sorted and ``counts`` is CSR with sorted column indices in
    every row.
    """

    counts: CsrMatrix
    features: list[str]

    @classmethod
    def from_occurrences(cls, indptr: np.ndarray, columns: np.ndarray,
                         features: list[str]) -> "FeatureMatrix":
        """Row i counts each column among ``columns[indptr[i]:indptr[i + 1]]``;
        *features* names the columns, in sorted order."""
        rows, width = len(indptr) - 1, max(len(features), 1)
        dtype = index_dtype(rows * width + 1)  # cells row * width + column, and rows
        cells = np.repeat(np.arange(rows, dtype=dtype), np.diff(indptr))
        cells *= width
        cells += columns
        cells, totals = np.unique(cells, return_counts=True)
        row, column = np.divmod(cells, width)
        counts = CsrMatrix(totals.astype(np.float64), column.astype(np.int32, copy=False),
                           np.searchsorted(row, np.arange(rows + 1, dtype=dtype)),
                           (rows, len(features)))
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
        # Row i of the union is row i of each block in turn, so an entry moves
        # to its row's start in the union plus the lengths of the earlier
        # blocks' rows; ascending blocks keep the column indices ascending.
        mats = [block.counts for block in blocks]
        lengths = np.array([np.diff(m.indptr) for m in mats])
        indptr = np.concatenate(([0], np.cumsum(lengths.sum(axis=0))))
        before = indptr[:-1] + np.cumsum(lengths, axis=0) - lengths  # per block and row
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        offset = 0
        for m, start in zip(mats, before):
            at = np.repeat(start - m.indptr[:-1], np.diff(m.indptr))
            at += np.arange(m.nnz)
            data[at] = m.data
            indices[at] = m.indices + offset
            offset += m.shape[1]
        counts = CsrMatrix(data, indices, indptr, (len(indptr) - 1, offset))
        return cls(counts=counts, features=[f for block in blocks for f in block.features])


def check_min_count(min_count: int) -> None:
    """Raise ConfigError for a count floor below 1."""
    if min_count < 1:
        raise ConfigError(f"min_count must be at least 1, got {min_count}")


def column_mask(counts: CsrMatrix, min_count: int) -> np.ndarray:
    """Columns whose count summed over the rows of *counts* is >= min_count.

    "Lower than 5" is the removal rule, so with the default of 5 a feature
    seen exactly 5 times stays in. Pass the training rows only for
    fold-scope pruning. A column never seen in those rows is dropped even
    when min_count <= 0.
    """
    totals = np.bincount(counts.indices, weights=counts.data, minlength=counts.shape[1])
    mask = (totals >= min_count) & (totals > 0)
    if not mask.any():
        raise _empty_vocabulary(min_count)
    return mask


def require_vocabulary(counts: CsrMatrix, min_count: int) -> CsrMatrix:
    """*counts* as it is, when it has a column; else the DataError of an empty vocabulary.

    For a matrix that holds only columns at or above the floor already, as
    ``FeaturePipeline`` builds them, this is what ``column_mask`` over all of
    its rows would keep, without the copy.
    """
    if counts.shape[1] == 0:
        raise _empty_vocabulary(min_count)
    return counts


def _empty_vocabulary(min_count: int) -> DataError:
    return DataError(f"no feature reaches the count threshold {min_count}; vocabulary is empty")


def represent(counts: CsrMatrix, rep: Representation) -> CsrMatrix:
    """Frequency keeps the counts; presence sets every stored value to 1."""
    if rep is Representation.FREQUENCY:
        return counts
    return CsrMatrix(np.ones(counts.nnz), counts.indices, counts.indptr, counts.shape)


def fit_columns(X: CsrMatrix, width: int) -> CsrMatrix:
    """Drop columns at or beyond *width*, or pad with empty ones up to it."""
    if X.shape[1] > width:
        return X._entries(X.indices < width, X.indices, width)
    if X.shape[1] < width:
        return CsrMatrix(X.data, X.indices, X.indptr, (X.shape[0], width))
    return X


def _format_value(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _format_label(label: int) -> str:
    if label == 0:
        return "0"
    return "+1" if label > 0 else "-1"


def write_svmlight(X: CsrMatrix, path: str | Path, labels: Sequence[int]) -> None:
    """One line per row of *X*; a label of 0 marks an unlabeled row."""
    bounds = X.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in enumerate(labels):
            lo, hi = bounds[row], bounds[row + 1]
            parts = [_format_label(label)]
            parts += [f"{i + 1}:{_format_value(v)}"
                      for i, v in zip(X.indices[lo:hi].tolist(), X.data[lo:hi].tolist())]
            fh.write(" ".join(parts) + "\n")


@contextmanager
def _input_file(path: str | Path) -> Iterator[TextIO]:
    """*path* open as UTF-8 text. A missing file is a usage error; a read or
    decode error anywhere in the ``with`` block is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise ConfigError(f"input file {path} not found") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


def read_json_object(path: str | Path) -> dict:
    """A JSON file whose top level is an object, such as a model file."""
    with _input_file(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not JSON ({exc.msg} at line {exc.lineno})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object at the top level")
    return payload


def model_path(out: str | Path, suffix: str = ".json") -> Path:
    """``<base><suffix>`` of a model saved as *out*: the base is *out* less a trailing ``.json``."""
    return Path(str(out).removesuffix(".json") + suffix)


def read_svmlight(path: str | Path) -> tuple[CsrMatrix, np.ndarray]:
    """(matrix, labels): labels are +1/-1, or 0 for an unlabeled line.

    The matrix has one column per id up to the largest id in the file; an
    id above MAX_FEATURE_ID is a DataError. The file is read a line at a
    time, and each stored entry is held once, as the int32 column and the
    float64 value the matrix keeps, so reading peaks near the size of the
    result. Decoding runs at most one 8 KiB chunk ahead of parsing: a bad
    line is reported before bad UTF-8 in a later chunk.
    """
    labels = array("b")
    indptr = array("q", [0])
    ids = array("i")  # every id is below MAX_FEATURE_ID < 2**31
    values = array("d")
    with _input_file(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    indices = np.frombuffer(ids, dtype=np.int32)
    width = int(indices.max()) + 1 if len(indices) else 0
    X = CsrMatrix(np.frombuffer(values, dtype=np.float64), indices,
                  np.frombuffer(indptr, dtype=np.int64), (len(labels), width))
    return X, np.array(labels, dtype=np.int64)


def check_training_labels(labels: Sequence[int]) -> None:
    """DataError unless every label is +1 or -1 (0 marks an unlabeled vector) and both occur."""
    seen = set(np.asarray(labels).tolist())
    if seen - {1, -1}:
        raise DataError("every training vector needs a label")
    if seen != {1, -1}:
        raise DataError(f"training set must contain both classes, got labels {sorted(map(int, seen))}")


def write_vocabulary(features: Iterable[str], path: str | Path) -> None:
    """One ``feature<TAB>id`` line per feature, ids counting from 0."""
    with open(path, "w", encoding="utf-8") as fh:
        for fid, feature in enumerate(features):
            fh.write(f"{feature}\t{fid}\n")
