"""Linear soft-margin SVM trained by sequential minimal optimization.

Solves the L1-loss dual with the bias equality constraint, picking the
maximal violating pair at each step (Keerthi et al. 2001). A step changes
two multipliers, so the index sets of examples that may still rise or fall
are updated in place at those two entries, and the gradient is kept up to
date from two Gram columns in O(n). The intercept is explicit, not an
appended constant feature.

The Gram matrix is materialized densely and column-major, so those columns
are contiguous; that is comfortable up to a few thousand training documents,
and ``gram_matrix`` refuses more than ``MAX_GRAM_ROWS`` rows. It is computed
in two parts:
  pairs   every column j adds X[r, j] * X[s, j] to K[r, s] for each pair of
          its stored entries; the pairs of a block of rows are summed by one
          ``np.bincount`` in the order of row r's entries, so by ascending j,
          the order of a CSR sparse product ``X @ X.T``.
  slabs   when every value is an integer and every squared row norm is below
          2^53, every partial sum in any order is an integer below 2^53, so
          exact. Then the columns held by at least 1/32 of the rows go
          through BLAS, as ``K += S @ S.T`` over dense slabs S of up to 512
          of those columns, and the pairs cover the rest.
Either way K is the same bits as the sparse product. Other input (a
real-valued svmlight file) takes the pairs over every column, which is
several times slower on columns that most rows hold. K is symmetric, so its
transpose is its column-major form.

Besides K, the scratch is the stored entries split once into a dense and
a sparse part, 16 bytes per entry (an 8-byte value, an int32 row and an
int32 column or slab rank), plus bounded buffers: a block of pairs takes
about 2.6 MB, and a slab and the product of one band of its rows take
8 * 512 * n bytes each (4 MB each at 1,000 rows), so no n x n temporary is
made.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .vectorize import CsrMatrix, check_training_labels, fit_columns, model_path, read_json_object

MODEL_FORMAT = "polarity-svm/1"

_SNAP = 1e-12

# Most training rows the dense n x n Gram may have: 8 n^2 bytes, 2 GiB at
# 16,384 rows, 64x the 32 MB Gram of the 2000-document Table-1 corpus.
MAX_GRAM_ROWS = 1 << 14

# A column is dense, and goes through BLAS, when at least 1/_DENSE_SHARE of
# the rows hold it; dense columns are copied out _SLAB_COLUMNS at a time.
_DENSE_SHARE = 32
_SLAB_COLUMNS = 512
# Entry pairs, plus output cells, summed by one bincount: about 40 bytes each
# at peak, so 2.6 MB.
_PAIR_BLOCK = 1 << 16


@dataclass
class SvmTrainingMeta:
    iterations: int = 0
    converged: bool = True
    warning: str = ""  # why the solver stopped short, when it did
    final_objective: float = 0.0  # primal
    dual_objective: float = 0.0
    duality_gap: float = 0.0
    objective_history: list[float] = field(default_factory=list)  # dual, per epoch
    alphas: np.ndarray | None = None  # training-order dual variables, not serialized


@dataclass
class LinearSvmModel:
    weights: np.ndarray
    bias: float
    C: float
    meta: SvmTrainingMeta

    def save(self, path: str | Path) -> tuple[Path, Path]:
        """Write ``model_path(path)`` metadata and ``model_path(path, ".npy")`` dense weights."""
        meta_path, weights_path = model_path(path), model_path(path, ".npy")
        np.save(weights_path, self.weights)
        meta_path.write_text(json.dumps({
            "format": MODEL_FORMAT,
            "bias": self.bias,
            "C": self.C,
            "weights_file": weights_path.name,
            "iterations": self.meta.iterations,
            "converged": self.meta.converged,
            "final_objective": self.meta.final_objective,
            "dual_objective": self.meta.dual_objective,
            "duality_gap": self.meta.duality_gap,
        }), encoding="utf-8")
        return meta_path, weights_path

    @classmethod
    def load(cls, path: str | Path) -> "LinearSvmModel":
        """The model that ``save(path)`` wrote."""
        meta_path = model_path(path)
        return cls.from_payload(read_json_object(meta_path), meta_path)

    @classmethod
    def from_payload(cls, payload: dict, meta_path: str | Path) -> "LinearSvmModel":
        """The model a parsed metadata file holds; the weights file is read
        from beside *meta_path*, which names the model in errors."""
        meta_path = Path(meta_path)
        if payload.get("format") != MODEL_FORMAT:
            raise DataError(f"{meta_path}: not a {MODEL_FORMAT} model file")
        try:
            weights_path = meta_path.parent / payload["weights_file"]
            weights = np.load(weights_path)
            if weights.dtype.kind not in "iuf":
                raise DataError(f"{meta_path}: weights must be real numbers, not {weights.dtype}")
            weights = np.asarray(weights, dtype=np.float64)
            meta = SvmTrainingMeta(
                iterations=payload["iterations"], converged=payload["converged"],
                final_objective=payload["final_objective"],
                dual_objective=payload["dual_objective"],
                duality_gap=payload["duality_gap"],
            )
            model = cls(weights=weights, bias=float(payload["bias"]), C=float(payload["C"]),
                        meta=meta)
        except OSError as exc:
            raise DataError(f"{meta_path}: cannot read the weights file "
                            f"({exc.strerror or exc})") from None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{meta_path}: malformed {MODEL_FORMAT} model file ({exc!r})") from None
        if (model.weights.ndim != 1 or not np.all(np.isfinite(model.weights))
                or not math.isfinite(model.bias)):
            raise DataError(f"{meta_path}: weights must be one finite vector and the bias finite")
        return model


def gram_matrix(X: CsrMatrix) -> np.ndarray:
    """Dense X X' of the rows of *X*, column-major so that columns are contiguous.

    Raises DataError above MAX_GRAM_ROWS rows, before allocating, and when
    an entry is not finite.
    """
    n = X.shape[0]
    if n > MAX_GRAM_ROWS:
        raise DataError(f"{n} training vectors need a {8 * n * n / 2**30:.1f} GiB dense Gram "
                        f"matrix; the limit is {MAX_GRAM_ROWS} vectors")
    # Rows and dense-column ranks are below MAX_GRAM_ROWS and the column
    # count, so int32 holds them.
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(X.indptr))
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.bincount(rows, X.data * X.data, minlength=n)
        exact = np.array_equal(X.data, np.rint(X.data)) and bool((norms < 2.0**53).all())
        frequent = np.bincount(X.indices, minlength=X.shape[1]) * _DENSE_SHARE >= n
        dense = frequent[X.indices] if exact else np.zeros(X.nnz, dtype=bool)
        # The entries split once into the dense part (value, rank among the
        # dense columns, row) and the sparse part (value, column, row), and
        # the full-length rows and mask go before K is allocated.
        slab = (X.data[dense], (np.cumsum(frequent, dtype=np.int32) - 1)[X.indices[dense]],
                rows[dense])
        pairs = (X.data[~dense], X.indices[~dense], rows[~dense])
        del rows, dense
        K = np.zeros((n, n))
        _add_slab_products(K, *slab)
        del slab
        _add_pair_products(K, *pairs, X.shape[1])
    if not np.isfinite(K).all():
        raise DataError("the Gram matrix of the training vectors is not finite "
                        "(their dot products overflow)")
    return K.T


def _add_pair_products(K: np.ndarray, data: np.ndarray, cols: np.ndarray, rows: np.ndarray,
                       width: int) -> None:
    """K[r, s] += X[r, j] * X[s, j] over all pairs of the given entries of each column j.

    The entries are in CSR order. Each entry is repeated once per entry of
    its column, which are found through a column-ordered copy, and a block
    of rows is summed by one bincount.
    """
    n = K.shape[0]
    if not len(data):
        return
    by_column = np.argsort(cols, kind="stable")  # rows stay ascending in a column
    column_rows, column_data = rows[by_column], data[by_column]
    held = np.bincount(cols, minlength=width)
    column_start = np.cumsum(held) - held
    fan = held[cols]  # pairs each entry makes
    cost = np.cumsum(np.bincount(rows, fan, minlength=n) + n)
    cuts = np.searchsorted(cost, np.arange(_PAIR_BLOCK, cost[-1], _PAIR_BLOCK))
    bounds = np.concatenate(([0], cuts, [n]))  # ascending, so equal bounds are adjacent
    bounds = bounds[np.append(True, bounds[1:] != bounds[:-1])]
    # Each block's first entry. The bounds take the dtype of rows, which
    # searchsorted would otherwise copy to theirs.
    edges = np.searchsorted(rows, bounds.astype(rows.dtype)).tolist()
    for lo, hi, a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist(), edges[:-1], edges[1:]):
        block_fan = fan[a:b]
        partner = (np.repeat(column_start[cols[a:b]] - (np.cumsum(block_fan) - block_fan),
                             block_fan) + np.arange(block_fan.sum()))
        # Cell numbers in intp, which bincount reads without a copy.
        cells = np.repeat((rows[a:b] - lo).astype(np.intp) * n, block_fan) + column_rows[partner]
        products = np.repeat(data[a:b], block_fan) * column_data[partner]
        K[lo:hi] += np.bincount(cells, products, minlength=(hi - lo) * n).reshape(hi - lo, n)


def _add_slab_products(K: np.ndarray, data: np.ndarray, slot: np.ndarray,
                       rows: np.ndarray) -> None:
    """K += S @ S.T over dense slabs S of up to _SLAB_COLUMNS columns; entry k is
    X[rows[k], j] = data[k] of the dense column j numbered slot[k].

    A slab's product is taken in bands of _SLAB_COLUMNS rows, each against
    the rows up to its own last one, so no product is larger than the slab.
    The bands add to the lower triangle of K and its diagonal blocks, and
    the upper triangle is copied from the lower one after the last slab, so
    K must be zero on entry. One slab buffer and one band buffer serve every
    slab and band.
    """
    n = K.shape[0]
    width = int(slot.max()) + 1 if len(slot) else 0
    if not width:
        return
    slabs = np.empty((n, min(_SLAB_COLUMNS, width)))
    bands = np.empty((min(_SLAB_COLUMNS, n), n))
    for lo in range(0, width, _SLAB_COLUMNS):
        hit = (slot >= lo) & (slot < lo + _SLAB_COLUMNS)
        S = slabs[:, :min(_SLAB_COLUMNS, width - lo)]
        S.fill(0.0)
        S[rows[hit], slot[hit] - lo] = data[hit]
        del hit
        for top in range(0, n, _SLAB_COLUMNS):
            bottom = min(top + _SLAB_COLUMNS, n)
            band = np.matmul(S[top:bottom], S[:bottom].T, out=bands[:bottom - top, :bottom])
            K[top:bottom, :bottom] += band
    for top in range(_SLAB_COLUMNS, n, _SLAB_COLUMNS):
        K[:top, top:top + _SLAB_COLUMNS] = K[top:top + _SLAB_COLUMNS, :top].T


def default_C(X: CsrMatrix) -> float:
    """The referenced-solver default: 1 / mean squared norm of the training rows."""
    if X.shape[0] == 0:
        raise DataError("cannot derive C from an empty training set")
    with np.errstate(over="ignore"):
        squares = X.data * X.data
    # A square that underflows to 0 is not stored in the elementwise product
    # X .* X, so it is left out of the (pairwise) sum too.
    mean = float(np.sum(squares[squares != 0.0])) / X.shape[0]
    if not math.isfinite(mean):
        raise DataError("cannot derive C: the squared norms of the training vectors overflow")
    if mean == 0.0:
        raise DataError("cannot derive C: every training vector is zero")
    C = 1.0 / mean
    if not math.isfinite(C):
        raise DataError(f"cannot derive C: the mean squared norm of the training vectors, "
                        f"{mean!r}, has no finite inverse")
    return C


def check_solver_limits(tol: float, max_epochs: int, C: float | None = None) -> None:
    """Raise ConfigError unless *tol* and a given *C* are finite and above 0 and
    *max_epochs* is at least 1."""
    for name, value in [("C", C), ("tol", tol)]:
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and above 0, got {value}")
    if max_epochs < 1:
        raise ConfigError(f"max_epochs must be at least 1, got {max_epochs}")


def train_svm(X: CsrMatrix, y: Sequence[int], C: float | None = None,
              tol: float = 1e-3, max_epochs: int = 1000,
              gram: np.ndarray | None = None) -> LinearSvmModel:
    """Train on the rows of *X* with +1/-1 labels *y* to KKT tolerance *tol*.

    One epoch is n pair updates. *y* must pass ``check_training_labels``, and a given
    *C* must be finite and above 0 (ConfigError); without one, ``default_C(X)`` is
    used. *gram*, when given, must equal ``gram_matrix(X)``; cross-validation passes
    every fold's Gram, made by ``evaluation._Cell``. A row-major *gram* is copied once
    into column order. On hitting the epoch cap the best iterate is returned with
    ``meta.converged`` False and the reason in ``meta.warning``.
    """
    check_solver_limits(tol, max_epochs, C)
    check_training_labels(y)
    y = np.asarray(y, dtype=np.float64)
    if C is None:
        C = default_C(X)
    if X.shape[1] == 0:
        X = fit_columns(X, 1)

    n = X.shape[0]
    K = gram_matrix(X) if gram is None else np.asfortranarray(gram)
    diag = K.diagonal().copy()
    # |K_ij| <= max(diag), so this bounds every step's K_ii + K_jj - 2 K_ij
    # and K_ki - K_kj.
    if not math.isfinite(4.0 * float(diag.max())):
        raise DataError("the Gram matrix of the training vectors is too large to train on "
                        "(its pair differences overflow)")

    # v = -y * G, where G is the gradient of (1/2) a'Qa - e'a. As y = +-1,
    # stepping v by t * (K_i - K_j) rounds exactly as stepping G would.
    alpha = np.zeros(n)
    v = y.copy()
    # The index sets: y_k * alpha_k can rise in up and fall in low. At
    # alpha = 0, up holds every positive example and low every negative one.
    up = y > 0
    low = ~up
    pos = up.tolist()
    meta = SvmTrainingMeta()
    max_iterations = max_epochs * n

    it = 0
    while True:
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(v_up.argmax())
        j = int(v_low.argmin())
        violation = v_up[i] - v_low[j]
        if violation <= tol:
            break
        if it >= max_iterations:
            meta.converged = False
            meta.warning = (f"SVM did not reach tol={tol} within {max_epochs} epochs "
                            f"(violation {violation:.3e}); returning best iterate")
            break

        a = diag[i] + diag[j] - 2.0 * K[i, j]
        if a <= _SNAP:
            a = _SNAP
        t = violation / a
        # Box feasibility along the pair direction.
        t_max = (C - alpha[i]) if pos[i] else alpha[i]
        t_max = min(t_max, alpha[j] if pos[j] else (C - alpha[j]))
        t = min(t, t_max)

        for k, step in ((i, t), (j, -t)):  # alpha_k += y_k * step
            a_k = alpha[k] + step if pos[k] else alpha[k] - step
            if a_k < _SNAP:
                a_k = 0.0
            elif a_k > C - _SNAP:
                a_k = C
            alpha[k] = a_k
            up[k] = a_k < C if pos[k] else a_k > 0.0
            low[k] = a_k > 0.0 if pos[k] else a_k < C
        v -= t * (K[:, i] - K[:, j])

        it += 1
        if it % n == 0:
            meta.objective_history.append(_dual_objective(alpha, y, v))

    meta.iterations = it
    meta.dual_objective = _dual_objective(alpha, y, v)
    meta.objective_history.append(meta.dual_objective)

    w = X.rmatmul(alpha * y)
    s = X.matmul(w)
    r = y - s
    m_val = np.max(r[up]) if up.any() else None
    M_val = np.min(r[low]) if low.any() else None
    if m_val is not None and M_val is not None:
        bias = 0.5 * (m_val + M_val)
    else:
        bias = m_val if m_val is not None else (M_val if M_val is not None else 0.0)

    hinge = np.maximum(0.0, 1.0 - y * (s + bias)).sum()
    primal = 0.5 * float(w @ w) + C * float(hinge)
    meta.final_objective = primal
    meta.duality_gap = primal - (-meta.dual_objective)
    meta.alphas = alpha

    return LinearSvmModel(weights=w, bias=float(bias), C=float(C), meta=meta)


def _dual_objective(alpha: np.ndarray, y: np.ndarray, v: np.ndarray) -> float:
    """(1/2) a'Qa - e'a, from the gradient G = -y * v."""
    return 0.5 * float(alpha @ (-(y * v) - 1.0))


def predict_svm(model: LinearSvmModel, X: CsrMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(labels, decision values) per row of *X*; a score of exactly zero goes positive.

    Columns beyond the model's weights are ignored.
    """
    scores = _row_dots(fit_columns(X, len(model.weights)), model.weights) + model.bias
    return np.where(scores >= 0, 1, -1), scores


def _row_dots(X: CsrMatrix, w: np.ndarray) -> np.ndarray:
    """``X @ w``, each row summed by ``np.dot`` over its stored entries.

    A sparse mat-vec adds the products in another order than the BLAS dot,
    so decision values would differ in the last bits from those of the same
    document scored alone; this keeps them identical.
    """
    gathered = w[X.indices]
    bounds = X.indptr.tolist()
    out = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        lo, hi = bounds[i], bounds[i + 1]
        out[i] = np.dot(X.data[lo:hi], gathered[lo:hi])
    return out
