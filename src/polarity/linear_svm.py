"""Linear soft-margin SVM trained by sequential minimal optimization.

Solves the L1-loss dual with the bias equality constraint, picking the
maximal violating pair at each step (Keerthi et al. 2001). A step changes
two multipliers, so the index sets of examples that may still rise or fall
are updated in place at those two entries, and the gradient is kept up to
date from two Gram columns in O(n). The Gram matrix is materialized densely
and column-major, so those columns are contiguous; that is comfortable up
to a few thousand training documents. The intercept is explicit, not an
appended constant feature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .vectorize import fit_columns, read_json_object

MODEL_FORMAT = "polarity-svm/1"

_SNAP = 1e-12


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

    def save(self, prefix: str | Path) -> tuple[Path, Path]:
        """Write ``<prefix>.json`` metadata plus ``<prefix>.npy`` dense weights."""
        prefix = Path(prefix)
        weights_path = prefix.with_suffix(".npy")
        meta_path = prefix.with_suffix(".json")
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
    def load(cls, prefix: str | Path) -> "LinearSvmModel":
        prefix = Path(prefix)
        meta_path = prefix if prefix.suffix == ".json" else prefix.with_suffix(".json")
        payload = read_json_object(meta_path)
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


def gram_matrix(X: sp.csr_matrix) -> np.ndarray:
    """Dense X X' of the rows of *X*, column-major so that columns are contiguous.

    Densified row-major, then copied: ``toarray(order="F")`` would first copy
    the sparse product to CSC, which at 2000 rows holds 46 MB more at peak.
    """
    return np.asfortranarray((X @ X.T).toarray())


def default_C(X: sp.csr_matrix) -> float:
    """The referenced-solver default: 1 / mean squared norm of the training rows."""
    if X.shape[0] == 0:
        raise DataError("cannot derive C from an empty training set")
    mean = float(X.multiply(X).sum()) / X.shape[0]
    if mean == 0.0:
        raise DataError("cannot derive C: every training vector is zero")
    return 1.0 / mean


def check_solver_limits(tol: float, max_epochs: int) -> None:
    """Raise ConfigError unless *tol* is finite and above 0 and *max_epochs* at least 1."""
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tol must be finite and above 0, got {tol}")
    if max_epochs < 1:
        raise ConfigError(f"max_epochs must be at least 1, got {max_epochs}")


def train_svm(X: sp.csr_matrix, y: Sequence[int], C: float | None = None,
              tol: float = 1e-3, max_epochs: int = 1000,
              gram: np.ndarray | None = None) -> LinearSvmModel:
    """Train on the rows of *X* with +1/-1 labels *y* to KKT tolerance *tol*.

    One epoch is n pair updates. *gram*, when given, must equal
    ``gram_matrix(X)``; cross-validation passes the fold's slice of a Gram
    computed once over the whole corpus. A row-major *gram* is copied once
    into column order. On hitting the epoch cap the best
    iterate is returned with ``meta.converged`` False and the reason in
    ``meta.warning``.
    """
    check_solver_limits(tol, max_epochs)
    y = np.asarray(y, dtype=np.float64)
    labels = set(y.tolist())
    if labels - {1.0, -1.0}:
        raise DataError("every training vector needs a label")
    if labels != {1.0, -1.0}:
        raise DataError(f"training set must contain both classes, got labels "
                        f"{sorted(int(v) for v in labels)}")
    if C is None:
        C = default_C(X)
    if not C > 0 or not math.isfinite(C):
        raise DataError(f"C must be positive and finite, got {C}")
    if X.shape[1] == 0:
        X = fit_columns(X, 1)

    n = X.shape[0]
    K = gram_matrix(X) if gram is None else np.asfortranarray(gram)
    diag = K.diagonal().copy()

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

    w = np.asarray(X.T @ (alpha * y)).ravel()
    s = np.asarray(X @ w).ravel()
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


def predict_svm(model: LinearSvmModel, X: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """(labels, decision values) per row of *X*; a score of exactly zero goes positive.

    Columns beyond the model's weights are ignored.
    """
    scores = _row_dots(fit_columns(X, len(model.weights)), model.weights) + model.bias
    return np.where(scores >= 0, 1, -1), scores


def _row_dots(X: sp.csr_matrix, w: np.ndarray) -> np.ndarray:
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
