"""Linear SVM solver: analytic oracle, KKT residuals, duality gap, invariances."""

import math
import random
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given

from conftest import csr_matrices, from_scipy, labeled_matrix, to_scipy
from polarity import linear_svm
from polarity.errors import ConfigError, DataError
from polarity.linear_svm import (
    LinearSvmModel,
    default_C,
    gram_matrix,
    predict_svm,
    train_svm,
)


def sv(pairs, label=None):
    return sorted(pairs), label


def fit(vectors, n_features=None, **kwargs):
    return train_svm(*labeled_matrix(vectors, n_features), **kwargs)


def predict_one(model, vec):
    labels, scores = predict_svm(model, labeled_matrix([vec])[0])
    return int(labels[0]), float(scores[0])


def margins_of(model, vectors):
    """y_i * (w . x_i + b) for every labeled vector, for KKT checks."""
    X, y = labeled_matrix(vectors)
    return y * predict_svm(model, X)[1]


def label_of(vec):
    return vec[1]


def assert_kkt(model, vectors, tol):
    """alpha=0 -> margin >= 1-tol; 0<alpha<C -> |margin-1| <= tol; alpha=C -> margin <= 1+tol."""
    m = margins_of(model, vectors)
    for alpha, margin in zip(model.meta.alphas, m):
        if alpha <= 1e-9:
            assert margin >= 1 - tol, (alpha, margin)
        elif alpha >= model.C - 1e-9:
            assert margin <= 1 + tol, (alpha, margin)
        else:
            assert abs(margin - 1.0) <= tol, (alpha, margin)


SEPARABLE_2D = [sv([(0, 2.0)], 1), sv([(0, -2.0)], -1)]


class TestAnalyticSeparable:
    def test_recovers_max_margin_separator(self):
        model = fit(SEPARABLE_2D, C=1.0, tol=1e-3, n_features=2)
        assert model.weights[0] == pytest.approx(0.5, abs=1e-3)
        assert model.weights[1] == pytest.approx(0.0, abs=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        # geometric margin 1/|w| = 2 on both sides
        for vec in SEPARABLE_2D:
            _, score = predict_one(model, vec)
            assert abs(score) / np.linalg.norm(model.weights) == pytest.approx(2.0, rel=1e-3)

    def test_zero_training_error_and_unit_margins(self):
        model = fit(SEPARABLE_2D, C=1.0, tol=1e-3, n_features=2)
        m = margins_of(model, SEPARABLE_2D)
        assert np.all(m >= 1 - 1e-3)
        for vec in SEPARABLE_2D:
            assert predict_one(model, vec)[0] == label_of(vec)

    def test_kkt_residuals_every_point(self):
        tol = 1e-3
        model = fit(SEPARABLE_2D, C=1.0, tol=tol, n_features=2)
        assert_kkt(model, SEPARABLE_2D, tol)
        # both points are interior support vectors at alpha=0.125: margin ~ 1
        assert np.allclose(model.meta.alphas, 0.125, atol=1e-6)
        assert np.all(np.abs(margins_of(model, SEPARABLE_2D) - 1.0) <= tol)

    def test_duplicates_leave_decision_unchanged(self):
        model = fit(SEPARABLE_2D, C=1.0, tol=1e-4, n_features=2)
        doubled = SEPARABLE_2D + [sv([(0, 2.0)], 1), sv([(0, -2.0)], -1)]
        model2 = fit(doubled, C=1.0, tol=1e-4, n_features=2)
        assert model2.weights[0] == pytest.approx(model.weights[0], abs=1e-3)
        assert model2.bias == pytest.approx(model.bias, abs=1e-3)


class TestSoftMargin:
    XOR = [
        sv([(0, 1.0), (1, 1.0)], 1),
        sv([(0, -1.0), (1, -1.0)], 1),
        sv([(0, 1.0), (1, -1.0)], -1),
        sv([(0, -1.0), (1, 1.0)], -1),
    ]

    def test_inseparable_completes_with_hinge_loss(self):
        model = fit(self.XOR, C=0.1, tol=1e-3)
        m = margins_of(model, self.XOR)
        hinge = np.maximum(0.0, 1.0 - m).sum()
        assert hinge > 0
        assert model.meta.converged

    def test_duality_gap_small_and_primal_dominates(self):
        model = fit(self.XOR, C=0.1, tol=1e-3)
        assert model.meta.duality_gap >= -1e-9
        assert model.meta.duality_gap <= 1e-3 * (1 + abs(model.meta.final_objective)) + 1e-9

    def test_objective_monotone_over_epochs(self):
        pts = _random_instance(seed=5, n=30)
        model = fit(pts, C=1.0, tol=1e-6)
        history = model.meta.objective_history
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9

    def test_separable_with_large_c_has_zero_error(self):
        pts = _random_instance(seed=9, n=40, separable=True)
        model = fit(pts, C=100.0, tol=1e-3)
        assert all(predict_one(model, p)[0] == label_of(p) for p in pts)


def _random_instance(seed, n, separable=False, dim=6):
    rng = random.Random(seed)
    pts = []
    for k in range(n):
        label = 1 if k % 2 == 0 else -1
        pairs = []
        for d in range(dim):
            if rng.random() < 0.7:
                value = rng.uniform(0.2, 2.0)
                if separable and d == 0:
                    value = 2.0 + rng.random() if label == 1 else -2.0 - rng.random()
                elif not separable:
                    value *= rng.choice([1, -1])
                pairs.append((d, value))
        if separable and not any(d == 0 for d, _ in pairs):
            pairs.append((0, 3.0 * label))
        pts.append(sv(pairs, label))
    return pts


class TestKktInvariant:
    @pytest.mark.parametrize("seed,C", [(1, 0.05), (2, 1.0), (3, 10.0)])
    def test_kkt_residuals_random_instances(self, seed, C):
        tol = 1e-3
        pts = _random_instance(seed=seed, n=50)
        model = fit(pts, C=C, tol=tol)
        assert model.meta.converged
        assert_kkt(model, pts, tol)
        gap = model.meta.duality_gap
        assert -1e-9 <= gap <= tol * (1 + abs(model.meta.final_objective)) + 1e-6

    def test_order_invariance_of_predictions(self):
        pts = _random_instance(seed=4, n=40)
        model_a = fit(pts, C=0.5, tol=1e-5)
        shuffled = list(pts)
        random.Random(99).shuffle(shuffled)
        model_b = fit(shuffled, C=0.5, tol=1e-5)
        test = _random_instance(seed=41, n=20)
        for vec in test:
            _, sa = predict_one(model_a, vec)
            _, sb = predict_one(model_b, vec)
            assert sa == pytest.approx(sb, abs=5e-3)


class TestGramInput:
    def test_precomputed_gram_gives_identical_model(self):
        X, y = labeled_matrix(_random_instance(seed=6, n=30))
        plain = train_svm(X, y, C=0.5, tol=1e-4)
        given = train_svm(X, y, C=0.5, tol=1e-4, gram=gram_matrix(X))
        assert np.array_equal(plain.weights, given.weights)
        assert plain.bias == given.bias and plain.meta.iterations == given.meta.iterations

    def test_sliced_gram_equals_subset_gram(self):
        X, _ = labeled_matrix(_random_instance(seed=8, n=25))
        rows = np.arange(25) % 5 != 2
        assert np.array_equal(gram_matrix(X)[np.ix_(rows, rows)], gram_matrix(X.select_rows(rows)))

    def test_scores_equal_single_document_dot(self):
        pts = _random_instance(seed=12, n=20)
        model = fit(pts, C=1.0)
        _, scores = predict_svm(model, labeled_matrix(pts, len(model.weights))[0])
        for (pairs, _), score in zip(pts, scores):
            ids = np.array([i for i, _ in pairs], dtype=np.int64)
            values = np.array([v for _, v in pairs])
            assert score == float(np.dot(values, model.weights[ids])) + model.bias


class TestPredict:
    def test_zero_vector_goes_with_bias(self):
        model = fit(SEPARABLE_2D + [sv([(1, 1.0)], 1)], C=1.0, n_features=2)
        label, score = predict_one(model, sv([]))
        assert score == pytest.approx(model.bias)
        assert label == (1 if model.bias >= 0 else -1)

    def test_linearity_in_input(self):
        model = fit(SEPARABLE_2D, C=1.0, n_features=2)
        _, s1 = predict_one(model, sv([(0, 1.0)]))
        _, s2 = predict_one(model, sv([(0, 2.0)]))
        assert s2 - model.bias == pytest.approx(2 * (s1 - model.bias), abs=1e-12)

    def test_tie_goes_positive(self):
        model = fit(SEPARABLE_2D, C=1.0, n_features=2)
        assert model.bias == pytest.approx(0.0, abs=1e-3)
        label, _ = predict_one(model, sv([]))
        assert label == 1


def scipy_gram(X):
    A = to_scipy(X)
    return (A @ A.T).toarray()


def _mixed_counts(seed, n=96):
    """Integer counts: 40 columns held by most rows, 300 held by one or two,
    a row of values near the 2^53 bound on squared norms, and empty rows."""
    rng = np.random.default_rng(seed)
    common = rng.poisson(1.0, size=(n, 40))
    rare = np.zeros((n, 300), dtype=np.int64)
    for j in range(300):
        rare[rng.choice(n, size=rng.integers(1, 3), replace=False), j] = rng.integers(1, 4)
    counts = np.hstack([common, rare]).astype(np.float64)
    counts[[0, 7]] = 0.0
    counts[3, :2] = [2.0**26, 2.0**25 + 1]  # squared norm just above 2^52
    return from_scipy(counts)


class TestGramMatrix:
    """``gram_matrix`` against SciPy's ``X @ X.T``, bit for bit, on each path."""

    @pytest.fixture()
    def slab_entries(self, monkeypatch):
        """The number of entries each gram_matrix call sends through BLAS."""
        seen = []
        add = linear_svm._add_slab_products

        def spy(K, data, slot, rows):
            seen.append(len(data))
            add(K, data, slot, rows)

        monkeypatch.setattr(linear_svm, "_add_slab_products", spy)
        return seen

    def test_integer_counts_split_between_blas_and_pairs(self, slab_entries, monkeypatch):
        monkeypatch.setattr(linear_svm, "_SLAB_COLUMNS", 16)  # several slabs
        monkeypatch.setattr(linear_svm, "_PAIR_BLOCK", 500)  # several row blocks
        X = _mixed_counts(seed=41)
        K = gram_matrix(X)
        assert np.array_equal(K, scipy_gram(X))
        assert K.flags.f_contiguous
        assert 0 < slab_entries[0] < X.nnz

    def test_scratch_is_bounded_above_the_result(self, slab_entries):
        """Besides K, gram_matrix holds either a slab and one band's product
        of 8 * _SLAB_COLUMNS * n bytes each, or one block of pairs (about 40
        bytes per pair), and a few arrays of one value per entry; no n x n
        temporary, which alone would pass the bound here. The matrix spans
        two slabs, three bands and more than ten blocks of pairs."""
        n = 1536
        rng = np.random.default_rng(44)
        held = [n // 16] * 600 + [n // 40] * 600  # 600 dense columns, then sparse ones
        rows = np.concatenate([rng.choice(n, k, replace=False) for k in held])
        columns = np.repeat(np.arange(len(held)), held)
        X = from_scipy(sp.csr_matrix(
            (rng.integers(1, 4, len(rows)).astype(np.float64), (rows, columns)),
            shape=(n, len(held))))
        tracemalloc.start()
        try:
            K = gram_matrix(X)
            scratch = tracemalloc.get_traced_memory()[1] - K.nbytes
        finally:
            tracemalloc.stop()
        assert np.array_equal(K, scipy_gram(X))
        assert slab_entries == [600 * (n // 16)]
        bound = (max(2 * 8 * linear_svm._SLAB_COLUMNS * n, 40 * linear_svm._PAIR_BLOCK)
                 + 48 * X.nnz)
        assert scratch < bound < K.nbytes

    def test_scratch_holds_each_entry_once_in_16_bytes(self, slab_entries):
        """The entries are split once into a dense and a sparse part of 16
        bytes each (a float64 value, an int32 row and an int32 column or
        slab rank), and filling a slab gathers about 20 bytes per entry it
        holds; beside the slab and band buffers that stays under 36 bytes
        per entry. Int64 rows and ranks beside the full-length rows and mask
        took 42 on this matrix, the one of the test above."""
        n = 1536
        rng = np.random.default_rng(44)
        held = [n // 16] * 600 + [n // 40] * 600
        rows = np.concatenate([rng.choice(n, k, replace=False) for k in held])
        X = from_scipy(sp.csr_matrix(
            (rng.integers(1, 4, len(rows)).astype(np.float64),
             (rows, np.repeat(np.arange(len(held)), held))), shape=(n, len(held))))
        tracemalloc.start()
        try:
            K = gram_matrix(X)
            scratch = tracemalloc.get_traced_memory()[1] - K.nbytes
        finally:
            tracemalloc.stop()
        assert np.array_equal(K, scipy_gram(X))
        assert slab_entries == [600 * (n // 16)]
        assert scratch < 2 * 8 * linear_svm._SLAB_COLUMNS * n + 36 * X.nnz

    def test_real_values_take_the_pair_path(self, slab_entries):
        X = _mixed_counts(seed=42)
        X = from_scipy(to_scipy(X) * 0.3)
        assert np.array_equal(gram_matrix(X), scipy_gram(X))
        assert slab_entries == [0]

    def test_squared_norm_at_2_53_takes_the_pair_path(self, slab_entries):
        rng = np.random.default_rng(43)
        counts = rng.integers(0, 3, size=(40, 12)).astype(np.float64)
        counts[:, 0] = 2.0**26 + 1  # every partial sum in the 2^53 range
        counts[5, 1] = 2.0**26 + 3
        X = from_scipy(counts)
        assert np.array_equal(gram_matrix(X), scipy_gram(X))
        assert slab_entries == [0]

    @pytest.mark.parametrize("dense", [
        np.zeros((3, 0)), np.zeros((0, 4)), np.zeros((4, 5)), np.array([[1.0, 0.0, 2.0]]),
        np.array([[0.5, 0.0, -2.0]]), np.array([[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]]),
    ], ids=["no-columns", "no-rows", "all-empty", "one-row", "one-real-row", "empty-rows"])
    def test_edge_shapes(self, dense):
        X = from_scipy(dense)
        K = gram_matrix(X)
        assert K.shape == (X.shape[0],) * 2
        assert np.array_equal(K, scipy_gram(X))

    @given(csr_matrices())
    def test_matches_scipy(self, X):
        assert np.array_equal(gram_matrix(X), scipy_gram(X))

    def test_overflow_raises(self):
        X, _ = labeled_matrix([sv([(0, 1e308)]), sv([(1, 1e308)])])
        with pytest.raises(DataError, match="not finite"):
            gram_matrix(X)

    def test_row_bound(self, monkeypatch):
        monkeypatch.setattr(linear_svm, "MAX_GRAM_ROWS", 3)
        X, _ = labeled_matrix([sv([(0, 1.0)])] * 4)
        with pytest.raises(DataError, match="the limit is 3 vectors"):
            gram_matrix(X)
        assert gram_matrix(X.select_rows(np.arange(4) < 3)).shape == (3, 3)


class TestDefaultC:
    def test_unit_norm_gives_one(self):
        vecs = [sv([(0, 1.0)]), sv([(1, 1.0)])]
        assert default_C(labeled_matrix(vecs)[0]) == pytest.approx(1.0)

    def test_mixed_norms(self):
        vecs = [sv([(0, math.sqrt(2))]), sv([(0, 2.0)])]
        assert default_C(labeled_matrix(vecs)[0]) == pytest.approx(1 / 3)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError, match="zero"):
            default_C(labeled_matrix([sv([]), sv([])], 2)[0])

    def test_overflow_named(self):
        X, _ = labeled_matrix([sv([(0, 1e308)]), sv([(1, 1e308)])])
        with pytest.raises(DataError, match="squared norms of the training vectors overflow"):
            default_C(X)

    def test_infinite_inverse_named(self):
        # each square is subnormal, so their mean is nonzero but 1 / mean is inf
        X, y = labeled_matrix([sv([(0, 1e-160)], 1), sv([(1, 1e-160)], -1)])
        with pytest.raises(DataError, match="has no finite inverse"):
            default_C(X)
        with pytest.raises(DataError, match="has no finite inverse"):
            train_svm(X, y)

    @given(csr_matrices(min_rows=1))
    def test_sum_matches_scipy(self, X):
        A = to_scipy(X)
        total = float(A.multiply(A).sum())
        if not total:
            return
        expected = 1.0 / (total / X.shape[0])
        if math.isfinite(expected):
            assert default_C(X) == expected
        else:
            with pytest.raises(DataError, match="has no finite inverse"):
                default_C(X)

    def test_used_when_c_omitted(self):
        pts = _random_instance(seed=11, n=20)
        model = fit(pts, C=None)
        assert model.C == pytest.approx(default_C(labeled_matrix(pts)[0]))
        assert model.C > 0 and math.isfinite(model.C)


class TestErrorsAndMeta:
    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            fit([sv([(0, 1.0)], 1), sv([(1, 1.0)], 1)])

    @pytest.mark.parametrize("limits, message", [
        (dict(tol=float("nan")), "tol must be finite and above 0"),
        (dict(tol=-1.0), "tol must be finite and above 0"),
        (dict(max_epochs=-3), "max_epochs must be at least 1"),
        (dict(C=float("nan")), "C must be finite and above 0"),
        (dict(C=float("inf")), "C must be finite and above 0"),
        (dict(C=-1.0), "C must be finite and above 0"),
        (dict(C=0.0), "C must be finite and above 0"),
    ])
    def test_bad_solver_limits_rejected(self, limits, message):
        with pytest.raises(ConfigError, match=message):
            fit(SEPARABLE_2D, **{"C": 1.0, **limits})

    def test_nonconvergence_warns_and_flags(self):
        pts = _random_instance(seed=3, n=60)
        model = fit(pts, C=10.0, tol=1e-12, max_epochs=1)
        assert not model.meta.converged
        assert model.meta.warning.startswith("SVM did not reach tol=1e-12 within 1 epochs")
        assert model.meta.warning.endswith("returning best iterate")
        assert np.all(np.isfinite(model.weights))

    def test_model_save_load_round_trip(self, tmp_path):
        model = fit(SEPARABLE_2D, C=1.0, n_features=2)
        # The base is the path less one trailing ".json"; other dots stay.
        for path, base in [("svm", "svm"), ("svm.json", "svm"), ("svm.v2", "svm.v2"),
                           ("svm.json.json", "svm.json")]:
            written = model.save(tmp_path / path)
            assert written == (tmp_path / f"{base}.json", tmp_path / f"{base}.npy")
            loaded = LinearSvmModel.load(tmp_path / path)
            assert np.array_equal(loaded.weights, model.weights)
            assert loaded.bias == model.bias and loaded.C == model.C


def _reference_train(X, y, C, tol=1e-3, max_epochs=1000, gram=None):
    """The solver loop as first written: masks rebuilt and maxima taken by
    copy on every step, columns read from the Gram as given. The lean loop
    in ``train_svm`` must follow the same iterate path bit for bit.
    """
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    K = gram_matrix(X) if gram is None else gram
    diag = K.diagonal().copy()
    alpha = np.zeros(n)
    G = -np.ones(n)
    history = []
    warning = ""
    max_iterations = max_epochs * n
    pos = y > 0
    it = 0
    while True:
        v = -(y * G)
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (~pos & (alpha < C)) | (pos & (alpha > 0))
        m_val = np.max(v[up]) if up.any() else -np.inf
        M_val = np.min(v[low]) if low.any() else np.inf
        if m_val - M_val <= tol:
            break
        if it >= max_iterations:
            warning = (f"SVM did not reach tol={tol} within {max_epochs} epochs "
                       f"(violation {m_val - M_val:.3e}); returning best iterate")
            break
        i = int(np.argmax(np.where(up, v, -np.inf)))
        j = int(np.argmin(np.where(low, v, np.inf)))
        a = diag[i] + diag[j] - 2.0 * K[i, j]
        if a <= 1e-12:
            a = 1e-12
        t = (v[i] - v[j]) / a
        t_max = (C - alpha[i]) if pos[i] else alpha[i]
        t_max = min(t_max, alpha[j] if pos[j] else (C - alpha[j]))
        t = min(t, t_max)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        for k in (i, j):
            if alpha[k] < 1e-12:
                alpha[k] = 0.0
            elif alpha[k] > C - 1e-12:
                alpha[k] = C
        G += t * y * (K[:, i] - K[:, j])
        it += 1
        if it % n == 0:
            history.append(0.5 * float(alpha @ (G - 1.0)))
    dual = 0.5 * float(alpha @ (G - 1.0))
    history.append(dual)

    w = np.asarray(to_scipy(X).T @ (alpha * y)).ravel()
    v = y - np.asarray(to_scipy(X) @ w).ravel()
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (~pos & (alpha < C)) | (pos & (alpha > 0))
    m_val = np.max(v[up]) if up.any() else None
    M_val = np.min(v[low]) if low.any() else None
    if m_val is not None and M_val is not None:
        bias = 0.5 * (m_val + M_val)
    else:
        bias = m_val if m_val is not None else (M_val if M_val is not None else 0.0)
    return dict(alphas=alpha, iterations=it, objective_history=history, weights=w,
                bias=float(bias), warning=warning, dual_objective=dual)


def _count_instance(seed, n_docs=60, n_features=40):
    """Integer term counts with a planted label signal, as the families produce."""
    rng = np.random.default_rng(seed)
    y = np.where(np.arange(n_docs) % 2 == 0, 1, -1)
    rates = rng.uniform(0.05, 0.8, size=n_features)
    counts = rng.poisson(np.outer(np.ones(n_docs), rates))
    counts[:, :4] += rng.poisson(0.8, size=(n_docs, 4)) * (y[:, None] > 0)
    return from_scipy(counts), y


class TestLeanLoopEquivalence:
    """``train_svm`` against ``_reference_train``: every output bit-equal."""

    @staticmethod
    def assert_same_path(X, y, C, **kwargs):
        model = train_svm(X, y, C=C, **kwargs)
        ref = _reference_train(X, y, C, **kwargs)
        assert np.array_equal(model.meta.alphas, ref["alphas"])
        assert model.meta.iterations == ref["iterations"]
        assert model.meta.objective_history == ref["objective_history"]
        assert model.meta.dual_objective == ref["dual_objective"]
        assert np.array_equal(model.weights, ref["weights"])
        assert model.bias == ref["bias"]
        assert model.meta.warning == ref["warning"]
        assert model.meta.converged == (ref["warning"] == "")
        return model

    @pytest.mark.parametrize("seed,C", [(21, 0.05), (22, 1.0), (23, 10.0)])
    def test_signed_float_values(self, seed, C):
        X, y = labeled_matrix(_random_instance(seed=seed, n=50))
        assert (X.data < 0).any() and (X.data > 0).any()
        self.assert_same_path(X, y, C, tol=1e-5)

    @pytest.mark.parametrize("presence", [False, True])
    def test_counts_with_sliced_corpus_gram(self, presence):
        X, y = _count_instance(seed=31)
        if presence:
            X.data[:] = 1.0
        K = gram_matrix(X)
        folds = np.arange(X.shape[0]) % 5
        for fold in range(5):
            train = folds != fold
            gram = K[np.ix_(train, train)]
            self.assert_same_path(X.select_rows(train), y[train], 0.05, gram=gram)

    def test_epoch_capped_run(self):
        X, y = labeled_matrix(_random_instance(seed=3, n=60))
        model = self.assert_same_path(X, y, 10.0, tol=1e-12, max_epochs=1)
        assert not model.meta.converged and model.meta.iterations == 60

    def test_single_example_of_one_class(self):
        pts = _random_instance(seed=24, n=30)
        pts = [(pairs, -1) for pairs, _ in pts[1:]] + [(pts[0][0], 1)]
        X, y = labeled_matrix(pts)
        self.assert_same_path(X, y, 1.0)


class TestDualOracle:
    """SMO's dual objective against scipy's SLSQP on the same dual.

    Both minimize f(a) = (1/2) a'Qa - e'a, Q = (y y') * K, subject to
    y'a = 0 and 0 <= a <= C. SMO stops when the maximal violation
    m - M <= tol. With the bias b = (m + M) / 2, each example then adds at
    most C * tol / 2 to the duality gap (its residual is at most tol / 2
    and its weight alpha or C - alpha at most C), so
    f_smo - f* <= n * C * tol / 2. SLSQP's feasible point sits above f*,
    which bounds the difference from one side; from the other, SMO may
    undercut SLSQP only by SLSQP's own inaccuracy.
    """

    @pytest.mark.parametrize("seed,n,C", [
        (51, 12, 0.1), (52, 16, 1.0), (53, 20, 10.0),
        (54, 24, 0.5), (55, 28, 2.0), (56, 30, 0.05),
    ])
    def test_matches_slsqp(self, seed, n, C):
        from scipy.optimize import minimize

        tol = 1e-3
        X, y = labeled_matrix(_random_instance(seed=seed, n=n))
        model = train_svm(X, y, C=C, tol=tol)
        assert model.meta.converged
        yf = y.astype(np.float64)
        Q = np.outer(yf, yf) * gram_matrix(X)
        result = minimize(
            lambda a: 0.5 * a @ Q @ a - a.sum(), np.zeros(n), jac=lambda a: Q @ a - 1.0,
            method="SLSQP", bounds=[(0.0, C)] * n,
            constraints=[{"type": "eq", "fun": lambda a: yf @ a, "jac": lambda a: yf}],
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        assert result.success, result.message
        assert abs(yf @ result.x) <= 1e-8
        assert np.all(result.x >= -1e-10) and np.all(result.x <= C + 1e-10)
        bound = n * C * tol / 2
        assert model.meta.dual_objective - result.fun <= bound
        assert result.fun - model.meta.dual_objective <= 1e-6 * (1 + abs(result.fun))
