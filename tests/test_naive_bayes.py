"""Naive Bayes against hand-computed values and a brute-force posterior oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import COUNT_VALUES, csr_matrices, labeled_matrix, to_scipy
from polarity.errors import DataError
from polarity.naive_bayes import NaiveBayesModel, predict_nb, train_nb


def sv(pairs, label=None):
    return sorted(pairs), label


def fit(vectors, vocab_size=None):
    return train_nb(*labeled_matrix(vectors, vocab_size))


def predict_one(model, vec):
    labels, log_odds = predict_nb(model, labeled_matrix([vec])[0])
    return int(labels[0]), float(log_odds[0])


@pytest.fixture()
def toy_model():
    # vocab (lexicographic): bad=0, dull=1, fun=2, good=3
    train = [
        sv([(3, 1)], 1),
        sv([(3, 1), (2, 1)], 1),
        sv([(0, 1)], -1),
        sv([(0, 1), (1, 1)], -1),
    ]
    return fit(train, vocab_size=4), train


class TestTrain:
    def test_balanced_priors(self, toy_model):
        model, _ = toy_model
        assert model.class_log_prior[1] == pytest.approx(math.log(0.5), abs=1e-12)
        assert model.class_log_prior[-1] == pytest.approx(math.log(0.5), abs=1e-12)

    def test_hand_computed_smoothing(self, toy_model):
        model, _ = toy_model
        # class + mass = 3 occurrences, V = 4: P(good|+) = (2+1)/(3+4)
        assert math.exp(model.feature_log_likelihood[1][3]) == pytest.approx(3 / 7, abs=1e-12)
        assert math.exp(model.feature_log_likelihood[1][2]) == pytest.approx(2 / 7, abs=1e-12)
        assert math.exp(model.feature_log_likelihood[-1][3]) == pytest.approx(1 / 7, abs=1e-12)

    def test_unseen_feature_stays_positive(self, toy_model):
        model, _ = toy_model
        # "fun" never occurs in class -: smoothed to 1/(3+4)
        assert math.exp(model.feature_log_likelihood[-1][2]) == pytest.approx(1 / 7, abs=1e-12)
        for c in (1, -1):
            assert np.all(np.isfinite(model.feature_log_likelihood[c]))

    def test_likelihoods_normalize(self, toy_model):
        model, _ = toy_model
        for c in (1, -1):
            assert np.exp(model.feature_log_likelihood[c]).sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="both classes"):
            fit([sv([(0, 1)], 1), sv([(1, 1)], 1)])

    def test_unlabeled_rejected(self):
        with pytest.raises(DataError, match="label"):
            fit([sv([(0, 1)], 1), sv([(1, 1)], None)])

    def test_negative_values_rejected(self):
        # a negative class mass has no logarithm
        with pytest.raises(DataError, match="values of 0 or more"):
            fit([sv([(0, -5.0)], 1), sv([(0, 1.0)], -1)])

    def test_overflowing_class_mass_rejected(self):
        with pytest.raises(DataError, match="feature mass of class -1 overflows"):
            fit([sv([(0, 1.0)], 1), sv([(0, 1e308), (1, 1e308)], -1)])


class TestPredict:
    def test_good_goes_positive(self, toy_model):
        model, _ = toy_model
        label, log_odds = predict_one(model, sv([(3, 1)]))
        assert label == 1
        assert log_odds == pytest.approx(math.log(3 / 7) - math.log(1 / 7), abs=1e-9)

    def test_empty_vector_ties_to_positive(self, toy_model):
        model, _ = toy_model
        label, log_odds = predict_one(model, sv([]))
        assert label == 1 and log_odds == 0.0

    def test_training_points_recovered(self, toy_model):
        model, train = toy_model
        for vec in train:
            assert predict_one(model, vec)[0] == vec[1]

    def test_score_additivity_against_loop(self, toy_model):
        model, _ = toy_model
        vec = sv([(0, 2), (2, 1), (3, 3)])
        _, log_odds = predict_one(model, vec)
        expected = model.class_log_prior[1] - model.class_log_prior[-1]
        for fid, value in vec[0]:
            expected += value * (
                model.feature_log_likelihood[1][fid] - model.feature_log_likelihood[-1][fid]
            )
        assert log_odds == pytest.approx(expected, abs=1e-9)

    def test_monotone_in_positive_feature(self, toy_model):
        model, _ = toy_model
        # good has higher likelihood under +, so more of it never lowers the odds
        previous = -math.inf
        for count in range(1, 6):
            _, log_odds = predict_one(model, sv([(3, count)]))
            assert log_odds >= previous
            previous = log_odds

    def test_permutation_invariance(self):
        train = [sv([(0, 1), (2, 2)], 1), sv([(1, 3)], -1),
                 sv([(0, 2)], 1), sv([(1, 1), (2, 1)], -1)]
        perm = {0: 2, 1: 0, 2: 1}
        permuted = [sv([(perm[i], v) for i, v in pairs], label) for pairs, label in train]
        model = fit(train, vocab_size=3)
        model_p = fit(permuted, vocab_size=3)
        test = sv([(0, 1), (1, 1)])
        test_p = sv([(perm[0], 1), (perm[1], 1)])
        assert predict_one(model, test) == pytest.approx(predict_one(model_p, test_p))


def test_matrix_predict_matches_hand_oracle(toy_model):
    """One call over several rows gives each row's hand-computed log-odds."""
    model, _ = toy_model
    rows = [sv([(3, 1)]), sv([(0, 2), (1, 1)]), sv([]), sv([(2, 1), (5, 4)])]
    labels, log_odds = predict_nb(model, labeled_matrix(rows)[0])
    # add-one over class mass 3 plus V = 4, for bad, dull, fun, good
    pos = [1 / 7, 1 / 7, 2 / 7, 3 / 7]
    neg = [3 / 7, 2 / 7, 1 / 7, 1 / 7]
    expected = [
        math.log(pos[3] / neg[3]),
        2 * math.log(pos[0] / neg[0]) + math.log(pos[1] / neg[1]),
        0.0,
        math.log(pos[2] / neg[2]),  # id 5 lies outside the model's vocabulary
    ]
    assert log_odds == pytest.approx(expected, abs=1e-12)
    assert labels.tolist() == [1, -1, 1, 1]


small_instances = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)),
                 max_size=5, unique_by=lambda t: t[0]),
        st.sampled_from([1, -1]),
    ),
    min_size=2, max_size=8,
).filter(lambda rows: {label for _, label in rows} == {1, -1})


@given(small_instances, st.lists(st.tuples(st.integers(0, 7), st.integers(1, 3)),
                                 max_size=5, unique_by=lambda t: t[0]))
def test_posterior_matches_brute_force(rows, test_pairs):
    """exp-normalized scores equal P(c) prod P(f|c)^v / evidence, computed naively."""
    train = [sv(pairs, label) for pairs, label in rows]
    model = fit(train, vocab_size=8)
    vec = sv(test_pairs)
    _, log_odds = predict_one(model, vec)

    def naive_joint(c):
        counts = [0.0] * 8
        mass = 0.0
        for pairs, label in rows:
            if label != c:
                continue
            for fid, value in pairs:
                counts[fid] += value
                mass += value
        n_c = sum(1 for _, label in rows if label == c)
        joint = n_c / len(rows)
        for fid, value in sorted(test_pairs):
            joint *= ((counts[fid] + 1) / (mass + 8)) ** value
        return joint

    jp, jn = naive_joint(1), naive_joint(-1)
    posterior = jp / (jp + jn)
    from_scores = 1.0 / (1.0 + math.exp(-log_odds))
    assert from_scores == pytest.approx(posterior, abs=1e-9)


def test_model_json_round_trip(tmp_path, toy_model):
    model, _ = toy_model
    # The file is the path less one trailing ".json", plus ".json".
    for path, written in [("model.json", "model.json"), ("model", "model.json"),
                          ("model.v2", "model.v2.json")]:
        assert model.save(tmp_path / path) == tmp_path / written
        loaded = NaiveBayesModel.load(tmp_path / path)
        assert loaded.vocab_size == model.vocab_size
        assert loaded.class_log_prior == model.class_log_prior
        for c in (1, -1):
            assert np.array_equal(loaded.feature_log_likelihood[c],
                                  model.feature_log_likelihood[c])


@given(csr_matrices(min_rows=2, min_columns=1, value_sets=(COUNT_VALUES,)), st.data())
def test_train_and_predict_match_scipy_products(X, data):
    """Per-class masses ``X.T @ Y`` and scores ``X @ W``, bit for bit."""
    n, vocab_size = X.shape
    y = np.array([1, -1] + data.draw(st.lists(st.sampled_from([1, -1]), min_size=n - 2,
                                              max_size=n - 2)))
    model = train_nb(X, y)
    A = to_scipy(X)
    mass = np.asarray(A.T @ np.column_stack([y == 1, y == -1]).astype(np.float64))
    for k, c in enumerate((1, -1)):
        expected = np.log(mass[:, k] + 1.0) - math.log(mass[:, k].sum() + vocab_size)
        assert np.array_equal(model.feature_log_likelihood[c], expected)
    _, log_odds = predict_nb(model, X)
    scores = np.asarray(A @ np.column_stack([model.feature_log_likelihood[c] for c in (1, -1)]))
    prior = model.class_log_prior
    assert np.array_equal(log_odds, (prior[1] + scores[:, 0]) - (prior[-1] + scores[:, 1]))
