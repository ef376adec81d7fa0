"""Vocabulary pruning, one-row vectors and count matrices, and the file formats."""

from collections import Counter
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import labeled_matrix
from polarity.errors import ConfigError, DataError, PolarityError
from polarity.vectorize import (
    MAX_FEATURE_ID,
    FeatureMatrix,
    Representation,
    Vocabulary,
    build_vocabulary,
    column_mask,
    read_svmlight,
    represent,
    vectorize,
    write_svmlight,
)


class TestBuildVocabulary:
    def test_boundary_count_five_included(self):
        bags = [Counter({"u:rare": 1})] * 5
        vocab = build_vocabulary(bags, min_count=5)
        assert "u:rare" in vocab.index

    def test_count_four_excluded(self):
        bags = [Counter({"u:rare": 1})] * 4 + [Counter({"u:common": 5})]
        vocab = build_vocabulary(bags, min_count=5)
        assert "u:rare" not in vocab.index and "u:common" in vocab.index

    def test_min_count_one_keeps_everything(self):
        bags = [Counter({"a": 1, "b": 2}), Counter({"c": 1})]
        vocab = build_vocabulary(bags, min_count=1)
        assert set(vocab.index) == {"a", "b", "c"}

    def test_ids_lexicographic_and_dense(self):
        vocab = build_vocabulary([Counter({"b": 1, "a": 1, "c": 1})], min_count=1)
        assert vocab.index == {"a": 0, "b": 1, "c": 2}

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(DataError, match="threshold"):
            build_vocabulary([Counter({"a": 1})], min_count=5)


def pairs(row):
    """(column, value) pairs of a one-row CSR matrix."""
    return list(zip(row.indices.tolist(), row.data.tolist()))


class TestVectorize:
    @pytest.fixture()
    def vocab(self):
        return build_vocabulary([Counter({"u:good": 1, "u:fun": 1})], min_count=1)

    def test_presence_binarizes(self, vocab):
        vec = vectorize(Counter({"u:good": 3}), vocab, Representation.PRESENCE)
        assert pairs(vec) == [(vocab.index["u:good"], 1.0)]

    def test_frequency_keeps_counts(self, vocab):
        vec = vectorize(Counter({"u:good": 3}), vocab, Representation.FREQUENCY)
        assert pairs(vec) == [(vocab.index["u:good"], 3.0)]

    def test_oov_dropped(self, vocab):
        vec = vectorize(Counter({"u:unseen": 2}), vocab, Representation.FREQUENCY)
        assert len(vec.indices) == 0

    def test_ids_strictly_increasing(self, vocab):
        vec = vectorize(Counter({"u:good": 1, "u:fun": 2}), vocab, Representation.FREQUENCY)
        assert list(vec.indices) == sorted(set(vec.indices.tolist()))


bags = st.dictionaries(
    st.sampled_from([f"u:w{i}" for i in range(12)]),
    st.integers(min_value=1, max_value=9),
    max_size=8,
)


@given(bags)
def test_adding_occurrences_never_drops_pairs(bag_dict):
    bag = Counter(bag_dict)
    if not bag:
        return
    vocab = build_vocabulary([bag], min_count=1)
    before = set(vectorize(bag, vocab, Representation.FREQUENCY).indices.tolist())
    grown = bag + Counter({next(iter(bag)): 1})
    after = set(vectorize(grown, vocab, Representation.FREQUENCY).indices.tolist())
    assert before <= after


@given(bags)
def test_presence_equals_clamped_frequency(bag_dict):
    bag = Counter(bag_dict)
    vocab = build_vocabulary([bag], min_count=1) if bag else None
    if vocab is None:
        return
    presence = vectorize(bag, vocab, Representation.PRESENCE)
    frequency = vectorize(bag, vocab, Representation.FREQUENCY)
    assert np.array_equal(presence.indices, frequency.indices)
    assert np.array_equal(presence.data, np.minimum(frequency.data, 1.0))


rows_strategy = st.lists(
    st.tuples(
        st.sets(st.integers(min_value=0, max_value=40), max_size=6).map(
            lambda idx: [(i, float(k + 1)) for k, i in enumerate(sorted(idx))]),
        st.sampled_from([1, -1, None]),
    ),
    max_size=6,
)


def assert_same_rows(got, want):
    (X, y), (X_want, y_want) = got, want
    assert np.array_equal(y, y_want)
    assert X.shape[0] == X_want.shape[0]
    assert np.array_equal(X.indptr, X_want.indptr)
    assert np.array_equal(X.indices, X_want.indices)
    assert np.array_equal(X.data, X_want.data)


@given(rows_strategy)
def test_svmlight_round_trip(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("svml") / "v.svml"
    X, y = labeled_matrix(rows)
    write_svmlight(X, path, y)
    assert_same_rows(read_svmlight(path), (X, y))


class TestSvmlightFormat:
    def test_exact_lines(self, tmp_path):
        X, y = labeled_matrix([
            ([(0, 1.0), (4, 2.5)], 1),
            ([(2, 1.0)], -1),
            ([], None),
        ])
        path = tmp_path / "v.svml"
        write_svmlight(X, path, y)
        assert path.read_text() == "+1 1:1 5:2.5\n-1 3:1\n0\n"

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "v.svml"
        path.write_text("# header\n\n+1 1:1\n")
        X, y = read_svmlight(path)
        assert y.tolist() == [1]
        assert X.indices.tolist() == [0] and X.data.tolist() == [1.0]

    def test_bad_pair_reports_location(self, tmp_path):
        path = tmp_path / "v.svml"
        path.write_text("+1 1:one\n")
        with pytest.raises(DataError, match="bad pair"):
            read_svmlight(path)

    def test_nonascending_ids_rejected(self, tmp_path):
        path = tmp_path / "v.svml"
        path.write_text("+1 3:1 2:1\n")
        with pytest.raises(DataError, match="ascending"):
            read_svmlight(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_values_rejected(self, tmp_path, value):
        path = tmp_path / "v.svml"
        path.write_text(f"+1 1:1\n-1 2:{value}\n")
        with pytest.raises(DataError, match=r"v.svml:2: .*not finite"):
            read_svmlight(path)

    def test_missing_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_svmlight(tmp_path / "absent.svml")

    def test_feature_id_bound(self, tmp_path):
        path = tmp_path / "v.svml"
        path.write_text(f"+1 1:1 {MAX_FEATURE_ID}:1\n")
        X, _ = read_svmlight(path)
        assert X.shape == (1, MAX_FEATURE_ID)
        path.write_text(f"+1 1:1\n-1 2:1 {MAX_FEATURE_ID + 1}:1\n")
        with pytest.raises(DataError, match=r"v.svml:2: feature id .* exceeds the limit"):
            read_svmlight(path)


svmlight_fields = st.one_of(
    st.sampled_from(["+1", "-1", "0", "7", "#", "1:", ":1"]),
    st.builds("{}:{}".format,
              st.integers() | st.just(MAX_FEATURE_ID) | st.just(MAX_FEATURE_ID + 1),
              st.floats() | st.integers() | st.text(max_size=3)),
    st.text(max_size=5),
)
svmlight_texts = st.lists(st.lists(svmlight_fields, max_size=5).map(" ".join),
                          max_size=5).map("\n".join).map(str.encode)


@settings(max_examples=300, deadline=None)
@given(svmlight_texts | st.binary(max_size=30))
def test_read_svmlight_fails_cleanly_or_reads_finite_values(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.svml"
    path.write_bytes(content)
    try:
        X, labels = read_svmlight(path)
    except PolarityError:
        return
    assert X.shape == (len(labels), X.shape[1]) and X.shape[1] <= MAX_FEATURE_ID
    assert set(labels.tolist()) <= {-1, 0, 1}
    assert np.isfinite(X.data).all() and np.all(X.data != 0)


# --- count matrices against the bag reference ------------------------------

bag_lists = st.lists(
    st.dictionaries(st.sampled_from([f"u:w{i}" for i in range(10)] + ["b:x_y", "t:a_b_c"]),
                    st.integers(min_value=1, max_value=4), max_size=6).map(Counter),
    min_size=1, max_size=8,
)


@given(bag_lists, st.integers(min_value=-1, max_value=6), st.data())
def test_column_mask_matches_build_vocabulary(bags, min_count, data):
    """Pruning a row subset by column mask gives build_vocabulary's vocabulary."""
    rows = data.draw(st.lists(st.booleans(), min_size=len(bags), max_size=len(bags)))
    rows = np.array(rows, dtype=bool)
    matrix = FeatureMatrix.from_bags(bags)
    chosen = [bag for bag, keep in zip(bags, rows) if keep]
    try:
        expected = build_vocabulary(chosen, min_count=min_count)
    except DataError as exc:
        with pytest.raises(DataError, match="vocabulary is empty") as caught:
            column_mask(matrix.counts[rows], min_count)
        assert str(caught.value) == str(exc)
        return
    mask = column_mask(matrix.counts[rows], min_count)
    assert list(compress(matrix.features, mask)) == list(expected.index)


@given(bag_lists)
def test_matrix_rows_match_vectorize(bags):
    """Each masked, represented row holds exactly its bag's vectorized pairs."""
    matrix = FeatureMatrix.from_bags(bags)
    if not any(bags):
        with pytest.raises(DataError, match="vocabulary is empty"):
            column_mask(matrix.counts, 1)
        return
    mask = column_mask(matrix.counts, 1)
    vocab = Vocabulary(index={f: i for i, f in enumerate(compress(matrix.features, mask))})
    for rep in Representation:
        X = represent(matrix.counts[:, mask], rep)
        for i, bag in enumerate(bags):
            assert pairs(X[i]) == pairs(vectorize(bag, vocab, rep))


def test_union_columns_in_lexicographic_order():
    unigrams = FeatureMatrix.from_bags([Counter({"u:zeta": 1, "u:alpha": 2}), Counter({"u:mid": 1})])
    trigrams = FeatureMatrix.from_bags([Counter({"t:a_b_c": 1}), Counter({"t:z_z_z": 3})])
    transitions = FeatureMatrix.from_bags([Counter(), Counter({"tr:but_good": 1})])
    empty = FeatureMatrix.from_bags([Counter(), Counter()])
    union = FeatureMatrix.union([unigrams, empty, transitions, trigrams])
    assert union.features == sorted(unigrams.features + trigrams.features
                                    + transitions.features)
    assert union.features == ["t:a_b_c", "t:z_z_z", "tr:but_good", "u:alpha", "u:mid", "u:zeta"]
    dense = union.counts.toarray()
    assert dense.tolist() == [[1, 0, 0, 2, 0, 1], [0, 3, 1, 0, 1, 0]]
    for i in range(union.counts.shape[0]):
        row = union.counts[i].indices.tolist()
        assert row == sorted(row)


def test_union_rejects_interleaved_features():
    a = FeatureMatrix.from_bags([Counter({"u:a": 1, "u:c": 1})])
    b = FeatureMatrix.from_bags([Counter({"u:b": 1})])
    with pytest.raises(ValueError, match="overlap"):
        FeatureMatrix.union([a, b])


def test_presence_binarizes_a_copy():
    matrix = FeatureMatrix.from_bags([Counter({"u:a": 3, "u:b": 1})])
    presence = represent(matrix.counts, Representation.PRESENCE)
    assert presence.data.tolist() == [1.0, 1.0]
    assert matrix.counts.data.tolist() == [3.0, 1.0]
