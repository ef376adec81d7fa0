"""Vocabulary pruning, count matrices and the file formats.

``column_mask`` and the matrix rows are checked against the bag-at-a-time
reference (``reference.build_vocabulary`` and ``reference.vectorize``).
"""

import tracemalloc
from collections import Counter
from itertools import compress
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import REAL_VALUES, csr_matrices, labeled_matrix, to_scipy
from polarity.errors import ConfigError, DataError, PolarityError
from polarity.vectorize import (
    MAX_FEATURE_ID,
    FeatureMatrix,
    Representation,
    column_mask,
    fit_columns,
    read_svmlight,
    represent,
    write_svmlight,
)
import reference
from reference import build_vocabulary, from_bags, vectorize


class TestBuildVocabulary:
    def test_boundary_count_five_included(self):
        bags = [Counter({"u:rare": 1})] * 5
        vocab = build_vocabulary(bags, min_count=5)
        assert "u:rare" in vocab

    def test_count_four_excluded(self):
        bags = [Counter({"u:rare": 1})] * 4 + [Counter({"u:common": 5})]
        vocab = build_vocabulary(bags, min_count=5)
        assert "u:rare" not in vocab and "u:common" in vocab

    def test_min_count_one_keeps_everything(self):
        bags = [Counter({"a": 1, "b": 2}), Counter({"c": 1})]
        vocab = build_vocabulary(bags, min_count=1)
        assert set(vocab) == {"a", "b", "c"}

    def test_ids_lexicographic_and_dense(self):
        vocab = build_vocabulary([Counter({"b": 1, "a": 1, "c": 1})], min_count=1)
        assert vocab == {"a": 0, "b": 1, "c": 2}

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
        assert pairs(vec) == [(vocab["u:good"], 1.0)]

    def test_frequency_keeps_counts(self, vocab):
        vec = vectorize(Counter({"u:good": 3}), vocab, Representation.FREQUENCY)
        assert pairs(vec) == [(vocab["u:good"], 3.0)]

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
    assert X.indices.dtype == np.int32 and y.dtype == np.int64
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


def svmlight_texts_with(ids):
    """Short svmlight-like files, well formed or not, whose pairs take their ids from *ids*."""
    fields = st.one_of(
        st.sampled_from(["+1", "-1", "0", "7", "#", "1:", ":1"]),
        st.builds("{}:{}".format, ids, st.floats() | st.integers() | st.text(max_size=3)),
        st.text(max_size=5),
    )
    return st.lists(st.lists(fields, max_size=5).map(" ".join),
                    max_size=5).map("\n".join).map(str.encode)


svmlight_texts = svmlight_texts_with(
    st.integers() | st.just(MAX_FEATURE_ID) | st.just(MAX_FEATURE_ID + 1))


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


def _read_or_error(read, path):
    """(matrix, labels) of *read* on *path*, or the message of the PolarityError it raised."""
    try:
        return read(path)
    except PolarityError as exc:
        return f"{type(exc).__name__}: {exc}"


# Files past the reader's 8 KiB decode chunk: two parts split by a long comment
# that ends in a two-byte character, which some lengths split across chunks.
long_svmlight_files = st.tuples(
    svmlight_texts, st.integers(8150, 8250) | st.integers(0, 9000),
    st.binary(max_size=30) | svmlight_texts,
).map(lambda parts: parts[0] + b"\n#" + b"x" * parts[1] + "\u00e9".encode() + b"\n" + parts[2])


@settings(max_examples=300, deadline=None)
@given(svmlight_texts | st.binary() | long_svmlight_files)
def test_streaming_reader_matches_the_whole_file_reader(tmp_path_factory, content):
    """The line-at-a-time reader gives the whole-file reader's matrix and labels, or
    its error message. Decoding runs ahead of parsing by at most a chunk, so where
    the whole-file reader finds bad UTF-8 first, the streaming one may instead stop
    at an error on a line before the bad bytes: the one the whole-file reader finds
    in the lines before them."""
    path = tmp_path_factory.getbasetemp() / "stream.svml"
    path.write_bytes(content)
    got, want = _read_or_error(read_svmlight, path), _read_or_error(reference.read_svmlight, path)
    if isinstance(want, tuple) and isinstance(got, tuple):
        assert_same_rows(got, want)
        assert got[0].shape == want[0].shape
        return
    if got != want:
        assert isinstance(want, str) and ": not UTF-8 text (" in want, (got, want)
        try:
            content.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = content[:exc.start]
        path.write_bytes(before[:max(before.rfind(b"\n"), before.rfind(b"\r")) + 1])
        assert got == _read_or_error(reference.read_svmlight, path)


def test_bad_pair_before_bad_bytes_is_reported(tmp_path):
    """A bad pair on line 2 ends the read before bad bytes on line 50, 8 KiB further on."""
    path = tmp_path / "v.svml"
    lines = [b"+1 1:1", b"-1 2:x"] + [b"# " + b"x" * 200] * 47 + [b"+1 1:\xff"]
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(DataError, match=r"v.svml:2: bad pair '2:x'"):
        read_svmlight(path)
    with pytest.raises(DataError, match="not UTF-8 text"):
        reference.read_svmlight(path)


def test_reading_peaks_near_the_size_of_the_result(tmp_path):
    """Reading holds little beside the matrix and labels it returns, where reading
    the whole file first holds its text and int64 ids as well."""
    rng = np.random.default_rng(0)
    path = tmp_path / "v.svml"
    with open(path, "w", encoding="utf-8") as fh:
        for row in range(400):
            ids = np.sort(rng.choice(np.arange(1, 5000), size=50, replace=False))
            pairs = " ".join(f"{i}:{v}" for i, v in zip(ids.tolist(), rng.integers(1, 4, 50)))
            fh.write(f"{'+1' if row % 2 else '-1'} {pairs}\n")

    def peak_over_result(read):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            X, labels = read(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return peak / (X.data.nbytes + X.indices.nbytes + X.indptr.nbytes + labels.nbytes)

    assert peak_over_result(read_svmlight) < 1.5 < peak_over_result(reference.read_svmlight)


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
    matrix = from_bags(bags)
    chosen = [bag for bag, keep in zip(bags, rows) if keep]
    try:
        expected = build_vocabulary(chosen, min_count=min_count)
    except DataError as exc:
        with pytest.raises(DataError, match="vocabulary is empty") as caught:
            column_mask(matrix.counts.select_rows(rows), min_count)
        assert str(caught.value) == str(exc)
        return
    mask = column_mask(matrix.counts.select_rows(rows), min_count)
    assert list(compress(matrix.features, mask)) == list(expected)


@given(bag_lists)
def test_matrix_rows_match_vectorize(bags):
    """Each masked, represented row holds exactly its bag's vectorized pairs."""
    matrix = from_bags(bags)
    if not any(bags):
        with pytest.raises(DataError, match="vocabulary is empty"):
            column_mask(matrix.counts, 1)
        return
    mask = column_mask(matrix.counts, 1)
    vocab = {f: i for i, f in enumerate(compress(matrix.features, mask))}
    for rep in Representation:
        X = represent(matrix.counts.select_columns(mask), rep)
        for i, bag in enumerate(bags):
            assert pairs(to_scipy(X)[i]) == pairs(vectorize(bag, vocab, rep))


def test_union_columns_in_lexicographic_order():
    unigrams = from_bags([Counter({"u:zeta": 1, "u:alpha": 2}), Counter({"u:mid": 1})])
    trigrams = from_bags([Counter({"t:a_b_c": 1}), Counter({"t:z_z_z": 3})])
    transitions = from_bags([Counter(), Counter({"tr:but_good": 1})])
    empty = from_bags([Counter(), Counter()])
    union = FeatureMatrix.union([unigrams, empty, transitions, trigrams])
    assert union.features == sorted(unigrams.features + trigrams.features
                                    + transitions.features)
    assert union.features == ["t:a_b_c", "t:z_z_z", "tr:but_good", "u:alpha", "u:mid", "u:zeta"]
    dense = to_scipy(union.counts).toarray()
    assert dense.tolist() == [[1, 0, 0, 2, 0, 1], [0, 3, 1, 0, 1, 0]]
    for i in range(union.counts.shape[0]):
        row = to_scipy(union.counts)[i].indices.tolist()
        assert row == sorted(row)


def test_union_rejects_interleaved_features():
    a = from_bags([Counter({"u:a": 1, "u:c": 1})])
    b = from_bags([Counter({"u:b": 1})])
    with pytest.raises(ValueError, match="overlap"):
        FeatureMatrix.union([a, b])


def assert_same_matrix(X, A):
    """*X* holds exactly the entries of SciPy's *A*, each row's columns ascending."""
    assert X.shape == A.shape
    assert X.data.dtype == np.float64 and X.indices.dtype == np.int32
    assert len(X.indptr) == X.shape[0] + 1 and X.indptr[-1] == X.nnz
    assert (to_scipy(X) != A).nnz == 0
    assert not (X.data == 0).any()
    for lo, hi in zip(X.indptr[:-1].tolist(), X.indptr[1:].tolist()):
        assert (np.diff(X.indices[lo:hi]) > 0).all()


@given(csr_matrices(), st.data())
def test_products_match_scipy(X, data):
    """``X @ w`` and ``X.T @ v``, bit for bit, also per column of a two-column product."""
    A = to_scipy(X)
    n, m = X.shape
    w, v = (data.draw(arrays(np.float64, shape, elements=REAL_VALUES))
            for shape in [(m,), (n,)])
    W, Y = (data.draw(arrays(np.float64, shape, elements=REAL_VALUES))
            for shape in [(m, 2), (n, 2)])
    assert np.array_equal(X.matmul(w), A @ w)
    assert np.array_equal(X.rmatmul(v), A.T @ v)
    for k in range(2):  # one column at a time, the bits of SciPy's multi-vector kernels
        assert np.array_equal(X.matmul(W[:, k]), (A @ W)[:, k])
        assert np.array_equal(X.rmatmul(Y[:, k]), (A.T @ Y)[:, k])


@given(csr_matrices(), st.data())
def test_row_and_column_selection_match_scipy(X, data):
    n, m = X.shape
    rows = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    columns = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=bool)
    A = to_scipy(X)
    assert_same_matrix(X.select_rows(rows), A[np.flatnonzero(rows)])
    assert_same_matrix(X.select_columns(columns), A[:, np.flatnonzero(columns)])
    width = data.draw(st.integers(0, m + 2))
    expected = A[:, :width] if width <= m else sp.hstack([A, sp.csr_matrix((n, width - m))])
    assert_same_matrix(fit_columns(X, width), sp.csr_matrix(expected))


@given(csr_matrices(), st.data())
def test_union_matches_hstack(X, data):
    """Column blocks of *X*, given in any order, put back side by side."""
    m = X.shape[1]
    bounds = [0, *sorted(data.draw(st.lists(st.integers(0, m), max_size=3))), m]
    parts = [FeatureMatrix(counts=X.select_columns((np.arange(m) >= lo) & (np.arange(m) < hi)),
                           features=[f"{k}:{j}" for j in range(lo, hi)])
             for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    union = FeatureMatrix.union(data.draw(st.permutations(parts)))
    if m:
        assert union.features == [f for part in parts for f in part.features]
        assert_same_matrix(union.counts, sp.hstack([to_scipy(p.counts) for p in parts],
                                                   format="csr"))


@given(st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=6))
def test_from_occurrences_sums_duplicates_like_scipy(rows):
    indptr = np.cumsum([0] + [len(row) for row in rows])
    columns = np.array([c for row in rows for c in row], dtype=np.int32)
    matrix = FeatureMatrix.from_occurrences(indptr, columns, [f"u:{j}" for j in range(6)])
    expected = sp.csr_matrix((np.ones(len(columns)), columns, indptr), shape=(len(rows), 6))
    expected.sum_duplicates()
    assert_same_matrix(matrix.counts, expected)
    assert np.array_equal(matrix.counts.data, expected.data)


@given(st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=6), st.integers(0, 40))
def test_from_occurrences_is_the_same_with_int64_cells(rows, limit):
    """Cells ``row * width + column`` are int32 up to ``_INT32_LIMIT`` and int64
    past it; a lowered limit (here around ``rows * 6``) gives the same matrix."""
    indptr = np.cumsum([0] + [len(row) for row in rows])
    columns = np.array([c for row in rows for c in row], dtype=np.int32)
    names = [f"u:{j}" for j in range(6)]
    expected = FeatureMatrix.from_occurrences(indptr, columns, names).counts
    with mock.patch("polarity.vectorize._INT32_LIMIT", limit):
        counts = FeatureMatrix.from_occurrences(indptr, columns, names).counts
    for name in ("data", "indices", "indptr"):
        assert getattr(counts, name).dtype == getattr(expected, name).dtype
        assert np.array_equal(getattr(counts, name), getattr(expected, name))
    assert counts.shape == expected.shape


def test_presence_binarizes_a_copy():
    matrix = from_bags([Counter({"u:a": 3, "u:b": 1})])
    presence = represent(matrix.counts, Representation.PRESENCE)
    assert presence.data.tolist() == [1.0, 1.0]
    assert matrix.counts.data.tolist() == [3.0, 1.0]
