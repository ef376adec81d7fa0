"""Corpus loading, fold assignment, and statistics."""

import pytest

from polarity.corpus import (
    Corpus,
    Label,
    N_FOLDS,
    assign_folds,
    compute_stats,
    load_corpus,
)
from polarity.errors import ConfigError, DataError
from polarity.preprocess import preprocess_document


def _write_tree(root, pos=(), neg=()):
    for name, text in pos:
        (root / "pos").mkdir(exist_ok=True, parents=True)
        (root / "pos" / name).write_text(text, encoding="utf-8")
    for name, text in neg:
        (root / "neg").mkdir(exist_ok=True, parents=True)
        (root / "neg" / name).write_text(text, encoding="utf-8")


class TestLoadCorpus:
    def test_singleton(self, tmp_path):
        _write_tree(tmp_path, pos=[("a.txt", "fine film\n")], neg=[("b.txt", "bad film\n")])
        corpus = load_corpus(tmp_path)
        assert len(corpus) == 2
        (a,) = [d for d in corpus.documents if d.label is Label.POSITIVE]
        assert a.id == "a" and a.text == "fine film\n"

    def test_missing_neg_dir(self, tmp_path):
        _write_tree(tmp_path, pos=[("a.txt", "x")])
        with pytest.raises(ConfigError, match="neg/ missing or empty"):
            load_corpus(tmp_path)

    def test_empty_pos_dir(self, tmp_path):
        (tmp_path / "pos").mkdir()
        _write_tree(tmp_path, neg=[("b.txt", "x")])
        with pytest.raises(ConfigError, match="pos/ missing or empty"):
            load_corpus(tmp_path)

    def test_missing_root(self, tmp_path):
        with pytest.raises(ConfigError):
            load_corpus(tmp_path / "nowhere")

    def test_duplicate_id_across_labels(self, tmp_path):
        _write_tree(tmp_path, pos=[("same.txt", "x")], neg=[("same.txt", "y")])
        with pytest.raises(DataError, match="duplicate"):
            load_corpus(tmp_path)

    def test_deterministic_ordering(self, synth_corpus_dir):
        first = load_corpus(synth_corpus_dir)
        second = load_corpus(synth_corpus_dir)
        assert first.documents == second.documents
        ids = [d.id for d in first.documents]
        assert ids == sorted(ids)

    def test_latin1_fallback(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "pos" / "a.txt").write_bytes(b"caf\xe9 scene\n")
        _write_tree(tmp_path, neg=[("b.txt", "x")])
        corpus = load_corpus(tmp_path)
        doc = [d for d in corpus.documents if d.id == "a"][0]
        assert "café" in doc.text


    def test_byte_order_mark_dropped(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "pos" / "a.txt").write_bytes("fine film\n".encode("utf-8-sig"))
        _write_tree(tmp_path, neg=[("b.txt", "x")])
        corpus = load_corpus(tmp_path)
        doc = [d for d in corpus.documents if d.id == "a"][0]
        assert preprocess_document(doc).sentences[0].words[0] == "fine"


class TestAssignFolds:
    def test_filename_prefix_fold_zero(self, tmp_path):
        _write_tree(tmp_path, pos=[("cv000_29416.txt", "x")], neg=[("cv000_11111.txt", "y")])
        corpus = assign_folds(load_corpus(tmp_path))
        assert corpus.folds["cv000_29416"] == 0

    def test_filename_prefix_fold_four(self, tmp_path):
        _write_tree(tmp_path, pos=[("cv999_14636.txt", "x")], neg=[("cv999_22222.txt", "y")])
        corpus = assign_folds(load_corpus(tmp_path))
        assert corpus.folds["cv999_14636"] == 4

    def test_filename_requires_convention(self, tmp_path):
        _write_tree(tmp_path, pos=[("review1.txt", "x")], neg=[("review2.txt", "y")])
        with pytest.raises(DataError, match="seeded"):
            assign_folds(load_corpus(tmp_path), mode="filename")

    def test_seeded_is_deterministic(self, synth_corpus_dir):
        corpus = load_corpus(synth_corpus_dir)
        first = assign_folds(corpus, mode="seeded", seed=7)
        second = assign_folds(corpus, mode="seeded", seed=7)
        assert first.folds == second.folds

    def test_seeded_differs_across_seeds(self, synth_corpus_dir):
        corpus = load_corpus(synth_corpus_dir)
        assert assign_folds(corpus, mode="seeded", seed=1).folds != \
            assign_folds(corpus, mode="seeded", seed=2).folds

    @pytest.mark.parametrize("mode,seed", [("filename", 0), ("seeded", 3)])
    def test_fold_partition_invariants(self, synth_corpus, synth_corpus_dir, mode, seed):
        corpus = assign_folds(load_corpus(synth_corpus_dir), mode=mode, seed=seed)
        assert set(corpus.folds) == {d.id for d in corpus.documents}
        for label in Label:
            sizes = [0] * N_FOLDS
            for doc in corpus.by_label(label):
                sizes[corpus.folds[doc.id]] += 1
            assert max(sizes) - min(sizes) <= 1

    def test_unknown_mode(self, synth_corpus):
        with pytest.raises(ConfigError):
            assign_folds(synth_corpus, mode="alphabetical")


class TestComputeStats:
    def test_hand_counted(self, tmp_path):
        _write_tree(
            tmp_path,
            pos=[("cv000_1.txt", "a good, good film !\n\nreally good\n")],
            neg=[("cv200_2.txt", "it isn't fun\n")],
        )
        stats = compute_stats(load_corpus(tmp_path))
        pos = stats.per_label[Label.POSITIVE]
        # line 1: [a good good film !], blank dropped, line 3: [really good]
        assert (pos.sentences, pos.words, pos.distinct) == (2, 7, 5)
        neg = stats.per_label[Label.NEGATIVE]
        # contraction expands before counting: [it is not fun]
        assert (neg.sentences, neg.words, neg.distinct) == (1, 4, 4)

    def test_empty_corpus_is_all_zeros(self):
        stats = compute_stats(Corpus(documents=[]))
        for label in Label:
            row = stats.per_label[label]
            assert (row.sentences, row.words, row.distinct) == (0, 0, 0)

    def test_distinct_never_exceeds_words(self, synth_corpus):
        stats = compute_stats(synth_corpus)
        for label in Label:
            row = stats.per_label[label]
            assert row.distinct <= row.words

    def test_json_shape(self, synth_corpus):
        payload = compute_stats(synth_corpus).to_json_dict()
        assert set(payload) == {"pos", "neg"}
        assert set(payload["pos"]) == {"sentences", "words", "distinct"}

    def test_deterministic(self, synth_corpus):
        assert compute_stats(synth_corpus) == compute_stats(synth_corpus)
