"""Cross-validation harness: accuracy, determinism, leakage, report formats."""

import json
import shutil
from itertools import compress

import numpy as np
import pytest

from conftest import shuffle_labels, write_synthetic_corpus
from polarity.corpus import assign_folds, load_corpus
from polarity.errors import ConfigError, DataError
from polarity.evaluation import (
    CSV_HEADER,
    ExperimentConfig,
    FeaturePipeline,
    _Cell,
    emit_report,
    run_experiment,
    run_grid,
)
from polarity.features import FeatureFamily, parse_feature_spec
from polarity.lexicon import load_transitions
from polarity.linear_svm import gram_matrix
from polarity.vectorize import build_vocabulary


def cfg(**kwargs):
    defaults = dict(features="unigram", representation="presence", classifier="nb",
                    min_count=2)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestExperimentConfig:
    def test_canonicalizes_features(self):
        assert cfg(features="PB+UNIGRAM").features == "unigram+pb"

    def test_rejects_unknown_classifier(self):
        with pytest.raises(ConfigError):
            cfg(classifier="forest")

    def test_rejects_unknown_scope(self):
        with pytest.raises(ConfigError):
            cfg(prune_scope="global")

    @pytest.mark.parametrize("limits, message", [
        (dict(tol=float("nan")), "tol must be finite and above 0"),
        (dict(tol=-1.0), "tol must be finite and above 0"),
        (dict(max_epochs=-3), "max_epochs must be at least 1"),
        (dict(tol=float("nan"), max_epochs=0), "tol must be finite and above 0"),
    ])
    def test_rejects_bad_solver_limits(self, limits, message):
        with pytest.raises(ConfigError, match=message):
            cfg(classifier="svm", **limits)

    def test_hash_stable_and_sensitive(self):
        assert cfg().hash() == cfg().hash()
        assert cfg().hash() != cfg(classifier="svm").hash()


class TestRunExperiment:
    @pytest.mark.parametrize("classifier", ["nb", "svm"])
    def test_separates_synthetic_corpus(self, synth_corpus, classifier):
        report = run_experiment(FeaturePipeline(synth_corpus), cfg(classifier=classifier))
        assert len(report.fold_accuracies) == 5
        assert all(0.0 <= a <= 1.0 for a in report.fold_accuracies)
        assert report.mean_accuracy >= 0.8
        assert report.mean_accuracy == pytest.approx(
            sum(report.fold_accuracies) / 5, abs=1e-12
        )
        assert report.feature_count > 0

    def test_deterministic_reports(self, synth_corpus):
        first = run_experiment(FeaturePipeline(synth_corpus), cfg(classifier="svm"))
        second = run_experiment(FeaturePipeline(synth_corpus), cfg(classifier="svm"))
        a, b = first.to_json_dict(), second.to_json_dict()
        a.pop("wall_time"), b.pop("wall_time")
        assert a == b

    def test_requires_folds(self, synth_corpus_dir):
        corpus = load_corpus(synth_corpus_dir)
        with pytest.raises(ConfigError, match="fold"):
            run_experiment(FeaturePipeline(corpus), cfg())

    def test_lexicon_required_for_polarized(self, synth_corpus):
        with pytest.raises(ConfigError, match="lexicon"):
            run_experiment(FeaturePipeline(synth_corpus), cfg(features="unigram+pu"))

    def test_missing_lexicon_fails_before_preprocessing(self, synth_corpus):
        pipeline = FeaturePipeline(synth_corpus)
        with pytest.raises(ConfigError, match="requires a subjectivity lexicon"):
            pipeline.matrix_for_spec(parse_feature_spec("unigram+pu"))
        assert pipeline._documents is None

    def test_nonconverged_folds_reported(self, synth_corpus):
        report = run_experiment(FeaturePipeline(synth_corpus),
                                cfg(classifier="svm", C=10.0, tol=1e-12, max_epochs=1))
        assert len(report.warnings) == 5
        for k, message in enumerate(report.warnings):
            assert message.startswith(f"fold {k}: SVM did not reach tol=1e-12 within 1 epochs")

    def test_lexicon_features_run(self, synth_corpus, tiny_lexicon):
        pipeline = FeaturePipeline(synth_corpus, lexicon=tiny_lexicon,
                                   transitions=load_transitions())
        report = run_experiment(pipeline, cfg(features="unigram+pu+pb+t", classifier="nb"))
        assert report.mean_accuracy >= 0.8

    def test_corpus_scope_uses_fixed_vocabulary(self, synth_corpus):
        fold_scope = run_experiment(FeaturePipeline(synth_corpus), cfg(prune_scope="fold"))
        corpus_scope = run_experiment(FeaturePipeline(synth_corpus), cfg(prune_scope="corpus"))
        assert corpus_scope.feature_count >= fold_scope.feature_count

    def test_precision_recall_supplementary(self, synth_corpus):
        report = run_experiment(FeaturePipeline(synth_corpus), cfg())
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0

    def test_identical_documents_fall_to_prior(self, tmp_path):
        # every document is the same text, so both classes look identical and
        # the positive tie rule fixes accuracy at exactly the class balance
        for suffix, label in enumerate(("pos", "neg"), start=1):
            (tmp_path / label).mkdir()
            for i in range(10):
                (tmp_path / label / f"cv{i * 100:03d}_{suffix}.txt").write_text(
                    "the same words every time\n", encoding="utf-8"
                )
        corpus = assign_folds(load_corpus(tmp_path))
        report = run_experiment(FeaturePipeline(corpus), cfg(min_count=1))
        assert report.mean_accuracy == pytest.approx(0.5, abs=1e-12)


class TestNoLeakage:
    def test_perturbing_test_fold_never_changes_trained_model(self, tmp_path):
        original = write_synthetic_corpus(tmp_path / "a", docs_per_label=30, seed=3)
        perturbed_dir = tmp_path / "b"
        shutil.copytree(original, perturbed_dir)
        # fold 0 holds ids with cvNNN < 200; scribble over those documents only
        changed = 0
        for path in perturbed_dir.rglob("cv*.txt"):
            if int(path.stem[2:5]) < 200:
                path.write_text("entirely different scribbled words !\n", encoding="utf-8")
                changed += 1
        assert changed > 0

        corpus_a = assign_folds(load_corpus(original))
        corpus_b = assign_folds(load_corpus(perturbed_dir))
        for classifier in ("nb", "svm"):
            config = cfg(classifier=classifier, prune_scope="fold")
            cell_a = _Cell(FeaturePipeline(corpus_a), config)
            cell_b = _Cell(FeaturePipeline(corpus_b), config)
            model_a, _, mask_a, _ = cell_a.train_fold(0)
            model_b, _, mask_b, _ = cell_b.train_fold(0)
            assert (list(compress(cell_a.matrix.features, mask_a))
                    == list(compress(cell_b.matrix.features, mask_b)))
            if classifier == "nb":
                assert model_a.class_log_prior == model_b.class_log_prior
                for c in (1, -1):
                    assert np.array_equal(model_a.feature_log_likelihood[c],
                                          model_b.feature_log_likelihood[c])
            else:
                assert np.array_equal(model_a.weights, model_b.weights)
                assert model_a.bias == model_b.bias


class TestMatrixCore:
    def test_family_matrix_built_once(self, synth_corpus):
        pipeline = FeaturePipeline(synth_corpus)
        first = pipeline.family_matrix(FeatureFamily.BIGRAM)
        assert pipeline.family_matrix(FeatureFamily.BIGRAM) is first
        # the negation variant only exists for unigrams
        assert pipeline.family_matrix(FeatureFamily.BIGRAM, negation_variant=True) is first
        assert (pipeline.family_matrix(FeatureFamily.UNIGRAM, negation_variant=True)
                is not pipeline.family_matrix(FeatureFamily.UNIGRAM))

    @pytest.mark.parametrize("min_count", [1, 3, 400])
    def test_fold_mask_equals_bag_vocabulary(self, synth_corpus, min_count):
        """Fold-scope column masks give build_vocabulary's result on the training bags."""
        pipeline = FeaturePipeline(synth_corpus)
        bags = [u + adj for u, adj in zip(pipeline.family_bags(FeatureFamily.UNIGRAM),
                                          pipeline.family_bags(FeatureFamily.ADJECTIVE))]
        folds = [synth_corpus.folds[doc.id] for doc in synth_corpus.documents]
        cell = _Cell(pipeline, cfg(features="unigram+adj", prune_scope="fold",
                                   min_count=min_count))
        for k in range(5):
            training_bags = [bag for bag, f in zip(bags, folds) if f != k]
            try:
                expected = build_vocabulary(training_bags, min_count=min_count)
            except DataError as exc:
                with pytest.raises(DataError) as caught:
                    cell.train_fold(k)
                assert str(caught.value) == str(exc)
                continue
            _, _, mask, _ = cell.train_fold(k)
            assert list(compress(cell.matrix.features, mask)) == list(expected.index)

    @pytest.mark.parametrize("representation", ["presence", "frequency"])
    def test_sliced_corpus_gram_equals_fold_gram(self, synth_corpus, representation):
        pipeline = FeaturePipeline(synth_corpus)
        config = cfg(features="unigram+bigram", representation=representation,
                     classifier="svm", prune_scope="corpus")
        cell = _Cell(pipeline, config)
        for k in range(5):
            _, _, X_train, _, gram = cell.split(k)
            assert np.array_equal(gram, gram_matrix(X_train))
            assert gram.flags.f_contiguous  # train_svm reads it without a copy


class TestLabelShuffledControl:
    def test_control_near_chance(self, tmp_path):
        root = write_synthetic_corpus(tmp_path / "big", docs_per_label=150, seed=21)
        corpus = assign_folds(load_corpus(root))
        report = run_experiment(FeaturePipeline(shuffle_labels(corpus, seed=1)), cfg())
        assert abs(report.mean_accuracy - 0.5) < 0.1


class TestRunGrid:
    def test_errors_isolated_and_log_written(self, synth_corpus, tmp_path):
        configs = [cfg(), cfg(features="pu"), cfg(classifier="svm")]  # pu lacks lexicon
        log = tmp_path / "results.jsonl"
        reports, errors = run_grid(FeaturePipeline(synth_corpus), configs, results_path=log)
        assert len(reports) == 2 and len(errors) == 1
        assert "lexicon" in errors[0]["error"]
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 2
        assert {line["config"]["classifier"] for line in lines} == {"nb", "svm"}

    def test_empty_config_list_rejected(self, synth_corpus):
        with pytest.raises(ConfigError, match="empty"):
            run_grid(FeaturePipeline(synth_corpus), [])

    def test_parallel_errors_isolated(self, synth_corpus):
        # the cache warm-up before the fork must not abort on a cell's config error
        pipeline = FeaturePipeline(synth_corpus)
        reports, errors = run_grid(pipeline, [cfg(), cfg(features="pu")], jobs=2)
        assert len(reports) == 1 and len(errors) == 1
        assert "lexicon" in errors[0]["error"]

    def test_pool_never_larger_than_the_grid(self, synth_corpus, monkeypatch):
        import multiprocessing

        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items):
                return map(fn, items)

        class RecordingContext:
            Pool = RecordingPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: RecordingContext())
        pipeline = FeaturePipeline(synth_corpus)
        reports, _ = run_grid(pipeline, [cfg(), cfg(representation="frequency")], jobs=8)
        assert started == [2] and len(reports) == 2
        reports, _ = run_grid(pipeline, [cfg()], jobs=8)
        assert started == [2] and len(reports) == 1  # one cell runs in-process

    def test_parallel_jobs_match_sequential(self, synth_corpus):
        configs = [cfg(), cfg(representation="frequency")]
        seq, _ = run_grid(FeaturePipeline(synth_corpus), configs, jobs=1)
        par, _ = run_grid(FeaturePipeline(synth_corpus), configs, jobs=2)
        assert [r.mean_accuracy for r in seq] == [r.mean_accuracy for r in par]


class TestEmitReport:
    @pytest.fixture()
    def one_report(self, synth_corpus):
        return run_experiment(FeaturePipeline(synth_corpus), cfg())

    def test_json_schema(self, one_report):
        payload = json.loads(emit_report([one_report], format="json"))
        assert payload["schema_version"] == 1
        (entry,) = payload["reports"]
        assert entry["config"]["features"] == "unigram"
        assert len(entry["fold_accuracies"]) == 5

    def test_csv_header_and_row(self, one_report):
        text = emit_report([one_report], format="csv")
        header, row = text.strip().splitlines()
        assert header == CSV_HEADER
        fields = row.split(",")
        assert fields[1] == "unigram" and fields[4] == "nb"
        assert len(fields) == len(CSV_HEADER.split(","))

    def test_markdown_single_row(self, one_report):
        text = emit_report([one_report], format="markdown")
        assert text.count("\n") == 3  # header, separator, one row
        assert "**" in text  # the only cell is the row best

    def test_markdown_bolds_best(self, synth_corpus):
        nb = run_experiment(FeaturePipeline(synth_corpus), cfg())
        svm = run_experiment(FeaturePipeline(synth_corpus), cfg(classifier="svm"))
        text = emit_report([nb, svm], format="markdown")
        best = max(nb.mean_accuracy, svm.mean_accuracy)
        assert f"**{best:.3f}**" in text

    def test_unknown_format(self, one_report):
        with pytest.raises(ConfigError, match="format"):
            emit_report([one_report], format="xml")

    def test_write_to_path(self, one_report, tmp_path):
        out = tmp_path / "report.csv"
        emit_report([one_report], format="csv", path=out)
        assert out.read_text().startswith(CSV_HEADER)
