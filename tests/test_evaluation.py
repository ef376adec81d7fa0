"""Cross-validation harness: accuracy, determinism, leakage, report formats."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from itertools import compress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import family_matrix, shuffle_labels, write_synthetic_corpus
from polarity.corpus import assign_folds, load_corpus
from polarity import evaluation, linear_svm
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
from polarity.features import FeatureFamily, _TokenStream, parse_feature_spec
from polarity.lexicon import load_transitions
from polarity.linear_svm import gram_matrix
from reference import build_vocabulary, pipeline_bags


GOLDEN = Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("min_count", [0, -2])
    def test_rejects_min_count_below_1(self, min_count):
        with pytest.raises(ConfigError, match=f"min_count must be at least 1, got {min_count}"):
            cfg(min_count=min_count)

    @pytest.mark.parametrize("C", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_an_explicit_C_not_finite_and_above_0(self, C):
        with pytest.raises(ConfigError, match="C must be finite and above 0"):
            cfg(classifier="svm", C=C)
        assert cfg(classifier="svm", C=None).C is None

    def test_hash_stable_and_sensitive(self):
        assert cfg().hash() == cfg().hash()
        assert cfg().hash() != cfg(classifier="svm").hash()

    @given(st.binary())
    def test_sha256_is_hashlibs(self, data):
        assert evaluation.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()

    def test_hashlib_fallback_gives_the_golden_hash(self):
        """Without CPython's own SHA-256 module the hash comes from hashlib
        and is the same."""
        golden = json.loads((GOLDEN / "evaluate_unigram-presence-svm.json").read_text())
        probe = (
            "import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from polarity import evaluation\n"
            "config = evaluation.ExperimentConfig(**json.loads(sys.argv[1]))\n"
            "print(evaluation.sha256.__module__, config.hash())\n"
        )
        src = str(Path(evaluation.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", probe, json.dumps(golden["config"])],
                             env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["polarity.evaluation", golden["config_hash"]]


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
            pipeline.family_matrices(parse_feature_spec("unigram+pu"), 1)
        assert pipeline._tokens is None

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
        first = family_matrix(pipeline, FeatureFamily.BIGRAM)
        assert family_matrix(pipeline, FeatureFamily.BIGRAM) is first
        # the negation variant only exists for unigrams
        with pytest.raises(ConfigError, match="negation variant needs unigram"):
            family_matrix(pipeline, FeatureFamily.BIGRAM, negation_variant=True)
        assert (family_matrix(pipeline, FeatureFamily.UNIGRAM, negation_variant=True)
                is not family_matrix(pipeline, FeatureFamily.UNIGRAM))

    @pytest.mark.parametrize("min_count", [0, -1])
    def test_floor_below_1_fails_before_any_build(self, synth_corpus, min_count):
        """At a floor of 0 ``_keyed_matrix`` would compare every key with the last."""
        pipeline = FeaturePipeline(synth_corpus)
        with pytest.raises(ConfigError, match=f"min_count must be at least 1, got {min_count}"):
            pipeline.family_matrices(parse_feature_spec("unigram+bigram"), min_count)
        assert pipeline._tokens is None and not pipeline._matrices

    @pytest.mark.parametrize("min_count", [1, 3, 400])
    def test_fold_mask_equals_bag_vocabulary(self, synth_corpus, min_count):
        """Fold-scope column masks give build_vocabulary's result on the training bags."""
        pipeline = FeaturePipeline(synth_corpus)
        bags = [u + adj for u, adj in zip(pipeline_bags(pipeline, FeatureFamily.UNIGRAM),
                                          pipeline_bags(pipeline, FeatureFamily.ADJECTIVE))]
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
            assert list(compress(cell.matrix.features, mask)) == list(expected)

    @pytest.mark.parametrize("representation", ["presence", "frequency"])
    @pytest.mark.parametrize("scope", ["corpus", "fold"])
    def test_every_svm_fold_gram_comes_from_the_cell(self, synth_corpus, monkeypatch,
                                                     scope, representation):
        """Every fold reaches train_svm with the Gram of its training matrix:
        under corpus scope the cell's own Gram, uncopied, with the fold's
        training mask, which picks that Gram out of it; under fold scope the
        Gram of the fold's pruned rows."""
        received = []
        train_svm = linear_svm.train_svm

        def spy(X, y, C=None, tol=1e-3, max_epochs=1000, gram=None, rows=None):
            received.append((X, gram, rows))
            return train_svm(X, y, C=C, tol=tol, max_epochs=max_epochs, gram=gram, rows=rows)

        monkeypatch.setattr(linear_svm, "train_svm", spy)
        cell = _Cell(FeaturePipeline(synth_corpus),
                     cfg(features="unigram+bigram", representation=representation,
                         classifier="svm", prune_scope=scope))
        for k in range(5):
            cell.train_fold(k)
        assert len(received) == 5
        for k, (X_train, gram, rows) in enumerate(received):
            assert gram is not None
            assert gram.flags.c_contiguous  # train_svm reads it without a copy
            if scope == "corpus":
                assert gram is cell.gram
                assert np.array_equal(rows, cell.folds != k)
                assert np.array_equal(gram[np.ix_(rows, rows)], gram_matrix(X_train))
            else:
                assert rows is None
                assert np.array_equal(gram, gram_matrix(X_train))


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

    def test_parallel_grid_builds_each_row_once_in_the_parent(self, synth_corpus, tmp_path,
                                                              monkeypatch):
        """The warm-up before the fork builds every (row, floor) the cells read,
        so no worker builds one and no key is built twice."""
        log = tmp_path / "builds.txt"
        build = _TokenStream.matrix

        def logged(self, row, floor):
            with open(log, "a", encoding="utf-8") as out:
                out.write(f"{os.getpid()} {row!r} {floor}\n")
            return build(self, row, floor)

        monkeypatch.setattr(_TokenStream, "matrix", logged)
        configs = [cfg(), cfg(features="unigram+bigram", negation=True),
                   cfg(features="bigram", min_count=3), cfg(representation="frequency"),
                   cfg(features="bigram+unigram", classifier="svm")]
        reports, errors = run_grid(FeaturePipeline(synth_corpus), configs, jobs=2)
        assert len(reports) == len(configs) and not errors
        expected = {f"{os.getpid()} {row!r} {c.min_count}"
                    for c in configs for row in c.spec().rows()}
        assert len(expected) == 4
        assert sorted(log.read_text(encoding="utf-8").splitlines()) == sorted(expected)

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
