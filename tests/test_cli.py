"""CLI subcommands, exit codes, and output formats."""

import argparse
import contextlib
import errno
import gc
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from polarity import cli, evaluation, linear_svm, naive_bayes
from polarity.cli import main
from polarity.corpus import FOLD_MODES, Corpus, Label, RawDocument, assign_folds, load_corpus
from polarity.errors import ConfigError
from polarity.evaluation import (CLASSIFIERS, GRID_COLUMNS, PRUNE_SCOPES, REPORT_FORMATS,
                                 EvalReport, ExperimentConfig, emit_report, parse_representation)
from polarity.features import parse_feature_spec
from polarity.lexicon import LEXICON_FORMATS, load_lexicon
from polarity.tagging import TAGGERS, get_tagger
from polarity.vectorize import (MAX_FEATURE_ID, Representation, read_json_object,
                                write_svmlight)
from conftest import NEGATIVE_WORDS, POSITIVE_WORDS, labeled_matrix, write_synthetic_corpus
from reference import preprocess_document
from test_lexicon import lexicon_files, transition_files
from test_linear_svm import _random_instance
from test_pretagged import _word_tag_lines
from test_vectorize import svmlight_texts_with

GOLDEN_CORPUS = Path(__file__).parent / "golden" / "corpus"


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    return write_synthetic_corpus(tmp_path_factory.mktemp("clicorpus"), docs_per_label=25, seed=5)


@pytest.fixture(scope="module")
def lexicon_tsv(tmp_path_factory):
    path = tmp_path_factory.mktemp("lex") / "lexicon.tsv"
    lines = [f"{w}\tPOS" for w in POSITIVE_WORDS] + [f"{w}\tNEG" for w in NEGATIVE_WORDS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestStats:
    def test_json_output(self, corpus_dir, capsys):
        assert main(["stats", "--corpus", str(corpus_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"pos", "neg"}
        assert payload["pos"]["words"] > 0

    def test_text_output(self, corpus_dir, capsys):
        assert main(["stats", "--corpus", str(corpus_dir)]) == 0
        assert "sentences" in capsys.readouterr().out

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        assert main(["stats", "--corpus", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_dirs_exit_2(self, tmp_path, capsys):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        assert main(["stats", "--corpus", str(tmp_path)]) == 2
        assert "missing or empty" in capsys.readouterr().err

    def test_env_var_fallback(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("POLARITY_DATA_DIR", str(corpus_dir))
        assert main(["stats", "--format", "json"]) == 0

    def test_no_corpus_anywhere_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("POLARITY_DATA_DIR", raising=False)
        assert main(["stats"]) == 2


class TestExtract:
    def test_writes_vectors_and_vocab(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "vectors.svml"
        vocab_out = tmp_path / "vocab.tsv"
        code = main([
            "extract", "--corpus", str(corpus_dir), "--features", "unigram",
            "--min-count", "1", "--out", str(out), "--vocab-out", str(vocab_out),
            "--format", "json",
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 50  # one line per document
        assert vocab_out.exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["documents"] == 50

    def test_namespaces_present_in_vocab(self, corpus_dir, lexicon_tsv, tmp_path):
        out = tmp_path / "v.svml"
        vocab_out = tmp_path / "vocab.tsv"
        code = main([
            "extract", "--corpus", str(corpus_dir), "--features", "unigram+pu+pb",
            "--lexicon", str(lexicon_tsv), "--lexicon-format", "tsv",
            "--min-count", "1", "--out", str(out), "--vocab-out", str(vocab_out),
        ])
        assert code == 0
        prefixes = {line.split(":", 1)[0] for line in vocab_out.read_text().splitlines()}
        assert {"u", "pu", "pb"} <= prefixes

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_latin1_corpus_meets_lexicon_in_either_encoding(self, tmp_path, encoding):
        corpus = tmp_path / "corpus"
        for label, text in [("pos", b"the caf\xe9 was bad\n"), ("neg", b"a caf\xe9 is awful\n")]:
            (corpus / label).mkdir(parents=True)
            (corpus / label / f"cv000_{label}.txt").write_bytes(text)  # Latin-1 bytes
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_bytes("caf\xe9\tPOS\nbad\tNEG\n".encode(encoding))
        vocab_out = tmp_path / "vocab.tsv"
        code = main(["extract", "--corpus", str(corpus), "--features", "pu",
                     "--lexicon", str(lexicon), "--lexicon-format", "tsv", "--min-count", "1",
                     "--out", str(tmp_path / "v.svml"), "--vocab-out", str(vocab_out)])
        assert code == 0
        features = [line.split("\t")[0] for line in vocab_out.read_text().splitlines()]
        assert features == ["pu:NEG/JJ", "pu:POS/NN"]

    def test_unknown_family_exits_2(self, corpus_dir, tmp_path, capsys):
        code = main(["extract", "--corpus", str(corpus_dir), "--features", "bogus+pb",
                     "--out", str(tmp_path / "v.svml")])
        assert code == 2
        assert "(expected 'unigram'" in capsys.readouterr().err

    def test_lexicon_required_exits_2(self, corpus_dir, tmp_path, capsys):
        code = main(["extract", "--corpus", str(corpus_dir), "--features", "pu",
                     "--out", str(tmp_path / "v.svml")])
        assert code == 2
        assert "lexicon" in capsys.readouterr().err


class TestEvaluate:
    def test_text_prints_mean(self, corpus_dir, capsys):
        code = main(["evaluate", "--corpus", str(corpus_dir), "--features", "unigram",
                     "--rep", "presence", "--clf", "nb", "--min-count", "1"])
        assert code == 0
        mean = float(capsys.readouterr().out.strip())
        assert 0.5 <= mean <= 1.0

    def test_json_deterministic(self, corpus_dir, capsys):
        argv = ["evaluate", "--corpus", str(corpus_dir), "--features", "unigram",
                "--rep", "presence", "--clf", "svm", "--min-count", "1",
                "--seed", "1", "--format", "json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("wall_time"), second.pop("wall_time")
        assert first == second

    def test_report_written(self, corpus_dir, tmp_path):
        out = tmp_path / "report.json"
        code = main(["evaluate", "--corpus", str(corpus_dir), "--features", "adj",
                     "--rep", "frequency", "--clf", "nb", "--min-count", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["reports"][0]["config"]["features"] == "adj"

    def test_bad_flag_usage_exits_2(self, corpus_dir):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--corpus", str(corpus_dir), "--features", "unigram",
                  "--rep", "volume", "--clf", "nb"])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def vector_file(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("vec") / "vectors.svml"
    main(["extract", "--corpus", str(corpus_dir), "--features", "unigram",
          "--min-count", "1", "--out", str(out)])
    return out


class TestTrainPredict:
    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_round_trip_accuracy(self, vector_file, tmp_path, capsys, clf):
        model = tmp_path / f"model_{clf}"
        assert main(["train", "--input", str(vector_file), "--clf", clf,
                     "--out", str(model), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert main(["predict", "--model", info["model"], "--input", str(vector_file),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["predictions"]) == 50
        assert payload["accuracy"] >= 0.9  # training-set fit on separable data

    @pytest.mark.parametrize("out,base", [("m", "m"), ("m.json", "m"), ("m.v2", "m.v2")])
    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_out_names_the_model_files(self, vector_file, tmp_path, capsys, clf, out, base):
        """``train --out`` less one trailing ``.json`` is the base of ``<base>.json``,
        and of ``<base>.npy`` for an SVM, whichever the classifier."""
        assert main(["train", "--input", str(vector_file), "--clf", clf,
                     "--out", str(tmp_path / out), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["model"] == str(tmp_path / f"{base}.json")
        written = {f"{base}.json"} | ({f"{base}.npy"} if clf == "svm" else set())
        assert {path.name for path in tmp_path.iterdir()} == written
        assert main(["predict", "--model", info["model"], "--input", str(vector_file)]) == 0

    def test_predict_text_lines(self, vector_file, tmp_path, capsys):
        model = tmp_path / "m"
        main(["train", "--input", str(vector_file), "--clf", "nb", "--out", str(model)])
        capsys.readouterr()
        assert main(["predict", "--model", str(model) + ".json",
                     "--input", str(vector_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 50 and out[0].split()[0] in {"+1", "-1"}

    def test_nonconvergence_is_one_warning_line(self, tmp_path, capsys):
        path = tmp_path / "v.svml"
        X, y = labeled_matrix(_random_instance(seed=3, n=60))
        write_svmlight(X, path, y)
        assert main(["train", "--input", str(path), "--clf", "svm", "--C", "10",
                     "--tol", "1e-12", "--max-epochs", "1", "--out", str(tmp_path / "m"),
                     "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["converged"] is False
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning: SVM did not reach "), err

    def test_bad_model_file_exits_3(self, tmp_path, vector_file, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["predict", "--model", str(bad), "--input", str(vector_file)]) == 3


def one_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestInputErrors:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_svmlight_value_exits_3(self, tmp_path, capsys, value):
        path = tmp_path / "v.svml"
        path.write_text(f"+1 1:1 2:{value}\n-1 1:2\n", encoding="utf-8")
        code = main(["train", "--input", str(path), "--clf", "svm", "--out", str(tmp_path / "m")])
        assert code == 3
        assert "not finite" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("clf", ["nb", "svm"])
    def test_huge_feature_id_exits_3(self, tmp_path, capsys, clf):
        # sized by its largest id, this matrix would need terabytes to train on
        path = tmp_path / "v.svml"
        path.write_text("+1 1:1 1099511627776:1\n-1 2:1\n", encoding="utf-8")
        code = main(["train", "--input", str(path), "--clf", clf, "--out", str(tmp_path / "m")])
        assert code == 3
        assert "exceeds the limit" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("clf", ["nb", "svm"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_train_bad_C_exits_2(self, vector_file, tmp_path, capsys, value, clf):
        # the rule and message of evaluate and reproduce, whichever classifier reads C
        code = main(["train", "--input", str(vector_file), "--clf", clf, "--C", value,
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert one_error_line(capsys) == f"error: C must be finite and above 0, got {float(value)}"
        assert not (tmp_path / "m.json").exists()

    def test_non_finite_derived_C_exits_3(self, tmp_path, capsys):
        # each square is subnormal, so 1 / (mean squared norm) is inf
        path = tmp_path / "v.svml"
        path.write_text("+1 1:1e-160\n-1 2:1e-160\n", encoding="utf-8")
        code = main(["train", "--input", str(path), "--clf", "svm", "--out", str(tmp_path / "m")])
        assert code == 3
        assert "cannot derive C" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("C,message", [
        (["--C", "1"], "the Gram matrix of the training vectors is not finite"),
        ([], "the squared norms of the training vectors overflow"),
    ])
    def test_overflowing_products_exit_3(self, tmp_path, capsys, C, message):
        # finite values whose squares overflow: no NaN model, no NumPy warning
        path = tmp_path / "v.svml"
        path.write_text("+1 1:1e308\n-1 2:1e308\n", encoding="utf-8")
        code = main(["train", "--input", str(path), "--clf", "svm", *C,
                     "--out", str(tmp_path / "m")])
        assert code == 3
        assert message in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    def test_overflowing_pair_differences_exit_3(self, tmp_path, capsys):
        # finite squared norms whose pair differences K_ii + K_jj - 2 K_ij overflow
        path = tmp_path / "v.svml"
        path.write_text("+1 1:1e154\n-1 2:1e154\n", encoding="utf-8")
        code = main(["train", "--input", str(path), "--clf", "svm", "--C", "1",
                     "--out", str(tmp_path / "m")])
        assert code == 3
        assert "pair differences overflow" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "reproduce"])
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_bad_C_exits_2_before_any_cell(self, corpus_dir, lexicon_tsv, tmp_path, capsys,
                                           monkeypatch, command, value):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(cli, "run_experiment", no_cells)
        monkeypatch.setattr(evaluation, "run_experiment", no_cells)
        argv = {
            "evaluate": ["evaluate", "--features", "unigram", "--rep", "presence", "--clf", "svm"],
            "reproduce": ["reproduce", "--out-dir", str(tmp_path / "x"), "--only", "table2",
                          "--lexicon", str(lexicon_tsv), "--lexicon-format", "tsv"],
        }[command]
        assert main(argv + ["--corpus", str(corpus_dir), "--C", value]) == 2
        assert one_error_line(capsys) == f"error: C must be finite and above 0, got {float(value)}"
        assert not (tmp_path / "x").exists()

    def test_gram_above_the_row_bound_exits_3(self, vector_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(linear_svm, "MAX_GRAM_ROWS", 49)  # the file has 50 vectors
        code = main(["train", "--input", str(vector_file), "--clf", "svm",
                     "--out", str(tmp_path / "m")])
        assert code == 3
        assert "50 training vectors need a" in one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    def test_non_json_model_exits_3(self, vector_file, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("this is not json\n", encoding="utf-8")
        assert main(["predict", "--model", str(bad), "--input", str(vector_file)]) == 3
        assert "not JSON" in one_error_line(capsys)

    def test_binary_model_exits_3(self, vector_file, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_bytes(b"\x93NUMPY\xff\xfe")
        assert main(["predict", "--model", str(bad), "--input", str(vector_file)]) == 3
        one_error_line(capsys)

    def test_missing_model_exits_2(self, vector_file, tmp_path, capsys):
        code = main(["predict", "--model", str(tmp_path / "absent.json"),
                     "--input", str(vector_file)])
        assert code == 2
        assert "not found" in one_error_line(capsys)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["train", "--input", str(tmp_path / "absent.svml"), "--clf", "nb",
                     "--out", str(tmp_path / "m")])
        assert code == 2
        assert "not found" in one_error_line(capsys)

    @pytest.mark.parametrize("payload", [
        {"format": "polarity-nb/1"},
        {"format": "polarity-nb/1", "vocab_size": 2, "class_log_prior": {"1": 0.0},
         "feature_log_likelihood": {"1": [0.0, 0.0]}},
        {"format": "polarity-svm/1", "bias": 0.0},
        ["polarity-nb/1"],
        {"format": "polarity-nb/1", "vocab_size": 2,
         "class_log_prior": {"1": float("nan"), "-1": -0.7},
         "feature_log_likelihood": {"1": [-0.7, -0.7], "-1": [-0.7, -0.7]}},
        {"format": "polarity-nb/1", "vocab_size": 2,
         "class_log_prior": {"1": -0.7, "-1": -0.7},
         "feature_log_likelihood": {"1": [-0.7, float("inf")], "-1": [-0.7, -0.7]}},
        {"format": "polarity-nb/1", "vocab_size": 2,  # finite, but the log-odds overflow
         "class_log_prior": {"1": 1.7e308, "-1": -1.7e308},
         "feature_log_likelihood": {"1": [-0.7, -0.7], "-1": [-0.7, -0.7]}},
        {"format": "polarity-nb/1", "vocab_size": 0,
         "class_log_prior": {"1": -0.7, "-1": -0.7}, "feature_log_likelihood": {}},
        {"format": "polarity-nb/1", "vocab_size": float("inf"),
         "class_log_prior": {"1": -0.7, "-1": -0.7}, "feature_log_likelihood": {}},
        {"format": "polarity-nb/1", "vocab_size": 0,  # no float64 holds 10**400
         "class_log_prior": {"1": -0.7, "-1": 10**400}, "feature_log_likelihood": {}},
    ])
    def test_malformed_model_exits_3(self, vector_file, tmp_path, capsys, payload):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["predict", "--model", str(bad), "--input", str(vector_file)]) == 3
        one_error_line(capsys)

    @pytest.mark.parametrize("fmt", ["polarity-nb/2", "polarity-svm/0", "polarity-nb", 7, [1]])
    def test_unknown_model_format_exits_3(self, vector_file, tmp_path, capsys, fmt):
        """Only a model module's own ``MODEL_FORMAT`` is read; any other value,
        a string or not, is one error line."""
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"format": fmt}), encoding="utf-8")
        assert main(["predict", "--model", str(bad), "--input", str(vector_file)]) == 3
        assert one_error_line(capsys).endswith(f"unrecognized model format {str(fmt)!r}")

    def test_svm_model_without_weights_exits_3(self, vector_file, tmp_path, capsys):
        model = tmp_path / "svm"
        assert main(["train", "--input", str(vector_file), "--clf", "svm",
                     "--out", str(model)]) == 0
        (tmp_path / "svm.npy").unlink()
        capsys.readouterr()
        assert main(["predict", "--model", str(model) + ".json",
                     "--input", str(vector_file)]) == 3
        assert "weights file" in one_error_line(capsys)

    @pytest.mark.parametrize("dtype", [complex, "U3"])
    def test_svm_weights_not_real_exit_3(self, vector_file, tmp_path, capsys, dtype):
        model = tmp_path / "svm"
        assert main(["train", "--input", str(vector_file), "--clf", "svm",
                     "--out", str(model)]) == 0
        weights = np.load(tmp_path / "svm.npy")
        np.save(tmp_path / "svm.npy", weights.astype(dtype))
        capsys.readouterr()
        assert main(["predict", "--model", str(model) + ".json",
                     "--input", str(vector_file)]) == 3
        assert "weights must be real numbers" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_non_utf8_transitions_exits_3(self, corpus_dir, tmp_path, capsys, command):
        transitions = tmp_path / "transitions.txt"
        transitions.write_bytes(b"\xff\xfe however\n")
        argv = {
            "extract": ["extract", "--out", str(tmp_path / "v.svml")],
            "evaluate": ["evaluate", "--rep", "presence", "--clf", "nb"],
        }[command]
        code = main(argv + ["--corpus", str(corpus_dir), "--features", "unigram+t",
                            "--transitions", str(transitions)])
        assert code == 3
        assert "not UTF-8 text" in one_error_line(capsys)

    @pytest.mark.parametrize("command", ["evaluate", "reproduce", "train"])
    @pytest.mark.parametrize("flag,value,message", [
        ("--tol", "nan", "must be finite and above 0"),
        ("--tol", "inf", "must be finite and above 0"),
        ("--tol", "-1", "must be finite and above 0"),
        ("--tol", "0", "must be finite and above 0"),
        ("--max-epochs", "0", "must be at least 1"),
        ("--max-epochs", "-3", "must be at least 1"),
    ])
    def test_bad_solver_limits_exit_2(self, corpus_dir, tmp_path, capsys, command,
                                      flag, value, message):
        argv = {
            "evaluate": ["evaluate", "--corpus", str(corpus_dir), "--features", "unigram",
                         "--rep", "presence", "--clf", "svm"],
            "reproduce": ["reproduce", "--corpus", str(corpus_dir),
                          "--out-dir", str(tmp_path / "x"), "--only", "table2"],
            "train": ["train", "--input", str(tmp_path / "absent.svml"), "--clf", "svm",
                      "--out", str(tmp_path / "m")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].endswith(f"{flag}: {message}, got {value}")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_negation_without_unigram_exits_2(self, corpus_dir, tmp_path, capsys, command):
        """The negation variant is the unigram's: without that family it would
        run the plain features under another config hash."""
        argv = {
            "extract": ["extract", "--out", str(tmp_path / "v.svml")],
            "evaluate": ["evaluate", "--rep", "presence", "--clf", "nb"],
        }[command]
        code = main(argv + ["--corpus", str(corpus_dir), "--features", "bigram",
                            "--negation", "on"])
        assert code == 2
        assert one_error_line(capsys) == "error: the negation variant needs unigram, got 'bigram'"
        assert not (tmp_path / "v.svml").exists()

    @pytest.mark.parametrize("command,flag,value", [
        *[(command, "--min-count", value)
          for command in ("extract", "evaluate", "reproduce") for value in ("0", "-2")],
        ("reproduce", "--negation", "on"),  # reproduce takes negation from its grid rows
    ])
    def test_usage_errors_exit_2(self, corpus_dir, tmp_path, capsys, command, flag, value):
        argv = {
            "extract": ["extract", "--features", "unigram", "--out", str(tmp_path / "v.svml")],
            "evaluate": ["evaluate", "--features", "unigram", "--rep", "presence", "--clf", "nb"],
            "reproduce": ["reproduce", "--out-dir", str(tmp_path / "x"), "--only", "table2"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--corpus", str(corpus_dir), flag, value])
        assert exc.value.code == 2
        message = (f"unrecognized arguments: {flag} {value}" if flag == "--negation"
                   else f"{flag}: must be at least 1, got {value}")
        assert capsys.readouterr().err.splitlines()[-1].endswith(message)
        assert not (tmp_path / "x").exists() and not (tmp_path / "v.svml").exists()


class TestReproduce:
    def test_table2_subset(self, corpus_dir, lexicon_tsv, tmp_path, capsys):
        out_dir = tmp_path / "repro"
        code = main([
            "reproduce", "--corpus", str(corpus_dir), "--out-dir", str(out_dir),
            "--lexicon", str(lexicon_tsv), "--lexicon-format", "tsv",
            "--min-count", "1", "--only", "table2", "--format", "json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_run"] == 36  # 9 rows x nb/svm x presence/frequency
        assert (out_dir / "table2.csv").exists()
        assert (out_dir / "table2.md").exists()
        assert (out_dir / "deviation.md").exists()
        deviation = (out_dir / "deviation.csv").read_text().splitlines()
        assert len(deviation) == 1 + 36

    def test_missing_lexicon_skips_rows(self, corpus_dir, tmp_path, capsys):
        out_dir = tmp_path / "repro"
        code = main(["reproduce", "--corpus", str(corpus_dir), "--out-dir", str(out_dir),
                     "--min-count", "1", "--only", "table2", "--format", "json"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_run"] == 28  # pu and pb rows skipped
        assert summary["cells_skipped"] == 8
        skipped = json.loads((out_dir / "skipped.json").read_text())
        assert all("lexicon" in s["reason"] for s in skipped["skipped"])
        assert "skipped" in (out_dir / "deviation.md").read_text()

    def test_table2_grid_rows_are_the_published_rows(self):
        # The reference file's table2 rows are the grid's rows, matched by features string.
        rows = cli._table2_targets()
        for row in rows:
            assert parse_feature_spec(row["features"]).canonical() == row["features"]
            assert isinstance(row["negation"], bool)
            assert not row["negation"] or row["features"] == "unigram"
            for clf, rep in GRID_COLUMNS:
                target = row[f"{clf}_{rep.value}"]
                assert isinstance(target, float) and 0 < target <= 1
            assert isinstance(row["label"], str) and row["label"]
        keys = [(row["features"], row["negation"]) for row in rows]
        assert len(set(keys)) == len(keys)
        assert cli._grid_rows("table2") == keys
        assert [len(cli._grid_rows(grid)) for grid in cli._GRID_NAMES] == [9, 16, 8]

    def test_unknown_grid_exits_2(self, corpus_dir, tmp_path):
        assert main(["reproduce", "--corpus", str(corpus_dir),
                     "--out-dir", str(tmp_path / "x"), "--only", "table9"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, corpus_dir, tmp_path, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--corpus", str(corpus_dir), "--out-dir", str(tmp_path / "x"),
                  "--only", "table2", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_shared_cells_run_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def fake_run_experiment(pipeline, config):
            calls.append(config)
            return EvalReport(config=config, fold_accuracies=[0.5] * 5, mean_accuracy=0.5,
                              feature_count=1, wall_time=0.0)

        monkeypatch.setattr(evaluation, "run_experiment", fake_run_experiment)
        out_dir = tmp_path / "out"
        assert main(["reproduce", "--corpus", str(GOLDEN_CORPUS),
                     "--lexicon", str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv",
                     "--out-dir", str(out_dir), "--format", "json"]) == 0
        assert len(calls) == len(set(calls)) == 120
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_run"] == 132 and summary["cells_failed"] == 0
        rows = {name: len((out_dir / f"{name}.csv").read_text().splitlines()) - 1
                for name in ("table2", "unigram_combos", "3adjadv_combos")}
        assert rows == {"table2": 36, "unigram_combos": 64, "3adjadv_combos": 32}
        assert len((out_dir / "results.jsonl").read_text().splitlines()) == 120

    @staticmethod
    def _transition_rows_skipped(corpus_dir, lexicon_tsv, transitions, out_dir, capsys):
        code = main([
            "reproduce", "--corpus", str(corpus_dir), "--out-dir", str(out_dir),
            "--lexicon", str(lexicon_tsv), "--lexicon-format", "tsv",
            "--transitions", str(transitions),
            "--min-count", "1", "--only", "3adjadv-combos", "--format", "json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        # half of the 8 combo specs include transition features
        assert summary["cells_run"] == 16 and summary["cells_skipped"] == 16
        assert "transition rows will be skipped" in captured.err
        skipped = json.loads((out_dir / "skipped.json").read_text())["skipped"]
        assert len(skipped) == 16
        assert all("t" in s["config"]["features"].split("+") for s in skipped)
        return captured.err

    def test_missing_transitions_file_skips_transition_rows(self, corpus_dir, lexicon_tsv,
                                                            tmp_path, capsys):
        self._transition_rows_skipped(corpus_dir, lexicon_tsv, tmp_path / "missing.txt",
                                      tmp_path / "repro", capsys)

    def test_non_utf8_transitions_file_skips_transition_rows(self, corpus_dir, lexicon_tsv,
                                                             tmp_path, capsys):
        transitions = tmp_path / "transitions.txt"
        transitions.write_bytes(b"\xff\xfe however\n")
        self._transition_rows_skipped(corpus_dir, lexicon_tsv, transitions,
                                      tmp_path / "repro", capsys)

    def test_unreadable_transitions_file_skips_transition_rows(self, corpus_dir, lexicon_tsv,
                                                               tmp_path, capsys, monkeypatch):
        transitions = tmp_path / "transitions.txt"
        transitions.write_text("however\n", encoding="utf-8")
        read_text = Path.read_text

        def refuse(self, *args, **kwargs):  # EIO for the transition list only
            if self == transitions:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", refuse)
        err = self._transition_rows_skipped(corpus_dir, lexicon_tsv, transitions,
                                            tmp_path / "repro", capsys)
        assert f"warning: cannot read transition list {transitions}" in err

    def test_seeded_runs_are_byte_identical(self, corpus_dir, lexicon_tsv, tmp_path):
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code = main([
                "reproduce", "--corpus", str(corpus_dir), "--out-dir", str(out_dir),
                "--lexicon", str(lexicon_tsv), "--lexicon-format", "tsv",
                "--min-count", "1", "--seed", "1", "--only", "3adjadv-combos",
            ])
            assert code == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
        assert outputs[0].keys() == outputs[1].keys() and len(outputs[0]) > 0
        assert outputs[0] == outputs[1]


# --- fuzzing the model loaders through predict ------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)


# 10**400 is a JSON integer that no float64 holds; sums of +-1.7e308 overflow.
numbers = st.floats() | st.integers() | st.sampled_from([10**400, 1.7e308, -1.7e308])


def per_class(values):
    return st.fixed_dictionaries({"1": values, "-1": values}) | json_values


nb_payloads = st.fixed_dictionaries({
    "format": st.just("polarity-nb/1"),
    "vocab_size": st.integers(min_value=0, max_value=3) | numbers | json_values,
    "class_log_prior": per_class(numbers),
    "feature_log_likelihood": per_class(st.lists(numbers, max_size=3)),
})

svm_payloads = st.fixed_dictionaries({
    "format": st.just("polarity-svm/1"),
    "weights_file": st.just("model.npy") | json_values,
    "bias": numbers | json_values,
    "C": numbers | json_values,
    **{key: json_values for key in ("iterations", "converged", "final_objective",
                                    "dual_objective", "duality_gap")},
})


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=300, deadline=None)
@given(payload=nb_payloads | svm_payloads,
       weights=arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=4)))
def test_model_loaders_fail_cleanly_or_score_finitely(tmp_path_factory, payload, weights):
    """Any model file either exits 2 or 3 with one error line or predicts finite scores."""
    root = tmp_path_factory.getbasetemp() / "model-fuzz"
    root.mkdir(exist_ok=True)
    vectors = root / "v.svml"
    vectors.write_text("+1 1:1 2:3\n-1 2:1 3:0.5\n0 1:2\n", encoding="utf-8")
    np.save(root / "model.npy", weights)
    model = root / "model.json"
    model.write_text(json.dumps(payload), encoding="utf-8")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(model), "--input", str(vectors),
                     "--format", "json"])
    if code == 0:
        predictions = _strict_json(out.getvalue())["predictions"]
        assert len(predictions) == 3
        assert all(math.isfinite(p["score"]) for p in predictions)
    else:
        assert code in (2, 3)
        lines = err.getvalue().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def _exit_of(argv):
    """(exit code, stderr lines) of ``polarity`` with *argv*."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().strip().splitlines()


def _fuzz_root(tmp_path_factory):
    """A two-review corpus whose words meet common lexicon entries."""
    root = tmp_path_factory.getbasetemp() / "loader-fuzz"
    for label, text in [("pos", "a good film\nnot bad at all , but fine\n"),
                        ("neg", "a bad film\ngood cast ; however caf\xe9 plot\n")]:
        (root / "corpus" / label).mkdir(parents=True, exist_ok=True)
        (root / "corpus" / label / f"cv00{len(label)}_{label}.txt").write_text(text)
    return root


def _assert_clean_exit(code, err):
    """Exit 0, 2 or 3; a failure prints one ``error:`` line and nothing else."""
    assert code in (0, 2, 3), (code, err)
    assert len([line for line in err if line.startswith("error:")]) <= 1, err
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("case", ["extract-out", "extract-vocab-out", "train-nb", "train-svm",
                                  "evaluate-out", "reproduce-out-dir", "extract-transitions"])
def test_a_file_the_system_refuses_exits_3(corpus_dir, lexicon_tsv, vector_file, tmp_path,
                                           monkeypatch, case):
    """An output in a missing directory, an out-dir that is a file, or a read
    that fails (EIO) exits 3 with one ``error:`` line."""
    missing, a_file = tmp_path / "missing", tmp_path / "a-file"
    a_file.write_text("however\n", encoding="utf-8")
    corpus = ["--corpus", str(corpus_dir)]
    extract = ["extract", *corpus, "--min-count", "1"]
    train = ["train", "--input", str(vector_file), "--out", str(missing / "m"), "--clf"]
    argv = {
        "extract-out": extract + ["--features", "unigram", "--out", str(missing / "v.svml")],
        "extract-vocab-out": extract + ["--features", "unigram", "--out", str(tmp_path / "v.svml"),
                                        "--vocab-out", str(missing / "v.tsv")],
        "train-nb": train + ["nb"],
        "train-svm": train + ["svm"],
        "evaluate-out": ["evaluate", *corpus, "--features", "unigram", "--rep", "presence",
                         "--clf", "nb", "--out", str(missing / "r.json")],
        "reproduce-out-dir": ["reproduce", *corpus, "--lexicon", str(lexicon_tsv),
                              "--lexicon-format", "tsv", "--only", "table2",
                              "--out-dir", str(a_file)],
        "extract-transitions": extract + ["--features", "t", "--transitions", str(a_file),
                                          "--out", str(tmp_path / "v.svml")],
    }[case]
    if case == "extract-transitions":
        def refuse(self, *args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        monkeypatch.setattr(Path, "read_text", refuse)
    code, err = _exit_of(argv)
    assert code == 3
    _assert_clean_exit(code, err)
    if case == "extract-transitions":
        assert str(a_file) in err[0]


# Each value set's owner, and a call that must reject a value outside it.
_OWNED_VALUES = {
    "--clf": (CLASSIFIERS, lambda v: ExperimentConfig("unigram", "presence", v)),
    "--rep": ([r.value for r in Representation], parse_representation),
    "--prune-scope": (PRUNE_SCOPES,
                      lambda v: ExperimentConfig("unigram", "presence", "nb", prune_scope=v)),
    "--folds": (FOLD_MODES, lambda v: assign_folds(Corpus(documents=[]), mode=v)),
    "--lexicon-format": (LEXICON_FORMATS, lambda v: load_lexicon("absent.tff", format=v)),
    "--tagger": (TAGGERS, get_tagger),
    "report format": (REPORT_FORMATS, lambda v: emit_report([], format=v)),  # no option
}


@pytest.mark.parametrize("option", _OWNED_VALUES)
def test_value_sets_come_from_their_owners(option):
    """Every subcommand's choices for *option* are its owner's values, in
    order, and the owner's error for any other value names every one."""
    values, reject = _OWNED_VALUES[option]
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    choices = [list(action.choices) for parser in subparsers.choices.values()
               for action in parser._actions if option in action.option_strings]
    assert choices == [list(values)] * len(choices)
    assert choices or not option.startswith("--")
    with pytest.raises(ConfigError) as exc:
        reject("bogus")
    assert all(repr(value) in str(exc.value) for value in values), str(exc.value)


@settings(max_examples=100, deadline=None)
@given(lexicon_files)
def test_extract_with_any_lexicon_exits_cleanly(tmp_path_factory, case):
    """``extract --features pu`` exits 0, 2 or 3 with at most one error line,
    whatever the lexicon file holds."""
    fmt, payload = case
    root = _fuzz_root(tmp_path_factory)
    lexicon = root / f"lexicon.{fmt}"
    lexicon.write_bytes(payload)
    _assert_clean_exit(*_exit_of([
        "extract", "--corpus", str(root / "corpus"), "--lexicon", str(lexicon),
        "--lexicon-format", fmt, "--features", "pu", "--min-count", "1",
        "--out", str(root / "v.svml")]))


@settings(max_examples=100, deadline=None)
@given(transition_files)
def test_extract_with_any_transition_list_exits_cleanly(tmp_path_factory, payload):
    """``extract --features pu+t`` exits 0, 2 or 3 with at most one error
    line, whatever the transition list holds (``pu`` alone reads none)."""
    root = _fuzz_root(tmp_path_factory)
    lexicon = root / "lexicon.tsv"
    lexicon.write_text("good\tpositive\nbad\tnegative\tadj\nfine\tpositive\n")
    transitions = root / "transitions.txt"
    transitions.write_bytes(payload)
    _assert_clean_exit(*_exit_of([
        "extract", "--corpus", str(root / "corpus"), "--lexicon", str(lexicon),
        "--lexicon-format", "tsv", "--transitions", str(transitions),
        "--features", "pu+t", "--min-count", "1", "--out", str(root / "v.svml")]))


# Well-formed files with narrow ids and any finite values, beside fuzzed
# ones; ids stay narrow (or past the bound) so that a trained model is small.
_finite_values = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-3, 3)
_svmlight_lines = st.tuples(
    st.sampled_from(["+1", "-1", "0"]),
    st.dictionaries(st.integers(1, 40), _finite_values, max_size=4),
).map(lambda row: " ".join([row[0]] + [f"{i}:{v}" for i, v in sorted(row[1].items())]))
svmlight_inputs = st.one_of(
    st.lists(_svmlight_lines, max_size=6).map("\n".join).map(str.encode),
    svmlight_texts_with(st.integers(max_value=40) | st.integers(min_value=MAX_FEATURE_ID + 1)),
    st.binary(max_size=40),
)


@pytest.fixture(scope="module")
def contract_models(tmp_path_factory):
    """An NB and an SVM model trained on a small file, for ``predict``."""
    root = tmp_path_factory.mktemp("contract-models")
    vectors = root / "v.svml"
    vectors.write_text("+1 1:1 2:3\n-1 2:1 3:0.5\n+1 1:2 4:1\n", encoding="utf-8")
    for clf in ("nb", "svm"):
        assert main(["train", "--input", str(vectors), "--clf", clf,
                     "--out", str(root / clf), "--format", "json"]) == 0
    return [root / "nb.json", root / "svm.json"]


@settings(max_examples=200, deadline=None)
@given(content=svmlight_inputs, clf=st.sampled_from(["nb", "svm"]))
def test_train_on_any_svmlight_file_exits_cleanly(tmp_path_factory, content, clf):
    root = tmp_path_factory.getbasetemp() / "train-contract"
    root.mkdir(exist_ok=True)
    (root / "v.svml").write_bytes(content)
    _assert_clean_exit(*_exit_of(["train", "--input", str(root / "v.svml"), "--clf", clf,
                                  "--out", str(root / "model"), "--format", "json"]))


@settings(max_examples=200, deadline=None)
@given(content=svmlight_inputs, model=st.sampled_from([0, 1]))
def test_predict_on_any_svmlight_file_exits_cleanly(tmp_path_factory, contract_models,
                                                    content, model):
    root = tmp_path_factory.getbasetemp() / "predict-contract"
    root.mkdir(exist_ok=True)
    (root / "v.svml").write_bytes(content)
    _assert_clean_exit(*_exit_of(["predict", "--model", str(contract_models[model]),
                                  "--input", str(root / "v.svml"), "--format", "json"]))


@pytest.mark.parametrize("clf", ["nb", "svm"])
def test_predict_parses_the_model_file_once(contract_models, tmp_path, monkeypatch, clf):
    calls = []

    def counting(path):
        calls.append(path)
        return read_json_object(path)

    for module in (cli, naive_bayes, linear_svm):
        monkeypatch.setattr(module, "read_json_object", counting)
    vectors = tmp_path / "v.svml"
    vectors.write_text("+1 1:1 2:3\n-1 2:1\n", encoding="utf-8")
    model = contract_models[["nb", "svm"].index(clf)]
    assert _exit_of(["predict", "--model", str(model), "--input", str(vectors)])[0] == 0
    assert calls == [str(model)]


_GOLDEN_DOCUMENT = sorted((GOLDEN_CORPUS / "pos").glob("*.txt"))[0]
_GOLDEN_BYTES = _GOLDEN_DOCUMENT.read_bytes()
_LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Bytes of one review: empty, real words around every str.splitlines break
# and NUL, the golden text with a byte that is not UTF-8 spliced in, or noise.
document_bytes = st.one_of(
    st.just(b""),
    st.lists(st.sampled_from(_GOLDEN_BYTES.decode().split()[:40]
                             + _LINE_BREAKS + ["\x00", " ", "!", "n't"]),
             max_size=40).map("".join).map(str.encode),
    st.tuples(st.integers(0, 200), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x85"]))
    .map(lambda cut: _GOLDEN_BYTES[:cut[0]] + cut[1] + _GOLDEN_BYTES[cut[0]:]),
    st.binary(max_size=200),
)


@pytest.fixture(scope="module")
def contract_corpus(tmp_path_factory):
    """A copy of the golden corpus, whose first positive review a test rewrites."""
    root = tmp_path_factory.mktemp("evaluate-contract")
    for label in ("pos", "neg"):
        shutil.copytree(GOLDEN_CORPUS / label, root / "corpus" / label)
    return root / "corpus"


@settings(max_examples=60, deadline=None)
@given(content=document_bytes, cell=st.sampled_from([("unigram+pu+t", "nb"),
                                                     ("unigram", "svm")]))
def test_evaluate_on_any_corpus_document_exits_cleanly(contract_corpus, content, cell):
    (contract_corpus / "pos" / _GOLDEN_DOCUMENT.name).write_bytes(content)
    features, clf = cell
    _assert_clean_exit(*_exit_of([
        "evaluate", "--corpus", str(contract_corpus), "--lexicon",
        str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv",
        "--features", features, "--rep", "presence", "--clf", clf, "--format", "json"]))


def _assert_reproduce_exits_cleanly(corpus, tagger):
    """``reproduce --only table2`` exits 0 or 3, and one that fails has not
    made its output directory."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "repro"
        code, err = _exit_of([
            "reproduce", "--corpus", str(corpus), "--lexicon",
            str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv", "--tagger", tagger,
            "--only", "table2", "--jobs", "1", "--out-dir", str(out_dir), "--format", "json"])
        _assert_clean_exit(code, err)
        assert code in (0, 3), (code, err)
        assert out_dir.exists() == (code == 0), (code, err)


@settings(max_examples=16, deadline=None)
@given(content=document_bytes)
def test_reproduce_on_any_corpus_document_exits_cleanly(contract_corpus, content):
    (contract_corpus / "pos" / _GOLDEN_DOCUMENT.name).write_bytes(content)
    _assert_reproduce_exits_cleanly(contract_corpus, "builtin")


@settings(max_examples=60, deadline=None)
@given(content=document_bytes)
def test_stats_on_any_corpus_document_exits_cleanly(contract_corpus, content):
    (contract_corpus / "pos" / _GOLDEN_DOCUMENT.name).write_bytes(content)
    code, err = _exit_of(["stats", "--corpus", str(contract_corpus), "--format", "json"])
    _assert_clean_exit(code, err)
    assert code in (0, 3), (code, err)


def _word_tag_text(raw: RawDocument) -> str:
    return _word_tag_lines(preprocess_document(raw))


_GOLDEN_WORD_TAGS = _word_tag_text(
    RawDocument(id=_GOLDEN_DOCUMENT.stem, label=Label.POSITIVE, path=str(_GOLDEN_DOCUMENT)))
# Bytes of one pretagged review: the bytes above, or that review's own
# word_TAG tokens around every line break, which often read cleanly.
pretagged_document_bytes = st.one_of(
    document_bytes,
    st.lists(st.sampled_from(_GOLDEN_WORD_TAGS.split()[:40] + _LINE_BREAKS + [" ", "!", "_"]),
             max_size=40).map("".join).map(str.encode),
)


@pytest.fixture(scope="module")
def pretagged_contract_corpus(tmp_path_factory):
    """A ``word_TAG`` copy of the golden corpus, tagged by the built-in tagger."""
    root = tmp_path_factory.mktemp("pretagged-contract") / "corpus"
    for raw in load_corpus(GOLDEN_CORPUS).documents:
        path = root / raw.label.value / f"{raw.id}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_word_tag_text(raw), encoding="utf-8")
    return root


@settings(max_examples=24, deadline=None)
@given(content=pretagged_document_bytes)
def test_pretagged_reproduce_on_any_corpus_document_exits_cleanly(pretagged_contract_corpus,
                                                                  content):
    (pretagged_contract_corpus / "pos" / _GOLDEN_DOCUMENT.name).write_bytes(content)
    _assert_reproduce_exits_cleanly(pretagged_contract_corpus, "pretagged")


def _corpus_layout(root: Path, case: str) -> Path:
    """A copy of the golden corpus under *root*, changed as *case* says."""
    corpus = root / "corpus"
    for label in ("pos", "neg"):
        shutil.copytree(GOLDEN_CORPUS / label, corpus / label)
    pos, neg = corpus / "pos", corpus / "neg"
    if case == "broken-symlink":
        (pos / "cv001_1.txt").symlink_to(root / "nowhere.txt")
    elif case == "directory":
        (pos / "cv001_1.txt").mkdir()
    elif case == "empty-neg":
        shutil.rmtree(neg)
        neg.mkdir()
    elif case == "id-in-both":
        shutil.copy(pos / _GOLDEN_DOCUMENT.name, neg)
    elif case == "no-cv-name":
        (pos / "review.txt").write_text("a fine film\n")
    elif case == "bom-and-latin1":
        (pos / _GOLDEN_DOCUMENT.name).write_bytes(b"\xef\xbb\xbf" + _GOLDEN_BYTES)
        first_neg = sorted(neg.glob("*.txt"))[0]
        first_neg.write_bytes(first_neg.read_bytes() + b"caf\xe9 na\xefve\n")
    return corpus


# Exit codes of stats, evaluate and reproduce per corpus layout: a review
# that cannot be read is a data error (3), a missing label folder a
# configuration error (2); stats assigns no folds.
_LAYOUT_EXITS = {
    "broken-symlink": (3, 3, 3),
    "directory": (3, 3, 3),
    "empty-neg": (2, 2, 2),
    "id-in-both": (3, 3, 3),
    "no-cv-name": (0, 3, 3),
    "bom-and-latin1": (0, 0, 0),
}


@pytest.mark.parametrize("case", _LAYOUT_EXITS)
def test_corpus_layouts_exit_cleanly(tmp_path, case):
    """``stats``, ``evaluate`` and ``reproduce`` exit 0, 2 or 3 with one
    ``error:`` line on failure, and ``reproduce`` writes nothing then. Reviews
    are read only when tokenized, so an unreadable one must still fail the
    command, not each grid cell."""
    corpus = _corpus_layout(tmp_path, case)
    lexicon = ["--lexicon", str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv"]
    out_dir = tmp_path / "repro"
    commands = [
        ["stats", "--corpus", str(corpus)],
        ["evaluate", "--corpus", str(corpus), "--features", "unigram", "--rep", "presence",
         "--clf", "svm"],
        ["reproduce", "--corpus", str(corpus), *lexicon, "--out-dir", str(out_dir),
         "--only", "table2", "--jobs", "1", "--format", "json"],
    ]
    for argv, expected in zip(commands, _LAYOUT_EXITS[case]):
        code, err = _exit_of(argv)
        _assert_clean_exit(code, err)
        assert code == expected, (argv[0], code, err)
    # A failed reproduce has not even made its output directory.
    assert (out_dir / "table2.csv").exists() == out_dir.exists() == (_LAYOUT_EXITS[case][2] == 0)


@pytest.fixture()
def counted_streams(monkeypatch):
    """The token-stream class the pipeline builds, and a list with the token
    count of each stream built (not the stream, which it would keep alive)."""
    built = []

    class Counted(evaluation._TokenStream):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.ids.size)

    monkeypatch.setattr(evaluation, "_TokenStream", Counted)
    return Counted, built


@pytest.mark.parametrize("cell", [
    ["--features", "unigram", "--rep", "presence"],
    ["--features", "unigram+pb", "--rep", "frequency", "--prune-scope", "corpus",
     "--lexicon", str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv"],
])
def test_evaluate_trains_with_no_token_stream_resident(counted_streams, monkeypatch, capsys,
                                                       cell):
    """``evaluate`` builds the stream once and drops it before the folds,
    which read only the cached matrices."""
    Counted, built = counted_streams
    resident = []
    train = linear_svm.train_svm

    def spy(*args, **kwargs):
        resident.append(sum(type(o) is Counted for o in gc.get_objects()))
        return train(*args, **kwargs)

    monkeypatch.setattr(linear_svm, "train_svm", spy)
    assert main(["evaluate", "--corpus", str(GOLDEN_CORPUS), *cell, "--clf", "svm"]) == 0
    assert resident == [0] * 5
    assert len(built) == 1


def test_extract_writes_with_no_token_stream_resident(counted_streams, monkeypatch, tmp_path,
                                                      capsys):
    """``extract`` asks for no family after its union, so the stream is
    dropped before the svmlight file is written."""
    Counted, built = counted_streams
    resident = []

    def spy(*args, **kwargs):
        resident.append(sum(type(o) is Counted for o in gc.get_objects()))
        return write_svmlight(*args, **kwargs)

    monkeypatch.setattr(cli, "write_svmlight", spy)
    out = tmp_path / "vectors.svml"
    assert main(["extract", "--corpus", str(GOLDEN_CORPUS), "--lexicon",
                 str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv",
                 "--features", "unigram+pb+3adjadv", "--rep", "frequency",
                 "--out", str(out)]) == 0
    assert resident == [0]
    assert len(built) == 1
    golden = GOLDEN_CORPUS.parent / "extract_unigram+pb+3adjadv.svml"
    assert out.read_bytes() == golden.read_bytes()


def test_reproduce_builds_the_token_stream_once(counted_streams, tmp_path, capsys):
    _, built = counted_streams
    assert main(["reproduce", "--corpus", str(GOLDEN_CORPUS), "--lexicon",
                 str(GOLDEN_CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv",
                 "--out-dir", str(tmp_path), "--only", "table2", "--jobs", "1"]) == 0
    assert len(built) == 1
    golden = GOLDEN_CORPUS.parent / "table2.csv"
    assert (tmp_path / "table2.csv").read_bytes() == golden.read_bytes()

# Runs commands in one fresh interpreter and reports, after each, whether
# ``_hashlib`` (and with it OpenSSL's libcrypto) has been imported. NumPy
# versions that import ``numpy.random`` with ``numpy`` load it through
# ``secrets``; under those there is nothing to check.
_OPENSSL_PROBE = """
import contextlib, io, json, sys
import numpy
seen = {"numpy": ["_hashlib" in sys.modules, 0, ""]}
from polarity.cli import main
seen["import"] = ["_hashlib" in sys.modules, 0, ""]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    seen[argv[0]] = ["_hashlib" in sys.modules, code, out.getvalue()]
print(json.dumps(seen))
"""


def test_no_command_loads_openssl(tmp_path):
    """``import polarity.cli`` and every command that runs a pipeline or a
    model leave OpenSSL unloaded; ``evaluate``'s config hash is the golden's."""
    corpus = GOLDEN_CORPUS
    vectors, model = tmp_path / "v.svml", tmp_path / "model"
    lexicon = ["--lexicon", str(corpus / "lexicon.tsv"), "--lexicon-format", "tsv"]
    commands = [
        ["extract", "--corpus", str(corpus), *lexicon, "--features", "unigram+pb+3adjadv",
         "--rep", "frequency", "--out", str(vectors), "--format", "json"],
        ["train", "--input", str(vectors), "--clf", "svm", "--out", str(model),
         "--format", "json"],
        ["predict", "--model", f"{model}.json", "--input", str(vectors), "--format", "json"],
        ["evaluate", "--corpus", str(corpus), "--features", "unigram", "--rep", "presence",
         "--clf", "svm", "--format", "json"],
        ["reproduce", "--corpus", str(corpus), *lexicon, "--out-dir", str(tmp_path / "repro"),
         "--only", "table2", "--jobs", "1", "--format", "json"],
    ]
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = subprocess.run([sys.executable, "-c", _OPENSSL_PROBE, json.dumps(commands)],
                           env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    seen = json.loads(probe.stdout.splitlines()[-1])
    if seen.pop("numpy")[0]:
        pytest.skip("importing NumPy loads numpy.random, and with it _hashlib")
    assert {name: seen[name][:2] for name in seen} == {
        "import": [False, 0], "extract": [False, 0], "train": [False, 0],
        "predict": [False, 0], "evaluate": [False, 0], "reproduce": [False, 0]}
    golden = json.loads((GOLDEN_CORPUS.parent / "evaluate_unigram-presence-svm.json").read_text())
    assert json.loads(seen["evaluate"][2])["config_hash"] == golden["config_hash"]


# Runs one command in a fresh interpreter and reports whether ``numpy.ma``
# was imported by ``numpy`` itself (NumPy 1.x imports it eagerly) and after
# the command. NumPy 2's ``np.unique`` without a ``return_*`` argument
# imports it through ``np.ma.is_masked``.
_NUMPY_MA_PROBE = """
import contextlib, io, json, sys
import numpy
eager = "numpy.ma" in sys.modules
from polarity.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([eager, code, "numpy.ma" in sys.modules]))
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """Each command that runs a pipeline or a model, in its own interpreter,
    leaves ``numpy.ma`` unimported. ``extract`` builds every family (``t``
    dedupes its sentence-phrase pairs), and the second ``train`` reads
    vectors with columns too rare for the dense Gram slabs, so its Gram goes
    through the pair products and their block bounds."""
    corpus = GOLDEN_CORPUS
    vectors, model = tmp_path / "v.svml", tmp_path / "model"
    sparse = tmp_path / "sparse.svml"
    sparse.write_text("".join(f"{1 if i % 2 else -1} 1:1 {i + 2}:1\n" for i in range(40)),
                      encoding="utf-8")
    lexicon = ["--lexicon", str(corpus / "lexicon.tsv"), "--lexicon-format", "tsv"]
    commands = [
        ["extract", "--corpus", str(corpus), *lexicon,
         "--features", "unigram+bigram+trigram+pu+pb+adj+adjadv+3adjadv+t",
         "--rep", "frequency", "--out", str(vectors)],
        ["train", "--input", str(vectors), "--clf", "svm", "--out", str(model)],
        ["predict", "--model", f"{model}.json", "--input", str(vectors)],
        ["train", "--input", str(sparse), "--clf", "svm", "--out", str(tmp_path / "sparse")],
        ["evaluate", "--corpus", str(corpus), "--features", "unigram", "--rep", "presence",
         "--clf", "svm"],
        ["reproduce", "--corpus", str(corpus), *lexicon, "--out-dir", str(tmp_path / "repro"),
         "--only", "table2", "--jobs", "1"],
    ]
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for argv in commands:
        probe = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, json.dumps(argv)],
                               env=env, cwd=tmp_path, capture_output=True, text=True,
                               timeout=300)
        assert probe.returncode == 0, probe.stderr
        eager, code, loaded = json.loads(probe.stdout.splitlines()[-1])
        if eager:
            pytest.skip("importing NumPy imports numpy.ma")
        assert (argv[0], code, loaded) == (argv[0], 0, False)
