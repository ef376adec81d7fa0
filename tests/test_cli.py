"""CLI subcommands, exit codes, and output formats."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from polarity import evaluation
from polarity.cli import main
from polarity.evaluation import EvalReport
from polarity.vectorize import write_svmlight
from conftest import NEGATIVE_WORDS, POSITIVE_WORDS, labeled_matrix, write_synthetic_corpus
from test_lexicon import lexicon_files, transition_files
from test_linear_svm import _random_instance

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
        assert "valid tokens" in capsys.readouterr().err

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

    def test_non_finite_C_exits_3(self, vector_file, tmp_path, capsys):
        code = main(["train", "--input", str(vector_file), "--clf", "svm", "--C", "nan",
                     "--out", str(tmp_path / "m")])
        assert code == 3
        assert "C must be positive" in one_error_line(capsys)

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


def _extract_exit(argv):
    """(exit code, stderr lines) of ``polarity extract`` with *argv* appended."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["extract", *argv])
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
    assert code in (0, 2, 3), (code, err)
    assert len([line for line in err if line.startswith("error:")]) <= 1, err
    if code:
        assert len(err) == 1 and err[0].startswith("error: "), err


@settings(max_examples=100, deadline=None)
@given(lexicon_files)
def test_extract_with_any_lexicon_exits_cleanly(tmp_path_factory, case):
    """``extract --features pu`` exits 0, 2 or 3 with at most one error line,
    whatever the lexicon file holds."""
    fmt, payload = case
    root = _fuzz_root(tmp_path_factory)
    lexicon = root / f"lexicon.{fmt}"
    lexicon.write_bytes(payload)
    _assert_clean_exit(*_extract_exit([
        "--corpus", str(root / "corpus"), "--lexicon", str(lexicon), "--lexicon-format", fmt,
        "--features", "pu", "--min-count", "1", "--out", str(root / "v.svml")]))


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
    _assert_clean_exit(*_extract_exit([
        "--corpus", str(root / "corpus"), "--lexicon", str(lexicon), "--lexicon-format", "tsv",
        "--transitions", str(transitions), "--features", "pu+t", "--min-count", "1",
        "--out", str(root / "v.svml")]))
