"""CLI subcommands, exit codes, and output formats."""

import json

import pytest

from polarity.cli import main
from conftest import NEGATIVE_WORDS, POSITIVE_WORDS, write_synthetic_corpus


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

    def test_missing_transitions_file_skips_transition_rows(self, corpus_dir, lexicon_tsv,
                                                            tmp_path, capsys):
        out_dir = tmp_path / "repro"
        code = main([
            "reproduce", "--corpus", str(corpus_dir), "--out-dir", str(out_dir),
            "--lexicon", str(lexicon_tsv), "--lexicon-format", "tsv",
            "--transitions", str(tmp_path / "missing.txt"),
            "--min-count", "1", "--only", "3adjadv-combos", "--format", "json",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        # half of the 8 combo specs include transition features
        assert summary["cells_run"] == 16 and summary["cells_skipped"] == 16

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
