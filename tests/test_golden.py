"""Byte goldens: reproduce, extract and evaluate outputs on a committed corpus.

``golden/corpus`` is a 40-document synthetic corpus (20 per label, folds by
``cvNNN``) with a TSV lexicon trimmed to the words it uses, written by
``python3 perfbench/corpusgen.py golden/corpus --seed 7 --docs 40``. The
expected files were produced by the bag-based implementation that preceded
the sparse-matrix core and must never be regenerated to make a refactor
pass: any change to a feature, a vocabulary id, a count or a fold accuracy
shows up here as a byte difference. ``stats.json`` was written by the
per-line tokenizer that ``stats`` used before it read reviews through
``tokenize_document``, and ``extract_unigram+pu-neg.*`` by the token-stream
build before the negated unigram became a ``Window`` row. ``table2.md``,
``deviation.*``, the combination grids' ``.md`` files and ``no_lexicon/``
(every ``reproduce`` output but ``results.jsonl``, without ``--lexicon``, so
the polarized rows are skipped) were written by ``reproduce --jobs 1`` while
the Table 2 rows were still listed in ``cli.py`` beside the reference file.
``seeded/`` holds ``table2.csv`` and ``deviation.csv`` of ``reproduce --folds
seeded --seed 3 --only table2``, whose folds scatter the held-out rows between
training rows; they were written while each corpus-scope SVM fold still
trained on a copy of its training block of the cell's Gram, before SMO took
that Gram in place.
"""

import json
from pathlib import Path

import pytest

from polarity.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus"
LEXICON = ["--lexicon", str(CORPUS / "lexicon.tsv"), "--lexicon-format", "tsv"]


def test_stats_json(capsys):
    assert main(["stats", "--corpus", str(CORPUS), "--format", "json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "stats.json").read_text(encoding="utf-8")


def test_table2_csv(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["reproduce", "--corpus", str(CORPUS), *LEXICON, "--only", "table2",
                 "--out-dir", str(out_dir), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cells_run"] == 36
    for name in ["table2.csv", "table2.md", "deviation.csv", "deviation.md"]:
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_seeded_folds_table2_csv(tmp_path, capsys):
    """Table 2 under seeded folds, which hold out rows scattered among the
    training rows of every corpus-scope Gram."""
    out_dir = tmp_path / "out"
    code = main(["reproduce", "--corpus", str(CORPUS), *LEXICON, "--only", "table2",
                 "--folds", "seeded", "--seed", "3", "--out-dir", str(out_dir),
                 "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cells_run"] == 36
    for name in ["table2.csv", "deviation.csv"]:
        assert (out_dir / name).read_bytes() == (GOLDEN / "seeded" / name).read_bytes(), name


def test_combination_grid_csvs(tmp_path, capsys):
    """The two combination grids: ``t`` in unions with ``pu``, ``pb``, both
    negation variants of ``unigram`` and ``3adjadv``, corpus-scope pruning."""
    out_dir = tmp_path / "out"
    code = main(["reproduce", "--corpus", str(CORPUS), *LEXICON,
                 "--only", "unigram-combos,3adjadv-combos",
                 "--out-dir", str(out_dir), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["cells_run"] == 96
    for name in ["unigram_combos.csv", "unigram_combos.md",
                 "3adjadv_combos.csv", "3adjadv_combos.md"]:
        assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_reproduce_without_lexicon(tmp_path, capsys):
    """Every grid without a lexicon: the 92 ``pu`` and ``pb`` cells are
    skipped, listed in ``skipped.json`` and shown as skipped in the deviation."""
    out_dir = tmp_path / "out"
    code = main(["reproduce", "--corpus", str(CORPUS), "--out-dir", str(out_dir),
                 "--format", "json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["cells_run"], summary["cells_skipped"]) == (40, 92)
    expected = sorted(path.name for path in (GOLDEN / "no_lexicon").iterdir())
    assert expected == sorted(summary["files"])
    for name in expected:
        assert (out_dir / name).read_bytes() == (GOLDEN / "no_lexicon" / name).read_bytes(), name


def test_extract_union_files(tmp_path, capsys):
    vectors, vocab = tmp_path / "vectors.svml", tmp_path / "vocab.tsv"
    code = main(["extract", "--corpus", str(CORPUS), *LEXICON,
                 "--features", "unigram+pb+3adjadv", "--rep", "frequency",
                 "--out", str(vectors), "--vocab-out", str(vocab)])
    assert code == 0
    assert vectors.read_bytes() == (GOLDEN / "extract_unigram+pb+3adjadv.svml").read_bytes()
    assert vocab.read_bytes() == (GOLDEN / "extract_unigram+pb+3adjadv.vocab.tsv").read_bytes()


def test_extract_transition_files(tmp_path, capsys):
    """The ``t`` family: 607 matches of the bundled list, among them prefix-sharing
    phrases such as ``in spite of`` and ``in contrast``."""
    vectors, vocab = tmp_path / "vectors.svml", tmp_path / "vocab.tsv"
    code = main(["extract", "--corpus", str(CORPUS), *LEXICON,
                 "--features", "t", "--rep", "frequency",
                 "--out", str(vectors), "--vocab-out", str(vocab)])
    assert code == 0
    assert vectors.read_bytes() == (GOLDEN / "extract_t.svml").read_bytes()
    assert vocab.read_bytes() == (GOLDEN / "extract_t.vocab.tsv").read_bytes()



def test_extract_negated_unigram_and_pu_files(tmp_path, capsys):
    """The negated unigram (62 ``u:NOT_`` columns) in a union with ``pu``
    (13 ``POL/TAG`` columns)."""
    vectors, vocab = tmp_path / "vectors.svml", tmp_path / "vocab.tsv"
    code = main(["extract", "--corpus", str(CORPUS), *LEXICON,
                 "--features", "unigram+pu", "--negation", "on", "--rep", "frequency",
                 "--out", str(vectors), "--vocab-out", str(vocab)])
    assert code == 0
    assert vectors.read_bytes() == (GOLDEN / "extract_unigram+pu-neg.svml").read_bytes()
    assert vocab.read_bytes() == (GOLDEN / "extract_unigram+pu-neg.vocab.tsv").read_bytes()

FOLD_SCOPE_CELLS = {
    "unigram-presence-svm": ["--features", "unigram", "--rep", "presence", "--clf", "svm"],
    "unigram-frequency-svm": ["--features", "unigram", "--rep", "frequency", "--clf", "svm"],
    "bigram+adj-frequency-nb": ["--features", "bigram+adj", "--rep", "frequency",
                                "--clf", "nb"],
}


def _evaluate_without_wall_time(args, capsys) -> str:
    assert main(["evaluate", "--corpus", str(CORPUS), *args, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("wall_time")
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(FOLD_SCOPE_CELLS))
def test_fold_scope_evaluate(name, capsys):
    got = _evaluate_without_wall_time(FOLD_SCOPE_CELLS[name], capsys)
    assert got == (GOLDEN / f"evaluate_{name}.json").read_text(encoding="utf-8")


def test_evaluate_rep_defaults_to_presence(capsys):
    """``evaluate`` without ``--rep`` is the ``--rep presence`` cell, as for ``extract``."""
    args = [arg for arg in FOLD_SCOPE_CELLS["unigram-presence-svm"]
            if arg not in ("--rep", "presence")]
    got = _evaluate_without_wall_time(args, capsys)
    assert got == (GOLDEN / "evaluate_unigram-presence-svm.json").read_text(encoding="utf-8")
