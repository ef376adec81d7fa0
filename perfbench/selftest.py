"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench/selftest.py``.

They check the generator's determinism, a tiny-scale run of every workload
through the same code path as a real run, the tracer's span arithmetic, and
that a wrong output is counted as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpusgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
# At 20 documents some table2 cells have too little data to train; 40 is enough.
TINY_DOCS = 40


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_generator_is_deterministic_per_seed(tmp_path):
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        corpusgen.generate(tmp_path / name, seed=seed, n_docs=TINY_DOCS)
        digests.append(_tree_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_generator_layout_and_edge_cases(tmp_path):
    summary = corpusgen.generate(tmp_path, seed=0, n_docs=200)
    stems = [p.stem for p in tmp_path.glob("*/*.txt")]
    assert len(stems) == len(set(stems)) == 200
    folds = sorted(int(stem[2:5]) // 200 for stem in stems)
    assert [folds.count(k) for k in range(corpusgen.FOLDS)] == [40] * corpusgen.FOLDS
    assert summary["latin1_files"] >= 1
    text = "\n".join(p.read_bytes().decode("latin-1") for p in tmp_path.glob("*/*.txt"))
    for needle in ("n't", "n ' t", "not", "on the other hand", " ! ", " ? "):
        assert needle in text
    lexicon = (tmp_path / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    assert {line.split("\t")[2] for line in lexicon[1:]} >= {"adj", "adverb", "verb"}


def test_generator_rejects_unbalanced_sizes(tmp_path):
    with pytest.raises(ValueError):
        corpusgen.generate(tmp_path, n_docs=25)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(tmp_path, name, trace):
    workload = run.Workload(name, TINY_DOCS, "tiny")
    result = run.measure(workload, seed=0, seconds=0.01, trace=trace,
                         work_root=tmp_path / "work")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0
    assert not (tmp_path / "work").exists()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in run.WORKLOADS.values()]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_spans_nest_and_self_times_add_up():
    t = tracer.Tracer(clock=FakeClock())
    root = t.begin("a")           # t=1
    child = t.begin("b")          # t=2
    grandchild = t.begin("b")     # t=3, same name nested: busy counts it once
    t.end(grandchild)             # t=4
    t.end(child)                  # t=5
    other = t.begin("c")          # t=6
    t.end(other)                  # t=7
    t.end(root)                   # t=8
    assert t.parents == [-1, root, child, root]
    assert [t.self_time(i) for i in range(4)] == [3.0, 2.0, 1.0, 1.0]
    s = t.summary()
    assert s["names"]["b"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0}
    assert s["root_s"] == 7.0 == sum(row["self_s"] for row in s["names"].values())


def test_out_of_order_close_is_an_error():
    t = tracer.Tracer()
    outer = t.begin("a")
    t.begin("b")
    with pytest.raises(RuntimeError):
        t.end(outer)


def test_cell_time_excludes_lazy_family_work():
    t = tracer.Tracer(clock=FakeClock())
    cell = t.begin("evaluation.run_experiment")    # 1
    bags = t.begin("evaluation.family_bags")       # 2
    work = t.begin("preprocess")                   # 3
    t.end(work)                                    # 4
    t.end(bags)                                    # 5
    hit = t.begin("evaluation.family_bags")        # 6
    t.end(hit)                                     # 7
    t.end(cell)                                    # 8
    s = t.summary()
    assert s["family_bags_misses"] == 1
    assert s["cell_s"] == [7.0 - 3.0]


def test_missing_entry_points_are_absent_not_fatal(monkeypatch):
    module = types.ModuleType("fakepkg_selftest")
    module.present = lambda x: [x, x]
    monkeypatch.setitem(sys.modules, module.__name__, module)
    t = tracer.Tracer()

    def bad_counter(tr, args, kwargs, result):
        tr.add("fake.count", result.no_such_attribute)

    tracer.install(t, [
        (module.__name__, "present", "fake.present", bad_counter),
        (module.__name__, "gone", "fake.gone", None),
        ("polarity_no_such_module", "f", "fake.f", None),
    ])
    assert module.present(1) == [1, 1]
    s = t.summary()
    assert s["names"]["fake.present"]["calls"] == 1
    assert s["absent"] == sorted([f"{module.__name__}.gone", "polarity_no_such_module.f",
                                  "fake.present"])


def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch):
    workload = run.Workload("cell", TINY_DOCS, "tiny")
    monkeypatch.setattr(run, "load_pins", lambda: {
        "cell": {"seed": 0, "docs": TINY_DOCS, "sha256": "0" * 64}})
    result = run.measure(workload, seed=0, seconds=0.01, trace=False, work_root=tmp_path)
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_ingest_check_rejects_a_truncated_vector_file(tmp_path):
    (tmp_path / "vectors.svml").write_text("+1 1:2\n", encoding="utf-8")
    (tmp_path / "vocab.tsv").write_text("u:a\t0\n", encoding="utf-8")
    predict = json.dumps({"predictions": [{"label": 1, "score": 0.5}] * 2, "accuracy": 1.0})
    with pytest.raises(run.OutputError):
        run.check_ingest(tmp_path, [predict], docs=2)


def test_grid_check_rejects_failed_cells(tmp_path):
    summary = json.dumps({"cells_run": 35, "cells_failed": 1})
    with pytest.raises(run.OutputError):
        run.check_grid(tmp_path, [summary], docs=2)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cell", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
