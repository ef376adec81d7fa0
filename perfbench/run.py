"""Benchmark of the ``polarity`` CLI on a seeded synthetic review corpus.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, default seed

Each run generates a corpus and lexicon from ``--seed`` (see
``corpusgen.py``), then drives the CLI exactly as a user does: one
``python3 -m polarity.cli`` process per command, ``--jobs 1``, in a fresh
working directory per operation so no on-disk state carries over. One
operation is a workload's whole command sequence; operations run back to
back (a closed loop with one client) for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations (see ``tracer.py``) and reports the per-layer
metrics. A human-readable table goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every command's output is checked: a non-zero exit, a grid cell that failed,
an output that differs between operations of one run, or (at the pinned
seed) an output whose digest differs from ``digests.json`` counts as a
failed operation. Digests are printed for every seed so that two commits
can be compared on any seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import corpusgen  # noqa: E402

COMMAND_TIMEOUT_S = 120
SETUP_SAMPLES = 10
ALL_FAMILIES = "unigram+bigram+trigram+pu+pb+adj+adjadv+3adjadv+t"
TABLE2_CELLS = 36
FAMILIES = ("unigram", "bigram", "trigram", "pu", "pb", "adj", "adjadv", "3adjadv", "t")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    why: str


# A paper-scale (2000-document) table2 grid takes minutes. These sizes keep one
# operation to a few seconds on a 2-core machine, so a 30 s run holds several;
# the per-document shape (sentences, words, vocabulary, label signal) is the
# paper-scale one at every size.
WORKLOADS = {
    w.name: w for w in (
        Workload("ingest", 100, "extract of all nine families, then train and predict "
                 "through svmlight files: preprocessing, extraction and file I/O, no CV"),
        Workload("cell", 400, "one evaluate cell, unigram presence SVM, fold-scope "
                 "pruning: preprocessing plus per-fold vocabulary, vectorize and SVM"),
        Workload("grid", 160, "reproduce --only table2: 36 cells over a shared pipeline, "
                 "corpus-scope pruning, per-family bag cache, NB and SVM per cell"),
    )
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Op:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    accuracy: float = 0.0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


class Bench:
    """One benchmark run: a generated corpus, an environment, and the CLI."""

    def __init__(self, workload: Workload, work_dir: Path):
        self.workload = workload
        self.work = work_dir
        self.corpus = work_dir / "corpus"
        self.lexicon = self.corpus / "lexicon.tsv"
        self.threads = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        for var in THREAD_VARS:
            env[var] = str(self.threads)
        self.env = env
        self._ops = 0

    def spawn(self, argv: list[str], cwd: Path) -> Child:
        """Run one child to completion; peak RSS comes from its own rusage."""
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            reaped = threading.Event()

            def kill() -> None:
                if not reaped.is_set():
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                reaped.set()
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(code=proc.returncode, wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                     stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                     stderr=err_path.read_text(encoding="utf-8", errors="replace"))

    def cli(self, args: list[str], cwd: Path, trace_out: Path | None) -> Child:
        if trace_out is None:
            argv = [sys.executable, "-m", "polarity.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_out), "--", *args]
        return self.spawn(argv, cwd)

    def check_program(self) -> None:
        """Fail unless the CLI under test is the one in this checkout."""
        if not (SRC / "polarity" / "cli.py").is_file():
            raise SystemExit(f"error: no polarity sources under {SRC}")
        probe = self.spawn([sys.executable, "-c", "import polarity.cli, sys; "
                            "sys.stdout.write(polarity.cli.__file__)"], self.work)
        if probe.code != 0 or not Path(probe.stdout).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: cannot import polarity.cli from {SRC}: "
                             f"{probe.stderr.strip()[-300:]}")

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter finishing ``import polarity.cli``."""
        return self.spawn([sys.executable, "-c", "import polarity.cli"], self.work).wall_s

    def run_op(self, traced: bool) -> Op:
        """Run the workload's commands once in a fresh directory and check them."""
        commands, check = OPS[self.workload.name]
        self._ops += 1
        op_dir = self.work / f"op{self._ops}"
        op_dir.mkdir()
        op = Op()
        try:
            stdouts = self.run_commands(op, op_dir, commands(self), traced)
            if stdouts is None:
                return op
            try:
                op.accuracy, outputs = check(op_dir, stdouts, self.workload.docs)
                op.digest = _sha(*outputs)
            except (OutputError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                op.failed += 1
                op.problems.append(f"wrong output: {exc!r}")
            return op
        finally:
            shutil.rmtree(op_dir, ignore_errors=True)

    def run_commands(self, op: Op, op_dir: Path, commands: list[list[str]],
                     traced: bool) -> list[str] | None:
        """Run *commands* in order and return their stdouts; None on a failure."""
        stdouts, traces = [], []
        for k, args in enumerate(commands):
            trace_out = op_dir / f".trace{k}.json" if traced else None
            child = self.cli(args, op_dir, trace_out)
            op.attempted += 1
            op.wall_s += child.wall_s
            op.rss_mb = max(op.rss_mb, child.rss_mb)
            if trace_out is not None and trace_out.is_file():
                traces.append(json.loads(trace_out.read_text(encoding="utf-8")))
            if child.code != 0:
                op.failed += 1
                tail = child.stderr.strip().splitlines()[-1:] or [""]
                op.problems.append(f"{args[0]} exited {child.code}: {tail[0]}")
                return None
            stdouts.append(child.stdout)
        if traced:
            op.trace = merge_traces(traces)
        return stdouts


class OutputError(Exception):
    """A command succeeded but its output is wrong."""


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


# Each workload is a command list plus a check of the outputs. A check
# returns (accuracy, output bytes to digest) or raises on a wrong output.

def ingest_commands(bench: Bench) -> list[list[str]]:
    return [
        ["extract", "--corpus", str(bench.corpus), "--lexicon", str(bench.lexicon),
         "--lexicon-format", "tsv", "--features", ALL_FAMILIES, "--rep", "frequency",
         "--out", "vectors.svml", "--vocab-out", "vocab.tsv", "--format", "json"],
        # The default C (1 / mean squared norm) is tiny for frequency vectors
        # over nine families: every multiplier sits at the bound and the
        # training accuracy swings between seeds. A fixed C fits the data.
        ["train", "--input", "vectors.svml", "--clf", "svm", "--C", "0.01", "--out", "model",
         "--format", "json"],
        ["predict", "--model", "model.json", "--input", "vectors.svml", "--format", "json"],
    ]


def check_ingest(op_dir: Path, stdouts: list[str], docs: int) -> tuple[float, list[bytes]]:
    vectors = (op_dir / "vectors.svml").read_bytes()
    lines = vectors.decode("utf-8").splitlines()
    _expect(len(lines) == docs and all(line.split()[0] in ("+1", "-1") for line in lines),
            f"vectors.svml: expected {docs} labeled vectors")
    vocab = (op_dir / "vocab.tsv").read_bytes()
    ids = [line.rpartition("\t")[2] for line in vocab.decode("utf-8").splitlines()]
    _expect(bool(ids) and ids == [str(i) for i in range(len(ids))],
            "vocab.tsv: expected ids 0..n-1 in order")
    result = _json_line(stdouts[-1])
    _expect(len(result["predictions"]) == docs and 0 < result["accuracy"] <= 1,
            "predict: wrong prediction count or accuracy")
    return result["accuracy"], [vectors, vocab, stdouts[-1].encode()]


def cell_commands(bench: Bench) -> list[list[str]]:
    return [["evaluate", "--corpus", str(bench.corpus), "--features", "unigram",
             "--rep", "presence", "--clf", "svm", "--format", "json"]]


def check_cell(op_dir: Path, stdouts: list[str], docs: int) -> tuple[float, list[bytes]]:
    report = _json_line(stdouts[-1])
    folds = report["fold_accuracies"]
    _expect(len(folds) == corpusgen.FOLDS and all(0 <= a <= 1 for a in folds),
            "evaluate: expected five fold accuracies in [0, 1]")
    kept = {k: report[k] for k in ("fold_accuracies", "mean_accuracy", "feature_count",
                                   "precision", "recall")}
    return report["mean_accuracy"], [json.dumps(kept, sort_keys=True).encode()]


def grid_commands(bench: Bench) -> list[list[str]]:
    return [["reproduce", "--corpus", str(bench.corpus), "--lexicon", str(bench.lexicon),
             "--lexicon-format", "tsv", "--only", "table2", "--out-dir", "out",
             "--jobs", "1", "--format", "json"]]


def check_grid(op_dir: Path, stdouts: list[str], docs: int) -> tuple[float, list[bytes]]:
    summary = _json_line(stdouts[-1])
    _expect(summary["cells_failed"] == 0 and summary["cells_run"] == TABLE2_CELLS,
            f"reproduce: {summary['cells_run']} cells run, {summary['cells_failed']} failed")
    table = (op_dir / "out" / "table2.csv").read_bytes()
    deviation = (op_dir / "out" / "deviation.csv").read_bytes()
    means = [float(row.split(",")[10]) for row in table.decode("utf-8").splitlines()[1:]]
    _expect(len(means) == TABLE2_CELLS == len(deviation.splitlines()) - 1,
            "table2.csv/deviation.csv: wrong row count")
    _expect(all(0 < m <= 1 for m in means), "table2.csv: mean accuracy out of range")
    return statistics.fmean(means), [table, deviation]


OPS = {
    "ingest": (ingest_commands, check_ingest),
    "cell": (cell_commands, check_cell),
    "grid": (grid_commands, check_grid),
}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the per-command trace summaries of one operation."""
    merged = {"spans": 0, "names": {}, "counters": {}, "maxima": {}, "family_bags_misses": 0,
              "cell_s": [], "absent": set()}
    for t in traces:
        merged["spans"] += t["spans"]
        merged["family_bags_misses"] += t["family_bags_misses"]
        merged["cell_s"] += t["cell_s"]
        merged["absent"] |= set(t["absent"])
        for name, row in t["names"].items():
            into = merged["names"].setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
        for key, value in t["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in t["maxima"].items():
            merged["maxima"][key] = max(merged["maxima"].get(key, value), value)
    merged["absent"] = sorted(merged["absent"])
    return merged


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(trace: dict, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    names, counters = trace["names"], trace["counters"]

    def busy(name):
        return names.get(name, {}).get("busy_s", 0.0)

    def own(name):
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def count(key):
        return counters.get(key, 0)

    m = {
        "corpus.load_s": busy("corpus.load"),
        "corpus.docs": count("corpus.docs"),
        "preprocess.busy_s": busy("preprocess"),
        "preprocess.self_s": own("preprocess"),
        "preprocess.docs": count("preprocess.docs"),
        "preprocess.tokens": count("preprocess.tokens"),
        "tagging.busy_s": busy("tagging"),
        "tagging.words": count("tagging.words"),
    }
    for family in FAMILIES:
        m[f"features.{family}.busy_s"] = busy(f"features.{family}")
        m[f"features.{family}.emitted"] = count(f"features.{family}.emitted")
    distinct = count("vectorize.distinct")
    models = count("linear_svm.models")
    misses = trace["family_bags_misses"]
    m.update({
        "features.merge_s": own("features.merge"),
        "lexicon.find_matches.busy_s": busy("lexicon.find_matches"),
        "lexicon.find_matches.calls": calls("lexicon.find_matches"),
        "vectorize.build_vocabulary.busy_s": busy("vectorize.build_vocabulary"),
        "vectorize.build_vocabulary.calls": calls("vectorize.build_vocabulary"),
        "vectorize.vectorize.busy_s": busy("vectorize.vectorize"),
        "vectorize.vectorize.calls": calls("vectorize.vectorize"),
        "vectorize.nnz": count("vectorize.nnz"),
        "vectorize.kept_frac": count("vectorize.kept") / distinct if distinct else 0.0,
        "vectorize.write_svmlight.busy_s": busy("vectorize.write_svmlight"),
        "vectorize.bytes_written": count("vectorize.bytes_written"),
        "vectorize.read_svmlight.busy_s": busy("vectorize.read_svmlight"),
        "vectorize.bytes_read": count("vectorize.bytes_read"),
        "linear_svm.train.busy_s": busy("linear_svm.train"),
        "linear_svm.train.calls": calls("linear_svm.train"),
        "linear_svm.iterations": count("linear_svm.iterations"),
        "linear_svm.converged_frac": count("linear_svm.converged") / models if models else 0.0,
        "linear_svm.gram_bytes": trace["maxima"].get("linear_svm.gram_bytes", 0),
        "linear_svm.predict.busy_s": busy("linear_svm.predict"),
        "linear_svm.predict.calls": calls("linear_svm.predict"),
        "naive_bayes.train.busy_s": busy("naive_bayes.train"),
        "naive_bayes.train.calls": calls("naive_bayes.train"),
        "naive_bayes.predict.busy_s": busy("naive_bayes.predict"),
        "naive_bayes.predict.calls": calls("naive_bayes.predict"),
        "evaluation.cells": calls("evaluation.run_experiment"),
        "evaluation.cell_s.p50": _quantile(trace["cell_s"], 50),
        "evaluation.cell_s.p90": _quantile(trace["cell_s"], 90),
        "evaluation.self_s": sum(own(n) for n in ("evaluation.run_grid",
                                                  "evaluation.run_experiment",
                                                  "evaluation.family_bags")),
        "evaluation.family_bags.hits": calls("evaluation.family_bags") - misses,
        "evaluation.family_bags.misses": misses,
        "cli.report.busy_s": busy("cli.report"),
        "cli.model_io.busy_s": busy("cli.model_io"),
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.bookkeeping_s": own("trace.bookkeeping"),
        "trace.unattributed_s": wall_s - sum(row["self_s"] for row in names.values()),
        "trace.spans": trace["spans"],
        "trace.absent": len(trace["absent"]),
    })
    return m


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".p50", ".p90")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "bytes" if "bytes" in name else "count"


END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "docs_per_s": "1/s",
    "mean_accuracy": "ratio",
}


def load_pins() -> dict:
    return json.loads((HERE / "digests.json").read_text(encoding="utf-8"))


def verify(ops: list[Op], workload: Workload, seed: int, pins: dict) -> None:
    """Mark operations whose outputs differ from the run's first or the pin."""
    pin = pins.get(workload.name, {})
    expected = pin.get("sha256") if (pin.get("seed"), pin.get("docs")) == (seed, workload.docs) \
        else None
    reference = next((op.digest for op in ops if op.digest), None)
    for op in ops:
        if not op.digest:
            continue
        if op.digest != reference:
            op.failed += 1
            op.problems.append("output differs from the first operation of this run")
        elif expected is not None and op.digest != expected:
            op.failed += 1
            op.problems.append(f"output digest {op.digest[:16]} differs from the pinned "
                               f"{expected[:16]}")


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_root: Path = WORK) -> dict:
    """Run one benchmark and return the result object (without printing it)."""
    work_root.mkdir(parents=True, exist_ok=True)
    work = work_root / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = Bench(workload, work)
        bench.check_program()
        t0 = time.perf_counter()
        corpusgen.generate(bench.corpus, seed=seed, n_docs=workload.docs)
        log(f"{workload.name}: seed {seed}, {workload.docs} docs generated in "
            f"{time.perf_counter() - t0:.2f} s; BLAS/OpenMP threads capped at {bench.threads}")
        bench.setup_sample()  # untimed: writes the bytecode caches once
        setup: list[float] = []
        ops: list[Op] = []
        untraced: list[Op] = []  # traced runs pair each traced op with an untraced one
        busy = 0.0
        while True:
            step = 0.0
            if trace:
                untraced.append(bench.run_op(traced=False))
                step += untraced[-1].wall_s
            op = bench.run_op(traced=trace)
            ops.append(op)
            step += op.wall_s
            busy += step
            log(f"  op {len(ops)}: wall {op.wall_s:.3f} s, peak rss {op.rss_mb:.1f} MB")
            # Import timings are spread over the run, so one burst of load
            # on the machine cannot skew all of them.
            if not trace and len(setup) < SETUP_SAMPLES:
                setup.append(bench.setup_sample())
            if busy + step > seconds:
                break
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(bench.setup_sample())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    counted = ops + untraced
    verify(counted, workload, seed, load_pins())
    attempted = sum(op.attempted for op in counted)
    failed = sum(op.failed for op in counted)
    for op in counted:
        for problem in op.problems:
            log(f"{workload.name}: FAILED: {problem}")
    digest = next((op.digest for op in counted if op.digest), "")
    log(f"{workload.name}: seed {seed} output digest {digest or '(none)'}")

    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    if trace:
        absent: set[str] = set()
        untraced_wall = statistics.median(op.wall_s for op in untraced)
        for op in ops:
            if op.trace is None:
                continue
            for name, value in layer_metrics(op.trace, op.wall_s, untraced_wall).items():
                samples.setdefault(name, []).append(value)
                units[name] = layer_unit(name)
            absent.update(op.trace["absent"])
        if absent:
            log(f"{workload.name}: absent entry points or counters: {', '.join(sorted(absent))}")
    else:
        samples = {
            "wall_s": [op.wall_s for op in ops],
            "setup_s": setup,
            "peak_rss_mb": [op.rss_mb for op in ops],
            "docs_per_s": [workload.docs / op.wall_s for op in ops],
            "mean_accuracy": [op.accuracy for op in ops],
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0 and bool(samples),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": units[name]}
                    for name, values in samples.items()},
    }
    report(workload, result, samples, ops)
    return result


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def report(workload: Workload, result: dict, samples: dict, ops: list[Op]) -> None:
    log(f"{workload.name}: {len(ops)} operations; error_rate "
        f"{result['failed'] / result['attempted']:.4f} "
        f"({result['failed']} failed / {result['attempted']} attempted)")
    if workload.name == "grid" and "wall_s" in samples:
        cells = [TABLE2_CELLS / w for w in samples["wall_s"]]
        log(f"  {'cells_per_s':<36} {statistics.median(cells):>14.6g} {'1/s':<6} n={len(cells)}")
    for name, values in samples.items():
        metric = result["metrics"][name]
        spread = ""
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f" q1={q1:.6g} q3={q3:.6g}"
        log(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<6} n={len(values)}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the polarity CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
