"""Span tracer for the benchmark's traced pass.

The program carries no instrumentation of its own, so the tracer wraps the
public entry points of the ``polarity`` modules from outside: each wrapped
call records a span (name, start, end, parent) that stays in memory until
the process ends, and some calls also add to counters (documents, tokens,
features emitted, SVM iterations, bytes written). Counting happens after the
span closes, inside a ``trace.bookkeeping`` span of its own, so it never
inflates the self time of a program layer.

An entry point that a refactor removed or renamed is reported as absent
instead of failing the run; so is a counter whose result no longer has the
expected shape.

Run as a script to trace one CLI invocation and write the per-span-name
summary as JSON::

    python3 perfbench/tracer.py SUMMARY.json -- stats --corpus DIR
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

BOOKKEEPING = "trace.bookkeeping"
_NGRAM_FAMILY = {1: "unigram", 2: "bigram", 3: "trigram"}
# Counter failures that mean "this result changed shape", not a tracer bug.
_SHAPE_ERRORS = (AttributeError, TypeError, KeyError, ValueError, OSError)


class Tracer:
    """Records properly nested spans of one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_time: list[float] = []
        self.child_count: list[int] = []
        self.outermost: list[bool] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: set[str] = set()

    def begin(self, name: str) -> int:
        idx = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.child_time.append(0.0)
        self.child_count.append(0)
        depth = self._active.get(name, 0)
        self.outermost.append(depth == 0)
        self._active[name] = depth + 1
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        now = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self.ends[idx] = now
        self._active[self.names[idx]] -= 1
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += now - self.starts[idx]
            self.child_count[parent] += 1

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def bookkeep(self, counter, key: str, *args) -> None:
        """Run *counter* in a bookkeeping span; a shape error marks *key* absent."""
        idx = self.begin(BOOKKEEPING)
        try:
            counter(self, *args)
        except _SHAPE_ERRORS:
            self.absent.add(key)
        finally:
            self.end(idx)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def self_time(self, idx: int) -> float:
        return self.duration(idx) - self.child_time[idx]

    def summary(self) -> dict:
        """Per-name calls, busy time (outermost spans) and self time, plus
        counters, per-cell times and the total root-span time."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        names: dict[str, dict] = {}
        misses: dict[str, int] = {}
        lazy: dict[int, float] = {}
        root_s = 0.0
        for idx, name in enumerate(self.names):
            row = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self.self_time(idx)
            if self.outermost[idx]:
                row["busy_s"] += self.duration(idx)
            if self.parents[idx] < 0:
                root_s += self.duration(idx)
            if self.child_count[idx] and name == "evaluation.family_bags":
                # A cache miss does work in child spans; a hit returns at once.
                misses[name] = misses.get(name, 0) + 1
                cell = self._ancestor(idx, "evaluation.run_experiment")
                if cell >= 0:
                    lazy[cell] = lazy.get(cell, 0.0) + self.duration(idx)
        cells = [
            self.duration(idx) - lazy.get(idx, 0.0)
            for idx, name in enumerate(self.names) if name == "evaluation.run_experiment"
        ]
        return {
            "spans": len(self.names),
            "names": names,
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "family_bags_misses": misses.get("evaluation.family_bags", 0),
            "cell_s": cells,
            "root_s": root_s,
            "absent": sorted(self.absent),
        }

    def _ancestor(self, idx: int, name: str) -> int:
        idx = self.parents[idx]
        while idx >= 0 and self.names[idx] != name:
            idx = self.parents[idx]
        return idx


# --- counters over entry-point results -------------------------------------

def _count_docs(t, args, kwargs, result):
    t.add("corpus.docs", len(result.documents))


def _count_preprocess(t, args, kwargs, result):
    t.add("preprocess.docs", 1)
    t.add("preprocess.tokens", sum(len(s) for s in result.sentences))


def _count_tag(t, args, kwargs, result):
    t.add("tagging.words", len(result))


def _count_emitted(family):
    def count(t, args, kwargs, result):
        t.add(f"features.{family}.emitted", sum(result.values()))
    return count


def _count_ngrams(t, args, kwargs, result):
    t.add(f"{_ngram_family(args, kwargs)}.emitted", sum(result.values()))


def _count_vocabulary(t, args, kwargs, result):
    bags = args[0]
    t.add("vectorize.kept", len(result))
    t.add("vectorize.distinct", len(set().union(*bags)))


def _count_nnz(t, args, kwargs, result):
    t.add("vectorize.nnz", len(result.ids))


def _count_written(t, args, kwargs, result):
    t.add("vectorize.bytes_written", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def _count_read(t, args, kwargs, result):
    t.add("vectorize.bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_svm(t, args, kwargs, result):
    n = len(args[0] if args else kwargs["vectors"])
    t.add("linear_svm.models", 1)
    t.add("linear_svm.iterations", result.meta.iterations)
    t.add("linear_svm.converged", bool(result.meta.converged))
    t.peak("linear_svm.gram_bytes", n * n * 8)


def _ngram_family(args, kwargs) -> str:
    n = args[1] if len(args) > 1 else kwargs.get("n")
    return f"features.{_NGRAM_FAMILY.get(n, 'ngram')}"


# (module, attribute path, span name or name function, counter or None).
ENTRY_POINTS = [
    ("polarity.cli", "main", "cli.main", None),
    ("polarity.cli", "_sniff_model", "cli.model_io", None),
    ("polarity.cli", "_deviation_summary", "cli.report", None),
    ("polarity.evaluation", "emit_report", "cli.report", None),
    ("polarity.linear_svm", "LinearSvmModel.save", "cli.model_io", None),
    ("polarity.linear_svm", "LinearSvmModel.load", "cli.model_io", None),
    ("polarity.naive_bayes", "NaiveBayesModel.save", "cli.model_io", None),
    ("polarity.naive_bayes", "NaiveBayesModel.load", "cli.model_io", None),
    ("polarity.corpus", "load_corpus", "corpus.load", _count_docs),
    ("polarity.corpus", "assign_folds", "corpus.assign_folds", None),
    ("polarity.lexicon", "load_lexicon", "lexicon.load", None),
    ("polarity.lexicon", "load_transitions", "lexicon.load_transitions", None),
    ("polarity.lexicon", "TransitionList.find_matches", "lexicon.find_matches", None),
    ("polarity.preprocess", "preprocess_document", "preprocess", _count_preprocess),
    ("polarity.tagging", "RuleTagger.tag", "tagging", _count_tag),
    ("polarity.features", "extract_ngrams", _ngram_family, _count_ngrams),
    ("polarity.features", "extract_polarized_unigrams", "features.pu", _count_emitted("pu")),
    ("polarity.features", "extract_polarized_bigrams", "features.pb", _count_emitted("pb")),
    ("polarity.features", "extract_adjectives", "features.adj", _count_emitted("adj")),
    ("polarity.features", "extract_adjadv_bigrams", "features.adjadv", _count_emitted("adjadv")),
    ("polarity.features", "extract_adjadv_trigrams", "features.3adjadv", _count_emitted("3adjadv")),
    ("polarity.features", "extract_transitions", "features.t", _count_emitted("t")),
    ("polarity.evaluation", "FeaturePipeline.bags_for_spec", "features.merge", None),
    ("polarity.evaluation", "FeaturePipeline.family_bags", "evaluation.family_bags", None),
    ("polarity.evaluation", "run_experiment", "evaluation.run_experiment", None),
    ("polarity.evaluation", "run_grid", "evaluation.run_grid", None),
    ("polarity.vectorize", "build_vocabulary", "vectorize.build_vocabulary", _count_vocabulary),
    ("polarity.vectorize", "vectorize", "vectorize.vectorize", _count_nnz),
    ("polarity.vectorize", "write_svmlight", "vectorize.write_svmlight", _count_written),
    ("polarity.vectorize", "read_svmlight", "vectorize.read_svmlight", _count_read),
    ("polarity.vectorize", "write_vocabulary", "vectorize.write_vocabulary", None),
    ("polarity.linear_svm", "train_svm", "linear_svm.train", _count_svm),
    ("polarity.linear_svm", "predict_svm", "linear_svm.predict", None),
    ("polarity.naive_bayes", "train_nb", "naive_bayes.train", None),
    ("polarity.naive_bayes", "predict_nb", "naive_bayes.predict", None),
]

# Entry points whose first argument may be a one-shot iterable the counter
# must see again; the wrapper hands the program a list with the same items.
_MATERIALIZE_FIRST = {"vectorize.build_vocabulary"}


def wrap(tracer: Tracer, fn, name, counter=None):
    """Return *fn* wrapped in a span; *name* may be a function of the call."""
    materialize = name in _MATERIALIZE_FIRST

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if materialize and args and not isinstance(args[0], list):
            args = (list(args[0]),) + args[1:]
        label = name(args, kwargs) if callable(name) else name
        idx = tracer.begin(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if counter is not None:
            tracer.bookkeep(counter, label, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer, entry_points=ENTRY_POINTS) -> None:
    """Wrap every entry point that exists; record the rest as absent.

    A module-level function is replaced in every loaded module of its package
    that bound it by name, so ``from .x import f`` call sites are traced too.
    """
    for module_name, path, name, counter in entry_points:
        key = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.add(key)
            continue
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            tracer.absent.add(key)
            continue
        if isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(owner, attr, type(raw)(wrap(tracer, raw.__func__, name, counter)))
            else:
                setattr(owner, attr, wrap(tracer, raw, name, counter))
            continue
        traced = wrap(tracer, raw, name, counter)
        package = module_name.partition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == package or mod_name.startswith(package + "."):
                for var, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, var, traced)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- <polarity arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import polarity.cli
    tracer.end(idx)
    install(tracer)
    try:
        return polarity.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
