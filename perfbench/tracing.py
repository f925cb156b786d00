"""Span tracing from outside the program.

``Tracer.wrap`` replaces a module or class attribute with a wrapper that
records one span per call: its name, the span that was open when it
started (its parent), and its start and end times.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer self times, where a
span's self time is its duration minus the time its child spans cover.
The program itself is never edited: ``restore`` puts every original
attribute back.
"""

import contextlib
import functools
import statistics
import time
from collections import defaultdict

from spantag import cli, corpus, crf, evaluation, optim, stats, synth

ROOT = "workload"
# spans whose own time no named layer accounts for: the root and the
# entry points, which span the whole timed part; trace.coverage counts
# their self time as not covered
ENTRY_POINTS = (ROOT, "stats.crossval", "cli.main")

# span name -> per-layer metric that sums the self times of those spans
SELF_TIME_METRICS = {
    "features.expand": "features.expand_s",
    "crf.alphabet": "crf.alphabet_s",
    "crf.instances": "crf.instances_s",
    "crf.batch_build": "crf.batch_build_s",
    "crf.objective": "crf.objective_s",
    "optim.lbfgs": "optim.lbfgs_s",
    "crf.tag": "crf.tag_s",
    "crf.lattice": "crf.lattice_s",
    "crf.viterbi": "crf.viterbi_s",
    "corpus.parse": "corpus.parse_s",
    "corpus.write": "corpus.write_s",
    "crf.load_model": "crf.load_model_s",
    "crf.save_model": "crf.save_model_s",
    "postprocess.pipeline": "postprocess.pipeline_s",
    "evaluation.score": "evaluation.score_s",
    "stats.report": "stats.report_s",
    "stats.crossval": "stats.crossval_self_s",
    "synth.generate": "synth.generate_s",
    "cli.main": "cli.self_s",
}


class Tracer:
    """Call spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self._undo = []
        self.positions_expanded = 0
        self.tagged_tokens = 0
        self.feature_counts = []
        self.lbfgs_logs = []

    def wrap(self, owner, attr, name, on_call=None, on_result=None):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self):
        """Wrap the public functions of every spantag layer."""
        def count_positions(args):
            self.positions_expanded += len(args[1])

        def count_tokens(args):
            self.tagged_tokens += sum(len(s.tokens) for s in args[1].sentences)

        w = self.wrap
        w(crf, "feature_table", "features.expand")
        w(crf, "expand_sentence", "features.expand", on_call=count_positions)
        w(crf, "build_alphabet", "crf.alphabet",
          on_result=lambda a: self.feature_counts.append(a.n_features))
        w(crf, "make_instances", "crf.instances")
        w(crf.BatchedObjective, "__init__", "crf.batch_build")
        w(crf.BatchedObjective, "__call__", "crf.objective")
        w(optim, "minimize", "optim.lbfgs",
          on_result=lambda r: self.lbfgs_logs.append(r[1]))
        w(crf.CrfModel, "tag", "crf.tag", on_call=count_tokens)
        w(crf, "instance_lattice", "crf.lattice")
        w(crf, "viterbi", "crf.viterbi")
        w(crf, "save_model", "crf.save_model")
        w(crf, "load_model", "crf.load_model",
          on_result=lambda m: self.feature_counts.append(m.alphabet.n_features))
        w(corpus, "parse_column_file", "corpus.parse")
        w(corpus, "write_column_file", "corpus.write")
        w(stats, "pipeline_spans", "postprocess.pipeline")
        w(cli, "pipeline_spans", "postprocess.pipeline")
        w(stats, "f1_scores", "evaluation.score")
        w(evaluation, "evaluate", "evaluation.score")
        w(stats, "crossval", "stats.crossval")
        w(stats, "experiment_report", "stats.report")
        w(cli, "main", "cli.main")
        w(synth, "generate", "synth.generate")

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self):
        """The span that covers the timed part of a workload."""
        record = [ROOT, -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Summed self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for (name, _, start, end), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return totals

    def layer_metrics(self, input_tokens):
        """Every per-layer metric of one traced run of a workload."""
        own = self.self_times()
        out = {metric: own.get(name, 0.0)
               for name, metric in SELF_TIME_METRICS.items()}
        calls = sum(1 for span in self.spans if span[0] == "crf.objective")
        iterations = sum(log.iterations for log in self.lbfgs_logs)
        trainings = len(self.lbfgs_logs)
        out["crf.objective_calls"] = calls
        out["crf.objective_ms"] = (1000.0 * out["crf.objective_s"] / calls
                                   if calls else 0.0)
        out["features.positions_expanded"] = self.positions_expanded
        out["features.expansions_per_position"] = (
            self.positions_expanded / input_tokens)
        out["crf.n_features"] = (statistics.fmean(self.feature_counts)
                                 if self.feature_counts else 0)
        out["optim.iterations"] = iterations
        out["optim.backtracks"] = calls - iterations - trainings
        out["optim.converged_frac"] = (
            sum(log.converged for log in self.lbfgs_logs) / trainings
            if trainings else 0.0)
        out["crf.tagged_tokens"] = self.tagged_tokens
        roots = [s for s in self.spans if s[0] == ROOT]
        wall = sum(end - start for _, _, start, end in roots)
        if wall > 0:
            uncovered = sum(own.get(name, 0.0) for name in ENTRY_POINTS)
            out["trace.coverage"] = 1.0 - uncovered / wall
        return out
