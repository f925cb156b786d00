"""The three workloads: how each sets up its inputs, what it times, and
how it checks the program's outputs.

Every input is made from the run's seed, written to the run's work
directory in set-up, and read back by the timed part, so the program
only ever sees generated files and documents.

- ``crossval-slice``: one repeat x five folds of the acceptance-8
  methodology (PROBLEM, models IO/IOB/IOBW/IOBW+) on 100 documents,
  followed by the significance report.  Feature expansion repeats per
  scheme and fold, and the objective runs on many small batches.
- ``train-large``: parse a 600-document corpus, train one IOBEW model
  with the default trainer settings capped at 60 iterations, save it.
  The objective works on large arrays and features are expanded only
  once.
- ``tag-bulk``: the CLI's ``tag --post iobw+`` and ``eval`` over 2,000
  documents with a model trained in set-up.  No objective work at all.
  2,000 rather than 4,000 documents gives about five timed runs per
  run instead of three, so the median of ``wall_s`` rests on more
  samples.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from spantag import cli, corpus, crf, stats, synth
from spantag.errors import SpantagError
from spantag.evaluation import f1_scores
from spantag.features import default_template
from spantag.postprocess import pipeline_spans
from spantag.schemes import get_scheme

EVENT = "PROBLEM"
FACTS = "facts.json"


def three_type_profile():
    """The acceptance-8 corpus profile: three event types, four
    sentences per document, 1.5 mentions per sentence."""
    events = {
        "PROBLEM": synth.EventSpec(0.45, {1: 0.40, 2: 0.35, 3: 0.25},
                                   0.50, 0.10),
        "TEST": synth.EventSpec(0.30, {1: 0.50, 2: 0.50}, 0.35, 0.25),
        "TREATMENT": synth.EventSpec(0.25, {1: 0.40, 2: 0.40, 3: 0.20},
                                     0.40, 0.10),
    }
    return synth.SynthProfile(events, sentences_per_doc=4, mention_rate=1.5)


@dataclass
class Outcome:
    """What one timed run produced, as the output checks judged it."""
    attempted: int
    failed: int = 0
    digest: str = ""
    strict_f1: float = 0.0
    lenient_f1: float = 0.0
    final_objective: float | None = None
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _tokens(docs) -> int:
    return sum(len(s.tokens) for d in docs for s in d.sentences)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _unit_interval(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


class CrossvalSlice:
    name = "crossval-slice"
    n_docs = 100
    folds = 5
    models = ("IO", "IOB", "IOBW", "IOBW+")
    trainer = crf.TrainerConfig(max_iterations=60)

    def setup(self, seed, workdir):
        docs = synth.generate(three_type_profile(), seed, self.n_docs)
        _write(workdir / "corpus.tsv",
               corpus.write_column_file(docs, get_scheme("IOB")))
        return {"input_tokens": _tokens(docs)}

    def prepare(self, seed, workdir, facts):
        docs = corpus.parse_column_file(_read(workdir / "corpus.tsv"))
        cv = stats.CvConfig(repeats=1, folds=self.folds, seed=seed,
                            models=self.models, event_types=(EVENT,))
        return docs, cv

    def timed(self, state):
        docs, cv = state
        logs = []
        train = crf.train

        def recording_train(*args, **kwargs):
            model = train(*args, **kwargs)
            logs.append(model.log)
            return model

        crf.train = recording_train
        try:
            matrix = stats.crossval(docs, cv, self.trainer, jobs=1)
            report = stats.experiment_report(matrix)
        finally:
            crf.train = train
        return matrix, report, logs

    def trainings(self):
        return len({stats.MODEL_CONFIGS[m][0] for m in self.models}) * self.folds

    def attempted(self, facts):
        # every training, every (model, fold) cell, the report
        return self.trainings() + len(self.models) * self.folds + 1

    def check(self, state, result, facts):
        out = Outcome(self.attempted(facts))
        matrix, report, logs = result
        expected = self.trainings()
        if len(logs) != expected:
            out.fail(abs(expected - len(logs)),
                     f"{len(logs)} trainings, expected {expected}")
        strict, lenient = [], []
        for model in self.models:
            cells = matrix.scores.get((EVENT, model), [])
            good = [pair for pair in cells[:self.folds]
                    if len(pair) == 2 and all(map(_unit_interval, pair))]
            if len(good) != self.folds or len(cells) != self.folds:
                out.fail(self.folds - len(good),
                         f"model {model}: {len(good)} valid cells")
            strict.extend(p[0] for p in good)
            lenient.extend(p[1] for p in good)
        pairs = [f"    {a} vs {b}: t(" for i, a in enumerate(self.models)
                 for b in self.models[i + 1:]]
        if "ANOVA across models" not in report or not all(
                p in report for p in pairs):
            out.fail(1, "report lacks the ANOVA or t-test lines")
        out.digest = sha256(matrix.tsv())
        if strict:
            out.strict_f1 = statistics.fmean(strict)
            out.lenient_f1 = statistics.fmean(lenient)
        if logs and all(log.entries for log in logs):
            out.final_objective = statistics.fmean(
                log.entries[-1][1] for log in logs)
        return out


class TrainLarge:
    name = "train-large"
    n_train = 600
    n_heldout = 150
    # Default settings otherwise.  Run to convergence, training takes
    # 66-82 iterations and 98-121 objective calls depending on the seed;
    # every seed stops at the cap instead, 86-95 calls.
    trainer = crf.TrainerConfig(max_iterations=60)

    def setup(self, seed, workdir):
        docs = synth.generate(synth.default_profile(), seed,
                              self.n_train + self.n_heldout)
        train_docs, heldout = docs[:self.n_train], docs[self.n_train:]
        iob = get_scheme("IOB")
        _write(workdir / "train.tsv", corpus.write_column_file(train_docs, iob))
        _write(workdir / "heldout.tsv", corpus.write_column_file(heldout, iob))
        return {"input_tokens": _tokens(train_docs)}

    def prepare(self, seed, workdir, facts):
        return workdir

    def timed(self, workdir):
        docs = corpus.parse_column_file(_read(workdir / "train.tsv"))
        model = crf.train(docs, default_template(transitions=True),
                          get_scheme("IOBEW"), EVENT, self.trainer)
        saved = crf.save_model(model)
        _write(workdir / "model.txt", saved)
        return model, saved

    def attempted(self, facts):
        return 2  # the training, the held-out eval

    def check(self, workdir, result, facts):
        out = Outcome(self.attempted(facts))
        model, saved = result
        out.digest = sha256(saved)
        if model.log.entries:
            out.final_objective = model.log.entries[-1][1]
        try:
            again = crf.save_model(crf.load_model(_read(workdir / "model.txt")))
        except SpantagError as exc:
            again = f"load failed: {exc}"
        if again != saved:
            out.fail(1, "model save -> load -> save is not byte-identical")
        elif not (model.log.entries and model.log.entries[-1][1]
                  < model.log.entries[0][1]):
            out.fail(1, "training did not lower the objective")
        try:
            heldout = corpus.parse_column_file(_read(workdir / "heldout.tsv"))
            gold = {d.id: d.spans_of(EVENT) for d in heldout}
            system = {d.id: pipeline_spans(model.tag(d), d, model.scheme,
                                           EVENT) for d in heldout}
            scores = f1_scores(gold, system, EVENT)
        except SpantagError as exc:
            out.fail(1, f"held-out eval raised {exc}")
            return out
        if not all(map(_unit_interval, scores)):
            out.fail(1, f"held-out F1 outside [0, 1]: {scores}")
        out.strict_f1, out.lenient_f1 = scores
        return out


class TagBulk:
    name = "tag-bulk"
    n_train = 100
    n_tag = 2000

    def setup(self, seed, workdir):
        docs = synth.generate(synth.default_profile(), seed,
                              self.n_train + self.n_tag)
        train_docs, tag_docs = docs[:self.n_train], docs[self.n_train:]
        model = crf.train(train_docs, default_template(transitions=True),
                          get_scheme("IOBW"), EVENT)
        _write(workdir / "model.txt", crf.save_model(model))
        _write(workdir / "tag.tsv",
               corpus.write_column_file(tag_docs, get_scheme("IOB")))
        return {"input_tokens": _tokens(tag_docs),
                "final_objective": model.log.entries[-1][1],
                "docs": [[d.id, len(d.sentences), _tokens([d])]
                         for d in tag_docs]}

    def prepare(self, seed, workdir, facts):
        return workdir

    def timed(self, workdir):
        model, given, tagged = (str(workdir / n) for n in
                                ("model.txt", "tag.tsv", "tagged.tsv"))
        tag_rc = cli.main(["tag", "--model", model, "--input", given,
                           "--output", tagged, "--post", "iobw+"])
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            eval_rc = cli.main(["eval", "--gold", given, "--system", tagged,
                                "--types", EVENT, "--tsv"])
        return tag_rc, eval_rc, report.getvalue()

    def attempted(self, facts):
        return len(facts["docs"]) + 1  # every document, the eval

    def check(self, workdir, result, facts):
        expected = facts["docs"]
        out = Outcome(self.attempted(facts))
        out.final_objective = facts["final_objective"]
        tag_rc, eval_rc, report = result
        if tag_rc != 0:
            out.fail(len(expected), f"tag exited {tag_rc}")
        else:
            data = (workdir / "tagged.tsv").read_bytes()
            out.digest = sha256(data)
            try:
                tagged = corpus.parse_column_file(data.decode("utf-8"))
            except SpantagError as exc:
                tagged = []
                out.problems.append(f"tagged file does not parse: {exc}")
            got = [[d.id, len(d.sentences), _tokens([d])] for d in tagged]
            bad = sum(a != b for a, b in zip(got, expected))
            bad += abs(len(expected) - len(got))
            if bad:
                out.fail(min(bad, len(expected)),
                         f"{bad} tagged documents differ from the input")
        rows = {}
        for line in report.splitlines():
            cells = line.split("\t")
            if len(cells) == 5 and cells[0] == EVENT:
                try:
                    rows[cells[1]] = float(cells[4])
                except ValueError:
                    continue
        if eval_rc != 0 or not all(
                _unit_interval(rows.get(m)) for m in ("strict", "lenient")):
            out.fail(1, f"eval exited {eval_rc} with rows {rows}")
        else:
            out.strict_f1, out.lenient_f1 = rows["strict"], rows["lenient"]
        return out


WORKLOADS = {w.name: w for w in (CrossvalSlice(), TrainLarge(), TagBulk())}


def write_facts(workdir: Path, facts: dict) -> None:
    _write(workdir / FACTS, json.dumps(facts))


def read_facts(workdir: Path) -> dict:
    return json.loads(_read(workdir / FACTS))
