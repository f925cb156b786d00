"""The names the benchmark's tracer wraps from outside the program.

``perfbench/tracing.py`` replaces module and class attributes by name,
for instance ``crf.expand_sentence`` and ``crf.feature_table``: the
expansion is only measured if ``crf`` calls them as its own module
globals.  This test installs that tracer on a tiny corpus and checks
that every name resolves, that the main layers record spans, that the
expansion counter sees every token once per pass, and that ``restore``
puts the originals back.  ``crf.instance_lattice`` and ``crf.viterbi``
are the live batch node scorer and decoder: every objective call and
every decode crosses the first, and every decode the second.  The
crossval-slice check counts trainings by replacing ``crf.train``, so
crossval must still call it once per (fold, scheme).  ``cli tag``
decodes groups of documents, each through ``CrfModel.tag``, so the
tracer's ``crf.tag`` span and token counter cover every decode.  The
integer-key encoder calls ``crf.feature_table`` and
``crf.expand_sentence`` once per group of sentences, so the expansion
counter reads the group's positions and the expansion time stays under
``crf.tag`` and ``crf.alphabet``.
"""

import sys
from collections import Counter
from pathlib import Path

from spantag import cli, corpus, crf, stats, synth
from spantag.crf import TrainerConfig
from spantag.features import default_template
from spantag.schemes import get_scheme

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def spans_by_parent(tracer, name):
    """How many spans named ``name`` each parent span name holds."""
    parents = Counter()
    for span_name, parent, _, _ in tracer.spans:
        if span_name == name:
            parents[tracer.spans[parent][0] if parent >= 0 else None] += 1
    return parents


def test_tracer_wraps_and_restores_the_program():
    docs = synth.generate(synth.default_profile(), 11, 3)
    tokens = sum(len(s.tokens) for d in docs for s in d.sentences)
    tracer = tracing.Tracer()
    tracer.install()  # raises AttributeError for a name that is gone
    wrapped = list(tracer._undo)
    try:
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original
        model = crf.train(docs, default_template(True), get_scheme("IOB"),
                          "PROBLEM", TrainerConfig(max_iterations=5))
        assert tracer.positions_expanded == tokens
        for doc in docs:
            model.tag(doc)
        assert tracer.positions_expanded == 2 * tokens
        assert tracer.tagged_tokens == tokens
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"features.expand", "crf.alphabet", "crf.objective",
            "crf.tag", "crf.lattice", "crf.viterbi"} <= names
    parents = spans_by_parent(tracer, "crf.lattice")
    assert parents["crf.objective"] == sum(
        span[0] == "crf.objective" for span in tracer.spans)
    assert parents["crf.tag"] == len(docs)
    assert spans_by_parent(tracer, "crf.viterbi") == {"crf.tag": len(docs)}
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original


def test_crossval_expands_once_and_trains_per_fold_and_scheme(monkeypatch):
    docs = synth.generate(synth.default_profile(), 12, 6)
    tokens = sum(len(s.tokens) for d in docs for s in d.sentences)
    cv = stats.CvConfig(repeats=1, folds=3, seed=1,
                        models=("IO", "IOB", "IOBW", "IOBW+"),
                        event_types=("PROBLEM",))
    trainings = []
    train = crf.train

    def recording_train(*args, **kwargs):
        trainings.append(args[0])
        return train(*args, **kwargs)

    monkeypatch.setattr(crf, "train", recording_train)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        stats.crossval(docs, cv, TrainerConfig(max_iterations=5))
    finally:
        tracer.restore()
    assert tracer.positions_expanded == tokens
    assert len(trainings) == 3 * cv.folds  # schemes IO, IOB, IOBW
    assert all(isinstance(t, crf.EncodedCorpus) for t in trainings)
    # one batch decode per (fold, scheme): node scores, then Viterbi
    decodes = len(trainings)
    lattices = spans_by_parent(tracer, "crf.lattice")
    assert sum(lattices.values()) - lattices["crf.objective"] == decodes
    assert sum(spans_by_parent(tracer, "crf.viterbi").values()) == decodes


def test_cli_tag_decodes_groups_of_documents_through_tag(tmp_path,
                                                         monkeypatch):
    docs = synth.generate(synth.default_profile(), 13, 8)
    tokens = sum(len(s.tokens) for d in docs for s in d.sentences)
    given, model_path = tmp_path / "given.tsv", tmp_path / "model.txt"
    given.write_text(corpus.write_column_file(docs, get_scheme("IOBW")),
                     encoding="utf-8")
    model = crf.train(docs, default_template(True), get_scheme("IOBW"),
                      "PROBLEM", TrainerConfig(max_iterations=5))
    model_path.write_text(crf.save_model(model), encoding="utf-8")
    monkeypatch.setattr(crf, "_TAG_POSITIONS", 60)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rc = cli.main(["tag", "--model", str(model_path), "--input",
                       str(given), "--output", str(tmp_path / "tagged.tsv"),
                       "--post", "iobw+"])
    finally:
        tracer.restore()
    assert rc == 0
    tags = sum(span[0] == "crf.tag" for span in tracer.spans)
    assert 1 < tags < len(docs)
    assert tracer.tagged_tokens == tokens
    assert tracer.positions_expanded == tokens
    # each group's column codes and keys: one ``feature_table`` and one
    # ``expand_sentence`` call under its ``crf.tag``
    assert spans_by_parent(tracer, "features.expand") == {"crf.tag": 2 * tags}
    assert spans_by_parent(tracer, "crf.lattice") == {"crf.tag": tags}
    assert spans_by_parent(tracer, "crf.viterbi") == {"crf.tag": tags}
