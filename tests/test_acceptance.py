"""Release gate: the nine acceptance criteria, one printed line each.

Every test prints ``acceptance N: PASS/FAIL`` with its pinned tolerance
and measured runtime through the terminal reporter, so a plain pytest
run doubles as the acceptance checklist.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from spantag import synth
from spantag.cli import main
from spantag.crf import TrainerConfig, train
from spantag.evaluation import f1_scores
from spantag.features import default_template
from spantag.postprocess import adjust_labels, pipeline_spans
from spantag.schemes import get_scheme
from spantag.stats import (
    CvConfig,
    anova_oneway,
    crossval,
    experiment_report,
    reg_inc_beta,
    ttest_unpaired,
)

from conftest import build_doc, build_sentence, enumerate_span_sets, is_valid
from oracle import (Instance, expand, feature_table, forward_backward,
                    objective_and_gradient, viterbi)
from test_crf import brute_force, random_lattice, separable_docs, toy_alphabet

ALL_SCHEMES = ("IO", "IOB", "IOBW", "IOBEW")


def _emit(request, text):
    reporter = request.config.pluginmanager.getplugin("terminalreporter")
    if reporter is not None:
        reporter.ensure_newline()
        reporter.write_line(text)


@contextmanager
def criterion(request, number, summary, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(request, f"acceptance {number}: FAIL - {summary}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        _emit(request, f"acceptance {number}: FAIL - {summary} "
                       f"[{elapsed:.1f}s over the {budget:.0f}s budget]")
        raise AssertionError(f"runtime budget exceeded: {elapsed:.1f}s")
    stamp = f" [{elapsed:.1f}s" + (f" < {budget:.0f}s]" if budget else "]")
    _emit(request, f"acceptance {number}: PASS - {summary}{stamp}")


def test_1_scheme_round_trip_exhaustive(request):
    with criterion(request, 1, "scheme round-trip, exhaustive span sets "
                   "over sentences of <= 8 tokens, 4 schemes", budget=10.0):
        for n in range(9):
            for spans in enumerate_span_sets(n):
                adjacent = any(b[0] == a[1]
                               for a, b in zip(spans, spans[1:]))
                for name in ALL_SCHEMES:
                    if name == "IO" and adjacent:
                        continue  # touching spans are not representable
                    scheme = get_scheme(name)
                    labels = scheme.encode(spans, n)
                    assert is_valid(scheme, labels)
                    assert scheme.decode(labels) == spans


def test_2_label_repair_exhaustive(request):
    with criterion(request, 2, "label repair: [O,I,I,O] -> [O,B,I,O]; "
                   "repaired sequences valid and repair idempotent over "
                   "every sequence of <= 6 labels", budget=30.0):
        iob = get_scheme("IOB")
        assert iob.repair(["O", "I", "I", "O"]) == ["O", "B", "I", "O"]
        for name in ALL_SCHEMES:
            scheme = get_scheme(name)
            for k in range(7):
                for seq in itertools.product(scheme.labels, repeat=k):
                    repaired = scheme.repair(list(seq))
                    assert is_valid(scheme, repaired)
                    assert scheme.repair(repaired) == repaired
                    if is_valid(scheme, list(seq)):
                        assert repaired == list(seq)


def test_3_boundary_adjustment(request):
    with criterion(request, 3, "boundary adjustment: the three documented "
                   "merge examples exact; idempotent over every valid "
                   "sequence of <= 7 labels"):
        iob = get_scheme("IOB")
        assert adjust_labels(list("OOOBOIIOO"), iob) == list("OOOBIIIOO")
        assert adjust_labels(list("OOOBIIBIIO"), iob) == list("OOOBIIIIIO")
        assert adjust_labels(list("OOOBIIBIIBIO"), iob) == list("OOOBIIIIIIIO")
        for name in ("IOB", "IOBW"):
            scheme = get_scheme(name)
            for k in range(8):
                for seq in itertools.product(scheme.labels, repeat=k):
                    labels = list(seq)
                    if not is_valid(scheme, labels):
                        continue
                    adjusted = adjust_labels(labels, scheme)
                    assert is_valid(scheme, adjusted)
                    assert adjust_labels(adjusted, scheme) == adjusted


def test_4_inference_and_gradient_oracles(request):
    with criterion(request, 4, "logZ/marginals/Viterbi vs enumeration on "
                   "200 instances (len <= 6, <= 4 labels) within 1e-8; "
                   "gradient vs central differences within 1e-4 relative "
                   "on 20 instances", budget=60.0):
        rng = np.random.default_rng(814)
        for i in range(200):
            n = int(rng.integers(1, 7))
            n_labels = int(rng.integers(2, 5))
            lat = random_lattice(rng, n, n_labels, with_edges=bool(i % 2))
            want_z, want_node, want_edge, want_path = brute_force(lat)
            got_z, got_node, got_edge = forward_backward(lat)
            assert abs(got_z - want_z) <= 1e-8 * max(1.0, abs(want_z))
            np.testing.assert_allclose(got_node, want_node, atol=1e-8)
            if got_edge is not None:
                np.testing.assert_allclose(got_edge, want_edge, atol=1e-8)
            assert viterbi(lat) == want_path

        alphabet = toy_alphabet(4, 3, transitions=True)
        h = 1e-6
        for _ in range(20):
            n = int(rng.integers(1, 7))
            feats = [sorted(rng.choice(alphabet.n_features, size=2,
                                       replace=False).tolist())
                     for _ in range(n)]
            gold = rng.integers(0, alphabet.n_labels, size=n).tolist()
            instances = [Instance(feats, gold)]
            w = rng.normal(0.0, 0.5, size=alphabet.dim)
            _, grad = objective_and_gradient(w, instances, alphabet, C=2.0)
            for j in range(alphabet.dim):
                probe = w.copy()
                probe[j] = w[j] + h
                up, _ = objective_and_gradient(probe, instances, alphabet,
                                               C=2.0)
                probe[j] = w[j] - h
                down, _ = objective_and_gradient(probe, instances, alphabet,
                                                 C=2.0)
                numeric = (up - down) / (2 * h)
                assert abs(grad[j] - numeric) <= 1e-4 * max(1.0, abs(numeric))


def test_5_template_width(request):
    with criterion(request, 5, "default context template expands to exactly "
                   "31 feature strings at every interior position"):
        template = default_template()
        sent = build_sentence(("on", "IN", "O"), ("exam", "NN", "B-NP"),
                              ("mild", "JJ", "B-NP"), ("chest", "NN", "I-NP"),
                              ("pain", "NN", "I-NP"), ("noted", "VB", "O"),
                              ("today", "NN", "O"))
        table = feature_table(sent)
        for position in range(2, len(table) - 2):
            assert len(expand(template, table, position)) == 31


def test_6_training_on_separable_corpus(request):
    with criterion(request, 6, "separable 200-sentence corpus reaches "
                   "strict F1 >= 0.99 within 500 iterations; ||w|| at "
                   "C=0.01 strictly below ||w|| at C=100"):
        docs = separable_docs(100)
        assert sum(len(d.sentences) for d in docs) == 200
        scheme = get_scheme("IOB")
        template = default_template(transitions=True)
        model = train(docs, template, scheme, "PROBLEM",
                      TrainerConfig(max_iterations=500))
        assert model.log.iterations <= 500
        gold = {d.id: list(d.gold_spans) for d in docs}
        system = {d.id: pipeline_spans(model.tag(d), d, scheme,
                                       "PROBLEM", "none") for d in docs}
        strict, _ = f1_scores(gold, system, "PROBLEM")
        assert strict >= 0.99

        tight = train(docs, template, scheme, "PROBLEM",
                      TrainerConfig(C=0.01, max_iterations=500))
        loose = train(docs, template, scheme, "PROBLEM",
                      TrainerConfig(C=100.0, max_iterations=500))
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


ANOVA_SMALL = ([[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0],
                [6.0, 7.0, 8.0, 9.0]],
               16.8, 0.0009156892095688853)
ANOVA_SCORES = ([[0.74, 0.77, 0.72, 0.75, 0.78],
                 [0.80, 0.79, 0.82, 0.78, 0.81],
                 [0.79, 0.83, 0.80, 0.84, 0.82],
                 [0.90, 0.86, 0.88, 0.87, 0.89]],
                37.26222222222227, 1.9010386429449274e-07)
TTEST_SMALL = ([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0],
               -1.0, 0.34659350708733416)
TTEST_SCORES = ([0.81, 0.83, 0.79, 0.86, 0.80, 0.84],
                [0.85, 0.88, 0.84, 0.90, 0.87, 0.83],
                -2.6248718355588454, 0.02538458793117156)


def test_7_statistics_references_and_identities(request):
    with criterion(request, 7, "ANOVA/t-test match independent references "
                   "within 1e-6; F = t*t for two groups within 1e-9; "
                   "incomplete-beta identities within 1e-10"):
        for groups, f_ref, p_ref in (ANOVA_SMALL, ANOVA_SCORES):
            got = anova_oneway(groups)
            assert abs(got.statistic - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
            assert abs(got.p_value - p_ref) <= 1e-6 * max(1.0, abs(p_ref))
        for a, b, t_ref, p_ref in (TTEST_SMALL, TTEST_SCORES):
            got = ttest_unpaired(a, b)
            assert abs(got.statistic - t_ref) <= 1e-6 * max(1.0, abs(t_ref))
            assert abs(got.p_value - p_ref) <= 1e-6 * max(1.0, abs(p_ref))

        rng = np.random.default_rng(55)
        for _ in range(25):
            a = rng.uniform(0.5, 1.0, size=6).tolist()
            b = rng.uniform(0.5, 1.0, size=6).tolist()
            f_res = anova_oneway([a, b])
            t_res = ttest_unpaired(a, b)
            assert abs(f_res.statistic - t_res.statistic ** 2) <= 1e-9 * max(
                1.0, f_res.statistic)
            assert abs(f_res.p_value - t_res.p_value) <= 1e-9

        xs = np.linspace(0.0, 1.0, 21)
        for x in xs:
            assert abs(reg_inc_beta(1.0, 1.0, float(x)) - x) <= 1e-10
        for a, b in ((0.5, 0.5), (2.0, 5.0), (7.5, 1.25), (40.0, 40.0)):
            assert abs(reg_inc_beta(a, b, 0.0)) <= 1e-10
            assert abs(reg_inc_beta(a, b, 1.0) - 1.0) <= 1e-10
            assert abs(reg_inc_beta(a, a, 0.5) - 0.5) <= 1e-10
            for x in (0.05, 0.3, 0.62, 0.97):
                total = reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x)
                assert abs(total - 1.0) <= 1e-10


def _three_type_profile():
    events = {
        "PROBLEM": synth.EventSpec(0.45, {1: 0.40, 2: 0.35, 3: 0.25},
                                   0.50, 0.10),
        "TEST": synth.EventSpec(0.30, {1: 0.50, 2: 0.50}, 0.35, 0.25),
        "TREATMENT": synth.EventSpec(0.25, {1: 0.40, 2: 0.40, 3: 0.20},
                                     0.40, 0.10),
    }
    return synth.SynthProfile(events, sentences_per_doc=4, mention_rate=1.5)


def test_8_crossval_methodology(request):
    with criterion(request, 8, "5x5 cross-validation with ANOVA and "
                   "pairwise t-tests on 100 synthetic documents, 3 event "
                   "types, models IO/IOB/IOBW/IOBW+", budget=600.0):
        docs = synth.generate(_three_type_profile(), seed=2024,
                              n_documents=100)
        assert len(docs) == 100
        cv = CvConfig(repeats=5, folds=5, seed=0,
                      models=("IO", "IOB", "IOBW", "IOBW+"),
                      event_types=("PROBLEM", "TEST", "TREATMENT"))
        matrix = crossval(docs, cv, TrainerConfig(max_iterations=60))
        for event_type in cv.event_types:
            for model in cv.models:
                cells = matrix.scores[(event_type, model)]
                assert len(cells) == 25
                assert all(0.0 <= v <= 1.0 for pair in cells for v in pair)
        report = experiment_report(matrix)
        for event_type in cv.event_types:
            assert f"== {event_type} / strict F1" in report
            assert f"== {event_type} / lenient F1" in report
            assert "ANOVA across models" in report
        assert "== directional summary (descriptive, not asserted) ==" in report
    # findings are corpus-dependent: report them, never hard-assert
    summary = report[report.index("== directional summary"):]
    for line in summary.strip().splitlines():
        _emit(request, "    " + line)


def test_9_seed_determinism(request, tmp_path):
    with criterion(request, 9, "identical seeds give byte-identical "
                   "synth/train/tag/crossval outputs"):
        events = {
            "ALPHA": synth.EventSpec(0.5, {1: 0.4, 2: 0.6}, 0.5, 0.1),
            "BETA": synth.EventSpec(0.5, {1: 0.7, 2: 0.3}, 0.3, 0.0),
        }
        profile = synth.SynthProfile(events, sentences_per_doc=4,
                                     mention_rate=1.5)
        profile_path = tmp_path / "profile.txt"
        profile_path.write_text(synth.profile_text(profile), encoding="utf-8")

        outputs = {}
        for tag in ("a", "b"):
            corpus_path = tmp_path / f"corpus_{tag}.tsv"
            model_path = tmp_path / f"model_{tag}.txt"
            tagged_path = tmp_path / f"tagged_{tag}.tsv"
            matrix_path = tmp_path / f"matrix_{tag}.tsv"
            assert main(["synth", "--docs", "8", "--seed", "21",
                         "--profile", str(profile_path),
                         "--output", str(corpus_path)]) == 0
            assert main(["train", "--input", str(corpus_path),
                         "--model", str(model_path), "--type", "ALPHA",
                         "--max-iter", "40"]) == 0
            assert main(["tag", "--model", str(model_path),
                         "--input", str(corpus_path),
                         "--output", str(tagged_path)]) == 0
            assert main(["crossval", "--input", str(corpus_path),
                         "--repeats", "1", "--folds", "2",
                         "--models", "IOB,IOBW+", "--types", "ALPHA",
                         "--seed", "7", "--max-iter", "40",
                         "--matrix", str(matrix_path)]) == 0
            outputs[tag] = tuple(p.read_bytes() for p in
                                 (corpus_path, model_path, tagged_path,
                                  matrix_path))
        assert outputs["a"] == outputs["b"]
