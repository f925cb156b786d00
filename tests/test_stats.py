"""Statistics: pinned references, identities, and the CV harness."""

import math

import numpy as np
import pytest

from spantag import stats, synth
from spantag.corpus import Sentence, Span
from spantag.crf import TrainerConfig, train
from spantag.errors import ConfigError, ParseError
from spantag.evaluation import f1_scores
from spantag.features import default_template
from spantag.postprocess import pipeline_spans
from spantag.rng import derive_seed
from spantag.schemes import get_scheme
from spantag.stats import (
    MODEL_NAMES,
    CvConfig,
    RunMatrix,
    anova_oneway,
    crossval,
    experiment_report,
    f_sf,
    fold_sizes,
    make_folds,
    parse_matrix,
    reg_inc_beta,
    t_two_tailed,
    ttest_unpaired,
)

from conftest import build_doc, build_sentence


# Frozen outputs of a widely used independent statistics library for the
# exact inputs below.
ANOVA_SMALL = ([[1.0, 2.0, 3.0, 4.0],
                [2.0, 3.0, 4.0, 5.0],
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
BETAINC_REFERENCE = [
    ((2.5, 3.5, 0.4), 0.4869041915261176),
    ((0.5, 0.5, 0.3), 0.36901011956554536),
    ((12.0, 1.0, 0.9), 0.282429536481),
    ((1.0, 1.0, 0.7), 0.7),
    ((50.0, 50.0, 0.5), 0.5000000000000004),
    ((5.0, 2.0, 0.05), 1.7968750000000005e-06),
]
TAIL_REFERENCE = [
    ("t", (2.0, 10), 0.07338803477074039),
    ("t", (0.5, 48), 0.6193596576930802),
    ("f", (3.5, 3, 16), 0.040052541494826094),
    ("f", (0.25, 4, 20), 0.906252898083978),
]


class TestPinnedReferences:
    @pytest.mark.parametrize("groups,f_ref,p_ref", [ANOVA_SMALL, ANOVA_SCORES])
    def test_anova(self, groups, f_ref, p_ref):
        result = anova_oneway(groups)
        assert result.statistic == pytest.approx(f_ref, rel=1e-9)
        assert result.p_value == pytest.approx(p_ref, rel=1e-9)
        k, n = len(groups), len(groups[0])
        assert result.df == (k - 1, k * (n - 1))

    @pytest.mark.parametrize("a,b,t_ref,p_ref", [TTEST_SMALL, TTEST_SCORES])
    def test_ttest(self, a, b, t_ref, p_ref):
        result = ttest_unpaired(a, b)
        assert result.statistic == pytest.approx(t_ref, rel=1e-9)
        assert result.p_value == pytest.approx(p_ref, rel=1e-9)
        assert result.df == (len(a) + len(b) - 2,)

    @pytest.mark.parametrize("args,want", BETAINC_REFERENCE)
    def test_incomplete_beta(self, args, want):
        assert reg_inc_beta(*args) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("kind,args,want", TAIL_REFERENCE)
    def test_distribution_tails(self, kind, args, want):
        got = t_two_tailed(*args) if kind == "t" else f_sf(*args)
        assert got == pytest.approx(want, rel=1e-12)


class TestIdentities:
    def test_f_equals_t_squared_for_two_groups(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            a = rng.normal(0.0, 1.0, n).tolist()
            b = rng.normal(0.3, 1.2, n).tolist()
            tt = ttest_unpaired(a, b)
            av = anova_oneway([a, b])
            assert av.statistic == pytest.approx(tt.statistic ** 2, rel=1e-9)
            assert av.p_value == pytest.approx(tt.p_value, rel=1e-9)

    def test_beta_uniform_case_is_identity(self):
        for x in np.linspace(0.0, 1.0, 41):
            assert reg_inc_beta(1.0, 1.0, float(x)) == pytest.approx(
                float(x), abs=1e-10)

    def test_beta_reflection_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = float(rng.uniform(0.2, 20.0))
            b = float(rng.uniform(0.2, 20.0))
            x = float(rng.uniform(0.0, 1.0))
            lhs = reg_inc_beta(a, b, x)
            rhs = 1.0 - reg_inc_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_beta_boundaries_and_midpoint(self):
        assert reg_inc_beta(3.0, 4.0, 0.0) == 0.0
        assert reg_inc_beta(3.0, 4.0, 1.0) == 1.0
        for a in (0.5, 1.0, 2.0, 7.5):
            assert reg_inc_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-10)

    def test_beta_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 51)
        values = [reg_inc_beta(2.0, 5.0, float(x)) for x in xs]
        assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(values, values[1:]))

    def test_t_symmetry_in_sample_order(self):
        a = [0.1, 0.4, 0.3]
        b = [0.2, 0.6, 0.5, 0.4]
        ab, ba = ttest_unpaired(a, b), ttest_unpaired(b, a)
        assert ab.statistic == -ba.statistic
        assert ab.p_value == ba.p_value

    def test_null_statistics_give_p_one(self):
        assert t_two_tailed(0.0, 12) == 1.0
        assert f_sf(0.0, 3, 16) == 1.0
        assert f_sf(-1.0, 3, 16) == 1.0

    def test_p_values_live_in_unit_interval(self):
        for t in np.linspace(-30, 30, 31):
            p = t_two_tailed(float(t), 7)
            assert 0.0 <= p <= 1.0
        assert t_two_tailed(50.0, 7) < 1e-9


class TestDegenerateInputs:
    def test_zero_variance_equal_means(self):
        result = ttest_unpaired([0.5, 0.5], [0.5, 0.5])
        assert result.statistic == 0.0 and result.p_value == 1.0
        assert not result.degenerate
        result = anova_oneway([[1.0, 1.0], [1.0, 1.0]])
        assert result.statistic == 0.0 and result.p_value == 1.0

    def test_zero_variance_different_means(self):
        result = ttest_unpaired([0.4, 0.4], [0.6, 0.6])
        assert math.isinf(result.statistic) and result.statistic < 0
        assert result.p_value == 0.0 and result.degenerate
        result = ttest_unpaired([0.6, 0.6], [0.4, 0.4])
        assert result.statistic > 0
        result = anova_oneway([[1.0, 1.0], [2.0, 2.0]])
        assert math.isinf(result.statistic) and result.degenerate

    def test_validation(self):
        with pytest.raises(ValueError):
            anova_oneway([[1.0, 2.0]])
        with pytest.raises(ValueError):
            anova_oneway([[1.0], [2.0]])
        with pytest.raises(ValueError):
            anova_oneway([[1.0, 2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            ttest_unpaired([1.0], [2.0, 3.0])
        with pytest.raises(ValueError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_inc_beta(1.0, 1.0, 1.5)


def small_matrix():
    matrix = RunMatrix(repeats=2, folds=3, models=("IO", "IOB"),
                       event_types=("PROBLEM",))
    matrix.scores[("PROBLEM", "IO")] = [
        (0.70, 0.80), (0.72, 0.82), (0.68, 0.78),
        (0.71, 0.81), (0.69, 0.79), (0.73, 0.83)]
    matrix.scores[("PROBLEM", "IOB")] = [
        (0.75, 0.85), (0.77, 0.87), (0.73, 0.83),
        (0.76, 0.86), (0.74, 0.84), (0.78, 0.88)]
    return matrix


class TestRunMatrix:
    def test_values_select_criterion(self):
        matrix = small_matrix()
        assert matrix.values("PROBLEM", "IO", "strict")[0] == 0.70
        assert matrix.values("PROBLEM", "IO", "lenient")[0] == 0.80

    def test_tsv_parse_round_trip(self):
        matrix = small_matrix()
        back = parse_matrix(matrix.tsv())
        assert back.repeats == matrix.repeats
        assert back.folds == matrix.folds
        assert back.models == matrix.models
        assert back.event_types == matrix.event_types
        assert back.scores == matrix.scores
        assert back.tsv() == matrix.tsv()

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("nope\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n", 2),
        ("\nevent\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n\n", 3)],
        ids=["header", "header-between-blank-lines"])
    def test_parse_rejects_header_only_matrix(self, text, line):
        with pytest.raises(ParseError, match="run matrix has no cells") as exc:
            parse_matrix(text)
        assert exc.value.line == line  # the line after the header

    def test_parse_rejects_short_row(self):
        text = small_matrix().tsv().splitlines()
        text[1] = "\t".join(text[1].split("\t")[:5])
        with pytest.raises(ParseError) as exc:
            parse_matrix("\n".join(text) + "\n")
        assert exc.value.line == 2

    def test_parse_rejects_bad_number(self):
        text = small_matrix().tsv().replace("0.7\t", "seven\t", 1)
        with pytest.raises(ParseError):
            parse_matrix(text)

    def test_parse_rejects_negative_index(self):
        text = ("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n"
                "P\tIO\t-1\t0\t0.5\t0.5\n"
                "P\tIO\t0\t1\t0.5\t0.5\n")
        with pytest.raises(ParseError) as exc:
            parse_matrix(text)
        assert exc.value.line == 2
        assert "non-negative" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
    def test_parse_rejects_f1_outside_unit_interval(self, value):
        lines = small_matrix().tsv().splitlines()
        lines[2] = lines[2].replace("0.72\t", f"{value}\t", 1)
        with pytest.raises(ParseError) as exc:
            parse_matrix("\n".join(lines) + "\n")
        assert exc.value.line == 3

    def test_parse_rejects_duplicate_cell(self):
        lines = small_matrix().tsv().splitlines()
        lines.append(lines[1].replace("0.7\t", "0.1\t", 1))
        with pytest.raises(ParseError) as exc:
            parse_matrix("\n".join(lines) + "\n")
        assert exc.value.line == len(lines)
        assert "duplicate" in str(exc.value)

    def test_parse_error_line_counts_blank_lines(self):
        lines = small_matrix().tsv().splitlines()
        lines[3] = "\t".join(lines[3].split("\t")[:5])
        lines.insert(1, "")
        with pytest.raises(ParseError) as exc:
            parse_matrix("\n".join(lines) + "\n")
        assert exc.value.line == 5

    def test_parse_rejects_missing_event_model_pair(self):
        lines = ["event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1"]
        for event, model in [("A", "X"), ("A", "Y"), ("B", "X")]:
            for fold in (0, 1):
                lines.append(f"{event}\t{model}\t0\t{fold}\t0.5\t0.6")
        with pytest.raises(ParseError) as exc:
            parse_matrix("\n".join(lines) + "\n")
        assert exc.value.line == 6  # the first row of event B
        assert "(B, Y)" in str(exc.value)

    def test_parse_rejects_incomplete_cells(self):
        lines = small_matrix().tsv().splitlines()
        with pytest.raises(ParseError) as exc:
            parse_matrix("\n".join(lines[:-1]) + "\n")
        assert "has 5 of 6 values" in str(exc.value)
        assert exc.value.line == 8  # the first row of the (PROBLEM, IOB) block

    def test_parse_rejects_one_cell_per_block(self):
        # the report's ANOVA and t-tests need two values per model
        text = ("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n"
                "P\tIO\t0\t0\t0.5\t0.5\n"
                "P\tIOB\t0\t0\t0.6\t0.6\n")
        with pytest.raises(ParseError, match="has 1 value") as exc:
            parse_matrix(text)
        assert exc.value.line == 2  # the first row of the (P, IO) block


class TestFolds:
    def test_fold_sizes_partition_documents(self):
        for n in range(2, 40):
            for k in range(2, 8):
                sizes = fold_sizes(n, k)
                assert sum(sizes) == n
                assert len(sizes) == k
                assert max(sizes) - min(sizes) <= 1

    def test_make_folds_partitions_indices(self):
        folds = make_folds(11, 4, seed=3)
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(11))
        assert [len(f) for f in folds] == fold_sizes(11, 4)
        assert all(fold == sorted(fold) for fold in folds)

    def test_make_folds_deterministic_and_seed_sensitive(self):
        assert make_folds(20, 5, seed=1) == make_folds(20, 5, seed=1)
        assert make_folds(20, 5, seed=1) != make_folds(20, 5, seed=2)


class TestCvConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CvConfig(folds=1, event_types=("PROBLEM",))
        with pytest.raises(ConfigError):
            CvConfig(repeats=0, event_types=("PROBLEM",))
        with pytest.raises(ConfigError):
            CvConfig(models=("IO", "BILOU"), event_types=("PROBLEM",))
        with pytest.raises(ConfigError):
            CvConfig(event_types=())
        for kwargs in ({"models": ()}, {"models": ("IO", "IOB", "IO")},
                       {"event_types": ("PROBLEM", "PROBLEM")},
                       {"event_types": ("PROBLEM", "TEST", "PROBLEM")}):
            with pytest.raises(ConfigError):
                CvConfig(**{"event_types": ("PROBLEM",), **kwargs})
        for kwargs in ({"folds": 2.5}, {"repeats": 1.5}, {"folds": 3.0},
                       {"repeats": True}):
            with pytest.raises(ConfigError):
                CvConfig(event_types=("PROBLEM",), **kwargs)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.0, True, "0"])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # derive_seed masks its base, so -1 and 2**64 would alias seeds
        with pytest.raises(ConfigError, match="seed must be"):
            CvConfig(event_types=("PROBLEM",), seed=seed)

    def test_seed_range_ends_are_accepted(self):
        for seed in (0, 2**64 - 1):
            assert CvConfig(event_types=("PROBLEM",), seed=seed).seed == seed

    @pytest.mark.parametrize("name", ["A B", "", "PROBLEM\n", "B-TEST"])
    def test_event_type_names_are_checked(self, name):
        with pytest.raises(ConfigError, match="bad event type"):
            CvConfig(event_types=("PROBLEM", name))


TWO_TYPES = synth.SynthProfile(
    {"ALPHA": synth.EventSpec(0.5, {1: 0.4, 2: 0.6}, 0.5, 0.1),
     "BETA": synth.EventSpec(0.5, {1: 0.7, 2: 0.3}, 0.3, 0.0)},
    sentences_per_doc=3, mention_rate=1.5)


def tiny_corpus(n_docs=8):
    docs = []
    for i in range(n_docs):
        s0 = build_sentence(("the", "DT", "B-NP"), ("fever", "NN", "I-NP"),
                            ("subsided", "VB", "O"))
        s1 = build_sentence(("an", "DT", "B-NP"), ("ecg", "NN", "I-NP"),
                            ("was", "VB", "O"), ("ordered", "VB", "O"))
        docs.append(build_doc(f"d{i}", [s0, s1],
                              [Span(0, 0, 2, "PROBLEM"), Span(1, 1, 2, "TEST")]))
    return docs


FAST_TRAINER = TrainerConfig(max_iterations=60)


def per_fold_crossval(docs, cv, trainer):
    """``crossval`` as it ran before the corpus was encoded once: each
    (fold, scheme) trains on its own documents and tags every test
    document on its own.  The oracle for the shared encoding."""
    template = default_template(transitions=True)
    matrix = RunMatrix(cv.repeats, cv.folds, cv.models, cv.event_types)
    for event_type in cv.event_types:
        for repeat in range(cv.repeats):
            seed = derive_seed(cv.seed, event_type, repeat)
            for test_idx in make_folds(len(docs), cv.folds, seed):
                train_docs = [d for i, d in enumerate(docs)
                              if i not in test_idx]
                test_docs = [docs[i] for i in test_idx]
                gold = {d.id: d.spans_of(event_type) for d in test_docs}
                models = {}
                for name in cv.models:
                    scheme, mode = stats.MODEL_CONFIGS[name]
                    if scheme not in models:
                        models[scheme] = train(train_docs, template,
                                               get_scheme(scheme), event_type,
                                               trainer)
                    model = models[scheme]
                    system = {d.id: pipeline_spans(model.tag(d), d, model.scheme,
                                                   event_type, mode)
                              for d in test_docs}
                    matrix.scores.setdefault((event_type, name), []).append(
                        f1_scores(gold, system, event_type))
    return matrix


class TestCrossval:
    def test_matrix_shape_and_score_range(self):
        cv = CvConfig(repeats=1, folds=2, seed=5, models=("IO", "IOB"),
                      event_types=("PROBLEM",))
        matrix = crossval(tiny_corpus(), cv, FAST_TRAINER)
        assert set(matrix.scores) == {("PROBLEM", "IO"), ("PROBLEM", "IOB")}
        for values in matrix.scores.values():
            assert len(values) == 2
            assert all(0.0 <= v <= 1.0 for pair in values for v in pair)

    def test_same_seed_reproduces_bytes(self):
        cv = CvConfig(repeats=1, folds=2, seed=7, models=("IOB",),
                      event_types=("PROBLEM",))
        a = crossval(tiny_corpus(), cv, FAST_TRAINER).tsv()
        b = crossval(tiny_corpus(), cv, FAST_TRAINER).tsv()
        assert a == b

    def test_worker_count_does_not_change_results(self):
        # two event types x two repeats share one encoding in each worker
        cv = CvConfig(repeats=2, folds=2, seed=7, models=("IOB",),
                      event_types=("PROBLEM", "TEST"))
        serial = crossval(tiny_corpus(), cv, FAST_TRAINER, jobs=1).tsv()
        parallel = crossval(tiny_corpus(), cv, FAST_TRAINER, jobs=2).tsv()
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [64, 10**20])
    def test_pool_is_no_larger_than_the_task_count(self, monkeypatch, jobs):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(stats, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(stats, "_worker_fold", None)  # restored after
        cv = CvConfig(repeats=1, folds=2, seed=7, models=("IOB",),
                      event_types=("PROBLEM", "TEST"))
        pooled = crossval(tiny_corpus(), cv, FAST_TRAINER, jobs=jobs).tsv()
        assert sizes == [4]
        assert pooled == crossval(tiny_corpus(), cv, FAST_TRAINER).tsv()

    def test_matches_training_on_each_folds_documents(self):
        docs = synth.generate(TWO_TYPES, 31, 9)
        docs[1].sentences.append(Sentence([]))
        docs.insert(4, build_doc("none", []))
        cv = CvConfig(repeats=1, folds=3, seed=3, models=MODEL_NAMES,
                      event_types=("ALPHA", "BETA"))
        assert crossval(docs, cv, FAST_TRAINER).tsv() == \
            per_fold_crossval(docs, cv, FAST_TRAINER).tsv()

    def test_types_default_to_those_of_the_corpus(self):
        cv = CvConfig(repeats=1, folds=2, seed=7, models=("IOB",))
        assert cv.event_types is None
        explicit = CvConfig(repeats=1, folds=2, seed=7, models=("IOB",),
                            event_types=("PROBLEM", "TEST"))
        assert crossval(tiny_corpus(), cv, FAST_TRAINER).tsv() == \
            crossval(tiny_corpus(), explicit, FAST_TRAINER).tsv()

    def test_corpus_without_types_rejected(self):
        docs = [build_doc(f"d{i}", [build_sentence(("a", "NN", "O"))])
                for i in range(4)]
        with pytest.raises(ConfigError, match="event_types must be non-empty"):
            crossval(docs, CvConfig(repeats=1, folds=2), FAST_TRAINER)

    def test_too_few_documents_rejected(self):
        cv = CvConfig(repeats=1, folds=5, event_types=("PROBLEM",))
        with pytest.raises(ConfigError):
            crossval(tiny_corpus(3), cv, FAST_TRAINER)

    @pytest.mark.parametrize("jobs", [0, 1.5, 2.0, True])
    def test_bad_worker_count_rejected(self, jobs):
        cv = CvConfig(repeats=1, folds=2, event_types=("PROBLEM",))
        with pytest.raises(ConfigError, match="jobs must be"):
            crossval(tiny_corpus(), cv, FAST_TRAINER, jobs=jobs)


class TestExperimentReport:
    def test_report_sections(self):
        report = experiment_report(small_matrix())
        assert "== PROBLEM / strict F1 (n = 6 folds per model) ==" in report
        assert "ANOVA across models: F(1, 10)" in report
        assert "IO vs IOB: t(10)" in report
        assert "== directional summary (descriptive, not asserted) ==" in report
        assert "strict-F1 ordering: IOB" in report

    def test_report_matches_direct_computation(self):
        matrix = small_matrix()
        report = experiment_report(matrix)
        io = matrix.values("PROBLEM", "IO", "strict")
        iob = matrix.values("PROBLEM", "IOB", "strict")
        tt = ttest_unpaired(io, iob)
        assert f"t(10) = {tt.statistic:.4f}, p = {tt.p_value:.6g}" in report

    def test_degenerate_groups_reported_not_crashing(self):
        matrix = RunMatrix(repeats=1, folds=2, models=("IO", "IOB"),
                           event_types=("TEST",))
        matrix.scores[("TEST", "IO")] = [(0.5, 0.5), (0.5, 0.5)]
        matrix.scores[("TEST", "IOB")] = [(0.9, 0.9), (0.9, 0.9)]
        report = experiment_report(matrix)
        assert "degenerate" in report

    def test_lenient_delta_line_requires_both_iobw_models(self):
        report = experiment_report(small_matrix())
        assert "IOBW+ minus IOBW" not in report
