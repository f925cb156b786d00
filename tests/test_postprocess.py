"""Label adjustment and the boundary expander."""

import itertools

import pytest

from spantag.corpus import Span, decode_document
from spantag.errors import ParseError
from spantag.postprocess import (
    ExpanderConfig,
    adjust_labels,
    expand_boundaries,
    parse_expander_config,
    pipeline_spans,
)
from spantag.schemes import get_scheme

from conftest import build_doc, build_sentence, is_valid


IOB = get_scheme("IOB")
IOBW = get_scheme("IOBW")


class TestAdjustLabels:
    def test_single_gap_before_inside_run_is_bridged(self):
        got = adjust_labels(list("OOOBOIIOO"), IOB)
        assert got == list("OOOBIIIOO")

    def test_adjacent_segments_merge(self):
        got = adjust_labels(list("OOOBIIBIIO"), IOB)
        assert got == list("OOOBIIIIIO")

    def test_adjacent_segment_chain_merges(self):
        got = adjust_labels(list("OOOBIIBIIBIO"), IOB)
        assert got == list("OOOBIIIIIIIO")

    def test_single_gap_between_segments_is_bridged(self):
        assert adjust_labels(list("BOB"), IOB) == list("BII")
        assert adjust_labels(["W", "O", "W"], IOBW) == ["B", "I", "I"]

    def test_wide_gaps_are_left_alone(self):
        assert adjust_labels(list("BOOB"), IOB) == list("BOOB")
        assert adjust_labels(list("OBIOOBI"), IOB) == list("OBIOOBI")

    def test_output_is_scheme_valid_even_for_stray_input(self):
        for labels in itertools.product(IOB.labels, repeat=5):
            got = adjust_labels(list(labels), IOB)
            assert is_valid(IOB, got)
            assert adjust_labels(got, IOB) == got

    @pytest.mark.parametrize("scheme", [IOB, IOBW])
    def test_valid_sequences_idempotent_and_inside_preserving(self, scheme):
        for n in range(8):
            for labels in itertools.product(scheme.labels, repeat=n):
                labels = list(labels)
                if not is_valid(scheme, labels):
                    continue
                got = adjust_labels(labels, scheme)
                assert is_valid(scheme, got)
                assert adjust_labels(got, scheme) == got
                assert got.count("I") >= labels.count("I")


def _noun_sentence(*surfaces, pos="NN", chunk="I-NP"):
    return build_sentence(*((s, pos, chunk) for s in surfaces))


class TestExpandBoundaries:
    def test_grows_left_over_noun(self):
        sentence = build_sentence(("severe", "JJ", "O"), ("chest", "NN", "O"),
                                  ("pain", "NN", "O"))
        got = expand_boundaries([Span(0, 2, 3, "PROBLEM")], sentence,
                                ExpanderConfig())
        assert got == [Span(0, 1, 3, "PROBLEM")]

    def test_grows_over_determiner_then_stops_at_verb(self):
        sentence = build_sentence(("noted", "VB", "O"), ("the", "DT", "O"),
                                  ("rash", "NN", "B-NP"))
        got = expand_boundaries([Span(0, 2, 3, "PROBLEM")], sentence,
                                ExpanderConfig())
        assert got == [Span(0, 1, 3, "PROBLEM")]

    def test_grows_right_over_np_chunk(self):
        sentence = build_sentence(("mri", "NN", "B-NP"), ("scan", "VB", "I-NP"),
                                  ("today", "RB", "O"))
        got = expand_boundaries([Span(0, 0, 1, "TEST")], sentence,
                                ExpanderConfig())
        assert got == [Span(0, 0, 2, "TEST")]

    def test_punctuation_blocks_growth(self):
        sentence = build_sentence(("fever", "NN", "B-NP"), (",", ",", "O"),
                                  ("chills", "NN", "B-NP"))
        got = expand_boundaries([Span(0, 0, 1, "PROBLEM"),
                                 Span(0, 2, 3, "PROBLEM")], sentence,
                                ExpanderConfig())
        assert got == [Span(0, 0, 1, "PROBLEM"), Span(0, 2, 3, "PROBLEM")]

    def test_same_type_neighbors_never_overlap(self):
        sentence = _noun_sentence("a", "b", "c", "d", "e")
        got = expand_boundaries([Span(0, 0, 1, "PROBLEM"),
                                 Span(0, 3, 4, "PROBLEM")], sentence,
                                ExpanderConfig())
        # the earlier span expands right first and claims the middle token
        assert got == [Span(0, 0, 3, "PROBLEM"), Span(0, 3, 5, "PROBLEM")]

    def test_other_type_spans_do_not_block(self):
        sentence = _noun_sentence("a", "b", "c")
        got = expand_boundaries([Span(0, 0, 1, "PROBLEM"),
                                 Span(0, 2, 3, "TEST")], sentence,
                                ExpanderConfig())
        assert Span(0, 0, 3, "PROBLEM") in got
        assert Span(0, 0, 3, "TEST") in got

    def test_only_enabled_types_expand(self):
        sentence = _noun_sentence("a", "b", "c")
        got = expand_boundaries([Span(0, 1, 2, "OCCURRENCE")], sentence,
                                ExpanderConfig())
        assert got == [Span(0, 1, 2, "OCCURRENCE")]

    def test_sentence_bounds_respected(self):
        sentence = _noun_sentence("a", "b")
        got = expand_boundaries([Span(0, 0, 2, "TEST")], sentence,
                                ExpanderConfig())
        assert got == [Span(0, 0, 2, "TEST")]

    def test_output_contains_input_span(self):
        sentence = build_sentence(("a", "DT", "B-NP"), ("b", "NN", "I-NP"),
                                  ("c", "VB", "O"), ("d", "NN", "B-NP"))
        for start in range(4):
            for end in range(start + 1, 5):
                span = Span(0, start, end, "PROBLEM")
                (got,) = expand_boundaries([span], sentence, ExpanderConfig())
                assert got.start <= span.start and got.end >= span.end
                assert got.event_type == span.event_type

    def test_custom_config_changes_eligibility(self):
        sentence = build_sentence(("kinda", "XX", "O"), ("pain", "NN", "O"))
        config = ExpanderConfig(noun_pos_tags=frozenset({"XX"}),
                                np_chunk_tags=frozenset({"NONE"}),
                                determiner_lexicon=frozenset({"zzz"}),
                                enabled_event_types=frozenset({"PROBLEM"}))
        got = expand_boundaries([Span(0, 1, 2, "PROBLEM")], sentence, config)
        assert got == [Span(0, 0, 2, "PROBLEM")]


class TestParseExpanderConfig:
    def test_defaults_when_empty(self):
        config = parse_expander_config("")
        assert config == ExpanderConfig()

    def test_overrides_single_key(self):
        config = parse_expander_config(
            "# comment\n\nnoun_pos_tags = NN , NNS\n")
        assert config.noun_pos_tags == frozenset({"NN", "NNS"})
        assert config.determiner_lexicon == ExpanderConfig().determiner_lexicon

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_expander_config("# fine\nbogus_key = NN\n")
        assert exc.value.line == 2

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            parse_expander_config("noun_pos_tags NN\n")

    def test_empty_set_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_expander_config("np_chunk_tags = , ,\n")
        assert exc.value.line == 1

    def test_repeated_key_rejected_at_the_repeat(self):
        with pytest.raises(ParseError, match="duplicate key 'noun_pos_tags'") \
                as exc:
            parse_expander_config("noun_pos_tags = NN\n# c\n"
                                  "noun_pos_tags = VB\n")
        assert exc.value.line == 3


class TestPipelineSpans:
    def test_plain_mode_repairs_and_decodes(self):
        doc = build_doc("d0", [_noun_sentence("a", "b", "c", "d")])
        rows = [list("OIIO")]
        got = pipeline_spans(rows, doc, IOB, "PROBLEM", mode="none")
        assert got == [Span(0, 1, 3, "PROBLEM")]

    def test_iobw_plus_adjusts_and_expands(self):
        sentence = build_sentence(("the", "DT", "B-NP"), ("x", "NN", "I-NP"),
                                  ("y", "VB", "O"), ("z", "NN", "B-NP"),
                                  ("went", "VB", "O"))
        doc = build_doc("d0", [sentence])
        rows = [["O", "W", "O", "W", "O"]]
        got = pipeline_spans(rows, doc, IOBW, "PROBLEM", mode="iobw+")
        # the single-token gap merges the two mentions, then the span grows
        # left over the determiner and stops right at the verb
        assert got == [Span(0, 0, 4, "PROBLEM")]

    def test_unknown_mode_rejected(self):
        doc = build_doc("d0", [_noun_sentence("a")])
        with pytest.raises(ValueError):
            pipeline_spans([["O"]], doc, IOB, "PROBLEM", mode="bogus")

    def test_multi_sentence_indices_survive(self):
        doc = build_doc("d0", [_noun_sentence("a", "b"),
                               _noun_sentence("c", "d")])
        rows = [["O", "I"], ["I", "O"]]
        got = pipeline_spans(rows, doc, IOB, "TEST", mode="none")
        assert got == [Span(0, 1, 2, "TEST"), Span(1, 0, 1, "TEST")]


def _composed_pipeline(label_rows, doc, scheme, event_type, mode, config):
    """The label-level composition pipeline_spans must equal: repair,
    adjust (iobw+), strict decode, expand per sentence (iobw+)."""
    rows = [scheme.repair(row) for row in label_rows]
    if mode == "iobw+":
        rows = [adjust_labels(row, scheme) for row in rows]
    spans = decode_document(rows, scheme, event_type)
    if mode != "iobw+":
        return spans
    out = []
    for idx, sentence in enumerate(doc.sentences):
        here = [s for s in spans if s.sentence_index == idx]
        out.extend(expand_boundaries(here, sentence, config))
    return sorted(out)


@pytest.mark.parametrize("mode", ["none", "iobw+"])
@pytest.mark.parametrize("scheme", [IOB, IOBW])
def test_pipeline_spans_matches_label_composition(scheme, mode):
    cells = (("the", "DT", "B-NP"), ("x", "NN", "I-NP"), ("went", "VB", "O"),
             (",", ",", "O"), ("y", "JJ", "B-NP"), ("z", "NNS", "O"))
    config = ExpanderConfig()
    for n in range(7):
        doc = build_doc("d0", [build_sentence(*cells[:n])])
        for labels in itertools.product(scheme.labels, repeat=n):
            rows = [list(labels)]
            assert (pipeline_spans(rows, doc, scheme, "PROBLEM", mode, config)
                    == _composed_pipeline(rows, doc, scheme, "PROBLEM", mode,
                                          config)), labels
