"""Tagging-scheme codecs: encode/decode, validity, and repair."""

import hashlib
import itertools

import pytest

from spantag.errors import RepresentabilityError, SchemeValidityError
from spantag.schemes import SCHEMES, get_scheme

from conftest import enumerate_span_sets, is_valid

IO = get_scheme("IO")
IOB = get_scheme("IOB")
IOBW = get_scheme("IOBW")
IOBEW = get_scheme("IOBEW")
ALL = (IO, IOB, IOBW, IOBEW)


class TestRegistry:
    def test_canonical_label_orders(self):
        assert IO.labels == ("O", "I")
        assert IOB.labels == ("O", "B", "I")
        assert IOBW.labels == ("O", "B", "I", "W")
        assert IOBEW.labels == ("O", "B", "I", "E", "W")

    def test_lookup_is_case_insensitive(self):
        assert get_scheme("iobw") is IOBW

    def test_unknown_scheme_lists_options(self):
        with pytest.raises(ValueError, match="IOBEW"):
            get_scheme("BILOU")

    def test_registry_is_complete(self):
        assert tuple(SCHEMES) == ("IO", "IOB", "IOBW", "IOBEW")


class TestEncode:
    def test_multi_token_span(self):
        spans = [(1, 3)]
        assert IO.encode(spans, 4) == ["O", "I", "I", "O"]
        assert IOB.encode(spans, 4) == ["O", "B", "I", "O"]
        assert IOBW.encode(spans, 4) == ["O", "B", "I", "O"]
        assert IOBEW.encode(spans, 4) == ["O", "B", "E", "O"]

    def test_single_token_span(self):
        spans = [(1, 2)]
        assert IO.encode(spans, 3) == ["O", "I", "O"]
        assert IOB.encode(spans, 3) == ["O", "B", "O"]
        assert IOBW.encode(spans, 3) == ["O", "W", "O"]
        assert IOBEW.encode(spans, 3) == ["O", "W", "O"]

    def test_three_token_span_under_iobew(self):
        assert IOBEW.encode([(0, 3)], 3) == ["B", "I", "E"]

    def test_adjacent_spans_are_distinguishable_when_marked(self):
        spans = [(0, 2), (2, 4)]
        assert IOB.encode(spans, 4) == ["B", "I", "B", "I"]
        assert IOBW.encode(spans, 4) == ["B", "I", "B", "I"]
        assert IOBEW.encode(spans, 4) == ["B", "E", "B", "E"]

    def test_adjacent_spans_unrepresentable_under_io(self):
        with pytest.raises(RepresentabilityError):
            IO.encode([(0, 2), (2, 4)], 4)

    def test_bad_span_lists_rejected(self):
        for scheme in ALL:
            with pytest.raises(ValueError):
                scheme.encode([(2, 1)], 4)
            with pytest.raises(ValueError):
                scheme.encode([(0, 5)], 4)
            with pytest.raises(ValueError):
                scheme.encode([(0, 2), (1, 3)], 4)


class TestDecodeStrict:
    def test_decode_examples(self):
        assert IO.decode(["O", "I", "I", "O"]) == [(1, 3)]
        assert IOB.decode(["O", "B", "I", "O"]) == [(1, 3)]
        assert IOBW.decode(["W", "O", "B", "I"]) == [(0, 1), (2, 4)]
        assert IOBEW.decode(["B", "I", "E", "W"]) == [(0, 3), (3, 4)]

    def test_orphan_inside_names_position_and_rule(self):
        with pytest.raises(SchemeValidityError) as exc:
            IOB.decode(["O", "I", "I"])
        assert exc.value.position == 1
        assert "I follows O" in str(exc.value)

    def test_inside_at_start_is_invalid(self):
        with pytest.raises(SchemeValidityError) as exc:
            IOB.decode(["I"])
        assert exc.value.position == 0

    def test_lone_begin_invalid_under_iobw(self):
        with pytest.raises(SchemeValidityError) as exc:
            IOBW.decode(["O", "B", "O"])
        assert exc.value.position == 1
        assert "B not followed by I" in str(exc.value)

    def test_unclosed_segment_invalid_under_iobew(self):
        with pytest.raises(SchemeValidityError):
            IOBEW.decode(["B", "I", "O"])
        with pytest.raises(SchemeValidityError):
            IOBEW.decode(["B", "I"])

    def test_foreign_label_rejected(self):
        with pytest.raises(ValueError):
            IOB.decode(["O", "X"])
        with pytest.raises(ValueError):
            IO.decode(["O", "B"])

    def test_is_valid_mirrors_decode(self):
        assert is_valid(IOBW, ["O", "W", "O"])
        assert not is_valid(IOBW, ["O", "B", "O"])
        assert is_valid(IOBEW, ["B", "E"])
        assert not is_valid(IOBEW, ["E"])


class TestRoundTrip:
    def test_exhaustive_round_trip_short_sentences(self):
        for n in range(0, 7):
            for spans in enumerate_span_sets(n):
                adjacent = any(a_end == b_start
                               for (_, a_end), (b_start, _) in
                               zip(spans, spans[1:]))
                for scheme in ALL:
                    if scheme is IO and adjacent:
                        continue
                    labels = scheme.encode(spans, n)
                    assert len(labels) == n
                    assert scheme.decode(labels) == spans

    def test_empty_sentence(self):
        for scheme in ALL:
            assert scheme.encode([], 0) == []
            assert scheme.decode([]) == []


class TestRepair:
    def test_orphan_inside_run_becomes_segment(self):
        assert IOB.repair(["O", "I", "I", "O"]) == ["O", "B", "I", "O"]

    def test_lone_begin_becomes_single_token_mention(self):
        assert IOBW.repair(["O", "B", "O"]) == ["O", "W", "O"]

    def test_missing_end_is_closed(self):
        assert IOBEW.repair(["B", "I", "O"]) == ["B", "E", "O"]

    def test_bare_end_is_dropped(self):
        assert IOBEW.repair(["O", "E", "O"]) == ["O", "O", "O"]

    def test_begin_over_open_segment_starts_anew(self):
        assert IOB.repair(["B", "B", "I"]) == ["B", "B", "I"]
        assert IOBW.repair(["B", "B", "I"]) == ["W", "B", "I"]

    def test_valid_input_is_untouched(self):
        for n in range(0, 6):
            for spans in enumerate_span_sets(n):
                for scheme in ALL:
                    try:
                        labels = scheme.encode(spans, n)
                    except RepresentabilityError:
                        continue
                    assert scheme.repair(labels) == labels

    def test_repair_total_idempotent_validity_restoring(self):
        for scheme in ALL:
            for n in range(1, 6):
                for labels in itertools.product(scheme.labels, repeat=n):
                    fixed = scheme.repair(list(labels))
                    assert is_valid(scheme, fixed)
                    assert scheme.repair(fixed) == fixed


class TestLenientSegments:
    def test_examples(self):
        assert IOB.lenient_segments(["O", "I", "I", "O"]) == [(1, 3)]
        assert IOB.lenient_segments(["B", "I", "B", "I"]) == [(0, 2), (2, 4)]
        assert IOBEW.lenient_segments(["O", "E", "O"]) == []
        assert IOBW.lenient_segments(["W", "W"]) == [(0, 1), (1, 2)]
        assert IOBEW.lenient_segments(["B", "E", "I"]) == [(0, 2), (2, 3)]

    def test_segment_at_sentence_end_is_closed(self):
        assert IOB.lenient_segments(["O", "B", "I"]) == [(1, 3)]
        assert IO.lenient_segments(["I"]) == [(0, 1)]


def _decode_outcome(scheme, labels):
    try:
        return " ".join(f"{s}-{e}" for s, e in scheme.decode(labels))
    except SchemeValidityError as exc:
        return f"! {exc.position} {exc.rule}"


def test_decode_and_repair_digest():
    """Every label sequence of length <= 6 over each scheme's labels:
    decode's spans or its (position, rule), and repair's output.

    The digest was computed before the per-scheme strict decoders were
    derived from lenient segmentation, so it pins every error position
    and message across such rewrites.
    """
    lines = []
    for scheme in ALL:
        for n in range(7):
            for seq in itertools.product(scheme.labels, repeat=n):
                labels = list(seq)
                lines.append(f"{scheme.name} {''.join(labels)} | "
                             f"{_decode_outcome(scheme, labels)} | "
                             f"{''.join(scheme.repair(labels))}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "aae940b272f0b25527aeb8694ebbee06ffd5f9ad57775964ea582ea77953aa71")
