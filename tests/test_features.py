"""Feature template DSL: parsing, and the string expansion of the oracle
that defines the feature strings, with its boundary sentinels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantag import features, synth
from spantag.corpus import Sentence
from spantag.errors import ParseError
from spantag.features import (DEFAULT_TEMPLATE_TEXT, default_template,
                              parse_template)

from conftest import build_sentence
from oracle import expand, expand_sentence, feature_table


# characters the template syntax gives meaning to, for mutants
_MUTATION_CHARS = "0123456789-,[]%x:/UB# \n"

_SYNTH_SENTENCES = [s for doc in synth.generate(synth.default_profile(), 3, 2)
                    for s in doc.sentences if s.tokens]


@pytest.fixture
def sent():
    return build_sentence(("the", "DT", "B-NP"), ("chest", "NN", "I-NP"),
                          ("pain", "NN", "I-NP"), ("eased", "VB", "O"),
                          (".", ".", "O"))


class TestParse:
    def test_single_rule(self):
        template = parse_template("U00:%x[0,1]\n")
        assert len(template.rules) == 1
        assert template.rules[0].id == "U00"
        assert template.rules[0].cells == ((0, 1),)
        assert not template.transitions

    def test_conjunction_rule(self):
        template = parse_template("U9:%x[-1,2]/%x[0,2]\n")
        assert template.rules[0].cells == ((-1, 2), (0, 2))

    def test_comments_and_blanks_are_skipped(self):
        template = parse_template("# header\n\nU00:%x[0,1]\n  \n# tail\n")
        assert len(template.rules) == 1

    def test_lone_b_line_enables_transitions(self):
        template = parse_template("U00:%x[0,1]\nB\n")
        assert template.transitions

    @pytest.mark.parametrize("bad,message", [
        ("B00:%x[0,1]\n", "bigram rules with cells are not supported"),
        ("U00:%x[0,1]\nU00:%x[0,2]\n", "duplicate"),
        ("U00:%x[9,1]\n", "row"),
        ("U00:%x[0,0]\n", "column"),
        ("U00 %x[0,1]\n", "rule"),
        ("U00:%x[0]\n", "rule"),
        ("nonsense\n", "rule"),
    ])
    def test_parse_errors_carry_line_numbers(self, bad, message):
        with pytest.raises(ParseError, match=message) as exc:
            parse_template(bad)
        assert "line" in str(exc.value)

    def test_column_beyond_table_is_parse_error(self):
        # the feature table has columns 1..6
        with pytest.raises(ParseError, match="column index 7 outside 1..6") \
                as exc:
            parse_template("U00:%x[0,7]\n")
        assert exc.value.line == 1

    def test_column_beyond_table_rejected_at_its_line(self):
        # even a rule whose rows may all lie past a sentence's end
        with pytest.raises(ParseError) as exc:
            parse_template("# rules\nU00:%x[0,1]\nU01:%x[4,7]\n")
        assert exc.value.line == 3

    @settings(max_examples=300, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from("idr"),
                                    st.integers(0, len(DEFAULT_TEMPLATE_TEXT)),
                                    st.sampled_from(_MUTATION_CHARS)),
                          min_size=1, max_size=6),
           pick=st.integers(0, 2**16))
    def test_mutated_default_template(self, edits, pick):
        # every mutant fails at a line, or expands like ``expand``
        text = DEFAULT_TEMPLATE_TEXT
        for op, at, char in edits:
            keep = at + (op != "i")  # insert, delete or replace at ``at``
            text = text[:at] + ("" if op == "d" else char) + text[keep:]
        try:
            template = parse_template(text)
        except ParseError as exc:
            assert 1 <= exc.line <= len(text.splitlines())
            return
        table = feature_table(_SYNTH_SENTENCES[pick % len(_SYNTH_SENTENCES)])
        assert expand_sentence(template, table) == [
            expand(template, table, i) for i in range(len(table))]

    def test_text_round_trip_through_default(self):
        template = default_template(transitions=True)
        again = parse_template(template.text)
        assert again.rules == template.rules
        assert again.transitions


class TestDefaultTemplate:
    def test_has_31_rules(self):
        template = default_template()
        assert len(template.rules) == 31
        ids = [rule.id for rule in template.rules]
        assert ids == [f"U{i:02d}" for i in range(31)]

    def test_covers_six_columns_at_five_offsets(self):
        template = default_template()
        singles = [rule for rule in template.rules if len(rule.cells) == 1]
        assert len(singles) == 30
        seen = {rule.cells[0] for rule in singles}
        assert seen == {(row, col)
                        for col in range(1, 7) for row in range(-2, 3)}

    def test_final_rule_is_surface_stem_kind_conjunction(self):
        template = default_template()
        assert template.rules[-1].cells == ((0, 1), (0, 2), (0, 5))

    def test_transitions_flag_controls_b_line(self):
        assert not default_template().transitions
        assert default_template(transitions=True).transitions
        assert DEFAULT_TEMPLATE_TEXT.count("B") < \
            default_template(transitions=True).text.count("B")


class TestFeatureTable:
    def test_rows_are_seven_wide(self, sent):
        table = feature_table(sent)
        assert len(table) == 5
        assert all(len(row) == 7 for row in table)

    def test_column_semantics(self, sent):
        row = feature_table(sent)[1]
        assert row[1] == "chest"      # surface
        assert row[2] == "chest"      # stem
        assert row[3] == "NN"         # pos
        assert row[4] == "I-NP"       # chunk
        assert row[5] == "word"       # kind
        assert row[6] == "lowercase"  # case


class TestExpand:
    def test_expansion_count_is_rule_count_everywhere(self, sent):
        template = default_template()
        for position in range(len(sent.tokens)):
            assert len(expand(template, feature_table(sent), position)) == 31

    def test_values_at_interior_position(self, sent):
        template = parse_template(
            "U00:%x[-1,1]\nU01:%x[0,3]\nU02:%x[0,1]/%x[1,1]\n")
        feats = expand(template, feature_table(sent), 1)
        assert feats == ["U00=the", "U01=NN", "U02=chest/pain"]

    def test_boundary_sentinels(self, sent):
        template = parse_template("U00:%x[-2,1]\nU01:%x[-1,1]\nU02:%x[2,1]\n")
        first = expand(template, feature_table(sent), 0)
        assert first == ["U00=_B-2", "U01=_B-1", "U02=pain"]
        last = expand(template, feature_table(sent), 4)
        assert last == ["U00=pain", "U01=eased", "U02=_B+2"]

    def test_template_without_rules(self, sent):
        template = parse_template("B\n")
        assert expand_sentence(template, feature_table(sent)) == [[]] * 5

    def test_expand_sentence_matches_positionwise(self, sent):
        template = default_template()
        table = feature_table(sent)
        rows = expand_sentence(template, table)
        assert rows == [expand(template, table, i) for i in range(5)]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6),
           rules=st.lists(st.lists(st.tuples(st.integers(-4, 4),
                                             st.integers(1, 6)),
                                   min_size=1, max_size=3), max_size=5))
    def test_expand_sentence_matches_expand(self, n, rules):
        table = [tuple(f"r{r}c{c}" for c in range(7)) for r in range(n)]
        text = "".join(
            f"U{i}:" + "/".join(f"%x[{row},{col}]" for row, col in cells) + "\n"
            for i, cells in enumerate(rules))
        template = parse_template(text)
        assert expand_sentence(template, table) == [
            expand(template, table, i) for i in range(n)]


class TestIntegerKeys:
    """``features.feature_table`` codes a group of sentences' columns and
    ``features.expand_sentence`` keys each rule at each position."""

    def test_codes_decode_to_the_column_values(self, sent):
        group = [sent, Sentence([]), _SYNTH_SENTENCES[0]]
        table = features.feature_table(group)
        rows = [row for s in group for row in feature_table(s)]
        assert len(table) == len(rows)
        for col in range(1, 7):
            got = table.values[col][table.padded[col, table.rows]].tolist()
            assert got == [row[col] for row in rows]
        # every sentence is framed by the sentinels' codes 0..7
        assert table.padded[1, table.rows[0] - 4:table.rows[0]].tolist() == \
            [0, 1, 2, 3]
        assert table.values[1][:8].tolist() == list(features.SENTINELS)

    def test_surfaces_of_one_shape_share_one_tuple(self):
        # two lowercase words, in one call and across calls with their
        # own dicts, share one (kind, case) tuple object
        first, second = {}, {}
        features.feature_table([build_sentence(("pain", "NN", "O"),
                                               ("fever", "NN", "O"))], first)
        features.feature_table([build_sentence(("cough", "NN", "O"))], second)
        assert first["pain"] == ("word", "lowercase")
        assert first["pain"] is first["fever"] is second["cough"]
        assert first["_B-1"] == ("symbol", "allCaps")  # a sentinel's shape

    @settings(max_examples=100, deadline=None)
    @given(pick=st.lists(st.integers(0, len(_SYNTH_SENTENCES) - 1),
                         max_size=6),
           rules=st.lists(st.lists(st.tuples(st.integers(-4, 4),
                                             st.integers(1, 6)),
                                   min_size=1, max_size=9), max_size=4))
    def test_keys_are_equal_where_the_strings_are(self, pick, rules):
        # a key may only be shared by cells with equal values, and every
        # key is below the group's positions plus the eight sentinels
        group = [_SYNTH_SENTENCES[i] for i in pick]
        text = "".join(
            f"U{i}:" + "/".join(f"%x[{row},{col}]" for row, col in cells)
            + "\n" for i, cells in enumerate(rules))
        template = parse_template(text)
        table = features.feature_table(group)
        keys = features.expand_sentence(template, table)
        strings = [row for s in group
                   for row in expand_sentence(template, feature_table(s))]
        assert keys.shape == (len(table), len(template.rules))
        assert np.all(keys < len(table) + 8)
        for j in range(len(template.rules)):
            by_key = {}
            for key, row in zip(keys[:, j].tolist(), strings):
                assert by_key.setdefault(key, row[j]) == row[j]
