"""Token classifiers: kind and case."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from spantag.textprep import CASES, KINDS, token_case, token_kind


class TestTokenKind:
    @pytest.mark.parametrize("surface,kind", [
        ("pain", "word"), ("Pain", "word"), ("ECG", "word"),
        ("3", "number"), ("120", "number"),
        (".", "punctuation"), (",", "punctuation"), ("-", "punctuation"),
        ("(", "punctuation"), ("'", "punctuation"),
        ("/", "symbol"), ("+", "symbol"), ("x-ray", "symbol"),
        ("120/80", "symbol"), ("q10", "symbol"), ("...", "symbol"),
    ])
    def test_examples(self, surface, kind):
        assert token_kind(surface) == kind

    def test_kind_vocabulary_is_closed(self):
        for surface in ("a", "7", ";", "%", "a1", "--"):
            assert token_kind(surface) in KINDS


class TestTokenCase:
    @pytest.mark.parametrize("surface,case", [
        ("pain", "lowercase"), ("x", "lowercase"),
        ("A", "uppercase"),
        ("ECG", "allCaps"), ("BP", "allCaps"),
        ("Pain", "upperInitial"),
        ("McBride", "mixedCaps"), ("mmHg", "mixedCaps"),
        ("3", "none"), ("120/80", "none"), (".", "none"),
        ("x-ray", "lowercase"), ("X-RAY", "allCaps"), ("X-ray", "upperInitial"),
    ])
    def test_examples(self, surface, case):
        assert token_case(surface) == case

    def test_single_letter_rules(self):
        assert token_case("B") == "uppercase"
        assert token_case("b") == "lowercase"

    def test_case_vocabulary_is_closed(self):
        for surface in ("ab", "Ab", "AB", "aB", "a1", "1a", "?"):
            assert token_case(surface) in CASES

    @pytest.mark.parametrize("surface,case", [
        ("中", "mixedCaps"), ("a中", "mixedCaps"), ("中A", "mixedCaps"),
        ("Ab中", "mixedCaps"), ("ǅ", "mixedCaps"), ("ǅa", "mixedCaps"),
        ("Aǅ", "mixedCaps"), ("ǈubljana", "mixedCaps"),
        ("0", "none"), ("2024", "none"),
        ("Z", "uppercase"), ("É", "uppercase"), ("Z.", "allCaps"),
        ("é", "lowercase"), ("ÉCG", "allCaps"), ("Élan", "upperInitial"),
        ("ⅰv", "lowercase"), ("Aⅰ", "allCaps"),
    ])
    def test_letter_by_letter_cases(self, surface, case):
        # uncased and titlecase letters are neither lower nor upper, and
        # a cased non-letter (the roman numeral "ⅰ") is not read
        assert token_case(surface) == case
        assert oracle.token_case(surface) == case

    @settings(max_examples=500, deadline=None)
    @given(st.text())
    @example("a中")
    @example("ǅ")
    @example("A")
    @example("12")
    def test_matches_the_letter_by_letter_oracle(self, surface):
        assert token_case(surface) == oracle.token_case(surface)
