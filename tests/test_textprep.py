"""Token classifiers: kind and case."""

import pytest

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
