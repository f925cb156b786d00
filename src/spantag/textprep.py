"""Token-level text helpers: Porter stems for the stem column, and the
token-shape classifiers (kind, case) used as feature columns.
"""

from . import porter

_PUNCT_CHARS = set(".,;:!?'\"()[]{}-")

KINDS = ("word", "number", "symbol", "punctuation")
CASES = ("lowercase", "uppercase", "upperInitial", "mixedCaps", "allCaps", "none")


def token_kind(surface: str) -> str:
    """Coarse shape class: word, number, punctuation, or symbol."""
    if surface.isalpha():
        return "word"
    if surface.isdigit():
        return "number"
    if len(surface) == 1 and surface in _PUNCT_CHARS:
        return "punctuation"
    return "symbol"


def token_case(surface: str) -> str:
    """Capitalization class of a token.

    Tokens without letters map to "none"; a lone capital letter is
    "uppercase" (distinct from "allCaps", which needs length > 1); a
    capital first letter followed only by lowercase letters is
    "upperInitial"; remaining mixtures are "mixedCaps".
    """
    letters = [ch for ch in surface if ch.isalpha()]
    if not letters:
        return "none"
    if len(surface) == 1 and surface.isupper():
        return "uppercase"
    if all(ch.islower() for ch in letters):
        return "lowercase"
    if len(surface) > 1 and all(ch.isupper() for ch in letters):
        return "allCaps"
    if letters[0].isupper() and all(ch.islower() for ch in letters[1:]):
        return "upperInitial"
    return "mixedCaps"


def porter_stem(surface: str) -> str:
    """Stem column value: Porter stem for words, lowercased otherwise."""
    if surface.isalpha():
        return porter.stem(surface)
    return surface.lower()
