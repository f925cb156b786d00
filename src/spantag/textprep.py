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


def _every(test, letters: str) -> bool:
    """Whether ``test`` (``str.islower`` or ``str.isupper``) holds for
    each of ``letters``, with no Python call per letter.  Every ASCII
    letter is cased, so on ASCII text the whole-string test is the
    per-letter one; elsewhere an uncased letter such as "中" fails both
    tests alone but passes the whole-string one beside a cased letter."""
    if letters.isascii():
        return not letters or test(letters)
    return all(map(test, letters))


def token_case(surface: str) -> str:
    """Capitalization class of a token.

    Tokens without letters map to "none"; a lone capital letter is
    "uppercase" (distinct from "allCaps", which needs length > 1); a
    capital first letter followed only by lowercase letters is
    "upperInitial"; remaining mixtures are "mixedCaps".  Each rule reads
    the letters one by one, so a letter that is neither lowercase nor
    uppercase (uncased, or titlecase like "ǅ") makes a mixture.
    """
    letters = (surface if surface.isalpha()
               else "".join(filter(str.isalpha, surface)))
    if not letters:
        return "none"
    if len(surface) == 1 and surface.isupper():
        return "uppercase"
    if _every(str.islower, letters):
        return "lowercase"
    if len(surface) > 1 and _every(str.isupper, letters):
        return "allCaps"
    if letters[0].isupper() and _every(str.islower, letters[1:]):
        return "upperInitial"
    return "mixedCaps"


def porter_stem(surface: str) -> str:
    """Stem column value: Porter stem for words, lowercased otherwise."""
    if surface.isalpha():
        return porter.stem(surface)
    return surface.lower()
