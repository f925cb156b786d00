"""The package's public names and the line splitter every reader shares."""

from hypothesis import given
from hypothesis import strategies as st

import spantag
from spantag.errors import split_lines


def test_every_public_name_resolves_once():
    assert len(spantag.__all__) == len(set(spantag.__all__))
    missing = [name for name in spantag.__all__
               if not hasattr(spantag, name)]
    assert missing == []


@given(st.text(alphabet="ab\n\r"))
def test_split_lines_agrees_with_splitlines_on_newlines(text):
    assert split_lines(text) == text.splitlines()


def test_split_lines_keeps_other_breaks_inside_a_line():
    others = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    assert split_lines(f"a{others}b\nc") == [f"a{others}b", "c"]
    assert split_lines("") == []
    assert split_lines("\n") == [""]
