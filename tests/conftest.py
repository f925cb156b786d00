"""Shared corpus-building helpers."""

import pytest

from spantag.corpus import PLACEHOLDER, Document, Sentence, Span, Token
from spantag.textprep import porter_stem


def make_token(surface, stem=None, pos=PLACEHOLDER, chunk=PLACEHOLDER):
    if stem is None:
        stem = porter_stem(surface)
    return Token(surface, stem, pos, chunk)


def is_valid(scheme, labels):
    """Whether ``labels`` follows ``scheme``'s grammar: repair leaves it be."""
    return scheme.repair(labels) == list(labels)


def enumerate_span_sets(n):
    """All sets of non-overlapping, in-order [start, end) pairs over n tokens."""
    def walk(pos):
        if pos >= n:
            yield []
            return
        yield from walk(pos + 1)  # position left unlabeled
        for end in range(pos + 1, n + 1):
            for rest in walk(end):
                yield [(pos, end)] + rest
    return list(walk(0))


def build_sentence(*cells):
    """Sentence from (surface, pos, chunk) triples."""
    return Sentence([make_token(surface, pos=pos, chunk=chunk)
                     for surface, pos, chunk in cells])


def build_doc(doc_id, sentences, spans=()):
    return Document(doc_id, list(sentences), list(spans))


@pytest.fixture
def tiny_doc():
    """Two sentences, one PROBLEM span and one TEST span."""
    s0 = build_sentence(("the", "DT", "B-NP"), ("chest", "NN", "I-NP"),
                        ("pain", "NN", "I-NP"), ("subsided", "VB", "O"))
    s1 = build_sentence(("an", "DT", "B-NP"), ("ecg", "NN", "I-NP"),
                        ("was", "VB", "O"), ("ordered", "VB", "O"))
    return build_doc("doc-a", [s0, s1],
                     [Span(0, 1, 3, "PROBLEM"), Span(1, 1, 2, "TEST")])
