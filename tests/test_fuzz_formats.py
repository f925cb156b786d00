"""Mutation fuzz over every text format spantag reads.

Each case starts from a valid file, applies a few single-character
inserts, deletions and replacements, and parses the mutant: it must
parse, or fail with a ``SpantagError``; no other exception may escape.
Column-file mutants must also read as the row-by-row reference reader
in ``oracle`` reads them.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantag import synth
from spantag.corpus import Span, parse_column_file, write_column_file
from spantag.crf import (CrfModel, FeatureAlphabet, intern, load_model,
                         save_model)
from spantag.errors import ParseError, SpantagError
from spantag.features import parse_template
from spantag.postprocess import parse_expander_config
from spantag.schemes import get_scheme
from spantag.stats import RunMatrix, parse_matrix

import oracle
from conftest import build_doc, build_sentence

# digits, signs, separators, line breaks (and NEL and U+2028, which
# str.splitlines would also break at), header keys and label letters
_MUTATION_CHARS = "0123456789-+.e=,:# \t\n\r\x85 _xIOBWEnaift"


def _column_file():
    s0 = build_sentence(("the", "DT", "B-NP"), ("chest", "NN", "I-NP"),
                        ("pain", "NN", "I-NP"), ("eased", "VB", "O"))
    s1 = build_sentence(("an", "DT", "B-NP"), ("ecg", "NN", "I-NP"),
                        ("was", "VB", "O"))
    doc = build_doc("doc-a", [s0, s1],
                    [Span(0, 1, 3, "PROBLEM"), Span(1, 1, 2, "TEST")])
    return write_column_file([doc], get_scheme("IOBW"))


def _joint_column_file():
    return ("#! columns = surface pos label:IOB\n#! doc = doc-a\n"
            "the\tDT\tO\nchest\tNN\tB-PROBLEM\npain\tNN\tI-PROBLEM\n"
            "\nan\tDT\tO\necg\tNN\tB-TEST\n")


def _model_file():
    scheme = get_scheme("IOB")
    alphabet = FeatureAlphabet(scheme.labels, True,
                               intern(["U00=pain", "U00=ecg"])[0])
    weights = np.linspace(-1.5, 2.0, alphabet.dim)
    return save_model(CrfModel(alphabet, weights, scheme,
                               parse_template("U00:%x[0,1]\nB\n"), "PROBLEM"))


def _profile_file():
    return synth.profile_text(synth.SynthProfile(
        sentences_per_doc=2, background_vocab=20,
        events={"ALPHA": synth.EventSpec(
            proportion=1.0, length_hist={1: 0.5, 2: 0.5},
            unique_word_fraction=0.5, acronym_fraction=0.0)}))


def _matrix_file():
    matrix = RunMatrix(1, 2, ("IO", "IOB"), ("PROBLEM",))
    matrix.scores = {("PROBLEM", "IO"): [(0.5, 0.75), (0.625, 0.8)],
                     ("PROBLEM", "IOB"): [(0.25, 0.5), (1.0, 1.0)]}
    return matrix.tsv()


_EXPANDER_FILE = ("# boundary expander\nnoun_pos_tags = NN,NNS\n"
                  "determiner_lexicon = the,a,an\n")

FORMATS = {
    "column": (_column_file, parse_column_file),
    "joint-column": (_joint_column_file, parse_column_file),
    "model": (_model_file, load_model),
    "profile": (_profile_file, synth.parse_profile),
    "run-matrix": (_matrix_file, parse_matrix),
    "expander": (lambda: _EXPANDER_FILE, parse_expander_config),
}


# a few single-character inserts, deletions and replacements
EDITS = st.lists(st.tuples(st.sampled_from("idr"), st.integers(0, 2**16),
                           st.sampled_from(_MUTATION_CHARS)),
                 min_size=1, max_size=6)


def mutate(text, edits):
    """``text`` with the ``EDITS`` applied in turn."""
    for op, at, char in edits:
        at %= len(text) + 1
        keep = at + (op != "i")  # insert, delete or replace at ``at``
        text = text[:at] + ("" if op == "d" else char) + text[keep:]
    return text


@pytest.mark.parametrize("name", list(FORMATS))
def test_seed_file_parses(name):
    make, parse = FORMATS[name]
    parse(make())


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=150, deadline=None)
@given(edits=EDITS)
def test_mutants_raise_only_spantag_errors(name, edits):
    make, parse = FORMATS[name]
    try:
        parse(mutate(make(), edits))
    except SpantagError:
        pass


@cache
def _synth_column_file():
    """20 default-profile documents, with a label column for each of the
    five event types."""
    docs = synth.generate(synth.default_profile(), 3, 20)
    return write_column_file(docs, get_scheme("IOBW"))


def _read(parse, text):
    """The documents ``parse`` reads from ``text``, or the reason and
    line of the ``ParseError`` it raises."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.reason, exc.line


COLUMN_FILES = {
    "column": _column_file,
    "joint-column": _joint_column_file,
    "synth-5-types": _synth_column_file,
}


@pytest.mark.parametrize("name", list(COLUMN_FILES))
@settings(max_examples=150, deadline=None)
@given(edits=EDITS)
def test_column_mutants_read_as_the_reference_reads_them(name, edits):
    text = mutate(COLUMN_FILES[name](), edits)
    assert _read(parse_column_file, text) == \
        _read(oracle.parse_column_file, text)
