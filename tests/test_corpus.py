"""Document model, column-file I/O, profile statistics."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantag import corpus, synth
from spantag.corpus import (PLACEHOLDER, Document, Sentence, Span, Token,
                            compute_profile, decode_document, encode_document,
                            ordered_event_types, parse_column_file,
                            write_column_file)
from spantag.errors import ParseError, RepresentabilityError
from spantag.schemes import SCHEME_NAMES, get_scheme

from conftest import build_doc, build_sentence

IOB = get_scheme("IOB")
IOBW = get_scheme("IOBW")


class TestModelValidation:
    def test_token_rejects_whitespace_and_empty_surface(self):
        with pytest.raises(ValueError):
            Token("a b", "a b", "NN", "O")
        with pytest.raises(ValueError):
            Token("", "", "NN", "O")

    def test_surface_check_agrees_with_str_isspace(self):
        spaces = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]
        assert len(spaces) == 29
        for ch in spaces:
            with pytest.raises(ValueError, match="bad token surface"):
                Token(f"a{ch}b")
        for cp in range(0x21, 0x110000, 97):
            if not chr(cp).isspace():
                assert Token(f"a{chr(cp)}b").surface == f"a{chr(cp)}b"

    def test_token_takes_no_offsets(self):
        with pytest.raises(TypeError):
            Token("ab", 0, 2, "ab", "NN", "O")

    def test_span_rejects_bad_extent_and_type(self):
        with pytest.raises(ValueError):
            Span(0, 2, 2, "PROBLEM")
        with pytest.raises(ValueError):
            Span(0, -1, 1, "PROBLEM")
        with pytest.raises(ValueError):
            Span(0, 0, 1, "PRO BLEM")
        with pytest.raises(ValueError, match="negative sentence index"):
            Span(-1, 0, 1, "PROBLEM")

    def test_span_rejects_a_type_with_a_trailing_newline(self):
        with pytest.raises(ValueError, match="bad event type"):
            Span(0, 0, 1, "PROBLEM\n")

    def test_document_rejects_out_of_range_spans(self):
        sent = build_sentence(("a", "NN", "O"))
        with pytest.raises(ValueError):
            Document("d", [sent], [Span(1, 0, 1, "PROBLEM")])
        with pytest.raises(ValueError):
            Document("d", [sent], [Span(0, 0, 2, "PROBLEM")])

    def test_document_sorts_spans(self):
        sent = build_sentence(("a", "NN", "O"), ("b", "NN", "O"))
        doc = Document("d", [sent],
                       [Span(0, 1, 2, "TEST"), Span(0, 0, 1, "PROBLEM")])
        assert doc.gold_spans[0].start == 0


class TestEncodeDecodeDocument:
    def test_per_sentence_label_rows(self, tiny_doc):
        rows = encode_document(tiny_doc, IOB, "PROBLEM")
        assert rows == [["O", "B", "I", "O"], ["O", "O", "O", "O"]]
        assert decode_document(rows, IOB, "PROBLEM") == \
            [Span(0, 1, 3, "PROBLEM")]

    def test_round_trip_covers_all_types(self, tiny_doc):
        for event_type in ("PROBLEM", "TEST"):
            rows = encode_document(tiny_doc, IOBW, event_type)
            assert decode_document(rows, IOBW, event_type) == \
                tiny_doc.spans_of(event_type)


def encode_by_sentence(doc, scheme, event_type):
    """Reference encoder: scan every span of the document once per
    sentence."""
    return [scheme.encode([(s.start, s.end) for s in doc.gold_spans
                           if s.event_type == event_type
                           and s.sentence_index == idx], len(sentence))
            for idx, sentence in enumerate(doc.sentences)]


class TestColumnFileRoundTrip:
    def test_write_then_parse_is_identity(self, tiny_doc):
        text = write_column_file([tiny_doc], IOB)
        docs = parse_column_file(text)
        assert docs == [tiny_doc]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 3),
           sentences=st.integers(1, 200),
           scheme_name=st.sampled_from(SCHEME_NAMES))
    def test_synth_corpora_round_trip(self, seed, n_docs, sentences,
                                      scheme_name):
        profile = dataclasses.replace(synth.default_profile(),
                                      sentences_per_doc=sentences)
        docs = synth.generate(profile, seed, n_docs)
        scheme = get_scheme(scheme_name)
        for doc in docs:
            for event_type in profile.events:
                assert encode_document(doc, scheme, event_type) == \
                    encode_by_sentence(doc, scheme, event_type)
        assert parse_column_file(write_column_file(docs, scheme)) == docs

    def test_write_is_deterministic(self, tiny_doc):
        a = write_column_file([tiny_doc], IOBW)
        b = write_column_file([tiny_doc], IOBW)
        assert a == b
        assert a.endswith("\n")

    def test_header_and_layout(self, tiny_doc):
        lines = write_column_file([tiny_doc], IOB).splitlines()
        assert lines[0] == ("#! columns = surface stem pos chunk "
                            "label:IOB:PROBLEM label:IOB:TEST")
        assert lines[1] == "#! doc = doc-a"
        assert lines[2].split("\t")[:2] == ["the", "the"]

    def test_event_type_order_is_conventional(self):
        sent = build_sentence(("a", "NN", "O"), ("b", "NN", "O"))
        doc = build_doc("d", [sent], [Span(0, 0, 1, "ZEBRA"),
                                      Span(0, 1, 2, "TEST")])
        header = write_column_file([doc], IOB).splitlines()[0]
        assert header.endswith("label:IOB:TEST label:IOB:ZEBRA")

    def test_adjacent_spans_unwritable_in_io(self):
        sent = build_sentence(("a", "NN", "O"), ("b", "NN", "O"))
        doc = build_doc("d", [sent], [Span(0, 0, 1, "TEST"),
                                      Span(0, 1, 2, "TEST")])
        with pytest.raises(RepresentabilityError):
            write_column_file([doc], get_scheme("IO"))


class TestColumnFileWriterRejects:
    @pytest.mark.parametrize("token,cell", [
        (("#!x", "x", "NN", "O"), "surface '#!x'"),
        (("a", "", "NN", "O"), "stem cell ''"),
        (("a", "a", "", "O"), "pos cell ''"),
        (("a", "a", "NN", ""), "chunk cell ''"),
        (("a", "a\tb", "NN", "O"), "stem cell 'a\\tb'"),
        (("a", "a", "N\nN", "O"), "pos cell 'N\\nN'"),
        (("a", "a", "NN", "O\r"), "chunk cell 'O\\r'"),
    ])
    def test_unreadable_cells(self, token, cell):
        # a cell the reader would reject or misread fails when its Token is
        # built, so the writer never meets one
        with pytest.raises(ValueError) as exc:
            Token(*token)
        assert cell in str(exc.value)

    @pytest.mark.parametrize("ids,message", [
        (["d", ""], "document id '' is empty"),
        (["a b"], "holds whitespace"),
        (["a\x85b"], "holds whitespace"),
        (["d", "e", "d"], "repeated document id 'd'"),
    ])
    def test_unreadable_document_ids(self, ids, message):
        docs = [build_doc(i, [build_sentence(("a", "NN", "O"))]) for i in ids]
        with pytest.raises(ValueError, match=message):
            write_column_file(docs, IOB)

    def test_sentence_without_tokens(self):
        doc = build_doc("d", [build_sentence(("a", "NN", "O")), Sentence([])])
        with pytest.raises(ValueError, match="'d' sentence 1 has no tokens"):
            write_column_file([doc], IOB)

    @pytest.mark.parametrize("types", [["PROBLEM", "PROBLEM"], ["A B"]])
    def test_unwritable_event_types(self, types):
        doc = build_doc("d", [build_sentence(("a", "NN", "O"))])
        with pytest.raises(ValueError, match="event type"):
            write_column_file([doc], IOB, types)


# cells and ids the reader reads back, mixed with ones it cannot
_CELLS = st.sampled_from(["a", "b#", "_NIL_", "x y", "#!", "", "a\tb", "\r"])
_SURFACES = st.one_of(st.sampled_from(["a", "b#", "_NIL_", "#!", "#!a"]),
                      st.text("ab#!\t\x85", min_size=1, max_size=3))
_IDS = st.sampled_from(["d", "e", "#!", "", "a b", "d\n"])


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(st.tuples(_SURFACES, _CELLS, _CELLS, _CELLS),
                              max_size=3), min_size=1, max_size=3),
       ids=st.lists(_IDS, min_size=1, max_size=3))
def test_written_files_read_back_or_the_writer_raises(rows, ids):
    try:
        docs = [build_doc(doc_id, [Sentence([Token(*cells) for cells in sent])
                                   for sent in rows])
                for doc_id in ids]
    except ValueError:
        return  # not a token: empty surface or whitespace in it
    try:
        text = write_column_file(docs, IOB)
    except ValueError:
        return
    assert parse_column_file(text) == docs


class TestColumnFileParsing:
    def test_implicit_document_id(self):
        text = ("#! columns = surface\n"
                "hello\nworld\n")
        [doc] = parse_column_file(text)
        assert doc.id == "doc0"
        assert [t.surface for t in doc.sentences[0].tokens] == ["hello", "world"]

    def test_blank_line_separates_sentences(self):
        text = ("#! columns = surface\n"
                "a\n\nb\n\n\n")
        [doc] = parse_column_file(text)
        assert [[t.surface for t in s.tokens]
                for s in doc.sentences] == [["a"], ["b"]]

    def test_missing_stem_column_is_recomputed(self):
        text = ("#! columns = surface pos\n"
                "hopping\tVB\n")
        [doc] = parse_column_file(text)
        token = doc.sentences[0].tokens[0]
        assert token.stem == "hop"
        assert token.chunk == PLACEHOLDER

    def test_rows_with_equal_cells_share_one_token(self):
        text = ("#! columns = surface stem pos chunk label:IOB:PROBLEM\n"
                "#! doc = d1\na\ta\tNN\tO\tB\nb\tb\tNN\tO\tO\n\n"
                "#! doc = d2\na\ta\tNN\tO\tO\na\ta\tVB\tO\tB\n"
                "b\tb\tNN\tO\tO\n")
        d1, d2 = parse_column_file(text)
        (s0,), (s1,) = d1.sentences, d2.sentences
        assert s1.tokens[0] is s0.tokens[0]
        assert s1.tokens[2] is s0.tokens[1]
        assert s1.tokens[1] is not s0.tokens[0]
        assert s1.tokens[1] == Token("a", "a", "VB", "O")

    def test_parses_share_no_token_and_sentences_no_list(self):
        text = "#! columns = surface\na\nb\n\na\nb\n"
        [first] = parse_column_file(text)
        [second] = parse_column_file(text)
        assert first == second
        tokens = [t for doc in (first, second) for s in doc.sentences
                  for t in s.tokens]
        assert len({id(t) for t in tokens}) == 4
        lists = [s.tokens for doc in (first, second) for s in doc.sentences]
        assert len({id(x) for x in lists}) == 4

    def test_stem_is_computed_once_per_distinct_row(self, monkeypatch):
        calls = []
        monkeypatch.setattr(corpus, "porter_stem",
                            lambda word: calls.append(word) or word)
        parse_column_file("#! columns = surface pos\n"
                          "hop\tVB\nhop\tVB\n\nhop\tNN\nhop\tVB\n")
        assert calls == ["hop", "hop"]

    def test_empty_optional_cells_become_placeholder(self):
        text = ("#! columns = surface stem pos chunk\n"
                "ab\t\t\t\n")
        [doc] = parse_column_file(text)
        token = doc.sentences[0].tokens[0]
        assert (token.stem, token.pos, token.chunk) == \
            (PLACEHOLDER, PLACEHOLDER, PLACEHOLDER)

    def test_label_columns_build_gold_spans(self):
        text = ("#! columns = surface label:IOBW:PROBLEM\n"
                "#! doc = d1\n"
                "no\tO\nchest\tB\npain\tI\n")
        [doc] = parse_column_file(text)
        assert doc.gold_spans == [Span(0, 1, 3, "PROBLEM")]

    def test_joint_label_column_projects_types(self):
        text = ("#! columns = surface label:IOB\n"
                "a\tB-PROBLEM\n"
                "b\tI-PROBLEM\n"
                "c\tB-TEST\n")
        [doc] = parse_column_file(text)
        assert doc.gold_spans == [Span(0, 0, 2, "PROBLEM"),
                                  Span(0, 2, 3, "TEST")]

    def test_joint_label_without_suffix_is_an_error(self):
        text = ("#! columns = surface label:IOB\n"
                "a\tB\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_column_file(text)

    @pytest.mark.parametrize("label", ["B-", "B-PROB LEM", "I-A-B"])
    def test_joint_label_with_bad_type_suffix_is_an_error(self, label):
        text = ("#! columns = surface label:IOB\n"
                "a\tO\n"
                f"b\t{label}\n")
        with pytest.raises(ParseError, match="valid type suffix") as exc:
            parse_column_file(text)
        assert exc.value.line == 3

    def test_multiple_documents(self):
        text = ("#! columns = surface\n"
                "#! doc = d1\na\n\n"
                "#! doc = d2\nb\n")
        docs = parse_column_file(text)
        assert [d.id for d in docs] == ["d1", "d2"]

    @pytest.mark.parametrize("text,line", [
        ("#! columns = surface\n#! doc = a\nx\n\n#! doc = a\ny\n", 5),
        ("#! columns = surface\nx\n\n#! doc = doc0\ny\n", 4),
        ("#! columns = surface\n#! doc = a\n#! doc = b\n#! doc = a\n", 4),
    ])
    def test_repeated_document_id_rejected(self, text, line):
        with pytest.raises(ParseError, match="duplicate document id") as exc:
            parse_column_file(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("bad,message", [
        ("#! columns = surface\n#! columns = surface\n",
         "duplicate columns"),
        ("#! columns = surface\na\n#! columns = surface\n",
         "duplicate columns"),
        ("#! columns = stem\n", "surface"),
        ("#! columns = surface bogus\n", "unknown column"),
        ("#! columns = surface label:NOPE:T\n", "NOPE"),
        ("#! columns = surface surface\n", "duplicate column"),
        ("#! columns = surface label:IOB label:IOB:T\n", "joint label"),
        ("#! what = ever\n", "unknown directive"),
        ("#!bad directive\n", "malformed directive"),
        ("a\n", "before columns"),
        ("#! columns = surface pos\nonlyone\n", "expected 2 columns"),
        ("#! doc =\n#! columns = surface\n", "empty document id"),
        ("#! columns = surface\n#! doc = a\tb\n", "whitespace in document id"),
    ])
    def test_parse_errors(self, bad, message):
        with pytest.raises(ParseError, match=message):
            parse_column_file(bad)

    def test_directive_surface_past_the_first_column_rejected(self):
        # the writer puts the surface first, where "#!x" reads as a directive
        text = "#! columns = pos surface\nNN\ta\nNN\t#!x\n"
        with pytest.raises(ParseError, match="surface '#!x' would read as "
                           "a directive") as exc:
            parse_column_file(text)
        assert exc.value.line == 3

    def test_invalid_label_sequence_points_at_line(self):
        text = ("#! columns = surface label:IOB:PROBLEM\n"
                "a\tO\n"
                "b\tI\n")
        with pytest.raises(ParseError) as exc:
            parse_column_file(text)
        assert "line 3" in str(exc.value)
        assert "I follows O" in str(exc.value)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x85",
                                      "\u2028", "\u2029"])
    def test_only_newlines_count_as_line_ends(self, char):
        text = ("#! columns = surface label:IOB:PROBLEM\n"
                f"#! doc = d{char}\n"
                "a\tO\n"
                "b\tI\n")
        with pytest.raises(ParseError, match="I follows O") as exc:
            parse_column_file(text)
        assert exc.value.line == 4

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_newline_conventions_number_lines_alike(self, end):
        text = end.join(["#! columns = surface label:IOB:PROBLEM", "a\tO",
                         "", "b\tI", ""])
        with pytest.raises(ParseError) as exc:
            parse_column_file(text)
        assert exc.value.line == 4

    def test_foreign_label_points_at_line(self):
        text = ("#! columns = surface label:IO:PROBLEM\n"
                "a\tB\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_column_file(text)


class TestOrderedEventTypes:
    def test_conventional_order_then_sorted_extras(self):
        got = ordered_event_types({"ZEBRA", "TEST", "PROBLEM", "ALPHA"})
        assert got == ["PROBLEM", "TEST", "ALPHA", "ZEBRA"]


class TestComputeProfile:
    def test_hand_computed_statistics(self):
        s0 = build_sentence(("the", "DT", "B-NP"), ("rash", "NN", "I-NP"),
                            ("and", "CC", "O"), ("rash", "NN", "B-NP"))
        s1 = build_sentence(("ECG", "NN", "B-NP"), ("after", "IN", "O"),
                            ("fall", "NN", "B-NP"))
        doc = build_doc("d", [s0, s1], [
            Span(0, 0, 2, "PROBLEM"),   # "the rash"
            Span(0, 3, 4, "PROBLEM"),   # "rash"
            Span(1, 0, 1, "TEST"),      # "ECG" (acronym-shaped)
        ])
        profile = compute_profile([doc])
        assert profile.total_count == 3
        prob = profile.events["PROBLEM"]
        assert prob.count == 2
        assert prob.proportion == pytest.approx(2 / 3)
        assert prob.length_hist == {1: 0.5, 2: 0.5}
        # tokens: the, rash, rash -> distinct {the, rash} = 2 of 3
        assert prob.unique_word_fraction == pytest.approx(2 / 3)
        assert prob.acronym_fraction == 0.0
        test = profile.events["TEST"]
        assert test.acronym_fraction == 1.0
        assert "OCCURRENCE" not in profile.events

    def test_report_is_deterministic_text(self):
        sent = build_sentence(("flu", "NN", "B-NP"))
        doc = build_doc("d", [sent], [Span(0, 0, 1, "PROBLEM")])
        report = compute_profile([doc]).report()
        assert report == compute_profile([doc]).report()
        assert "total.count = 1" in report
        assert "PROBLEM.length.1 = 1.0" in report
