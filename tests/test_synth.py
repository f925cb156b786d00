"""Synthetic corpus generation: determinism, structure, and statistics."""

import hashlib

import pytest

from spantag.corpus import (compute_profile, decode_document, encode_document,
                            write_column_file)
from spantag.errors import ConfigError, ParseError
from spantag.textprep import porter_stem
from spantag.schemes import SCHEME_NAMES, get_scheme
from spantag.synth import (
    EventSpec,
    SynthProfile,
    _geometric_tail,
    default_profile,
    generate,
    parse_profile,
    profile_text,
)

from test_acceptance import _three_type_profile


def two_type_profile():
    events = {
        "ALPHA": EventSpec(0.5, {1: 0.3, 2: 0.4, 3: 0.3}, 0.5, 0.2),
        "BETA": EventSpec(0.5, _geometric_tail(0.55), 0.25, 0.0),
    }
    return SynthProfile(events, sentences_per_doc=5, mention_rate=2.0)


class TestDefaultProfile:
    def test_is_valid_and_has_five_types(self):
        profile = default_profile()
        profile.validate()
        assert set(profile.events) == {"PROBLEM", "TEST", "TREATMENT",
                                       "OCCURRENCE", "EVIDENTIAL"}

    def test_geometric_tail_preserves_mass(self):
        hist = _geometric_tail(0.40)
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)
        assert hist[1] == 0.40
        assert all(hist[k] > hist[k + 1] for k in range(2, 6))


class TestGenerateStructure:
    def test_deterministic_per_seed(self):
        profile = two_type_profile()
        assert generate(profile, 7, 5) == generate(profile, 7, 5)
        assert generate(profile, 7, 5) != generate(profile, 8, 5)

    def test_background_vocabulary_of_2_64_words(self):
        # words are drawn on demand, so the vocabulary is never listed
        profile = two_type_profile()
        profile.background_vocab = 2**64
        doc, = generate(profile, 5, 1)
        assert doc == generate(profile, 5, 1)[0]
        background = [t.surface for s in doc.sentences for t in s.tokens
                      if t.surface.startswith("bg")]
        assert background
        assert all(set(w[2:]) <= set("abcdefghijklmnopqrstuvwxyz")
                   and len(w) <= 2 + 14 for w in background)  # 26**14 > 2**64

    def test_document_ids_and_counts(self):
        docs = generate(two_type_profile(), 1, 12)
        assert [d.id for d in docs] == [f"synth-{i:04d}" for i in range(12)]
        assert all(len(d.sentences) == 5 for d in docs)
        assert generate(two_type_profile(), 1, 0) == []

    def test_token_stems_are_consistent(self):
        for doc in generate(default_profile(), 3, 8):
            for sentence in doc.sentences:
                for token in sentence.tokens:
                    assert token.stem == porter_stem(token.surface)

    def test_equal_cells_share_one_token_within_a_call(self):
        docs = generate(default_profile(), 3, 40)
        tokens = [t for d in docs for s in d.sentences for t in s.tokens]
        by_cells = {}
        for token in tokens:
            assert by_cells.setdefault(
                (token.surface, token.pos, token.chunk), token) is token
        assert len({id(t) for t in tokens}) == len(by_cells) < len(tokens)

    def test_no_token_is_shared_between_calls(self):
        first = generate(default_profile(), 3, 10)
        second = generate(default_profile(), 3, 10)
        assert first == second
        ids = [{id(t) for d in docs for s in d.sentences for t in s.tokens}
               for docs in (first, second)]
        assert not ids[0] & ids[1]

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, 1.0, True, "0"])
    def test_seed_must_be_a_64_bit_integer(self, seed):
        # SplitMix64 masks its seed: -1 and 2**64 would repeat other seeds
        with pytest.raises(ConfigError, match="seed must be"):
            generate(two_type_profile(), seed, 1)

    @pytest.mark.parametrize("n_documents", [-1, 2.0, True])
    def test_document_count_must_be_a_count(self, n_documents):
        with pytest.raises(ConfigError, match="document count must be"):
            generate(two_type_profile(), 0, n_documents)

    def test_seed_range_ends_are_accepted(self):
        assert generate(two_type_profile(), 0, 2) != generate(
            two_type_profile(), 2**64 - 1, 2)

    def test_spans_are_separated_and_in_bounds(self):
        for doc in generate(default_profile(), 11, 15):
            by_sentence = {}
            for span in doc.gold_spans:
                by_sentence.setdefault(span.sentence_index, []).append(span)
            for idx, spans in by_sentence.items():
                n = len(doc.sentences[idx])
                assert len(spans) <= 4
                spans = sorted(spans)
                assert all(0 < s.start < s.end <= n for s in spans)
                assert all(later.start > earlier.end
                           for earlier, later in zip(spans, spans[1:]))

    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_spans_round_trip_through_every_scheme(self, scheme_name):
        scheme = get_scheme(scheme_name)
        docs = generate(two_type_profile(), 23, 10)
        for doc in docs:
            for event_type in ("ALPHA", "BETA"):
                rows = encode_document(doc, scheme, event_type)
                assert decode_document(rows, scheme, event_type) == \
                    doc.spans_of(event_type)

    def test_mention_tokens_use_type_namespaces(self):
        docs = generate(two_type_profile(), 5, 20)
        determiners = {"a", "an", "the", "this", "that", "these", "those",
                       "his", "her", "its", "their"}
        for doc in docs:
            for span in doc.gold_spans:
                tokens = doc.sentences[span.sentence_index].tokens
                words = [t.surface for t in tokens[span.start:span.end]]
                prefix = span.event_type.lower()
                acronym_prefix = span.event_type[:2].upper()
                for i, word in enumerate(words):
                    if i == 0 and len(words) > 1 and word in determiners:
                        continue
                    assert (word.startswith(prefix)
                            or word.startswith(acronym_prefix))

    def test_background_tokens_use_their_own_namespace(self):
        docs = generate(two_type_profile(), 5, 20)
        for doc in docs:
            for idx, sentence in enumerate(doc.sentences):
                inside = set()
                for span in doc.gold_spans:
                    if span.sentence_index == idx:
                        inside.update(range(span.start, span.end))
                for pos, token in enumerate(sentence.tokens):
                    if pos not in inside:
                        assert token.surface.startswith(("bg", "tg"))

    def test_trigger_fraction_extremes(self):
        profile = two_type_profile()
        profile.trigger_fraction = 1.0
        docs = generate(profile, 9, 10)
        for doc in docs:
            for span in doc.gold_spans:
                cue = doc.sentences[span.sentence_index].tokens[span.start - 1]
                assert cue.surface == f"tg{span.event_type.lower()}" \
                    + cue.surface[-1]
                assert cue.pos == "VB" and cue.chunk == "O"
        profile.trigger_fraction = 0.0
        docs = generate(profile, 9, 10)
        assert not any(t.surface.startswith("tg")
                       for d in docs for s in d.sentences for t in s.tokens)


class TestGoldenOutput:
    """Column-file digests of generated corpora, pinned so a change to how
    the generator builds its tokens cannot move a byte."""

    @pytest.mark.parametrize("profile, seed, digest", [
        (default_profile, 0, "635b2f25d3ce12f6fd9079fc33ae58c1"
                             "1b5fccd4adaf87c13daff3a0b0d8ee90"),
        (default_profile, 7, "fe6d7e612c4377c758a36eda1f4dd37b"
                             "44339537372565dfbdf2a3f92c19c7d3"),
        (_three_type_profile, 0, "93090a45adb784356f0bfdf73fa0b3da"
                                 "a026800093271e5760ee44b1d8916c10"),
        (_three_type_profile, 7, "1854ee83d64a2c8ccc7578a6a5868134"
                                 "383c7a4945e60936a9f10b90745423e5"),
    ])
    def test_column_file_digest(self, profile, seed, digest):
        text = write_column_file(generate(profile(), seed, 40),
                                 get_scheme("IOB"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestStatisticalTargets:
    def test_single_type_profile_converges(self):
        # ~11k mentions: every target statistic lands within 0.02
        events = {"EVID": EventSpec(1.0, _geometric_tail(0.96), 0.10, 0.0)}
        profile = SynthProfile(events, sentences_per_doc=5, mention_rate=2.0)
        docs = generate(profile, 123, 1200)
        measured = compute_profile(docs).events["EVID"]
        assert measured.count >= 10_000
        assert measured.proportion == 1.0
        assert abs(measured.length_hist[1] - 0.96) <= 0.02
        assert abs(measured.unique_word_fraction - 0.10) <= 0.02
        assert measured.acronym_fraction == 0.0

    def test_two_type_profile_converges(self):
        profile = two_type_profile()
        docs = generate(profile, 321, 2200)
        report = compute_profile(docs)
        for name in ("ALPHA", "BETA"):
            measured = report.events[name]
            want = profile.events[name]
            assert measured.count >= 10_000
            assert abs(measured.proportion - want.proportion) <= 0.02
            for k, p in want.length_hist.items():
                assert abs(measured.length_hist.get(k, 0.0) - p) <= 0.02
            assert abs(measured.unique_word_fraction
                       - want.unique_word_fraction) <= 0.02
            assert abs(measured.acronym_fraction
                       - want.acronym_fraction) <= 0.02


class TestProfileFiles:
    def test_text_parse_round_trip(self):
        profile = two_type_profile()
        back = parse_profile(profile_text(profile))
        assert back == profile
        assert profile_text(back) == profile_text(profile)

    def test_default_round_trip(self):
        assert parse_profile(profile_text(default_profile())) \
            == default_profile()

    def test_partial_profile_keeps_global_defaults(self):
        profile = parse_profile("mention_rate = 0.5\n")
        assert profile.mention_rate == 0.5
        assert profile.events == default_profile().events

    def test_accepts_measured_corpus_report(self):
        docs = generate(two_type_profile(), 99, 150)
        text = compute_profile(docs).report()
        mimic = parse_profile(text)
        assert set(mimic.events) == {"ALPHA", "BETA"}
        assert mimic.events["ALPHA"].proportion == \
            compute_profile(docs).events["ALPHA"].proportion
        # and the mimicking profile can itself drive generation
        assert generate(mimic, 1, 2)

    @pytest.mark.parametrize("line,fragment", [
        ("just words", "expected key = value"),
        ("mention_rate = fast", "bad number"),
        ("ALPHA.sparkle = 1", "unknown key"),
        ("ALPHA.length.one = 0.5", "bad length key"),
        ("standalone = 1", "unknown key"),
    ])
    def test_parse_errors(self, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_profile(line + "\n")
        assert fragment in str(exc.value)
        assert exc.value.line == 1

    @pytest.mark.parametrize("line,fragment", [
        ("background_vocab = inf", "non-finite"),
        ("sentences_per_doc = 1e400", "non-finite"),
        ("background_vocab = nan", "non-finite"),
        ("mention_rate = nan", "non-finite"),
        ("PROBLEM.proportion = nan", "non-finite"),
        ("PROBLEM.length.1 = nan", "non-finite"),
        ("sentences_per_doc = 2.7", "whole number"),
    ])
    def test_non_finite_and_fractional_numbers_rejected(self, line, fragment):
        with pytest.raises(ParseError) as exc:
            parse_profile("# header\n" + line + "\n")
        assert fragment in str(exc.value)
        assert exc.value.line == 2

    @pytest.mark.parametrize("first,repeat,fragment", [
        ("sentences_per_doc = 3", "sentences_per_doc = 5",
         "duplicate key 'sentences_per_doc'"),
        ("PROBLEM.proportion = 1", "PROBLEM.proportion = 1",
         "duplicate key 'PROBLEM.proportion'"),
        ("PROBLEM.length.1 = 0.5", "PROBLEM.length.1 = 0.5",
         "duplicate key 'PROBLEM.length.1'"),
        ("PROBLEM.length.1 = 0.5", "PROBLEM.length.01 = 0.5",
         "duplicate length 1 for PROBLEM"),
        ("total.count = 3", "total.count = 3", "duplicate key 'total.count'"),
    ])
    def test_repeated_key_rejected_at_the_repeat(self, first, repeat,
                                                 fragment):
        with pytest.raises(ParseError) as exc:
            parse_profile(f"{first}\nmention_rate = 1\n{repeat}\n")
        assert fragment in str(exc.value)
        assert exc.value.line == 3

    def test_whole_number_floats_accepted_for_counts(self):
        profile = parse_profile("sentences_per_doc = 4.0\n"
                                "background_vocab = 1e2\n")
        assert profile.sentences_per_doc == 4
        assert profile.background_vocab == 100
        assert isinstance(profile.background_vocab, int)

    def test_incomplete_event_reported_where_it_first_appears(self):
        with pytest.raises(ParseError) as exc:
            parse_profile("# c\nALPHA.length.1 = 1\n"
                          "ALPHA.unique_word_fraction = 0.5\n")
        assert exc.value.line == 2
        assert "ALPHA: missing proportion" in str(exc.value)

    def test_background_vocabulary_above_2_64_rejected(self):
        with pytest.raises(ConfigError, match="at most 2\\*\\*64"):
            parse_profile("background_vocab = 1e30\n")
        assert parse_profile("background_vocab = 18446744073709551616\n") \
            .background_vocab == 2**64

    def test_largest_document_sizes_accepted(self):
        profile = parse_profile("sentences_per_doc = 1000\n"
                                "ALPHA.proportion = 1\nALPHA.length.1000 = 1\n"
                                "ALPHA.unique_word_fraction = 0.5\n")
        assert profile.sentences_per_doc == 1000
        assert profile.events["ALPHA"].length_hist == {1000: 1.0}

    def test_incomplete_event_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_profile("ALPHA.proportion = 1.0\n"
                          "ALPHA.length.1 = 1.0\n")
        assert "unique_word_fraction" in str(exc.value)


class TestProfileValidation:
    def base_events(self):
        return {"ALPHA": EventSpec(1.0, {1: 1.0}, 0.5, 0.0)}

    def test_proportions_must_sum_to_one(self):
        events = {"ALPHA": EventSpec(0.6, {1: 1.0}, 0.5),
                  "BETA": EventSpec(0.6, {1: 1.0}, 0.5)}
        with pytest.raises(ConfigError):
            SynthProfile(events).validate()

    def test_proportions_must_be_non_negative(self):
        # they sum to 1, but BETA would never be drawn
        events = {"ALPHA": EventSpec(1.5, {1: 1.0}, 0.5),
                  "BETA": EventSpec(-0.5, {1: 1.0}, 0.5)}
        with pytest.raises(ConfigError, match="BETA: proportion must be >= 0"):
            SynthProfile(events).validate()

    def test_length_hist_must_sum_to_one(self):
        events = {"ALPHA": EventSpec(1.0, {1: 0.5, 2: 0.4}, 0.5)}
        with pytest.raises(ConfigError):
            SynthProfile(events).validate()

    def test_acronyms_need_single_token_mass(self):
        events = {"ALPHA": EventSpec(1.0, {2: 1.0}, 0.5, 0.1)}
        with pytest.raises(ConfigError) as exc:
            SynthProfile(events).validate()
        assert "acronym" in str(exc.value)

    def test_unreachable_unique_target(self):
        events = {"ALPHA": EventSpec(1.0, {2: 1.0}, 0.99)}
        with pytest.raises(ConfigError) as exc:
            SynthProfile(events, determiner_fraction=0.9).validate()
        assert "unreachable" in str(exc.value)

    def test_prefix_type_names_rejected(self):
        events = {"AB": EventSpec(0.5, {1: 1.0}, 0.5),
                  "ABC": EventSpec(0.5, {1: 1.0}, 0.5)}
        with pytest.raises(ConfigError) as exc:
            SynthProfile(events).validate()
        assert "prefix" in str(exc.value)

    @pytest.mark.parametrize("name", ["bad-type", "A B", ""])
    def test_type_names_must_be_words(self, name):
        events = {name: EventSpec(1.0, {1: 1.0}, 0.5)}
        with pytest.raises(ConfigError, match="bad event type"):
            SynthProfile(events).validate()

    @pytest.mark.parametrize("name", ["bgnoise", "tgx", "BGLOOM"])
    def test_reserved_namespaces_rejected(self, name):
        events = {name: EventSpec(1.0, {1: 1.0}, 0.5)}
        with pytest.raises(ConfigError):
            SynthProfile(events).validate()

    def test_acronym_prefix_collision_rejected(self):
        events = {"TEST": EventSpec(0.5, {1: 1.0}, 0.5, 0.1),
                  "TEMP": EventSpec(0.5, {1: 1.0}, 0.5, 0.1)}
        with pytest.raises(ConfigError) as exc:
            SynthProfile(events).validate()
        assert "share acronym prefix" in str(exc.value)

    @pytest.mark.parametrize("field,value", [
        ("sentences_per_doc", 0), ("mention_rate", -1.0),
        ("determiner_fraction", 1.5), ("pos_noise", -0.1),
        ("trigger_fraction", 2.0), ("background_vocab", 0),
        ("sentences_per_doc", 1001),
    ])
    def test_global_field_ranges(self, field, value):
        profile = SynthProfile(self.base_events())
        setattr(profile, field, value)
        with pytest.raises(ConfigError):
            profile.validate()

    def test_mention_length_is_bounded(self):
        events = {"ALPHA": EventSpec(1.0, {1000: 0.5, 1001: 0.5}, 0.5)}
        with pytest.raises(ConfigError,
                           match="ALPHA: mention length must be at most 1000"):
            SynthProfile(events).validate()

    def test_unique_fraction_must_be_positive(self):
        events = {"ALPHA": EventSpec(1.0, {1: 1.0}, 0.0)}
        with pytest.raises(ConfigError):
            SynthProfile(events).validate()

    def test_empty_profile_rejected(self):
        with pytest.raises(ConfigError):
            SynthProfile({}).validate()
