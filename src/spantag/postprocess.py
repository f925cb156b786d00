"""Boundary post-processing on predicted segments: gap bridging and the
boundary expander.  Segments and spans are token positions.

`_bridge` joins segments separated by at most one O token (touching
segments included) — the step that turns a trained IOBW model into the
IOBW+ configuration; `adjust_labels` is the same step on one label
sequence, the library form of the boundary adjustment, which the
pipeline does not call.  `expand_boundaries` then grows each span over
adjacent noun/noun-phrase tokens and determiners.  `pipeline_spans`
segments each predicted row once and applies both steps to the segments.
"""

from dataclasses import dataclass, fields

from .corpus import Document, Sentence, Span
from .errors import ParseError, split_lines
from .schemes import Scheme
from .textprep import token_kind

POST_MODES = ("none", "iobw+")

DEFAULT_NOUN_POS = frozenset({"NN", "NNS", "NNP", "NNPS"})
DEFAULT_NP_CHUNKS = frozenset({"B-NP", "I-NP"})
DEFAULT_DETERMINERS = frozenset(
    {"a", "an", "the", "this", "that", "these", "those",
     "his", "her", "its", "their"})
DEFAULT_EXPANDED_TYPES = frozenset({"PROBLEM", "TEST", "TREATMENT"})


@dataclass(frozen=True)
class ExpanderConfig:
    noun_pos_tags: frozenset[str] = DEFAULT_NOUN_POS
    np_chunk_tags: frozenset[str] = DEFAULT_NP_CHUNKS
    determiner_lexicon: frozenset[str] = DEFAULT_DETERMINERS
    enabled_event_types: frozenset[str] = DEFAULT_EXPANDED_TYPES


_CONFIG_KEYS = tuple(f.name for f in fields(ExpanderConfig))


def parse_expander_config(text: str) -> ExpanderConfig:
    """Read `key = a,b,c` lines; unset keys keep their defaults."""
    values = {}
    for line_no, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise ParseError(f"bad expander config line {line!r}", line_no)
        if key in values:
            raise ParseError(f"duplicate key {key!r}", line_no)
        items = frozenset(v.strip() for v in value.split(",") if v.strip())
        if not items:
            raise ParseError(f"empty set for {key!r}", line_no)
        values[key] = items
    return ExpanderConfig(**values)


def _bridge(segments: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge ordered segments whose gap is at most one token."""
    merged: list[tuple[int, int]] = []
    for start, end in segments:
        if merged and start - merged[-1][1] <= 1:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def adjust_labels(labels: list[str], scheme: Scheme) -> list[str]:
    """Bridge single-O gaps between segments and merge touching segments.

    Total over the scheme alphabet (ungrammatical input is segmented
    leniently first), idempotent, and on valid input never drops an I.
    """
    return scheme.encode(_bridge(scheme.lenient_segments(labels)),
                         len(labels))


def expand_boundaries(spans: list[Span], sentence: Sentence,
                      config: ExpanderConfig) -> list[Span]:
    """Grow spans over adjacent noun/NP/determiner tokens.

    Left side first, one token at a time; expansion stops at sentence
    bounds, punctuation-kind tokens, and the edge of any same-type span.
    Only configured event types expand; every output span contains its
    input span.
    """
    occupied: dict[str, set[int]] = {}
    for span in spans:
        occupied.setdefault(span.event_type, set()).update(
            range(span.start, span.end))

    def can_take(position: int, occ: set[int]) -> bool:
        if position in occ:
            return False
        token = sentence.tokens[position]
        if token_kind(token.surface) == "punctuation":
            return False
        return (token.pos in config.noun_pos_tags
                or token.chunk in config.np_chunk_tags
                or token.surface.lower() in config.determiner_lexicon)

    out = []
    for span in sorted(spans):
        if span.event_type not in config.enabled_event_types:
            out.append(span)
            continue
        occ = occupied[span.event_type]
        start, end = span.start, span.end
        while start > 0 and can_take(start - 1, occ):
            start -= 1
            occ.add(start)
        while end < len(sentence) and can_take(end, occ):
            occ.add(end)
            end += 1
        out.append(Span(span.sentence_index, start, end, span.event_type))
    return sorted(out)


def pipeline_spans(label_rows: list[list[str]], doc: Document, scheme: Scheme,
                   event_type: str, mode: str = "none",
                   config: ExpanderConfig = ExpanderConfig()) -> list[Span]:
    """Predicted label rows -> spans: lenient segments of each row, then
    (for "iobw+") bridged and expanded."""
    if mode not in POST_MODES:
        raise ValueError(f"unknown post-processing mode {mode!r}")
    out = []
    for idx, row in enumerate(label_rows):
        segments = scheme.lenient_segments(row)
        if mode == "iobw+":
            segments = _bridge(segments)
        spans = [Span(idx, start, end, event_type) for start, end in segments]
        if mode == "iobw+":
            spans = expand_boundaries(spans, doc.sentences[idx], config)
        out.extend(spans)
    return out
