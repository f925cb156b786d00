"""Annotated-document data model, column-file I/O, and corpus profile
statistics.  Tokens carry no character offsets: spans, labels and
boundaries are all in token positions.

Column format (UTF-8): lines beginning "#!" are directives, a blank
line ends a sentence, and every other line is one token with
tab-separated cells matching the declared columns:

    #! columns = surface stem pos chunk label:IOB:PROBLEM label:IOB:TEST
    #! doc = report-0001
    chest	chest	NN	B-NP	B	O
    pain	pain	NN	I-NP	I	O

`label:<SCHEME>:<TYPE>` columns carry bare scheme labels for one event
type (the canonical form); a single `label:<SCHEME>` column carries
type-suffixed labels ("B-PROBLEM") for all types jointly.  A missing
stem column is recomputed at load; missing pos/chunk cells fall back to
the placeholder "_NIL_".  The rows of one parse that have equal token
cells share one immutable ``Token`` object.  ``Token`` itself enforces
what a cell may hold, a surface that would read as a directive included;
the writer checks only what spans tokens: document ids, empty sentences
and event types.
"""

import re
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, ParseError, SchemeValidityError, split_lines
from .schemes import Scheme, get_scheme
from .textprep import porter_stem

PLACEHOLDER = "_NIL_"

EVENT_TYPES = ("PROBLEM", "TEST", "TREATMENT", "OCCURRENCE", "EVIDENTIAL")

_TYPE_RE = re.compile(r"[A-Za-z0-9_]+")  # whole names: fullmatch
_SPACE_SEARCH = re.compile(r"\s").search  # the characters str.isspace accepts
_CELL_BREAK_SEARCH = re.compile(r"[\t\n\r]").search


def check_event_type(name: str) -> None:
    """Raise ``ConfigError`` unless ``name`` is a whole ``_TYPE_RE`` word,
    the event-type names every file format can carry."""
    if not _TYPE_RE.fullmatch(name):
        raise ConfigError(f"bad event type {name!r}")


@dataclass(frozen=True, slots=True)
class Token:
    """One token's cells.  The surface must be non-empty, free of
    whitespace and not start with "#!", and stem, pos and chunk non-empty
    and free of tabs and line ends; anything else raises ``ValueError``
    naming the cell, so no cell can break a line of a column file or a
    model file, or start a line that reads as a directive."""

    surface: str
    stem: str = PLACEHOLDER
    pos: str = PLACEHOLDER
    chunk: str = PLACEHOLDER

    def __post_init__(self):
        if not self.surface or _SPACE_SEARCH(self.surface):
            raise ValueError(f"bad token surface {self.surface!r}")
        if self.surface.startswith("#!"):
            raise ValueError(
                f"surface {self.surface!r} would read as a directive")
        if not (self.stem and self.pos and self.chunk) or _CELL_BREAK_SEARCH(
                self.stem + self.pos + self.chunk):
            for name in ("stem", "pos", "chunk"):
                value = getattr(self, name)
                if not value or _CELL_BREAK_SEARCH(value):
                    raise ValueError(
                        f"{name} cell {value!r} of {self.surface!r} is "
                        "empty or holds a tab or line end")


@dataclass(frozen=True, order=True, slots=True)
class Span:
    sentence_index: int
    start: int
    end: int
    event_type: str

    def __post_init__(self):
        if self.sentence_index < 0:
            raise ValueError(f"negative sentence index {self.sentence_index}")
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad span [{self.start},{self.end})")
        if not _TYPE_RE.fullmatch(self.event_type):
            raise ValueError(f"bad event type {self.event_type!r}")


@dataclass
class Sentence:
    tokens: list[Token]

    def __len__(self):
        return len(self.tokens)


@dataclass
class Document:
    id: str
    sentences: list[Sentence]
    gold_spans: list[Span] = field(default_factory=list)

    def __post_init__(self):
        self.gold_spans = sorted(self.gold_spans)
        for span in self.gold_spans:
            if span.sentence_index >= len(self.sentences):
                raise ValueError(f"span {span} beyond document {self.id!r}")
            if span.end > len(self.sentences[span.sentence_index]):
                raise ValueError(f"span {span} beyond its sentence")

    def spans_of(self, event_type: str) -> list[Span]:
        """This document's spans of one event type, in sorted order."""
        return [s for s in self.gold_spans if s.event_type == event_type]


def encode_document(doc: Document, scheme: Scheme, event_type: str) -> list[list[str]]:
    """Per-sentence label sequences for one event type.

    The only span-to-label encoder: one pass groups the document's spans
    of the type by sentence, then each sentence is encoded in turn.
    """
    pairs: list[list[tuple[int, int]]] = [[] for _ in doc.sentences]
    for s in doc.spans_of(event_type):
        pairs[s.sentence_index].append((s.start, s.end))
    return [scheme.encode(p, len(sentence))
            for p, sentence in zip(pairs, doc.sentences)]


def decode_document(label_rows: list[list[str]], scheme: Scheme,
                    event_type: str) -> list[Span]:
    """Spans from per-sentence label sequences (strict decode)."""
    spans = []
    for idx, labels in enumerate(label_rows):
        for start, end in scheme.decode(labels):
            spans.append(Span(idx, start, end, event_type))
    return spans


# --- column files -----------------------------------------------------

@dataclass
class _LabelColumn:
    index: int            # cell index within a body line
    scheme: Scheme
    event_type: str | None  # None = joint type-suffixed column


@dataclass
class _ColumnSpec:
    names: list[str]
    surface: int
    stem: int | None
    pos: int | None
    chunk: int | None
    labels: list[_LabelColumn]
    token_columns: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.token_columns = tuple(
            i for i in (self.surface, self.stem, self.pos, self.chunk)
            if i is not None)


def _parse_columns_decl(value: str, line_no: int) -> _ColumnSpec:
    names = value.split()
    plain: dict[str, int] = {}
    labels: list[_LabelColumn] = []
    for idx, name in enumerate(names):
        if name.startswith("label:"):
            parts = name.split(":")
            if len(parts) not in (2, 3) or not parts[1]:
                raise ParseError(f"bad label column {name!r}", line_no)
            try:
                scheme = get_scheme(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), line_no) from None
            event_type = parts[2] if len(parts) == 3 else None
            if event_type is not None and not _TYPE_RE.fullmatch(event_type):
                raise ParseError(f"bad event type in {name!r}", line_no)
            if any(lc.event_type == event_type for lc in labels):
                raise ParseError(f"duplicate label column {name!r}", line_no)
            labels.append(_LabelColumn(idx, scheme, event_type))
        elif name in ("surface", "stem", "pos", "chunk"):
            if name in plain:
                raise ParseError(f"duplicate column {name!r}", line_no)
            plain[name] = idx
        else:
            raise ParseError(f"unknown column {name!r}", line_no)
    if "surface" not in plain:
        raise ParseError("columns must include 'surface'", line_no)
    if len([lc for lc in labels if lc.event_type is None]) > 1:
        raise ParseError("at most one joint label column", line_no)
    if any(lc.event_type is None for lc in labels) and len(labels) > 1:
        raise ParseError("joint label column excludes per-type columns", line_no)
    return _ColumnSpec(names, plain["surface"], plain.get("stem"),
                       plain.get("pos"), plain.get("chunk"), labels)


_DIRECTIVE_RE = re.compile(r"^#!\s*(\w+)\s*=\s*(.*?)\s*$")


def _project_joint(label: str, event_type: str) -> str:
    if label == "O":
        return "O"
    prefix, _, suffix = label.partition("-")
    return prefix if suffix == event_type else "O"


def _flush_sentence(spec: _ColumnSpec, first_line: int,
                    rows: list[list[str]], shared: dict[str, Token],
                    sentences: list[Sentence], spans: list[Span]) -> None:
    """Append the buffered body rows, the split cells of consecutive lines
    from ``first_line`` on, to the open document's lists as one sentence
    and the spans its label columns carry.

    ``shared`` maps a row's token cells (those of surface, stem, pos and
    chunk the file has) to its ``Token``: a row whose cells were seen
    before in this parse reuses that token, and only a new one is built,
    stemmed and checked.  Empties the buffer.
    """
    if not rows:
        return
    columns = list(zip(*rows))
    keys = list(map("\t".join, zip(*[columns[i] for i in spec.token_columns])))
    tokens = list(map(shared.get, keys))
    if not all(tokens):
        for i, token in enumerate(tokens):
            if token is None:
                token = shared.get(keys[i]) or _new_token(
                    spec, rows[i], first_line + i)
                tokens[i] = shared[keys[i]] = token
    sent_index = len(sentences)
    sentences.append(Sentence(tokens))
    for lc in spec.labels:
        column = columns[lc.index]
        if column.count("O") == len(column):
            continue  # "O" is in every scheme and marks no span
        if lc.event_type is not None:
            _decode_label_column(column, lc.scheme, lc.event_type,
                                 sent_index, first_line, spans)
            continue
        for i, lab in enumerate(column):
            if lab != "O" and not _TYPE_RE.fullmatch(lab.partition("-")[2]):
                raise ParseError(
                    f"joint label {lab!r} lacks a valid type suffix",
                    first_line + i)
        types = sorted({lab.partition("-")[2] for lab in column if lab != "O"})
        for event_type in types:
            projected = [_project_joint(lab, event_type) for lab in column]
            _decode_label_column(projected, lc.scheme, event_type,
                                 sent_index, first_line, spans)
    rows.clear()


def _new_token(spec: _ColumnSpec, cells: list[str], line_no: int) -> Token:
    surface = cells[spec.surface]
    if not surface:
        raise ParseError("empty surface cell", line_no)
    stem = cells[spec.stem] if spec.stem is not None else porter_stem(surface)
    pos = cells[spec.pos] if spec.pos is not None else PLACEHOLDER
    chunk = cells[spec.chunk] if spec.chunk is not None else PLACEHOLDER
    try:
        return Token(surface, stem or PLACEHOLDER, pos or PLACEHOLDER,
                     chunk or PLACEHOLDER)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def parse_column_file(text: str) -> list[Document]:
    """Parse a column-format stream into documents.

    Tokens appearing before any `#! doc` directive go into an implicit
    document with id "doc0".  Document ids must be unique and, like
    surfaces, free of whitespace.  Rows with equal token cells share one
    immutable ``Token`` object within a parse; no token is shared
    between two parses.
    """
    spec: _ColumnSpec | None = None
    opened: list[tuple[str, list[Sentence], list[Span]]] = []
    sentences: list[Sentence] = []
    spans: list[Span] = []
    doc_ids: set[str] = set()
    shared: dict[str, Token] = {}
    rows: list[list[str]] = []
    first_line = 0
    for line_no, raw in enumerate(split_lines(text), 1):
        if raw.startswith("#!"):
            m = _DIRECTIVE_RE.match(raw)
            if not m:
                raise ParseError(f"malformed directive {raw!r}", line_no)
            key, value = m.groups()
            if key == "columns":
                if spec is not None:
                    raise ParseError("duplicate columns directive", line_no)
                spec = _parse_columns_decl(value, line_no)
            elif key == "doc":
                if not value:
                    raise ParseError("empty document id", line_no)
                if _SPACE_SEARCH(value):
                    raise ParseError(
                        f"whitespace in document id {value!r}", line_no)
                if value in doc_ids:
                    raise ParseError(f"duplicate document id {value!r}",
                                     line_no)
                _flush_sentence(spec, first_line, rows, shared,
                                sentences, spans)
                sentences, spans = [], []
                opened.append((value, sentences, spans))
                doc_ids.add(value)
            else:
                raise ParseError(f"unknown directive {key!r}", line_no)
        elif not raw.strip():
            _flush_sentence(spec, first_line, rows, shared, sentences, spans)
        else:
            if spec is None:
                raise ParseError("token line before columns directive", line_no)
            cells = raw.split("\t")
            if len(cells) != len(spec.names):
                raise ParseError(
                    f"expected {len(spec.names)} columns, got {len(cells)}",
                    line_no)
            if not rows:
                first_line = line_no
                if not opened:
                    opened.append(("doc0", sentences, spans))
                    doc_ids.add("doc0")
            rows.append(cells)
    _flush_sentence(spec, first_line, rows, shared, sentences, spans)
    return [Document(doc_id, sentences, spans)
            for doc_id, sentences, spans in opened]


def _decode_label_column(column, scheme, event_type, sent_index, first_line, out):
    try:
        pairs = scheme.decode(list(column))
    except ValueError:  # lenient segmentation met a label outside the scheme
        i, lab = next((i, lab) for i, lab in enumerate(column)
                      if lab not in scheme.labels)
        raise ParseError(f"label {lab!r} not in scheme {scheme.name}",
                         first_line + i) from None
    except SchemeValidityError as exc:
        raise ParseError(
            f"{scheme.name} violation for {event_type}: {exc.rule}",
            first_line + exc.position) from None
    for start, end in pairs:
        out.append(Span(sent_index, start, end, event_type))


def ordered_event_types(types) -> list[str]:
    """Known event types in their conventional order, then others sorted."""
    known = [t for t in EVENT_TYPES if t in types]
    extra = sorted(t for t in types if t not in EVENT_TYPES)
    return known + extra


def write_column_file(docs: list[Document], scheme: Scheme,
                      event_types: list[str] | None = None) -> str:
    """Serialize documents in the canonical per-type column layout.

    Byte-deterministic; raises a representability error when the scheme
    cannot express some document's spans, and ``ValueError`` for what
    ``parse_column_file`` would reject or read back as something else: a
    bad or repeated event type, an empty, repeated or whitespace-holding
    document id, and a sentence without tokens (naming the document and
    sentence).  Every cell was checked when its ``Token`` was built.
    """
    if event_types is None:
        event_types = ordered_event_types(
            {s.event_type for d in docs for s in d.gold_spans})
    for t in event_types:
        if not _TYPE_RE.fullmatch(t) or event_types.count(t) > 1:
            raise ValueError(f"bad or repeated event type {t!r}")
    header = "#! columns = surface stem pos chunk" + "".join(
        f" label:{scheme.name}:{t}" for t in event_types)
    lines = [header]
    doc_ids: set[str] = set()
    for doc in docs:
        if not doc.id or _SPACE_SEARCH(doc.id):
            raise ValueError(
                f"document id {doc.id!r} is empty or holds whitespace")
        if doc.id in doc_ids:
            raise ValueError(f"repeated document id {doc.id!r}")
        doc_ids.add(doc.id)
        lines.append(f"#! doc = {doc.id}")
        columns = [encode_document(doc, scheme, t) for t in event_types]
        for s_idx, (sentence, *label_rows) in enumerate(
                zip(doc.sentences, *columns)):
            if not sentence.tokens:
                raise ValueError(
                    f"document {doc.id!r} sentence {s_idx} has no tokens")
            for token, *labels in zip(sentence.tokens, *label_rows):
                lines.append("\t".join([token.surface, token.stem, token.pos,
                                        token.chunk, *labels]))
            lines.append("")
    return "\n".join(lines) + "\n"


# --- corpus profile -----------------------------------------------------

def _is_acronym(surface: str) -> bool:
    return 2 <= len(surface) <= 6 and surface.isalpha() and surface.isupper()


@dataclass
class EventProfile:
    count: int
    proportion: float
    length_hist: dict[int, float]
    unique_word_fraction: float
    acronym_fraction: float


@dataclass
class CorpusProfile:
    events: dict[str, EventProfile]
    total_count: int

    def report(self) -> str:
        lines = [f"total.count = {self.total_count}"]
        for event_type in ordered_event_types(self.events):
            prof = self.events[event_type]
            lines.append(f"{event_type}.count = {prof.count}")
            lines.append(f"{event_type}.proportion = {prof.proportion!r}")
            for k in sorted(prof.length_hist):
                lines.append(f"{event_type}.length.{k} = {prof.length_hist[k]!r}")
            lines.append(f"{event_type}.unique_word_fraction = "
                         f"{prof.unique_word_fraction!r}")
            lines.append(f"{event_type}.acronym_fraction = "
                         f"{prof.acronym_fraction!r}")
        return "\n".join(lines) + "\n"


def compute_profile(docs: list[Document]) -> CorpusProfile:
    """Mention statistics per event type.

    The length histogram is the fraction of mentions with k tokens;
    unique_word_fraction is distinct lowercased mention tokens over all
    mention tokens; acronym_fraction is the fraction of mentions whose
    tokens are all short all-capital words.  Types with no mentions are
    omitted.
    """
    mentions: dict[str, list[list[str]]] = {}
    for doc in docs:
        for span in doc.gold_spans:
            words = [t.surface for t in
                     doc.sentences[span.sentence_index].tokens[span.start:span.end]]
            mentions.setdefault(span.event_type, []).append(words)
    total = sum(len(v) for v in mentions.values())
    events = {}
    for event_type in ordered_event_types(mentions):
        rows = mentions[event_type]
        count = len(rows)
        lengths = Counter(len(r) for r in rows)
        vocab = {w.lower() for r in rows for w in r}
        n_tokens = sum(len(r) for r in rows)
        n_acronym = sum(1 for r in rows if all(_is_acronym(w) for w in r))
        events[event_type] = EventProfile(
            count=count,
            proportion=count / total,
            length_hist={k: lengths[k] / count for k in sorted(lengths)},
            unique_word_fraction=len(vocab) / n_tokens,
            acronym_fraction=n_acronym / count,
        )
    return CorpusProfile(events, total)
