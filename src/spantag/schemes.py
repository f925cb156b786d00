"""Tagging schemes: span <-> label-sequence codecs and label repair.

Four schemes over one event type per sequence, each described by the
label of a one-token entity and the labels of the first and last tokens
of a longer one; inner tokens are always I:

    scheme  single  first  last   labels
    IO      I       I      I      (O, I)
    IOB     B       B      I      (O, B, I)
    IOBW    W       B      I      (O, B, I, W)
    IOBEW   W       B      E      (O, B, I, E, W)

IOB is the variant where every entity starts with B.  One lenient
segmenter reads every scheme; a sequence is grammar-valid exactly when
re-encoding its lenient segments gives it back.  ``decode`` is strict
(grammar violations raise, naming the first offending position) and
``repair`` is the total fixer: lenient segmentation followed by
re-encoding.
"""

from .errors import RepresentabilityError, SchemeValidityError

SpanPair = tuple[int, int]


def _check_spans(spans: list[SpanPair], length: int) -> list[SpanPair]:
    ordered = sorted(spans)
    prev_end = None
    for start, end in ordered:
        if not (0 <= start < end <= length):
            raise ValueError(f"span ({start},{end}) out of range for length {length}")
        if prev_end is not None and start < prev_end:
            raise ValueError(f"span ({start},{end}) overlaps previous span")
        prev_end = end
    return ordered


class Scheme:
    """One tagging scheme; stateless, shared via the SCHEMES registry.

    ``single`` labels a one-token entity; ``first`` and ``last`` label
    the first and last tokens of a longer one.
    """

    def __init__(self, name: str, labels: tuple[str, ...], single: str,
                 first: str, last: str):
        self.name = name
        self.labels = labels  # canonical order, fixed for model indexing
        self.single = single
        self.first = first
        self.last = last
        self._alphabet = frozenset(labels)

    def __repr__(self):
        return f"Scheme({self.name})"

    def encode(self, spans: list[SpanPair], length: int) -> list[str]:
        """Label the ``length`` tokens of one sentence for these spans."""
        out = ["O"] * length
        prev_end = None
        for start, end in _check_spans(spans, length):
            if start == prev_end and self.first == "I":
                raise RepresentabilityError(
                    f"adjacent spans (..,{start}) and ({start},{end}) "
                    "merge under IO")
            if end - start == 1:
                out[start] = self.single
            else:
                out[start] = self.first
                out[start + 1:end - 1] = ["I"] * (end - start - 2)
                out[end - 1] = self.last
            prev_end = end
        return out

    def lenient_segments(self, labels: list[str]) -> list[SpanPair]:
        """Segment any label sequence over this scheme's alphabet without
        grammar checks.

        B, W, and I-after-gap open a segment; I (and E) extend it; W and
        E close it; B over an open segment closes that one first.  An E
        with nothing open marks no segment.
        """
        if not self._alphabet.issuperset(labels):
            bad = next(lab for lab in labels if lab not in self._alphabet)
            raise ValueError(f"label {bad!r} not in scheme {self.name}")
        segments = []
        start = None
        for i, lab in enumerate(labels):
            if lab == "O":
                if start is not None:
                    segments.append((start, i))
                    start = None
            elif lab == "B":
                if start is not None:
                    segments.append((start, i))
                start = i
            elif lab == "W":
                if start is not None:
                    segments.append((start, i))
                    start = None
                segments.append((i, i + 1))
            elif lab == "I":
                if start is None:
                    start = i
            else:  # E
                if start is not None:
                    segments.append((start, i + 1))
                    start = None
        if start is not None:
            segments.append((start, len(labels)))
        return segments

    def decode(self, labels: list[str]) -> list[SpanPair]:
        """Spans of a grammar-valid sequence; violations raise."""
        segments = self.lenient_segments(labels)
        valid = self.encode(segments, len(labels))
        if valid != labels:
            for i, (got, want) in enumerate(zip(labels, valid)):
                if got != want:
                    raise self._violation(labels, i, got, want)
        return segments

    def _violation(self, labels: list[str], i: int, got: str,
                   want: str) -> SchemeValidityError:
        """The grammar rule broken where ``labels`` first differs from its
        re-encoding (``got`` found, ``want`` expected)."""
        if (got, want) in ((self.first, self.single), ("I", self.last)):
            # a segment ended without its closing label
            if self.last == "I":
                return SchemeValidityError(i, f"{got} not followed by I")
            if i + 1 < len(labels):
                return SchemeValidityError(
                    i + 1, f"unclosed segment: {labels[i + 1]} before E")
            return SchemeValidityError(
                i, "unclosed segment at end (missing E)")
        prev = labels[i - 1] if i else "start"
        return SchemeValidityError(i, f"{got} follows {prev}")

    def repair(self, labels: list[str]) -> list[str]:
        """Total fixer: lenient segmentation re-encoded in this scheme.

        Idempotent; grammar-valid input comes back unchanged.
        """
        return self.encode(self.lenient_segments(labels), len(labels))


SCHEMES = {
    "IO": Scheme("IO", ("O", "I"), single="I", first="I", last="I"),
    "IOB": Scheme("IOB", ("O", "B", "I"), single="B", first="B", last="I"),
    "IOBW": Scheme("IOBW", ("O", "B", "I", "W"),
                   single="W", first="B", last="I"),
    "IOBEW": Scheme("IOBEW", ("O", "B", "I", "E", "W"),
                    single="W", first="B", last="E"),
}

SCHEME_NAMES = tuple(SCHEMES)


def get_scheme(name: str) -> Scheme:
    try:
        return SCHEMES[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {', '.join(SCHEMES)}"
        ) from None
