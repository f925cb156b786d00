"""Strict and lenient span scoring.

Strict: a system span is correct iff a gold span matches it exactly in
(sentence, start, end, type).  Lenient: side-wise any-overlap — a
system span counts for precision if it shares a token with any
same-type gold span, and a gold span counts for recall if any same-type
system span touches it; the two sides are tallied independently.
"""

from dataclasses import dataclass

from .corpus import Span, ordered_event_types

MODES = ("strict", "lenient")

MICRO = "micro"


@dataclass
class MatchCounts:
    mode: str
    event_type: str
    tp_sys: int = 0
    fp: int = 0
    tp_gold: int = 0
    fn: int = 0

    @property
    def n_system(self) -> int:
        return self.tp_sys + self.fp

    @property
    def n_gold(self) -> int:
        return self.tp_gold + self.fn

    @property
    def precision(self) -> float:
        return self.tp_sys / self.n_system if self.n_system else 0.0

    @property
    def recall(self) -> float:
        return self.tp_gold / self.n_gold if self.n_gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r > 0 else 0.0

    def absorb(self, other: "MatchCounts") -> None:
        self.tp_sys += other.tp_sys
        self.fp += other.fp
        self.tp_gold += other.tp_gold
        self.fn += other.fn


def _check_side(spans: list[Span], side: str) -> None:
    last_end: dict[tuple[int, str], int] = {}
    for span in sorted(spans):
        key = (span.sentence_index, span.event_type)
        if key in last_end and span.start < last_end[key]:
            raise ValueError(
                f"{side} spans overlap within type {span.event_type} "
                f"in sentence {span.sentence_index}")
        last_end[key] = span.end
    return None


def _overlaps(a: Span, b: Span) -> bool:
    return (a.sentence_index == b.sentence_index
            and a.event_type == b.event_type
            and a.start < b.end and b.start < a.end)


def match_spans(gold: list[Span], system: list[Span], mode: str,
                event_type: str | None = None) -> MatchCounts:
    """Counts for one document; ``event_type`` restricts both sides."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if event_type is not None:
        gold = [s for s in gold if s.event_type == event_type]
        system = [s for s in system if s.event_type == event_type]
    _check_side(gold, "gold")
    _check_side(system, "system")
    counts = MatchCounts(mode, event_type or "all")
    if mode == "strict":
        gold_set = set(gold)
        tp = sum(1 for s in set(system) if s in gold_set)
        counts.tp_sys = counts.tp_gold = tp
        counts.fp = len(system) - tp
        counts.fn = len(gold) - tp
    else:
        counts.tp_sys = sum(
            1 for s in system if any(_overlaps(s, g) for g in gold))
        counts.fp = len(system) - counts.tp_sys
        counts.tp_gold = sum(
            1 for g in gold if any(_overlaps(g, s) for s in system))
        counts.fn = len(gold) - counts.tp_gold
    return counts


@dataclass
class EvalReport:
    rows: list[MatchCounts]  # per (type, mode), micro rows last

    def tsv(self) -> str:
        lines = []
        for c in self.rows:
            lines.append(f"{c.event_type}\t{c.mode}\t{c.precision!r}"
                         f"\t{c.recall!r}\t{c.f1!r}")
        return "\n".join(lines) + "\n"

    def text(self) -> str:
        lines = ["span evaluation (lenient matching: side-wise any-overlap)"]
        header = (f"{'type':<12} {'mode':<8} {'gold':>5} {'sys':>5} "
                  f"{'P':>7} {'R':>7} {'F1':>7}")
        lines.append(header)
        lines.append("-" * len(header))
        for c in self.rows:
            lines.append(
                f"{c.event_type:<12} {c.mode:<8} {c.n_gold:>5} {c.n_system:>5} "
                f"{c.precision:>7.4f} {c.recall:>7.4f} {c.f1:>7.4f}")
        return "\n".join(lines) + "\n"


def evaluate(gold_by_doc: dict[str, list[Span]],
             system_by_doc: dict[str, list[Span]],
             event_types: list[str] | None = None) -> EvalReport:
    """Aggregate per-type strict and lenient scores over documents.

    Documents are aligned by id; ids present on only one side count as
    empty on the other.  Micro rows aggregate counts across types.
    """
    if event_types is None:
        event_types = ordered_event_types(
            {s.event_type for spans in gold_by_doc.values() for s in spans}
            | {s.event_type for spans in system_by_doc.values() for s in spans})
    doc_ids = sorted(set(gold_by_doc) | set(system_by_doc))
    rows = []
    micro = {mode: MatchCounts(mode, MICRO) for mode in MODES}
    for event_type in event_types:
        for mode in MODES:
            total = MatchCounts(mode, event_type)
            for doc_id in doc_ids:
                counts = match_spans(gold_by_doc.get(doc_id, []),
                                     system_by_doc.get(doc_id, []),
                                     mode, event_type)
                total.absorb(counts)
            rows.append(total)
            micro[mode].absorb(total)
    rows.extend(micro[mode] for mode in MODES)
    return EvalReport(rows)


def f1_scores(gold_by_doc, system_by_doc, event_type) -> tuple[float, float]:
    """(strict F1, lenient F1) for one event type, in ``MODES`` order —
    the cross-validation harness's per-fold numbers."""
    rows = evaluate(gold_by_doc, system_by_doc, [event_type]).rows
    return tuple(c.f1 for c in rows[:len(MODES)])  # the type's rows lead
