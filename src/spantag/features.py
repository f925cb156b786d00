"""Feature-template DSL: parsing and per-position expansion.

A template file holds one unigram rule per line, `Uid:%x[row,col]` with
multiple cells joined by "/".  "#" starts a comment, a line consisting
of exactly "B" turns on label-transition features, and bigram rules
with cell references are not supported.  Rows index tokens relative to
the current position (offsets -4..4); columns index the per-token
feature table (1=surface, 2=stem, 3=POS, 4=chunk, 5=kind, 6=case).
Both ranges are checked when the template is parsed, so expansion of a
``feature_table`` never reads past a row.
"""

import re
from dataclasses import dataclass

from .errors import ConfigError, ParseError
from .textprep import token_case, token_kind

N_COLUMNS = 7  # index 0 unused so template column numbers apply directly

MAX_OFFSET = 4

DEFAULT_TEMPLATE_TEXT = """\
U00:%x[-2,1]
U01:%x[-1,1]
U02:%x[0,1]
U03:%x[1,1]
U04:%x[2,1]
U05:%x[-2,2]
U06:%x[-1,2]
U07:%x[0,2]
U08:%x[1,2]
U09:%x[2,2]
U10:%x[-2,3]
U11:%x[-1,3]
U12:%x[0,3]
U13:%x[1,3]
U14:%x[2,3]
U15:%x[-2,4]
U16:%x[-1,4]
U17:%x[0,4]
U18:%x[1,4]
U19:%x[2,4]
U20:%x[-2,5]
U21:%x[-1,5]
U22:%x[0,5]
U23:%x[1,5]
U24:%x[2,5]
U25:%x[-2,6]
U26:%x[-1,6]
U27:%x[0,6]
U28:%x[1,6]
U29:%x[2,6]
U30:%x[0,1]/%x[0,2]/%x[0,5]
"""


@dataclass(frozen=True)
class Rule:
    id: str
    cells: tuple[tuple[int, int], ...]  # (row_offset, column_index)


@dataclass(frozen=True)
class FeatureTemplate:
    rules: tuple[Rule, ...]
    transitions: bool
    text: str  # source text, preserved verbatim for model files


_RULE_RE = re.compile(r"^(U\w*):(%x\[-?\d+,\d+\](?:/%x\[-?\d+,\d+\])*)$")
_CELL_RE = re.compile(r"%x\[(-?\d+),(\d+)\]")


def parse_template(text: str) -> FeatureTemplate:
    rules: list[Rule] = []
    seen: set[str] = set()
    transitions = False
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "B":
            transitions = True
            continue
        if line.startswith("B"):
            raise ParseError("bigram rules with cells are not supported", line_no)
        m = _RULE_RE.match(line)
        if not m:
            raise ParseError(f"malformed rule {line!r}", line_no)
        rule_id, body = m.groups()
        if rule_id in seen:
            raise ParseError(f"duplicate rule id {rule_id!r}", line_no)
        seen.add(rule_id)
        cells = []
        for cm in _CELL_RE.finditer(body):
            row, col = int(cm.group(1)), int(cm.group(2))
            if abs(row) > MAX_OFFSET:
                raise ParseError(f"row offset {row} outside ±{MAX_OFFSET}", line_no)
            if not 1 <= col < N_COLUMNS:
                raise ParseError(
                    f"column index {col} outside 1..{N_COLUMNS - 1}", line_no)
            cells.append((row, col))
        rules.append(Rule(rule_id, tuple(cells)))
    return FeatureTemplate(tuple(rules), transitions, text)


def default_template(transitions: bool = False) -> FeatureTemplate:
    text = DEFAULT_TEMPLATE_TEXT + ("B\n" if transitions else "")
    return parse_template(text)


def feature_table(sentence) -> list[tuple[str, ...]]:
    """Per-token column rows for template expansion (column 0 unused)."""
    return [("", t.surface, t.stem, t.pos, t.chunk,
             token_kind(t.surface), token_case(t.surface))
            for t in sentence.tokens]


def expand(template: FeatureTemplate, table: list[tuple[str, ...]],
           position: int) -> list[str]:
    """Feature strings "id=v1/v2/..." for one position of one sentence.

    Rows outside the sentence contribute boundary sentinels "_B-k" /
    "_B+k" keyed by the distance past the edge.
    """
    n = len(table)
    out = []
    for rule in template.rules:
        values = []
        for row, col in rule.cells:
            r = position + row
            if r < 0:
                values.append(f"_B{r}")
            elif r >= n:
                values.append(f"_B+{r - n + 1}")
            else:
                cells = table[r]
                if col >= len(cells):
                    raise ConfigError(
                        f"rule {rule.id} references column {col}, "
                        f"table has {len(cells) - 1}")
                values.append(cells[col])
        out.append(f"{rule.id}={'/'.join(values)}")
    return out


# boundary sentinels of rows -4..-1 and n..n+3, as ``expand`` writes them
_BEFORE = tuple(f"_B{r}" for r in range(-MAX_OFFSET, 0))
_AFTER = tuple(f"_B+{k}" for k in range(1, MAX_OFFSET + 1))


def expand_sentence(template: FeatureTemplate,
                    table: list[tuple[str, ...]]) -> list[list[str]]:
    """``expand`` at every position, built one rule column at a time."""
    n = len(table)
    if not n:
        return []
    # column c padded with sentinels: row r of the sentence is entry r + 4
    padded = [_BEFORE + column + _AFTER for column in zip(*table)]
    strings = [_rule_column(rule, padded, n) for rule in template.rules]
    if not strings:
        return [[] for _ in range(n)]
    return [list(feats) for feats in zip(*strings)]


def _rule_column(rule: Rule, padded: list[tuple[str, ...]], n: int) -> list[str]:
    """The feature strings of one rule at positions 0..n-1."""
    prefix = rule.id + "="
    values = [padded[col][MAX_OFFSET + row:MAX_OFFSET + row + n]
              for row, col in rule.cells]
    if len(values) == 1:
        return [prefix + v for v in values[0]]
    return [prefix + "/".join(cells) for cells in zip(*values)]
