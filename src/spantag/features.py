"""Feature-template DSL: parsing, and the integer keys of its features.

A template file holds one unigram rule per line, `Uid:%x[row,col]` with
multiple cells joined by "/".  "#" starts a comment, a line consisting
of exactly "B" turns on label-transition features, and bigram rules
with cell references are not supported.  Rows index tokens relative to
the current position (offsets -4..4); columns index the per-token
feature table (1=surface, 2=stem, 3=POS, 4=chunk, 5=kind, 6=case).
Both ranges are checked when the template is parsed, so expansion of a
``feature_table`` never reads past a row.

A rule's feature at a position is the string "id=v1/v2/...", its cells'
values joined, with a boundary sentinel "_B-k" / "_B+k" for a row k
places past a sentence's edge.  The strings are not built per position:
``feature_table`` codes a group of sentences' column values as ints, the
sentinels first, and ``expand_sentence`` gives each rule a key per
position from those codes, equal where the cells' values are equal.
``FeatureTable.strings`` builds a rule's strings at chosen positions, so
``crf`` builds one per distinct key, and when tagging only for
multi-cell rules: a one-cell rule's key is its column's code.  The
per-position string expansion that defines these strings is the test
oracle in ``tests/oracle.py``.
"""

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from operator import attrgetter

import numpy as np

from .errors import ParseError, split_lines
from .textprep import CASES, KINDS, token_case, token_kind

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
    for line_no, raw in enumerate(split_lines(text), 1):
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


# the boundary sentinels of rows -4..-1 and n..n+3 of an n-token sentence,
# codes 0..7 of every column of a ``FeatureTable``
SENTINELS = (tuple(f"_B{r}" for r in range(-MAX_OFFSET, 0))
             + tuple(f"_B+{k}" for k in range(1, MAX_OFFSET + 1)))
_KEY_LIMIT = 2 ** 63  # keys are int64
# one (kind, case) tuple per pair, shared by every surface of that shape
_SHAPES = {(kind, case): (kind, case) for kind in KINDS for case in CASES}


def _coder():
    """A value-to-code table of one column, the sentinels coded first."""
    index = defaultdict(count(len(SENTINELS)).__next__)
    index.update(zip(SENTINELS, range(len(SENTINELS))))
    return index


@dataclass
class FeatureTable:
    """The column values of a group of sentences as int codes.

    ``values[c]`` lists column c's distinct values by code (column 0 is
    unused), the sentinels first.  ``padded[c]`` holds column c's codes of
    every sentence framed by ``MAX_OFFSET`` sentinel codes on each side, so
    a cell at row offset r of position p is ``padded[c, rows[p] + r]``,
    a sentinel past a sentence's edge.  ``len`` is the group's positions.
    """
    values: list[np.ndarray]
    padded: np.ndarray  # (N_COLUMNS, padded positions)
    rows: np.ndarray  # (positions,)

    def __len__(self):
        return len(self.rows)

    def strings(self, rule: Rule, positions: np.ndarray) -> list[str]:
        """The feature strings "id=v1/v2/..." of ``rule`` at ``positions``."""
        prefix = rule.id + "="
        rows = self.rows[positions]
        values = [self.values[col][self.padded[col, rows + row]].tolist()
                  for row, col in rule.cells]
        if len(values) == 1:
            return [prefix + v for v in values[0]]
        return [prefix + "/".join(cells) for cells in zip(*values)]


def feature_table(sentences, shapes: dict | None = None) -> FeatureTable:
    """The coded columns of ``sentences``: surface, stem, POS and chunk
    coded per token, kind and case once per distinct surface.  ``shapes``
    maps a surface to its (kind, case) and gains the surfaces it lacks: a
    caller that codes several groups passes one dict to every call, so
    each surface is classified once in all.  Surfaces of one shape share
    one tuple, so the dict holds no tuple per surface."""
    if shapes is None:
        shapes = {}
    tokens = [t for s in sentences for t in s.tokens]
    lengths = [len(s.tokens) for s in sentences if s.tokens]
    frame = 2 * MAX_OFFSET
    rows = (np.arange(len(tokens)) + MAX_OFFSET
            + frame * np.repeat(np.arange(len(lengths)), lengths))
    padded = np.empty((N_COLUMNS, len(tokens) + frame * len(lengths)),
                      dtype=np.intp)
    pad = np.ones(padded.shape[1], dtype=bool)
    pad[rows] = False
    padded[:, pad] = np.tile(np.arange(frame), len(lengths))  # codes 0..7
    values = [np.array(SENTINELS, dtype=object)] * N_COLUMNS
    for col, attr in enumerate(("surface", "stem", "pos", "chunk"), 1):
        index = _coder()
        padded[col, rows] = np.fromiter(
            map(index.__getitem__, map(attrgetter(attr), tokens)), np.intp,
            len(tokens))
        values[col] = np.array(list(index), dtype=object)
    surfaces = values[1].tolist()
    for s in surfaces:
        if s not in shapes:
            shapes[s] = _SHAPES[token_kind(s), token_case(s)]
    # the surfaces start with the sentinels, so the columns are never empty
    for col, cells in zip((5, 6), zip(*map(shapes.__getitem__, surfaces))):
        index = _coder()
        of_surface = np.fromiter(map(index.__getitem__, cells), np.intp,
                                 len(surfaces))
        padded[col, rows] = of_surface[padded[1, rows]]
        values[col] = np.array(list(index), dtype=object)
    return FeatureTable(values, padded, rows)


def expand_sentence(template: FeatureTemplate,
                    table: FeatureTable) -> np.ndarray:
    """The (positions, rules) key of every rule at every position of
    ``table``.  Two positions share a rule's key exactly when they share
    the codes of its cells, and every key is below ``len(table) +
    len(SENTINELS)``, as a one-cell rule's codes are: its key is its
    column's code, which ``CrfModel.tag`` relies on.  A multi-cell rule's
    key is mixed-radix over its columns' code counts, renumbered by
    ``np.unique`` where the next cell would pass int64 and once more at
    the end if it passes that bound."""
    n = len(table)
    keys = np.empty((n, len(template.rules)), dtype=np.int64)
    for j, rule in enumerate(template.rules):
        key, size = 0, 1
        for row, col in rule.cells:
            radix = len(table.values[col])
            if size * radix > _KEY_LIMIT:
                key, size = _renumber(key)
            key = key * radix + table.padded[col, table.rows + row]
            size *= radix
        if size > n + len(SENTINELS):
            key, size = _renumber(key)
        keys[:, j] = key
    return keys


def _renumber(key: np.ndarray):
    """(key, size): the keys renumbered 0..size-1, equal where they were.
    Asking for ``return_index`` makes ``np.unique`` sort stably."""
    found, _, key = np.unique(key, return_index=True, return_inverse=True)
    return key, len(found)
