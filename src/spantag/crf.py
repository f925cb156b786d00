"""Linear-chain conditional random field.

Log-linear model over per-position feature strings (from template
expansion) and optional label-transition features, trained by L-BFGS on
the L2-regularized negative log-likelihood

    f(w) = -sum_s log p(y_s | x_s; w) + ||w||^2 / (2C)

(larger C, weaker regularization).  Training computes the partition
function and marginals by one scaled forward-backward in probability
space.  Its domain is the transition weights that span at most
``_SCALED_RANGE`` nats: past that the objective is +inf, a trial the
line search rejects.  Decoding is log-space Viterbi (lowest-index
tie-break).  The objective is lazy, as ``optim.minimize`` expects: a
call runs the forward pass for f(w) and returns a function that runs
the backward pass for the gradient, so a rejected line-search trial
costs one forward pass.

Each layout decision has one home.  Both encoders take a group of
about ``_TAG_POSITIONS`` tokens through integer keys
(``feature_table``, ``expand_sentence``) to its fixed-width (positions,
rules) id matrix.  For training, ``_features`` builds each distinct
(rule, key) pair's feature string once, in order of first occurrence,
and ``intern``, the one interning rule, numbers the strings by first
occurrence in C, over every group of a training corpus.  For tagging,
``CrfModel.tag`` builds no string for a one-cell rule: its key is its
column's code, so one lookup per distinct column value in the model's
``rule_values`` index gives the rule's ids; a multi-cell rule's
distinct keys build their strings and look them up whole.  Tagging
gives an unseen feature -1.  ``build_alphabet`` is the one encoder from
documents to an ``EncodedCorpus``, which depends on neither scheme nor
event type;
``EncodedCorpus.fold`` renumbers a subset of its documents by the same
first-occurrence rule, so cross-validation expands a corpus once and
each fold trains on exactly the ids ``build_alphabet`` would give its
documents.  ``FeatureAlphabet.split`` reads the flat weight vector.
``TimeMajor`` is the one row order: longest sentence first, one time
step after another, so each step of forward-backward or Viterbi is a
contiguous block of rows; ``BatchedObjective`` runs on a whole training
corpus and ``CrfModel._decode`` on a batch of sentences: for ``tag``,
those of a group of documents (``tag_documents`` groups consecutive
documents), and for cross-validation a whole test fold;
``by_document`` splits a batch's rows back per document.  ``_decode``
finds each sentence's best path with ``viterbi``.

``instance_lattice`` is the one node scorer, for training and decoding
alike, and reads a ``NodeLayout``.  Its rules fall into groups
(``rule_groups``): the rules that read the same set of row offsets, so
the default template's 31 rules make 5 groups, offsets -2..2, with U30
at offset 0.  Within a group, positions whose tokens agree at those
offsets share their id row, so ``NodeLayout.grouped`` numbers the
distinct id rows of each group once: each position holds one key per
group, and each group one table of feature ids, one row per key and one
column per rule.  The scorer sums each table row's weight rows once and
gathers the sums per position by key; ``node_gradient``, its transpose,
bins the marginals by key and scatters the bins through the tables with
one ``bincount`` per label.  The grouped layout, keys in ``TimeMajor``
order, depends on neither scheme nor event type, so an
``EncodedCorpus`` builds it on first use and every training on that
encoding shares it.  Decoding passes ``NodeLayout.per_position``, all
rules in one group keyed by position, through the same scorer.  The
per-sentence reference implementations that the tests compare this code
against live in ``tests/oracle.py``.

The model file (``save_model``, ``load_model``) is ``spantag-crf v2``:
header lines, then one row per feature, in id order, and with
transitions one ``_TRANS_<label>`` row per previous label, each row its
name and its L weights as ``float.hex`` text.  A feature's weights
travel with its name, so the reader numbers the features by row and
needs no index; a file of any other format, v1 included, fails at
line 1 and its model must be retrained.
"""

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, count, repeat

import numpy as np

from . import optim
from .corpus import _TYPE_RE, Document, check_event_type, encode_document
from .errors import (ConfigError, NumericError, ParseError, TrainingError,
                     check_count, split_lines)
from .features import (_KEY_LIMIT, SENTINELS, FeatureTemplate, _renumber,
                       expand_sentence, feature_table, parse_template)
from .schemes import Scheme, get_scheme

MODEL_FORMAT = "spantag-crf v2"
_TRANS_MARK = "_TRANS_"


@dataclass(frozen=True)
class TrainerConfig:
    C: float = 1.0
    eta: float = 1e-4
    max_iterations: int = 500

    def __post_init__(self):
        check_count("max_iterations", self.max_iterations, 1)
        for name in ("C", "eta"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite")


# --- feature alphabet ----------------------------------------------------

def intern(strings, index=None) -> tuple[dict[str, int], np.ndarray]:
    """(feature index, id array) of a stream of feature strings: a string
    gets the next id at its first occurrence, in C.  Given the ``index``
    an earlier call returned, numbering goes on where it stopped, so a
    stream can come in parts.  Once a part ends, the index no longer grows
    on lookup.  The ids are int32, half the size of intp, since an encoded
    corpus outlives its trainings."""
    if index is None:
        index = defaultdict(count().__next__)
    else:
        index.default_factory = count(len(index)).__next__
    ids = np.fromiter(map(index.__getitem__, strings), dtype=np.int32)
    index.default_factory = None
    return index, ids


class FeatureAlphabet:
    """Feature strings numbered 0..n-1 by first occurrence (``intern``
    hands out every id), and the flat weight layout over them.

    A weight vector holds one row of n_labels node weights per feature,
    in id order, followed by the (n_labels, n_labels) transition weights
    (previous label, then current) when transitions are enabled.
    ``dim`` is its size and ``split`` views its two parts.
    """

    def __init__(self, labels: tuple[str, ...], transitions: bool,
                 feat_index: dict[str, int]):
        self.labels = labels
        self.transitions = transitions
        self.feat_index = feat_index

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self.feat_index)

    @property
    def dim(self) -> int:
        L = self.n_labels
        return self.n_features * L + (L * L if self.transitions else 0)

    def split(self, vector: np.ndarray):
        """Views of a weight-layout vector: node (n_features, n_labels),
        and transitions (n_labels, n_labels) or None."""
        L = self.n_labels
        n_node = self.n_features * L
        trans = vector[n_node:].reshape(L, L) if self.transitions else None
        return vector[:n_node].reshape(-1, L), trans


@dataclass
class EncodedCorpus:
    """Documents expanded once, for any scheme and event type.

    Row p of ``ids`` holds the feature ids of position p, one column per
    template rule; positions run over every sentence of ``docs`` in
    order, and ``lengths`` gives each sentence's token count (an empty
    sentence has no rows).  ``feat_index`` maps a feature string to its
    id; in the test part of a ``fold`` an id of -1 marks a feature that
    its training part lacks.  ``template`` is the one the documents were
    expanded under.  ``time_major`` and ``layout``, the row order and node
    layout a training on these rows runs in, are built on first use and
    shared by every training on this encoding, whatever its scheme or
    event type.
    """
    feat_index: dict[str, int]
    ids: np.ndarray  # (positions, n_rules)
    lengths: np.ndarray  # (sentences,)
    docs: list[Document]
    template: FeatureTemplate

    @property
    def n_features(self) -> int:
        return len(self.feat_index)

    @cached_property
    def time_major(self) -> "TimeMajor":
        return TimeMajor(self.lengths)

    @cached_property
    def layout(self) -> "NodeLayout":
        """The rows grouped by ``rule_groups``, in ``time_major`` order."""
        return NodeLayout.grouped(self.ids, self.time_major.rows,
                                  rule_groups(self.template))

    def fold(self, test_idx) -> tuple["EncodedCorpus", "EncodedCorpus"]:
        """(training part, test part): the documents outside and inside
        ``test_idx``, each in corpus order.  The training part renumbers
        its ids by first occurrence in its own rows, the numbering that
        ``build_alphabet`` gives those documents; the test part shares
        that numbering."""
        test = np.zeros(len(self.docs), dtype=bool)
        test[test_idx] = True
        test_sentence = np.repeat(test, [len(d.sentences) for d in self.docs])
        test_row = np.repeat(test_sentence, self.lengths)
        train_ids = self.ids[~test_row]
        found, first = np.unique(train_ids, return_index=True)
        kept = found[np.argsort(first)]  # old ids, by first occurrence
        # int32, as ``intern`` gives: each part's ids are ``renumber``'s type
        renumber = np.full(self.n_features, -1, dtype=np.int32)
        renumber[kept] = np.arange(len(kept))
        strings = list(self.feat_index)
        feat_index = dict(zip(map(strings.__getitem__, kept.tolist()),
                              range(len(kept))))

        def part(rows, sentences, inside):
            return EncodedCorpus(
                feat_index, renumber[rows], self.lengths[sentences],
                [d for d, t in zip(self.docs, test) if t == inside],
                self.template)

        return (part(train_ids, ~test_sentence, False),
                part(self.ids[test_row], test_sentence, True))


def by_document(rows: list, docs: list[Document]) -> list[list]:
    """Per-sentence ``rows`` of the sentences of ``docs``, in order,
    grouped by document."""
    ends = np.cumsum([len(d.sentences) for d in docs]).tolist()
    return [rows[end - len(d.sentences):end] for d, end in zip(docs, ends)]


def _groups(items, size):
    """Consecutive ``items`` in lists that close once they hold
    ``_TAG_POSITIONS`` tokens (``size`` counts an item's), and at the end."""
    group, tokens = [], 0
    for item in items:
        group.append(item)
        tokens += size(item)
        if tokens >= _TAG_POSITIONS:
            yield group
            group, tokens = [], 0
    if group:
        yield group


def _features(template: FeatureTemplate, sentences, shapes: dict | None):
    """(strings, where) of a group of training sentences: the distinct
    feature strings in order of first occurrence, position by position
    and one per template rule, and the (positions, rules) index of each
    occurrence's string in them.  Positions that share a rule's key
    (``expand_sentence``) share its string, so each distinct (rule, key)
    builds its string once, at its first position; two keys may still
    build one string, and then share its id when it is interned.
    ``shapes`` is ``feature_table``'s, one dict over a caller's groups."""
    table = feature_table(sentences, shapes)
    # a (rule, key) pair's slot: rule j's keys take slots j*width onwards
    slot = expand_sentence(template, table)
    n, n_rules = slot.shape
    width = n + len(SENTINELS)  # every key is below it
    slot += np.arange(0, n_rules * width, width)
    at = np.full(n_rules * width, n, dtype=np.intp)
    np.minimum.at(at, slot, np.arange(n)[:, None])  # first position per slot
    seen = np.flatnonzero(at < n)  # the distinct pairs, rule by rule
    first = at[seen]
    # stable sorts only, here and in ``expand_sentence``: the objective's
    # ``TimeMajor`` runs one already, and numpy's quicksort pages in about
    # 0.3 MB more of its code, which shows in peak RSS
    order = np.argsort(first * n_rules + seen // width, kind="stable")
    at[seen[order]] = np.arange(len(order))  # a slot's index in the strings
    rule_ends = np.searchsorted(seen, np.arange(1, n_rules) * width)
    strings = [s for rule, positions in zip(template.rules,
                                            np.split(first, rule_ends))
               for s in table.strings(rule, positions)]
    return list(map(strings.__getitem__, order.tolist())), at[slot]


def build_alphabet(docs: list[Document],
                   template: FeatureTemplate) -> EncodedCorpus:
    """Encode every sentence once, numbering the feature strings by first
    occurrence (``intern``) over the whole corpus.  Sentences are encoded
    in groups of about ``_TAG_POSITIONS`` tokens, each into its rows of
    one preallocated id matrix.  The one path from documents to feature
    ids for training: ``train`` encodes its documents here, and
    ``stats.crossval`` encodes a whole corpus once and takes its folds
    with ``EncodedCorpus.fold``."""
    if not any(doc.sentences for doc in docs):
        raise TrainingError("cannot build an alphabet from an empty corpus")
    sentences = [s for doc in docs for s in doc.sentences]
    lengths = np.array([len(s.tokens) for s in sentences], dtype=np.intp)
    ids = np.empty((lengths.sum(), len(template.rules)), dtype=np.int32)
    feat_index, at, shapes = None, 0, {}
    for group in _groups(sentences, len):
        strings, where = _features(template, group, shapes)
        feat_index, found = intern(strings, feat_index)
        np.take(found, where, out=ids[at:at + len(where)])
        at += len(where)
        del strings, where  # freed before the next group: lower peak RSS
    return EncodedCorpus(feat_index, ids, lengths, list(docs), template)


# --- gold labels -----------------------------------------------------------

def make_instances(docs: list[Document], scheme: Scheme,
                   event_type: str) -> np.ndarray:
    """Gold label ids of every position, in the row order of the
    ``build_alphabet`` matrix of ``docs``."""
    label_id = {lab: y for y, lab in enumerate(scheme.labels)}
    return np.array([label_id[lab] for doc in docs
                     for row in encode_document(doc, scheme, event_type)
                     for lab in row], dtype=np.intp)


# --- time-major lattice layout (training and decoding) ---------------------

class TimeMajor:
    """A batch of sentences laid out one time step after another.

    Sentences are ordered by length (descending, stable), so the ones
    still active at step t are a prefix s < active[t]; empty sentences
    take no rows.  Row off[t] + s holds step t of sentence s: step t is
    the contiguous block [off[t], off[t+1]), and the previous steps of
    its sentences are the first active[t] rows of block t-1.  ``rows[r]``
    is the position of row r in the concatenation of the sentences in
    their given order, and ``last[s]`` the row of sentence s's last step.
    ``first`` is block 0, and ``steps`` pairs each later block with the
    rows of the block before it that continue into it.
    """

    def __init__(self, lengths: np.ndarray):
        order = np.argsort(-lengths, kind="stable")[:np.count_nonzero(lengths)]
        sorted_lengths = lengths[order]
        n_steps = int(sorted_lengths[0]) if len(order) else 0
        self.active = np.searchsorted(-sorted_lengths, -(np.arange(n_steps) + 1),
                                      side="right")
        self.off = np.concatenate(([0], np.cumsum(self.active)))
        self.last = self.off[sorted_lengths - 1] + np.arange(len(order))
        # sentence of each row: 0..active[t]-1 within block t
        sentence = np.arange(self.off[-1]) - np.repeat(self.off[:-1],
                                                       self.active)
        starts = (np.cumsum(lengths) - lengths)[order]
        self.rows = (starts[sentence]
                     + np.repeat(np.arange(n_steps), self.active))

    @property
    def n_steps(self) -> int:
        return len(self.active)

    @property
    def first(self) -> slice:
        """Rows of step 0."""
        return slice(0, int(self.off[1]) if self.n_steps else 0)

    @cached_property
    def steps(self) -> list[tuple[slice, slice]]:
        """(rows of step t-1 that continue to step t, rows of step t) for
        each step t past the first, built once."""
        off, active = self.off.tolist(), self.active.tolist()
        return [(slice(off[t - 1], off[t - 1] + active[t]),
                 slice(off[t], off[t + 1])) for t in range(1, len(active))]


# tokens that close a group of sentences that ``_features`` encodes
# together (``build_alphabet``), or of documents that ``tag_documents``
# tags together: one Viterbi per group, and only one group's id matrix
# and label rows alive at a time
_TAG_POSITIONS = 2048


def rule_groups(template: FeatureTemplate) -> list[list[int]]:
    """The indices of the template's rules, grouped by the set of row
    offsets their cells read, each group in rule order and the groups in
    order of their first rule.  Positions whose tokens agree at a group's
    offsets agree on its ids, so its id rows repeat often."""
    groups = {}
    for j, rule in enumerate(template.rules):
        groups.setdefault(frozenset(row for row, _ in rule.cells), []).append(j)
    return list(groups.values())


class NodeLayout:
    """Where the node scores of a batch's rows come from.

    The rules fall into groups.  Group g has a table of feature ids,
    ``tables[g]``, with one column per rule of the group, and row r of the
    batch reads its row ``keys[g][r]``, or row r itself where ``keys[g]``
    is None.  ``ids`` holds every table, one after another, each row by
    row, and ``tables`` views it.  A row's node score is the sum, over the
    groups, of the weight rows of its table row's ids
    (``instance_lattice``); ``node_gradient`` scatters back through the
    same tables.
    """

    def __init__(self, n_rows: int, tables: list[np.ndarray], keys):
        self.n_rows, self.keys = n_rows, keys
        self.ids = (np.concatenate([t.ravel() for t in tables]) if tables
                    else np.empty(0, dtype=np.intp))
        ends = np.cumsum([t.size for t in tables], dtype=np.intp).tolist()
        self.tables = [self.ids[end - t.size:end].reshape(t.shape)
                       for t, end in zip(tables, ends)]

    @classmethod
    def per_position(cls, ids: np.ndarray) -> "NodeLayout":
        """All rules in one group, one table row per position of the
        (positions, rules) matrix ``ids``: what decoding scores with."""
        tables = [ids] if ids.shape[1] else []
        return cls(len(ids), tables, [None] * len(tables))

    @classmethod
    def grouped(cls, ids: np.ndarray, rows: np.ndarray,
                groups: list[list[int]]) -> "NodeLayout":
        """The rows ``rows`` of the non-negative (positions, rules) matrix
        ``ids``, in that order, with each group of rule columns keyed by
        its distinct id rows (``_distinct_rows``), numbered once."""
        tables, keys = [], []
        for columns in groups:
            group_ids = ids[:, columns]
            first, key = _distinct_rows(group_ids)
            tables.append(group_ids[first].astype(np.intp))  # bincount's type
            keys.append(key[rows])
        return cls(len(rows), tables, keys)


def _distinct_rows(ids: np.ndarray):
    """(first, key) of a non-negative id matrix: ``key[p]`` numbers row p,
    equal rows alike, 0..k-1 by first occurrence, and ``first[i]`` is the
    first row numbered i.  The ids of a training corpus are numbered by
    first occurrence too, so this order keeps the gathers and scatters
    through a table nearly sequential.  The key is mixed-radix over the
    columns, renumbered (``_renumber``) where the next column would pass
    int64."""
    key, size = np.zeros(len(ids), dtype=np.int64), 1
    for column in ids.T:
        radix = int(column.max(initial=0)) + 1
        if size * radix > _KEY_LIMIT:
            key, size = _renumber(key)
        key = key * radix + column
        size *= radix
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[key]


def _summed_rows(w_node: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The summed weight rows of each row of ids in ``table``, added one
    column (rule) after another."""
    sums = np.take(w_node, table[:, 0], axis=0)
    for column in table.T[1:]:
        sums += np.take(w_node, column, axis=0)
    return sums


def instance_lattice(w_node: np.ndarray, layout: NodeLayout) -> np.ndarray:
    """Node scores of a batch of instances' lattices: each row's summed
    weight rows of its feature ids.  Each group of ``layout`` sums its
    table rows once and gathers the sums by key.  Every edge of every
    lattice holds the same transition weights, so none is built."""
    node = None
    for table, keys in zip(layout.tables, layout.keys):
        sums = _summed_rows(w_node, table)
        if keys is not None:
            sums = np.take(sums, keys, axis=0)
        if node is None:
            node = sums
        else:
            node += sums
    if node is None:  # transitions only: every node scores zero
        node = np.zeros((layout.n_rows, w_node.shape[1]))
    return node


def node_gradient(marg: np.ndarray, layout: NodeLayout,
                  out: np.ndarray) -> None:
    """The transpose of ``instance_lattice`` on a ``NodeLayout.grouped``
    layout: ``out[f, y]`` becomes the sum of ``marg[r, y]`` over every
    (row r, rule) whose id is f.  Each group bins the rows by key; then
    one ``bincount`` per label scatters the bins, repeated over their
    table rows' ids, into ``out``."""
    weights = np.empty(len(layout.ids))
    for label, values in enumerate(np.ascontiguousarray(marg.T)):
        at = 0
        for table, keys in zip(layout.tables, layout.keys):
            binned = np.bincount(keys, weights=values, minlength=len(table))
            # each bin once per rule, as ``ids`` holds the table
            weights[at:at + table.size].reshape(table.shape)[:] = \
                binned[:, None]
            at += table.size
        out[:, label] = np.bincount(layout.ids, weights=weights,
                                    minlength=len(out))


def viterbi(node: np.ndarray, lengths: np.ndarray, w_trans) -> np.ndarray:
    """Best label of every position of a batch of sentences.

    ``node`` stacks the (n, L) node scores of the sentences in order, and
    ``lengths`` gives their token counts.  Each sentence gets its own
    maximum-score path (ties resolved to the lowest index), with
    ``w_trans`` (or nothing) on every edge: the path the per-sentence
    reference in ``tests/oracle.py`` finds on that sentence's lattice.
    """
    tm = TimeMajor(lengths)
    node = node[tm.rows]
    path = np.empty(len(node), dtype=np.intp)
    if not tm.n_steps:
        return path
    if w_trans is None:  # adding 0.0 moves no max and no argmax
        w_trans = np.zeros((node.shape[1],) * 2)
    delta = np.empty_like(node)
    back = np.empty(node.shape, dtype=np.intp)  # block 0 is never read
    delta[tm.first] = node[tm.first]
    for prev, cur in tm.steps:
        scores = delta[prev][:, :, None] + w_trans[None]
        back[cur] = np.argmax(scores, axis=1)  # first max = lowest index
        delta[cur] = node[cur] + np.max(scores, axis=1)
    path[tm.last] = np.argmax(delta[tm.last], axis=1)
    for prev, cur in reversed(tm.steps):
        path[prev] = back[cur][np.arange(cur.stop - cur.start), path[cur]]
    out = np.empty_like(path)
    out[tm.rows] = path
    return out


# --- objective: batched path (used by train) -------------------------------

# R: the widest transition-weight range (max - min, in nats) for which the
# scaled forward-backward matches the log-space ``forward_backward`` of
# ``tests/oracle.py`` to double precision.
# With T = exp(w_trans - max) every entry of T lies in [e^-R, 1], and each
# node row is exponentiated after subtracting its maximum, so it holds a 1.
# Every scaled alpha row sums to 1, so its largest entry is at least 1/L,
# and the next row's sum c_t >= e^-R / L: no scale underflows (e^-300 / L
# is far above the smallest normal double, about e^-708).  Two entries of
# a beta row differ by at most a factor e^R (their rows of T do), and the
# row's alpha-weighted mean is 1, so beta <= e^R and en * beta / c <=
# L e^2R: nothing overflows.  A term lost to underflow is below e^-745
# while the sums it joins are at least e^-R / L, so any path the product
# form drops is worth at most about e^(-745 + 2R) of Z.  Past R the call
# returns +inf, which the line search rejects like any failed trial.
# Iterates start at w = 0 and only accepted trials become iterates, so
# every iterate, and every gradient, lies inside R; in training only the
# first line searches, which step along the raw gradient, try past it.
_SCALED_RANGE = 300.0


class BatchedObjective:
    """Vectorized objective over all sentences at once.

    Takes an ``EncodedCorpus`` and the gold ids of ``make_instances``,
    and runs in the row order of the corpus's ``time_major`` layout, where
    each time step is one contiguous block of rows.  Node scores (through
    the corpus's grouped ``layout``), forward, backward, the transition
    expectations and the node gradient all run in that one order.
    Empirical counts do not depend on the weights and are folded into one
    constant vector, so f(w) = sum logZ_s - w . emp + ||w||^2/(2C).

    Forward-backward runs in probability space with per-step scaling
    (Rabiner 1989): the node scores and the transitions are exponentiated
    once each, every step is one (k, L) @ (L, L) product normalized by
    its row sums c_t, and log Z is rebuilt from the logs of the scales
    and of the subtracted maxima.  The transition expectations are then
    one product over every non-first row.  When the transition weights
    span more than ``_SCALED_RANGE`` nats, the call returns
    ``(math.inf, None)`` without computing node scores: the weights are
    outside the objective's domain, and the line search rejects the trial.

    A call computes the node scores and the forward pass, which give the
    value, and returns it with ``partial(self.gradient, weights,
    backward)``.  ``backward`` holds the forward state; the gradient runs
    the backward pass, the marginals, the transition expectations and the
    ``node_gradient`` from it.  Dropping the function releases that state.
    """

    def __init__(self, alphabet: FeatureAlphabet, encoded: EncodedCorpus,
                 gold: np.ndarray, C: float):
        self.alphabet = alphabet
        self.C = C
        tm = self.tm = encoded.time_major
        self.layout = encoded.layout
        # the previous-step row of each row past step 0
        self.prev = (np.arange(len(tm.last), tm.off[-1])
                     - np.repeat(tm.active[:-1], tm.active[1:]))

        # constant empirical-count vector: the node counts are the node
        # gradient of the gold labels' indicator rows; integer counts, so
        # any summation order gives them exactly
        emp = np.zeros(alphabet.dim)
        e_node, e_trans = alphabet.split(emp)
        gold_rows = np.zeros((len(gold), alphabet.n_labels))
        gold_rows[np.arange(len(gold)), gold[tm.rows]] = 1.0
        node_gradient(gold_rows, self.layout, e_node)
        if e_trans is not None:
            nxt = tm.rows[len(tm.last):]  # rows past step 0: non-first positions
            np.add.at(e_trans, (gold[nxt - 1], gold[nxt]), 1.0)
        self.empirical = emp

    def __call__(self, weights: np.ndarray):
        """(f(w), gradient function): the value from the node scores and
        the forward pass alone; calling the function runs the rest."""
        w_node, w_trans = self.alphabet.split(weights)
        if w_trans is not None and np.ptp(w_trans) > _SCALED_RANGE:
            return math.inf, None  # outside the domain: a rejected trial
        log_z, backward = self._scaled(instance_lattice(w_node, self.layout),
                                       w_trans)
        value = log_z - optim.dot(weights, self.empirical)
        value += optim.dot(weights, weights) / (2.0 * self.C)
        if not np.isfinite(value):
            raise NumericError("non-finite objective evaluation")
        return value, partial(self.gradient, weights, backward)

    def gradient(self, weights: np.ndarray, backward) -> np.ndarray:
        """The gradient at ``weights`` from the forward pass's ``backward``
        function.  ``backward`` overwrites the forward state, so a gradient
        function that a call returned gives one gradient: call it once."""
        marg, trans_expect = backward()
        grad = np.zeros_like(weights)
        g_node, g_trans = self.alphabet.split(grad)
        node_gradient(marg, self.layout, g_node)
        if g_trans is not None:
            g_trans += trans_expect

        grad -= self.empirical
        grad += weights / self.C
        if not np.all(np.isfinite(grad)):
            raise NumericError("non-finite objective evaluation")
        return grad

    def _scaled(self, node: np.ndarray, w_trans):
        """(sum of log Z, backward function) by scaled forward; overwrites
        ``node``.  The function returns the node marginals and the
        transition expectations (or None)."""
        hi = node.max(axis=1, keepdims=True)
        en = np.exp(np.subtract(node, hi, out=node), out=node)
        log_z = float(hi.sum())
        if w_trans is None:
            # positions are independent: each alpha row is its node row
            # normalized, and every beta entry is 1
            c = en.sum(axis=1)
            return (log_z + float(np.log(c).sum()),
                    lambda: (en / c[:, None], None))

        tmax = w_trans.max()
        T = np.exp(w_trans - tmax)
        alpha, c = self._forward(en, T)
        log_z += float(np.log(c).sum()) + len(self.prev) * float(tmax)
        return log_z, partial(self._backward, en, T, alpha, c)

    def _forward(self, en: np.ndarray, T: np.ndarray):
        """Scaled forward pass over exponentiated node scores ``en`` and
        transitions ``T``: alpha with every row normalized to sum 1, and
        each row's sum before normalizing, its scale c."""
        tm = self.tm
        alpha = np.empty_like(en)
        c = np.empty(len(en))
        first = tm.first
        c[first] = en[first].sum(axis=1)
        np.divide(en[first], c[first, None], out=alpha[first])
        for prev, rows in tm.steps:
            cur = np.matmul(alpha[prev], T, out=alpha[rows])
            cur *= en[rows]
            np.sum(cur, axis=1, out=c[rows])
            cur /= c[rows, None]
        return alpha, c

    def _backward(self, en, T, alpha, c):
        """Scaled backward pass reusing the forward scales: (node
        marginals, transition expectations); overwrites ``en`` and
        ``alpha``."""
        tm = self.tm
        # beta is 1 at each sentence's last step; u = en * beta / c is the
        # backward message into a row, and weights its transition counts
        beta = np.ones_like(en)
        u = np.divide(en, c[:, None], out=en)
        for prev, nxt in reversed(tm.steps):
            u[nxt] *= beta[nxt]
            np.matmul(u[nxt], T.T, out=beta[prev])

        trans_expect = T * (alpha[self.prev].T @ u[len(tm.last):])
        alpha *= beta
        return alpha, trans_expect


# --- model ----------------------------------------------------------------

@dataclass
class CrfModel:
    alphabet: FeatureAlphabet
    weights: np.ndarray
    scheme: Scheme
    template: FeatureTemplate
    event_type: str
    log: optim.IterationLog | None = field(default=None, repr=False)

    def _decode(self, ids: np.ndarray, lengths: np.ndarray) -> list[list[str]]:
        """Label rows of a batch of sentences, from their (positions,
        rules) feature ids and token counts; an id of -1 marks a feature
        unseen in training, which gathers an appended zero row."""
        w_node, w_trans = self.alphabet.split(self.weights)
        w_node = np.vstack((w_node, np.zeros((1, w_node.shape[1]))))
        path = viterbi(instance_lattice(w_node, NodeLayout.per_position(ids)),
                       lengths, w_trans)
        labels = np.array(self.alphabet.labels, dtype=object)[path].tolist()
        ends = np.cumsum(lengths).tolist()
        return [labels[end - n:end] for n, end in zip(lengths.tolist(), ends)]

    @cached_property
    def rule_values(self) -> list[dict[str, int] | None]:
        """Per template rule, in order: for a one-cell rule, the value part
        of each of its features mapped to the feature's id; for a
        multi-cell rule, None.  One pass over ``feat_index``: a rule id
        matches ``U\\w*``, so the first "=" ends it, and a string of no
        rule of the template is in no dict, as tagging never builds it."""
        by_id = {rule.id: {} for rule in self.template.rules
                 if len(rule.cells) == 1}
        for feature, fid in self.alphabet.feat_index.items():
            rule_id, sep, value = feature.partition("=")
            values = by_id.get(rule_id)
            if sep and values is not None:
                values[value] = fid
        return [by_id.get(rule.id) for rule in self.template.rules]

    def tag(self, doc: Document, shapes: dict | None = None
            ) -> list[list[str]]:
        """Label rows of every sentence, decoded as one batch.  ``shapes``
        is ``feature_table``'s surface-shape dict, for a caller that tags
        several documents.

        A one-cell rule's key is its column's code (``expand_sentence``),
        so its ids are one ``rule_values`` lookup per distinct column value
        and one gather by key: no feature string is built.  A multi-cell
        rule builds the string of each distinct key and looks it up in
        ``feat_index``, as two keys may join to one string.  Unseen
        features get -1."""
        table = feature_table(doc.sentences, shapes)
        keys = expand_sentence(self.template, table)
        ids = np.empty(keys.shape, dtype=np.int32)
        for j, (rule, values) in enumerate(zip(self.template.rules,
                                               self.rule_values)):
            if values is None:
                _, first, key = np.unique(keys[:, j], return_index=True,
                                          return_inverse=True)
                strings = table.strings(rule, first)
                get = self.alphabet.feat_index.get
            else:
                strings, key = table.values[rule.cells[0][1]], keys[:, j]
                get = values.get
            found = np.fromiter(map(get, strings, repeat(-1)), np.int32,
                                len(strings))
            ids[:, j] = found[key]
        return self._decode(
            ids,
            np.array([len(s.tokens) for s in doc.sentences], dtype=np.intp))

    def tag_documents(self, docs: list[Document]):
        """Label rows of each of ``docs``, in order.  Consecutive documents
        are tagged as one batch, a group that closes once it holds
        ``_TAG_POSITIONS`` tokens, so only one group's rows are alive at
        a time; each surface's kind and case are computed once in all."""
        shapes = {}
        for group in _groups(docs, lambda d: sum(map(len, d.sentences))):
            rows = self.tag(Document("", [s for d in group
                                          for s in d.sentences]), shapes)
            yield from by_document(rows, group)


def train(docs: list[Document] | EncodedCorpus, template: FeatureTemplate,
          scheme: Scheme, event_type: str,
          config: TrainerConfig = TrainerConfig()) -> CrfModel:
    """Fit a per-event-type model by regularized maximum likelihood.

    ``docs`` is a list of documents, or their ``EncodedCorpus`` under
    ``template``, which gives the same model without expanding them
    again."""
    check_event_type(event_type)
    encoded = (docs if isinstance(docs, EncodedCorpus)
               else build_alphabet(docs, template))
    if encoded.template.rules != template.rules:
        raise ConfigError("the encoding was expanded under another template")
    gold = make_instances(encoded.docs, scheme, event_type)
    if not gold.size:
        raise TrainingError("no non-empty sentences to train on")
    alphabet = FeatureAlphabet(scheme.labels, template.transitions,
                               encoded.feat_index)
    objective = BatchedObjective(alphabet, encoded, gold, config.C)
    weights, log = optim.minimize(objective, np.zeros(alphabet.dim),
                                  eta=config.eta,
                                  max_iterations=config.max_iterations)
    return CrfModel(alphabet, weights, scheme, template, event_type, log)


# --- model file I/O ---------------------------------------------------------

def save_model(model: CrfModel) -> str:
    """Versioned text serialization with exact (round-trip) weights.

    After the header lines come one row per feature, in id order, then,
    with transitions, one ``_TRANS_<label>`` row per previous label, in
    label order.  A row is its name and its L weights (one per label, in
    ``labels`` order, so a transition row holds the label's outgoing
    weights), tab-separated; each weight is written by ``float.hex``,
    which gives the exact value."""
    a = model.alphabet
    template_text = model.template.text
    if not template_text.endswith("\n"):
        template_text += "\n"
    template_lines = split_lines(template_text)
    header = [
        MODEL_FORMAT,
        f"scheme = {model.scheme.name}",
        f"event_type = {model.event_type}",
        f"transitions = {'true' if a.transitions else 'false'}",
        f"labels = {' '.join(a.labels)}",
        f"template_lines = {len(template_lines)}",
        *template_lines,
        f"features = {a.n_features}",
    ]
    names = list(a.feat_index)
    if a.transitions:
        names += [_TRANS_MARK + label for label in a.labels]
    L = a.n_labels
    weights = list(map(float.hex, model.weights.tolist()))
    rows = map("\t".join, zip(names, *(weights[y::L] for y in range(L))))
    return "\n".join(chain(header, rows)) + "\n"


def _weight_error(cell: str) -> str | None:
    """Why ``load_model`` rejects a weight cell, or None.  A weight is
    ``float.hex`` text, which starts "0x" or "-0x": ``float.fromhex``
    would read decimal digits as hex ("1.5" as 1.3125), and the prefix
    leaves no way to spell "inf" or "nan"."""
    if not cell.startswith(("0x", "-0x")):
        try:
            value = float(cell)
        except ValueError:
            return f"weight {cell!r} is not a hexadecimal float"
        if not math.isfinite(value):
            return f"non-finite weight {cell!r}"
        return f"decimal weight {cell!r}; weights are written by float.hex"
    try:
        float.fromhex(cell)
    except OverflowError:
        return f"non-finite weight {cell!r}"
    except ValueError:
        return f"weight {cell!r} is not a hexadecimal float"
    return None


def load_model(text: str) -> CrfModel:
    """The model of a ``save_model`` text.  Each row is checked and
    converted as it is read; any fault is a ``ParseError`` at its line."""
    lines = split_lines(text)
    if not lines or lines[0] != MODEL_FORMAT:
        got = lines[0] if lines else "<empty>"
        raise ParseError(f"unsupported model format {got!r} "
                         f"(expected {MODEL_FORMAT!r})", 1)

    def header(line_no, key):
        raw = lines[line_no - 1] if line_no <= len(lines) else ""
        prefix = f"{key} = "
        if not raw.startswith(prefix):
            raise ParseError(f"expected {key!r} header", line_no)
        return raw[len(prefix):]

    def count(line_no, key):
        value = header(line_no, key)
        if not value.isdecimal():
            raise ParseError(f"{key} must be a non-negative integer", line_no)
        return int(value)

    try:
        scheme = get_scheme(header(2, "scheme"))
    except ValueError as exc:
        raise ParseError(str(exc), 2) from None
    event_type = header(3, "event_type")
    if not _TYPE_RE.fullmatch(event_type):
        raise ParseError(f"bad event type {event_type!r}", 3)
    flag = header(4, "transitions")
    if flag not in ("true", "false"):
        raise ParseError(f"transitions must be true or false, not {flag!r}", 4)
    transitions = flag == "true"
    labels = tuple(header(5, "labels").split())
    if labels != scheme.labels:
        raise ParseError("label list does not match scheme", 5)
    template_lines = count(6, "template_lines")
    if len(lines) < 6 + template_lines:
        raise ParseError("file ends inside the template", len(lines) + 1)
    template_text = "\n".join(lines[6:6 + template_lines]) + "\n"
    try:
        template = parse_template(template_text)
    except ParseError as exc:  # a template line number; the file's is 6 more
        raise ParseError(exc.reason, exc.line + 6) from None
    if template.transitions != transitions:
        raise ParseError("transitions flag disagrees with template", 4)
    cursor = 6 + template_lines
    n_features = count(cursor + 1, "features")

    L = len(labels)
    trans_names = ([_TRANS_MARK + label for label in labels] if transitions
                   else [])
    rows = lines[cursor + 1:]
    if len(rows) != n_features + len(trans_names):
        raise ParseError(f"expected {n_features + len(trans_names)} weight "
                         f"rows, got {len(rows)}", len(lines))
    # a feature is "id=value", and its head is the id with the first "="
    # ("" where it has none)
    heads = {rule.id + "=" for rule in template.rules}
    feat_index = {}
    weights = np.empty((len(rows), L))
    for pos, raw in enumerate(rows):
        row_no = cursor + 2 + pos
        cells = raw.split("\t")
        if len(cells) != L + 1:
            raise ParseError(f"expected {L + 1} fields, got {len(cells)}",
                             row_no)
        name = cells[0]
        if pos >= n_features:
            if name != trans_names[pos - n_features]:
                raise ParseError(f"expected transition row "
                                 f"{trans_names[pos - n_features]!r}, not "
                                 f"{name!r}", row_no)
        elif name[:name.find("=") + 1] not in heads:
            raise ParseError(f"feature {name!r} names no rule of the "
                             "template", row_no)
        elif feat_index.setdefault(name, pos) != pos:
            raise ParseError(f"feature {name!r} repeats line "
                             f"{cursor + 2 + feat_index[name]}", row_no)
        try:
            # every one of the L tabs opens a weight: all must be hex
            if raw.count("\t0x") + raw.count("\t-0x") != L:
                raise ValueError
            weights[pos] = list(map(float.fromhex, cells[1:]))
        except (ValueError, OverflowError):
            reason = next(filter(None, map(_weight_error, cells[1:])))
            raise ParseError(f"bad weight row: {reason}", row_no) from None
    alphabet = FeatureAlphabet(labels, transitions, feat_index)
    return CrfModel(alphabet, weights.ravel(), scheme, template, event_type)
