"""Per-sentence references the batched code in ``spantag`` is tested
against.

A ``Lattice`` holds one sentence's log-space node and edge scores;
``forward_backward`` computes log Z and the marginals by log-space
recursion, ``viterbi`` the best path (lowest-index tie-break), and
``objective_and_gradient`` the regularized negative log-likelihood one
sentence at a time.  ``crf.BatchedObjective`` and ``crf.viterbi`` must
give the same values and paths.  ``node_scores`` and ``node_gradient``
score and scatter a (positions, rules) id matrix position by position;
``crf.instance_lattice`` and ``crf.node_gradient`` on a grouped
``crf.NodeLayout`` must agree with them.

The string expanders define the feature strings: ``token_case`` is the
letter-by-letter case classifier that ``textprep.token_case`` must
agree with, ``feature_table`` a sentence's rows of column values,
``expand`` the strings "id=v1/v2/..." of one position and
``expand_sentence`` those of every position.
``string_alphabet`` and ``string_ids`` number every occurrence's string
the way ``crf.build_alphabet`` and ``CrfModel.tag`` number them through
integer keys, which must give the same ids.

``parse_column_file`` is the row-by-row column reader: one new ``Token``
per body line, and each label cell checked and decoded in row order.
``corpus.parse_column_file`` must return equal documents, or raise the
same first ``ParseError``.
"""

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from spantag.corpus import (_DIRECTIVE_RE, _TYPE_RE, PLACEHOLDER,
                            Document, Sentence, Span, Token, _ColumnSpec,
                            _parse_columns_decl, _project_joint)
from spantag.crf import FeatureAlphabet, intern
from spantag.errors import (ConfigError, NumericError, ParseError,
                            SchemeValidityError, split_lines)
from spantag.features import MAX_OFFSET, FeatureTemplate, Rule
from spantag.textprep import porter_stem, token_kind


@dataclass
class Lattice:
    """Log-space scores: node (n, L); edge (n-1, L, L) or None."""
    node: np.ndarray
    edge: np.ndarray | None = None

    def __post_init__(self):
        self.node = np.asarray(self.node, dtype=float)
        if self.edge is not None:
            self.edge = np.asarray(self.edge, dtype=float)
            n, L = self.node.shape
            if self.edge.shape != (max(n - 1, 0), L, L):
                raise ValueError("edge/node shape mismatch")


def _logsumexp(a, axis):
    hi = a.max(axis=axis, keepdims=True)
    e = a - hi
    np.exp(e, out=e)
    return hi.squeeze(axis) + np.log(e.sum(axis=axis))


def forward_backward(lat: Lattice):
    """(logZ, node marginals (n,L), edge marginals (n-1,L,L) or None).

    Forward and backward partition functions agree to tight tolerance;
    the forward value is returned.
    """
    node, edge = lat.node, lat.edge
    n, L = node.shape
    if n == 0:
        return 0.0, np.zeros((0, L)), (None if edge is None
                                       else np.zeros((0, L, L)))
    alpha = np.empty((n, L))
    beta = np.empty((n, L))
    alpha[0] = node[0]
    for t in range(1, n):
        if edge is None:
            alpha[t] = node[t] + _logsumexp(alpha[t - 1], axis=0)
        else:
            alpha[t] = node[t] + _logsumexp(
                alpha[t - 1][:, None] + edge[t - 1], axis=0)
    beta[n - 1] = 0.0
    for t in range(n - 2, -1, -1):
        nb = node[t + 1] + beta[t + 1]
        if edge is None:
            beta[t] = _logsumexp(nb, axis=0)
        else:
            beta[t] = _logsumexp(edge[t] + nb[None, :], axis=1)
    log_z = float(_logsumexp(alpha[n - 1], axis=0))
    log_z_backward = float(_logsumexp(node[0] + beta[0], axis=0))
    if not np.isfinite(log_z) or abs(log_z - log_z_backward) > 1e-6 * max(
            1.0, abs(log_z)):
        raise NumericError(
            f"forward/backward disagree: {log_z} vs {log_z_backward}")
    marginals = np.exp(alpha + beta - log_z)
    edge_marginals = None
    if edge is not None:
        edge_marginals = np.exp(
            alpha[:-1, :, None] + edge
            + (node[1:] + beta[1:])[:, None, :] - log_z)
    return log_z, marginals, edge_marginals


def viterbi(lat: Lattice) -> list[int]:
    """Maximum-score label indices; ties resolved to the lowest index."""
    node, edge = lat.node, lat.edge
    n, L = node.shape
    if n == 0:
        return []
    delta = node[0].copy()
    back = np.zeros((n, L), dtype=np.intp)
    for t in range(1, n):
        if edge is None:
            prev = delta[:, None] + np.zeros((L, L))
        else:
            prev = delta[:, None] + edge[t - 1]
        back[t] = np.argmax(prev, axis=0)  # first max = lowest index
        delta = node[t] + np.max(prev, axis=0)
    path = [int(np.argmax(delta))]
    for t in range(n - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path


def sequence_score(lat: Lattice, labels: list[int]) -> float:
    node, edge = lat.node, lat.edge
    score = float(sum(node[t, y] for t, y in enumerate(labels)))
    if edge is not None:
        score += float(sum(edge[t - 1, labels[t - 1], labels[t]]
                           for t in range(1, len(labels))))
    return score


@dataclass
class Instance:
    """One sentence: per-position known-feature ids and gold label ids."""
    feats: list[list[int]]
    gold: list[int]


# --- objective ------------------------------------------------------------

def instance_lattice(inst: Instance, w_node, w_trans) -> Lattice:
    n = len(inst.feats)
    L = w_node.shape[1]
    node = np.zeros((n, L))
    for t, fids in enumerate(inst.feats):
        if fids:
            node[t] = w_node[fids].sum(axis=0)
    edge = None
    if w_trans is not None:
        edge = np.broadcast_to(w_trans, (max(n - 1, 0), L, L))
    return Lattice(node, edge)


def objective_and_gradient(weights: np.ndarray, instances: list[Instance],
                           alphabet: FeatureAlphabet, C: float):
    """Regularized negative log-likelihood and its gradient.

    Straightforward sentence-at-a-time evaluation; the trainer uses the
    batched equivalent, which must produce the same values.
    """
    w_node, w_trans = alphabet.split(weights)
    value = 0.0
    grad = np.zeros_like(weights)
    g_node, g_trans = alphabet.split(grad)
    for inst in instances:
        lat = instance_lattice(inst, w_node, w_trans)
        log_z, marginals, edge_marginals = forward_backward(lat)
        value += log_z - sequence_score(lat, inst.gold)
        for t, fids in enumerate(inst.feats):
            if not fids:
                continue
            g_node[fids] += marginals[t]
            g_node[fids, inst.gold[t]] -= 1.0
        if g_trans is not None and len(inst.gold) > 1:
            g_trans += edge_marginals.sum(axis=0)
            for t in range(1, len(inst.gold)):
                g_trans[inst.gold[t - 1], inst.gold[t]] -= 1.0
    value += float(np.dot(weights, weights)) / (2.0 * C)
    grad += weights / C
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericError("non-finite objective evaluation")
    return value, grad


def node_scores(w_node: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Per-position node scores of a (positions, rules) id matrix: the
    summed weight rows of each position's ids, one position at a time."""
    node = np.zeros((len(ids), w_node.shape[1]))
    for p, fids in enumerate(ids):
        for f in fids:
            node[p] += w_node[f]
    return node


def node_gradient(marg: np.ndarray, ids: np.ndarray,
                  n_features: int) -> np.ndarray:
    """The node gradient's scatter over repeated ids: row f sums the
    (positions, L) ``marg`` rows of every (position, rule) whose id is f,
    by one ``bincount`` per label over the id matrix, position by
    position (what ``crf.BatchedObjective`` did before the grouped
    ``crf.NodeLayout``)."""
    n_rules = ids.shape[1]
    out = np.zeros((n_features, marg.shape[1]))
    for y in range(marg.shape[1]):
        out[:, y] = np.bincount(ids.ravel().astype(np.intp),
                                weights=np.repeat(marg[:, y], n_rules),
                                minlength=n_features)
    return out


# --- feature strings ------------------------------------------------------

def token_case(surface: str) -> str:
    """Capitalization class of a token, one letter at a time: "none"
    without letters, "uppercase" for a lone capital, then "lowercase",
    "allCaps", "upperInitial" or "mixedCaps" by the letters' cases."""
    letters = [ch for ch in surface if ch.isalpha()]
    if not letters:
        return "none"
    if len(surface) == 1 and surface.isupper():
        return "uppercase"
    if all(ch.islower() for ch in letters):
        return "lowercase"
    if len(surface) > 1 and all(ch.isupper() for ch in letters):
        return "allCaps"
    if letters[0].isupper() and all(ch.islower() for ch in letters[1:]):
        return "upperInitial"
    return "mixedCaps"


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


def expand_batch(template: FeatureTemplate, sentences):
    """Every feature string of ``sentences`` as one stream, position by
    position and one per template rule (an empty sentence has none), and
    every sentence's token count."""
    strings = chain.from_iterable(chain.from_iterable(
        expand_sentence(template, feature_table(s)) for s in sentences))
    return strings, np.array([len(s.tokens) for s in sentences], dtype=np.intp)


def string_alphabet(docs, template: FeatureTemplate):
    """(feature index, (positions, rules) id matrix) of ``docs``: every
    occurrence's string numbered by first occurrence."""
    strings, lengths = expand_batch(
        template, [s for doc in docs for s in doc.sentences])
    feat_index, ids = intern(strings)
    return feat_index, ids.reshape(lengths.sum(), len(template.rules))


def string_ids(template: FeatureTemplate, sentences, feat_index):
    """(positions, rules) ids of ``sentences`` looked up in ``feat_index``,
    -1 for an unseen string."""
    strings, lengths = expand_batch(template, sentences)
    ids = np.fromiter(map(feat_index.get, strings, repeat(-1)), np.intp)
    return ids.reshape(lengths.sum(), len(template.rules))


# --- column files -----------------------------------------------------

def _flush_sentence(spec: _ColumnSpec, rows: list[tuple[int, list[str]]],
                    sentences: list[Sentence], spans: list[Span]) -> None:
    """Append the buffered body rows, (line number, cells) pairs, to the
    open document's lists as one sentence and the spans its label columns
    carry; then empty the buffer."""
    if not rows:
        return
    tokens = []
    for line_no, cells in rows:
        surface = cells[spec.surface]
        if not surface:
            raise ParseError("empty surface cell", line_no)
        stem = cells[spec.stem] if spec.stem is not None else porter_stem(surface)
        pos = cells[spec.pos] if spec.pos is not None else PLACEHOLDER
        chunk = cells[spec.chunk] if spec.chunk is not None else PLACEHOLDER
        try:
            tokens.append(Token(surface, stem or PLACEHOLDER,
                                pos or PLACEHOLDER, chunk or PLACEHOLDER))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
    sent_index = len(sentences)
    sentences.append(Sentence(tokens))
    first_line = rows[0][0]
    for lc in spec.labels:
        column = [cells[lc.index] for _, cells in rows]
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


def parse_column_file(text: str) -> list[Document]:
    """Parse a column-format stream into documents.

    Tokens appearing before any `#! doc` directive go into an implicit
    document with id "doc0".  Document ids must be unique and, like
    surfaces, free of whitespace.
    """
    spec: _ColumnSpec | None = None
    opened: list[tuple[str, list[Sentence], list[Span]]] = []
    sentences: list[Sentence] = []
    spans: list[Span] = []
    doc_ids: set[str] = set()
    rows: list[tuple[int, list[str]]] = []
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
                if any(ch.isspace() for ch in value):
                    raise ParseError(
                        f"whitespace in document id {value!r}", line_no)
                if value in doc_ids:
                    raise ParseError(f"duplicate document id {value!r}",
                                     line_no)
                _flush_sentence(spec, rows, sentences, spans)
                sentences, spans = [], []
                opened.append((value, sentences, spans))
                doc_ids.add(value)
            else:
                raise ParseError(f"unknown directive {key!r}", line_no)
        elif not raw.strip():
            _flush_sentence(spec, rows, sentences, spans)
        else:
            if spec is None:
                raise ParseError("token line before columns directive", line_no)
            cells = raw.split("\t")
            if len(cells) != len(spec.names):
                raise ParseError(
                    f"expected {len(spec.names)} columns, got {len(cells)}",
                    line_no)
            if not opened:
                opened.append(("doc0", sentences, spans))
                doc_ids.add("doc0")
            rows.append((line_no, cells))
    _flush_sentence(spec, rows, sentences, spans)
    return [Document(doc_id, sentences, spans)
            for doc_id, sentences, spans in opened]


def _decode_label_column(column, scheme, event_type, sent_index, first_line, out):
    for i, lab in enumerate(column):
        if lab not in scheme.labels:
            raise ParseError(
                f"label {lab!r} not in scheme {scheme.name}", first_line + i)
    try:
        pairs = scheme.decode(column)
    except SchemeValidityError as exc:
        raise ParseError(
            f"{scheme.name} violation for {event_type}: {exc.rule}",
            first_line + exc.position) from None
    for start, end in pairs:
        out.append(Span(sent_index, start, end, event_type))
