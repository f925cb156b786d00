"""Linear-chain conditional random field.

Log-linear model over per-position feature strings (from template
expansion) and optional label-transition features.  Inference is all
log-space: forward-backward for the partition function and marginals,
Viterbi (lowest-index tie-break) for decoding.  Training expands each
sentence once, interning feature strings in first-occurrence order into
one fixed-width (positions, rules) id matrix, and minimizes the
L2-regularized negative log-likelihood

    f(w) = -sum_s log p(y_s | x_s; w) + ||w||^2 / (2C)

with L-BFGS over that matrix, so larger C means weaker regularization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import optim
from .corpus import Document, encode_document
from .errors import ConfigError, NumericError, ParseError
from .features import FeatureTemplate, expand_sentence, feature_table, parse_template
from .schemes import Scheme, get_scheme

MODEL_FORMAT = "spantag-crf v1"
_TRANS_MARK = "_TRANS_"


@dataclass(frozen=True)
class TrainerConfig:
    C: float = 1.0
    eta: float = 1e-4
    max_iterations: int = 500
    lbfgs_memory: int = 10

    def __post_init__(self):
        for name in ("C", "eta", "max_iterations", "lbfgs_memory"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


# --- lattice inference --------------------------------------------------

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
    hi = np.max(a, axis=axis, keepdims=True)
    out = hi + np.log(np.sum(np.exp(a - hi), axis=axis, keepdims=True))
    return np.squeeze(out, axis=axis)


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


# --- feature alphabet ----------------------------------------------------

class FeatureAlphabet:
    """Dense weight indexing: feature-string x label, then label bigrams.

    Feature index f and label index y map to weight f*L + y; transition
    (a, b) maps to n_features*L + a*L + b when transitions are enabled.
    """

    def __init__(self, labels: tuple[str, ...], transitions: bool):
        self.labels = labels
        self.transitions = transitions
        self.feat_index: dict[str, int] = {}

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

    def add(self, feature: str) -> int:
        return self.feat_index.setdefault(feature, len(self.feat_index))

    def feature_id(self, feature: str) -> int | None:
        return self.feat_index.get(feature)

    def index(self, fid: int, y: int) -> int:
        return fid * self.n_labels + y

    def trans_base(self) -> int:
        return self.n_features * self.n_labels

    def trans_index(self, a: int, b: int) -> int:
        return self.trans_base() + a * self.n_labels + b

    def feature_strings(self) -> list[str]:
        return list(self.feat_index)  # ids follow insertion order


@dataclass
class EncodedCorpus:
    """A training corpus expanded once.

    Row p of ``ids`` holds the feature ids of position p, one column per
    template rule; positions run over the non-empty sentences in corpus
    order, and ``lengths`` gives each such sentence's token count.
    """
    alphabet: FeatureAlphabet
    ids: np.ndarray  # (positions, n_rules)
    lengths: np.ndarray  # (sentences,)

    @property
    def n_features(self) -> int:
        return self.alphabet.n_features


def build_alphabet(docs: list[Document], template: FeatureTemplate,
                   scheme: Scheme) -> EncodedCorpus:
    """Expand every sentence once, interning feature strings in
    first-occurrence order."""
    if not any(doc.sentences for doc in docs):
        raise ConfigError("cannot build an alphabet from an empty corpus")
    alphabet = FeatureAlphabet(scheme.labels, template.transitions)
    ids: list[int] = []
    lengths: list[int] = []
    for doc in docs:
        for sentence in doc.sentences:
            if not sentence.tokens:
                continue
            for feats in expand_sentence(template, feature_table(sentence)):
                ids.extend(map(alphabet.add, feats))
            lengths.append(len(sentence.tokens))
    return EncodedCorpus(
        alphabet,
        np.array(ids, dtype=np.intp).reshape(sum(lengths), len(template.rules)),
        np.array(lengths, dtype=np.intp))


# --- training labels and tag-time instances -------------------------------

def make_instances(docs: list[Document], scheme: Scheme,
                   event_type: str) -> np.ndarray:
    """Gold label ids of every position, in the row order of the
    ``build_alphabet`` matrix."""
    label_id = {lab: y for y, lab in enumerate(scheme.labels)}
    return np.array([label_id[lab] for doc in docs
                     for row in encode_document(doc, scheme, event_type)
                     for lab in row], dtype=np.intp)


@dataclass
class Instance:
    """One sentence: per-position known-feature ids and gold label ids."""
    feats: list[list[int]]
    gold: list[int]


# --- objective: reference (per-sentence) path ------------------------------

def _unpack(weights, alphabet):
    L = alphabet.n_labels
    w_node = weights[:alphabet.n_features * L].reshape(alphabet.n_features, L)
    w_trans = None
    if alphabet.transitions:
        w_trans = weights[alphabet.trans_base():].reshape(L, L)
    return w_node, w_trans


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
    L = alphabet.n_labels
    w_node, w_trans = _unpack(weights, alphabet)
    value = 0.0
    grad = np.zeros_like(weights)
    g_node = grad[:alphabet.n_features * L].reshape(alphabet.n_features, L)
    g_trans = (grad[alphabet.trans_base():].reshape(L, L)
               if alphabet.transitions else None)
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


# --- objective: batched path (used by train) -------------------------------

class BatchedObjective:
    """Vectorized objective over all sentences at once.

    Takes the fixed-width id matrix of ``build_alphabet`` and the gold
    ids of ``make_instances``.  Sentences are re-sorted by length
    (descending, stable) so that at time step t the active sentences are
    a prefix; positions live in one flat array addressed by precomputed
    per-step index vectors, and the feature ids of position p are the
    flat slice [p*R, (p+1)*R) for R template rules.  Empirical counts do
    not depend on the weights and are folded into one constant vector,
    so f(w) = sum logZ_s - w . emp + ||w||^2/(2C).
    """

    def __init__(self, encoded: EncodedCorpus, gold: np.ndarray, C: float):
        alphabet = encoded.alphabet
        self.alphabet = alphabet
        self.C = C
        self.L = alphabet.n_labels
        self.n_rules = encoded.ids.shape[1]
        order = np.argsort(-encoded.lengths, kind="stable")
        self.lengths = encoded.lengths[order]
        self.max_len = int(self.lengths[0]) if len(order) else 0
        starts = np.cumsum(self.lengths) - self.lengths
        # position p of the sorted layout comes from row perm[p] of the input
        starts_in = np.cumsum(encoded.lengths) - encoded.lengths
        perm = (np.repeat(starts_in[order] - starts, self.lengths)
                + np.arange(len(gold)))
        self.fids = encoded.ids[perm].ravel()
        self.fid_starts = np.arange(len(gold)) * self.n_rules
        gold = gold[perm]

        # per-step active prefix size and flat position indices
        self.active = np.searchsorted(-self.lengths, -(np.arange(self.max_len) + 1),
                                      side="right")
        self.step_idx = [starts[:k] + t
                         for t, k in enumerate(self.active)]
        self.last_idx = starts + self.lengths - 1
        self.sent_of_pos = np.repeat(np.arange(len(order)), self.lengths)

        # constant empirical-count vector; integer counts, so the order of
        # accumulation does not matter
        emp = np.zeros(alphabet.dim)
        e_node = emp[:alphabet.n_features * self.L].reshape(-1, self.L)
        np.add.at(e_node, (self.fids, np.repeat(gold, self.n_rules)), 1.0)
        if alphabet.transitions:
            e_trans = emp[alphabet.trans_base():].reshape(self.L, self.L)
            nxt = np.delete(np.arange(len(gold)), starts)  # non-first positions
            np.add.at(e_trans, (gold[nxt - 1], gold[nxt]), 1.0)
        self.empirical = emp

    def __call__(self, weights: np.ndarray):
        a = self.alphabet
        L = self.L
        w_node, w_trans = _unpack(weights, a)
        # node scores for every position (a template without rules has none)
        node = (np.add.reduceat(w_node[self.fids], self.fid_starts, axis=0)
                if self.fids.size else np.zeros((len(self.fid_starts), L)))
        alpha = np.zeros_like(node)
        beta = np.zeros_like(node)

        idx0 = self.step_idx[0] if self.max_len else np.zeros(0, dtype=np.intp)
        alpha[idx0] = node[idx0]
        for t in range(1, self.max_len):
            idx = self.step_idx[t]
            prev = alpha[self.step_idx[t - 1][:len(idx)]]
            if w_trans is None:
                alpha[idx] = node[idx] + _logsumexp(prev, axis=1)[:, None]
            else:
                alpha[idx] = node[idx] + _logsumexp(
                    prev[:, :, None] + w_trans[None], axis=1)
        beta[self.last_idx] = 0.0
        for t in range(self.max_len - 2, -1, -1):
            k_next = self.active[t + 1]
            idx = self.step_idx[t][:k_next]
            nxt = self.step_idx[t + 1]
            nb = node[nxt] + beta[nxt]
            if w_trans is None:
                beta[idx] = _logsumexp(nb, axis=1)[:, None]
            else:
                beta[idx] = _logsumexp(w_trans[None] + nb[:, None, :], axis=2)

        log_z = _logsumexp(alpha[self.last_idx], axis=1)
        marg = np.exp(alpha + beta - log_z[self.sent_of_pos][:, None])

        grad = np.zeros_like(weights)
        g_node = grad[:a.n_features * L].reshape(-1, L)
        contrib = np.repeat(marg, self.n_rules, axis=0)
        for y in range(L):
            g_node[:, y] = np.bincount(self.fids, weights=contrib[:, y],
                                       minlength=a.n_features)
        if w_trans is not None:
            g_trans = grad[a.trans_base():].reshape(L, L)
            for t in range(1, self.max_len):
                idx = self.step_idx[t]
                prev = self.step_idx[t - 1][:len(idx)]
                em = np.exp(alpha[prev][:, :, None] + w_trans[None]
                            + (node[idx] + beta[idx])[:, None, :]
                            - log_z[self.sent_of_pos[idx]][:, None, None])
                g_trans += em.sum(axis=0)

        value = float(log_z.sum()) - float(np.dot(weights, self.empirical))
        value += float(np.dot(weights, weights)) / (2.0 * self.C)
        grad -= self.empirical
        grad += weights / self.C
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise NumericError("non-finite objective evaluation")
        return value, grad


# --- model ----------------------------------------------------------------

@dataclass
class CrfModel:
    alphabet: FeatureAlphabet
    weights: np.ndarray
    scheme: Scheme
    template: FeatureTemplate
    event_type: str
    log: optim.IterationLog | None = field(default=None, repr=False)

    def tag_sentence(self, sentence) -> list[str]:
        if not sentence.tokens:
            return []
        w_node, w_trans = _unpack(self.weights, self.alphabet)
        # features unseen in training are dropped and so score zero
        fids = [[fid for fid in map(self.alphabet.feature_id, feats)
                 if fid is not None]
                for feats in expand_sentence(self.template,
                                             feature_table(sentence))]
        lat = instance_lattice(Instance(fids, [0] * len(fids)), w_node, w_trans)
        path = viterbi(lat)
        return [self.alphabet.labels[y] for y in path]

    def tag(self, doc: Document) -> list[list[str]]:
        return [self.tag_sentence(s) for s in doc.sentences]


def train(docs: list[Document], template: FeatureTemplate, scheme: Scheme,
          event_type: str, config: TrainerConfig = TrainerConfig()) -> CrfModel:
    """Fit a per-event-type model by regularized maximum likelihood."""
    encoded = build_alphabet(docs, template, scheme)
    gold = make_instances(docs, scheme, event_type)
    if not gold.size:
        raise ConfigError("no non-empty sentences to train on")
    objective = BatchedObjective(encoded, gold, config.C)
    alphabet = encoded.alphabet
    weights, log = optim.minimize(
        objective, np.zeros(alphabet.dim),
        memory=config.lbfgs_memory, eta=config.eta,
        max_iterations=config.max_iterations)
    return CrfModel(alphabet, weights, scheme, template, event_type, log)


# --- model file I/O ---------------------------------------------------------

def save_model(model: CrfModel) -> str:
    """Versioned text serialization with exact (round-trip) weights."""
    a = model.alphabet
    template_text = model.template.text
    if not template_text.endswith("\n"):
        template_text += "\n"
    template_lines = template_text.count("\n")
    lines = [
        MODEL_FORMAT,
        f"scheme = {model.scheme.name}",
        f"event_type = {model.event_type}",
        f"transitions = {'true' if a.transitions else 'false'}",
        f"labels = {' '.join(a.labels)}",
        f"template_lines = {template_lines}",
    ]
    lines.extend(template_text.splitlines())
    lines.append(f"features = {a.n_features}")
    strings = a.feature_strings()
    for fid, feat in enumerate(strings):
        for y, lab in enumerate(a.labels):
            idx = a.index(fid, y)
            lines.append(f"{idx}\t{feat}\t{lab}\t{float(model.weights[idx])!r}")
    if a.transitions:
        for p, prev in enumerate(a.labels):
            for c, cur in enumerate(a.labels):
                idx = a.trans_index(p, c)
                lines.append(
                    f"{idx}\t{_TRANS_MARK}\t{prev},{cur}\t{float(model.weights[idx])!r}")
    return "\n".join(lines) + "\n"


def load_model(text: str) -> CrfModel:
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_FORMAT:
        got = lines[0] if lines else "<empty>"
        raise ParseError(f"unsupported model format {got!r}", 1)

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
    template = parse_template(template_text)
    if template.transitions != transitions:
        raise ParseError("transitions flag disagrees with template", 4)
    cursor = 6 + template_lines
    n_features = count(cursor + 1, "features")

    alphabet = FeatureAlphabet(labels, transitions)
    expected = n_features * len(labels) + (len(labels) ** 2 if transitions else 0)
    rows = lines[cursor + 1:]
    if len(rows) != expected:
        raise ParseError(f"expected {expected} weight rows, got {len(rows)}",
                         len(lines))
    weights = np.zeros(expected)
    for pos, raw in enumerate(rows):
        row_no = cursor + 2 + pos
        cells = raw.split("\t")
        if len(cells) != 4:
            raise ParseError(f"expected 4 fields, got {len(cells)}", row_no)
        idx_s, feat, lab, weight_s = cells
        try:
            idx = int(idx_s)
            if feat == _TRANS_MARK:
                prev, _, cur = lab.partition(",")
                want = alphabet.trans_index(labels.index(prev),
                                            labels.index(cur))
            else:
                fid = alphabet.add(feat)
                want = alphabet.index(fid, labels.index(lab))
            weight = float(weight_s)
            if not math.isfinite(weight):
                raise ValueError(f"non-finite weight {weight_s!r}")
        except ValueError as exc:
            raise ParseError(f"bad weight row: {exc}", row_no) from None
        if idx != want or idx != pos:  # rows are written in index order
            raise ParseError(f"index {idx} does not match layout ({want})",
                             row_no)
        weights[idx] = weight
    if alphabet.n_features != n_features:
        raise ParseError(
            f"expected {n_features} features, got {alphabet.n_features}",
            len(lines))
    return CrfModel(alphabet, weights, scheme, template, event_type)
