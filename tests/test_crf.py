"""Linear-chain model: inference vs enumeration, training, serialization."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spantag import crf, features, synth
from spantag.corpus import (Document, Sentence, Span, Token,
                            encode_document, write_column_file)
from spantag.crf import (
    BatchedObjective,
    CrfModel,
    FeatureAlphabet,
    TrainerConfig,
    _SCALED_RANGE,
    build_alphabet,
    by_document,
    intern,
    load_model,
    make_instances,
    save_model,
    train,
)
from spantag.errors import ConfigError, ParseError, TrainingError
from spantag.features import (DEFAULT_TEMPLATE_TEXT, SENTINELS,
                              default_template, parse_template)
from spantag.postprocess import pipeline_spans
from spantag.schemes import SCHEME_NAMES, get_scheme

from conftest import build_doc, build_sentence
from oracle import (
    Instance,
    Lattice,
    expand_sentence,
    feature_table,
    forward_backward,
    instance_lattice,
    node_gradient,
    node_scores,
    objective_and_gradient,
    sequence_score,
    string_alphabet,
    string_ids,
    viterbi,
)


def assert_same_text(got: str, want: str) -> None:
    """``got == want`` for two model texts.  A failure names the first
    differing line instead of leaving pytest to diff the whole texts,
    which takes minutes."""
    if got != want:
        lines = itertools.zip_longest(got.split("\n"), want.split("\n"))
        line_no, (a, b) = next((i, pair) for i, pair in enumerate(lines, 1)
                               if pair[0] != pair[1])
        pytest.fail(f"texts differ first at line {line_no}: {a!r} != {b!r}",
                    pytrace=False)


# --- enumeration oracle -----------------------------------------------------

def enumerate_paths(n, n_labels):
    return itertools.product(range(n_labels), repeat=n)


def brute_force(lat: Lattice):
    """(logZ, node marginals, edge marginals, best path) by enumeration.

    Among maximum-score paths the oracle picks the one a backward pass
    with lowest-index preference would: minimal under right-to-left
    lexicographic comparison.
    """
    n, n_labels = lat.node.shape
    scores = []
    paths = list(enumerate_paths(n, n_labels))
    for path in paths:
        scores.append(sequence_score(lat, list(path)))
    scores = np.array(scores)
    hi = scores.max()
    log_z = float(hi + np.log(np.sum(np.exp(scores - hi))))
    probs = np.exp(scores - log_z)
    node_marg = np.zeros((n, n_labels))
    edge_marg = np.zeros((max(n - 1, 0), n_labels, n_labels))
    for path, p in zip(paths, probs):
        for t, y in enumerate(path):
            node_marg[t, y] += p
        for t in range(1, n):
            edge_marg[t - 1, path[t - 1], path[t]] += p
    best = min((path for path, s in zip(paths, scores) if s == hi),
               key=lambda path: tuple(reversed(path)))
    return log_z, node_marg, edge_marg, list(best)


def random_lattice(rng, n, n_labels, with_edges, spread=2.0):
    node = rng.normal(0.0, spread, size=(n, n_labels))
    edge = None
    if with_edges:
        edge = rng.normal(0.0, spread, size=(max(n - 1, 0), n_labels, n_labels))
    return Lattice(node, edge)


class TestInferenceAgainstEnumeration:
    @pytest.mark.parametrize("with_edges", [False, True])
    def test_random_lattices(self, with_edges):
        rng = np.random.default_rng(20_240_601)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            n_labels = int(rng.integers(2, 5))
            lat = random_lattice(rng, n, n_labels, with_edges)
            want_z, want_node, want_edge, want_path = brute_force(lat)
            got_z, got_node, got_edge = forward_backward(lat)
            assert abs(got_z - want_z) <= 1e-10 * max(1.0, abs(want_z))
            np.testing.assert_allclose(got_node, want_node, atol=1e-10)
            if with_edges:
                np.testing.assert_allclose(got_edge, want_edge, atol=1e-10)
            assert viterbi(lat) == want_path

    def test_marginals_are_distributions(self):
        rng = np.random.default_rng(7)
        lat = random_lattice(rng, 5, 3, with_edges=True)
        _, node_marg, edge_marg = forward_backward(lat)
        np.testing.assert_allclose(node_marg.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(edge_marg.sum(axis=(1, 2)), 1.0, atol=1e-12)
        # edge marginals must be consistent with node marginals
        np.testing.assert_allclose(edge_marg.sum(axis=2), node_marg[:-1],
                                   atol=1e-12)
        np.testing.assert_allclose(edge_marg.sum(axis=1), node_marg[1:],
                                   atol=1e-12)

    def test_large_scores_stay_finite(self):
        node = np.array([[800.0, -800.0], [750.0, -750.0]])
        edge = np.array([[[500.0, 0.0], [0.0, 500.0]]])
        log_z, marg, _ = forward_backward(Lattice(node, edge))
        assert np.isfinite(log_z)
        np.testing.assert_allclose(marg[0], [1.0, 0.0], atol=1e-12)

    def test_empty_lattice(self):
        log_z, marg, edge = forward_backward(Lattice(np.zeros((0, 3))))
        assert log_z == 0.0
        assert marg.shape == (0, 3)
        assert edge is None
        assert viterbi(Lattice(np.zeros((0, 3)))) == []

    def test_edge_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Lattice(np.zeros((3, 2)), np.zeros((3, 2, 2)))


class TestViterbiTieBreaking:
    def test_all_ties_pick_lowest_labels(self):
        lat = Lattice(np.zeros((4, 3)), np.zeros((3, 3, 3)))
        assert viterbi(lat) == [0, 0, 0, 0]

    def test_tie_resolved_from_the_back(self):
        # paths (0,1) and (1,0) tie; the backward pass prefers the lower
        # final label, so (1,0) wins over the alphabetically-first (0,1)
        node = np.array([[0.0, 0.0], [0.0, 0.0]])
        edge = np.array([[[-1.0, 0.0], [0.0, -1.0]]])
        assert viterbi(Lattice(node, edge)) == [1, 0]
        want = brute_force(Lattice(node, edge))[3]
        assert want == [1, 0]


# --- objective and gradient -------------------------------------------------

def toy_alphabet(n_features, n_labels, transitions):
    index, _ = intern(f"f{f}" for f in range(n_features))
    return FeatureAlphabet(tuple(f"L{i}" for i in range(n_labels)),
                           transitions, index)


def toy_instances(rng, alphabet, n_sentences, max_len, ragged=False):
    """Random sentences; two features per position unless ragged."""
    instances = []
    for _ in range(n_sentences):
        n = int(rng.integers(1, max_len + 1))
        feats = []
        for _ in range(n):
            if ragged:
                k = int(rng.integers(0, 4))
            else:
                k = 2
            feats.append(sorted(rng.choice(alphabet.n_features, size=k,
                                           replace=False).tolist()))
        gold = rng.integers(0, alphabet.n_labels, size=n).tolist()
        instances.append(Instance(feats, gold))
    return instances


def template_of(rules):
    """A template with one rule per list of (row offset, column) cells."""
    return parse_template("".join(
        f"U{j:02d}:" + "/".join(f"%x[{row},{col}]" for row, col in cells)
        + "\n" for j, cells in enumerate(rules)))


def toy_template(n_rules):
    """Rules, one per id column, that read row offsets -1, 0 and 1 in
    turn, so the columns of toy ids fall into groups."""
    return template_of([[(j % 3 - 1, 1)] for j in range(n_rules)])


def batched(instances, alphabet, C):
    """The batched objective over fixed-width instances."""
    ids = np.array([fids for inst in instances for fids in inst.feats],
                   dtype=np.int32)
    lengths = np.array([len(inst.gold) for inst in instances], dtype=np.intp)
    gold = np.array([y for inst in instances for y in inst.gold], dtype=np.intp)
    encoded = crf.EncodedCorpus(alphabet.feat_index, ids, lengths, [],
                                toy_template(ids.shape[1]))
    return BatchedObjective(alphabet, encoded, gold, C)


def check_central_differences(rng, instances, alphabet):
    w = rng.normal(0.0, 0.5, size=alphabet.dim)
    _, grad = objective_and_gradient(w, instances, alphabet, C=2.0)
    h = 1e-6
    for i in range(alphabet.dim):
        probe = w.copy()
        probe[i] = w[i] + h
        up, _ = objective_and_gradient(probe, instances, alphabet, C=2.0)
        probe[i] = w[i] - h
        down, _ = objective_and_gradient(probe, instances, alphabet, C=2.0)
        numeric = (up - down) / (2 * h)
        assert abs(grad[i] - numeric) <= 1e-4 * max(1.0, abs(numeric))


class TestObjective:
    @pytest.mark.parametrize("transitions", [False, True])
    def test_gradient_matches_central_differences(self, transitions):
        rng = np.random.default_rng(11)
        alphabet = toy_alphabet(5, 3, transitions)
        check_central_differences(
            rng, toy_instances(rng, alphabet, 6, 5), alphabet)

    def test_ragged_gradient_matches_central_differences(self):
        # zero to three features per position, as at tag time
        rng = np.random.default_rng(12)
        alphabet = toy_alphabet(5, 3, transitions=True)
        check_central_differences(
            rng, toy_instances(rng, alphabet, 6, 5, ragged=True), alphabet)

    def test_zero_weights_objective_is_entropy_plus_nothing(self):
        # with w = 0 every path is equally likely: logZ = n log L per
        # sentence and the empirical term vanishes
        alphabet = toy_alphabet(3, 2, transitions=False)
        instances = [Instance([[0], [1, 2]], [0, 1]),
                     Instance([[2]], [1])]
        value, _ = objective_and_gradient(np.zeros(alphabet.dim),
                                          instances, alphabet, C=1.0)
        assert abs(value - (2 + 1) * np.log(2)) < 1e-12

    @pytest.mark.parametrize("transitions", [False, True])
    def test_batched_matches_reference(self, transitions):
        rng = np.random.default_rng(101 + int(transitions))
        alphabet = toy_alphabet(6, 3, transitions)
        instances = toy_instances(rng, alphabet, 9, 6)
        objective = batched(instances, alphabet, C=0.7)
        for trial in range(5):
            w = rng.normal(0.0, 1.0, size=alphabet.dim)
            want_value, want_grad = objective_and_gradient(
                w, instances, alphabet, C=0.7)
            got_value, grad = objective(w)
            got_grad = grad()
            assert abs(got_value - want_value) <= 1e-10 * max(1.0, abs(want_value))
            np.testing.assert_allclose(got_grad, want_grad, atol=1e-10)

    def test_batched_handles_single_token_sentences(self):
        alphabet = toy_alphabet(2, 2, transitions=True)
        instances = [Instance([[0]], [1]), Instance([[1], [0]], [0, 1])]
        w = np.linspace(-1.0, 1.0, alphabet.dim)
        want = objective_and_gradient(w, instances, alphabet, C=1.0)
        got_value, grad = batched(instances, alphabet, C=1.0)(w)
        assert abs(got_value - want[0]) < 1e-12
        np.testing.assert_allclose(grad(), want[1], atol=1e-12)

    def test_batched_handles_templates_without_rules(self):
        # only transition weights: every position has zero node features
        alphabet = toy_alphabet(0, 3, transitions=True)
        instances = [Instance([[], [], []], [0, 2, 1]), Instance([[]], [2])]
        w = np.linspace(-1.0, 1.0, alphabet.dim)
        want = objective_and_gradient(w, instances, alphabet, C=1.0)
        got_value, grad = batched(instances, alphabet, C=1.0)(w)
        assert abs(got_value - want[0]) < 1e-12
        np.testing.assert_allclose(grad(), want[1], atol=1e-12)


def assert_batched_matches_reference(instances, alphabet, w, C=0.7):
    want_value, want_grad = objective_and_gradient(w, instances, alphabet, C)
    got_value, grad = batched(instances, alphabet, C)(w)
    got_grad = grad()
    assert abs(got_value - want_value) <= 1e-10 * max(1.0, abs(want_value))
    np.testing.assert_allclose(got_grad, want_grad, atol=1e-10)


class TestNodeLayout:
    """The grouped layout against the per-position oracle: the same node
    scores and node gradient, up to the order of summation."""

    def test_rules_group_by_their_set_of_row_offsets(self):
        assert crf.rule_groups(default_template()) == [
            [0, 5, 10, 15, 20, 25], [1, 6, 11, 16, 21, 26],
            [2, 7, 12, 17, 22, 27, 30], [3, 8, 13, 18, 23, 28],
            [4, 9, 14, 19, 24, 29]]
        template = template_of([[(-1, 1), (0, 1)], [(0, 3)], [(0, 2), (-1, 4)],
                                [(-1, 2)]])
        assert crf.rule_groups(template) == [[0, 2], [1], [3]]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           rules=st.lists(st.lists(st.tuples(st.integers(-2, 2),
                                             st.integers(1, 6)),
                                   min_size=1, max_size=3), max_size=6),
           lengths=st.lists(st.integers(0, 7), min_size=1, max_size=6),
           n_features=st.integers(1, 9), n_labels=st.integers(1, 4))
    # a cross-offset rule beside a one-offset rule, 0- and 1-token
    # sentences, a template without rules, one distinct id row, no rows
    @example(seed=1, rules=[[(-1, 1), (0, 1)], [(0, 3)]], lengths=[0, 4, 1],
             n_features=5, n_labels=3)
    @example(seed=2, rules=[], lengths=[2, 0, 1], n_features=1, n_labels=2)
    @example(seed=3, rules=[[(0, 1)], [(1, 2)]], lengths=[5, 3],
             n_features=1, n_labels=2)
    @example(seed=4, rules=[[(2, 6)]], lengths=[0, 0], n_features=3,
             n_labels=1)
    def test_grouped_matches_per_position(self, seed, rules, lengths,
                                          n_features, n_labels):
        rng = np.random.default_rng(seed)
        # few features, so id rows repeat
        ids = rng.integers(0, n_features, (sum(lengths), len(rules)),
                           dtype=np.int32)
        rows = crf.TimeMajor(np.array(lengths, dtype=np.intp)).rows
        layout = crf.NodeLayout.grouped(ids, rows,
                                        crf.rule_groups(template_of(rules)))
        w_node = rng.normal(0.0, 1.0, (n_features, n_labels))
        want = node_scores(w_node, ids[rows])
        # relative to the summed magnitudes, as signed terms may cancel
        scale = node_scores(np.abs(w_node), ids[rows])
        for got in (crf.instance_lattice(w_node, layout),
                    crf.instance_lattice(w_node,
                                         crf.NodeLayout.per_position(
                                             ids[rows]))):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * scale)
        marg = rng.random((len(rows), n_labels))
        got = np.full((n_features, n_labels), np.nan)
        crf.node_gradient(marg, layout, got)
        np.testing.assert_allclose(
            got, node_gradient(marg, ids[rows], n_features), rtol=1e-12,
            atol=0.0)


class TestScaledForwardBackward:
    """The scaled (probability-space) path against the per-sentence
    log-space oracle, and its domain of transition weights."""

    def test_extreme_weights_on_long_sentences(self):
        # weights x50 spread node rows and transitions over hundreds of
        # nats, and 30+ steps compound the scales
        rng = np.random.default_rng(69)
        alphabet = toy_alphabet(8, 3, transitions=True)
        instances = []
        for n in (30, 34, 41, 1, 37):
            feats = [sorted(rng.choice(8, size=2, replace=False).tolist())
                     for _ in range(n)]
            instances.append(Instance(feats, rng.integers(0, 3, n).tolist()))
        w = 50.0 * rng.normal(0.0, 1.0, size=alphabet.dim)
        w_node, w_trans = alphabet.split(w)
        assert 150 < np.ptp(w_trans) <= _SCALED_RANGE
        assert_batched_matches_reference(instances, alphabet, w)

        objective = batched(instances, alphabet, C=0.7)
        node = crf.instance_lattice(w_node, objective.layout)
        en = np.exp(node - node.max(axis=1, keepdims=True))
        alpha, c = objective._forward(en, np.exp(w_trans - w_trans.max()))
        assert np.all(c >= np.finfo(float).tiny)  # no scale 0 or subnormal
        assert c.min() < 1e-50  # while the case drives some far below 1
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=1e-12)

    @staticmethod
    def spread_case(span):
        """Toy instances and weights whose transitions span ``span``."""
        rng = np.random.default_rng(7)
        alphabet = toy_alphabet(6, 3, transitions=True)
        instances = toy_instances(rng, alphabet, 9, 12)
        w = rng.normal(0.0, 1.0, size=alphabet.dim)
        _, w_trans = alphabet.split(w)
        w_trans[:] = rng.permutation(np.linspace(-span / 2, span / 2, 9)
                                     ).reshape(3, 3)
        return instances, alphabet, w

    def test_inside_the_range_matches_reference(self):
        instances, alphabet, w = self.spread_case(_SCALED_RANGE - 1.0)
        assert_batched_matches_reference(instances, alphabet, w)

    def test_past_the_range_is_outside_the_domain(self):
        instances, alphabet, w = self.spread_case(_SCALED_RANGE + 1.0)
        assert batched(instances, alphabet, C=0.7)(w) == (math.inf, None)

    def test_training_rejects_every_trial_past_the_range(self, monkeypatch):
        # the golden-digest training: its first line search steps along
        # the raw gradient and tries transition spreads past the range
        calls = []  # per objective call: [past the range, value, accepted]
        objective_call = BatchedObjective.__call__

        def record(self, weights):
            _, w_trans = self.alphabet.split(weights)
            value, gradient = objective_call(self, weights)
            call = [np.ptp(w_trans) > _SCALED_RANGE, value, False]
            calls.append(call)

            def accepted():  # minimize takes only accepted gradients
                call[2] = True
                return gradient()
            return value, accepted

        monkeypatch.setattr(BatchedObjective, "__call__", record)
        docs = synth.generate(synth.default_profile(), 2024, 30)
        model = train(docs[:20], default_template(transitions=True),
                      get_scheme("IOBW"), "PROBLEM",
                      TrainerConfig(max_iterations=15))
        past = [(value, accepted) for is_past, value, accepted in calls
                if is_past]
        assert past, "no trial went past the range"
        assert all(value == math.inf and not accepted
                   for value, accepted in past)
        assert sum(call[2] for call in calls) == 16  # x0 and 15 iterations
        _, w_trans = model.alphabet.split(model.weights)
        assert np.ptp(w_trans) <= _SCALED_RANGE

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_labels=st.integers(1, 4),
           n_rules=st.integers(0, 3), transitions=st.booleans(),
           lengths=st.lists(st.integers(0, 9), min_size=1, max_size=7)
           .filter(any),
           scale=st.sampled_from([0.1, 1.0, 8.0]))
    def test_random_batches_match_reference(self, seed, n_labels, n_rules,
                                            transitions, lengths, scale):
        # 0- and 1-token sentences, and templates with no rules at all
        rng = np.random.default_rng(seed)
        alphabet = toy_alphabet(n_rules and n_rules + 2, n_labels, transitions)
        instances = [
            Instance([sorted(rng.choice(alphabet.n_features, size=n_rules,
                                        replace=False).tolist())
                      for _ in range(n)],
                     rng.integers(0, n_labels, n).tolist())
            for n in lengths]
        w = rng.normal(0.0, scale, size=alphabet.dim)
        assert_batched_matches_reference(instances, alphabet, w)


# --- instances from real sentences -------------------------------------------

def separable_docs(n_copies=6):
    docs = []
    for i in range(n_copies):
        s0 = build_sentence(("the", "DT", "B-NP"), ("fever", "NN", "I-NP"),
                            ("subsided", "VB", "O"))
        s1 = build_sentence(("an", "DT", "B-NP"), ("ecg", "NN", "I-NP"),
                            ("was", "VB", "O"), ("ordered", "VB", "O"))
        docs.append(build_doc(f"d{i}", [s0, s1],
                              [Span(0, 0, 2, "PROBLEM"), Span(1, 1, 2, "TEST")]))
    return docs


class TestInstances:
    def test_gold_labels_follow_scheme_encoding(self):
        docs = separable_docs(1)
        scheme = get_scheme("IOB")
        gold = make_instances(docs, scheme, "PROBLEM")
        rows = encode_document(docs[0], scheme, "PROBLEM")
        label_id = {lab: y for y, lab in enumerate(scheme.labels)}
        assert gold.tolist() == [label_id[lab] for row in rows for lab in row]

    def test_every_position_gets_all_template_rules(self):
        docs = separable_docs(1)
        template = default_template()
        encoded = build_alphabet(docs, template)
        tokens = sum(len(s.tokens) for s in docs[0].sentences)
        assert encoded.ids.shape == (tokens, len(template.rules))
        assert encoded.lengths.tolist() == [3, 4]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 3),
           transitions=st.booleans())
    def test_matrix_maps_back_to_expanded_features(self, seed, n_docs,
                                                   transitions):
        docs = synth.generate(synth.default_profile(), seed, n_docs)
        template = default_template(transitions)
        encoded = build_alphabet(docs, template)
        sentences = [s for d in docs for s in d.sentences]
        tokens = sum(len(s.tokens) for s in sentences)
        assert encoded.ids.shape == (tokens, len(template.rules))
        assert encoded.lengths.tolist() == [len(s.tokens) for s in sentences]
        strings = list(encoded.feat_index)
        at = 0
        for sentence in sentences:
            rows = encoded.ids[at:at + len(sentence.tokens)]
            assert [[strings[i] for i in row] for row in rows] == \
                expand_sentence(template, feature_table(sentence))
            at += len(sentence.tokens)
        # ids are numbered by first occurrence in row-major order
        flat = encoded.ids.ravel()
        _, first = np.unique(flat, return_index=True)
        assert flat[np.sort(first)].tolist() == list(range(len(strings)))

    def test_interning_and_lookup(self, trained):
        index, ids = intern(["b", "a", "b", "c", "a", "b"])
        alphabet = FeatureAlphabet(("O", "I"), False, index)
        # a repeat keeps its first id; ids run 0..n-1 by first occurrence
        assert ids.tolist() == [0, 1, 0, 2, 1, 0]
        assert alphabet.feat_index == {"b": 0, "a": 1, "c": 2}
        assert list(alphabet.feat_index) == ["b", "a", "c"]
        assert alphabet.dim == 6
        # looking up an unseen string, or tagging one, never grows a
        # trained or loaded alphabet
        _, model = trained
        clone = load_model(save_model(model))
        doc = Document("u", [build_sentence(("zygoma", "NN", "B-NP"))], [])
        for m in (model, clone):
            a = m.alphabet
            size = (a.n_features, a.dim)
            assert a.feat_index.get("U00=zygoma") is None
            with pytest.raises(KeyError):
                a.feat_index["U00=zygoma"]
            m.tag(doc)
            assert "U00=zygoma" not in a.feat_index
            assert (a.n_features, a.dim) == size

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            build_alphabet([build_doc("d0", [])], default_template())

    def test_empty_sentences_are_skipped(self):
        docs = [build_doc("d0", [Sentence([]),
                                 build_sentence(("pain", "NN", "B-NP"))],
                          [Span(1, 0, 1, "PROBLEM")])]
        scheme = get_scheme("IOB")
        template = default_template()
        encoded = build_alphabet(docs, template)
        assert encoded.lengths.tolist() == [0, 1]
        assert encoded.ids.shape == (1, len(template.rules))
        gold = make_instances(docs, scheme, "PROBLEM")
        assert gold.tolist() == [scheme.labels.index("B")]


class TestFoldEncoding:
    """A fold of a shared encoding against its documents encoded alone."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(2, 4),
           transitions=st.booleans(), scheme=st.sampled_from(SCHEME_NAMES),
           data=st.data())
    def test_fold_matches_its_documents_encoded_alone(
            self, seed, n_docs, transitions, scheme, data):
        docs = synth.generate(synth.default_profile(), seed, n_docs)
        docs[0].sentences.append(Sentence([]))
        docs.insert(data.draw(st.integers(0, n_docs)), Document("none", []))
        test_idx = sorted(data.draw(st.sets(st.integers(0, n_docs))))
        train_docs = [d for i, d in enumerate(docs) if i not in test_idx]
        test_docs = [docs[i] for i in test_idx]
        assume(any(s.tokens for d in train_docs for s in d.sentences))
        template = default_template(transitions)
        train_part, test_part = build_alphabet(docs, template).fold(test_idx)

        alone = build_alphabet(train_docs, template)
        assert train_part.ids.dtype == test_part.ids.dtype == np.int32
        assert list(train_part.feat_index) == list(alone.feat_index)
        np.testing.assert_array_equal(train_part.ids, alone.ids)
        np.testing.assert_array_equal(train_part.lengths, alone.lengths)
        assert train_part.docs == train_docs
        assert test_part.docs == test_docs
        assert test_part.feat_index is train_part.feat_index
        sentences = [s for d in test_docs for s in d.sentences]
        want = [alone.feat_index.get(f, -1) for s in sentences
                for position in expand_sentence(template, feature_table(s))
                for f in position]
        assert test_part.ids.ravel().tolist() == want
        assert test_part.lengths.tolist() == [len(s.tokens) for s in sentences]

        config = TrainerConfig(max_iterations=4)
        shared = train(train_part, template, get_scheme(scheme), "PROBLEM",
                       config)
        model = train(train_docs, template, get_scheme(scheme), "PROBLEM",
                      config)
        assert_same_text(save_model(shared), save_model(model))
        rows = shared._decode(test_part.ids, test_part.lengths)
        assert by_document(rows, test_docs) == [model.tag(d) for d in test_docs]

    def test_training_rejects_an_encoding_of_another_template(self):
        docs = separable_docs(2)
        encoded = build_alphabet(docs, parse_template("U00:%x[0,1]\n"))
        other = parse_template("U00:%x[0,1]\nU01:%x[-1,1]\n")
        with pytest.raises(ConfigError, match="another template"):
            train(encoded, other, get_scheme("IOB"), "PROBLEM")
        # the rules decide; a template that differs only in its text or
        # its transitions flag expands to the same features
        model = train(encoded, parse_template("# unigram\nU00:%x[0,1]\nB\n"),
                      get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(max_iterations=2))
        assert model.alphabet.feat_index is encoded.feat_index


# cells that read like feature syntax: a value holding "=" or "/", and a
# surface that spells a feature string
_RULE_SYNTAX = Sentence([Token("a=b", "U00=c", "x/y", "="),
                         Token("U00=c", "a/b", "=", "B/I"),
                         Token("c", "c", "a=b", "x/y")])


class TestIntegerKeys:
    """The integer-key encoder against the string oracle: the same
    ``feat_index`` order and id matrix from ``build_alphabet``, and the
    same ids into ``CrfModel._decode`` from ``tag``."""

    @staticmethod
    def decoded_ids(model, docs):
        """The id matrices ``tag_documents`` hands to ``_decode``."""
        seen = []

        def record(self, ids, lengths):
            seen.append(ids)
            return [[] for _ in lengths]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(CrfModel, "_decode", record)
            list(model.tag_documents(docs))
        return np.concatenate(seen) if seen else None

    def check(self, docs, template, held_out):
        # cells that hold "=" and "/", and a surface that spells a feature,
        # in training and held out; the held-out copy adds unseen values.
        # Added at the ends that keep the callers' groups: the first
        # training group, and the last held-out one
        docs = [*docs, build_doc("syntax", [_RULE_SYNTAX])]
        held_out = [build_doc("syntax", [
            _RULE_SYNTAX, Sentence([Token("a=b", "U00=d", "e/=", "/")])]),
            *held_out]
        feat_index, want = string_alphabet(docs, template)
        encoded = build_alphabet(docs, template)
        assert list(encoded.feat_index) == list(feat_index)
        assert encoded.ids.dtype == np.int32
        np.testing.assert_array_equal(encoded.ids, want)
        # tagging held-out documents: unseen strings give -1
        alphabet = FeatureAlphabet(("O", "I"), template.transitions,
                                   encoded.feat_index)
        model = CrfModel(alphabet, np.zeros(alphabet.dim), get_scheme("IO"),
                         template, "PROBLEM")
        got = self.decoded_ids(model, held_out)
        sentences = [s for d in held_out for s in d.sentences]
        np.testing.assert_array_equal(
            got, string_ids(template, sentences, encoded.feat_index))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 4),
           rules=st.lists(st.lists(st.tuples(st.integers(-4, 4),
                                             st.integers(1, 6)),
                                   min_size=1, max_size=4), max_size=4),
           transitions=st.booleans(),
           group=st.sampled_from([1, 45, 10**6]), data=st.data())
    def test_random_templates_match_the_string_oracle(
            self, seed, n_docs, rules, transitions, group, data):
        text = "".join(
            f"U{i}:" + "/".join(f"%x[{row},{col}]" for row, col in cells)
            + "\n" for i, cells in enumerate(rules))
        template = parse_template(text + ("B\n" if transitions else ""))
        docs = synth.generate(synth.default_profile(), seed, n_docs + 2)
        docs[0].sentences.append(Sentence([]))
        for _ in range(2):
            docs.insert(data.draw(st.integers(0, len(docs))),
                        Document("none", []))
        train_docs, held_out = docs[:n_docs + 1], docs[n_docs + 1:]
        held_out.append(Document("empty", [Sentence([])]))  # a last group
        assume(any(d.sentences for d in train_docs))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(crf, "_TAG_POSITIONS", group)
            self.check(train_docs, template, held_out)

    def test_keys_that_join_to_one_string_share_its_id(self):
        # ("a/b", "c") and ("a", "b/c") are two keys of one string
        template = parse_template("U0:%x[0,1]/%x[0,3]\n")
        sentences = [build_sentence(("a/b", "c", "O"), ("d", "e", "O")),
                     build_sentence(("a", "b/c", "O"), ("d", "e", "O"))]
        docs = [build_doc("d0", sentences, [Span(0, 1, 2, "PROBLEM")])]
        encoded = build_alphabet(docs, template)
        assert list(encoded.feat_index) == ["U0=a/b/c", "U0=d/e"]
        assert encoded.ids.ravel().tolist() == [0, 1, 0, 1]
        self.check(docs, template, docs)
        self.check_round_trip(docs, template)

    def test_a_surface_that_spells_a_sentinel_shares_its_id(self):
        template = parse_template("U0:%x[-1,1]\n")
        sentences = [build_sentence(("_B-1", "NN", "O"), ("pain", "NN", "O")),
                     build_sentence(("x", "NN", "O"))]
        docs = [build_doc("d0", sentences, [Span(0, 1, 2, "PROBLEM")])]
        encoded = build_alphabet(docs, template)
        # the sentinel before each sentence and the surface before "pain"
        assert list(encoded.feat_index) == ["U0=_B-1"]
        assert encoded.ids.ravel().tolist() == [0, 0, 0]
        self.check(docs, template, docs)
        self.check_round_trip(docs, template)

    def test_keys_past_int64_are_compressed(self):
        # a 9-cell rule over more than 130 distinct surfaces in one group:
        # the product of its columns' code counts passes 2**63
        template = parse_template(
            "U0:" + "/".join(f"%x[{r},1]" for r in range(-4, 5)) + "\n")
        docs = synth.generate(synth.default_profile(), 3, 60)
        group = [s for d in docs[:50] for s in d.sentences]
        codes = len(crf.feature_table(group).values[1])
        assert sum(map(len, group)) <= crf._TAG_POSITIONS
        assert codes > 130 and codes ** 9 > 2 ** 63
        self.check(docs[:50], template, docs[50:])

    def test_kind_and_case_once_per_surface_per_call(self, monkeypatch):
        # groups of about 40 tokens, yet each distinct surface, and each
        # sentinel (the surface column codes them first), is classified
        # once per ``build_alphabet`` call and once per ``tag_documents``
        docs = synth.generate(synth.default_profile(), 5, 12)
        template = default_template(transitions=True)
        model = train(docs, template, get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(max_iterations=2))
        calls = Counter()
        for name in ("token_kind", "token_case"):
            def counting(surface, name=name, shape=getattr(features, name)):
                calls[name] += 1
                return shape(surface)
            monkeypatch.setattr(features, name, counting)
        monkeypatch.setattr(crf, "_TAG_POSITIONS", 40)
        assert len(list(crf._groups(docs, lambda d: sum(
            map(len, d.sentences))))) > 5
        surfaces = len({t.surface for d in docs for s in d.sentences
                        for t in s.tokens} | set(SENTINELS))
        want = Counter(token_kind=surfaces, token_case=surfaces)
        build_alphabet(docs, template)
        assert calls == want
        calls.clear()
        list(model.tag_documents(docs))
        assert calls == want

    @pytest.mark.parametrize("template", [
        "U00:%x[0,1]\nU01:%x[-1,2]\nU02:%x[1,3]\nU03:%x[0,4]\n",
        "U00:%x[0,1]/%x[0,2]\nU01:%x[-1,3]/%x[1,4]\nU02:%x[0,1]\n",
        DEFAULT_TEMPLATE_TEXT])
    def test_cells_that_hold_rule_syntax(self, template):
        # one-cell rules look values up and multi-cell rules strings, so
        # values holding "=" or "/" must name the same features both ways
        template = parse_template(template)
        docs = [build_doc("d0", [_RULE_SYNTAX, _RULE_SYNTAX],
                          [Span(0, 0, 2, "PROBLEM")])]
        encoded = build_alphabet(docs, template)
        assert any("=" in f.partition("=")[2] for f in encoded.feat_index)
        self.check(docs, template, docs)
        self.check_round_trip(docs, template)

    def test_strings_of_rules_outside_the_template_are_never_found(self):
        # an in-memory model may hold strings that no rule of its template
        # builds; tagging finds only the template's own features
        docs = synth.generate(synth.default_profile(), 4, 4)
        template = parse_template("U00:%x[0,1]\nU01:%x[0,1]/%x[0,3]\n")
        encoded = build_alphabet(docs[:2], template)
        surface = docs[2].sentences[0].tokens[0].surface
        strays = [f"U05={surface}", f"U99={surface}", "U00", "U01",
                  "Z9=foo", f"U0={surface}"]
        feat_index, _ = intern([*encoded.feat_index, *strays])
        alphabet = FeatureAlphabet(("O", "I"), False, feat_index)
        model = CrfModel(alphabet, np.zeros(alphabet.dim), get_scheme("IO"),
                         template, "PROBLEM")
        assert model.rule_values[1] is None
        assert sum(map(len, model.rule_values[:1])) == sum(
            f.startswith("U00=") for f in encoded.feat_index)
        sentences = [s for d in docs[2:] for s in d.sentences]
        got = self.decoded_ids(model, docs[2:])
        np.testing.assert_array_equal(
            got, string_ids(template, sentences, encoded.feat_index))
        np.testing.assert_array_equal(
            got, string_ids(template, sentences, feat_index))

    def test_only_multi_cell_rules_build_strings(self, monkeypatch):
        # with the default template, only the conjunction U30 builds
        # feature strings; the other 30 rules look their values up
        docs = synth.generate(synth.default_profile(), 6, 6)
        template = default_template(transitions=True)
        model = train(docs[:3], template, get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(max_iterations=2))
        built = Counter()
        strings = features.FeatureTable.strings

        def counting(self, rule, positions):
            built[rule.id] += 1
            return strings(self, rule, positions)

        monkeypatch.setattr(features.FeatureTable, "strings", counting)
        for doc in docs[3:]:
            model.tag(doc)
        assert built == Counter(U30=3)

    @staticmethod
    def check_round_trip(docs, template):
        """train -> save_model -> load_model -> tag gives the trained
        model's labels and the ids of the strings it numbered."""
        model = train(docs, template, get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(max_iterations=10))
        clone = load_model(save_model(model))
        assert list(clone.alphabet.feat_index) == list(
            model.alphabet.feat_index)
        for doc in docs:
            assert clone.tag(doc) == model.tag(doc)
        np.testing.assert_array_equal(
            TestIntegerKeys.decoded_ids(clone, docs),
            build_alphabet(docs, template).ids)


# --- training ----------------------------------------------------------------

@pytest.fixture(scope="module")
def trained():
    docs = separable_docs()
    model = train(docs, default_template(transitions=True), get_scheme("IOB"),
                  "PROBLEM", TrainerConfig(max_iterations=200))
    return docs, model


class TestTraining:
    def test_perfect_fit_on_separable_corpus(self, trained):
        docs, model = trained
        for doc in docs:
            assert model.tag(doc) == encode_document(doc, get_scheme("IOB"),
                                                     "PROBLEM")

    def test_objective_log_decreases_monotonically(self, trained):
        _, model = trained
        values = [entry[1] for entry in model.log.entries]
        assert values, "training should record an iteration log"
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_stronger_regularization_shrinks_weights(self):
        docs = separable_docs(3)
        template = default_template(transitions=True)
        small = train(docs, template, get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(C=0.01, max_iterations=100))
        large = train(docs, template, get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(C=100.0, max_iterations=100))
        assert (np.linalg.norm(small.weights)
                < np.linalg.norm(large.weights))

    def test_same_seedless_training_is_deterministic(self):
        docs = separable_docs(2)
        template = default_template(transitions=True)
        a = train(docs, template, get_scheme("IOB"), "PROBLEM",
                  TrainerConfig(max_iterations=50))
        b = train(docs, template, get_scheme("IOB"), "PROBLEM",
                  TrainerConfig(max_iterations=50))
        assert np.array_equal(a.weights, b.weights)

    def test_tagging_tolerates_unseen_words(self, trained):
        _, model = trained
        sentence = build_sentence(("the", "DT", "B-NP"),
                                  ("zygoma", "NN", "I-NP"),
                                  ("hurts", "VB", "O"))
        [labels] = model.tag(Document("d", [sentence], []))
        assert len(labels) == 3
        assert set(labels) <= set(get_scheme("IOB").labels)

    def test_tagging_empty_sentence(self, trained):
        _, model = trained
        assert model.tag(Document("d", [Sentence([])], [])) == [[]]

    def test_no_trainable_sentences_rejected(self):
        docs = [build_doc("d0", [Sentence([])])]
        with pytest.raises(TrainingError):
            train(docs, default_template(), get_scheme("IO"), "PROBLEM")

    @pytest.mark.parametrize("kwargs", [
        {"C": 0.0}, {"C": -1.0}, {"eta": 0.0}, {"max_iterations": 0},
        {"C": math.nan}, {"C": math.inf}, {"eta": math.nan}, {"eta": math.inf},
        {"max_iterations": 2.5}, {"max_iterations": 10.0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainerConfig(**kwargs)

    @pytest.mark.parametrize("event_type",
                             ["NOPE X", "", "B-PROBLEM", "PROBLEM\n"])
    def test_bad_event_type_rejected(self, event_type):
        # a span of this type could not exist, and a model of it would
        # tag into a column file that cannot be read back
        with pytest.raises(ConfigError, match="bad event type"):
            train(separable_docs(1), default_template(), get_scheme("IOB"),
                  event_type, TrainerConfig(max_iterations=5))


# --- serialization ------------------------------------------------------------

# feature strings hold any printable text; a tab or a line break would
# split a weight row
_FEATURE_STRINGS = st.text(
    st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")),
    min_size=1, max_size=10)
_AWKWARD_WEIGHTS = (-0.0, 5e-324, 1e308, -1e308)


def weight_rows(text: str) -> tuple[list[str], int]:
    """(lines of a model text, index of its first weight row)."""
    lines = text.splitlines()
    return lines, next(i for i, line in enumerate(lines)
                       if line.startswith("features = ")) + 1


def load_lines(lines: list[str]):
    return load_model("\n".join(lines) + "\n")


class TestModelFile:
    def test_round_trip_is_exact(self, trained):
        docs, model = trained
        text = save_model(model)
        clone = load_model(text)
        assert np.array_equal(clone.weights, model.weights)
        assert clone.scheme.name == model.scheme.name
        assert clone.event_type == model.event_type
        assert list(clone.alphabet.feat_index) == \
            list(model.alphabet.feat_index)
        for doc in docs:
            assert clone.tag(doc) == model.tag(doc)

    def test_round_trip_is_byte_stable(self, trained):
        _, model = trained
        text = save_model(model)
        assert_same_text(save_model(load_model(text)), text)

    def test_every_buildable_cell_round_trips(self):
        # \x85, \x0b, \x0c and \u2028 end no model line, so a model of
        # cells holding them loads; \t, \n and \r would split a weight
        # row, and no Token holds them
        odd = ("\x85", "\x0b", "\x0c", "\u2028")
        docs = [build_doc(f"d{i}", [Sentence([
            Token("the", f"th{ch}e", f"D{ch}T", f"B{ch}NP"),
            Token("fever", f"fev{ch}er", f"N{ch}N", f"I{ch}NP"),
            Token("subsided", "subsid", f"V{ch}B", "O")])],
            [Span(0, 0, 2, "PROBLEM")]) for i, ch in enumerate(odd)]
        model = train(docs, default_template(transitions=True),
                      get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(max_iterations=20))
        text = save_model(model)
        assert all(ch in text for ch in odd)
        clone = load_model(text)
        assert np.array_equal(clone.weights, model.weights)
        assert_same_text(save_model(clone), text)
        for ch, cell in itertools.product("\t\n\r", range(1, 4)):
            cells = ["a", "a", "NN", "O"]
            cells[cell] = f"x{ch}y"
            with pytest.raises(ValueError, match="cell"):
                Token(*cells)

    def test_form_feed_template_line_round_trips(self):
        # str.splitlines breaks at \x0c; only \n, \r\n and \r end a line
        docs = separable_docs()
        template = parse_template("U00:%x[0,1]\n\x0c\nU01:%x[0,2]\n")
        model = train(docs, template, get_scheme("IOB"), "PROBLEM",
                      TrainerConfig(max_iterations=20))
        text = save_model(model)
        clone = load_model(text)
        assert clone.template.text == template.text
        assert np.array_equal(clone.weights, model.weights)
        assert_same_text(save_model(clone), text)
        for doc in docs:
            assert clone.tag(doc) == model.tag(doc)

    def test_untrained_weights_round_trip_verbatim(self):
        # exercises float.hex fidelity on awkward values
        scheme = get_scheme("IO")
        alphabet = FeatureAlphabet(scheme.labels, True,
                                   intern(["U00=alpha", "U00=beta"])[0])
        weights = np.array([0.1, -1e-17, 3.141592653589793, 2**-40,
                            1e300, -7.0, 0.3333333333333333, 42.0])
        model = CrfModel(alphabet, weights, scheme,
                         parse_template("U00:%x[0,1]\nB\n"), "TEST")
        clone = load_model(save_model(model))
        assert np.array_equal(clone.weights, weights)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), scheme_name=st.sampled_from(SCHEME_NAMES),
           transitions=st.booleans(),
           features=st.lists(_FEATURE_STRINGS, min_size=2, max_size=6,
                             unique=True))
    def test_save_load_save_is_byte_identical(self, data, scheme_name,
                                              transitions, features):
        # any value text, behind the id of the template's one rule
        features = ["U00=" + value for value in features]
        scheme = get_scheme(scheme_name)
        alphabet = FeatureAlphabet(scheme.labels, transitions,
                                   intern(features)[0])
        # the awkward values first, then arbitrary finite doubles, shuffled
        drawn = data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=alphabet.dim - len(_AWKWARD_WEIGHTS),
            max_size=alphabet.dim - len(_AWKWARD_WEIGHTS)))
        weights = np.array(data.draw(st.permutations(
            list(_AWKWARD_WEIGHTS) + drawn)))
        template = parse_template("U00:%x[0,1]\nB\n" if transitions
                                  else "U00:%x[0,1]\n")
        text = save_model(CrfModel(alphabet, weights, scheme, template, "TEST"))
        clone = load_model(text)
        assert clone.weights.tobytes() == weights.tobytes()  # -0.0 included
        assert list(clone.alphabet.feat_index) == features
        assert_same_text(save_model(clone), text)

    def test_rows_hold_a_feature_and_its_hex_weights(self):
        # one row per feature, then one per previous label: its weights
        # into each label, in label order
        scheme = get_scheme("IO")
        alphabet = FeatureAlphabet(scheme.labels, True,
                                   intern(["U00=alpha", "U00=beta"])[0])
        weights = np.array([0.5, -1.0, 3.0, -0.0, 2.0**-997, 2.0, 0.1, -7.5])
        model = CrfModel(alphabet, weights, scheme,
                         parse_template("U00:%x[0,1]\nB\n"), "TEST")
        lines, first = weight_rows(save_model(model))
        assert lines[0] == "spantag-crf v2"
        assert lines[first - 1:] == [
            "features = 2",
            "U00=alpha\t0x1.0000000000000p-1\t-0x1.0000000000000p+0",
            "U00=beta\t0x1.8000000000000p+1\t-0x0.0p+0",
            "_TRANS_O\t0x1.0000000000000p-997\t0x1.0000000000000p+1",
            "_TRANS_I\t0x1.999999999999ap-4\t-0x1.e000000000000p+2"]

    def test_rejects_unknown_format(self):
        with pytest.raises(ParseError) as exc:
            load_model("something else\n")
        assert exc.value.line == 1

    def test_rejects_a_version_1_file(self):
        # the earlier format: one "index feature label weight" row per
        # weight, in repr; it is read by no reader and must be retrained
        text = ("spantag-crf v1\nscheme = IO\nevent_type = TEST\n"
                "transitions = false\nlabels = O I\ntemplate_lines = 1\n"
                "U00:%x[0,1]\nfeatures = 1\n"
                "0\tU00=alpha\tO\t0.5\n1\tU00=alpha\tI\t-1.0\n")
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 1
        assert str(exc.value) == (
            "line 1: unsupported model format 'spantag-crf v1' "
            "(expected 'spantag-crf v2')")

    def test_rejects_missing_header(self, trained):
        _, model = trained
        text = save_model(model).replace("scheme = ", "schema = ", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 2

    def test_rejects_label_scheme_mismatch(self, trained):
        _, model = trained
        text = save_model(model).replace("labels = O B I", "labels = O I B", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 5

    def test_rejects_transition_flag_disagreement(self, trained):
        _, model = trained
        text = save_model(model).replace("transitions = true",
                                         "transitions = false", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 4

    def test_rejects_bad_weight_value(self, trained):
        _, model = trained
        lines = save_model(model).splitlines()
        cells = lines[-1].split("\t")
        cells[-1] = "not-a-number"
        lines[-1] = "\t".join(cells)
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert "bad weight row" in str(exc.value)
        assert "not a hexadecimal float" in str(exc.value)
        assert exc.value.line == len(lines)

    @pytest.mark.parametrize("value", ["1.5", "10", "-0.25"])
    def test_rejects_decimal_weight(self, trained, value):
        # float.fromhex would read "1.5" as 1.3125 and "10" as 16.0
        _, model = trained
        lines, first = weight_rows(save_model(model))
        cells = lines[first + 2].split("\t")
        cells[2] = value
        lines[first + 2] = "\t".join(cells)
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == first + 3
        assert str(exc.value) == (f"line {first + 3}: bad weight row: decimal "
                                  f"weight {value!r}; weights are written by "
                                  "float.hex")

    @pytest.mark.parametrize("cells", [1, 3, 5])
    def test_rejects_row_of_wrong_width(self, trained, cells):
        _, model = trained  # IOB: a feature and three weights
        lines, first = weight_rows(save_model(model))
        lines[first + 1] = "\t".join(lines[first + 1].split("\t")[:cells]
                                     + ["0x0.0p+0"] * (cells - 4))
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == first + 2
        assert f"expected 4 fields, got {cells}" in str(exc.value)

    def test_reordered_feature_rows_tag_the_same(self, trained):
        # a feature's weights travel with its name: reversed feature rows
        # number the features the other way round, and tag alike
        docs, model = trained
        lines, first = weight_rows(save_model(model))
        n = model.alphabet.n_features
        lines[first:first + n] = reversed(lines[first:first + n])
        clone = load_lines(lines)
        assert list(clone.alphabet.feat_index) == \
            list(reversed(model.alphabet.feat_index))
        w_node, w_trans = model.alphabet.split(model.weights)
        c_node, c_trans = clone.alphabet.split(clone.weights)
        assert np.array_equal(c_node, w_node[::-1])
        assert np.array_equal(c_trans, w_trans)
        held_out = synth.generate(synth.default_profile(), 3, 4)
        for doc in docs + held_out:
            assert clone.tag(doc) == model.tag(doc)

    @pytest.mark.parametrize("keep", [1, 2, 3, 4, 5, 6, 7, 20, 38])
    def test_rejects_file_cut_inside_header(self, trained, keep):
        _, model = trained
        lines = save_model(model).splitlines()
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines[:keep]) + "\n")
        assert exc.value.line == keep + 1

    def test_rejects_unknown_transitions_value(self):
        # without a "B" template line, "yes" would not disagree with the
        # template; the flag itself must be rejected
        scheme = get_scheme("IO")
        alphabet = FeatureAlphabet(scheme.labels, False,
                                   intern(["U00=alpha"])[0])
        model = CrfModel(alphabet, np.zeros(alphabet.dim), scheme,
                         parse_template("U00:%x[0,1]\n"), "TEST")
        text = save_model(model).replace("transitions = false",
                                         "transitions = yes", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 4
        assert "true or false" in str(exc.value)

    @pytest.mark.parametrize("event_type", ["NOPE X", ""])
    def test_rejects_bad_event_type(self, trained, event_type):
        _, model = trained
        text = save_model(model).replace("event_type = PROBLEM",
                                         f"event_type = {event_type}", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 3
        assert "bad event type" in str(exc.value)

    def test_rejects_unknown_scheme(self, trained):
        _, model = trained
        text = save_model(model).replace("scheme = IOB", "scheme = IOX", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 2
        assert "unknown scheme" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "1e999", "-inf", "0x1p+1024",
                                       "inf", "-0xinf"])
    def test_rejects_non_finite_weight(self, trained, value):
        # float.fromhex reads "inf" and "nan"; a hex weight cannot spell
        # them, and one past the largest double overflows
        _, model = trained
        lines, first = weight_rows(save_model(model))
        cells = lines[first].split("\t")
        cells[1] = value
        lines[first] = "\t".join(cells)
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == first + 1
        if value == "-0xinf":
            assert "not a hexadecimal float" in str(exc.value)
        else:
            assert "non-finite" in str(exc.value)

    def test_rejects_repeated_row(self, trained):
        # a repeated transition row in place of the next one would give
        # two labels one label's outgoing weights
        _, model = trained
        lines = save_model(model).splitlines()
        lines[-1] = lines[-2]
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == len(lines)
        assert str(exc.value) == (f"line {len(lines)}: expected transition "
                                  "row '_TRANS_I', not '_TRANS_B'")

    @pytest.mark.parametrize("names", [
        ("_TRANS_B", "_TRANS_O", "_TRANS_I"),  # reordered
        ("_TRANS_O", "_TRANS_X", "_TRANS_I"),  # misnamed
        ("_TRANS_O", "_TRANS_B", "U00=_B-2"),  # a feature in its place
    ])
    def test_rejects_misnamed_or_reordered_transition_rows(self, trained,
                                                           names):
        _, model = trained  # IOB: rows _TRANS_O, _TRANS_B, _TRANS_I
        lines = save_model(model).splitlines()
        assert [line.split("\t")[0] for line in lines[-3:]] == \
            ["_TRANS_O", "_TRANS_B", "_TRANS_I"]
        for at, name in zip(range(len(lines) - 3, len(lines)), names):
            lines[at] = "\t".join([name] + lines[at].split("\t")[1:])
        bad = next(i for i, name in enumerate(names)
                   if name != ("_TRANS_O", "_TRANS_B", "_TRANS_I")[i])
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == len(lines) - 2 + bad
        assert "expected transition row" in str(exc.value)

    @pytest.mark.parametrize("transitions", [False, True])
    def test_rejects_repeated_feature(self, transitions):
        # the last feature's row renamed to the first feature: read on,
        # the two rows would merge into one feature
        scheme = get_scheme("IO")
        index, _ = intern(["U00=alpha", "U00=beta", "U00=gamma"])
        alphabet = FeatureAlphabet(scheme.labels, transitions, index)
        template = "U00:%x[0,1]\n" + ("B\n" if transitions else "")
        model = CrfModel(alphabet, np.zeros(alphabet.dim), scheme,
                         parse_template(template), "TEST")
        lines, first = weight_rows(save_model(model))
        assert lines[first + 2].startswith("U00=gamma\t")
        lines[first + 2] = lines[first + 2].replace("U00=gamma", "U00=alpha")
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == first + 3
        assert str(exc.value) == (f"line {first + 3}: feature 'U00=alpha' "
                                  f"repeats line {first + 1}")

    @pytest.mark.parametrize("name", ["Z9=foo", "U99=pain", "U00", "pain"])
    def test_rejects_feature_of_no_template_rule(self, trained, name):
        # the second and fourth features renamed: the error names the
        # second at its row
        _, model = trained
        lines, first = weight_rows(save_model(model))
        for fid, new in ((1, name), (3, "Z9=bar")):
            cells = lines[first + fid].split("\t")
            lines[first + fid] = "\t".join([new] + cells[1:])
        with pytest.raises(ParseError) as exc:
            load_lines(lines)
        assert exc.value.line == first + 2
        assert str(exc.value) == (f"line {first + 2}: feature {name!r} "
                                  "names no rule of the template")

    def test_template_error_carries_model_file_line(self, trained):
        _, model = trained
        lines = save_model(model).splitlines()
        assert lines[6] == "U00:%x[-2,1]"  # the template starts on line 7
        lines[6] = "U00:%x[0,9"
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines) + "\n")
        assert exc.value.line == 7
        assert str(exc.value).startswith("line 7: malformed rule")

    def test_rejects_truncated_rows(self, trained):
        _, model = trained
        lines = save_model(model).splitlines()
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines[:-1]) + "\n")
        assert "weight rows" in str(exc.value)


# --- lattice construction -----------------------------------------------------

class TestInstanceLattice:
    def test_node_scores_sum_feature_weights(self):
        alphabet = toy_alphabet(3, 2, transitions=False)
        w = np.arange(alphabet.dim, dtype=float)
        w_node = w.reshape(3, 2)
        inst = Instance([[0, 2], []], [0, 0])
        lat = instance_lattice(inst, w_node, None)
        np.testing.assert_allclose(lat.node[0], w_node[0] + w_node[2])
        np.testing.assert_allclose(lat.node[1], 0.0)
        assert lat.edge is None

    def test_transition_scores_shared_across_steps(self):
        w_node = np.zeros((1, 2))
        w_trans = np.array([[0.0, 1.0], [2.0, 3.0]])
        inst = Instance([[0], [0], [0]], [0, 0, 0])
        lat = instance_lattice(inst, w_node, w_trans)
        assert lat.edge.shape == (2, 2, 2)
        np.testing.assert_allclose(lat.edge[0], w_trans)
        np.testing.assert_allclose(lat.edge[1], w_trans)


# --- batched decoding -----------------------------------------------------------

class TestBatchViterbi:
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("with_edges", [False, True])
    def test_matches_per_sentence_viterbi(self, with_edges, ties):
        rng = np.random.default_rng(31 + 2 * int(with_edges) + int(ties))

        def draw(shape):
            if ties:  # scores from {-1, 0, 1} tie exactly and often
                return rng.integers(-1, 2, size=shape).astype(float)
            return rng.normal(0.0, 2.0, size=shape)

        for _ in range(25):
            n_labels = int(rng.integers(2, 5))
            lengths = rng.permutation(np.concatenate(
                ([0, 1], rng.integers(0, 6, size=int(rng.integers(0, 6))))))
            node = draw((int(lengths.sum()), n_labels))
            w_trans = draw((n_labels, n_labels)) if with_edges else None
            got = crf.viterbi(node, lengths, w_trans)
            assert got.shape == (lengths.sum(),)
            at = 0
            for n in lengths:
                edge = (None if w_trans is None else
                        np.broadcast_to(w_trans, (max(n - 1, 0),) + w_trans.shape))
                lat = Lattice(node[at:at + n], edge)
                want = viterbi(lat)
                assert got[at:at + n].tolist() == want
                if n:
                    assert want == brute_force(lat)[3]
                at += n

    def test_no_positions(self):
        assert crf.viterbi(np.zeros((0, 3)), np.array([0, 0]), None).size == 0


def oracle_tags(model, sentence):
    """The per-sentence decoder: known features only, then ``viterbi``."""
    a = model.alphabet
    w_node, w_trans = a.split(model.weights)
    fids = [[fid for fid in map(a.feat_index.get, feats) if fid is not None]
            for feats in expand_sentence(model.template, feature_table(sentence))]
    lat = instance_lattice(Instance(fids, [0] * len(fids)), w_node, w_trans)
    return [a.labels[y] for y in viterbi(lat)]


class TestModelTagging:
    @pytest.mark.parametrize("transitions", [False, True])
    def test_tag_matches_per_sentence_oracle(self, transitions):
        docs = synth.generate(synth.default_profile(), 5, 10)
        model = train(docs[:4], default_template(transitions),
                      get_scheme("IOBW"), "PROBLEM",
                      TrainerConfig(max_iterations=20))
        assert model.alphabet.transitions == transitions
        for doc in docs[4:]:
            # held-out documents carry features unseen in training
            sentences = [Sentence([]), *doc.sentences[:2], Sentence([]),
                         *doc.sentences[2:], Sentence([])]
            padded = Document(doc.id, sentences, [])
            got = model.tag(padded)
            assert got == [oracle_tags(model, s) for s in sentences]
            assert got[0] == got[3] == got[-1] == []

    def test_model_without_feature_weights(self):
        # a model file may list no features: every position scores zero
        # and only the transitions decide
        scheme = get_scheme("IOB")
        alphabet = FeatureAlphabet(scheme.labels, True, {})
        weights = np.array([0.0, -1.0, 2.0, 0.5, 0.0, -3.0, 1.0, 0.0, 0.0])
        model = CrfModel(alphabet, weights, scheme,
                         parse_template("U00:%x[0,1]\nB\n"), "TEST")
        doc = Document("d", list(separable_docs(1)[0].sentences), [])
        assert model.tag(doc) == [oracle_tags(model, s) for s in doc.sentences]

    def test_document_without_tokens(self, trained):
        _, model = trained
        doc = Document("empty", [Sentence([]), Sentence([])], [])
        assert model.tag(doc) == [[], []]


# --- pinned end-to-end bytes -----------------------------------------------------

def golden_training(transitions: bool):
    """The pinned training: (documents, IOBW model of the first 20)."""
    docs = synth.generate(synth.default_profile(), 2024, 30)
    model = train(docs[:20], default_template(transitions=transitions),
                  get_scheme("IOBW"), "PROBLEM", TrainerConfig(max_iterations=15))
    return docs, model


def test_golden_digests():
    """synth -> train -> save_model -> load_model -> tag -> write_column_file.

    The tagged-file digest was computed before the batched decoder and
    the time-major objective replaced the per-sentence paths, so it pins
    the output bytes across such rewrites.  The model-file digest was
    re-pinned when the objective moved to scaled forward-backward, when
    the node gradient moved to the time-major row order, when the
    optimizer's and the objective's 1-D dot products moved from BLAS to
    ``optim.dot``, and when node scores and the node gradient moved to
    the grouped ``NodeLayout`` (sums per distinct id row, then per
    position): each time the summation order changed, and with it
    the last bits of the weights, but not one tag.  It was re-pinned
    once more for the model file's second format (one row per feature,
    ``float.hex`` weights), which changed no weight: the weight digest,
    ``sha256(weights.tobytes())``, was taken before that change, and
    pins the weights whatever the file format.  All three hold for one
    numpy build: a different exp/log or einsum implementation may change
    the last bits of the weights, and the digests must then be
    recomputed on the parent commit.  They do not depend on the BLAS
    thread count (``test_model_bytes_do_not_depend_on_blas_threads``).
    """
    docs, model = golden_training(transitions=True)
    assert hashlib.sha256(model.weights.tobytes()).hexdigest() == (
        "d77f441b0b352e64dfa9373d2bdf112f3494f47948d062306d66702f7e5965b0")
    text = save_model(model)
    clone = load_model(text)
    assert clone.weights.tobytes() == model.weights.tobytes()
    tagged = [Document(d.id, d.sentences,
                       pipeline_spans(clone.tag(d), d, clone.scheme, "PROBLEM",
                                      mode="iobw+"))
              for d in docs[20:]]
    out = write_column_file(tagged, clone.scheme, ["PROBLEM"])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "cf709380b8982c7428f06192282aa4887bda0a2744b830d67e5f7254f3127041")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a906f8cd2728672c0280059309ed303829e2d149fcbb43036f822dbe5d584a8f")


def test_golden_digest_without_transitions():
    """The model-file bytes of a transitions-off training, which takes the
    forward pass's no-transitions branch (each alpha row is its node row
    normalized, with no step loop), and its weight digest.  Re-pinned
    with the digests above; the same numpy-build caveat applies."""
    _, model = golden_training(transitions=False)
    assert not model.alphabet.transitions
    assert hashlib.sha256(model.weights.tobytes()).hexdigest() == (
        "6e4c7ce3a9587328f2923031d2746410d08d5b2b68a402e58ade3c8abf83a416")
    assert hashlib.sha256(save_model(model).encode()).hexdigest() == (
        "c3f7db0bf294929908c2592f439a8201305ab47122978e1226291e82416b0ddb")


def test_model_bytes_do_not_depend_on_blas_threads():
    """Both golden trainings write the same model files at one and at two
    OpenBLAS threads.  The thread count is read when numpy loads, so each
    training runs in a fresh interpreter."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (here, here.parent / "src")))
    script = ("import hashlib\n"
              "from spantag.crf import save_model\n"
              "from test_crf import golden_training\n"
              "for transitions in (True, False):\n"
              "    text = save_model(golden_training(transitions)[1])\n"
              "    print(hashlib.sha256(text.encode()).hexdigest())\n")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 2
    assert digests[0] == digests[1]
