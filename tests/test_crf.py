"""Linear-chain model: inference vs enumeration, training, serialization."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantag import synth
from spantag.corpus import Sentence, Span, encode_document
from spantag.crf import (
    BatchedObjective,
    CrfModel,
    EncodedCorpus,
    FeatureAlphabet,
    Instance,
    Lattice,
    TrainerConfig,
    build_alphabet,
    forward_backward,
    instance_lattice,
    load_model,
    make_instances,
    objective_and_gradient,
    save_model,
    sequence_score,
    train,
    viterbi,
)
from spantag.errors import ConfigError, ParseError
from spantag.features import (default_template, expand_sentence,
                               feature_table, parse_template)
from spantag.schemes import get_scheme

from conftest import build_doc, build_sentence


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
    alphabet = FeatureAlphabet(tuple(f"L{i}" for i in range(n_labels)),
                               transitions)
    for f in range(n_features):
        alphabet.add(f"f{f}")
    return alphabet


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


def batched(instances, alphabet, C):
    """The batched objective over fixed-width instances."""
    encoded = EncodedCorpus(
        alphabet,
        np.array([fids for inst in instances for fids in inst.feats],
                 dtype=np.intp),
        np.array([len(inst.gold) for inst in instances], dtype=np.intp))
    gold = np.array([y for inst in instances for y in inst.gold], dtype=np.intp)
    return BatchedObjective(encoded, gold, C)


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
            got_value, got_grad = objective(w)
            assert abs(got_value - want_value) <= 1e-10 * max(1.0, abs(want_value))
            np.testing.assert_allclose(got_grad, want_grad, atol=1e-10)

    def test_batched_handles_single_token_sentences(self):
        alphabet = toy_alphabet(2, 2, transitions=True)
        instances = [Instance([[0]], [1]), Instance([[1], [0]], [0, 1])]
        w = np.linspace(-1.0, 1.0, alphabet.dim)
        want = objective_and_gradient(w, instances, alphabet, C=1.0)
        got = batched(instances, alphabet, C=1.0)(w)
        assert abs(got[0] - want[0]) < 1e-12
        np.testing.assert_allclose(got[1], want[1], atol=1e-12)

    def test_batched_handles_templates_without_rules(self):
        # only transition weights: every position has zero node features
        alphabet = toy_alphabet(0, 3, transitions=True)
        instances = [Instance([[], [], []], [0, 2, 1]), Instance([[]], [2])]
        w = np.linspace(-1.0, 1.0, alphabet.dim)
        want = objective_and_gradient(w, instances, alphabet, C=1.0)
        got = batched(instances, alphabet, C=1.0)(w)
        assert abs(got[0] - want[0]) < 1e-12
        np.testing.assert_allclose(got[1], want[1], atol=1e-12)


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
        encoded = build_alphabet(docs, template, get_scheme("IO"))
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
        encoded = build_alphabet(docs, template, get_scheme("IOBW"))
        sentences = [s for d in docs for s in d.sentences if s.tokens]
        tokens = sum(len(s.tokens) for s in sentences)
        assert encoded.ids.shape == (tokens, len(template.rules))
        assert encoded.lengths.tolist() == [len(s.tokens) for s in sentences]
        strings = encoded.alphabet.feature_strings()
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

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_alphabet([build_doc("d0", [])], default_template(),
                           get_scheme("IO"))

    def test_empty_sentences_are_skipped(self):
        docs = [build_doc("d0", [Sentence([]),
                                 build_sentence(("pain", "NN", "B-NP"))],
                          [Span(1, 0, 1, "PROBLEM")])]
        scheme = get_scheme("IOB")
        template = default_template()
        encoded = build_alphabet(docs, template, scheme)
        assert encoded.lengths.tolist() == [1]
        assert encoded.ids.shape == (1, len(template.rules))
        gold = make_instances(docs, scheme, "PROBLEM")
        assert gold.tolist() == [scheme.labels.index("B")]


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
        labels = model.tag_sentence(sentence)
        assert len(labels) == 3
        assert set(labels) <= set(get_scheme("IOB").labels)

    def test_tagging_empty_sentence(self, trained):
        _, model = trained
        assert model.tag_sentence(Sentence([])) == []

    def test_no_trainable_sentences_rejected(self):
        docs = [build_doc("d0", [Sentence([])])]
        with pytest.raises(ConfigError):
            train(docs, default_template(), get_scheme("IO"), "PROBLEM")

    @pytest.mark.parametrize("kwargs", [
        {"C": 0.0}, {"C": -1.0}, {"eta": 0.0},
        {"max_iterations": 0}, {"lbfgs_memory": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainerConfig(**kwargs)


# --- serialization ------------------------------------------------------------

class TestModelFile:
    def test_round_trip_is_exact(self, trained):
        docs, model = trained
        text = save_model(model)
        clone = load_model(text)
        assert np.array_equal(clone.weights, model.weights)
        assert clone.scheme.name == model.scheme.name
        assert clone.event_type == model.event_type
        assert clone.alphabet.feature_strings() == \
            model.alphabet.feature_strings()
        for doc in docs:
            assert clone.tag(doc) == model.tag(doc)

    def test_round_trip_is_byte_stable(self, trained):
        _, model = trained
        text = save_model(model)
        assert save_model(load_model(text)) == text

    def test_untrained_weights_round_trip_verbatim(self):
        # exercises repr-level float fidelity on awkward values
        scheme = get_scheme("IO")
        alphabet = FeatureAlphabet(scheme.labels, transitions=True)
        alphabet.add("U00=alpha")
        alphabet.add("U00=beta")
        weights = np.array([0.1, -1e-17, 3.141592653589793, 2**-40,
                            1e300, -7.0, 0.3333333333333333, 42.0])
        model = CrfModel(alphabet, weights, scheme,
                         parse_template("U00:%x[0,1]\nB\n"), "TEST")
        clone = load_model(save_model(model))
        assert np.array_equal(clone.weights, weights)

    def test_rejects_unknown_format(self):
        with pytest.raises(ParseError) as exc:
            load_model("something else\n")
        assert exc.value.line == 1

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
        idx, feat, lab, _ = lines[-1].split("\t")
        lines[-1] = "\t".join([idx, feat, lab, "not-a-number"])
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines) + "\n")
        assert "bad weight row" in str(exc.value)
        assert exc.value.line == len(lines)

    def test_rejects_shuffled_rows(self, trained):
        # swap the first rows of two different feature blocks so that the
        # first-occurrence numbering disagrees with the stored indices
        _, model = trained
        lines = save_model(model).splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("features = ")) + 1
        block = len(model.scheme.labels)
        lines[first], lines[first + block] = lines[first + block], lines[first]
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines) + "\n")
        assert "does not match layout" in str(exc.value)

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
        alphabet = FeatureAlphabet(scheme.labels, transitions=False)
        alphabet.add("U00=alpha")
        model = CrfModel(alphabet, np.zeros(alphabet.dim), scheme,
                         parse_template("U00:%x[0,1]\n"), "TEST")
        text = save_model(model).replace("transitions = false",
                                         "transitions = yes", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 4
        assert "true or false" in str(exc.value)

    def test_rejects_unknown_scheme(self, trained):
        _, model = trained
        text = save_model(model).replace("scheme = IOB", "scheme = IOX", 1)
        with pytest.raises(ParseError) as exc:
            load_model(text)
        assert exc.value.line == 2
        assert "unknown scheme" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "1e999", "-inf"])
    def test_rejects_non_finite_weight(self, trained, value):
        _, model = trained
        lines = save_model(model).splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("features = ")) + 1
        idx, feat, lab, _ = lines[first].split("\t")
        lines[first] = "\t".join([idx, feat, lab, value])
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines) + "\n")
        assert exc.value.line == first + 1
        assert "non-finite" in str(exc.value)

    def test_rejects_repeated_row(self, trained):
        # a repeated transition row in place of the next one would leave
        # that weight at zero
        _, model = trained
        lines = save_model(model).splitlines()
        lines[-1] = lines[-2]
        with pytest.raises(ParseError) as exc:
            load_model("\n".join(lines) + "\n")
        assert exc.value.line == len(lines)
        assert "does not match layout" in str(exc.value)

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
