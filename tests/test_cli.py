"""Command-line behavior: end-to-end flows, formats, and exit codes."""

import argparse
import functools
import hashlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spantag
from spantag import corpus, crf, stats, synth
from spantag.cli import build_parser, main
from spantag.features import default_template
from spantag.postprocess import ExpanderConfig, pipeline_spans
from spantag.schemes import get_scheme

import test_fuzz_formats as fuzz


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def profile_file(workdir):
    events = {
        "ALPHA": synth.EventSpec(0.5, {1: 0.3, 2: 0.4, 3: 0.3}, 0.5, 0.2),
        "BETA": synth.EventSpec(0.5, {1: 0.6, 2: 0.4}, 0.3, 0.0),
    }
    profile = synth.SynthProfile(events, sentences_per_doc=5,
                                 mention_rate=2.0)
    path = workdir / "profile.txt"
    path.write_text(synth.profile_text(profile), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def corpus_file(workdir, profile_file):
    path = workdir / "corpus.tsv"
    rc = main(["synth", "--docs", "10", "--seed", "3",
               "--profile", str(profile_file), "--output", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def model_file(workdir, corpus_file):
    path = workdir / "alpha.model"
    rc = main(["train", "--input", str(corpus_file), "--model", str(path),
               "--type", "ALPHA", "--scheme", "IOB", "--max-iter", "80"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def tagged_file(workdir, corpus_file, model_file):
    path = workdir / "for_eval.tsv"
    assert main(["tag", "--model", str(model_file),
                 "--input", str(corpus_file), "--output", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def matrix_file(workdir, corpus_file):
    path = workdir / "matrix.tsv"
    rc = main(["crossval", "--input", str(corpus_file),
               "--repeats", "1", "--folds", "2", "--models", "IO,IOB",
               "--types", "ALPHA", "--seed", "4", "--max-iter", "40",
               "--matrix", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def iobw_model_file(workdir, corpus_file):
    path = workdir / "alpha_iobw_shared.model"
    rc = main(["train", "--input", str(corpus_file), "--model", str(path),
               "--type", "ALPHA", "--scheme", "IOBW", "--max-iter", "60"])
    assert rc == 0
    return path


def tag_per_document(model, docs, post):
    """The tagged column file that ``tag`` writes, with one ``model.tag``
    call per document."""
    tagged = [corpus.Document(d.id, d.sentences, pipeline_spans(
        model.tag(d), d, model.scheme, model.event_type, mode=post,
        config=ExpanderConfig())) for d in docs]
    return corpus.write_column_file(tagged, model.scheme, [model.event_type])


def run_cli(*argv):
    """Run the CLI in a fresh interpreter, so a traceback shows on stderr."""
    src = str(Path(spantag.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "spantag.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})


class TestSynthCommand:
    def test_output_is_a_parseable_corpus(self, corpus_file):
        docs = corpus.parse_column_file(corpus_file.read_text("utf-8"))
        assert len(docs) == 10
        assert {s.event_type for d in docs for s in d.gold_spans} \
            <= {"ALPHA", "BETA"}

    def test_same_seed_is_byte_identical(self, workdir, profile_file):
        a, b = workdir / "seed_a.tsv", workdir / "seed_b.tsv"
        argv = ["synth", "--docs", "4", "--seed", "9",
                "--profile", str(profile_file)]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, workdir, profile_file):
        a, b = workdir / "seed_c.tsv", workdir / "seed_d.tsv"
        base = ["synth", "--docs", "4", "--profile", str(profile_file)]
        assert main(base + ["--seed", "1", "--output", str(a)]) == 0
        assert main(base + ["--seed", "2", "--output", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_stdout_matches_file_output(self, workdir, profile_file, capsys):
        path = workdir / "stdout_check.tsv"
        argv = ["synth", "--docs", "2", "--seed", "5",
                "--profile", str(profile_file)]
        assert main(argv + ["--output", str(path)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == path.read_text("utf-8")

    def test_scheme_flag_controls_label_columns(self, workdir, profile_file,
                                                capsys):
        argv = ["synth", "--docs", "2", "--seed", "5", "--scheme", "IOBW",
                "--profile", str(profile_file)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "label:IOBW:ALPHA" in out and "label:IOBW:BETA" in out


    def test_non_finite_profile_number_is_a_data_error(self, workdir):
        bad = workdir / "inf_profile.txt"
        bad.write_text("mention_rate = 1.0\nbackground_vocab = inf\n",
                       encoding="utf-8")
        proc = run_cli("synth", "--docs", "2", "--profile", str(bad))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 2" in proc.stderr and "non-finite" in proc.stderr
        assert proc.stdout == ""


    def test_negative_document_count_is_a_config_error(self, workdir,
                                                       profile_file, capsys):
        out = workdir / "negative_docs.tsv"
        assert main(["synth", "--docs", "-1", "--profile", str(profile_file),
                     "--output", str(out)]) == 2
        assert "document count must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_config_error(self, workdir, seed):
        # SplitMix64 masks its seed, so these would repeat seeds 2**64 - 1
        # and 0 byte for byte
        out = workdir / "bad_seed.tsv"
        proc = run_cli("synth", "--docs", "3", "--seed", seed,
                       "--output", str(out))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "seed must be" in proc.stderr
        assert not out.exists()

    def test_largest_seed_is_accepted(self, capsys):
        assert main(["synth", "--docs", "1", "--seed", str(2**64 - 1)]) == 0
        largest = capsys.readouterr().out
        assert main(["synth", "--docs", "1", "--seed", "0"]) == 0
        assert capsys.readouterr().out != largest

    def test_type_name_outside_the_word_set_is_a_config_error(self, workdir):
        bad = workdir / "bad_type_profile.txt"
        bad.write_text("bad-type.proportion = 1\nbad-type.length.1 = 1\n"
                       "bad-type.unique_word_fraction = 0.5\n",
                       encoding="utf-8")
        proc = run_cli("synth", "--docs", "2", "--profile", str(bad))
        assert proc.returncode == 2
        assert proc.stderr == ("spantag: configuration error: "
                               "bad event type 'bad-type'\n")
        assert proc.stdout == ""

    def test_background_vocabulary_above_2_64_is_a_config_error(
            self, workdir, capsys):
        bad = workdir / "huge_vocab_profile.txt"
        bad.write_text("background_vocab = 1e30\n", encoding="utf-8")
        assert main(["synth", "--docs", "1", "--profile", str(bad)]) == 2
        assert "at most 2**64" in capsys.readouterr().err


    @pytest.mark.parametrize("text,message", [
        ("sentences_per_doc = 20000\n",
         "sentences_per_doc must be at most 1000"),
        ("A.proportion = 1\nA.length.20000 = 1\n"
         "A.unique_word_fraction = 0.5\n",
         "A: mention length must be at most 1000"),
    ])
    def test_oversized_documents_are_a_config_error(self, workdir, capsys,
                                                    text, message):
        bad = workdir / "oversized_profile.txt"
        bad.write_text(text, encoding="utf-8")
        assert main(["synth", "--docs", "1", "--profile", str(bad)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""


class TestProfileCommand:
    def test_reports_mention_statistics(self, corpus_file, capsys):
        assert main(["profile", "--input", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("total.count = ")
        assert "ALPHA.proportion = " in out
        # the report doubles as a generation profile
        assert synth.parse_profile(out)

    @pytest.mark.parametrize("label", ["B-", "B-PROB LEM"])
    def test_bad_joint_label_type_is_a_data_error(self, workdir, label):
        path = workdir / "joint.tsv"
        path.write_text(f"#! columns = surface label:IOB\na\tO\nb\t{label}\n",
                        encoding="utf-8")
        proc = run_cli("profile", "--input", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 3" in proc.stderr and "joint label" in proc.stderr


    def test_undecodable_bytes_are_a_data_error(self, workdir, capsys):
        path = workdir / "latin1.tsv"
        path.write_bytes(b"#! columns = surface\r\nna\xefve\n")
        assert main(["profile", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            "spantag: error: line 2: corpus is not UTF-8: "
            "invalid continuation byte\n")


class TestTrainCommand:
    def test_prints_summary_and_writes_loadable_model(self, workdir,
                                                      corpus_file, capsys):
        path = workdir / "retrain.model"
        rc = main(["train", "--input", str(corpus_file), "--model", str(path),
                   "--type", "BETA", "--scheme", "IOBW", "--max-iter", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("trained BETA (IOBW): ")
        model = crf.load_model(path.read_text("utf-8"))
        assert model.event_type == "BETA"
        assert model.scheme.name == "IOBW"

    def test_default_flags_train_as_the_default_config(self, workdir,
                                                        corpus_file):
        # no trainer flags: the model of ``crf.train`` under TrainerConfig()
        path = workdir / "defaults.model"
        rc = main(["train", "--input", str(corpus_file), "--model", str(path),
                   "--type", "ALPHA"])
        assert rc == 0
        docs = corpus.parse_column_file(corpus_file.read_text("utf-8"))
        config = crf.TrainerConfig()
        model = crf.train(docs, default_template(transitions=True),
                          get_scheme("IOB"), "ALPHA", config)
        # stopped by eta well inside the iteration cap
        assert model.log.converged
        assert model.log.iterations < config.max_iterations // 10
        want = hashlib.sha256(crf.save_model(model).encode()).hexdigest()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_no_transitions_flag(self, workdir, corpus_file):
        path = workdir / "notrans.model"
        rc = main(["train", "--input", str(corpus_file), "--model", str(path),
                   "--type", "ALPHA", "--no-transitions", "--max-iter", "40"])
        assert rc == 0
        assert "transitions = false" in path.read_text("utf-8")

    def test_missing_template_is_a_config_error(self, workdir, corpus_file,
                                                capsys):
        rc = main(["train", "--input", str(corpus_file),
                   "--model", str(workdir / "never.model"), "--type", "ALPHA",
                   "--template", str(workdir / "missing.tpl")])
        assert rc == 2
        assert "template not found" in capsys.readouterr().err

    def test_column_past_table_template_is_a_data_error(self, workdir,
                                                        corpus_file, capsys):
        template = workdir / "wide.tpl"
        template.write_text("U00:%x[0,1]\nU01:%x[0,7]\n", encoding="utf-8")
        rc = main(["train", "--input", str(corpus_file),
                   "--model", str(workdir / "never.model"), "--type", "ALPHA",
                   "--template", str(template)])
        assert rc == 1
        assert "line 2: column index 7" in capsys.readouterr().err

    def test_corpus_without_tokens_is_a_data_error(self, workdir):
        # a file's contents (exit 1), not a bad setting (exit 2)
        given = workdir / "no_tokens.tsv"
        given.write_text("#! doc = d0\n#! doc = d1\n", encoding="utf-8")
        path = workdir / "no_tokens.model"
        proc = run_cli("train", "--input", str(given), "--model", str(path),
                       "--type", "ALPHA")
        assert proc.returncode == 1
        assert proc.stderr == ("spantag: error: cannot build an alphabet "
                               "from an empty corpus\n")
        assert not path.exists()

    # "$" would let a trailing newline through, and the model file written
    # for it would not load
    @pytest.mark.parametrize("event_type", ["NOPE X", "", "PROBLEM\n"])
    def test_bad_event_type_is_a_config_error(self, workdir, corpus_file,
                                              event_type):
        path = workdir / "bad_type.model"
        proc = run_cli("train", "--input", str(corpus_file), "--model",
                       str(path), "--type", event_type, "--max-iter", "5")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "bad event type" in proc.stderr
        assert not path.exists()

    def test_unknown_scheme_rejected_by_parser(self, corpus_file):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--input", str(corpus_file), "--model", "x",
                  "--type", "ALPHA", "--scheme", "BILOU"])
        assert exc.value.code == 2


class TestTagCommand:
    def test_tags_into_column_file(self, workdir, corpus_file, model_file):
        out_path = workdir / "tagged.tsv"
        rc = main(["tag", "--model", str(model_file),
                   "--input", str(corpus_file), "--output", str(out_path)])
        assert rc == 0
        docs = corpus.parse_column_file(out_path.read_text("utf-8"))
        assert len(docs) == 10
        assert {s.event_type for d in docs for s in d.gold_spans} <= {"ALPHA"}

    def test_tagging_is_deterministic(self, workdir, corpus_file, model_file):
        a, b = workdir / "tag_a.tsv", workdir / "tag_b.tsv"
        argv = ["tag", "--model", str(model_file), "--input", str(corpus_file)]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_post_mode_requires_iobw_model(self, corpus_file, model_file,
                                           capsys):
        rc = main(["tag", "--model", str(model_file),
                   "--input", str(corpus_file), "--post", "iobw+"])
        assert rc == 2
        assert "requires scheme IOBW" in capsys.readouterr().err

    def test_iobw_model_supports_posting(self, workdir, corpus_file):
        model_path = workdir / "alpha_iobw.model"
        assert main(["train", "--input", str(corpus_file),
                     "--model", str(model_path), "--type", "ALPHA",
                     "--scheme", "IOBW", "--max-iter", "60"]) == 0
        out_path = workdir / "tagged_plus.tsv"
        rc = main(["tag", "--model", str(model_path),
                   "--input", str(corpus_file), "--post", "iobw+",
                   "--output", str(out_path)])
        assert rc == 0
        assert corpus.parse_column_file(out_path.read_text("utf-8"))

    def test_truncated_model_is_a_data_error(self, workdir, corpus_file,
                                             model_file):
        cut = workdir / "cut.model"
        head = model_file.read_text("utf-8").splitlines()[:3]
        cut.write_text("\n".join(head) + "\n", encoding="utf-8")
        proc = run_cli("tag", "--model", str(cut), "--input", str(corpus_file))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 4" in proc.stderr

    def test_model_with_bad_event_type_is_a_data_error(self, workdir,
                                                       corpus_file,
                                                       model_file):
        bad = workdir / "bad_type.model"
        bad.write_text(model_file.read_text("utf-8").replace(
            "event_type = ALPHA", "event_type = NOPE X", 1), encoding="utf-8")
        proc = run_cli("tag", "--model", str(bad), "--input", str(corpus_file))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 3: bad event type" in proc.stderr

    def test_repeated_expander_key_is_a_data_error(self, workdir, corpus_file,
                                                   model_file):
        config = workdir / "repeated.expander"
        config.write_text("noun_pos_tags = NN\nnoun_pos_tags = VB\n",
                          encoding="utf-8")
        proc = run_cli("tag", "--model", str(model_file),
                       "--input", str(corpus_file), "--expander", str(config))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 2: duplicate key 'noun_pos_tags'" in proc.stderr

    @pytest.mark.parametrize("positions", [1, 45, 10 ** 6])
    @pytest.mark.parametrize("post", ["none", "iobw+"])
    def test_batches_match_per_document_tagging(self, workdir, corpus_file,
                                                iobw_model_file, monkeypatch,
                                                positions, post):
        docs = corpus.parse_column_file(corpus_file.read_text("utf-8"))
        sizes = [sum(map(len, d.sentences)) for d in docs]
        assert max(sizes) > 45 > min(sizes)  # a document outgrows a group
        # documents with no sentences: "#! doc = a" then "#! doc = b"
        docs[3:3] = [corpus.Document("a", []), corpus.Document("b", [])]
        docs.append(corpus.Document("last", []))
        given = workdir / "with_empty_docs.tsv"
        given.write_text(corpus.write_column_file(docs, get_scheme("IOB")),
                         encoding="utf-8")
        assert "#! doc = a\n#! doc = b\n" in given.read_text("utf-8")
        model = crf.load_model(iobw_model_file.read_text("utf-8"))
        out = workdir / f"batched_{positions}_{post}.tsv"
        monkeypatch.setattr(crf, "_TAG_POSITIONS", positions)
        assert main(["tag", "--model", str(iobw_model_file), "--input",
                     str(given), "--post", post, "--output", str(out)]) == 0
        assert out.read_bytes() == tag_per_document(
            model, corpus.parse_column_file(given.read_text("utf-8")),
            post).encode("utf-8")

    def test_directive_surface_is_a_data_error_at_its_line(
            self, workdir, model_file, capsys):
        given = workdir / "directive_surface.tsv"
        given.write_text("#! columns = pos surface\nNN\ta\nNN\t#!x\n",
                         encoding="utf-8")
        out = workdir / "never_tagged.tsv"
        rc = main(["tag", "--model", str(model_file), "--input", str(given),
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "spantag: error: line 3: surface '#!x' would read as a "
            "directive\n")
        assert not out.exists()

    def test_missing_model_file(self, workdir, corpus_file, capsys):
        rc = main(["tag", "--model", str(workdir / "void.model"),
                   "--input", str(corpus_file)])
        assert rc == 2
        assert "model not found" in capsys.readouterr().err


class TestEvalCommand:
    def test_text_report(self, corpus_file, tagged_file, capsys):
        rc = main(["eval", "--gold", str(corpus_file),
                   "--system", str(tagged_file), "--types", "ALPHA"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span evaluation" in out
        assert "ALPHA" in out and "micro" in out

    def test_tsv_report_is_machine_readable(self, corpus_file, tagged_file,
                                            capsys):
        rc = main(["eval", "--gold", str(corpus_file),
                   "--system", str(tagged_file), "--types", "ALPHA", "--tsv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4  # ALPHA strict/lenient + micro strict/lenient
        for line in lines:
            cells = line.split("\t")
            assert len(cells) == 5
            assert all(0.0 <= float(c) <= 1.0 for c in cells[2:])

    def test_training_fit_scores_high(self, corpus_file, tagged_file, capsys):
        rc = main(["eval", "--gold", str(corpus_file),
                   "--system", str(tagged_file), "--types", "ALPHA", "--tsv"])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0].split("\t")
        assert first[0] == "ALPHA" and first[1] == "strict"
        assert float(first[4]) >= 0.95

    def test_missing_file(self, corpus_file, workdir, capsys):
        rc = main(["eval", "--gold", str(corpus_file),
                   "--system", str(workdir / "void.tsv")])
        assert rc == 2
        assert "corpus not found" in capsys.readouterr().err

    def test_garbage_corpus_is_a_data_error(self, workdir, corpus_file,
                                            capsys):
        bad = workdir / "garbage.tsv"
        bad.write_text("not a corpus at all\n", encoding="utf-8")
        rc = main(["eval", "--gold", str(corpus_file), "--system", str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


    @pytest.mark.parametrize("types, message", [
        ("a b", "bad event type 'a b'"),
        (",", "event_types must be non-empty")])
    def test_bad_type_list_is_a_config_error(self, corpus_file, tagged_file,
                                             capsys, types, message):
        rc = main(["eval", "--gold", str(corpus_file),
                   "--system", str(tagged_file), "--types", types])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_type_without_spans_reports_zeros(self, corpus_file, tagged_file,
                                              capsys):
        rc = main(["eval", "--gold", str(corpus_file),
                   "--system", str(tagged_file), "--types", "NOPE", "--tsv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[:2] for line in lines] == [
            ["NOPE", "strict"], ["NOPE", "lenient"],
            ["micro", "strict"], ["micro", "lenient"]]
        assert all(float(c) == 0.0 for line in lines
                   for c in line.split("\t")[2:])

    def test_repeated_gold_document_id_is_a_data_error(self, workdir,
                                                       capsys):
        gold = workdir / "dup_gold.tsv"
        gold.write_text("#! columns = surface label:IOB:PROBLEM\n"
                        "#! doc = a\nx\tB\n\n"
                        "#! doc = a\ny\tO\n", encoding="utf-8")
        rc = main(["eval", "--gold", str(gold), "--system", str(gold)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 5" in err and "duplicate document id" in err


class TestCrossvalAndStats:
    def test_matrix_file_parses(self, matrix_file):
        matrix = stats.parse_matrix(matrix_file.read_text("utf-8"))
        assert matrix.models == ("IO", "IOB")
        assert matrix.event_types == ("ALPHA",)
        assert matrix.repeats == 1 and matrix.folds == 2

    def test_stdout_carries_matrix_and_report(self, workdir, corpus_file,
                                              capsys):
        rc = main(["crossval", "--input", str(corpus_file),
                   "--repeats", "1", "--folds", "2", "--models", "IO",
                   "--types", "BETA", "--seed", "4", "--max-iter", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("event\tmodel\trepeat\tfold")
        assert "== directional summary" in out

    def test_crossval_is_deterministic(self, workdir, corpus_file):
        paths = [workdir / "det_a.tsv", workdir / "det_b.tsv"]
        for path in paths:
            rc = main(["crossval", "--input", str(corpus_file),
                       "--repeats", "1", "--folds", "2", "--models", "IOB",
                       "--types", "ALPHA", "--seed", "11", "--max-iter", "40",
                       "--matrix", str(path)])
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stats_command_reports_saved_matrix(self, matrix_file, capsys):
        rc = main(["stats", "--matrix", str(matrix_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== ALPHA / strict F1" in out
        assert "IO vs IOB" in out

    def test_stats_rejects_off_grid_matrix(self, workdir, capsys):
        path = workdir / "off_grid.tsv"
        path.write_text("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n"
                        "P\tIO\t-1\t0\t0.5\t0.5\n"
                        "P\tIO\t0\t1\t0.5\t0.5\n", encoding="utf-8")
        rc = main(["stats", "--matrix", str(path)])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_stats_rejects_one_cell_matrix(self, workdir):
        path = workdir / "one_cell.tsv"
        path.write_text("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n"
                        "P\tIO\t0\t0\t0.5\t0.5\n"
                        "P\tIOB\t0\t0\t0.6\t0.6\n", encoding="utf-8")
        proc = run_cli("stats", "--matrix", str(path))
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1  # one line: no traceback
        assert proc.stderr.startswith("spantag: error: line 2: ")
        assert proc.stdout == ""

    def test_stats_rejects_header_only_matrix(self, workdir):
        # an empty or truncated matrix is not an empty experiment
        path = workdir / "header_only.tsv"
        path.write_text("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n",
                        encoding="utf-8")
        proc = run_cli("stats", "--matrix", str(path))
        assert proc.returncode == 1
        assert proc.stderr == "spantag: error: line 2: run matrix has no cells\n"
        assert proc.stdout == ""

    def test_fold_without_training_tokens_is_a_data_error(self, workdir,
                                                          corpus_file):
        # one document with tokens and five without: some fold trains on
        # token-free documents alone, after every flag has been accepted
        text = corpus_file.read_text("utf-8")
        header, first, _ = text.split("#! doc = ", 2)
        given = workdir / "mostly_empty.tsv"
        given.write_text(header + "#! doc = " + first + "".join(
            f"#! doc = e{i}\n" for i in range(5)), encoding="utf-8")
        proc = run_cli("crossval", "--input", str(given), "--folds", "5",
                       "--repeats", "1", "--models", "IO", "--types", "ALPHA",
                       "--max-iter", "5")
        assert proc.returncode == 1
        assert proc.stderr == ("spantag: error: no non-empty sentences to "
                               "train on\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_config_error(self, corpus_file, capsys, jobs):
        rc = main(["crossval", "--input", str(corpus_file),
                   "--repeats", "1", "--folds", "2", "--models", "IO",
                   "--types", "ALPHA", "--jobs", jobs])
        assert rc == 2
        assert "jobs must be >= 1" in capsys.readouterr().err

    def test_stats_rejects_matrix_missing_a_model_block(self, workdir):
        path = workdir / "holed.tsv"
        rows = [f"{event}\t{model}\t0\t{fold}\t0.5\t0.6"
                for event, model in [("A", "X"), ("A", "Y"), ("B", "X")]
                for fold in (0, 1)]
        path.write_text("event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1\n"
                        + "\n".join(rows) + "\n", encoding="utf-8")
        proc = run_cli("stats", "--matrix", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 6" in proc.stderr and "(B, Y)" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("models, types, message", [
        ("IO,IO", "ALPHA", "repeated models: ['IO']"),
        ("IO", "ALPHA,ALPHA", "repeated event_types: ['ALPHA']"),
        (",", "ALPHA", "models must be non-empty"),
        ("IO", "ALPHA,A B", "bad event type 'A B'"),
        ("IO", ",", "event_types must be non-empty")])
    def test_empty_or_repeated_list_is_a_config_error(
            self, workdir, corpus_file, capsys, models, types, message):
        matrix = workdir / "never_written.tsv"
        rc = main(["crossval", "--input", str(corpus_file),
                   "--repeats", "1", "--folds", "2", "--models", models,
                   "--types", types, "--matrix", str(matrix)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not matrix.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_config_error(self, workdir, corpus_file,
                                                    seed):
        matrix = workdir / "bad_seed_matrix.tsv"
        proc = run_cli("crossval", "--input", str(corpus_file),
                       "--repeats", "1", "--folds", "2", "--models", "IO",
                       "--types", "ALPHA", "--seed", seed,
                       "--matrix", str(matrix))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "seed must be" in proc.stderr
        assert proc.stdout == "" and not matrix.exists()

    def test_unknown_model_name(self, corpus_file, capsys):
        rc = main(["crossval", "--input", str(corpus_file),
                   "--repeats", "1", "--folds", "2",
                   "--models", "IO,BILOU", "--types", "ALPHA"])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err


# --- the error contract -----------------------------------------------------

def run_counting_parses(argv):
    """(exit code, stdout, stderr, corpus parses) of ``main(argv)``; the
    exit code of an argparse usage error is its ``SystemExit`` code."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(corpus, "parse_column_file",
                           wraps=corpus.parse_column_file) as parse, \
            redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue(), parse.call_count


class TestSettingsBeforeCorpus:
    @pytest.mark.parametrize("argv, message", [
        (["crossval", "--input", "CORPUS", "--folds", "1"],
         "folds must be >= 2, got 1"),
        (["train", "--input", "CORPUS", "--model", "MODEL",
          "--type", "NOPE X"], "bad event type 'NOPE X'"),
        (["eval", "--gold", "CORPUS", "--system", "CORPUS", "--types", "A B"],
         "bad event type 'A B'"),
        # a repeated type would print its rows twice and count it twice in
        # the micro rows
        (["eval", "--gold", "CORPUS", "--system", "CORPUS",
          "--types", "PROBLEM,PROBLEM,TEST"],
         "repeated event_types: ['PROBLEM']"),
    ])
    def test_bad_flag_exits_2_before_any_parse(self, workdir, corpus_file,
                                               argv, message):
        model = workdir / "never.model"
        paths = {"CORPUS": str(corpus_file), "MODEL": str(model)}
        rc, out, err, parses = run_counting_parses(
            [paths.get(a, a) for a in argv])
        assert (rc, out, parses) == (2, "", 0)
        assert err == f"spantag: configuration error: {message}\n"
        assert not model.exists()


def _flag_actions():
    """Subcommand name -> its flag actions, as ``build_parser`` declares
    them (help aside)."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions
                   if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


COMMANDS = _flag_actions()

# flag dest -> (values its command accepts, values it rejects as a setting)
SETTING_VALUES = {
    "C": (["1", "0.5"], ["0", "-1", "nan", "inf", "1e400"]),
    "eta": (["1e-4", "0.5"], ["0", "-0.5", "nan"]),
    "max_iter": (["3"], ["0", "-1"]),
    "repeats": (["1"], ["0", "-2"]),
    "folds": (["2"], ["1", "0"]),
    "seed": (["0", str(2**64 - 1)], ["-1", str(2**64)]),
    "jobs": (["1"], ["0", "-4"]),
    "docs": (["0", "3"], ["-1"]),
    "type": (["ALPHA", "PROBLEM"], ["NOPE X", "", "A,B", "PROBLEM\n"]),
    "types": (["ALPHA", "PROBLEM,ALPHA"], [",", "A B", "B-X", "ALPHA,ALPHA"]),
    "models": (["IO", "IOB,IOBW+"], [",", "IO,IO", "BILOU"]),
}
# values argparse itself rejects where a number is due
_NOT_NUMBERS = ["x", "1.5", ""]
# files that only hold settings, read before any corpus
SETTING_FILES = ("template", "expander", "profile")


def _role(command, dest):
    """What a path flag names: a file the command reads, or "out"."""
    if dest in ("input", "gold", "system"):
        return "corpus"
    if dest in ("model", "matrix"):
        return dest if command in ("tag", "stats") else "out"
    return "out" if dest == "output" else dest


@st.composite
def column_texts(draw):
    """Column files with their columns in any order and cells from a small
    pool, a surface like a directive among them."""
    names = draw(st.permutations(["surface", "pos", "label:IOB:ALPHA"]))
    pool = {"surface": ["a", "the", "#!x", "b#"], "pos": ["NN", "DT"],
            "label:IOB:ALPHA": ["O", "B", "I"]}
    row = st.tuples(*(st.sampled_from(pool[n]) for n in names))
    docs = draw(st.lists(st.lists(row, min_size=1, max_size=3),
                         min_size=1, max_size=3))
    lines = [f"#! columns = {' '.join(names)}"]
    for i, rows in enumerate(docs):
        lines += [f"#! doc = d{i}", *("\t".join(r) for r in rows), ""]
    return "\n".join(lines)


@st.composite
def profile_texts(draw):
    """Profiles of one or two event types, with names and proportions
    that ``validate`` must sort out."""
    names = draw(st.lists(st.sampled_from(["A", "B", "bad-type", "bgx"]),
                          min_size=1, max_size=2, unique=True))
    share = draw(st.sampled_from([1.0, 0.5, 0.0, 1.5]))
    events = {name: synth.EventSpec(p, {1: 0.5, 2: 0.5}, 0.5)
              for name, p in zip(names, [share, 1.0 - share])}
    return synth.profile_text(synth.SynthProfile(
        events, sentences_per_doc=2, background_vocab=20))


@st.composite
def matrix_texts(draw):
    """Run matrices of one or two repeats and folds, one event type."""
    repeats, folds = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    models = draw(st.lists(st.sampled_from(stats.MODEL_NAMES), min_size=1,
                           max_size=3, unique=True))
    f1 = st.sampled_from([0.0, 0.5, 1.0])
    cells = st.lists(st.tuples(f1, f1), min_size=repeats * folds,
                     max_size=repeats * folds)
    matrix = stats.RunMatrix(repeats, folds, tuple(models), ("P",))
    matrix.scores = {("P", m): draw(cells) for m in models}
    return matrix.tsv()


@functools.cache
def seed_files():
    """Role -> valid files, and strategies for more of them."""
    docs = synth.generate(synth.parse_profile(fuzz._profile_file()), 1, 4)
    model = crf.train(docs, default_template(transitions=True),
                      get_scheme("IOBW"), "ALPHA",
                      crf.TrainerConfig(max_iterations=5))
    return {
        "corpus": [corpus.write_column_file(docs, get_scheme("IOB")),
                   fuzz._column_file(), fuzz._joint_column_file(),
                   column_texts()],
        "model": [fuzz._model_file(), crf.save_model(model)],
        "template": ["U00:%x[0,1]\nU01:%x[-1,3]/%x[0,3]\nB\n"],
        "expander": [fuzz._EXPANDER_FILE],
        "profile": [fuzz._profile_file(), profile_texts()],
        "matrix": [fuzz._matrix_file(), matrix_texts()],
    }


@st.composite
def file_plans(draw, role, valid):
    """How to lay out one path: ("file", bytes), ("missing",), ("dir",) or,
    for an output, ("file", None) or ("no-dir",).  ``valid`` gives a seed
    file, or a fresh output path."""
    if role == "out":
        return draw(st.sampled_from(
            [("file", None)] + ([] if valid else [("no-dir",), ("dir",)])))
    seed = draw(st.sampled_from(seed_files()[role]))
    text = seed if isinstance(seed, str) else draw(seed)
    kind = "seed" if valid else draw(st.sampled_from(
        ["seed", "seed", "mutant", "mutant", "undecodable", "missing", "dir"]))
    if kind in ("missing", "dir"):
        return (kind,)
    if kind == "mutant":
        text = fuzz.mutate(text, draw(fuzz.EDITS))
    data = text.encode("utf-8")
    if kind == "undecodable":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return ("file", data)


@st.composite
def invocations(draw):
    """(argv, path -> file plan, whether one setting is the only fault).

    In "random" mode every flag and file is drawn from valid, invalid and
    unusable values; in "valid" mode only valid ones are; in "fault" mode
    all are valid but one setting: a flag value, or a missing settings
    file."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = COMMANDS[command]
    settable = [a for a in actions if a.dest in SETTING_VALUES
                or _role(command, a.dest) in SETTING_FILES]
    mode = draw(st.sampled_from(["random", "valid"]
                                + (["fault"] if settable else [])))
    fault = draw(st.sampled_from(settable)) if mode == "fault" else None
    valid = mode != "random"
    argv, plans = [command], {}
    for action in actions:
        if action is not fault and not action.required and draw(
                st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices is not None:
            argv += [flag, draw(st.sampled_from(
                list(action.choices) + ([] if valid else ["BILOU"])))]
        elif action.dest in SETTING_VALUES:
            good, bad = SETTING_VALUES[action.dest]
            values = (bad if action is fault else good if valid
                      else good * 2 + bad + _NOT_NUMBERS)
            argv += [flag, draw(st.sampled_from(values))]
        else:
            path = f"contract_{action.dest}"
            plans[path] = (("missing",) if action is fault else draw(
                file_plans(_role(command, action.dest), valid)))
            argv += [flag, path]
    return argv, plans, mode == "fault"


def lay_out(workdir, plans):
    """Make each path in ``workdir`` what its plan says; the names to pass
    for them."""
    names = {}
    for path, plan in plans.items():
        target = workdir / path
        if target.is_dir():
            target.rmdir()
        target.unlink(missing_ok=True)
        if plan[0] == "dir":
            target.mkdir()
        elif plan[0] == "file" and plan[1] is not None:
            target.write_bytes(plan[1])
        names[path] = str(target / "out" if plan[0] == "no-dir" else target)
    return names


@settings(max_examples=400, deadline=None)
@given(call=invocations())
def test_every_run_exits_0_1_or_2_with_one_line(workdir, call):
    argv, plans, setting_fault = call
    paths = lay_out(workdir, plans)
    argv = [paths.get(a, a) for a in argv]
    rc, out, err, parses = run_counting_parses(argv)
    assert rc in (0, 1, 2)
    if err.startswith("usage: "):  # argparse's own usage message
        assert rc == 2
    elif rc == 0:
        assert err == ""
    else:
        assert err.startswith("spantag: ") and err.count("\n") == 1, err
    if setting_fault:
        assert (rc, parses) == (2, 0), err
