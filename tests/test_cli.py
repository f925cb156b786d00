"""Command-line behavior: end-to-end flows, formats, and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spantag
from spantag import corpus, crf, stats, synth
from spantag.cli import main


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


class TestProfileCommand:
    def test_reports_mention_statistics(self, corpus_file, capsys):
        assert main(["profile", "--input", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("total.count = ")
        assert "ALPHA.proportion = " in out
        # the report doubles as a generation profile
        assert synth.parse_profile(out)


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

    def test_no_transitions_flag(self, workdir, corpus_file):
        path = workdir / "notrans.model"
        rc = main(["train", "--input", str(corpus_file), "--model", str(path),
                   "--type", "ALPHA", "--no-transitions", "--max-iter", "40"])
        assert rc == 0
        assert "transitions = false" in path.read_text("utf-8")

    def test_post_flag_must_match_scheme(self, workdir, corpus_file, capsys):
        rc = main(["train", "--input", str(corpus_file),
                   "--model", str(workdir / "never.model"),
                   "--type", "ALPHA", "--scheme", "IOB", "--post", "iobw+"])
        assert rc == 2
        assert "requires scheme IOBW" in capsys.readouterr().err

    def test_missing_template_is_a_config_error(self, workdir, corpus_file,
                                                capsys):
        rc = main(["train", "--input", str(corpus_file),
                   "--model", str(workdir / "never.model"), "--type", "ALPHA",
                   "--template", str(workdir / "missing.tpl")])
        assert rc == 2
        assert "template not found" in capsys.readouterr().err

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
        src = str(Path(spantag.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "spantag.cli", "tag", "--model", str(cut),
             "--input", str(corpus_file)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "line 4" in proc.stderr

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

    def test_unknown_model_name(self, corpus_file, capsys):
        rc = main(["crossval", "--input", str(corpus_file),
                   "--repeats", "1", "--folds", "2",
                   "--models", "IO,BILOU", "--types", "ALPHA"])
        assert rc == 2
        assert "unknown model" in capsys.readouterr().err
