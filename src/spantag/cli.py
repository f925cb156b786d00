"""Command-line surface: train, tag, eval, crossval, synth, profile, stats.

Exit codes: 0 on success; 2 on a bad setting (flag, missing file, flag
combination), checked before any corpus is read; 1 on a bad file's
contents, a numeric failure or an I/O error.  Any other exception is a bug.
Every command is deterministic given identical inputs, flags, and seeds.
"""

import argparse
import sys

from . import corpus, crf, evaluation, stats, synth
from .errors import (ConfigError, ParseError, SpantagError, check_count,
                     split_lines)
from .features import FeatureTemplate, default_template, parse_template
from .postprocess import (ExpanderConfig, POST_MODES, parse_expander_config,
                          pipeline_spans)
from .schemes import SCHEME_NAMES, get_scheme


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(split_lines(data[:exc.start].decode("utf-8") + "."))
        raise ParseError(f"{what} is not UTF-8: {exc.reason}", line) from None


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_template(args) -> FeatureTemplate:
    no_transitions = getattr(args, "no_transitions", False)
    if args.template is None:
        return default_template(transitions=not no_transitions)
    template = parse_template(_read_text(args.template, "template"))
    if no_transitions and template.transitions:
        text = "\n".join(line for line in split_lines(template.text)
                         if line.strip() != "B")
        template = FeatureTemplate(template.rules, False, text + "\n")
    return template


def _load_expander(args) -> ExpanderConfig:
    if getattr(args, "expander", None) is None:
        return ExpanderConfig()
    return parse_expander_config(_read_text(args.expander, "expander config"))


def _trainer_config(args) -> crf.TrainerConfig:
    return crf.TrainerConfig(C=args.C, eta=args.eta,
                             max_iterations=args.max_iter)


def _parse_list(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _parse_types(value: str) -> tuple[str, ...]:
    types = _parse_list(value)
    if not types:
        raise ConfigError("event_types must be non-empty")
    for event_type in types:
        corpus.check_event_type(event_type)
    return types


def _load_corpus(path: str) -> list[corpus.Document]:
    return corpus.parse_column_file(_read_text(path, "corpus"))


# --- commands ----------------------------------------------------------------

def cmd_train(args) -> int:
    scheme = get_scheme(args.scheme)
    template = _load_template(args)
    trainer = _trainer_config(args)
    corpus.check_event_type(args.type)
    model = crf.train(_load_corpus(args.input), template, scheme, args.type,
                      trainer)
    _emit(crf.save_model(model), args.model)
    log = model.log
    print(f"trained {args.type} ({scheme.name}): "
          f"{model.alphabet.n_features} features, "
          f"{log.iterations} iterations, converged={log.converged}")
    return 0


def cmd_tag(args) -> int:
    model = crf.load_model(_read_text(args.model, "model"))
    if args.post == "iobw+" and model.scheme.name != "IOBW":
        raise ConfigError("post-processing iobw+ requires scheme IOBW, "
                          f"not {model.scheme.name}")
    expander = _load_expander(args)
    docs = _load_corpus(args.input)
    tagged = []
    for doc, rows in zip(docs, model.tag_documents(docs)):
        spans = pipeline_spans(rows, doc, model.scheme, model.event_type,
                               mode=args.post, config=expander)
        tagged.append(corpus.Document(doc.id, doc.sentences, spans))
    _emit(corpus.write_column_file(tagged, model.scheme, [model.event_type]),
          args.output)
    return 0


def cmd_eval(args) -> int:
    types = list(_parse_types(args.types)) if args.types else None
    gold = {d.id: d.gold_spans for d in _load_corpus(args.gold)}
    system = {d.id: d.gold_spans for d in _load_corpus(args.system)}
    report = evaluation.evaluate(gold, system, event_types=types)
    print(report.tsv() if args.tsv else report.text(), end="")
    return 0


def cmd_crossval(args) -> int:
    cv = stats.CvConfig(repeats=args.repeats, folds=args.folds,
                        seed=args.seed, models=_parse_list(args.models),
                        event_types=(_parse_types(args.types) if args.types
                                     else None))
    trainer = _trainer_config(args)
    template = _load_template(args)
    expander = _load_expander(args)
    check_count("jobs", args.jobs, 1)
    matrix = stats.crossval(_load_corpus(args.input), cv, trainer=trainer,
                            template=template, expander=expander,
                            jobs=args.jobs)
    tsv = matrix.tsv()
    if args.matrix is not None:
        _emit(tsv, args.matrix)
    print(tsv)
    print(stats.experiment_report(matrix), end="")
    return 0


def cmd_synth(args) -> int:
    profile = (synth.parse_profile(_read_text(args.profile, "profile"))
               if args.profile else synth.default_profile())
    docs = synth.generate(profile, args.seed, args.docs)
    _emit(corpus.write_column_file(docs, get_scheme(args.scheme)), args.output)
    return 0


def cmd_profile(args) -> int:
    print(corpus.compute_profile(_load_corpus(args.input)).report(), end="")
    return 0


def cmd_stats(args) -> int:
    matrix = stats.parse_matrix(_read_text(args.matrix, "run matrix"))
    print(stats.experiment_report(matrix), end="")
    return 0


# --- parser ------------------------------------------------------------------

def _add_trainer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--template", metavar="PATH",
                        help="feature template file (default: built-in)")
    parser.add_argument("--no-transitions", action="store_true",
                        help="drop label-bigram transition weights")
    defaults = crf.TrainerConfig()
    parser.add_argument("--C", type=float, default=defaults.C,
                        help=f"regularization strength (default {defaults.C})")
    parser.add_argument("--eta", type=float, default=defaults.eta,
                        help="relative-improvement stop threshold")
    parser.add_argument("--max-iter", type=int,
                        default=defaults.max_iterations,
                        help="optimizer iteration cap")


def _add_post_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--post", choices=POST_MODES, default="none",
                        help="boundary post-processing mode")
    parser.add_argument("--expander", metavar="PATH",
                        help="boundary-expander configuration file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spantag",
        description="Tagging-scheme sequence labeling: CRF training, "
                    "boundary post-processing, span evaluation, and "
                    "cross-validated significance testing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a per-event-type model")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="training corpus (column file)")
    p.add_argument("--model", required=True, metavar="PATH",
                   help="output model file")
    p.add_argument("--type", required=True, metavar="EVENT",
                   help="event type to model")
    p.add_argument("--scheme", choices=SCHEME_NAMES, default="IOB")
    _add_trainer_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="label a corpus with a trained model")
    p.add_argument("--model", required=True, metavar="PATH")
    p.add_argument("--input", required=True, metavar="PATH",
                   help="corpus to label (column file)")
    p.add_argument("--output", metavar="PATH",
                   help="output column file (default: stdout)")
    _add_post_flags(p)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="strict + lenient span evaluation")
    p.add_argument("--gold", required=True, metavar="PATH")
    p.add_argument("--system", required=True, metavar="PATH")
    p.add_argument("--types", metavar="A,B,...",
                   help="restrict to these event types")
    p.add_argument("--tsv", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("crossval",
                       help="repeated cross-validation experiment")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--models", default=",".join(stats.MODEL_NAMES),
                   metavar="A,B,...",
                   help="model configurations to compare")
    p.add_argument("--types", metavar="A,B,...",
                   help="event types (default: all in corpus)")
    p.add_argument("--matrix", metavar="PATH",
                   help="also write the per-fold score matrix TSV here")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel fold training (same output for any N)")
    _add_trainer_flags(p)
    p.add_argument("--expander", metavar="PATH",
                   help="boundary-expander configuration file")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--docs", type=int, default=100,
                   help="number of documents")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", metavar="PATH",
                   help="generation profile (default: built-in)")
    p.add_argument("--scheme", choices=SCHEME_NAMES, default="IOB",
                   help="scheme for the emitted label columns")
    p.add_argument("--output", metavar="PATH",
                   help="output column file (default: stdout)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="corpus mention statistics")
    p.add_argument("--input", required=True, metavar="PATH")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("stats", help="report on a saved score matrix")
    p.add_argument("--matrix", required=True, metavar="PATH")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"spantag: configuration error: {exc}", file=sys.stderr)
        return 2
    except (SpantagError, OSError) as exc:
        print(f"spantag: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
