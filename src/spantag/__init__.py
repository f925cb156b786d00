"""Sequence labeling for clinical-style event mentions.

Column-annotated token corpora in, token-span mentions out: tagging-scheme
representation models (IO/IOB/IOBW/IOBEW), a template-driven linear-chain
CRF, label repair and boundary-adjustment post-processing, strict/lenient
span evaluation, and a repeated cross-validation harness with ANOVA and
t-test reporting, plus a seeded synthetic corpus generator to run the
whole pipeline on.  Every stage works in token positions.
"""

from .corpus import (CorpusProfile, Document, Sentence, Span, Token,
                     compute_profile, decode_document, encode_document,
                     parse_column_file, write_column_file)
from .crf import CrfModel, TrainerConfig, load_model, save_model, train
from .errors import (ConfigError, NumericError, ParseError,
                     RepresentabilityError, SchemeValidityError, SpantagError,
                     TrainingError)
from .evaluation import EvalReport, MatchCounts, evaluate, match_spans
from .features import (FeatureTemplate, default_template, feature_table,
                       parse_template)
from .postprocess import (ExpanderConfig, adjust_labels, expand_boundaries,
                          pipeline_spans)
from .schemes import SCHEME_NAMES, Scheme, get_scheme
from .stats import (CvConfig, RunMatrix, StatResult, anova_oneway, crossval,
                    experiment_report, parse_matrix, ttest_unpaired)
from .synth import SynthProfile, default_profile, generate, parse_profile

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CorpusProfile", "CrfModel", "CvConfig", "Document",
    "EvalReport", "ExpanderConfig", "FeatureTemplate", "MatchCounts",
    "NumericError", "ParseError", "RepresentabilityError", "RunMatrix",
    "SCHEME_NAMES", "Scheme", "SchemeValidityError", "Sentence", "Span",
    "SpantagError", "StatResult", "SynthProfile", "Token", "TrainerConfig",
    "TrainingError", "adjust_labels", "anova_oneway", "compute_profile",
    "crossval", "decode_document", "default_profile", "default_template",
    "encode_document", "evaluate", "expand_boundaries", "experiment_report",
    "feature_table", "generate", "get_scheme", "load_model", "match_spans",
    "parse_column_file", "parse_matrix", "parse_profile", "parse_template",
    "pipeline_spans", "save_model", "train", "ttest_unpaired",
    "write_column_file",
]
