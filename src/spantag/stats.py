"""Experiment harness: repeated k-fold cross-validation over model
configurations, balanced one-way ANOVA, pooled two-tailed unpaired
t-tests, and the regularized incomplete beta function behind their
p-values.

A "model" here is a named configuration: a tagging scheme plus an
optional post-processing mode ("IOBW+" is the IOBW scheme followed by
boundary adjustment and expansion).  Folds are shuffled with a seed
derived per (event type, repeat), so folds across event types are
unpaired.

Features depend on neither the scheme, the fold nor the event type, so
``crossval`` expands the corpus once (``crf.build_alphabet``) and every
fold renumbers that encoding (``EncodedCorpus.fold``); only the gold
labels are computed per scheme.  Under ``jobs`` > 1 each worker process
receives the encoding once, through the pool's initializer.
"""

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from . import crf
from .corpus import Document, check_event_type, ordered_event_types
from .errors import (ConfigError, NumericError, ParseError, check_count,
                     check_seed, split_lines)
from .evaluation import MODES, f1_scores
from .features import FeatureTemplate
from .postprocess import ExpanderConfig, pipeline_spans
from .rng import SplitMix64, derive_seed
from .schemes import get_scheme

# model configuration name -> (scheme name, post-processing mode)
MODEL_CONFIGS = {
    "IO": ("IO", "none"),
    "IOB": ("IOB", "none"),
    "IOBW": ("IOBW", "none"),
    "IOBW+": ("IOBW", "iobw+"),
}

MODEL_NAMES = tuple(MODEL_CONFIGS)


# --- special functions ---------------------------------------------------

_BETA_MAX_ITER = 500
_BETA_EPS = 1e-13
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_EPS:  # the odd step's factor
            return h
    raise NumericError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x})")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(log_front)
    # use whichever tail's continued fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def f_sf(f_stat: float, df1: float, df2: float) -> float:
    """P(F > f_stat) for the F distribution."""
    if f_stat <= 0:
        return 1.0
    x = df2 / (df2 + df1 * f_stat)
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, x)


def t_two_tailed(t_stat: float, df: float) -> float:
    """Two-tailed P(|T| > |t_stat|) for Student's t distribution."""
    if t_stat == 0:
        return 1.0
    x = df / (df + t_stat * t_stat)
    return reg_inc_beta(df / 2.0, 0.5, x)


# --- tests ----------------------------------------------------------------

@dataclass(frozen=True)
class StatResult:
    statistic: float
    p_value: float
    df: tuple[float, ...]
    degenerate: bool = False  # zero-variance sentinel, not a computed p


def anova_oneway(groups: list[list[float]]) -> StatResult:
    """Balanced one-way ANOVA: F = MS_between / MS_within."""
    k = len(groups)
    if k < 2:
        raise ValueError("ANOVA needs at least two groups")
    n = len(groups[0])
    if n < 2:
        raise ValueError("groups need at least two values")
    if any(len(g) != n for g in groups):
        raise ValueError("balanced design requires equal group sizes")
    means = [sum(g) / n for g in groups]
    grand = sum(means) / k
    ss_between = n * sum((m - grand) ** 2 for m in means)
    ss_within = sum((x - m) ** 2 for g, m in zip(groups, means) for x in g)
    df_between = k - 1
    df_within = k * (n - 1)
    if ss_within == 0.0:
        if ss_between == 0.0:
            return StatResult(0.0, 1.0, (df_between, df_within))
        return StatResult(math.inf, 0.0, (df_between, df_within),
                          degenerate=True)
    f_stat = (ss_between / df_between) / (ss_within / df_within)
    return StatResult(f_stat, f_sf(f_stat, df_between, df_within),
                      (df_between, df_within))


def ttest_unpaired(a: list[float], b: list[float]) -> StatResult:
    """Pooled-variance two-tailed unpaired Student's t-test."""
    na, nb = len(a), len(b)
    if na < 2 or nb < 2:
        raise ValueError("t-test needs at least two values per sample")
    mean_a = sum(a) / na
    mean_b = sum(b) / nb
    ss = (sum((x - mean_a) ** 2 for x in a)
          + sum((x - mean_b) ** 2 for x in b))
    df = na + nb - 2
    pooled = ss / df
    if pooled == 0.0:
        if mean_a == mean_b:
            return StatResult(0.0, 1.0, (df,))
        sign = 1.0 if mean_a > mean_b else -1.0
        return StatResult(sign * math.inf, 0.0, (df,), degenerate=True)
    t_stat = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    return StatResult(t_stat, t_two_tailed(t_stat, df), (df,))


# --- cross-validation harness ----------------------------------------------

@dataclass(frozen=True)
class CvConfig:
    repeats: int = 5
    folds: int = 5
    seed: int = 0
    models: tuple[str, ...] = MODEL_NAMES
    # None: every type in the documents, in ``ordered_event_types`` order
    event_types: tuple[str, ...] | None = None

    def __post_init__(self):
        check_count("folds", self.folds, 2)
        check_count("repeats", self.repeats, 1)
        check_seed(self.seed)
        unknown = [m for m in self.models if m not in MODEL_CONFIGS]
        if unknown:
            raise ConfigError(f"unknown model configurations: {unknown}")
        if not self.models:
            raise ConfigError("models must be non-empty")
        if self.event_types is not None and not self.event_types:
            raise ConfigError("event_types must be non-empty")
        for event_type in self.event_types or ():
            check_event_type(event_type)
        for name in ("models", "event_types"):
            values = getattr(self, name) or ()
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"repeated {name}: {repeated}")


@dataclass
class RunMatrix:
    repeats: int
    folds: int
    models: tuple[str, ...]
    event_types: tuple[str, ...]
    # (event, model) -> [(strict_f1, lenient_f1)] in (repeat, fold) order
    scores: dict[tuple[str, str], list[tuple[float, float]]] = field(
        default_factory=dict)

    def values(self, event_type: str, model: str, criterion: str) -> list[float]:
        pos = MODES.index(criterion)
        return [pair[pos] for pair in self.scores[(event_type, model)]]

    def tsv(self) -> str:
        lines = ["event\tmodel\trepeat\tfold\tstrict_f1\tlenient_f1"]
        for event_type in self.event_types:
            for model in self.models:
                cells = self.scores[(event_type, model)]
                for i, (strict, lenient) in enumerate(cells):
                    repeat, fold = divmod(i, self.folds)
                    lines.append(f"{event_type}\t{model}\t{repeat}\t{fold}"
                                 f"\t{strict!r}\t{lenient!r}")
        return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> RunMatrix:
    """Read the TSV emitted by ``RunMatrix.tsv``."""
    lines = [(no, ln) for no, ln in enumerate(split_lines(text), 1)
             if ln.strip()]
    if not lines or lines[0][1].split("\t")[:2] != ["event", "model"]:
        raise ParseError("missing run-matrix header",
                         lines[0][0] if lines else 1)
    cells_by_key: dict[tuple[str, str], dict[tuple[int, int], tuple[float, float]]] = {}
    first_line: dict[str, int] = {}  # event type -> line of its first row
    block_line: dict[tuple[str, str], int] = {}  # (event, model) -> the same
    max_repeat = max_fold = 0
    for line_no, raw in lines[1:]:
        parts = raw.split("\t")
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", line_no)
        event_type, model, repeat_s, fold_s, strict_s, lenient_s = parts
        try:
            repeat, fold = int(repeat_s), int(fold_s)
            pair = (float(strict_s), float(lenient_s))
        except ValueError as exc:
            raise ParseError(str(exc), line_no) from None
        if not all(0.0 <= f1 <= 1.0 for f1 in pair):
            raise ParseError(f"F1 values must lie in [0, 1], got {pair}",
                             line_no)
        if repeat < 0 or fold < 0:
            raise ParseError(
                f"repeat and fold must be non-negative, got {repeat}, {fold}",
                line_no)
        first_line.setdefault(event_type, line_no)
        block_line.setdefault((event_type, model), line_no)
        cells = cells_by_key.setdefault((event_type, model), {})
        if (repeat, fold) in cells:
            raise ParseError(f"duplicate cell ({event_type}, {model}, "
                             f"{repeat}, {fold})", line_no)
        cells[(repeat, fold)] = pair
        max_repeat = max(max_repeat, repeat)
        max_fold = max(max_fold, fold)
    repeats, folds = max_repeat + 1, max_fold + 1
    models = list(dict.fromkeys(model for _, model in cells_by_key))
    for event_type, line_no in first_line.items():
        for model in models:
            if (event_type, model) not in cells_by_key:
                raise ParseError(f"matrix has no cells for ({event_type}, "
                                 f"{model})", line_no)
    scores = {}
    for key, cells in cells_by_key.items():
        if len(cells) != repeats * folds:
            raise ParseError(
                f"matrix cell {key} has {len(cells)} of "
                f"{repeats * folds} values", block_line[key])
        if len(cells) < 2:  # the report's ANOVA and t-tests need two
            raise ParseError(f"matrix cell {key} has 1 value, not at least 2",
                             block_line[key])
        scores[key] = [cells[divmod(i, folds)] for i in range(repeats * folds)]
    return RunMatrix(repeats, folds, tuple(models), tuple(first_line), scores)


def fold_sizes(n_docs: int, folds: int) -> list[int]:
    base, extra = divmod(n_docs, folds)
    return [base + 1] * extra + [base] * (folds - extra)


def make_folds(n_docs: int, folds: int, seed: int) -> list[list[int]]:
    """Shuffled near-equal test folds (document indices)."""
    order = list(range(n_docs))
    SplitMix64(seed).shuffle(order)
    out = []
    at = 0
    for size in fold_sizes(n_docs, folds):
        out.append(sorted(order[at:at + size]))
        at += size
    return out


def _run_fold(encoded: crf.EncodedCorpus, models: tuple[str, ...],
              trainer: crf.TrainerConfig, template: FeatureTemplate,
              expander: ExpanderConfig, event_type: str, test_idx: list[int]):
    """Train every scheme the model list needs on the fold's training part
    of the shared encoding, decode its test sentences as one batch per
    scheme, then score each model."""
    train_part, test_part = encoded.fold(test_idx)
    gold = {d.id: d.spans_of(event_type) for d in test_part.docs}
    results = {}
    tagged = {}  # scheme name -> (model, label rows per test document)
    for model_name in models:
        scheme_name, mode = MODEL_CONFIGS[model_name]
        if scheme_name not in tagged:
            model = crf.train(train_part, template, get_scheme(scheme_name),
                              event_type, trainer)
            rows = model._decode(test_part.ids, test_part.lengths)
            tagged[scheme_name] = (model,
                                   crf.by_document(rows, test_part.docs))
        model, rows = tagged[scheme_name]
        system = {doc.id: pipeline_spans(doc_rows, doc, model.scheme,
                                         event_type, mode, expander)
                  for doc, doc_rows in zip(test_part.docs, rows)}
        results[model_name] = f1_scores(gold, system, event_type)
    return results


# ``_run_fold`` with the shared arguments, set by the pool initializer in
# each worker process: the encoding is sent once per worker, not per task
# (measured at --jobs 2 in BENCH_shared_encoding.json, "jobs2_pool")
_worker_fold = None


def _init_worker(*shared):
    global _worker_fold
    _worker_fold = functools.partial(_run_fold, *shared)


def _run_worker_fold(event_type: str, test_idx: list[int]):
    return _worker_fold(event_type, test_idx)


def crossval(docs: list[Document], cv: CvConfig,
             trainer: crf.TrainerConfig = crf.TrainerConfig(),
             template: FeatureTemplate | None = None,
             expander: ExpanderConfig = ExpanderConfig(),
             jobs: int = 1) -> RunMatrix:
    """Repeated k-fold cross-validation of every model configuration.

    Per (event type, repeat), documents are shuffled with a derived
    seed and split into near-equal folds; training order inside a fold
    follows corpus order so results are bit-reproducible regardless of
    ``jobs``.  The corpus is encoded once and shared by every task.
    Without ``cv.event_types``, every event type in ``docs`` is run.
    """
    check_count("jobs", jobs, 1)
    if cv.event_types is None:
        cv = replace(cv, event_types=tuple(ordered_event_types(
            {s.event_type for d in docs for s in d.gold_spans})))
    if template is None:
        from .features import default_template
        template = default_template(transitions=True)
    if len(docs) < cv.folds:
        raise ConfigError(
            f"need at least {cv.folds} documents, have {len(docs)}")
    tasks = []  # (event, repeat, fold, test_idx) in deterministic order
    for event_type in cv.event_types:
        for repeat in range(cv.repeats):
            fold_seed = derive_seed(cv.seed, event_type, repeat)
            for fold, test_idx in enumerate(
                    make_folds(len(docs), cv.folds, fold_seed)):
                tasks.append((event_type, repeat, fold, test_idx))

    shared = (crf.build_alphabet(docs, template), cv.models, trainer,
              template, expander)
    event_types = [t[0] for t in tasks]
    test_idxs = [t[3] for t in tasks]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=shared) as pool:
            outcomes = list(pool.map(_run_worker_fold, event_types, test_idxs))
    else:
        outcomes = list(map(functools.partial(_run_fold, *shared),
                            event_types, test_idxs))

    matrix = RunMatrix(cv.repeats, cv.folds, tuple(cv.models),
                       tuple(cv.event_types))
    for (event_type, repeat, fold, _), result in zip(tasks, outcomes):
        for model_name, pair in result.items():
            matrix.scores.setdefault((event_type, model_name), []).append(pair)
    for key, values in matrix.scores.items():
        if len(values) != cv.repeats * cv.folds:
            raise AssertionError(f"incomplete matrix cell {key}")
    return matrix


# --- report -----------------------------------------------------------------

def _fmt_p(result: StatResult) -> str:
    if result.degenerate:
        return "0 (degenerate: zero within-group variance)"
    return f"{result.p_value:.6g}"


def experiment_report(matrix: RunMatrix) -> str:
    """Per event type and criterion: model means, ANOVA, pairwise t-tests."""
    lines = []
    n = matrix.repeats * matrix.folds
    for event_type in matrix.event_types:
        for criterion in MODES:
            lines.append(f"== {event_type} / {criterion} F1 "
                         f"(n = {n} folds per model) ==")
            groups = {m: matrix.values(event_type, m, criterion)
                      for m in matrix.models}
            for model in matrix.models:
                mean = sum(groups[model]) / n
                lines.append(f"  mean {model:<6} {mean:.4f}")
            if len(matrix.models) >= 2:
                anova = anova_oneway([groups[m] for m in matrix.models])
                df1, df2 = anova.df
                f_text = ("inf" if math.isinf(anova.statistic)
                          else f"{anova.statistic:.4f}")
                lines.append(f"  ANOVA across models: F({df1:g}, {df2:g}) = "
                             f"{f_text}, p = {_fmt_p(anova)}")
                lines.append("  pairwise two-tailed unpaired t-tests:")
                for i, ma in enumerate(matrix.models):
                    for mb in matrix.models[i + 1:]:
                        tt = ttest_unpaired(groups[ma], groups[mb])
                        t_text = ("inf" if math.isinf(tt.statistic)
                                  else f"{tt.statistic:.4f}")
                        lines.append(
                            f"    {ma} vs {mb}: t({tt.df[0]:g}) = {t_text}, "
                            f"p = {_fmt_p(tt)}")
            lines.append("")
    lines.extend(_directional_summary(matrix))
    return "\n".join(lines) + "\n"


def _directional_summary(matrix: RunMatrix) -> list[str]:
    """Observed orderings, reported descriptively (corpus-dependent)."""
    n = matrix.repeats * matrix.folds
    lines = ["== directional summary (descriptive, not asserted) =="]
    for event_type in matrix.event_types:
        means = {m: sum(matrix.values(event_type, m, "strict")) / n
                 for m in matrix.models}
        ranking = sorted(matrix.models, key=lambda m: -means[m])
        order = " >= ".join(f"{m} ({means[m]:.4f})" for m in ranking)
        lines.append(f"  {event_type} strict-F1 ordering: {order}")
        if "IOBW" in matrix.models and "IOBW+" in matrix.models:
            base = sum(matrix.values(event_type, "IOBW", "lenient")) / n
            plus = sum(matrix.values(event_type, "IOBW+", "lenient")) / n
            lines.append(f"  {event_type} lenient-F1 IOBW+ minus IOBW: "
                         f"{plus - base:+.4f}")
    return lines
