"""Seeded synthetic corpus generator.

Documents are built from disjoint word namespaces (per-type content
words, per-type acronyms, background words) so that generated corpora
are deterministic, learnable, and statistically shaped: per event type
the generator hits a target mention-length histogram, unique-word
fraction, proportion among events, and acronym fraction.

Unique-word targets are met with a mint-or-reuse word process.  Every
content draw mints a previously unseen word with probability m and
otherwise reuses a uniform earlier word; since determiners and the
forced length-1 acronym mentions change the mintable-token budget, m is
solved from the target u as

    m = u * tau / (tau - delta)

with tau the expected mention length and delta the expected determiner
tokens per mention.

Within one ``generate`` call, tokens with equal surface, POS and chunk
cells are one shared, immutable ``Token``, built, stemmed and checked the
first time they appear, as ``parse_column_file`` shares the tokens of one
parse; no token is shared between two calls.
"""

import math
from dataclasses import dataclass

from .corpus import Document, Sentence, Span, Token, check_event_type
from .errors import (ConfigError, ParseError, check_count, check_seed,
                     split_lines)
from .postprocess import DEFAULT_DETERMINERS
from .rng import SplitMix64
from .textprep import porter_stem

_PROB_TOL = 1e-6
# Generation time and memory grow linearly in these two sizes, so one
# stray profile line could stall or exhaust the machine (20,000 sentences
# in one document take seconds and tens of MB).  Both limits sit far above
# the default profile's 4 sentences per document and 6-token mentions.
_MAX_SENTENCES_PER_DOC = 1000
_MAX_MENTION_LENGTH = 1000

_BACKGROUND_POS = ("VB", "IN", "JJ", "RB", "CC", "MD")
_NOUN_POS = ("NN", "NNS")

_DETERMINERS = tuple(sorted(DEFAULT_DETERMINERS))


@dataclass(frozen=True)
class EventSpec:
    proportion: float
    length_hist: dict[int, float]  # mention length -> fraction, sums to 1
    unique_word_fraction: float
    acronym_fraction: float = 0.0


@dataclass
class SynthProfile:
    events: dict[str, EventSpec]
    sentences_per_doc: int = 4
    mention_rate: float = 1.2       # mean mentions per sentence
    determiner_fraction: float = 0.35
    background_vocab: int = 150
    pos_noise: float = 0.05
    trigger_fraction: float = 0.85  # mentions preceded by a type-cue word

    def validate(self) -> None:
        if not self.events:
            raise ConfigError("profile has no event types")
        if self.background_vocab < 1:
            raise ConfigError("background vocabulary must be non-empty")
        if self.background_vocab > 2**64:  # words are drawn by randrange
            raise ConfigError("background vocabulary must be at most 2**64")
        if self.sentences_per_doc < 1:
            raise ConfigError("sentences_per_doc must be >= 1")
        if self.sentences_per_doc > _MAX_SENTENCES_PER_DOC:
            raise ConfigError(
                f"sentences_per_doc must be at most {_MAX_SENTENCES_PER_DOC}")
        if not 0 <= self.determiner_fraction <= 1:
            raise ConfigError("determiner_fraction must be in [0,1]")
        if not 0 <= self.pos_noise <= 1:
            raise ConfigError("pos_noise must be in [0,1]")
        if not 0 <= self.trigger_fraction <= 1:
            raise ConfigError("trigger_fraction must be in [0,1]")
        if self.mention_rate < 0:
            raise ConfigError("mention_rate must be >= 0")
        for name, spec in self.events.items():
            check_event_type(name)
            if spec.proportion < 0:
                raise ConfigError(f"{name}: proportion must be >= 0")
        total = sum(e.proportion for e in self.events.values())
        if abs(total - 1.0) > _PROB_TOL:
            raise ConfigError(f"event proportions sum to {total}, not 1")
        names = sorted(self.events)
        for i, name in enumerate(names):
            for other in names[i + 1:]:
                if other.startswith(name):
                    raise ConfigError(
                        f"event type {name!r} is a prefix of {other!r}; "
                        "generation namespaces would collide")
            if name.lower().startswith(("bg", "tg")):
                raise ConfigError(f"event type {name!r} collides with the "
                                  "background/trigger namespaces")
        prefixes = {}
        for name, spec in self.events.items():
            hist_total = sum(spec.length_hist.values())
            if abs(hist_total - 1.0) > _PROB_TOL:
                raise ConfigError(
                    f"{name}: length histogram sums to {hist_total}, not 1")
            if any(k < 1 or p < 0 for k, p in spec.length_hist.items()):
                raise ConfigError(f"{name}: bad length histogram")
            if max(spec.length_hist) > _MAX_MENTION_LENGTH:
                raise ConfigError(f"{name}: mention length must be at most "
                                  f"{_MAX_MENTION_LENGTH}")
            if not 0 <= spec.acronym_fraction <= 1:
                raise ConfigError(f"{name}: bad acronym fraction")
            if not 0 < spec.unique_word_fraction <= 1:
                raise ConfigError(f"{name}: unique_word_fraction must be "
                                  "in (0,1]")
            single = spec.length_hist.get(1, 0.0)
            if spec.acronym_fraction > single + _PROB_TOL:
                raise ConfigError(
                    f"{name}: acronym fraction {spec.acronym_fraction} "
                    f"exceeds single-token fraction {single} (acronym "
                    "mentions are single-token)")
            if spec.acronym_fraction > 0:
                prefix = name[:2].upper()
                if prefix in prefixes:
                    raise ConfigError(
                        f"{name} and {prefixes[prefix]} share acronym "
                        f"prefix {prefix!r}")
                prefixes[prefix] = name
            self._mint_prob(name)  # raises if unreachable

    def _mint_prob(self, name: str) -> float:
        """Solve the mint probability for the unique-word target."""
        spec = self.events[name]
        tau = sum(k * p for k, p in spec.length_hist.items())
        multi = 1.0 - spec.length_hist.get(1, 0.0)
        delta = self.determiner_fraction * multi
        m = spec.unique_word_fraction * tau / (tau - delta)
        if m > 1.0 + _PROB_TOL:
            raise ConfigError(
                f"{name}: unique-word target {spec.unique_word_fraction} "
                f"unreachable (needs mint probability {m:.3f} > 1); lower "
                "the target or the determiner fraction")
        return min(m, 1.0)


def _geometric_tail(single: float, decay: float = 0.5,
                    max_len: int = 6) -> dict[int, float]:
    """Length histogram: given single-token mass, decay the rest over 2..max."""
    weights = {k: decay ** (k - 2) for k in range(2, max_len + 1)}
    z = sum(weights.values())
    hist = {1: single}
    for k, w in weights.items():
        hist[k] = (1.0 - single) * w / z
    return hist


def default_profile() -> SynthProfile:
    """Event mix modeled on a clinical-events corpus: five types with
    fixed proportions, unique-word and acronym fractions, and reported
    single-token rates for EVIDENTIAL/OCCURRENCE; multi-token lengths
    fall off geometrically (the 0.40 single-token rate for the first
    three types is a synthetic default, not a measured value)."""
    rows = {
        # type: (proportion, single-token, unique words, acronyms)
        "PROBLEM": (0.3293, 0.40, 0.55, 0.09),
        "TEST": (0.1683, 0.40, 0.37, 0.24),
        "TREATMENT": (0.2511, 0.40, 0.43, 0.11),
        "OCCURRENCE": (0.2042, 0.70, 0.30, 0.01),
        "EVIDENTIAL": (0.0471, 0.96, 0.10, 0.00),
    }
    events = {
        name: EventSpec(proportion, _geometric_tail(single), unique, acro)
        for name, (proportion, single, unique, acro) in rows.items()
    }
    profile = SynthProfile(events)
    profile.validate()
    return profile


# --- profile files ---------------------------------------------------------

_GLOBAL_KEYS = ("sentences_per_doc", "mention_rate", "determiner_fraction",
                "background_vocab", "pos_noise", "trigger_fraction")
_INT_KEYS = ("sentences_per_doc", "background_vocab")


def profile_text(profile: SynthProfile) -> str:
    lines = [f"{key} = {getattr(profile, key)!r}" for key in _GLOBAL_KEYS]
    for name in sorted(profile.events):
        spec = profile.events[name]
        lines.append(f"{name}.proportion = {spec.proportion!r}")
        for k in sorted(spec.length_hist):
            lines.append(f"{name}.length.{k} = {spec.length_hist[k]!r}")
        lines.append(f"{name}.unique_word_fraction = "
                     f"{spec.unique_word_fraction!r}")
        lines.append(f"{name}.acronym_fraction = {spec.acronym_fraction!r}")
    return "\n".join(lines) + "\n"


def parse_profile(text: str) -> SynthProfile:
    """Read a profile file; also accepts corpus-profile reports (their
    count lines are ignored).  Types present keep defaults for any field
    left unset, mirroring default generation behavior."""
    profile = default_profile()
    globals_seen: dict[str, float] = {}
    raw_events: dict[str, dict] = {}
    keys_seen: set[str] = set()
    for line_no, raw in enumerate(split_lines(text), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise ParseError(f"expected key = value, got {line!r}", line_no)
        try:
            number = float(value)
        except ValueError:
            raise ParseError(f"bad number {value!r}", line_no) from None
        if not math.isfinite(number):
            raise ParseError(f"non-finite number {value!r}", line_no)
        if key in _INT_KEYS:
            if not number.is_integer():
                raise ParseError(f"{key} must be a whole number, got {value!r}",
                                 line_no)
            number = int(number)
        if key in keys_seen:
            raise ParseError(f"duplicate key {key!r}", line_no)
        keys_seen.add(key)
        if key in _GLOBAL_KEYS:
            globals_seen[key] = number
            continue
        if key == "total.count":
            continue
        parts = key.split(".")
        if len(parts) < 2:
            raise ParseError(f"unknown key {key!r}", line_no)
        name, fields = parts[0], parts[1:]
        entry = raw_events.setdefault(
            name, {"line": line_no, "length_hist": {}, "proportion": None,
                   "unique_word_fraction": None, "acronym_fraction": 0.0})
        if fields == ["count"]:
            continue
        if fields == ["proportion"]:
            entry["proportion"] = number
        elif fields == ["unique_word_fraction"]:
            entry["unique_word_fraction"] = number
        elif fields == ["acronym_fraction"]:
            entry["acronym_fraction"] = number
        elif len(fields) == 2 and fields[0] == "length":
            try:
                length = int(fields[1])
            except ValueError:
                raise ParseError(f"bad length key {key!r}", line_no) from None
            if length in entry["length_hist"]:
                raise ParseError(f"duplicate length {length} for {name}",
                                 line_no)
            entry["length_hist"][length] = number
        else:
            raise ParseError(f"unknown key {key!r}", line_no)
    if raw_events:
        events = {}
        for name, entry in raw_events.items():
            if entry["proportion"] is None:
                raise ParseError(f"{name}: missing proportion", entry["line"])
            if entry["unique_word_fraction"] is None:
                raise ParseError(f"{name}: missing unique_word_fraction",
                                 entry["line"])
            if not entry["length_hist"]:
                raise ParseError(f"{name}: missing length histogram",
                                 entry["line"])
            events[name] = EventSpec(
                entry["proportion"], entry["length_hist"],
                entry["unique_word_fraction"], entry["acronym_fraction"])
        profile.events = events
    for key, number in globals_seen.items():
        setattr(profile, key, number)
    profile.validate()
    return profile


# --- generation -------------------------------------------------------------

def _base26(i: int) -> str:
    out = ""
    while True:
        out = chr(97 + i % 26) + out
        i //= 26
        if i == 0:
            return out


class _WordPool:
    """Mint-or-reuse word source over one namespace."""

    def __init__(self, prefix: str, mint_prob: float, upper: bool = False):
        self.prefix = prefix
        self.mint_prob = mint_prob
        self.upper = upper
        self.words: list[str] = []

    def draw(self, rng: SplitMix64) -> str:
        if not self.words or rng.uniform() < self.mint_prob:
            word = self.prefix + _base26(len(self.words))
            if self.upper:
                word = word.upper()
            self.words.append(word)
            return word
        return self.words[rng.randrange(len(self.words))]


def _poisson(rng: SplitMix64, rate: float, cap: int) -> int:
    if rate <= 0:
        return 0
    threshold = math.exp(-rate)
    k, p = 0, 1.0
    while True:
        p *= rng.uniform()
        if p <= threshold or k >= cap:
            return k
        k += 1


class _Generator:
    def __init__(self, profile: SynthProfile, seed: int):
        profile.validate()
        self.profile = profile
        self.rng = SplitMix64(seed)
        # one generate call's Tokens by "surface\tpos\tchunk", as
        # parse_column_file keys them, and its stems by surface
        self.tokens: dict[str, Token] = {}
        self.stems: dict[str, str] = {}
        self.types = sorted(profile.events)
        self.type_weights = [profile.events[t].proportion for t in self.types]
        self.content = {t: _WordPool(t.lower(), profile._mint_prob(t))
                        for t in self.types}
        self.acronyms = {t: _WordPool(t[:2], profile._mint_prob(t), upper=True)
                         for t in self.types}
        # small reused cue lexicons make held-out mentions findable by
        # context even when their words were never seen in training
        self.triggers = {t: tuple(f"tg{t.lower()}{ch}" for ch in "abc")
                         for t in self.types}
        # non-acronym length distribution h', renormalized after forcing
        # acronym mentions to length 1
        self.content_lengths = {}
        for t in self.types:
            spec = profile.events[t]
            a = spec.acronym_fraction
            if a >= 1.0 - 1e-12:
                self.content_lengths[t] = ([1], [1.0])
                continue
            ks, ps = [], []
            for k in sorted(spec.length_hist):
                p = spec.length_hist[k]
                if k == 1:
                    p = (p - a) / (1.0 - a)
                else:
                    p = p / (1.0 - a)
                if p > 0:
                    ks.append(k)
                    ps.append(p)
            self.content_lengths[t] = (ks, ps)

    def _token(self, surface: str, pos: str, chunk: str) -> Token:
        """The call's one ``Token`` for these cells: built, stemmed and
        checked the first time they appear."""
        key = f"{surface}\t{pos}\t{chunk}"
        token = self.tokens.get(key)
        if token is None:
            stem = self.stems.get(surface)
            if stem is None:
                stem = self.stems[surface] = porter_stem(surface)
            token = self.tokens[key] = Token(surface, stem, pos, chunk)
        return token

    def _background_token(self) -> Token:
        vocab = self.profile.background_vocab
        surface = "bg" + _base26(self.rng.randrange(vocab))
        if self.rng.bernoulli(self.profile.pos_noise):
            return self._token(surface, "NN", "B-NP")
        pos = _BACKGROUND_POS[self.rng.randrange(len(_BACKGROUND_POS))]
        return self._token(surface, pos, "O")

    def _entity_pos(self) -> str:
        if self.rng.bernoulli(self.profile.pos_noise):
            return "JJ"
        return _NOUN_POS[self.rng.randrange(len(_NOUN_POS))]

    def _mention(self, event_type: str) -> list[Token]:
        spec = self.profile.events[event_type]
        if self.rng.uniform() < spec.acronym_fraction:
            word = self.acronyms[event_type].draw(self.rng)
            return [self._token(word, "NN", "B-NP")]
        ks, ps = self.content_lengths[event_type]
        length = ks[self.rng.categorical(ps)]
        tokens = []
        if length >= 2 and self.rng.bernoulli(self.profile.determiner_fraction):
            det = _DETERMINERS[self.rng.randrange(len(_DETERMINERS))]
            tokens.append(self._token(det, "DT", "B-NP"))
        while len(tokens) < length:
            word = self.content[event_type].draw(self.rng)
            chunk = "B-NP" if not tokens else "I-NP"
            tokens.append(self._token(word, self._entity_pos(), chunk))
        return tokens

    def _sentence(self, sentence_index: int, spans: list[Span]) -> Sentence:
        n_mentions = _poisson(self.rng, self.profile.mention_rate, cap=4)
        tokens: list[Token] = []

        def background_run(min_len: int = 1):
            for _ in range(min_len + self.rng.randrange(3)):
                tokens.append(self._background_token())

        background_run()
        for _ in range(n_mentions):
            event_type = self.types[self.rng.categorical(self.type_weights)]
            if self.rng.bernoulli(self.profile.trigger_fraction):
                cues = self.triggers[event_type]
                tokens.append(self._token(cues[self.rng.randrange(len(cues))],
                                          "VB", "O"))
            mention = self._mention(event_type)
            start = len(tokens)
            tokens.extend(mention)
            spans.append(Span(sentence_index, start, len(tokens), event_type))
            background_run()  # keeps mentions separated for every scheme
        return Sentence(tokens)

    def document(self, index: int) -> Document:
        spans: list[Span] = []
        sentences = [self._sentence(i, spans)
                     for i in range(self.profile.sentences_per_doc)]
        return Document(f"synth-{index:04d}", sentences, spans)


def generate(profile: SynthProfile, seed: int, n_documents: int) -> list[Document]:
    """Deterministic corpus: same (profile, seed, n) -> identical output.

    ``seed`` must be an integer in [0, 2**64).  Within one call, tokens
    with equal surface, POS and chunk cells are one shared, immutable
    ``Token``, stemmed once; no token is shared between two calls.
    """
    check_count("document count", n_documents, 0)
    check_seed(seed)
    gen = _Generator(profile, seed)
    return [gen.document(i) for i in range(n_documents)]
