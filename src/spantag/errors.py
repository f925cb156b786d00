"""Exception hierarchy shared across the toolkit, the line splitter that
numbers every reader's lines, and the checks that a count or seed setting
is an integer in range and that a list setting holds no repeats."""

from numbers import Integral


class SpantagError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SpantagError):
    """Malformed input file (column files, templates, profiles, models)."""

    def __init__(self, message: str, line: int | None = None):
        self.reason = message
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def split_lines(text: str) -> list[str]:
    r"""Lines of ``text`` without their ends, as ``ParseError`` numbers them.

    Only "\n", "\r\n" and "\r" end a line: the breaks text-mode
    ``open()`` translates.  Unlike ``str.splitlines``, form feeds, file
    separators, NEL and U+2028/U+2029 stay inside their line.  A final
    line end opens no empty line.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


class RepresentabilityError(SpantagError):
    """A span set cannot be expressed in the requested tagging scheme."""


class SchemeValidityError(SpantagError):
    """A label sequence violates the tagging-scheme grammar."""

    def __init__(self, position: int, rule: str):
        self.position = position
        self.rule = rule
        super().__init__(f"position {position}: {rule}")


class ConfigError(SpantagError):
    """Invalid configuration or flag combination."""


def check_count(name: str, value, minimum: int) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer of at least
    ``minimum``; a bool or a float of integral value is not a count."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def check_seed(value) -> None:
    """Raise ``ConfigError`` unless ``value`` is an integer in [0, 2**64),
    the seeds ``SplitMix64`` tells apart; it masks any other integer onto
    one of them, so ``2**64`` would silently repeat seed 0."""
    check_count("seed", value, 0)
    if value >= 2**64:
        raise ConfigError(f"seed must be < 2**64, got {value}")


def check_distinct(name: str, values) -> None:
    """Raise ``ConfigError`` naming the values that ``values`` repeats."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"repeated {name}: {repeated}")


class TrainingError(SpantagError):
    """Training failed: the corpus holds no tokens to train on, or the
    optimizer failed, which carries its last iterate as a diagnostic."""

    def __init__(self, message: str, weights=None, log=None):
        self.weights = weights
        self.log = log
        super().__init__(message)


class NumericError(SpantagError):
    """A numeric routine hit a non-finite value or failed to converge."""
