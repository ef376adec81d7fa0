"""Exception types shared across the toolkit.

ConfigError maps to CLI exit code 2, DataError (like an OSError) to exit code 3.
"""


class PolarityError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PolarityError):
    """Bad paths, flags, or option combinations supplied by the caller."""


class DataError(PolarityError):
    """Input data that cannot be parsed or is otherwise unusable."""


def one_of(kind: str, value, choices):
    """*value* when it is one of *choices*; otherwise a ConfigError naming every choice."""
    if value not in choices:
        *rest, last = map(repr, choices)
        raise ConfigError(f"unknown {kind} {value!r} (expected {', '.join(rest)} or {last})")
    return value
