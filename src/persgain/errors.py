"""Exception taxonomy shared across the package: one PersgainError subclass
per kind of fault. ConfigError is an invalid value, ParseError a data file
that cannot be parsed, InternalError a broken invariant. The CLI maps the
first two onto exit 2; InternalError and anything else exit 1.
"""


class PersgainError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PersgainError, ValueError):
    """A value is invalid: a flag, a config or profile field, a dataset
    value, or a library argument outside its domain."""


class ParseError(PersgainError, ValueError):
    """A data file could not be parsed; message includes the offending row."""


class InternalError(PersgainError, RuntimeError):
    """A numeric invariant broke mid-computation (NaN, impossible state)."""
