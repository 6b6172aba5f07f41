"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: validation problems (bad parameter
values, malformed configs, unparseable data files) exit 2; InternalError
and anything else exit 1.
"""


class PersgainError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PersgainError, ValueError):
    """A parameter or data value is outside its admissible domain."""


class ConfigError(PersgainError, ValueError):
    """A configuration document is malformed or internally inconsistent."""


class ParseError(PersgainError, ValueError):
    """A data file could not be parsed; message includes the offending row."""


class InternalError(PersgainError, RuntimeError):
    """A numeric invariant broke mid-computation (NaN, impossible state)."""
