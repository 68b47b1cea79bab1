"""Exception hierarchy shared across the package: one class per CLI exit code.

ConfigError -> 2; DataError -> 3; NumericError -> 4. The CLI also maps an
OSError to 3. Input is checked once, where the CLI reads it, so the code
below the CLI raises only these three for a run's own failures; a
programming error escapes as a builtin exception (KeyError, ValueError, ...).
"""


class OodbenchError(Exception):
    """Base class for all package errors."""


class ConfigError(OodbenchError):
    """Invalid configuration: bad value, unknown key, missing file reference."""

    exit_code = 2


class DataError(OodbenchError):
    """Malformed or inconsistent input data: a CSV, a checkpoint or a report file."""

    exit_code = 3


class NumericError(OodbenchError):
    """Non-finite value where a finite one is required, or a failed factorization."""

    exit_code = 4
