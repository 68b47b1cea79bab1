"""Exception hierarchy shared across the package.

Exit codes the CLI maps them to: ConfigError, GraphError and ShapeError
-> 2; DataError -> 3; NumericError -> 4. The CLI also maps an OSError to 3.
Everything else is a programming error and escapes.
"""


class OodbenchError(Exception):
    """Base class for all package errors."""


class ConfigError(OodbenchError):
    """Invalid configuration: bad value, unknown key, missing file reference."""

    exit_code = 2


class DataError(OodbenchError):
    """Malformed or inconsistent data (CSV parse failure, shape problems)."""

    exit_code = 3


class NumericError(OodbenchError):
    """Non-finite value where a finite one is required, or a failed factorization."""

    exit_code = 4


class GraphError(OodbenchError):
    """Ill-formed expression-graph usage: unbound input, unknown name, non-scalar root."""

    exit_code = 2


class ShapeError(OodbenchError):
    """Operand shapes incompatible with the requested operation."""

    exit_code = 2
