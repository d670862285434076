"""Exception hierarchy shared across the package.

The CLI maps these to exit codes: ConfigError -> 1, DataError -> 2,
NumericalError (and numpy's LinAlgError) -> 3.
"""


class MoeError(Exception):
    """Base class for all package errors."""


class ConfigError(MoeError):
    """Invalid configuration or incompatible shapes/options."""


class DataError(MoeError):
    """Problems with input data files or dataset contents."""


class NumericalError(MoeError):
    """Numerical failure: rank deficiency, invalid activation, degenerate model."""
