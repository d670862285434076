"""Exception hierarchy shared across the package.

The CLI maps these to exit codes: ConfigError -> 1, DataError -> 2,
NumericalError (and numpy's LinAlgError) -> 3.
"""

import math
import numbers


class MoeError(Exception):
    """Base class for all package errors."""


class ConfigError(MoeError):
    """Invalid configuration or incompatible shapes/options."""


class DataError(MoeError):
    """Problems with input data files or dataset contents."""


class NumericalError(MoeError):
    """Numerical failure: rank deficiency, invalid activation, degenerate model."""


def require_numbers(settings, ints=(), reals=()):
    """ConfigError unless each field named in ``ints`` of ``settings`` is an
    integer and each one in ``reals`` a finite real number; a bool is neither.

    A JSON config can give 2.5 or "2" where a count belongs, or NaN or
    Infinity where a number does, and each passes a range check or numpy
    would only fail on it later, with a traceback.
    """
    for names, kind, what in ((ints, numbers.Integral, "an integer"),
                              (reals, numbers.Real, "a finite number")):
        for name in names:
            value = getattr(settings, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not -math.inf < value < math.inf):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
