"""Exception types shared across the package, and the two argument rules.

The CLI maps these onto process exit codes; library code raises them
directly so callers can distinguish bad configuration from bad data and
from numerical failure.  Every count and every positive real a public
call takes is checked by check_count or check_positive, which raise the
error class the caller names.  The CLI loads this module before it caps
the BLAS threads, so it imports no numpy at load time.
"""

import numbers


class FmgpError(Exception):
    """Base class for all package errors."""


class ConfigError(FmgpError):
    """Invalid configuration: unknown keys, malformed values, bad architecture."""


class ShapeError(FmgpError):
    """Array shape or dimension mismatch between arguments."""


class DomainError(FmgpError):
    """Argument outside its mathematical domain (e.g. a non-positive variance)."""


class DataError(FmgpError):
    """Unusable input data: parse failures, empty tables, degenerate labels."""


class NumericError(FmgpError):
    """Numerical failure: non-finite values, failed factorizations, lost positivity."""


class TrainingError(NumericError):
    """Optimization diverged; carries the iteration at which it happened."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def check_count(error, low=1, **values):
    """Raise error unless each value is a Python or numpy integer, not a
    bool, of at least low."""
    for name, value in values.items():
        # numbers.Integral holds Python's and numpy's integers and bool, not 3.0
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                           and value >= low):
            kind = "a nonnegative integer" if low == 0 else f"an integer >= {low}"
            raise error(f"{name} must be {kind}, got {value!r}")


def check_positive(error, **values):
    """Raise error unless each value, a scalar or an array, is finite and
    > 0 throughout."""
    import numpy as np
    for name, value in values.items():
        if not np.all(np.isfinite(value) & (np.asarray(value) > 0)):
            raise error(f"{name} must be finite and positive, got {value}")
