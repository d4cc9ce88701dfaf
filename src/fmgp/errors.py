"""Exception types shared across the package, the three argument rules,
the one JSON-file reader and the one file writer.

The CLI maps these onto process exit codes; library code raises them
directly so callers can distinguish bad configuration from bad data and
from numerical failure.  check_count, check_positive and check_array
check every count, positive real and array a public call takes, and
read_json reads every JSON file; each raises the error class its caller
names.  write_file writes every file.  The CLI loads this module before
it caps the BLAS threads, so it imports no numpy at load time.
"""

import json
import numbers
import os


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

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


def read_json(path, error, what):
    """The JSON document at path; an unreadable file or a document that is
    not JSON raises error, naming what the file holds and its path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    except ValueError as exc:  # not JSON, not UTF-8, or an over-long integer
        raise error(f"{what} {path} is not valid JSON: {exc}") from None


def write_file(path, fill):
    """fill(fh) writes a text file beside path, path.tmp, that one rename
    then puts at path, so a failure leaves any earlier file there.  Any
    exception removes path.tmp; an OSError is a ConfigError naming path."""
    temp = f"{path}.tmp"
    try:
        fh = open(temp, "w", encoding="utf-8", newline="")
        try:
            with fh:
                fill(fh)
            os.replace(temp, path)
        except BaseException:
            os.remove(temp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


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


def check_array(name, value, shape, nonfinite=None):
    """value as a float64 array, not copied when it is one already.

    Each entry of shape is an axis length: an int, None for any length,
    or a name such as "n" for any length that the axes of that name share.
    A wrong rank or length is a ShapeError.  With nonfinite an error
    class, a NaN or an infinity raises it, naming the first bad row or 0-d value.
    """
    import numpy as np
    array = np.asarray(value, dtype=np.float64)
    lengths = {}
    if array.ndim != len(shape) or any(
            want is not None and got != (lengths.setdefault(want, got)
                                         if isinstance(want, str) else want)
            for want, got in zip(shape, array.shape)):
        expected = ", ".join("*" if want is None else str(want) for want in shape)
        raise ShapeError(f"{name} must have shape ({expected}), got {array.shape}")
    if nonfinite is not None and not np.isfinite(array).all():
        if array.ndim == 0:
            raise nonfinite(f"{name} must be finite, got {array}")
        row = int(np.argmin(np.isfinite(array.reshape(len(array), -1)).all(axis=1)))
        raise nonfinite(f"{name} must be finite, row {row} is {array[row]}")
    return array
