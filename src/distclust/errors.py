"""Exception hierarchy shared by all modules."""

import copyreg
import math
from contextlib import contextmanager


class DistclustError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(DistclustError):
    """Matrix input is malformed (non-square, non-finite, wrong shape)."""


class NotPositiveSemidefinite(DistclustError):
    """Matrix has an eigenvalue below the PSD tolerance floor."""


class SingularMatrix(DistclustError):
    """Matrix has a non-positive eigenvalue where SPD is required."""


class DimensionMismatch(DistclustError):
    """Operands do not share a common dimension."""


class InsufficientSamples(DistclustError):
    """A sample group is too small for unbiased covariance estimation."""


class NumericalError(DistclustError):
    """A computed quantity violates a numerical sanity bound."""


class MetricNotSymmetric(DistclustError):
    """An asymmetric distance matrix was passed where symmetry is required."""


class InvalidBandwidth(DistclustError):
    """Kernel bandwidth must be strictly positive."""


class EmptyCluster(DistclustError):
    """A cluster has no members where a non-empty cluster is required."""


class InvalidConfig(DistclustError):
    """Configuration or parameter values are out of range."""


class SchemaError(DistclustError):
    """An input file does not match the expected schema."""


class RowError(DistclustError):
    """A data row could not be parsed.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line

    def __reduce__(self):
        # rebuild from the formatted message and the line attribute without
        # calling __init__, so the error survives a trip through a worker pool
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


def _check_non_negative(name: str, value: float) -> None:
    """InvalidConfig naming a ridge scale or noise sigma not finite and >= 0."""
    if not (math.isfinite(value) and value >= 0):
        raise InvalidConfig(f"{name} must be finite and non-negative, got {value}")


def _prefixed(exc: Exception, prefix: str) -> Exception:
    """The same error class and attributes, its message prefixed with where
    it arose: the trial seed that raised it, or the file and model."""
    named = type(exc).__new__(type(exc), f"{prefix}: {exc}")
    named.__dict__.update(exc.__dict__)
    return named


@contextmanager
def _decoding(path):
    """SchemaError naming ``path`` for text read from it that is not UTF-8."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text ({err})") from None
