"""Exception types shared across the package, and the integer check that
the constructors share."""

import math


class SpreadOptError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SpreadOptError):
    """A scenario, calibration file, or parameter set is unusable as given."""


class ShapeError(SpreadOptError, ValueError):
    """A matrix or vector does not have the dimensions the operation requires."""


class InvalidStateError(SpreadOptError, ValueError):
    """A kinematic state or command contains non-finite or out-of-range values."""


class CalibrationDomainError(SpreadOptError, ValueError):
    """Calibration polynomials produce pattern parameters outside their valid domain."""


class DegenerateGeometryError(SpreadOptError, ValueError):
    """A grid cell coincides with the vehicle position, so no bearing exists."""


class NumericalFailureError(SpreadOptError, ArithmeticError):
    """An optimization produced non-finite values and cannot continue."""


class RunAbortedError(SpreadOptError, RuntimeError):
    """A closed-loop run stopped early; carries the partial record for diagnosis.

    Attributes:
        record: partial run record accumulated before the failure, may be None.
        step: 1-based step index at which the failure occurred.
    """

    def __init__(self, message, record=None, step=None):
        super().__init__(message)
        self.record = record
        self.step = step


def checked_integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is a whole number of at least one, else
    a :class:`ConfigurationError` naming ``name``.  Every integer setting,
    from a file or from the library, is checked here once, by its
    constructor.  Finiteness is tested first: ``int()`` of an infinity or a
    NaN raises a bare OverflowError or ValueError, and ``math.isfinite`` of a
    value that is not a real number, such as a string, a bare TypeError."""
    try:
        whole = math.isfinite(value) and int(value) == value and value >= 1
    except TypeError:
        whole = False
    if not whole:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)
