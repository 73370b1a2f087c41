"""Exception types shared across the package."""


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
