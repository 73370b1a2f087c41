"""Disc-speed calibration and the actuator constraint envelope.

The pattern parameters of each disc are polynomial functions of that
disc's rotation speed (RPM): the center distance is linear, the radial
spread, center angle, and angular spread are quadratic.  Coefficients are
stored highest degree first, matching ``numpy.polyval``.  The stored
center-angle polynomial describes the right disc; the left disc uses its
negation so the two crescents mirror each other.

Actuator limits are box bounds on per-disc mass flow and RPM plus rate
limits between consecutive steps.  Rate limits apply to the Euclidean
norm of the (left, right) change pair.  Optimizers that must guarantee the
pair norm restrict each component to ``rate / sqrt(2)`` (see the controllers
module), and :func:`satisfies_constraints` checks the exact norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .spread import PatternParams


def _polyval(coeffs: tuple[float, ...], x: float) -> float:
    out = 0.0
    for c in coeffs:
        out = out * x + c
    return out


def _polyder(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    n = len(coeffs) - 1
    if n == 0:
        return (0.0,)
    return tuple(c * (n - k) for k, c in enumerate(coeffs[:-1]))


#: Each ``[pattern]`` key of a calibration file: the :class:`CalibrationModel`
#: field it sets and that polynomial's coefficient count.
_PATTERN_KEYS = {
    "distance": ("distance_coeffs", 2),
    "sigma_distance": ("sigma_distance_coeffs", 3),
    "angle": ("angle_coeffs", 3),
    "sigma_angle": ("sigma_angle_coeffs", 3),
}


@dataclass(frozen=True)
class CalibrationModel:
    """Polynomial maps from disc RPM to single-disc pattern parameters."""

    distance_coeffs: tuple[float, float]
    sigma_distance_coeffs: tuple[float, float, float]
    angle_coeffs: tuple[float, float, float]
    sigma_angle_coeffs: tuple[float, float, float]

    def __post_init__(self):
        for key, (name, expected) in _PATTERN_KEYS.items():
            coeffs = tuple(float(c) for c in getattr(self, name))
            if len(coeffs) != expected:
                raise ConfigurationError(
                    f"{name} needs {expected} coefficients (highest degree first), "
                    f"got {len(coeffs)}")
            if not all(math.isfinite(c) for c in coeffs):
                raise ConfigurationError(f"{name} contains non-finite coefficients")
            object.__setattr__(self, name, coeffs)
            # derivative coefficients, for the *_slope methods
            object.__setattr__(self, f"_{key}_slope_coeffs", _polyder(coeffs))

    def distance(self, rpm: float) -> float:
        return _polyval(self.distance_coeffs, rpm)

    def sigma_distance(self, rpm: float) -> float:
        return _polyval(self.sigma_distance_coeffs, rpm)

    def angle(self, rpm: float) -> float:
        """Right-disc center angle; the left disc uses the negation."""
        return _polyval(self.angle_coeffs, rpm)

    def sigma_angle(self, rpm: float) -> float:
        return _polyval(self.sigma_angle_coeffs, rpm)

    def distance_slope(self, rpm: float) -> float:
        return _polyval(self._distance_slope_coeffs, rpm)

    def sigma_distance_slope(self, rpm: float) -> float:
        return _polyval(self._sigma_distance_slope_coeffs, rpm)

    def angle_slope(self, rpm: float) -> float:
        return _polyval(self._angle_slope_coeffs, rpm)

    def sigma_angle_slope(self, rpm: float) -> float:
        return _polyval(self._sigma_angle_slope_coeffs, rpm)


#: Synthetic bench calibration shipped with the package.  At 600 RPM it
#: gives a 15 m pattern radius, 2 m radial spread, a center angle of about
#: 47 degrees, and 0.30 rad angular spread.
DEFAULT_CALIBRATION = CalibrationModel(
    distance_coeffs=(0.02, 3.0),
    sigma_distance_coeffs=(0.0, 1.0 / 300.0, 0.0),
    angle_coeffs=(1e-7, 0.0, math.pi / 4.0),
    sigma_angle_coeffs=(1e-8, 0.0, 0.3),
)


@dataclass(frozen=True)
class ControlConstraints:
    """Actuator envelope: per-disc boxes and per-step rate limits.

    Rates bound the Euclidean norm of the (left, right) change pair per
    step, in grams for flow and RPM for disc speed.
    """

    flow_min: float = 0.0
    flow_max: float = 200.0
    rpm_min: float = 300.0
    rpm_max: float = 900.0
    flow_rate_max: float = 20.0
    rpm_rate_max: float = 100.0

    def __post_init__(self):
        values = (self.flow_min, self.flow_max, self.rpm_min, self.rpm_max,
                  self.flow_rate_max, self.rpm_rate_max)
        if not all(math.isfinite(v) for v in values):
            raise ConfigurationError(f"constraints must be finite: {self}")
        if self.flow_min < 0 or self.flow_max < self.flow_min:
            raise ConfigurationError(
                f"flow bounds must satisfy 0 <= flow_min <= flow_max, "
                f"got [{self.flow_min}, {self.flow_max}]")
        if self.rpm_min <= 0 or self.rpm_max < self.rpm_min:
            raise ConfigurationError(
                f"rpm bounds must satisfy 0 < rpm_min <= rpm_max, "
                f"got [{self.rpm_min}, {self.rpm_max}]")
        if self.flow_rate_max <= 0 or self.rpm_rate_max <= 0:
            raise ConfigurationError(
                f"rate limits must be positive, got flow {self.flow_rate_max} "
                f"and rpm {self.rpm_rate_max}")

    def lower(self) -> np.ndarray:
        return np.array([self.flow_min, self.flow_min, self.rpm_min, self.rpm_min])

    def upper(self) -> np.ndarray:
        return np.array([self.flow_max, self.flow_max, self.rpm_max, self.rpm_max])

    def rates(self) -> np.ndarray:
        """Per-component rate limits in control-vector order."""
        return np.array([self.flow_rate_max, self.flow_rate_max,
                         self.rpm_rate_max, self.rpm_rate_max])


DEFAULT_CONSTRAINTS = ControlConstraints()


@dataclass(frozen=True)
class SpreaderControls:
    """One step's actuator command: per-disc mass flow [g] and disc speed [RPM]."""

    flow_left: float
    flow_right: float
    rpm_left: float
    rpm_right: float

    def __post_init__(self):
        values = (self.flow_left, self.flow_right, self.rpm_left, self.rpm_right)
        if not all(math.isfinite(v) for v in values):
            raise ShapeError(f"controls must be finite: {self}")

    def as_array(self) -> np.ndarray:
        return np.array([self.flow_left, self.flow_right, self.rpm_left, self.rpm_right])

    @classmethod
    def from_array(cls, values) -> "SpreaderControls":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (4,):
            raise ShapeError(f"controls need exactly 4 entries, got shape {arr.shape}")
        return cls(*(float(v) for v in arr))


def pattern_from_controls(rpm: float, mass_flow: float, cal: CalibrationModel,
                          side: str) -> PatternParams:
    """Evaluate the calibration at one disc's operating point.

    ``side`` is ``"left"`` or ``"right"`` and fixes the sign of the center
    angle.  Parameters that land outside the pattern domain (non-positive
    spreads, center angle at or beyond pi) or are not finite raise
    :class:`CalibrationDomainError`.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"disc side must be 'left' or 'right', got {side!r}")
    angle = cal.angle(rpm)
    if side == "left":
        angle = -angle
    # positional, in field order: keywords cost more per call
    return PatternParams(mass_flow, cal.distance(rpm), cal.sigma_distance(rpm), angle,
                         cal.sigma_angle(rpm))


def patterns_from_controls(controls: SpreaderControls,
                           cal: CalibrationModel) -> tuple[PatternParams, PatternParams]:
    """Left and right disc patterns for one control vector."""
    return (pattern_from_controls(controls.rpm_left, controls.flow_left, cal, "left"),
            pattern_from_controls(controls.rpm_right, controls.flow_right, cal, "right"))


# rounding slack of the feasibility test: absolute on the boxes, absolute
# plus relative on the rate limits
_FEASIBILITY_TOL = 1e-9


def satisfies_constraints(controls: SpreaderControls, previous: SpreaderControls,
                          constraints: ControlConstraints) -> bool:
    """Exact feasibility test: boxes plus Euclidean pair-norm rate limits."""
    tol = _FEASIBILITY_TOL
    u = controls.as_array()
    if np.any(u < constraints.lower() - tol) or np.any(u > constraints.upper() + tol):
        return False
    dflow = math.hypot(controls.flow_left - previous.flow_left,
                       controls.flow_right - previous.flow_right)
    drpm = math.hypot(controls.rpm_left - previous.rpm_left,
                      controls.rpm_right - previous.rpm_right)
    return (dflow <= constraints.flow_rate_max * (1.0 + tol) + tol
            and drpm <= constraints.rpm_rate_max * (1.0 + tol) + tol)


def pattern_range(coeffs: tuple[float, ...], lo: float, hi: float):
    """Least and greatest value of a pattern polynomial (degree 1 or 2,
    highest degree first) over ``[lo, hi]``, each as ``(value, rpm)``.  The
    only candidates are the bounds and a parabola's vertex between them."""
    vertex = -coeffs[1] / (2.0 * coeffs[0]) if len(coeffs) == 3 and coeffs[0] != 0.0 else lo
    rpms = [lo, hi, vertex] if lo < vertex < hi else [lo, hi]
    points = [(_polyval(coeffs, rpm), rpm) for rpm in rpms]
    return min(points), max(points)


def validate_calibration(cal: CalibrationModel, constraints: ControlConstraints) -> list[str]:
    """Check the pattern domain over the admissible RPM range by each
    parameter's least and greatest value there (:func:`pattern_range`); a
    value that overflows to infinity fails too.  Returns a list of
    human-readable problems; an empty list means the calibration is usable."""
    problems = []
    lo, hi = constraints.rpm_min, constraints.rpm_max
    for name, coeffs, ceiling, requirement in (
            ("center distance", cal.distance_coeffs, math.inf, "must be positive"),
            ("radial spread (sigma_distance)", cal.sigma_distance_coeffs, math.inf,
             "must be positive"),
            ("center angle", cal.angle_coeffs, math.pi, "must lie in (0, pi)"),
            ("angular spread (sigma_angle)", cal.sigma_angle_coeffs, math.inf,
             "must be positive")):
        least, greatest = pattern_range(coeffs, lo, hi)
        value, rpm = least if least[0] <= 0 else greatest
        if not 0 < value < ceiling:
            problems.append(f"{name} {requirement} over [{lo:g}, {hi:g}] RPM; "
                            f"violated at {rpm:g} RPM (value {value:g})")
    return problems


def load_calibration(path) -> tuple[CalibrationModel, ControlConstraints]:
    """Read a calibration file and validate it.

    The file has a ``[pattern]`` section with whitespace-separated
    polynomial coefficients (highest degree first) and a ``[constraints]``
    section with the actuator envelope.  Domain violations over the
    admissible RPM range are rejected at load time.
    """
    from .config import _SectionReader, field_names, read_ini

    parser = read_ini(path, "calibration file", {"pattern": tuple(_PATTERN_KEYS),
                                                 "constraints": field_names(ControlConstraints)})
    pattern = _SectionReader(parser, path, "pattern")
    coeffs = {attr: pattern.numbers(key) for key, (attr, _) in _PATTERN_KEYS.items()}
    cal = pattern.build(CalibrationModel, **coeffs)
    constraints = _SectionReader(parser, path, "constraints").instance(ControlConstraints)
    problems = validate_calibration(cal, constraints)
    if problems:
        raise ConfigurationError(
            f"calibration file {path} fails validation: " + "; ".join(problems))
    return cal, constraints
