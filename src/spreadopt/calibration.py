"""Disc-speed calibration and the actuator constraint envelope.

The pattern parameters of each disc are polynomial functions of that
disc's rotation speed (RPM): the center distance is linear, the radial
spread, center angle, and angular spread are quadratic.  Coefficients are
stored highest degree first, matching ``numpy.polyval``.  The stored
center-angle polynomial describes the right disc; the left disc uses its
negation so the two crescents mirror each other.

Actuator limits are box bounds on per-disc mass flow and RPM plus rate
limits between consecutive steps.  Rate limits apply to the Euclidean
norm of the (left, right) change pair.  :func:`clamp_controls` projects a
requested control componentwise onto the boxes intersected with the
full-rate window around the previous control; optimizers that must
guarantee the pair norm restrict each component to ``rate / sqrt(2)``
instead (see the controllers module) and
:func:`satisfies_constraints` checks the exact norm.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.exceptions import RankWarning

from .errors import CalibrationDomainError, ConfigurationError, ShapeError
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


@dataclass(frozen=True)
class CalibrationModel:
    """Polynomial maps from disc RPM to single-disc pattern parameters."""

    distance_coeffs: tuple[float, float]
    sigma_distance_coeffs: tuple[float, float, float]
    angle_coeffs: tuple[float, float, float]
    sigma_angle_coeffs: tuple[float, float, float]

    def __post_init__(self):
        for name, expected in (("distance_coeffs", 2), ("sigma_distance_coeffs", 3),
                               ("angle_coeffs", 3), ("sigma_angle_coeffs", 3)):
            coeffs = tuple(float(c) for c in getattr(self, name))
            if len(coeffs) != expected:
                raise ConfigurationError(
                    f"{name} needs {expected} coefficients (highest degree first), "
                    f"got {len(coeffs)}")
            if not all(math.isfinite(c) for c in coeffs):
                raise ConfigurationError(f"{name} contains non-finite coefficients")
            object.__setattr__(self, name, coeffs)
        # derivative coefficients of each polynomial, for the *_slope methods
        for name in ("distance", "sigma_distance", "angle", "sigma_angle"):
            object.__setattr__(self, f"_{name}_slope_coeffs",
                               _polyder(getattr(self, f"{name}_coeffs")))

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
    spreads, center angle at or beyond pi) raise
    :class:`CalibrationDomainError`.
    """
    if side not in ("left", "right"):
        raise ConfigurationError(f"disc side must be 'left' or 'right', got {side!r}")
    if not (math.isfinite(rpm) and math.isfinite(mass_flow)):
        raise CalibrationDomainError(f"rpm and mass flow must be finite, got {rpm}, {mass_flow}")
    angle = cal.angle(rpm)
    if side == "left":
        angle = -angle
    return PatternParams(
        mass_flow=mass_flow,
        center_distance=cal.distance(rpm),
        sigma_distance=cal.sigma_distance(rpm),
        center_angle=angle,
        sigma_angle=cal.sigma_angle(rpm),
    )


def patterns_from_controls(controls: SpreaderControls,
                           cal: CalibrationModel) -> tuple[PatternParams, PatternParams]:
    """Left and right disc patterns for one control vector."""
    return (pattern_from_controls(controls.rpm_left, controls.flow_left, cal, "left"),
            pattern_from_controls(controls.rpm_right, controls.flow_right, cal, "right"))


def clamp_controls(controls: SpreaderControls, previous: SpreaderControls,
                   constraints: ControlConstraints) -> SpreaderControls:
    """Project each component onto its box intersected with the rate window
    around the previous control.

    The projection is componentwise with the full rate limit per component,
    so it is idempotent but does not by itself bound the (left, right) pair
    norm; use :func:`satisfies_constraints` for the exact check.
    """
    u = controls.as_array()
    prev = previous.as_array()
    lo = np.maximum(constraints.lower(), prev - constraints.rates())
    hi = np.minimum(constraints.upper(), prev + constraints.rates())
    if np.any(lo > hi):
        raise CalibrationDomainError(
            f"previous control {previous} leaves no feasible window under {constraints}")
    return SpreaderControls.from_array(np.clip(u, lo, hi))


def satisfies_constraints(controls: SpreaderControls, previous: SpreaderControls,
                          constraints: ControlConstraints, tol: float = 1e-9) -> bool:
    """Exact feasibility test: boxes plus Euclidean pair-norm rate limits."""
    u = controls.as_array()
    if np.any(u < constraints.lower() - tol) or np.any(u > constraints.upper() + tol):
        return False
    dflow = math.hypot(controls.flow_left - previous.flow_left,
                       controls.flow_right - previous.flow_right)
    drpm = math.hypot(controls.rpm_left - previous.rpm_left,
                      controls.rpm_right - previous.rpm_right)
    return (dflow <= constraints.flow_rate_max * (1.0 + tol) + tol
            and drpm <= constraints.rpm_rate_max * (1.0 + tol) + tol)


@dataclass(frozen=True)
class CalibrationFit:
    """Result of :func:`fit_calibration`: the model and per-series residuals."""

    model: CalibrationModel
    residuals: dict[str, np.ndarray]


def fit_calibration(rpm, center_distance, sigma_distance, center_angle,
                    sigma_angle) -> CalibrationFit:
    """Least-squares fit of the calibration polynomials to bench samples.

    ``rpm`` and the four parameter series must have equal length, at least
    two points for the linear distance fit and three for the quadratic
    fits.  Center-angle samples follow the right-disc convention (positive).
    """
    r = np.asarray(rpm, dtype=float)
    series = {
        "center_distance": np.asarray(center_distance, dtype=float),
        "sigma_distance": np.asarray(sigma_distance, dtype=float),
        "center_angle": np.asarray(center_angle, dtype=float),
        "sigma_angle": np.asarray(sigma_angle, dtype=float),
    }
    if r.ndim != 1 or any(s.shape != r.shape for s in series.values()):
        raise ShapeError("calibration samples must be equal-length 1-d series")
    if np.unique(r).size < 2:
        raise ShapeError("calibration samples need at least 2 distinct rpm values")

    n_distinct = np.unique(r).size
    coeffs = {}
    residuals = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankWarning)
        for name, values in series.items():
            degree = 1 if name == "center_distance" else 2
            # two distinct rpm cannot determine a quadratic; fit the
            # highest determined degree and zero-pad the leading terms
            fit_degree = min(degree, n_distinct - 1)
            c = np.polyfit(r, values, fit_degree)
            c = np.concatenate([np.zeros(degree - fit_degree), c])
            coeffs[name] = tuple(float(v) for v in c)
            residuals[name] = values - np.polyval(c, r)
    model = CalibrationModel(
        distance_coeffs=coeffs["center_distance"],
        sigma_distance_coeffs=coeffs["sigma_distance"],
        angle_coeffs=coeffs["center_angle"],
        sigma_angle_coeffs=coeffs["sigma_angle"],
    )
    return CalibrationFit(model=model, residuals=residuals)


def validate_calibration(cal: CalibrationModel, constraints: ControlConstraints) -> list[str]:
    """Check the pattern domain over the admissible RPM range.

    Samples every whole RPM between the bounds and returns a list of
    human-readable problems; an empty list means the calibration is usable.
    """
    problems = []
    rpms = np.arange(constraints.rpm_min, constraints.rpm_max + 0.5, 1.0)
    checks = (
        ("center distance", np.polyval(cal.distance_coeffs, rpms), lambda v: v > 0,
         "must be positive"),
        ("radial spread (sigma_distance)", np.polyval(cal.sigma_distance_coeffs, rpms),
         lambda v: v > 0, "must be positive"),
        ("center angle", np.polyval(cal.angle_coeffs, rpms),
         lambda v: (v > 0) & (v < math.pi), "must lie in (0, pi)"),
        ("angular spread (sigma_angle)", np.polyval(cal.sigma_angle_coeffs, rpms),
         lambda v: v > 0, "must be positive"),
    )
    for name, values, ok, requirement in checks:
        bad = ~ok(values)
        if np.any(bad):
            first = rpms[np.argmax(bad)]
            problems.append(
                f"{name} {requirement} over [{constraints.rpm_min:g}, "
                f"{constraints.rpm_max:g}] RPM; violated from {first:g} RPM "
                f"(value {values[np.argmax(bad)]:g})")
    return problems


_PATTERN_KEYS = {
    "distance": ("distance_coeffs", 2),
    "sigma_distance": ("sigma_distance_coeffs", 3),
    "angle": ("angle_coeffs", 3),
    "sigma_angle": ("sigma_angle_coeffs", 3),
}

_CONSTRAINT_KEYS = ("flow_min", "flow_max", "rpm_min", "rpm_max",
                    "flow_rate_max", "rpm_rate_max")


def save_calibration(path, cal: CalibrationModel,
                     constraints: ControlConstraints) -> None:
    """Write calibration and constraints to a key-value text file."""
    parser = configparser.ConfigParser()
    parser["pattern"] = {
        key: " ".join(repr(c) for c in getattr(cal, attr))
        for key, (attr, _) in _PATTERN_KEYS.items()
    }
    parser["constraints"] = {key: repr(getattr(constraints, key)) for key in _CONSTRAINT_KEYS}
    with open(path, "w") as handle:
        parser.write(handle)


def load_calibration(path) -> tuple[CalibrationModel, ControlConstraints]:
    """Read a calibration file and validate it.

    The file has a ``[pattern]`` section with whitespace-separated
    polynomial coefficients (highest degree first) and a ``[constraints]``
    section with the actuator envelope.  Domain violations over the
    admissible RPM range are rejected at load time.
    """
    from .config import parse_number, read_ini

    parser = read_ini(path)
    for section in ("pattern", "constraints"):
        if not parser.has_section(section):
            raise ConfigurationError(f"calibration file {path} is missing [{section}]")

    kwargs = {}
    for key, (attr, count) in _PATTERN_KEYS.items():
        raw = parser.get("pattern", key, fallback=None)
        if raw is None:
            raise ConfigurationError(f"calibration file {path} is missing pattern.{key}")
        try:
            coeffs = tuple(parse_number(tok) for tok in raw.split())
        except ValueError as exc:
            raise ConfigurationError(f"bad coefficients for pattern.{key} in {path}: {exc}") from exc
        if len(coeffs) != count:
            raise ConfigurationError(
                f"pattern.{key} in {path} needs {count} coefficients, got {len(coeffs)}")
        kwargs[attr] = coeffs

    constraint_kwargs = {}
    for key in _CONSTRAINT_KEYS:
        raw = parser.get("constraints", key, fallback=None)
        if raw is None:
            raise ConfigurationError(f"calibration file {path} is missing constraints.{key}")
        try:
            constraint_kwargs[key] = parse_number(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for constraints.{key} in {path}: {exc}") from exc

    cal = CalibrationModel(**kwargs)
    constraints = ControlConstraints(**constraint_kwargs)
    problems = validate_calibration(cal, constraints)
    if problems:
        raise ConfigurationError(
            f"calibration file {path} fails validation: " + "; ".join(problems))
    return cal, constraints
