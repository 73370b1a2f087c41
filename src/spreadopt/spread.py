"""Crescent spread-pattern deposition model for a twin-disc spreader.

Each disc throws fertilizer into a crescent behind the vehicle.  The
deposited density at a cell is separable in two scalar coordinates:

* the radial offset ``X``: distance from the vehicle to the cell minus the
  pattern center distance, and
* the angular offset ``Y``: bearing of the cell (measured from the reversed
  heading, sign from the cross product, so cells at the driver's right-rear
  have positive bearing) minus the pattern center angle.

Two density shapes are available.  The full model multiplies two normal
densities in ``X`` and ``Y``; the triangle model is a cheap surrogate with
the same peak value that falls linearly to zero at unit offset (or, as an
experimental variant, at one full-width of the matching normal).

Density-to-mass conversion is selectable: ``LITERAL`` stores the density
value at the cell center as grams, which keeps peak amplitudes directly
comparable to flow settings; ``CONSERVATIVE`` multiplies by the polar area
element ``cell_area / r`` so the summed deposit approximates the mass
actually discharged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationDomainError, DegenerateGeometryError, ShapeError
from .field import FieldGrid

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Below this distance the cell and the vehicle are treated as coincident:
# the bearing is undefined and vectorized callers substitute zero.
DEGENERATE_RADIUS = 1e-9

# Largest deposit per gram of flow (before conservative area scaling) that
# windowed evaluation drops; see _reach.  At 1e-14 a 36-step H=10 MPC run
# already ended at a different cost (seventh significant digit); at 1e-32
# the shipped comparison and the benchmark workloads end bitwise as with
# dense evaluation.
WINDOW_TOLERANCE = 1e-32


class DepositionModel(str, enum.Enum):
    """Which density shape a deposit or prediction uses."""

    FULL_NORMAL = "full-normal"
    TRIANGLE = "triangle"


class DepositScaling(str, enum.Enum):
    """How a density value at a cell center becomes grams in that cell."""

    LITERAL = "literal"
    CONSERVATIVE = "conservative"


class TriangleSupport(str, enum.Enum):
    """Half-width of the triangle surrogate: fixed at one, or one
    full-width (sqrt(2*pi) sigma) of the matching normal."""

    UNIT = "unit"
    SIGMA = "sigma"


@dataclass(frozen=True)
class PatternParams:
    """Single-disc pattern description.

    Attributes:
        mass_flow: discharged mass per step in grams, non-negative.
        center_distance: radial distance to the pattern center in meters.
        sigma_distance: radial standard deviation in meters.
        center_angle: signed pattern center angle in radians, negative for
            the left disc and positive for the right disc.
        sigma_angle: angular standard deviation in radians.
    """

    mass_flow: float
    center_distance: float
    sigma_distance: float
    center_angle: float
    sigma_angle: float

    def __post_init__(self):
        values = (self.mass_flow, self.center_distance, self.sigma_distance,
                  self.center_angle, self.sigma_angle)
        if not all(math.isfinite(v) for v in values):
            raise CalibrationDomainError(f"pattern parameters must be finite: {self}")
        if self.mass_flow < 0:
            raise CalibrationDomainError(f"mass flow must be non-negative, got {self.mass_flow}")
        if self.center_distance <= 0:
            raise CalibrationDomainError(
                f"pattern center distance must be positive, got {self.center_distance}")
        if self.sigma_distance <= 0:
            raise CalibrationDomainError(
                f"radial spread must be positive, got {self.sigma_distance}")
        if self.sigma_angle <= 0:
            raise CalibrationDomainError(
                f"angular spread must be positive, got {self.sigma_angle}")
        if not -math.pi < self.center_angle < math.pi:
            raise CalibrationDomainError(
                f"pattern center angle must lie in (-pi, pi), got {self.center_angle}")


def radial_offset(cell: tuple[float, float], position: tuple[float, float],
                  center_distance: float) -> float:
    """Distance from the vehicle to the cell center minus the pattern radius."""
    return math.hypot(cell[0] - position[0], cell[1] - position[1]) - center_distance


def bearing(cell: tuple[float, float], position: tuple[float, float], heading: float) -> float:
    """Signed angle of the cell as seen from the vehicle's reversed heading.

    Positive angles are on the driver's right-rear side.  Raises
    :class:`DegenerateGeometryError` when the cell coincides with the
    vehicle; vectorized callers substitute a zero bearing there.
    """
    dx = cell[0] - position[0]
    dy = cell[1] - position[1]
    dist = math.hypot(dx, dy)
    if dist < DEGENERATE_RADIUS:
        raise DegenerateGeometryError(
            f"cell {cell} coincides with the vehicle position {position}")
    ux = math.cos(heading + math.pi)
    uy = math.sin(heading + math.pi)
    # acos argument clamped against round-off at exactly aligned geometry
    angle = math.acos(min(1.0, max(-1.0, (ux * dx + uy * dy) / dist)))
    cross = dy * ux - dx * uy
    return -angle if cross < 0 else angle


def _half_widths(sd: float, sa: float, support: TriangleSupport) -> tuple[float, float]:
    if TriangleSupport(support) is TriangleSupport.UNIT:
        return 1.0, 1.0
    return SQRT_TWO_PI * sd, SQRT_TWO_PI * sa


def _reach(sd: float, sa: float, model: DepositionModel, support: TriangleSupport) -> float:
    """Radial offset beyond which one disc's density per gram of flow is
    zero (triangle: the support half-width) or at most
    :data:`WINDOW_TOLERANCE` (normal: where the radial factor times the
    angular peak ``1 / (sqrt(2 pi) sa)`` falls to it, about 12 sigma)."""
    if DepositionModel(model) is DepositionModel.TRIANGLE:
        return _half_widths(sd, sa, support)[0]
    return sd * math.sqrt(2.0 * math.log(1.0 / (2.0 * math.pi * sd * sa * WINDOW_TOLERANCE)))


def _density_factors(x, y, sd: float, sa: float, model: DepositionModel,
                     support: TriangleSupport):
    """Radial and angular factors of one disc's density at offsets ``x``
    and ``y``; the density is the mass flow times their product."""
    if DepositionModel(model) is DepositionModel.FULL_NORMAL:
        return (np.exp(-0.5 * (x / sd) ** 2) / (SQRT_TWO_PI * sd),
                np.exp(-0.5 * (y / sa) ** 2) / (SQRT_TWO_PI * sa))
    half_x, half_y = _half_widths(sd, sa, support)
    return (np.maximum(0.0, 1.0 - np.abs(x) / half_x) / (SQRT_TWO_PI * sd),
            np.maximum(0.0, 1.0 - np.abs(y) / half_y) / (SQRT_TWO_PI * sa))


def _density(x_offset, y_offset, params: PatternParams, model: DepositionModel,
             support: TriangleSupport = TriangleSupport.UNIT):
    radial, angular = _density_factors(np.asarray(x_offset, dtype=float),
                                       np.asarray(y_offset, dtype=float),
                                       params.sigma_distance, params.sigma_angle,
                                       model, support)
    out = params.mass_flow * radial * angular
    return float(out) if out.ndim == 0 else out


def deposition_density_normal(x_offset, y_offset, params: PatternParams):
    """Density of the full model: product of two normal densities scaled by flow."""
    return _density(x_offset, y_offset, params, DepositionModel.FULL_NORMAL)


def deposition_density_triangle(x_offset, y_offset, params: PatternParams,
                                support: TriangleSupport = TriangleSupport.UNIT):
    """Density of the triangle surrogate.

    Shares the peak value of the full model at zero offset and is clamped
    to zero outside its support, so it never goes negative.
    """
    return _density(x_offset, y_offset, params, DepositionModel.TRIANGLE, support)


def pose_geometry(cx: np.ndarray, cy: np.ndarray, x: float, y: float,
                  heading: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized distance and signed bearing from one pose to many cells.

    Cells closer than :data:`DEGENERATE_RADIUS` get a zero bearing; their
    distance is reported as-is.
    """
    dx = cx - x
    dy = cy - y
    dist = np.hypot(dx, dy)
    ux = math.cos(heading + math.pi)
    uy = math.sin(heading + math.pi)
    degenerate = dist < DEGENERATE_RADIUS
    safe = np.where(degenerate, 1.0, dist)
    angle = np.arccos(np.clip((ux * dx + uy * dy) / safe, -1.0, 1.0))
    angle = np.where(dy * ux - dx * uy < 0, -angle, angle)
    angle[degenerate] = 0.0
    return dist, angle


def conservative_scale(dist: np.ndarray, grid: FieldGrid) -> np.ndarray:
    """Polar area element ``cell_area / r``.

    The guard keeps the division finite for a cell center coinciding with
    the vehicle; the density there is vanishingly small for any realistic
    pattern radius, so the guard has no practical effect.
    """
    return grid.cell_area / np.maximum(dist, DEGENERATE_RADIUS)


def disc_deposit(dist: np.ndarray, angle: np.ndarray, scale, params: PatternParams,
                 model: DepositionModel,
                 support: TriangleSupport = TriangleSupport.UNIT) -> np.ndarray:
    """Per-cell deposit of one disc given precomputed pose geometry.

    ``scale`` is 1.0 for literal scaling or the array from
    :func:`conservative_scale`.
    """
    radial, angular = _density_factors(dist - params.center_distance,
                                       angle - params.center_angle, params.sigma_distance,
                                       params.sigma_angle, model, support)
    return params.mass_flow * radial * angular * scale


def disc_deposit_partials(dist: np.ndarray, angle: np.ndarray, scale,
                          params: PatternParams, model: DepositionModel,
                          support: TriangleSupport = TriangleSupport.UNIT):
    """Deposit of one disc plus its partials with respect to the pattern
    parameters.

    Returns a tuple ``(value, d_flow, d_dist, d_sigma_d, d_angle,
    d_sigma_a)`` of arrays: the deposit and its derivatives with respect
    to mass flow, center distance, radial spread, signed center angle,
    and angular spread.  The triangle surrogate is differentiated on the
    interior of its support; the kink at the apex and the support edge
    use the zero element of the subdifferential.
    """
    D = params.mass_flow
    sd = params.sigma_distance
    sa = params.sigma_angle
    x = dist - params.center_distance
    y = angle - params.center_angle
    radial, angular = _density_factors(x, y, sd, sa, model, support)
    unit = radial * angular * scale
    value = D * unit

    if DepositionModel(model) is DepositionModel.FULL_NORMAL:
        d_dist = value * (x / sd ** 2)
        d_sigma_d = value * (x * x / sd ** 3 - 1.0 / sd)
        d_angle = value * (y / sa ** 2)
        d_sigma_a = value * (y * y / sa ** 3 - 1.0 / sa)
        return value, unit, d_dist, d_sigma_d, d_angle, d_sigma_a

    half_x, half_y = _half_widths(sd, sa, support)
    # a factor is positive exactly on the interior of its support
    in_x = radial > 0.0
    in_y = angular > 0.0

    # d(ramp)/dx = -sign(x)/half on the support interior, zero outside
    dradial_dx = np.where(in_x, -np.sign(x) / half_x, 0.0) / (SQRT_TWO_PI * sd)
    dangular_dy = np.where(in_y, -np.sign(y) / half_y, 0.0) / (SQRT_TWO_PI * sa)
    # chain: d/d(center_distance) = d/dx * dx/d(center_distance) = dradial_dx * (-1)
    d_dist = D * scale * angular * dradial_dx * (-1.0)
    d_angle = D * scale * radial * dangular_dy * (-1.0)

    # sigma enters the normalization always, and the half-width when scaled
    dradial_dsd = -radial / sd
    dangular_dsa = -angular / sa
    if TriangleSupport(support) is TriangleSupport.SIGMA:
        dradial_dsd = dradial_dsd + np.where(in_x, np.abs(x) * SQRT_TWO_PI / half_x ** 2, 0.0) / (
            SQRT_TWO_PI * sd)
        dangular_dsa = dangular_dsa + np.where(in_y, np.abs(y) * SQRT_TWO_PI / half_y ** 2, 0.0) / (
            SQRT_TWO_PI * sa)
    d_sigma_d = D * scale * angular * dradial_dsd
    d_sigma_a = D * scale * radial * dangular_dsa
    return value, unit, d_dist, d_sigma_d, d_angle, d_sigma_a


def total_deposit(state, left: PatternParams, right: PatternParams, grid: FieldGrid,
                  model: DepositionModel = DepositionModel.FULL_NORMAL,
                  scaling: DepositScaling = DepositScaling.LITERAL,
                  support: TriangleSupport = TriangleSupport.UNIT) -> np.ndarray:
    """Combined two-disc deposit map for one pose.

    ``state`` provides ``x``, ``y`` and ``heading``.  The left disc's
    pattern must sit at a negative center angle and the right disc's at a
    positive one.  Cells outside the grid receive nothing by construction
    since only grid cells are evaluated.
    """
    if not (left.center_angle < 0.0 < right.center_angle):
        raise ShapeError(
            "left pattern must have a negative center angle and right a positive one, "
            f"got {left.center_angle} and {right.center_angle}")
    cx, cy = grid.center_mesh()
    dist, angle = pose_geometry(cx, cy, state.x, state.y, state.heading)
    if DepositScaling(scaling) is DepositScaling.CONSERVATIVE:
        scale = conservative_scale(dist, grid)
    else:
        scale = 1.0
    out = disc_deposit(dist, angle, scale, left, model, support)
    out += disc_deposit(dist, angle, scale, right, model, support)
    return out
