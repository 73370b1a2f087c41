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
the same peak value that falls linearly to zero at one full width
``sqrt(2 pi) sigma`` of the matching normal, so it discharges the same
mass.  The plant (:func:`total_deposit`) always deposits the full model;
only a controller's prediction may use the surrogate.

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
from typing import NamedTuple

import numpy as np

from .errors import CalibrationDomainError, DegenerateGeometryError, ShapeError
from .field import FieldGrid

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Below this distance the cell and the vehicle are treated as coincident:
# the bearing is undefined and vectorized callers substitute zero.
DEGENERATE_RADIUS = 1e-9

# Largest deposit per gram of flow (before conservative area scaling) that
# windowed evaluation drops; see _reach.  It bounds both the controllers'
# predictor and the plant (total_deposit), which evaluate each disc only on
# its band.  At 1e-14 a 36-step H=10 MPC run already ended at a different
# cost (seventh significant digit); at 1e-32 the shipped comparison and the
# benchmark workloads end bitwise as with dense evaluation.
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
    """Half-width of the triangle surrogate: one full width (sqrt(2*pi)
    sigma) of the matching normal, its only form."""

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
        if not (math.isfinite(self.mass_flow) and math.isfinite(self.center_distance)
                and math.isfinite(self.sigma_distance) and math.isfinite(self.center_angle)
                and math.isfinite(self.sigma_angle)):
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


# The kernels below compare their model argument with ``==``, which a
# member and its string value both pass, rather than converting it on every
# call; the public entry points (disc_deposit, total_deposit's scaling and
# the controllers' constructors) convert it once, so an unknown value
# raises ValueError there.  The triangle's half-widths are one full width,
# ``SQRT_TWO_PI`` times the spread, on each axis.

def _reach(sd: float, sa: float, model: DepositionModel) -> float:
    """Radial offset beyond which one disc's density per gram of flow is
    zero (triangle: its radial half-width) or at most
    :data:`WINDOW_TOLERANCE` (normal: where the radial factor times the
    angular peak ``1 / (sqrt(2 pi) sa)`` falls to it, about 12 sigma)."""
    if model == DepositionModel.TRIANGLE:
        return SQRT_TWO_PI * sd
    # the tolerance over the density's peak per gram, 1 / (2 pi sd sa)
    ratio = 2.0 * math.pi * sd * sa * WINDOW_TOLERANCE
    if ratio >= 1.0:
        # the density is at or below the tolerance everywhere
        return 0.0
    inverse = 1.0 / ratio if ratio > 0.0 else math.inf
    if inverse == math.inf:
        # the ratio underflowed, or its inverse overflows: take the
        # logarithm as a sum of logarithms
        return sd * math.sqrt(-2.0 * (math.log(2.0 * math.pi) + math.log(sd) + math.log(sa)
                                      + math.log(WINDOW_TOLERANCE)))
    return sd * math.sqrt(2.0 * math.log(inverse))


def _density_factors(offsets, sd: float, sa: float, model: DepositionModel):
    """Radial and angular factors of one disc's density at the radial and
    angular offsets in the two rows of ``offsets``; the density is the mass
    flow times their product.  The normal model builds them in the rows
    of ``offsets``, which it overwrites."""
    if model == DepositionModel.FULL_NORMAL:
        return _normal_factors(offsets, sd, sa)
    x, y = offsets
    half_x, half_y = SQRT_TWO_PI * sd, SQRT_TWO_PI * sa
    return (np.maximum(0.0, 1.0 - np.abs(x) / half_x) / half_x,
            np.maximum(0.0, 1.0 - np.abs(y) / half_y) / half_y)


def _normal_factors(offsets: np.ndarray, sd: float, sa: float):
    """``exp(-0.5 * (x / sd) ** 2) / (sqrt(2 pi) sd)`` and the same of
    ``y`` and ``sa``, built operation by operation in the rows ``x`` and
    ``y`` of ``offsets`` and returned as those rows; the steps that do not
    depend on the axis are one operation on both rows."""
    # views, 0-d ones for a single cell, not the scalars iteration would give
    x, y = offsets[0, ...], offsets[1, ...]
    x /= sd
    y /= sa
    offsets *= offsets
    offsets *= -0.5
    np.exp(offsets, out=offsets)
    x /= SQRT_TWO_PI * sd
    y /= SQRT_TWO_PI * sa
    return x, y


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
                 support: TriangleSupport = TriangleSupport.SIGMA) -> np.ndarray:
    """Per-cell deposit of one disc given precomputed pose geometry.

    ``scale`` is 1.0 for literal scaling or the array from
    :func:`conservative_scale`.  ``support`` must name the triangle's one
    half-width, :attr:`TriangleSupport.SIGMA`, and changes nothing.
    """
    TriangleSupport(support)
    factors = disc_factors(dist, angle, params, DepositionModel(model))
    return deposit_from_factors(params.mass_flow, factors, scale)


def disc_factors(dist: np.ndarray, angle: np.ndarray, params: PatternParams,
                 model: DepositionModel):
    """The radial and angular density factors of one disc at the given
    geometry, ``(radial, angular)``: its deposit per gram of flow is their
    product times the area scale.  ``dist`` and ``angle`` are arrays of one
    shape, an entry per cell.  ``model`` is not validated."""
    return _density_factors(_offsets(dist, angle, params), params.sigma_distance,
                            params.sigma_angle, model)


def _offsets(dist: np.ndarray, angle: np.ndarray, params: PatternParams) -> np.ndarray:
    """The radial and angular offsets of cells from one disc's pattern
    center, as the two rows of one new array."""
    offsets = np.empty((2, *dist.shape))
    np.subtract(dist, params.center_distance, out=offsets[0, ...])
    np.subtract(angle, params.center_angle, out=offsets[1, ...])
    return offsets


def deposit_from_factors(mass_flow: float, factors, scale) -> np.ndarray:
    """One disc's deposit from its density factors, ``mass_flow * radial *
    angular * scale``.  Every deposit is multiplied here, in this order, in
    one new array; at a mass flow of 1.0 it is the deposit's partial with
    respect to the flow."""
    radial, angular = factors
    out = mass_flow * radial
    out *= angular
    # the literal scaling's 1.0 changes no bit, so it is not multiplied
    if isinstance(scale, np.ndarray) or scale != 1.0:
        out *= scale
    return out


def _normal_partials(value, offset, sigma):
    """``value * (offset / sigma**2)`` and ``value * (offset**2 / sigma**3 -
    1 / sigma)``, the normal model's partials with respect to a center and
    its spread, built in place with the expressions' rounding.  The first
    is built in ``offset``'s array, which it overwrites."""
    d_sigma = offset * offset
    d_sigma /= sigma ** 3
    d_sigma -= 1.0 / sigma
    d_sigma *= value
    d_center = np.divide(offset, sigma ** 2, out=offset)
    d_center *= value
    return d_center, d_sigma


def _ramp_partials(factor, offset, sigma):
    """One axis's triangle factor differentiated with respect to its
    offset and to its spread, which sets both its normalization and its
    half-width ``SQRT_TWO_PI * sigma``."""
    half = SQRT_TWO_PI * sigma
    # a factor is positive exactly on the interior of its support
    inside = factor > 0.0
    # d(ramp)/d(offset) = -sign(offset)/half on the support interior, zero outside
    d_offset = np.where(inside, -np.sign(offset) / half, 0.0) / half
    # sigma enters the normalization and the half-width
    d_sigma = -factor / sigma + np.where(inside, np.abs(offset) * SQRT_TWO_PI / half ** 2,
                                         0.0) / half
    return d_offset, d_sigma


def disc_deposit_partials(dist: np.ndarray, angle: np.ndarray, scale,
                          params: PatternParams, model: DepositionModel, factors=None):
    """Partials of one disc's deposit with respect to its pattern
    parameters.

    Returns a tuple ``(d_flow, d_dist, d_sigma_d, d_angle, d_sigma_a)`` of
    arrays: the deposit's derivatives with respect to mass flow, center
    distance, radial spread, signed center angle, and angular spread.  The
    triangle surrogate is differentiated on the interior of its support;
    the kink at the apex and the support edge use the zero element of the
    subdifferential.  ``factors`` are the density factors that
    :func:`disc_factors` returned for the same arguments, or None to
    evaluate them here.
    """
    D = params.mass_flow
    sd = params.sigma_distance
    sa = params.sigma_angle
    x = dist - params.center_distance
    y = angle - params.center_angle
    if factors is None:
        factors = disc_factors(dist, angle, params, model)
    unit = deposit_from_factors(1.0, factors, scale)

    if model == DepositionModel.FULL_NORMAL:
        # the normal partials are the deposit times a polynomial in the
        # offset
        value = deposit_from_factors(D, factors, scale)
        del factors
        # the offsets' arrays become d_dist and d_angle
        d_dist, d_sigma_d = _normal_partials(value, x, sd)
        d_angle, d_sigma_a = _normal_partials(value, y, sa)
        return unit, d_dist, d_sigma_d, d_angle, d_sigma_a

    radial, angular = factors
    dradial_dx, dradial_dsd = _ramp_partials(radial, x, sd)
    dangular_dy, dangular_dsa = _ramp_partials(angular, y, sa)
    # chain: d/d(center_distance) = d/dx * dx/d(center_distance) = dradial_dx * (-1)
    d_dist = D * scale * angular * dradial_dx * (-1.0)
    d_angle = D * scale * radial * dangular_dy * (-1.0)
    d_sigma_d = D * scale * angular * dradial_dsd
    d_sigma_a = D * scale * radial * dangular_dsa
    return unit, d_dist, d_sigma_d, d_angle, d_sigma_a


class BandGeometry(NamedTuple):
    """The grid cells around one pose, sorted by distance from it.

    ``cells`` holds each entry's flat cell index (``np.intp``, so fancy
    indexing does not convert it) and ``scale`` the conservative area scale
    per entry, or 1.0 under literal scaling.  Every cell within ``radius``
    of the pose is present, in the same order as in a whole-grid geometry,
    so any band whose outer distance is at most ``radius`` is one slice of
    it (:func:`band`).
    """

    dist: np.ndarray
    angle: np.ndarray
    scale: np.ndarray | float
    cells: np.ndarray
    radius: float


def reach_box(grid: FieldGrid, x: float, y: float, radius: float):
    """Flat indices and center coordinates of the cells in the square of
    half-side ``radius`` around ``(x, y)``, row-major.

    The square holds every cell whose center lies within ``radius`` of the
    point, plus up to one cell of slack on each side against rounding.
    The centers come from the square's index ranges, bitwise as
    :meth:`FieldGrid.center_mesh` computes them.  An infinite radius gives
    the whole grid, a square off the field no cell.
    """
    n = grid.n_cells
    c = grid.cell_size

    def indices(center: float, origin: float) -> np.ndarray:
        # cell k's center is origin + (k + 1/2) c; clamped before rounding,
        # so an infinite radius gives 0 and n
        lo = math.floor(min(max((center - radius - origin) / c - 0.5, 0.0), n))
        hi = math.floor(min(max((center + radius - origin) / c + 0.5, -1.0), n - 1)) + 1
        return np.arange(lo, max(lo, hi), dtype=np.intp)

    cols = indices(x, grid.origin[0])
    rows = indices(y, grid.origin[1])
    cx, cy = np.meshgrid(grid.origin[0] + (cols + 0.5) * c, grid.origin[1] + (rows + 0.5) * c)
    cells = (rows[:, None] * n + cols).ravel()
    return cells, cx.ravel(), cy.ravel()


def by_distance(grid: FieldGrid, cells: np.ndarray, dist: np.ndarray, angle: np.ndarray,
                radius: float, scaling: DepositScaling) -> BandGeometry:
    """Sort a pose's geometry by distance.  The sort is stable, so cells at
    equal distance keep their row-major order, whichever square they came
    from."""
    order = np.argsort(dist, kind="stable")
    dist = dist[order]
    if DepositScaling(scaling) is DepositScaling.CONSERVATIVE:
        scale = conservative_scale(dist, grid)
    else:
        scale = 1.0
    return BandGeometry(dist, angle[order], scale, cells[order], radius)


def band_bounds(params: PatternParams, model: DepositionModel,
                scaling: DepositScaling) -> tuple[float, float]:
    """Inner and outer distance of one disc's band: the cells whose
    distance from the vehicle lies within the pattern center distance plus
    or minus :func:`_reach`.  Under conservative scaling the band starts at
    the vehicle, since the ``cell_area / r`` factor is unbounded there."""
    reach = _reach(params.sigma_distance, params.sigma_angle, model)
    outer = params.center_distance + reach
    # equal to the member or to its value, without an enum lookup per band
    if scaling == DepositScaling.CONSERVATIVE:
        return 0.0, outer
    return params.center_distance - reach, outer


def band(geometry: BandGeometry, inner: float, outer: float):
    """The slice of ``geometry`` with ``inner <= dist <= outer``, and the
    cell indices, distance, bearing and area scale on it.  ``outer`` must
    not exceed ``geometry.radius``."""
    dist, angle, scale, cells, _ = geometry
    window = slice(int(dist.searchsorted(inner)), int(dist.searchsorted(outer, "right")))
    if isinstance(scale, np.ndarray):
        scale = scale[window]
    return window, cells[window], dist[window], angle[window], scale


def total_deposit(state, left: PatternParams, right: PatternParams, grid: FieldGrid,
                  scaling: DepositScaling = DepositScaling.LITERAL) -> np.ndarray:
    """Combined two-disc deposit map of the full model for one pose: the
    plant.

    ``state`` provides ``x``, ``y`` and ``heading``.  The left disc's
    pattern must sit at a negative center angle and the right disc's at a
    positive one.  Each disc is evaluated only on its band
    (:func:`band_bounds`), of the grid cells in the square that holds both
    bands, and scattered into the dense map: outside its band a disc's
    deposit is at most :data:`WINDOW_TOLERANCE` per gram of flow (times the
    conservative area scale).  Cells outside the grid receive nothing.
    """
    if not (left.center_angle < 0.0 < right.center_angle):
        raise ShapeError(
            "left pattern must have a negative center angle and right a positive one, "
            f"got {left.center_angle} and {right.center_angle}")
    model = DepositionModel.FULL_NORMAL
    scaling = DepositScaling(scaling)
    bounds = [band_bounds(params, model, scaling) for params in (left, right)]
    radius = max(outer for _, outer in bounds)
    cells, cx, cy = reach_box(grid, state.x, state.y, radius)
    dist, angle = pose_geometry(cx, cy, state.x, state.y, state.heading)
    geometry = by_distance(grid, cells, dist, angle, radius, scaling)
    out = grid.zeros()
    flat = out.reshape(-1)
    for params, (inner, outer) in zip((left, right), bounds):
        _, cells, dist, angle, scale = band(geometry, inner, outer)
        # the model stays the fifth positional argument, where the
        # benchmark tracer reads it
        flat[cells] += disc_deposit(dist, angle, scale, params, model)
    return out
