"""Square field grid, prescription and applied-amount maps, and the tracking cost.

Maps are dense ``(n, n)`` float arrays in grams per cell.  Row index i runs
along the y axis and column index j along the x axis, so ``map[i, j]``
belongs to the cell whose center is
``origin + ((j + 1/2) * cell_size, (i + 1/2) * cell_size)``.
CSV serialization is headerless and row-major: the first CSV line holds the
row of cells adjacent to the origin edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError

_CSV_FORMAT = "%.12g"


@dataclass(frozen=True)
class FieldGrid:
    """Geometry of the field: a square of side ``side_length`` split into
    ``n_cells`` by ``n_cells`` equal cells, anchored at ``origin``."""

    side_length: float
    n_cells: int
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.side_length) and self.side_length > 0):
            raise ConfigurationError(f"field side length must be positive, got {self.side_length!r}")
        if int(self.n_cells) != self.n_cells or self.n_cells < 1:
            raise ConfigurationError(f"cell count must be a positive integer, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        ox, oy = self.origin
        if not (math.isfinite(ox) and math.isfinite(oy)):
            raise ConfigurationError(f"field origin must be finite, got {self.origin!r}")
        object.__setattr__(self, "origin", (float(ox), float(oy)))

    @property
    def cell_size(self) -> float:
        return self.side_length / self.n_cells

    @property
    def cell_area(self) -> float:
        return self.cell_size ** 2

    def center_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates as two ``(n, n)`` arrays (x and y)."""
        c = self.cell_size
        xs = self.origin[0] + (np.arange(self.n_cells) + 0.5) * c
        ys = self.origin[1] + (np.arange(self.n_cells) + 0.5) * c
        return np.meshgrid(xs, ys)

    def zeros(self) -> np.ndarray:
        return np.zeros((self.n_cells, self.n_cells))


def cell_centers(grid: FieldGrid) -> np.ndarray:
    """All cell centers, row-major, as an ``(n_cells**2, 2)`` array of (x, y)."""
    cx, cy = grid.center_mesh()
    return np.column_stack([cx.ravel(), cy.ravel()])


def as_amount_map(values, grid: FieldGrid | None = None, name: str = "map") -> np.ndarray:
    """Validate an amount or prescription map and return it as a float array.

    Entries must be finite and non-negative; the array must be square and,
    when a grid is given, match its cell count.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
    if grid is not None and arr.shape[0] != grid.n_cells:
        raise ShapeError(
            f"{name} shape {arr.shape} does not match the grid ({grid.n_cells} x {grid.n_cells})"
        )
    if not np.all(np.isfinite(arr)):
        raise ShapeError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ShapeError(f"{name} contains negative entries")
    return arr


def cost(applied: np.ndarray, prescribed: np.ndarray) -> float:
    """Sum of squared per-cell deviations between applied and prescribed amounts."""
    a = np.asarray(applied, dtype=float)
    p = np.asarray(prescribed, dtype=float)
    if a.shape != p.shape:
        raise ShapeError(f"applied shape {a.shape} does not match prescribed shape {p.shape}")
    diff = p - a
    return float(np.sum(diff * diff))


def accumulate(applied: np.ndarray, deposit: np.ndarray) -> np.ndarray:
    """Elementwise sum of an amount map and one step's deposit map."""
    a = np.asarray(applied, dtype=float)
    d = np.asarray(deposit, dtype=float)
    if a.shape != d.shape:
        raise ShapeError(f"applied shape {a.shape} does not match deposit shape {d.shape}")
    return a + d


def save_map(path, values: np.ndarray) -> None:
    """Write a map to headerless CSV, one grid row per line."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ShapeError(f"only 2-d maps can be serialized, got shape {arr.shape}")
    np.savetxt(path, arr, fmt=_CSV_FORMAT, delimiter=",")


def load_map(path, grid: FieldGrid | None = None) -> np.ndarray:
    """Read a map written by :func:`save_map` and validate it."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"could not read map file {path}: {exc}") from exc
    return as_amount_map(arr, grid, name=f"map file {path}")
