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

from .errors import ConfigurationError, ShapeError, checked_integer

_CSV_FORMAT = "%.12g"
# the most cells a field may have per side: a run's peak memory grew by
# about 30 bytes a cell (some four float64 maps) from 720 to 1440 cells a
# side, so a field at the bound peaks near 2 GB
MAX_N_CELLS = 8192


@dataclass(frozen=True)
class FieldGrid:
    """Geometry of the field: a square of side ``side_length`` split into
    ``n_cells`` by ``n_cells`` equal cells, anchored at ``origin``, with at
    most :data:`MAX_N_CELLS` cells a side."""

    side_length: float
    n_cells: int
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (math.isfinite(self.side_length) and self.side_length > 0):
            raise ConfigurationError(f"field side length must be positive, got {self.side_length!r}")
        n_cells = checked_integer("n_cells", self.n_cells)
        if n_cells > MAX_N_CELLS:
            raise ConfigurationError(
                f"n_cells={n_cells} is more than the {MAX_N_CELLS} cells a side allowed")
        if self.side_length / n_cells == 0.0:
            raise ConfigurationError(f"field side length {self.side_length!r} over "
                                     f"n_cells={n_cells} gives cells of zero size")
        object.__setattr__(self, "n_cells", n_cells)
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
    diff *= diff
    return float(np.sum(diff))


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
