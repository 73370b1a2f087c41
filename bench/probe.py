"""Kernel scaling probe: time the spread kernels on growing grids.

Cells stay 1.67 m (the shipped 150 m / 90 cells), so a bigger grid is a
bigger field, and the pattern covers a shrinking share of it.  Each kernel
is timed ``REPEATS`` times per size and the median is reported in
nanoseconds per grid cell.
"""

from __future__ import annotations

import statistics
import time

SIZES = (90, 180, 360)
REPEATS = 9
CELL_SIZE = 150.0 / 90


def probe() -> dict:
    from spreadopt.calibration import DEFAULT_CALIBRATION, pattern_from_controls
    from spreadopt.field import FieldGrid
    from spreadopt.spread import (DepositionModel, TriangleSupport, disc_deposit,
                                  disc_deposit_partials, pose_geometry)

    params = pattern_from_controls(600.0, 45.0, DEFAULT_CALIBRATION, "right")
    out = {}
    for n in SIZES:
        grid = FieldGrid(side_length=n * CELL_SIZE, n_cells=n)
        cx, cy = grid.center_mesh()
        centre = grid.side_length / 2.0
        dist, angle = pose_geometry(cx, cy, centre, centre, 0.0)
        dist, angle = dist.ravel(), angle.ravel()
        kernels = {
            "geometry": lambda: pose_geometry(cx, cy, centre, centre, 0.0),
            "deposit_normal": lambda: disc_deposit(dist, angle, 1.0, params,
                                                   DepositionModel.FULL_NORMAL),
            "deposit_triangle": lambda: disc_deposit(dist, angle, 1.0, params,
                                                     DepositionModel.TRIANGLE,
                                                     TriangleSupport.SIGMA),
            "partials": lambda: disc_deposit_partials(dist, angle, 1.0, params,
                                                      DepositionModel.FULL_NORMAL),
        }
        for kernel, call in kernels.items():
            call()
            samples = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                call()
                samples.append(time.perf_counter() - started)
            out[f"{kernel}.n{n}"] = statistics.median(samples) / (n * n) * 1e9
        out[f"n{n}"] = sum(out[f"{k}.n{n}"] for k in kernels)
    return out
