"""Windowed evaluation in the controllers' predictor.

The predictor evaluates each disc only on its radial band of cells, and
its Jacobian has rows only on the union of those bands.  These tests hold
it to the dense kernels: bitwise equal inside the window, negligible
(normal model) or zero (triangle model) outside it, and closed-loop runs
whose controls and maps equal, within rounding, those of runs with the
window widened to the whole grid, at bitwise-equal final costs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import (
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    ControllerKind,
    DepositScaling,
    DepositionModel,
    DriveCommand,
    DrivePlan,
    FieldGrid,
    OptimizerSettings,
    Scenario,
    SpreaderControls,
    TractorState,
    pattern_from_controls,
    run,
)
from spreadopt import controllers, spread
from spreadopt.spread import (DEGENERATE_RADIUS, WINDOW_TOLERANCE, TriangleSupport,
                              conservative_scale, pose_geometry)

CAL = DEFAULT_CALIBRATION


def _dense_rpm_column(partials, rpm, sign):
    _, _, d_dist, d_sd, d_angle, d_sa = partials
    return (d_dist * CAL.distance_slope(rpm)
            + d_sd * CAL.sigma_distance_slope(rpm)
            + d_angle * sign * CAL.angle_slope(rpm)
            + d_sa * CAL.sigma_angle_slope(rpm))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 40), side=st.floats(10.0, 300.0),
       fx=st.floats(-0.2, 1.2), fy=st.floats(-0.2, 1.2),
       heading=st.floats(-math.pi, math.pi),
       flows=st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0)),
       rpms=st.tuples(st.floats(300.0, 900.0), st.floats(300.0, 900.0)),
       model=st.sampled_from(DepositionModel),
       support=st.sampled_from(TriangleSupport),
       scaling=st.sampled_from(DepositScaling),
       on_cell=st.one_of(st.none(), st.floats(0.0, 0.5 * DEGENERATE_RADIUS)))
def test_windowed_predictor_matches_the_dense_kernel(n, side, fx, fy, heading, flows, rpms,
                                                      model, support, scaling, on_cell):
    grid = FieldGrid(side, n)
    cx, cy = grid.center_mesh()
    if on_cell is None:
        pose = TractorState(fx * side, fy * side, heading)
    else:
        # a cell centre within the degenerate radius of the vehicle
        i = min(int(np.clip(fx, 0.0, 1.0) * n), n - 1)
        j = min(int(np.clip(fy, 0.0, 1.0) * n), n - 1)
        pose = TractorState(float(cx[j, i]) + on_cell, float(cy[j, i]), heading)
    predictor = controllers._Predictor(grid, [pose], grid.zeros(), grid.zeros(), model, CAL,
                                       scaling, support)
    controls = np.array([[flows[0], flows[1], rpms[0], rpms[1]]])

    dist, angle = pose_geometry(cx, cy, pose.x, pose.y, pose.heading)
    dist, angle = dist.ravel(), angle.ravel()
    scale = (conservative_scale(dist, grid) if scaling is DepositScaling.CONSERVATIVE
             else np.ones_like(dist))
    dense_scale = scale if scaling is DepositScaling.CONSERVATIVE else 1.0

    deposits = []
    original = spread.disc_deposit

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        deposits.append(out)
        return out

    spread.disc_deposit = spy
    try:
        predictor.cost(controls)
    finally:
        spread.disc_deposit = original
    _, _, S, rows = predictor.cost_residual_jacobian(controls)
    assert len(deposits) == 2
    assert np.unique(rows).size == rows.size and S.shape == (rows.size, 4)
    row_of = np.full(dist.size, -1)
    row_of[rows] = np.arange(rows.size)
    bands = []

    sorted_dist, _, _, order = predictor.geometry[0]
    for (flow_col, rpm_col, side_name, sign), deposit in zip(controllers._DISC_COLUMNS,
                                                              deposits):
        rpm = controls[0, rpm_col]
        params = pattern_from_controls(rpm, controls[0, flow_col], CAL, side_name)
        cells = order[predictor._window(sorted_dist, params)]
        bands.append(cells)
        outside = np.ones(dist.size, dtype=bool)
        outside[cells] = False
        # rows of the other disc's band outside this one's
        others = row_of[outside & (row_of >= 0)]

        dense = spread.disc_deposit(dist, angle, dense_scale, params, model, support)
        partials = spread.disc_deposit_partials(dist, angle, dense_scale, params, model,
                                                support)
        unit = partials[1]
        rpm_column = _dense_rpm_column(partials, float(rpm), sign)

        assert np.array_equal(deposit, dense[cells])
        assert np.array_equal(S[row_of[cells], flow_col], unit[cells])
        assert np.array_equal(S[row_of[cells], rpm_col], rpm_column[cells])
        assert not S[others, flow_col].any() and not S[others, rpm_col].any()
        if scaling is DepositScaling.CONSERVATIVE:
            # cell_area / r is unbounded near the vehicle: only cells beyond
            # the band are dropped
            assert np.all(dist[outside] > params.center_distance)
        if model is DepositionModel.TRIANGLE:
            assert not dense[outside].any()
            assert not unit[outside].any() and not rpm_column[outside].any()
        else:
            # the tolerance bounds the deposit per gram before area scaling
            bound = WINDOW_TOLERANCE * scale[outside] * (1.0 + 1e-9)
            assert np.all(dense[outside] <= params.mass_flow * bound)
            assert np.all(unit[outside] <= bound)
    # no row outside the union of the two bands
    assert np.array_equal(np.sort(rows), np.union1d(*bands))


def _whole_grid(self, dist, params):
    return slice(0, dist.size)


def _closed_loop(kind):
    grid = FieldGrid(150.0, 60)
    rows = np.arange(60)[:, None] // 15
    prescription = 14.0 + 4.0 * ((rows + np.arange(60)[None, :] // 15) % 3)
    plan = DrivePlan(TractorState(20.0, 60.0, 0.0),
                     (DriveCommand(5.0, 0.0, 3.0), DriveCommand(5.0, 0.2, 3.0)))
    scenario = Scenario(grid, prescription, plan, 1.0, SpreaderControls(40.0, 40.0, 600.0, 600.0),
                        controller=kind, horizon=3)
    return run(scenario, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings())


def _spy_kernels(monkeypatch):
    """Record the cell count of every predictor kernel call and of the
    plant's deposits."""
    sizes = {"deposit": [], "partials": []}
    deposit = spread.disc_deposit
    partials = controllers.disc_deposit_partials

    def deposit_spy(dist, *args, **kwargs):
        sizes["deposit"].append(dist.size)
        return deposit(dist, *args, **kwargs)

    def partials_spy(dist, *args, **kwargs):
        sizes["partials"].append(dist.size)
        return partials(dist, *args, **kwargs)

    monkeypatch.setattr(spread, "disc_deposit", deposit_spy)
    monkeypatch.setattr(controllers, "disc_deposit_partials", partials_spy)
    return sizes


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_windowed_closed_loop_equals_the_whole_grid_run(kind, monkeypatch):
    n_cells = 60 * 60
    with monkeypatch.context() as patch:
        sizes = _spy_kernels(patch)
        shipped = _closed_loop(kind)
    steps = shipped.n_steps
    # the plant deposits both discs on every cell of every step
    assert sizes["deposit"].count(n_cells) == 2 * steps
    assert max(sizes["partials"]) < n_cells
    predictor_deposits = [s for s in sizes["deposit"] if s != n_cells]
    assert predictor_deposits and max(predictor_deposits) < n_cells

    with monkeypatch.context() as patch:
        patch.setattr(controllers._Predictor, "_window", _whole_grid)
        sizes = _spy_kernels(patch)
        whole = _closed_loop(kind)
    assert set(sizes["deposit"]) == {n_cells} and set(sizes["partials"]) == {n_cells}

    # the whole-grid Jacobian sums its normal equations over every cell,
    # the windowed one over the bands' rows only, so Gauss-Newton steps
    # round differently
    np.testing.assert_allclose(shipped.controls, whole.controls, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(shipped.final_map, whole.final_map, rtol=1e-9, atol=1e-12)
    assert shipped.final_cost == whole.final_cost
