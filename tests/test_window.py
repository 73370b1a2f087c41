"""Windowed evaluation in the controllers' predictor and in the plant.

The predictor evaluates each disc only on its radial band of cells, over
the geometry of each pose's reach box, and its Jacobian has rows only on
the union of those bands.  These tests hold it to the dense kernels:
bitwise equal inside the window, negligible (normal model) or zero
(triangle model) outside it; to a whole-field predictor: bitwise equal
cost, residual, Jacobian and rows; and in closed loop to runs with the
window widened to the whole grid: controls and maps equal within rounding,
final costs bitwise.  The plant deposits on the same bands and is held to
a dense deposit within the window tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import (
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    CalibrationModel,
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
    total_deposit,
    trajectory,
)
from spreadopt import controllers, spread
from spreadopt.spread import (DEGENERATE_RADIUS, WINDOW_TOLERANCE, PatternParams,
                              TriangleSupport, band, band_bounds, conservative_scale,
                              pose_geometry)

CAL = DEFAULT_CALIBRATION
# the radial spread peaks at 611 rpm, inside the actuator box and between
# the speeds _reach_radius samples, and with it the reach of the bands
PEAKED = CalibrationModel(distance_coeffs=(0.0, 15.0),
                          sigma_distance_coeffs=(-1.0 / 90000.0, 2.0 * 611.0 / 90000.0,
                                                 3.0 - 611.0 ** 2 / 90000.0),
                          angle_coeffs=CAL.angle_coeffs,
                          sigma_angle_coeffs=CAL.sigma_angle_coeffs)


def _box_radius(cal, model, support):
    return controllers._reach_radius(cal, model, support, DEFAULT_CONSTRAINTS)


def _dense_rpm_column(partials, rpm, sign):
    _, d_dist, d_sd, d_angle, d_sa = partials
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
                                       scaling, support, radius=_box_radius(CAL, model, support))
    controls = np.array([[flows[0], flows[1], rpms[0], rpms[1]]])

    dist, angle = pose_geometry(cx, cy, pose.x, pose.y, pose.heading)
    dist, angle = dist.ravel(), angle.ravel()
    scale = (conservative_scale(dist, grid) if scaling is DepositScaling.CONSERVATIVE
             else np.ones_like(dist))
    dense_scale = scale if scaling is DepositScaling.CONSERVATIVE else 1.0

    deposits = []
    original = controllers.deposit_from_factors

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        deposits.append(out)
        return out

    controllers.deposit_from_factors = spy
    try:
        predictor.cost(controls)
    finally:
        controllers.deposit_from_factors = original
    _, _, S, rows = predictor.cost_residual_jacobian(controls)
    assert len(deposits) == 2
    assert np.unique(rows).size == rows.size and S.shape == (rows.size, 4)
    row_of = np.full(dist.size, -1)
    row_of[rows] = np.arange(rows.size)
    bands = []

    for (flow_col, rpm_col, side_name, sign), deposit in zip(controllers._DISC_COLUMNS,
                                                              deposits):
        rpm = controls[0, rpm_col]
        params = pattern_from_controls(rpm, controls[0, flow_col], CAL, side_name)
        cells = band(predictor.geometry[0], *band_bounds(params, model, support, scaling))[1]
        bands.append(cells)
        outside = np.ones(dist.size, dtype=bool)
        outside[cells] = False
        # rows of the other disc's band outside this one's
        others = row_of[outside & (row_of >= 0)]

        dense = spread.disc_deposit(dist, angle, dense_scale, params, model, support)
        partials = spread.disc_deposit_partials(dist, angle, dense_scale, params, model,
                                                support)
        unit = partials[0]
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


@st.composite
def reach_box_problems(draw):
    """A predictor over 1-3 poses of a straight drive, with controls in or
    at the bounds of the actuator box.  Poses sit anywhere on the field, on
    its corners and edges, or entirely off it."""
    n = draw(st.integers(2, 40))
    side = draw(st.floats(10.0, 300.0))
    place = st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, 1.0]))
    fx, fy = draw(place), draw(place)
    if draw(st.booleans()):
        # far enough that no band of any speed reaches the field
        fx = draw(st.sampled_from([-1.0, 1.0])) * 10.0 + fx
    heading = draw(st.floats(-math.pi, math.pi))
    horizon = draw(st.integers(1, 3))
    command = DriveCommand(draw(st.floats(0.0, 8.0)), draw(st.floats(-0.4, 0.4)),
                           float(horizon))
    poses = trajectory(DrivePlan(TractorState(fx * side, fy * side, heading), (command,)),
                       1.0)[1:]
    lo, hi = DEFAULT_CONSTRAINTS.lower(), DEFAULT_CONSTRAINTS.upper()
    bound = st.sampled_from([DEFAULT_CONSTRAINTS.rpm_min, DEFAULT_CONSTRAINTS.rpm_max, 611.0])
    rpm = st.one_of(bound, st.floats(lo[2], hi[2]))
    flow = st.floats(lo[0], hi[0])
    controls = np.array([[draw(flow), draw(flow), draw(rpm), draw(rpm)]
                         for _ in range(horizon)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (FieldGrid(side, n), poses, rng.uniform(0.0, 30.0, (n, n)),
            rng.choice([0.0, 12.0, 30.0], (n, n)), controls)


@settings(max_examples=150, deadline=None)
@given(problem=reach_box_problems(), model=st.sampled_from(DepositionModel),
       scaling=st.sampled_from(DepositScaling), support=st.sampled_from(TriangleSupport),
       cal=st.sampled_from([CAL, PEAKED]), sized=st.booleans())
def test_reach_box_predictor_equals_the_whole_field_predictor(problem, model, scaling,
                                                              support, cal, sized):
    grid, poses, applied, prescribed, controls = problem
    # the controller's box, or an empty one that only the guard grows
    radius = _box_radius(cal, model, support) if sized else 0.0

    def predictor(radius):
        return controllers._Predictor(grid, poses, applied, prescribed, model, cal, scaling,
                                      support, radius=radius)

    boxed, whole = predictor(radius), predictor(math.inf)
    assert boxed.cost(controls) == whole.cost(controls)
    value, e, S, rows = boxed.cost_residual_jacobian(controls)
    whole_value, whole_e, whole_S, whole_rows = whole.cost_residual_jacobian(controls)
    assert value == whole_value
    assert np.array_equal(rows, whole_rows)
    assert np.array_equal(e, whole_e) and np.array_equal(S, whole_S)
    for geometry, full in zip(boxed.geometry, whole.geometry):
        # the box's cells, in the whole field's order up to its radius
        near = full.dist <= geometry.radius
        assert np.array_equal(geometry.cells[:near.sum()], full.cells[near])
        assert geometry.cells.size <= full.cells.size


def test_the_box_radius_covers_the_actuator_box_and_a_wider_band_grows_it():
    model, support = DepositionModel.FULL_NORMAL, TriangleSupport.UNIT
    radius = _box_radius(PEAKED, model, support)
    at = {rpm: PEAKED.distance(rpm) + spread._reach(PEAKED.sigma_distance(rpm),
                                                    PEAKED.sigma_angle(rpm), model, support)
          for rpm in (DEFAULT_CONSTRAINTS.rpm_min, 611.0, DEFAULT_CONSTRAINTS.rpm_max)}
    # the reach peaks strictly inside the range, between the samples
    assert at[611.0] > radius > max(at[DEFAULT_CONSTRAINTS.rpm_min],
                                    at[DEFAULT_CONSTRAINTS.rpm_max])
    grid = FieldGrid(300.0, 120)
    predictor = controllers._Predictor(grid, [TractorState(150.0, 150.0, 0.4)], grid.zeros(),
                                       grid.zeros(), model, PEAKED, radius=radius)
    assert predictor.geometry[0].radius == radius
    predictor.cost(np.array([[45.0, 45.0, 611.0, 611.0]]))
    assert predictor.geometry[0].radius == at[611.0]


def test_a_pose_off_the_field_deposits_nothing_and_keeps_the_warm_start():
    grid = FieldGrid(100.0, 40)
    prescribed = np.full((40, 40), 20.0)
    far = TractorState(-500.0, 50.0, 0.0)
    controller = controllers.make_controller(ControllerKind.GREEDY, 1, CAL, DEFAULT_CONSTRAINTS,
                                             OptimizerSettings())
    predictor = controllers._Predictor(grid, [far], grid.zeros(), prescribed,
                                       DepositionModel.FULL_NORMAL, CAL,
                                       radius=controller._radius)
    assert predictor.geometry[0].cells.size == 0
    warm = np.array([[45.0, 45.0, 600.0, 600.0]])
    value, e, S, rows = predictor.cost_residual_jacobian(warm)
    assert value == predictor.cost(warm) == float(np.sum(prescribed ** 2))
    assert e.size == rows.size == 0 and S.shape == (0, 4)
    controls, cost = controllers._optimize(predictor, warm[0], warm, DEFAULT_CONSTRAINTS,
                                           OptimizerSettings())
    assert np.array_equal(controls, warm) and cost == value
    previous = SpreaderControls(*warm[0])
    assert controller.plan_controls([far], grid.zeros(), prescribed, previous,
                                    grid) == previous
    left, right = pattern_from_controls(600.0, 45.0, CAL, "left"), pattern_from_controls(
        600.0, 45.0, CAL, "right")
    assert not total_deposit(far, left, right, grid).any()


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), side=st.floats(10.0, 300.0),
       fx=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.5, 1.0])),
       fy=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.5, 1.0])),
       heading=st.floats(-math.pi, math.pi),
       flows=st.tuples(st.floats(0.0, 200.0), st.floats(0.0, 200.0)),
       distance=st.floats(1.0, 40.0), sigma_distance=st.floats(0.2, 5.0),
       angle=st.floats(0.1, 3.0), sigma_angle=st.floats(0.05, 1.0),
       model=st.sampled_from(DepositionModel), scaling=st.sampled_from(DepositScaling),
       support=st.sampled_from(TriangleSupport))
def test_band_plant_matches_the_dense_deposit(n, side, fx, fy, heading, flows, distance,
                                             sigma_distance, angle, sigma_angle, model,
                                             scaling, support):
    grid = FieldGrid(side, n)
    pose = TractorState(fx * side, fy * side, heading)
    left = PatternParams(flows[0], distance, sigma_distance, -angle, sigma_angle)
    right = PatternParams(flows[1], distance, sigma_distance, angle, sigma_angle)
    banded = total_deposit(pose, left, right, grid, model, scaling, support)

    cx, cy = grid.center_mesh()
    dist, angle_ = pose_geometry(cx, cy, pose.x, pose.y, pose.heading)
    scale = (conservative_scale(dist, grid) if scaling is DepositScaling.CONSERVATIVE
             else np.ones_like(dist))
    dense_scale = scale if scaling is DepositScaling.CONSERVATIVE else 1.0
    dense = spread.disc_deposit(dist, angle_, dense_scale, left, model, support)
    dense += spread.disc_deposit(dist, angle_, dense_scale, right, model, support)
    # each disc drops at most WINDOW_TOLERANCE per gram of its flow (times
    # the area scale), and adding that to the other disc's deposit rounds
    # by at most as much again
    bound = 2.0 * WINDOW_TOLERANCE * (flows[0] + flows[1]) * scale * (1.0 + 1e-9)
    assert np.all(np.abs(banded - dense) <= bound)
    if model is DepositionModel.TRIANGLE:
        assert np.array_equal(banded, dense)


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
    plant's deposits (spread.disc_deposit calls spread.disc_factors)."""
    sizes = {"deposit": [], "partials": []}
    factors = spread.disc_factors
    partials = controllers.disc_deposit_partials

    def deposit_spy(dist, *args, **kwargs):
        sizes["deposit"].append(dist.size)
        return factors(dist, *args, **kwargs)

    def partials_spy(dist, *args, **kwargs):
        sizes["partials"].append(dist.size)
        return partials(dist, *args, **kwargs)

    monkeypatch.setattr(spread, "disc_factors", deposit_spy)
    monkeypatch.setattr(controllers, "disc_factors", deposit_spy)
    monkeypatch.setattr(controllers, "disc_deposit_partials", partials_spy)
    return sizes


def _whole_grid(params, model, support, scaling):
    return 0.0, math.inf


@pytest.mark.parametrize("kind", list(ControllerKind))
def test_windowed_closed_loop_equals_the_whole_grid_run(kind, monkeypatch):
    n_cells = 60 * 60
    with monkeypatch.context() as patch:
        sizes = _spy_kernels(patch)
        shipped = _closed_loop(kind)
    # the plant and the predictor deposit on bands only
    assert max(sizes["deposit"]) < n_cells and max(sizes["partials"]) < n_cells

    with monkeypatch.context() as patch:
        # the predictor's bands widened to the whole grid; the plant's stay
        patch.setattr(controllers, "band_bounds", _whole_grid)
        sizes = _spy_kernels(patch)
        whole = _closed_loop(kind)
    assert set(sizes["partials"]) == {n_cells}
    assert n_cells in sizes["deposit"] and min(sizes["deposit"]) < n_cells

    # the whole-grid Jacobian sums its normal equations over every cell,
    # the windowed one over the bands' rows only, so Gauss-Newton steps
    # round differently
    np.testing.assert_allclose(shipped.controls, whole.controls, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(shipped.final_map, whole.final_map, rtol=1e-9, atol=1e-12)
    assert shipped.final_cost == whole.final_cost
