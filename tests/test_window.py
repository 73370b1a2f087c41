"""Windowed evaluation in the controllers' predictor and in the plant.

The predictor evaluates each disc only on its radial band of cells, over
the geometry of each pose's reach box, and its Jacobian has rows only on
the cells that span those bands.  These tests hold it to the dense kernels:
bitwise equal inside the window, negligible (normal model) or zero
(triangle model) outside it; to a whole-field predictor: bitwise equal
residual, Jacobian and rows, and cost (within rounding for several poses,
which sum it on the union of their boxes); and in closed loop to runs with the
window widened to the whole grid: controls and maps equal within rounding,
final costs bitwise.  The plant deposits on the same bands and is held to
a dense deposit within the window tolerance, and bitwise to a one-pose
full-model prediction on an empty map.
"""

import decimal
import functools
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
    patterns_from_controls,
    run,
    total_deposit,
    trajectory,
)
from spreadopt import controllers, spread
from spreadopt.spread import (DEGENERATE_RADIUS, WINDOW_TOLERANCE, PatternParams, band,
                              band_bounds, conservative_scale, pose_geometry)

from checks import NARROW, field_order_prediction

CAL = DEFAULT_CALIBRATION
# the radial spread, and with it the reach of the bands, peaks at 611 rpm,
# strictly inside the actuator box: the box radius comes from that vertex,
# not from the box's bounds
PEAKED = CalibrationModel(distance_coeffs=(0.0, 15.0),
                          sigma_distance_coeffs=(-1.0 / 90000.0, 2.0 * 611.0 / 90000.0,
                                                 3.0 - 611.0 ** 2 / 90000.0),
                          angle_coeffs=CAL.angle_coeffs,
                          sigma_angle_coeffs=CAL.sigma_angle_coeffs)


def _box_radius(cal, model):
    return controllers._reach_radius(cal, model, DEFAULT_CONSTRAINTS)


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
       scaling=st.sampled_from(DepositScaling),
       on_cell=st.one_of(st.none(), st.floats(0.0, 0.5 * DEGENERATE_RADIUS)))
def test_windowed_predictor_matches_the_dense_kernel(n, side, fx, fy, heading, flows, rpms,
                                                      model, scaling, on_cell):
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
                                       scaling, radius=_box_radius(CAL, model))
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
    _, _, S, rows = predictor.cost_residual_jacobian(controls, np.ones(controls.shape))
    assert len(deposits) == 2
    assert np.unique(rows).size == rows.size and S.shape == (rows.size, 4)
    row_of = np.full(dist.size, -1)
    row_of[rows] = np.arange(rows.size)
    bands = []

    for (flow_col, rpm_col, side_name, sign), deposit in zip(controllers._DISC_COLUMNS,
                                                              deposits):
        rpm = controls[0, rpm_col]
        params = pattern_from_controls(rpm, controls[0, flow_col], CAL, side_name)
        cells = band(predictor.geometry[0], *band_bounds(params, model, scaling))[1]
        bands.append(cells)
        outside = np.ones(dist.size, dtype=bool)
        outside[cells] = False
        # rows of the other disc's band outside this one's
        others = row_of[outside & (row_of >= 0)]

        dense = spread.disc_deposit(dist, angle, dense_scale, params, model)
        partials = spread.disc_deposit_partials(dist, angle, dense_scale, params, model)
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
    # the rows cover both bands; a row outside both, between windows that
    # are apart, is zero in every column (checked per disc above)
    assert np.isin(np.union1d(*bands), rows).all()


@st.composite
def reach_box_problems(draw, horizons=st.integers(1, 3)):
    """A predictor over ``horizons`` poses (1-3) of a straight drive, with
    controls in or at the bounds of the actuator box.  Poses sit anywhere on the field, on
    its corners and edges, or entirely off it."""
    n = draw(st.integers(2, 40))
    side = draw(st.floats(10.0, 300.0))
    place = st.one_of(st.floats(-0.2, 1.2), st.sampled_from([0.0, 1.0]))
    fx, fy = draw(place), draw(place)
    if draw(st.booleans()):
        # far enough that no band of any speed reaches the field
        fx = draw(st.sampled_from([-1.0, 1.0])) * 10.0 + fx
    heading = draw(st.floats(-math.pi, math.pi))
    horizon = draw(horizons)
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
       scaling=st.sampled_from(DepositScaling), cal=st.sampled_from([CAL, PEAKED]),
       sized=st.booleans())
def test_reach_box_predictor_equals_the_whole_field_predictor(problem, model, scaling, cal,
                                                              sized):
    grid, poses, applied, prescribed, controls = problem
    # the controller's box, or an empty one that only the guard grows
    radius = _box_radius(cal, model) if sized else 0.0

    def predictor(radius):
        return controllers._Predictor(grid, poses, applied, prescribed, model, cal, scaling,
                                      radius=radius)

    boxed, whole = predictor(radius), predictor(math.inf)
    value, whole_value = boxed.cost(controls), whole.cost(controls)
    # one pose sums its cost on the same slice of one order either way;
    # several poses on their boxes' union or on every cell, which round apart
    if len(poses) == 1:
        assert value == whole_value
    else:
        assert abs(value - whole_value) <= 1e-12 * whole_value
    ones = np.ones(controls.shape)
    got, e, S, rows = boxed.cost_residual_jacobian(controls, ones)
    whole_got, whole_e, whole_S, whole_rows = whole.cost_residual_jacobian(controls, ones)
    assert got == value and whole_got == whole_value
    assert np.array_equal(rows, whole_rows)
    assert np.array_equal(e, whole_e) and np.array_equal(S, whole_S)
    for geometry, full in zip(boxed.geometry, whole.geometry):
        # the box's cells, in the whole field's order up to its radius
        near = full.dist <= geometry.radius
        assert np.array_equal(geometry.cells[:near.sum()], full.cells[near])
        assert geometry.cells.size <= full.cells.size


@settings(max_examples=150, deadline=None)
@given(problem=reach_box_problems(horizons=st.integers(2, 4)),
       model=st.sampled_from(DepositionModel), scaling=st.sampled_from(DepositScaling),
       cal=st.sampled_from([CAL, PEAKED]), sized=st.booleans())
def test_a_several_pose_prediction_is_the_field_order_prediction(problem, model, scaling, cal,
                                                                 sized):
    # several poses fill the union of their boxes in field order: residual
    # rows and Jacobian rows are bitwise those of scattering every disc in
    # turn, and the cost, summed on the union from the field's base cost,
    # equal within rounding
    grid, poses, applied, prescribed, controls = problem
    radius = _box_radius(cal, model) if sized else 0.0
    predictor = controllers._Predictor(grid, poses, applied, prescribed, model, cal, scaling,
                                       radius=radius)
    whole = controllers._Predictor(grid, poses, applied, prescribed, model, cal, scaling)
    expected, residual, jacobian, bands = field_order_prediction(whole, controls)
    value = predictor.cost(controls)
    assert abs(value - expected) <= 1e-12 * expected
    got, e, S, rows = predictor.cost_residual_jacobian(controls, np.ones(controls.shape))
    assert got == value
    assert np.array_equal(rows, functools.reduce(np.union1d, bands))
    assert e.tobytes() == residual[rows].tobytes()
    assert S.tobytes() == jacobian[rows].tobytes()


def test_the_box_radius_covers_the_actuator_box_and_a_wider_band_grows_it():
    model = DepositionModel.FULL_NORMAL
    radius = _box_radius(PEAKED, model)
    at = {rpm: PEAKED.distance(rpm) + spread._reach(PEAKED.sigma_distance(rpm),
                                                    PEAKED.sigma_angle(rpm), model)
          for rpm in (DEFAULT_CONSTRAINTS.rpm_min, 611.0, DEFAULT_CONSTRAINTS.rpm_max)}
    # the reach peaks strictly inside the range, and the box covers the peak
    assert radius >= at[611.0] > max(at[DEFAULT_CONSTRAINTS.rpm_min],
                                     at[DEFAULT_CONSTRAINTS.rpm_max])
    grid = FieldGrid(300.0, 120)
    peak = np.array([[45.0, 45.0, 611.0, 611.0]])
    # the controller's box keeps its radius at the peak; a box sized by the
    # range's bounds alone grows to the peak's band
    for given, grown in ((radius, radius), (at[DEFAULT_CONSTRAINTS.rpm_max], at[611.0])):
        predictor = controllers._Predictor(grid, [TractorState(150.0, 150.0, 0.4)],
                                           grid.zeros(), grid.zeros(), model, PEAKED,
                                           radius=given)
        assert predictor.geometry[0].radius == given
        predictor.cost(peak)
        assert predictor.geometry[0].radius == grown


@pytest.mark.parametrize("cal", [CAL, PEAKED], ids=["default", "peaked"])
def test_the_box_radius_bounds_every_band_in_the_actuator_box(cal):
    rpms = np.linspace(DEFAULT_CONSTRAINTS.rpm_min, DEFAULT_CONSTRAINTS.rpm_max, 1201)
    for model in DepositionModel:
        radius = _box_radius(cal, model)
        outer = max(band_bounds(pattern_from_controls(rpm, 45.0, cal, "right"), model,
                                DepositScaling.LITERAL)[1]
                    for rpm in rpms.tolist())
        assert outer <= radius < outer + 0.1


def _closed_form_reach(sd, sa):
    """The normal reach as one expression: ``None`` where it is not a
    finite number, since the product of spreads underflows, its inverse
    overflows or its logarithm is negative."""
    try:
        reach = sd * math.sqrt(2.0 * math.log(1.0 / (2.0 * math.pi * sd * sa * WINDOW_TOLERANCE)))
    except (ValueError, ZeroDivisionError):
        return None
    return reach if math.isfinite(reach) else None


# spreads from 1e-200 to 1e200, and pairs at the edges of the closed form,
# where 1 / (2 pi sd sa tol) overflows or falls to 1
SPREADS = st.one_of(
    st.tuples(st.floats(-200.0, 200.0), st.floats(-200.0, 200.0)),
    st.floats(-309.0, -306.5).map(lambda e: (e / 2.0 + 16.0, e / 2.0 + 16.0)),
    st.floats(30.5, 31.5).map(lambda e: (e / 2.0, e / 2.0)))


@settings(max_examples=400, deadline=None)
@given(exponents=SPREADS)
def test_the_reach_is_finite_and_non_negative_for_any_spread(exponents):
    sd, sa = (10.0 ** e for e in exponents)
    for model in DepositionModel:
        reach = spread._reach(sd, sa, model)
        assert math.isfinite(reach) and reach >= 0.0


@settings(max_examples=400, deadline=None)
@given(exponents=SPREADS)
def test_the_normal_reach_is_the_closed_form_or_its_limit(exponents):
    sd, sa = (10.0 ** e for e in exponents)
    reach = spread._reach(sd, sa, DepositionModel.FULL_NORMAL)
    closed = _closed_form_reach(sd, sa)
    if 2.0 * math.pi * sd * sa * WINDOW_TOLERANCE >= 1.0:
        # the density per gram is at or below the tolerance everywhere
        assert reach == 0.0
    elif closed is not None:
        assert reach == closed
    else:
        # the product, and its logarithm, in decimal arithmetic that does not underflow
        with decimal.localcontext(decimal.Context(prec=40)):
            log_ratio = float((decimal.Decimal(2.0 * math.pi) * decimal.Decimal(sd)
                              * decimal.Decimal(sa) * decimal.Decimal(WINDOW_TOLERANCE)).ln())
        assert math.isclose(reach, sd * math.sqrt(-2.0 * log_ratio), rel_tol=1e-12)


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
    value, e, S, rows = predictor.cost_residual_jacobian(warm, np.ones(warm.shape))
    assert value == predictor.cost(warm) == float(np.sum(prescribed ** 2))
    assert e.size == rows.size == 0 and S.shape == (0, 4)
    controls, cost, _ = controllers._solve_deltas(predictor, warm[0], warm, DEFAULT_CONSTRAINTS,
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
       scaling=st.sampled_from(DepositScaling))
def test_band_plant_matches_the_dense_deposit(n, side, fx, fy, heading, flows, distance,
                                             sigma_distance, angle, sigma_angle, scaling):
    grid = FieldGrid(side, n)
    pose = TractorState(fx * side, fy * side, heading)
    left = PatternParams(flows[0], distance, sigma_distance, -angle, sigma_angle)
    right = PatternParams(flows[1], distance, sigma_distance, angle, sigma_angle)
    banded = total_deposit(pose, left, right, grid, scaling)

    cx, cy = grid.center_mesh()
    dist, angle_ = pose_geometry(cx, cy, pose.x, pose.y, pose.heading)
    scale = (conservative_scale(dist, grid) if scaling is DepositScaling.CONSERVATIVE
             else np.ones_like(dist))
    dense_scale = scale if scaling is DepositScaling.CONSERVATIVE else 1.0
    model = DepositionModel.FULL_NORMAL
    dense = spread.disc_deposit(dist, angle_, dense_scale, left, model)
    dense += spread.disc_deposit(dist, angle_, dense_scale, right, model)
    # each disc drops at most WINDOW_TOLERANCE per gram of its flow (times
    # the area scale), and adding that to the other disc's deposit rounds
    # by at most as much again
    bound = 2.0 * WINDOW_TOLERANCE * (flows[0] + flows[1]) * scale * (1.0 + 1e-9)
    assert np.all(np.abs(banded - dense) <= bound)


BOX = DEFAULT_CONSTRAINTS
FLOW = st.one_of(st.sampled_from([BOX.flow_min, BOX.flow_max]),
                 st.floats(BOX.flow_min, BOX.flow_max))
RPM = st.one_of(st.sampled_from([BOX.rpm_min, BOX.rpm_max]), st.floats(BOX.rpm_min, BOX.rpm_max))
# on the field, at its edges and corners, just off it, or far beyond any band
PLACE = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.5, 1.0, -10.0, 11.0]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40), side=st.floats(10.0, 300.0), fx=PLACE, fy=PLACE,
       heading=st.floats(-math.pi, math.pi), flows=st.tuples(FLOW, FLOW),
       rpms=st.tuples(RPM, RPM), scaling=st.sampled_from(DepositScaling),
       boxed=st.booleans())
def test_the_plant_is_the_full_model_predictor_on_an_empty_map(n, side, fx, fy, heading, flows,
                                                               rpms, scaling, boxed):
    # the plant keeps its own geometry as the predictor's independent
    # reference, and still deposits bitwise what a one-pose prediction does
    grid = FieldGrid(side, n)
    pose = TractorState(fx * side, fy * side, heading)
    model = DepositionModel.FULL_NORMAL
    radius = _box_radius(CAL, model) if boxed else math.inf
    predictor = controllers._Predictor(grid, [pose], grid.zeros(), grid.zeros(), model, CAL,
                                       scaling, radius=radius)
    controls = SpreaderControls(*flows, *rpms)
    predictor.cost(controls.as_array()[None, :])
    plant = total_deposit(pose, *patterns_from_controls(controls, CAL), grid, scaling)
    # a single pose fills its residual only on the union slice of its two
    # windows in its distance order; on a zero prescription that is the map
    windows = [band[0] for _, band, _ in predictor._discs]
    union = slice(min(w.start for w in windows), max(w.stop for w in windows))
    predicted = grid.zeros()
    predicted.ravel()[predictor.geometry[0].cells[union]] = predictor._work[union]
    assert predicted.tobytes() == plant.tobytes()


@st.composite
def single_pose_schedules(draw):
    """A one-pose problem and a sequence of controls, each from the one
    before by a move: a new flow alone, a new rpm, an rpm at a bound of the
    actuator box (as the unroll clips it), or the two discs at opposite rpm
    bounds, which pulls their windows apart."""
    n = draw(st.integers(1, 40))
    side = draw(st.floats(10.0, 300.0))
    pose = TractorState(draw(PLACE) * side, draw(PLACE) * side, draw(st.floats(-math.pi, math.pi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = [draw(FLOW), draw(FLOW), draw(RPM), draw(RPM)]
    schedule = [row]
    bounds = [BOX.rpm_min, BOX.rpm_max]
    for move in draw(st.lists(st.sampled_from(["flow", "rpm", "clip", "apart"]), min_size=1,
                              max_size=6)):
        row = list(row)
        if move == "flow":
            row[draw(st.sampled_from([0, 1]))] = draw(FLOW)
        elif move == "rpm":
            row[draw(st.sampled_from([2, 3]))] = draw(RPM)
        elif move == "clip":
            row[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(bounds))
        else:
            row[2:] = bounds if draw(st.booleans()) else bounds[::-1]
        schedule.append(row)
    return (FieldGrid(side, n), pose, rng.uniform(0.0, 30.0, (n, n)),
            rng.choice([0.0, 12.0, 30.0], (n, n)), schedule)


@settings(max_examples=150, deadline=None)
@given(problem=single_pose_schedules(), model=st.sampled_from(DepositionModel),
       scaling=st.sampled_from(DepositScaling), cal=st.sampled_from([CAL, NARROW]),
       box=st.sampled_from(["actuator", "first", "empty"]))
def test_a_single_pose_prediction_is_the_field_order_prediction(problem, model, scaling, cal,
                                                                box):
    # a single pose sums its cost on the slice spanning its windows only: its
    # residual and Jacobian rows stay bitwise, its cost within rounding
    grid, pose, applied, prescribed, schedule = problem
    if box == "actuator":
        radius = _box_radius(cal, model)
    elif box == "first":
        # the first controls' widest band: a later wider one grows the box
        # while the other disc keeps its window
        radius = max(band_bounds(pattern_from_controls(schedule[0][rpm_col],
                                                       schedule[0][flow_col], cal, side_name),
                                 model, scaling)[1]
                     for flow_col, rpm_col, side_name, _ in controllers._DISC_COLUMNS)
    else:
        radius = 0.0

    def predictor(radius):
        return controllers._Predictor(grid, [pose], applied, prescribed, model, cal, scaling,
                                      radius=radius)

    boxed, whole = predictor(radius), predictor(math.inf)
    ones = np.ones((1, 4))
    for row in schedule:
        controls = np.array([row])
        value = boxed.cost(controls)
        assert value == whole.cost(controls)
        expected, residual, jacobian, bands = field_order_prediction(whole, controls)
        assert abs(value - expected) <= 1e-12 * expected
        for used in (boxed, whole):
            got, e, S, rows = used.cost_residual_jacobian(controls, ones)
            assert got == value
            assert np.unique(rows).size == rows.size
            assert np.isin(np.union1d(*bands), rows).all()
            assert e.tobytes() == residual[rows].tobytes()
            assert S.tobytes() == jacobian[rows].tobytes()


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


def _whole_grid(params, model, scaling):
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
