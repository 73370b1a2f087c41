import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreadopt import (
    CalibrationDomainError,
    CalibrationModel,
    ControlConstraints,
    ControllerKind,
    DEFAULT_CALIBRATION,
    DEFAULT_CONSTRAINTS,
    DepositScaling,
    DepositionModel,
    FieldGrid,
    OptimizerSettings,
    ConfigurationError,
    Scenario,
    SpreaderControls,
    TractorState,
    as_amount_map,
    cost,
    make_controller,
    run,
    satisfies_constraints,
    trajectory,
    DriveCommand,
    DrivePlan,
    default_calibration_path,
    default_scenario_path,
    load_calibration,
    load_scenario,
)
from spreadopt import controllers, spread
from spreadopt.spread import SQRT_TWO_PI

from checks import (NARROW, analytic_gradient, central_difference_gradient, chain_feasible,
                    clamp_controls)
from replay import ScheduleReplayController

CAL = DEFAULT_CALIBRATION
RATE_DIAG = 20.0 / math.sqrt(2.0)  # largest per-disc flow change per step


def pinned_rpm_constraints(rpm=600.0):
    return ControlConstraints(rpm_min=rpm, rpm_max=rpm)


def single_cell_problem(deficit=30.0, rpm=600.0):
    """One cell whose center sits on the pattern ring, sized so a unit of
    flow from either disc lands exactly one unit of mass in the cell."""
    d = CAL.distance(rpm)
    sd = CAL.sigma_distance(rpm)
    psi = CAL.angle(rpm)
    sa = CAL.sigma_angle(rpm)
    radial_peak = 1.0 / (SQRT_TWO_PI * sd)
    angular_at_lobe = math.exp(-0.5 * (psi / sa) ** 2) / (SQRT_TWO_PI * sa)
    area = d / (radial_peak * angular_at_lobe)
    side = math.sqrt(area)
    grid = FieldGrid(side, 1)
    state = TractorState(side / 2.0 + d, side / 2.0, 0.0)
    prescribed = as_amount_map(np.full((1, 1), deficit), grid)
    return grid, state, prescribed


def schedule_of(rows):
    return np.array(rows, dtype=float)


def random_feasible_schedule(rng, previous, constraints, horizon):
    steps = []
    prev = previous
    for _ in range(horizon):
        wish = SpreaderControls(*(prev.as_array() + rng.uniform(-1.0, 1.0, 4) *
                                  [RATE_DIAG, RATE_DIAG, 70.0, 70.0]))
        nxt = clamp_controls(wish, prev, constraints)
        steps.append(nxt.as_array())
        prev = nxt
    return np.stack(steps)


def small_field(n=10, side=40.0, dose=20.0):
    grid = FieldGrid(side, n)
    prescribed = as_amount_map(np.full((n, n), dose), grid)
    return grid, prescribed


def straight_tail(start, speed, count):
    plan = DrivePlan(start, (DriveCommand(speed, 0.0, float(count)),))
    return trajectory(plan, 1.0)[1:]


def predictor_for(grid, tail, applied, prescribed, model=DepositionModel.FULL_NORMAL,
                  scaling=DepositScaling.LITERAL):
    return controllers._Predictor(grid, tail, applied, prescribed, model, CAL, scaling)


def optimized(predictor, initial, previous, constraints=DEFAULT_CONSTRAINTS,
              settings=OptimizerSettings()):
    return controllers._solve_deltas(predictor, previous.as_array(), initial, constraints,
                                     settings)[0]


def decide(kind, horizon, tail, applied, prescribed, previous, grid):
    """One decision of a fresh controller of ``kind`` over ``tail``."""
    controller = make_controller(kind, horizon, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings())
    return controller.plan_controls(tail, applied, prescribed, previous, grid)


# --- prediction -------------------------------------------------------------

def test_zero_flow_schedule_predicts_the_current_cost():
    grid, prescribed = small_field()
    rng = np.random.default_rng(3)
    applied = as_amount_map(rng.uniform(0.0, 10.0, (10, 10)), grid)
    schedule = schedule_of([(0.0, 0.0, 600.0, 600.0)])
    tail = [TractorState(20.0, 20.0, 0.0)]
    value = predictor_for(grid, tail, applied, prescribed).cost(schedule)
    assert value == cost(applied, prescribed)


def test_single_cell_prediction_reduces_to_scalar_arithmetic():
    grid, state, prescribed = single_cell_problem(deficit=30.0)
    applied = as_amount_map(np.full((1, 1), 5.0), grid)
    schedule = schedule_of([(12.0, 25.0, 600.0, 600.0)])
    value = predictor_for(grid, [state], applied, prescribed,
                          scaling=DepositScaling.CONSERVATIVE).cost(schedule)
    assert value == pytest.approx((30.0 - 5.0 - 12.0 - 25.0) ** 2, rel=1e-12)


def test_five_step_prediction_matches_the_open_loop_simulation():
    grid, prescribed = small_field(n=12, side=50.0)
    start = TractorState(5.0, 25.0, 0.0)
    plan = DrivePlan(start, (DriveCommand(4.0, 0.0, 5.0),))
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    rng = np.random.default_rng(8)
    schedule = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 5)

    tail = trajectory(plan, 1.0)[1:]
    predicted = predictor_for(grid, tail, grid.zeros(), prescribed).cost(schedule)

    scenario = Scenario(grid, prescribed, plan, 1.0, previous)
    replay = ScheduleReplayController(SpreaderControls.from_array(row) for row in schedule)
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), controller=replay)
    assert predicted == pytest.approx(record.final_cost, rel=1e-9)


# --- gradients ----------------------------------------------------------------

@pytest.mark.parametrize("model", [DepositionModel.FULL_NORMAL, DepositionModel.TRIANGLE])
def test_gradient_matches_central_differences(model):
    grid, prescribed = small_field()
    start = TractorState(8.0, 20.0, 0.0)
    tail = straight_tail(start, 5.0, 3)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    rng = np.random.default_rng(21)
    applied = as_amount_map(rng.uniform(0.0, 8.0, (10, 10)), grid)
    schedule = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 3)

    predictor = predictor_for(grid, tail, applied, prescribed, model)
    analytic = analytic_gradient(predictor, schedule)
    numeric = central_difference_gradient(predictor, schedule)
    scale = np.abs(numeric).max()
    assert scale > 0
    assert np.abs(analytic - numeric).max() / scale < 1e-6


def test_flow_gradient_is_negative_on_an_unfertilized_field():
    grid, prescribed = small_field()
    start = TractorState(30.0, 20.0, 0.0)
    schedule = schedule_of([(0.0, 0.0, 600.0, 600.0)])
    g = analytic_gradient(predictor_for(grid, [start], grid.zeros(), prescribed), schedule)
    assert g[0] < 0 and g[1] < 0  # more flow reduces the shortfall
    assert g[2] == 0.0 and g[3] == 0.0  # disc speed is inert at zero flow


def test_gradient_vanishes_at_a_met_prescription():
    grid, prescribed = small_field()
    start = TractorState(20.0, 20.0, 0.0)
    schedule = schedule_of([(0.0, 0.0, 600.0, 600.0)])
    g = analytic_gradient(predictor_for(grid, [start], prescribed.copy(), prescribed),
                          schedule)
    assert np.array_equal(g, np.zeros(4))


# --- Jacobian fold ---------------------------------------------------------------

def _fold_jacobian_out_of_place(S, masks):
    """Reference fold that leaves ``S`` alone and allocates its result."""
    h = masks.shape[0]
    out = np.empty_like(S)
    carry = np.zeros((S.shape[0], 4))
    for i in reversed(range(h)):
        carry = masks[i][None, :] * (S[:, 4 * i:4 * i + 4] + carry)
        out[:, 4 * i:4 * i + 4] = carry
    return out


@settings(max_examples=200, deadline=None)
@given(masks=st.lists(st.tuples(*[st.booleans()] * 4), min_size=1, max_size=10),
       rows=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
       zero_rows=st.floats(0.0, 1.0), negative_zeros=st.floats(0.0, 0.5))
def test_in_place_fold_matches_the_out_of_place_fold(masks, rows, seed, zero_rows,
                                                     negative_zeros):
    masks = np.array(masks, dtype=float)
    columns = 4 * len(masks)
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-6, 4, size=columns)
    # rows outside every disc's window are zero, with either sign
    zero = rng.random(rows) < zero_rows
    S[zero] = np.where(rng.random((int(zero.sum()), 1)) < 0.5, 0.0, -0.0)
    S[rng.random(S.shape) < negative_zeros] = -0.0
    e = rng.normal(size=rows)
    e[rng.random(rows) < 0.2] = 0.0

    reference = _fold_jacobian_out_of_place(S.copy(), masks)
    # a column-major copy folds in place too: the Gram path folds (G F)^T
    fortran = S.copy(order="F")
    assert controllers._fold_jacobian(fortran, masks) is fortran
    assert np.array_equal(fortran, reference)
    folded = controllers._fold_jacobian(S, masks)
    assert folded is S
    assert np.array_equal(folded, reference)
    # what the Gauss-Newton step reads of the fold
    assert (folded.T @ folded).tobytes() == (reference.T @ reference).tobytes()
    assert (folded.T @ e).tobytes() == (reference.T @ e).tobytes()


@st.composite
def band_jacobians(draw):
    """A predictor over 1-10 poses, in-box controls and clip masks with
    zeros.  Under the narrow calibration one pose's two windows come apart
    when the discs' speeds differ, leaving zero rows between them."""
    n = draw(st.integers(4, 40))
    side = draw(st.floats(10.0, 200.0))
    horizon = draw(st.integers(1, 10))
    start = TractorState(draw(st.floats(-0.2, 1.2)) * side, draw(st.floats(-0.2, 1.2)) * side,
                         draw(st.floats(-math.pi, math.pi)))
    command = DriveCommand(draw(st.floats(1.0, 8.0)), draw(st.floats(-0.4, 0.4)),
                           float(horizon))
    poses = trajectory(DrivePlan(start, (command,)), 1.0)[1:]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = FieldGrid(side, n)
    predictor = controllers._Predictor(
        grid, poses, rng.uniform(0.0, 30.0, (n, n)), rng.choice([0.0, 12.0, 30.0], (n, n)),
        draw(st.sampled_from(DepositionModel)), draw(st.sampled_from([CAL, NARROW])),
        draw(st.sampled_from(DepositScaling)))
    lo, hi = DEFAULT_CONSTRAINTS.lower(), DEFAULT_CONSTRAINTS.upper()
    controls = rng.uniform(lo, hi, (horizon, 4))
    masks = (rng.random((horizon, 4)) >= draw(st.floats(0.0, 0.5))).astype(float)
    return predictor, controls, masks


def _check_normal_equations(predictor, controls, masks):
    _, e, S, rows = predictor.cost_residual_jacobian(controls, np.ones(controls.shape))
    M, grad_x = controllers._normal_equations(S, e, masks)

    # the dense reference: every cell a row, the residual of every cell
    dense = np.zeros((predictor.applied.size, S.shape[1]))
    dense[rows] = S
    residual = predictor.applied - predictor.target
    residual[rows] = e
    Sx = _fold_jacobian_out_of_place(dense, masks)
    # the rounding of each sum is bounded by the sum of its terms' magnitudes,
    # plus half a subnormal unit for each product that underflows
    Ax = _fold_jacobian_out_of_place(np.abs(dense), masks)
    tolerance = 1e-9
    underflow = S.size * S.shape[1] * np.finfo(float).smallest_subnormal
    assert np.all(np.abs(M - Sx.T @ Sx) <= tolerance * (Ax.T @ Ax) + underflow)
    # the solver's right-hand side is -Sx^T e = -grad_x / 2
    assert np.all(np.abs(0.5 * grad_x - Sx.T @ residual)
                  <= tolerance * (Ax.T @ np.abs(residual)) + underflow)
    # clipped columns are exactly zero
    clipped = masks.ravel() == 0
    assert not M[clipped].any() and not M[:, clipped].any() and not grad_x[clipped].any()


@settings(max_examples=30, deadline=None)
@given(problem=band_jacobians())
def test_band_row_normal_equations_match_the_dense_fold(problem):
    _check_normal_equations(*problem)


@pytest.mark.slow
@settings(max_examples=400, deadline=None)
@given(problem=band_jacobians())
def test_band_row_normal_equations_match_the_dense_fold_over_many_problems(problem):
    _check_normal_equations(*problem)


@settings(max_examples=40, deadline=None)
@given(problem=band_jacobians())
def test_skipping_clipped_rpm_columns_leaves_the_normal_equations_unchanged(problem):
    # the fold multiplies a clipped step's rpm column by zero, so the
    # Jacobian leaves it unbuilt; the fold must not see the difference
    predictor, controls, masks = problem
    value, e, S, rows = predictor.cost_residual_jacobian(controls, np.ones(masks.shape))
    skipped = predictor.cost_residual_jacobian(controls, masks)
    assert skipped[0] == value
    assert skipped[1].tobytes() == e.tobytes() and skipped[3].tobytes() == rows.tobytes()
    dead = np.zeros(masks.shape, dtype=bool)
    dead[:, 2:] = masks[:, 2:] == 0
    dead = dead.ravel()
    assert not skipped[2][:, dead].any()
    assert skipped[2][:, ~dead].tobytes() == S[:, ~dead].tobytes()
    M, grad = controllers._normal_equations(S, e, masks)
    M_skipped, grad_skipped = controllers._normal_equations(skipped[2], e, masks)
    # bitwise equal but for the sign of a zero, which adding 0.0 clears: a
    # clipped column's entries are x * 0.0, with the sign of x
    assert (M_skipped + 0.0).tobytes() == (M + 0.0).tobytes()
    assert (grad_skipped + 0.0).tobytes() == (grad + 0.0).tobytes()


def test_greedy_solve_allocates_no_field_sized_temporaries(monkeypatch):
    n = 180
    grid = FieldGrid(300.0, n)
    prescribed = as_amount_map(np.full((n, n), 20.0), grid)
    predictor = controllers._Predictor(grid, [TractorState(150.0, 150.0, 0.3)], grid.zeros(),
                                       prescribed, DepositionModel.FULL_NORMAL, CAL)
    prev = np.array([45.0, 45.0, 600.0, 600.0])
    _, e, S, rows = predictor.cost_residual_jacobian(prev[None, :], np.ones((1, 4)))
    # the two discs' bands cover 1,716 of the 32,400 cells
    assert e.shape == rows.shape and S.shape == (rows.size, 4)
    assert rows.size < n * n / 10
    fold = controllers._fold_jacobian
    folds = []

    def counted_fold(A, masks):
        folds.append(A.shape)
        return fold(A, masks)

    monkeypatch.setattr(controllers, "_fold_jacobian", counted_fold)
    tracemalloc.start()
    try:
        controllers._solve_deltas(predictor, prev, prev[None, :], DEFAULT_CONSTRAINTS,
                                  OptimizerSettings())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the fold sees the Gram matrix with the gradient row, then its transpose
    assert folds and set(folds) == {(5, 4), (4, 4)}
    # a single pose's evaluations fill the work array that the predictor
    # allocated with its geometry, so the peak is the bands' Jacobian and
    # partials with the last evaluation's density factors: under one n_cells
    # map, against 2.96 when each evaluation allocated a predicted map and a
    # residual, and just over one when each allocated its union slice
    assert peak < n * n * 8


def _built_bytes(grid, poses, applied, prescribed, radius):
    """Bytes a several-pose predictor keeps once built, with its geometry
    cached, as the controller builds it."""
    cache = {}
    args = (grid, poses, applied, prescribed, DepositionModel.FULL_NORMAL, CAL)
    controllers._Predictor(*args, geometry_cache=cache, radius=radius)
    tracemalloc.start()
    try:
        predictor = controllers._Predictor(*args, geometry_cache=cache, radius=radius)
        built, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return predictor, built


def test_a_several_pose_solve_allocates_no_field_sized_temporaries():
    # the cell size of the greedy test, on a field four times its area, so
    # that the four bands' records, partials and Jacobian stay under one map
    n, h = 360, 2
    grid = FieldGrid(600.0, n)
    prescribed = as_amount_map(np.full((n, n), 20.0), grid)
    plan = DrivePlan(TractorState(300.0, 300.0, 0.3), (DriveCommand(8.0, 0.1, float(h)),))
    poses = trajectory(plan, 1.0)[1:]
    radius = controllers._reach_radius(CAL, DepositionModel.FULL_NORMAL, DEFAULT_CONSTRAINTS)
    predictor, built = _built_bytes(grid, poses, grid.zeros(), prescribed, radius)
    # building keeps the maps gathered on the union of the poses' boxes and
    # each pose's positions in it: 2.3 bytes a cell, against 17 when the work
    # array, _rows's marks and its row positions were field-sized
    assert built < n * n * 8 / 3
    prev = np.array([45.0, 45.0, 600.0, 600.0])
    start = np.tile(prev, (h, 1)) + [[5.0, -5.0, 30.0, -30.0], [10.0, -10.0, 60.0, -60.0]]
    tracemalloc.start()
    try:
        controls, _, _ = controllers._solve_deltas(predictor, prev, start, DEFAULT_CONSTRAINTS,
                                                   OptimizerSettings())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert controls.shape == (h, 4)
    # every evaluation fills the work array in place: the peak is the bands'
    # records, partials and Jacobian, about half of one n_cells map
    assert peak < n * n * 8


def test_a_several_pose_predictor_keeps_the_same_bytes_on_a_larger_field():
    # the same poses and cells on a field 16 times the area: a prediction
    # works on the poses' boxes, so nothing it keeps grows with the field
    radius = controllers._reach_radius(CAL, DepositionModel.FULL_NORMAL, DEFAULT_CONSTRAINTS)
    plan = DrivePlan(TractorState(150.0, 150.0, 0.3), (DriveCommand(8.0, 0.1, 3.0),))
    poses = trajectory(plan, 1.0)[1:]
    kept = []
    for n in (180, 720):
        grid = FieldGrid(n * 300.0 / 180, n)
        prescribed = as_amount_map(np.full((n, n), 20.0), grid)
        kept.append(_built_bytes(grid, poses, grid.zeros(), prescribed, radius)[1])
    # equal arrays; Python's own small objects move the count by some 100
    # bytes from one build to the next, where a field-sized array would add
    # megabytes
    assert abs(kept[1] - kept[0]) < 1024


# --- optimizer ------------------------------------------------------------------

def test_optimizer_reaches_the_single_cell_target():
    grid, state, prescribed = single_cell_problem(deficit=30.0)
    previous = SpreaderControls(5.0, 5.0, 600.0, 600.0)
    initial = schedule_of([(5.0, 5.0, 600.0, 600.0)])
    predictor = predictor_for(grid, [state], grid.zeros(), prescribed,
                              scaling=DepositScaling.CONSERVATIVE)
    out = optimized(predictor, initial, previous, pinned_rpm_constraints())
    first = SpreaderControls.from_array(out[0])
    assert first.flow_left + first.flow_right == pytest.approx(30.0, abs=1e-3)
    assert first.rpm_left == 600.0 and first.rpm_right == 600.0
    final = predictor.cost(out)
    assert final < 1e-6


def test_optimizer_saturates_rates_for_an_out_of_reach_deficit():
    grid, state, prescribed = single_cell_problem(deficit=100.0)
    previous = SpreaderControls(0.0, 0.0, 600.0, 600.0)
    initial = schedule_of([(0.0, 0.0, 600.0, 600.0)] * 2)
    predictor = predictor_for(grid, [state, state], grid.zeros(), prescribed,
                              scaling=DepositScaling.CONSERVATIVE)
    flows = optimized(predictor, initial, previous, pinned_rpm_constraints())[:, :2]
    assert np.allclose(flows[0], RATE_DIAG, atol=1e-6)
    assert np.allclose(flows[1], 2.0 * RATE_DIAG, atol=1e-6)
    # both steps ride the disc-pair rate circle
    assert math.hypot(*(flows[0] - 0.0)) == pytest.approx(20.0, abs=1e-6)
    assert math.hypot(*(flows[1] - flows[0])) == pytest.approx(20.0, abs=1e-6)


def test_optimizer_returns_a_stationary_start_unchanged():
    grid, prescribed = small_field()
    start = TractorState(20.0, 20.0, 0.0)
    previous = SpreaderControls(0.0, 0.0, 600.0, 600.0)
    initial = schedule_of([(0.0, 0.0, 600.0, 600.0)] * 2)
    predictor = predictor_for(grid, straight_tail(start, 5.0, 2), prescribed.copy(), prescribed)
    out = optimized(predictor, initial, previous)
    assert np.array_equal(out, initial)


@pytest.mark.parametrize("model", [DepositionModel.FULL_NORMAL, DepositionModel.TRIANGLE])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimizer_never_increases_the_cost(model, seed):
    grid, prescribed = small_field(n=8, side=30.0)
    start = TractorState(5.0, 15.0, 0.0)
    tail = straight_tail(start, 5.0, 3)
    rng = np.random.default_rng(seed)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    applied = as_amount_map(rng.uniform(0.0, 15.0, (8, 8)), grid)
    initial = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 3)

    predictor = predictor_for(grid, tail, applied, prescribed, model)
    before = predictor.cost(initial)
    out = optimized(predictor, initial, previous)
    after = predictor.cost(out)
    assert after <= before + 1e-9
    assert chain_feasible(out, previous, DEFAULT_CONSTRAINTS)


def test_gauss_newton_skips_a_direction_that_clipping_made_non_descent():
    # the seed-0 full-model problem of test_optimizer_never_increases_the_cost
    grid, prescribed = small_field(n=8, side=30.0)
    tail = straight_tail(TractorState(5.0, 15.0, 0.0), 5.0, 3)
    rng = np.random.default_rng(0)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    applied = as_amount_map(rng.uniform(0.0, 15.0, (8, 8)), grid)
    initial = random_feasible_schedule(rng, previous, DEFAULT_CONSTRAINTS, 3)
    predictor = controllers._Predictor(grid, tail, applied, prescribed,
                                       DepositionModel.FULL_NORMAL, CAL)
    events = []
    cost, jacobian = predictor.cost, predictor.cost_residual_jacobian

    def counted_cost(controls):
        events.append(("cost", controls.copy()))
        return cost(controls)

    def counted_jacobian(controls, masks):
        events.append(("jac", controls.copy()))
        return jacobian(controls, masks)

    predictor.cost = counted_cost
    predictor.cost_residual_jacobian = counted_jacobian
    prev = previous.as_array()
    controllers._solve_deltas(predictor, prev, initial, DEFAULT_CONSTRAINTS,
                              OptimizerSettings(max_iterations=4))

    # the parent spent 14 evaluations: one for each of three accepted
    # Gauss-Newton steps, then ten failed halvings along the fourth
    # direction and one projected-gradient step
    evaluations = [controls for kind, controls in events if kind == "cost"]
    assert len(evaluations) < 14
    fourth = [i for i, (kind, _) in enumerate(events) if kind == "jac"][3]
    controls = events[fourth][1]
    lo, hi = DEFAULT_CONSTRAINTS.lower(), DEFAULT_CONSTRAINTS.upper()
    assert np.all((controls > lo) & (controls < hi))  # no actuator clip: x is the diff
    x = np.diff(np.vstack([prev, controls]), axis=0)
    rbox = DEFAULT_CONSTRAINTS.rates() / math.sqrt(2.0)

    # the fourth direction, after three accepted steps cut lam 1e-8 -> 1e-11,
    # has a non-negative slope along its clipped path
    _, e, S, _ = jacobian(controls, np.ones((3, 4)))
    Sx = controllers._fold_jacobian(S, np.ones((3, 4)))
    grad_x = (2.0 * (Sx.T @ e)).reshape(3, 4)
    M = Sx.T @ Sx
    M[np.diag_indices_from(M)] += 1e-11 * (np.trace(M) / M.shape[0] + 1e-12)
    direction = np.linalg.solve(M, -(Sx.T @ e)).reshape(3, 4)
    blocked = (((x <= -rbox + 1e-9) & (direction < 0))
               | ((x >= rbox - 1e-9) & (direction > 0)))
    assert blocked.any()
    assert np.vdot(grad_x, np.where(blocked, 0.0, direction)) >= 0

    # every evaluation of that iteration lies on the projected-gradient path
    searched = [c for kind, c in events[fourth + 1:] if kind == "cost"]
    assert searched
    scale = float(np.max(rbox)) / float(np.max(np.abs(grad_x)))
    for halvings, candidate in enumerate(searched):
        step = np.clip(x - scale * 0.5 ** halvings * grad_x, -rbox, rbox)
        expected = controllers._unroll(step, prev, lo, hi)
        assert np.allclose(candidate, expected, rtol=0.0, atol=1e-9)


def interior_optimum_problem():
    """A greedy pose over a light prescription: the best flows lie inside
    the boxes, about 34 g/s per disc."""
    grid = FieldGrid(40.0, 12)
    prescribed = as_amount_map(np.full((12, 12), 4.0), grid)
    return controllers._Predictor(grid, [TractorState(20.0, 20.0, 0.3)], grid.zeros(),
                                  prescribed, DepositionModel.FULL_NORMAL, CAL)


def recorded_evaluations(predictor):
    """The list to which each of ``predictor``'s cost evaluations appends
    "cost" and each Jacobian "jac", in call order."""
    events = []
    cost, jacobian = predictor.cost, predictor.cost_residual_jacobian

    def counted_cost(controls):
        events.append("cost")
        return cost(controls)

    def counted_jacobian(controls, masks):
        events.append("jac")
        return jacobian(controls, masks)

    predictor.cost = counted_cost
    predictor.cost_residual_jacobian = counted_jacobian
    return events


def test_a_converged_solve_spends_no_cost_evaluation_after_its_last_jacobian(caplog):
    predictor = interior_optimum_problem()
    events = recorded_evaluations(predictor)
    prev = np.array([45.0, 45.0, 600.0, 600.0])
    with caplog.at_level(logging.DEBUG, logger="spreadopt.optimizer"):
        controls, _, _ = controllers._solve_deltas(predictor, prev, prev[None, :],
                                                   DEFAULT_CONSTRAINTS, OptimizerSettings())
    assert np.all(np.abs(controls[0, :2] - prev[:2]) < RATE_DIAG)  # an interior optimum
    assert any(record.getMessage().startswith("stop: model gain")
               for record in caplog.records)
    # without the model's stop, 14 projected-gradient halvings failed here
    assert events[-1] == "jac"


def test_a_start_promising_less_than_the_stop_tolerance_stops_at_once(caplog):
    # the eighth iterate from the held control: its model promises a relative
    # gain between the acceptance threshold and the stop tolerance, so a line
    # search would still accept steps there
    prev = np.array([45.0, 45.0, 600.0, 600.0])
    start, _, iterations = controllers._solve_deltas(
        interior_optimum_problem(), prev, prev[None, :], DEFAULT_CONSTRAINTS,
        OptimizerSettings(max_iterations=8))
    assert iterations == 8
    predictor = interior_optimum_problem()
    events = recorded_evaluations(predictor)
    with caplog.at_level(logging.DEBUG, logger="spreadopt.optimizer"):
        controls, value, iterations = controllers._solve_deltas(
            predictor, prev, start, DEFAULT_CONSTRAINTS, OptimizerSettings())
    assert iterations == 1 and events == ["cost", "jac"]
    assert np.array_equal(controls, start)
    stops = [record for record in caplog.records
             if record.getMessage().startswith("stop: model gain")]
    assert len(stops) == 1
    gain = stops[0].args[0]
    assert controllers.ACCEPT_GAIN * value < gain < controllers.STOP_GAIN * value


def test_a_start_far_from_the_optimum_does_not_stop_at_once():
    predictor = interior_optimum_problem()
    prev = np.array([100.0, 100.0, 600.0, 600.0])
    _, cost, iterations = controllers._solve_deltas(predictor, prev, prev[None, :],
                                                    DEFAULT_CONSTRAINTS, OptimizerSettings())
    assert iterations > 1
    assert cost < 0.9 * predictor.cost(prev[None, :])


@pytest.mark.parametrize("horizon", [1, 3])
def test_a_jacobian_at_the_accepted_candidate_rebuilds_no_pattern(horizon, monkeypatch):
    grid, prescribed = small_field(n=16, side=60.0, dose=4.0)
    tail = straight_tail(TractorState(15.0, 30.0, 0.0), 5.0, horizon)
    counts = {"params": 0, "factors": 0}
    factors = spread._density_factors

    def counted_factors(*args):
        counts["factors"] += 1
        return factors(*args)

    monkeypatch.setattr(spread, "_density_factors", counted_factors)

    def counted(call, log):
        def wrapper(controls, *args):
            before = dict(counts)
            out = call(controls, *args)
            log.append((controls.copy(),
                        tuple(counts[k] - before[k] for k in ("params", "factors"))))
            return out
        return wrapper

    reused = 0
    # the second start holds the right disc at the rpm ceiling, where the
    # unroll clips it
    for prev in (np.array([100.0, 100.0, 600.0, 600.0]), np.array([100.0, 100.0, 600.0, 900.0])):
        predictor = predictor_for(grid, tail, grid.zeros(), prescribed)
        disc_params = predictor._disc_params

        def counted_params(*args):
            counts["params"] += 1
            return disc_params(*args)

        per_jacobian, per_cost = [], []
        predictor._disc_params = counted_params
        predictor.cost = counted(predictor.cost, per_cost)
        predictor.cost_residual_jacobian = counted(predictor.cost_residual_jacobian,
                                                   per_jacobian)
        start = np.tile(prev, (horizon, 1))
        _, _, iterations = controllers._solve_deltas(predictor, prev, start,
                                                     DEFAULT_CONSTRAINTS, OptimizerSettings())
        assert iterations > 2 and len(per_jacobian) == iterations
        # the start's cost evaluation builds every disc; the first Jacobian
        # is taken at the start, each later one at the candidate the line
        # search has just evaluated and accepted
        assert per_cost[0][0].tobytes() == start.tobytes()
        assert per_cost[0][1] == (2 * horizon, 2 * horizon)
        assert {built for _, built in per_jacobian} == {(0, 0)}
        # a cost evaluation builds density factors only for the discs whose
        # rpm changed, bitwise, since the evaluation before it, and parameters
        # for those whose flow or rpm changed
        last = start
        for controls, built in per_cost[1:]:
            moved = controls.view(np.int64) != last.view(np.int64)
            changed = int(np.count_nonzero(moved[:, 2:]))
            assert built == (int(np.count_nonzero(moved[:, :2] | moved[:, 2:])), changed)
            reused += 2 * horizon - changed
            last = controls
    assert reused > 0


def _count_predictor_work(monkeypatch, counts):
    """Count pattern parameters built, density kernel calls and deposits
    the predictor multiplies, into ``counts``."""
    post_init = spread.PatternParams.__post_init__
    kernel = spread._density_factors
    deposit = controllers.deposit_from_factors

    def counted(key, call):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spread.PatternParams, "__post_init__", counted("params", post_init))
    monkeypatch.setattr(spread, "_density_factors", counted("kernel", kernel))
    monkeypatch.setattr(controllers, "deposit_from_factors", counted("deposits", deposit))


@pytest.mark.parametrize("model", list(DepositionModel))
def test_the_record_answers_a_repeated_evaluation_without_recomputing(model, monkeypatch):
    grid, prescribed = small_field(n=16, side=60.0, dose=4.0)
    tail = straight_tail(TractorState(15.0, 30.0, 0.0), 5.0, 3)
    controls = schedule_of([(40.0, 50.0, 600.0, 650.0), (45.0, 45.0, 650.0, 700.0),
                            (50.0, 40.0, 700.0, 750.0)])
    masks = np.ones((3, 4))
    fresh = predictor_for(grid, tail, grid.zeros(), prescribed, model)
    expected = fresh.cost_residual_jacobian(controls, masks)
    predictor = predictor_for(grid, tail, grid.zeros(), prescribed, model)
    value = predictor.cost(controls)

    counts = {"params": 0, "kernel": 0, "deposits": 0}
    _count_predictor_work(monkeypatch, counts)
    assert predictor.cost(controls.copy()) == value
    got = predictor.cost_residual_jacobian(controls.copy(), masks)
    assert counts == {"params": 0, "kernel": 0, "deposits": 0}
    assert got[0] == value == expected[0]
    for a, b in zip(got[1:], expected[1:]):
        assert a.tobytes() == b.tobytes()
    # one changed bit is another schedule
    controls[1, 0] = np.nextafter(controls[1, 0], 0.0)
    predictor.cost(controls)
    assert counts == {"params": 1, "kernel": 0, "deposits": 6}


def test_the_record_survives_an_evaluation_that_fails_mid_schedule():
    # the radial spread (rpm - 400) / 300 leaves the pattern's domain below
    # 400 rpm, inside the actuator box; this calibration is never validated
    cal = CalibrationModel((0.02, 3.0), (0.0, 1.0 / 300.0, -4.0 / 3.0),
                           CAL.angle_coeffs, CAL.sigma_angle_coeffs)
    grid, prescribed = small_field(n=16, side=60.0, dose=4.0)
    tail = straight_tail(TractorState(15.0, 30.0, 0.0), 5.0, 3)

    def predictor():
        return controllers._Predictor(grid, tail, grid.zeros(), prescribed,
                                      DepositionModel.FULL_NORMAL, cal)

    good = schedule_of([(40.0, 50.0, 600.0, 650.0), (45.0, 45.0, 650.0, 700.0),
                        (50.0, 40.0, 700.0, 750.0)])
    # the first step's discs are rebuilt, the second step's left disc keeps
    # its record with a new flow, and its right disc fails
    bad = good.copy()
    bad[0, 2:] = 610.0, 660.0
    bad[1, 0] = 30.0
    bad[1, 3] = 350.0
    masks = np.ones((3, 4))
    other = good + np.array([1.0, -1.0, 5.0, -5.0])
    used = predictor()
    used.cost(good)
    with pytest.raises(CalibrationDomainError):
        used.cost(bad)
    for controls in (good, bad[:1].repeat(3, axis=0), other):
        fresh = predictor()
        assert used.cost(controls) == fresh.cost(controls)
        got = used.cost_residual_jacobian(controls, masks)
        expected = fresh.cost_residual_jacobian(controls, masks)
        assert got[0] == expected[0]
        for a, b in zip(got[1:], expected[1:]):
            assert a.tobytes() == b.tobytes()
        with pytest.raises(CalibrationDomainError):
            used.cost_residual_jacobian(bad, masks)


def test_a_solve_evaluates_its_start_once(monkeypatch):
    grid, prescribed = small_field(n=16, side=60.0, dose=4.0)
    tail = straight_tail(TractorState(15.0, 30.0, 0.0), 5.0, 2)
    predictor = predictor_for(grid, tail, grid.zeros(), prescribed)
    prev = np.array([45.0, 45.0, 600.0, 600.0])
    start = np.tile(prev, (2, 1))
    counts = {"params": 0, "kernel": 0, "deposits": 0}
    _count_predictor_work(monkeypatch, counts)
    events = []
    cost, jacobian = predictor.cost, predictor.cost_residual_jacobian

    def logged(kind, call):
        def wrapper(controls, *args):
            before = counts["deposits"]
            out = call(controls, *args)
            events.append((kind, controls.tobytes(), counts["deposits"] - before))
            return out
        return wrapper

    predictor.cost = logged("cost", cost)
    predictor.cost_residual_jacobian = logged("jac", jacobian)
    controllers._solve_deltas(predictor, prev, start, DEFAULT_CONSTRAINTS, OptimizerSettings())
    # the start's cost evaluation multiplies its four deposits, and the
    # solve's first Jacobian, at the start, finds them in the record
    assert events[0] == ("cost", start.tobytes(), 4)
    assert events[1] == ("jac", start.tobytes(), 0)
    at_start = [deposits for _, controls, deposits in events
                if controls == start.tobytes() and deposits]
    assert at_start == [4]
    # every later Jacobian, too, is taken at controls just evaluated
    assert not any(deposits for kind, _, deposits in events if kind == "jac")


def test_optimizer_is_deterministic():
    grid, prescribed = small_field(n=8, side=30.0)
    start = TractorState(5.0, 15.0, 0.0)
    tail = straight_tail(start, 5.0, 2)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    initial = schedule_of([(45.0, 45.0, 600.0, 600.0)] * 2)

    def solve(settings):
        predictor = predictor_for(grid, tail, grid.zeros(), prescribed)
        return optimized(predictor, initial, previous, settings=settings)

    assert np.array_equal(solve(OptimizerSettings()), solve(OptimizerSettings()))
    tuned = OptimizerSettings(max_iterations=3)
    assert np.array_equal(solve(tuned), solve(tuned))


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        OptimizerSettings(max_iterations=0)
    with pytest.raises(ConfigurationError, match="gradient_tolerance"):
        OptimizerSettings(gradient_tolerance=-1.0)
    with pytest.raises(ConfigurationError, match="step_tolerance"):
        OptimizerSettings(step_tolerance=math.nan)
    for name in ("restarts", "seed"):
        for value in (-1, 1.5, 3, math.inf, math.nan):
            with pytest.raises(ConfigurationError, match=name):
                OptimizerSettings(**{name: value})
        # the shipped value as a whole float echoes as the integer
        assert type(getattr(OptimizerSettings(**{name: 0.0}), name)) is int


def _scenario_of_horizon(horizon):
    grid = FieldGrid(10.0, 2)
    plan = DrivePlan(TractorState(0.0, 5.0, 0.0), (DriveCommand(1.0, 0.0, 1.0),))
    return Scenario(grid, grid.zeros(), plan, 1.0, SpreaderControls(40.0, 40.0, 600.0, 600.0),
                    horizon=horizon)


# each constructor's integer field: the name its error gives, and a build
INTEGER_FIELDS = {
    "FieldGrid.n_cells": ("n_cells", lambda value: FieldGrid(150.0, value)),
    "Scenario.horizon": ("horizon", _scenario_of_horizon),
    "RecedingHorizonController.horizon": (
        "horizon", lambda value: controllers.RecedingHorizonController(
            DepositionModel.FULL_NORMAL, value, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings())),
    "OptimizerSettings.max_iterations": (
        "max_iterations", lambda value: OptimizerSettings(max_iterations=value)),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "5"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_a_non_finite_integer_field_is_a_configuration_error(field, value):
    name, build = INTEGER_FIELDS[field]
    with pytest.raises(ConfigurationError, match=f"^{name} must be a (positive|non-negative) "
                                                 f"integer, got {value!r}$"):
        build(value)
    # the same build takes a whole number
    build(2.0)


@pytest.mark.parametrize("field", ["model", "scaling"])
def test_constructors_reject_an_unknown_model_or_scaling(field):
    grid, prescribed = small_field()
    args = {"model": DepositionModel.FULL_NORMAL, "scaling": DepositScaling.LITERAL,
            field: "bogus"}
    with pytest.raises(ValueError, match="'bogus' is not a valid"):
        controllers._Predictor(grid, [TractorState(20.0, 20.0, 0.0)], grid.zeros(), prescribed,
                               args["model"], CAL, args["scaling"])
    with pytest.raises(ValueError, match="'bogus' is not a valid"):
        controllers.RecedingHorizonController(args["model"], 2, CAL, DEFAULT_CONSTRAINTS,
                                              OptimizerSettings(), args["scaling"])


# --- controller steps -------------------------------------------------------

def test_greedy_backs_off_once_the_prescription_is_met():
    grid, prescribed = small_field()
    start = TractorState(20.0, 20.0, 0.0)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    out = decide(ControllerKind.GREEDY, 1, [start], prescribed.copy(), prescribed, previous,
                 grid)
    assert out.flow_left == pytest.approx(45.0 - RATE_DIAG, abs=1e-6)
    assert out.flow_right == pytest.approx(45.0 - RATE_DIAG, abs=1e-6)


def test_greedy_treats_a_symmetric_field_symmetrically():
    grid = FieldGrid(30.0, 10)
    prescribed = as_amount_map(np.full((10, 10), 20.0), grid)
    start = TractorState(15.0, 15.0, 0.0)  # grid is mirror symmetric about y=15
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    out = decide(ControllerKind.GREEDY, 1, [start], grid.zeros(), prescribed, previous, grid)
    d_flow = (out.flow_left - previous.flow_left) - (out.flow_right - previous.flow_right)
    d_rpm = (out.rpm_left - previous.rpm_left) - (out.rpm_right - previous.rpm_right)
    assert abs(d_flow) <= 1e-6
    assert abs(d_rpm) <= 1e-3


def test_greedy_is_single_step_full_model_mpc():
    grid, prescribed = small_field()
    start = TractorState(10.0, 20.0, 0.3)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    rng = np.random.default_rng(4)
    applied = as_amount_map(rng.uniform(0.0, 10.0, (10, 10)), grid)
    a = decide(ControllerKind.GREEDY, 1, [start], applied, prescribed, previous, grid)
    b = decide(ControllerKind.MPC_FULL, 1, [start], applied, prescribed, previous, grid)
    assert np.array_equal(a.as_array(), b.as_array())


def test_controller_outputs_stay_feasible():
    grid, prescribed = small_field()
    start = TractorState(5.0, 20.0, 0.0)
    tail = straight_tail(start, 5.0, 4)
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    for kind in (ControllerKind.MPC_FULL, ControllerKind.MPC_TRIANGLE):
        out = decide(kind, 3, tail[:3], grid.zeros(), prescribed, previous, grid)
        assert satisfies_constraints(out, previous, DEFAULT_CONSTRAINTS)


def test_greedy_controller_forces_a_single_step_horizon():
    controller = make_controller(ControllerKind.GREEDY, 7, CAL, DEFAULT_CONSTRAINTS,
                                 OptimizerSettings())
    assert controller.horizon == 1
    assert controller.model is DepositionModel.FULL_NORMAL


def test_the_library_mpc_triangle_decides_as_the_packaged_one():
    # make_controller's defaults predict with the packaged scenario's
    # triangle: on the shipped plan cut to three steps, the library's
    # mpc-triangle decides bitwise as the packaged run's
    config = load_scenario(default_scenario_path())
    cal, constraints = load_calibration(default_calibration_path())
    shipped = config.scenario
    first = shipped.plan.segments[0]
    plan = DrivePlan(shipped.plan.start, (DriveCommand(first.speed, first.turn_rate, 3.0),))
    scenario = dataclasses.replace(shipped, plan=plan, controller=ControllerKind.MPC_TRIANGLE)
    packaged = run(scenario, cal, constraints, config.settings)
    library = make_controller(ControllerKind.MPC_TRIANGLE, scenario.horizon, cal, constraints,
                              config.settings)
    record = run(scenario, cal, constraints, config.settings, controller=library)
    assert record.n_steps == packaged.n_steps == 3
    assert record.controls.tobytes() == packaged.controls.tobytes()


def test_receding_horizon_controller_truncates_at_the_plan_end():
    grid, prescribed = small_field()
    start = TractorState(5.0, 20.0, 0.0)
    tail = straight_tail(start, 5.0, 2)  # shorter than the horizon
    controller = make_controller(ControllerKind.MPC_FULL, 5, CAL, DEFAULT_CONSTRAINTS,
                                 OptimizerSettings())
    previous = SpreaderControls(45.0, 45.0, 600.0, 600.0)
    out = controller.plan_controls(tail, grid.zeros(), prescribed, previous, grid)
    assert satisfies_constraints(out, previous, DEFAULT_CONSTRAINTS)


def test_geometry_cache_holds_only_the_current_horizon():
    grid, prescribed = small_field()
    start = TractorState(5.0, 20.0, 0.0)
    plan = DrivePlan(start, (DriveCommand(4.0, 0.0, 6.0),))
    scenario = Scenario(grid, prescribed, plan, 1.0, SpreaderControls(45.0, 45.0, 600.0, 600.0))
    controller = make_controller(ControllerKind.MPC_FULL, 3, CAL, DEFAULT_CONSTRAINTS,
                                 OptimizerSettings())
    record = run(scenario, CAL, DEFAULT_CONSTRAINTS, OptimizerSettings(), controller=controller)
    assert record.n_steps == 6
    assert len(controller._geometry_cache) <= 3
